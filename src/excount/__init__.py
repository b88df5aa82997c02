"""Counting statistics of quantum-jump trajectories for Markovian exciton transport."""

from .bath import BathSpec, gamma, spectral_density
from .generator import (
    DegenerateGapError,
    SelectorError,
    TiltedGenerator,
    resolve_counted,
    tilted_generator,
    transport_rates,
)
from .lds import (
    CrossoverReport,
    ScanResult,
    SpectralError,
    UndefinedMandelError,
    default_s_grid,
    find_crossover,
    mandel,
    rate_function,
    scan,
    theta_derivatives,
)
from .model import (
    ExcitonBasis,
    ModelError,
    SiteModel,
    diagonalize,
    dominant_exciton,
    load_model,
    preset,
    preset_names,
    site_hamiltonian,
)
from .trajectories import (
    CountStatistics,
    TrajectoryConfig,
    simulate,
)

__version__ = "0.1.0"
