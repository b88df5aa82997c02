"""Frenkel exciton models: site Hamiltonians, diagonalization, intensity factors.

Site energies and electronic couplings are given in cm^-1.  The single
excitation Hamiltonian carries the couplings with a minus sign on the
off-diagonal, H[m, n] = eps_m * delta_mn - J_mn * (1 - delta_mn), so a
positive J lowers the symmetric combination.

A model may have degenerate exciton energies; the one place that rejects
them is ``generator.transport_rates`` (``DegenerateGapError``), since a
transition at zero frequency has no rate.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelError",
    "SiteModel",
    "ExcitonBasis",
    "site_hamiltonian",
    "diagonalize",
    "dominant_exciton",
    "preset",
    "preset_names",
    "load_model",
]


class ModelError(ValueError):
    """Invalid site model (shape, symmetry or diagonal violations)."""


@dataclass(frozen=True, eq=False)
class SiteModel:
    """A set of two-level sites with symmetric electronic couplings.

    Parameters
    ----------
    energies : array of site energies eps_m (cm^-1), length >= 2
    couplings : symmetric coupling matrix J (cm^-1) with zero diagonal
    """

    energies: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        couplings = np.asarray(self.couplings, dtype=float)
        if energies.ndim != 1 or energies.size < 2:
            raise ModelError("need at least 2 site energies")
        n = energies.size
        if couplings.shape != (n, n):
            raise ModelError(
                f"couplings must be {n}x{n}, got {couplings.shape}"
            )
        for name, values in (("site energies", energies), ("couplings", couplings)):
            if not np.isfinite(values).all():
                raise ModelError(f"{name} must be finite")
        if not np.array_equal(couplings, couplings.T):
            raise ModelError("coupling matrix must be symmetric")
        if np.any(np.diag(couplings) != 0.0):
            raise ModelError("coupling matrix must have zero diagonal")
        energies.setflags(write=False)
        couplings.setflags(write=False)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "couplings", couplings)

    @property
    def n_sites(self) -> int:
        return self.energies.size


@dataclass(frozen=True, eq=False)
class ExcitonBasis:
    """Diagonalized single-excitation manifold.

    ``energies`` are the exciton energies in ascending order; column alpha of
    ``amplitudes`` holds the site amplitudes c_m(alpha) of exciton alpha.
    """

    energies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        self.energies.setflags(write=False)
        self.amplitudes.setflags(write=False)

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_excitons(self) -> int:
        return self.energies.size

    @property
    def gaps(self) -> np.ndarray:
        """Matrix of pairwise differences; gaps[a, b] = eps_b - eps_a."""
        return self.energies[None, :] - self.energies[:, None]

    @functools.cached_property
    def intensity_factors(self) -> np.ndarray:
        """Intensity factors, [a, b] = sum_m |c_m(a)|^2 |c_m(b)|^2, in [0, 1].

        Sums ((c_a c_a) c_b) c_b over the contiguous site axis, as for one
        pair (a matrix product would round differently), in row blocks of
        at most 2^18 products to bound the temporary.
        """
        amps = np.ascontiguousarray(self.amplitudes.T)  # amps[a, m] = c_m(a)
        squares = amps * amps
        n, n_sites = amps.shape
        out = np.empty((n, n))
        step = max(1, (1 << 18) // (n * n_sites))
        for lo in range(0, n, step):
            prod = squares[lo:lo + step, None, :] * amps
            prod *= amps
            out[lo:lo + step] = prod.sum(axis=-1)
        out.setflags(write=False)
        return out


def site_hamiltonian(model: SiteModel) -> np.ndarray:
    """Single-excitation Hamiltonian block, H = diag(eps) - J."""
    return np.diag(model.energies) - model.couplings


def diagonalize(model: SiteModel) -> ExcitonBasis:
    """Diagonalize the single-excitation Hamiltonian of ``model``.

    Eigenvalues come back ascending.  Each eigenvector's phase is fixed so
    its largest-magnitude component is positive, which makes the amplitudes
    deterministic across eigensolver implementations.  Degenerate energies
    are accepted here; ``generator.transport_rates`` rejects them.
    """
    h = site_hamiltonian(model)
    energies, vecs = np.linalg.eigh(h)
    for col in range(vecs.shape[1]):
        pivot = np.argmax(np.abs(vecs[:, col]))
        if vecs[pivot, col] < 0:
            vecs[:, col] = -vecs[:, col]
    return ExcitonBasis(energies=energies, amplitudes=vecs)


def dominant_exciton(basis: ExcitonBasis, site: int) -> int:
    """Index of the exciton carrying the maximum amplitude on ``site``."""
    if not 0 <= site < basis.n_sites:
        raise IndexError(f"site index out of range: {site}")
    return int(np.argmax(np.abs(basis.amplitudes[site, :])))


# FMO-derived presets (cm^-1).  fmo2 keeps the strongly coupled pair of
# sites 1 and 2; fmo3 adds the weakly attached site 3; fmo4 adds site 4,
# forming a second strongly coupled dimer with site 3.
_PRESETS: dict[str, dict] = {
    "fmo2": {
        "energies": [200.0, 320.0],
        "couplings": [
            [0.0, -87.7],
            [-87.7, 0.0],
        ],
    },
    "fmo3": {
        "energies": [200.0, 320.0, 0.0],
        "couplings": [
            [0.0, -87.7, 5.5],
            [-87.7, 0.0, 30.8],
            [5.5, 30.8, 0.0],
        ],
    },
    "fmo4": {
        "energies": [200.0, 320.0, 0.0, 110.0],
        "couplings": [
            [0.0, -87.7, 5.5, -5.9],
            [-87.7, 0.0, 30.8, 8.2],
            [5.5, 30.8, 0.0, -53.5],
            [-5.9, 8.2, -53.5, 0.0],
        ],
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> SiteModel:
    """Return one of the shipped FMO submodels ("fmo2", "fmo3", "fmo4")."""
    try:
        params = _PRESETS[name]
    except KeyError:
        raise ModelError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return SiteModel(**params)


def load_model(path) -> tuple[SiteModel, object]:
    """Read a site model and its "bath" section (None if absent) from a JSON file.

    Expected document: ``{"energies": [..], "couplings": [[..]]}`` with
    all values in cm^-1.  An optional "labels" key is accepted and ignored;
    the bath section is returned as it stands, the command line reads it.
    A ModelError names any other key, and a key that does not hold numbers.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelError(f"model file {path} must hold a JSON object")
    for key in doc:
        if key not in ("energies", "couplings", "labels", "bath"):
            raise ModelError(f"unknown model file key {key!r}")
    arrays = {}
    for key in ("energies", "couplings"):
        if key not in doc:
            raise ModelError(f"model file missing key: {key!r}")
        # as objects, each JSON value stays as it is: a bool stays a bool (no
        # number), and a ragged list becomes an array of lists
        values = np.array(doc[key], dtype=object)
        if not all(type(v) in (int, float) for v in values.flat):
            raise ModelError(f"model file key {key!r} must hold numbers")
        arrays[key] = values.astype(float)
    return SiteModel(**arrays), doc.get("bath")
