"""Frenkel exciton models: site Hamiltonians, diagonalization, intensity factors.

Site energies and electronic couplings are given in cm^-1.  The single
excitation Hamiltonian carries the couplings with a minus sign on the
off-diagonal, H[m, n] = eps_m * delta_mn - J_mn * (1 - delta_mn), so a
positive J lowers the symmetric combination.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelError",
    "DegenerateSpectrumError",
    "SiteModel",
    "ExcitonBasis",
    "site_hamiltonian",
    "diagonalize",
    "intensity_factor",
    "dominant_exciton",
    "preset",
    "preset_names",
    "load_model",
]

# Eigenvalues closer than this (cm^-1) are treated as degenerate.
DEGENERACY_TOL = 1e-9


class ModelError(ValueError):
    """Invalid site model (shape, symmetry or diagonal violations)."""


class DegenerateSpectrumError(ModelError):
    """Exciton spectrum carries (near-)degenerate eigenvalues."""


@dataclass(frozen=True, eq=False)
class SiteModel:
    """A set of two-level sites with symmetric electronic couplings.

    Parameters
    ----------
    energies : array of site energies eps_m (cm^-1), length >= 2
    couplings : symmetric coupling matrix J (cm^-1) with zero diagonal
    labels : optional site names
    preset_name : set by :func:`preset`; tightens the degeneracy policy
    """

    energies: np.ndarray
    couplings: np.ndarray
    labels: tuple[str, ...] | None = None
    preset_name: str | None = field(default=None)

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
        if not np.array_equal(couplings, couplings.T):
            raise ModelError("coupling matrix must be symmetric")
        if np.any(np.diag(couplings) != 0.0):
            raise ModelError("coupling matrix must have zero diagonal")
        if self.labels is not None and len(self.labels) != n:
            raise ModelError("labels length must match number of sites")
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

    def gap(self, a: int, b: int) -> float:
        """Energy change of a jump from exciton a to exciton b."""
        return float(self.energies[b] - self.energies[a])

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
    deterministic across eigensolver implementations.

    Raises
    ------
    DegenerateSpectrumError
        When two exciton energies coincide within 1e-9 cm^-1 and the model
        is a shipped preset.  User models only get a warning here;
        ``generator.transport_rates`` then rejects them.
    """
    h = site_hamiltonian(model)
    energies, vecs = np.linalg.eigh(h)
    for col in range(vecs.shape[1]):
        pivot = np.argmax(np.abs(vecs[:, col]))
        if vecs[pivot, col] < 0:
            vecs[:, col] = -vecs[:, col]
    gaps = np.diff(energies)
    if gaps.size and np.min(gaps) < DEGENERACY_TOL:
        where = int(np.argmin(gaps))
        msg = (
            f"degenerate exciton energies: levels {where} and {where + 1} "
            f"differ by {gaps[where]:.3e} cm^-1"
        )
        if model.preset_name is not None:
            raise DegenerateSpectrumError(msg)
        warnings.warn(msg, stacklevel=2)
    return ExcitonBasis(energies=energies, amplitudes=vecs)


def intensity_factor(basis: ExcitonBasis, alpha: int, alpha_prime: int) -> float:
    """Electronic contribution to the alpha <-> alpha' transfer rate.

    One entry of ``basis.intensity_factors``.
    """
    n = basis.n_excitons
    if not (0 <= alpha < n and 0 <= alpha_prime < n):
        raise IndexError(
            f"exciton index out of range: ({alpha}, {alpha_prime}) for {n} excitons"
        )
    return float(basis.intensity_factors[alpha, alpha_prime])


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
    energies = np.array(params["energies"])
    return SiteModel(
        energies=energies,
        couplings=np.array(params["couplings"]),
        labels=tuple(f"site{i + 1}" for i in range(energies.size)),
        preset_name=name,
    )


def load_model(path) -> SiteModel:
    """Read a site model from a JSON file.

    Expected document: ``{"energies": [..], "couplings": [[..]],
    "labels": [..]}`` with all values in cm^-1.  An optional "bath"
    section is ignored here; the command line reads it.
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        energies = np.array(doc["energies"], dtype=float)
        couplings = np.array(doc["couplings"], dtype=float)
    except KeyError as exc:
        raise ModelError(f"model file missing key: {exc}") from None
    labels = tuple(doc["labels"]) if "labels" in doc else None
    return SiteModel(energies=energies, couplings=couplings, labels=labels)
