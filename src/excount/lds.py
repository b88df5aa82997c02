"""Spectral large-deviation toolkit for tilted jump generators.

theta(s), the scaled cumulant generating function of the counted-jump
statistics, is the largest real eigenvalue of the tilted generator, taken
from its N x N population block.  One batched numpy eigensolve covers a
whole s grid (a long grid goes in slices of bounded memory): the blocks
are stacked, the left eigenvectors are the rows of the inverse of the
right-eigenvector matrix, and theta' and theta'' follow from vectorised
perturbation sums.  A single s is a grid of one point.  The mean jump rate
is -theta'(0), the variance rate theta''(0), and the Mandel parameter
Q(s) = -theta''(s)/theta'(s) - 1 flags sub- (Q<0) versus super-Poissonian
(Q>0) trajectory ensembles.  The rate function phi(k) is the Legendre
transform of theta.

Results are numpy columns, never per-point objects: ``scan`` returns one
``ScanResult`` (s, theta, activity, and Q with NaN where the activity
vanishes), and ``rate_function`` returns the k and phi columns.  An s at
which e^{-s} overflows is a ValueError, and a non-finite theta, theta' or
theta'' is a SpectralError, so a NaN in a result can only mean "Q undefined".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .generator import TiltedGenerator

__all__ = [
    "SpectralError",
    "UndefinedMandelError",
    "NonConvexThetaWarning",
    "ScanResult",
    "CrossoverReport",
    "ParameterScan",
    "theta",
    "theta_derivatives",
    "mandel",
    "scan",
    "rate_function",
    "legendre_reconstruct",
    "find_crossover",
    "scan_mandel_vs_parameter",
    "default_s_grid",
]

# Default scan range; matches the figure-style window on the inactive side.
S_MIN_DEFAULT = -2.0
S_MAX_DEFAULT = 12.0
S_POINTS_DEFAULT = 281

# Stacked block entries per np.linalg.eig call.  Long grids at large N are
# walked in slices of this size so their memory stays bounded (an unsliced
# 281-point stack at N = 100 reached 204 MB of resident memory).
_SLICE_ENTRIES = 2**18

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# The tilt e^{-s} overflows a double below this s.
_S_LOWEST = -math.log(np.finfo(float).max)

# Q is undefined where the activity |theta'| is below this (cm^-1).
_ACTIVITY_FLOOR = 1e-14


class SpectralError(RuntimeError):
    """Top eigenvalue of the tilted generator is ambiguous or defective."""


class UndefinedMandelError(ValueError):
    """Mandel parameter requested where the activity vanishes."""


class NonConvexThetaWarning(UserWarning):
    """Numerical theta(s) violated convexity beyond tolerance."""


@dataclass(frozen=True)
class ScanResult:
    """An s grid with theta, the activity -theta'(s) and Mandel Q(s) as
    float64 columns; Q is NaN where the activity vanishes."""

    s: np.ndarray
    theta: np.ndarray
    activity: np.ndarray
    mandel: np.ndarray

    def __len__(self) -> int:
        return self.s.size


@dataclass(frozen=True)
class CrossoverReport:
    """Sign change of Q(s) (if any) plus the strongest local maximum of Q."""

    s_star: float | None
    q_at_zero: float
    local_max: tuple[float, float] | None


@dataclass(frozen=True)
class ParameterScan:
    """Q(0) versus an external parameter, with grid-local maxima."""

    points: tuple[tuple[float, float], ...]
    local_maxima: tuple[tuple[float, float], ...]


def default_s_grid(
    s_min: float = S_MIN_DEFAULT,
    s_max: float = S_MAX_DEFAULT,
    n_points: int = S_POINTS_DEFAULT,
) -> np.ndarray:
    return np.linspace(s_min, s_max, n_points)


def _s_array(s_values) -> np.ndarray:
    """The s values as a float array; ValueError, before any block is built,
    at the first s where e^{-s} overflows (or that is NaN)."""
    s = np.asarray(s_values, dtype=float)
    bad = ~(s >= _S_LOWEST)
    if bad.any():
        raise ValueError(
            f"cannot tilt at s={s.flat[np.argmax(bad)]}: e^-s overflows below "
            f"s={_S_LOWEST!r}"
        )
    return s


def _raise_first(bad: np.ndarray, message) -> None:
    """SpectralError for the first True entry of ``bad``; ``message`` maps
    its index to the text."""
    if bad.any():
        raise SpectralError(message(int(np.argmax(bad))))


# Overflow under a huge tilt is not warned about: the finite checks in
# _eigensystem and _spectra turn it into a SpectralError.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def _eigensystem(generator: TiltedGenerator, s: np.ndarray):
    """One eigensolve of the stacked tilted blocks at the 1-D array s.

    Returns the eigenvalues, the right eigenvectors (columns), the left
    eigenvectors (rows of the inverse, so biorthonormal to the right ones)
    and the index of each top eigenvalue.  The blocks must be finite, and
    the top eigenpair real, unambiguous and non-defective, else
    SpectralError.
    """
    blocks = generator.population_block(s)
    _raise_first(
        ~np.isfinite(blocks).all(axis=(-2, -1)),
        lambda k: f"tilted block overflows at s={s[k]}",
    )
    w, vr = np.linalg.eig(blocks)
    # numpy returns real arrays when every eigenvalue of the stack is real;
    # fixing the dtype keeps a point's result independent of its slice.
    w, vr = w.astype(complex, copy=False), vr.astype(complex, copy=False)
    rows = np.arange(s.size)
    i = np.argmax(w.real, axis=-1)
    top = w[rows, i]
    near = np.abs(w.real - top.real[:, None]) < 1e-12
    _raise_first(
        (near.sum(axis=-1) > 1) & (near & (np.abs(w.imag) > 1e-9)).any(axis=-1),
        lambda k: f"ambiguous top eigenvalue: {near[k].sum()} eigenvalues share the "
        f"real part {top[k].real:.6g} with nonzero imaginary parts at s={s[k]}",
    )
    _raise_first(
        np.abs(top.imag) > 1e-9,
        lambda k: f"top eigenvalue has imaginary part {top[k].imag:.3e} at s={s[k]}",
    )
    try:
        vl = np.linalg.inv(vr)
    except np.linalg.LinAlgError:
        k = int(np.argmin(np.abs(np.linalg.det(vr))))
        raise SpectralError(f"defective top eigenpair at s={s[k]}") from None
    l = vl[rows, i, :]
    r = vr[rows, :, i]
    # an infinite norm is defective too
    bound = 1e-12 * np.linalg.norm(l, axis=-1) * np.linalg.norm(r, axis=-1)
    _raise_first(
        np.abs((l * r).sum(axis=-1)) < bound,
        lambda k: f"defective top eigenpair at s={s[k]}",
    )
    return w, vr, vl, i


def _check_real(values: np.ndarray, name: str, s: np.ndarray) -> None:
    _raise_first(
        np.abs(values.imag) > 1e-9 * np.maximum(1.0, np.abs(values)),
        lambda k: f"{name}({s[k]}) came out complex: {values[k]}",
    )


@_quiet_overflow
def _spectra(generator: TiltedGenerator, s_values) -> np.ndarray:
    """Rows theta, theta' and theta'' over a grid of s, one eigensolve per
    slice of the grid.

    theta' comes from the eigenvector identity <l|dW/ds|r> (the left and
    right vectors are biorthonormal), theta'' from the exact second-order
    eigenvalue-perturbation sum over the remaining eigenpairs.  Every value
    is finite, else SpectralError.
    """
    s = _s_array(s_values)
    out = np.empty((3, s.size))
    step = max(1, _SLICE_ENTRIES // generator.n_excitons**2)
    for lo in range(0, s.size, step):
        part = s[lo : lo + step]
        w, vr, vl, i = _eigensystem(generator, part)
        rows = np.arange(part.size)
        top = w[rows, i]
        a = vl @ generator.population_block_derivative(part) @ vr
        d1 = a[rows, i, i]
        _check_real(d1, "theta'", part)
        # d2W/ds2 = -dW/ds for an exponential tilt, so the diagonal term is
        # -d1; the cross terms are the usual second-order perturbation sum,
        # skipping uncoupled eigenpairs (whose gap may be 0).
        num = a[rows, i, :] * a[rows, :, i]
        num[rows, i] = 0.0
        gap = top[:, None] - w
        crowded = (num != 0.0) & (np.abs(gap) < 1e-9)
        _raise_first(
            crowded.any(axis=-1),
            lambda k: f"eigenvalue {w[k, np.argmax(crowded[k])]:.6g} crowds the top "
            f"eigenvalue at s={part[k]}",
        )
        terms = np.divide(num, gap, out=np.zeros_like(num), where=num != 0.0)
        d2 = -d1 + 2.0 * terms.sum(axis=-1)
        _check_real(d2, "theta''", part)
        out[:, lo : lo + step] = top.real, d1.real, d2.real
    _raise_first(
        ~np.isfinite(out).all(axis=0),
        lambda k: f"non-finite theta, theta', theta'' = {out[:, k].tolist()} at s={s[k]}",
    )
    return out


def _mandel(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Q = -theta''/theta' - 1, NaN where the activity vanishes."""
    undefined = np.abs(d1) < _ACTIVITY_FLOOR
    return np.where(undefined, np.nan, -d2 / np.where(undefined, 1.0, d1) - 1.0)


def _mandel_from(d1: float, d2: float) -> float | None:
    """Q at one s, or None where the activity vanishes."""
    q = float(_mandel(np.float64(d1), np.float64(d2)))
    return None if math.isnan(q) else q


def _mandel_grid(generator: TiltedGenerator, s: np.ndarray) -> np.ndarray:
    """Q over the grid s; UndefinedMandelError where the activity vanishes."""
    q = _mandel(*_spectra(generator, s)[1:])
    undefined = np.isnan(q)
    if undefined.any():
        raise UndefinedMandelError(
            f"activity vanishes at s={s[np.argmax(undefined)]}; Q undefined"
        )
    return q


def theta(generator: TiltedGenerator, s: float) -> float:
    """theta(s): largest real eigenvalue of the tilted population block."""
    w, _, _, i = _eigensystem(generator, _s_array([s]))
    return float(w[0, i[0]].real)


def theta_derivatives(generator: TiltedGenerator, s: float) -> tuple[float, float, float]:
    """(theta, theta', theta'') at the given s, from one eigensolve."""
    th, d1, d2 = _spectra(generator, [s])[:, 0].tolist()
    return th, d1, d2


def mandel(generator: TiltedGenerator, s: float) -> float:
    """Q(s) = -theta''(s)/theta'(s) - 1."""
    return float(_mandel_grid(generator, np.array([s], dtype=float))[0])


def scan(generator: TiltedGenerator, s_values) -> ScanResult:
    """Evaluate theta, activity and Mandel Q on a grid of s values."""
    s = np.array(s_values, dtype=float)
    th, d1, d2 = _spectra(generator, s)
    return ScanResult(s=s, theta=th, activity=-d1, mandel=_mandel(d1, d2))


def _check_convexity(s: np.ndarray, th: np.ndarray, tol: float = 1e-9) -> bool:
    second = th[2:] - 2.0 * th[1:-1] + th[:-2]
    return bool(second.size == 0 or second.min() >= -tol)


def rate_function(result: ScanResult) -> tuple[np.ndarray, np.ndarray]:
    """Legendre transform of a theta scan: the columns k and phi(k) on the
    scanned activity range, in ascending k, via phi(k(s)) = -theta(s) - s*k(s).

    The parametric values are cross-checked against the direct grid
    minimum -min_s[theta(s) + k s]; a convexity violation of the numerical
    theta triggers a NonConvexThetaWarning and the result is still
    returned.
    """
    by_s = np.argsort(result.s, kind="stable")
    s, th, k = result.s[by_s], result.theta[by_s], result.activity[by_s]
    convex = _check_convexity(s, th)
    if not convex:
        warnings.warn(
            "theta(s) is not numerically convex; rate function may be unreliable",
            NonConvexThetaWarning,
            stacklevel=2,
        )
    phi = -th - s * k
    # Direct transform on the same grid; equals the parametric value when
    # theta is convex (the touching point is a grid point).
    direct = -(th[None, :] + np.outer(k, s)).min(axis=1)
    mismatch = float(np.max(np.abs(direct - phi)))
    if convex and mismatch > 1e-9 * max(1.0, float(np.max(np.abs(th)))):
        warnings.warn(
            f"parametric and direct Legendre transforms disagree by {mismatch:.3e}",
            NonConvexThetaWarning,
            stacklevel=2,
        )
    phi = np.where((phi < 0.0) & (phi > -1e-9), 0.0, phi)
    order = np.argsort(k)
    return k[order], phi[order]


def legendre_reconstruct(rate, s_values) -> np.ndarray:
    """Rebuild theta_hat(s) = -min_k [phi(k) + k*s] from the (k, phi)
    columns of ``rate_function``."""
    k, phi = rate
    s = np.asarray(s_values, dtype=float)
    return -(phi[None, :] + np.outer(s, k)).min(axis=1)


def _bisect_sign_change(f, lo: float, hi: float, f_lo: float, tol: float = 1e-6) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _golden_max(f, lo: float, hi: float, xatol: float = 1e-8) -> tuple[float, float]:
    """(x, f(x)) at the maximum of a unimodal f on [lo, hi], by golden-section
    search down to a bracket of width xatol."""
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xatol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def find_crossover(generator: TiltedGenerator, s_grid) -> CrossoverReport:
    """Locate sign changes and local maxima of Q(s) on the given grid.

    Q on the grid comes from one batched eigensolve.  The first sign change
    of Q is refined by bisection to 1e-6 in s; the strongest interior local
    maximum of Q (a phase-coexistence indicator) by golden-section search
    to 1e-8.  Absent features are reported as None rather than raised.
    """
    s = np.asarray(s_grid, dtype=float)
    if s.size < 32:
        raise ValueError(f"s grid needs at least 32 points, got {s.size}")
    if not np.all(np.isfinite(s)):
        raise ValueError("s grid must be finite")
    s = np.sort(s)
    q = _mandel_grid(generator, s)

    s_star = None
    negative = q < 0
    change = (q[:-1] == 0.0) | (negative[:-1] != negative[1:])
    if change.any():
        i = int(np.argmax(change))
        s_star = float(
            s[i]
            if q[i] == 0.0
            else _bisect_sign_change(lambda x: mandel(generator, x), s[i], s[i + 1], q[i])
        )

    local_max = None
    peaks = np.flatnonzero((q[1:-1] > q[:-2]) & (q[1:-1] >= q[2:])) + 1
    if peaks.size:
        i = peaks[np.argmax(q[peaks])]  # the first of equal maxima
        x, qx = _golden_max(lambda x: mandel(generator, x), s[i - 1], s[i + 1])
        local_max = (float(x), float(qx))

    return CrossoverReport(
        s_star=s_star, q_at_zero=mandel(generator, 0.0), local_max=local_max
    )


def scan_mandel_vs_parameter(family, values) -> ParameterScan:
    """Q at s=0 across a family of generators indexed by a control parameter.

    ``family`` maps a parameter value to a TiltedGenerator; grid-local
    maxima of Q(0) are reported as phase-coexistence candidates.
    """
    points = tuple((float(v), mandel(family(v), 0.0)) for v in values)
    q = [p[1] for p in points]
    maxima = tuple(
        points[i]
        for i in range(1, len(points) - 1)
        if q[i] > q[i - 1] and q[i] >= q[i + 1]
    )
    return ParameterScan(points=points, local_maxima=maxima)
