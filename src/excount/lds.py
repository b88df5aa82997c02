"""Spectral large-deviation toolkit for tilted jump generators.

theta(s), the scaled cumulant generating function of the counted-jump
statistics, is the largest real eigenvalue of the tilted generator, taken
from its N x N population block.  theta and its derivatives need only the
top eigenpair: one batched eigenvalues-only solve of the stacked blocks
gives theta over a whole s grid (a long grid goes in slices of bounded
memory), and batched bordered systems [[W_s - theta, b], [b^T, 0]] give
the top right and left vectors and, in the inverse, the generalized
inverse of W_s - theta, from which theta' and theta'' follow in closed
form (Meyer, SIAM Rev. 17, 443 (1975)).  Excitons with no rate in or out
are set aside; they add the eigenvalue 0.  A single s is a grid of one
point.  The mean jump rate
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

# Stacked block entries per np.linalg.eigvals call.  Long grids at large N are
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
# _top_eigenpairs and _spectra turn it into a SpectralError.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _live_excitons(block: np.ndarray, derivative: np.ndarray) -> np.ndarray:
    """Mask of the excitons with a rate in or out: a nonzero entry in their
    row or column of one block or of its derivative.  The others are
    isolated, at every s."""
    nonzero = (block != 0.0) | (derivative != 0.0)
    return nonzero.any(axis=0) | nonzero.any(axis=1)


def _inverted(solver, m: np.ndarray, s: np.ndarray, *rhs) -> np.ndarray:
    """``solver(m, *rhs)``, and a defective SpectralError at the s of the
    first singular bordered matrix (the stack m may repeat the grid)."""
    try:
        return solver(m, *rhs)
    except np.linalg.LinAlgError:
        k = int(np.argmin(np.linalg.slogdet(m)[1])) % s.size
        raise SpectralError(
            f"defective top eigenpair at s={s[k]}: the bordered matrix is singular"
        ) from None


@_quiet_overflow
def _top_eigenpairs(generator: TiltedGenerator, s: np.ndarray):
    """The top eigenpair of the stacked tilted blocks at the 1-D array s,
    from one eigenvalues-only solve and bordered systems.

    Isolated excitons (no rate in or out) are set aside: each adds the
    eigenvalue 0 with zero derivatives, and loses a tie with the top
    eigenvalue of the other ("live") excitons.  On the live block W_s, theta
    is the eigenvalue with the largest real part.  The bordered matrix
    M = [[W_s - theta, b], [b^T, 0]] with b = 1 gives the right and left
    vectors normalized by 1.r = 1 and l.1 = 1 (its last column and row),
    and so the exciton k with the largest |l_k r_k|.  The inverse of M with
    b = e_k then holds r (last column, r_k = 1), l (last row, l_k = 1) and,
    in its top-left block, the generalized inverse S of W_s - theta with
    S e_k = 0 and e_k^T S = 0.

    Returns (theta, l, r, S, l.r, gap, live, wins): gap is the distance from
    the top to the nearest other eigenvalue, live the exciton mask, and wins
    marks the points where the live block's top eigenvalue is theta.  Where
    an isolated exciton's 0 is theta instead, the pair is that of an
    identity block, and gap is infinite.

    SpectralError, with the failing s, where a block is not finite, where
    several eigenvalues with nonzero imaginary parts share the top real part
    within 1e-12 ("ambiguous"), where the top has an imaginary part above
    1e-9, and "defective" where the top is not a simple eigenvalue: another
    real eigenvalue within 1e-12 (a reducible rate matrix), a singular M, or
    |sum l_i r_i| <= 1e-12 sum |l_i r_i|, a test that diagonal similarity
    (rescaling the excitons) leaves unchanged.
    """
    blocks = generator.population_block(s)
    _raise_first(
        ~np.isfinite(blocks).all(axis=(-2, -1)),
        lambda k: f"tilted block overflows at s={s[k]}",
    )
    live = _live_excitons(blocks[0], generator.population_block_derivative(s[0]))
    if not live.all():
        blocks = blocks[:, live][:, :, live]
    n = blocks.shape[-1]
    if n == 0:
        zero, none = np.zeros(s.size), np.zeros((s.size, 0))
        empty = np.zeros((s.size, 0, 0))
        return zero, none, none, empty, zero + 1.0, zero + np.inf, live, zero > 0
    w = np.linalg.eigvals(blocks)
    rows = np.arange(s.size)
    i = np.argmax(w.real, axis=-1)
    top = w[rows, i]
    th = top.real
    # an isolated exciton's eigenvalue 0 is theta where it beats the live top
    wins = th >= -1e-12 if n < live.size else np.ones(s.size, dtype=bool)
    near = np.abs(w.real - th[:, None]) < 1e-12
    ties = wins & (near.sum(axis=-1) > 1)
    if np.iscomplexobj(w):  # numpy returns real eigenvalues when all of them are
        _raise_first(
            ties & (near & (np.abs(w.imag) > 1e-9)).any(axis=-1),
            lambda k: f"ambiguous top eigenvalue: {near[k].sum()} eigenvalues share the "
            f"real part {th[k]:.6g} with nonzero imaginary parts at s={s[k]}",
        )
        _raise_first(
            wins & (np.abs(top.imag) > 1e-9),
            lambda k: f"top eigenvalue has imaginary part {top[k].imag:.3e} at s={s[k]}",
        )
    _raise_first(
        ties,
        lambda k: f"defective top eigenpair at s={s[k]}: {near[k].sum()} eigenvalues "
        f"tie at the top {th[k]:.6g}, so the rate matrix is reducible",
    )
    m = np.zeros((s.size, n + 1, n + 1), dtype=np.result_type(blocks, float))
    m[:, :n, :n] = blocks
    diag = np.arange(n)
    m[:, diag, diag] -= th[:, None]
    if n < live.size:
        th = np.where(wins, th, 0.0)
        m[~wins, :n, :n] = np.eye(n)  # no pair is needed there
    m[:, :n, n] = m[:, n, :n] = 1.0
    last = np.zeros((n + 1, 1))
    last[n] = 1.0
    pair = _inverted(np.linalg.solve, np.concatenate([m, m.transpose(0, 2, 1)]), s, last)
    # Bordering with e_k keeps every entry of the pair accurate where the
    # block is graded: at large |s| the entries of r and l span many
    # decades, and the ones border gets the small ones only to an absolute
    # rounding error (Q lost up to 1e-10 on fmo2 pair:a1<->a2 at s = 12).
    heavy = np.argmax(np.abs(pair[: s.size, :n, 0] * pair[s.size :, :n, 0]), axis=-1)
    m[:, :n, n] = m[:, n, :n] = 0.0
    m[rows, heavy, n] = m[rows, n, heavy] = 1.0
    inverse = _inverted(np.linalg.inv, m, s)
    r, l, inv_s = inverse[:, :n, n], inverse[:, n, :n], inverse[:, :n, :n]
    lr = l * r
    overlap = lr.sum(axis=-1)
    # not-greater, so a NaN or infinite overlap is defective too
    _raise_first(
        ~(np.abs(overlap) > 1e-12 * np.abs(lr).sum(axis=-1)),
        lambda k: f"defective top eigenpair at s={s[k]}",
    )
    gap = np.abs(w - top[:, None])
    gap[rows, i] = np.inf
    gap = np.where(wins, gap.min(axis=-1), np.inf)
    return th, l, r, inv_s, overlap, gap, live, wins


def _check_real(values: np.ndarray, name: str, s: np.ndarray) -> None:
    if np.iscomplexobj(values):
        _raise_first(
            np.abs(values.imag) > 1e-9 * np.maximum(1.0, np.abs(values)),
            lambda k: f"{name}({s[k]}) came out complex: {values[k]}",
        )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two stacks of vectors."""
    return (a * b).sum(axis=-1)


@_quiet_overflow
def _spectra(generator: TiltedGenerator, s_values) -> np.ndarray:
    """Rows theta, theta' and theta'' over a grid of s, one eigenvalues-only
    solve and one batched bordered inverse per slice of the grid.

    With dW = dW/ds and the top pair of ``_top_eigenpairs``,
    theta' = l.dW.r / l.r.  The derivative of r (normalized by r_k = 1) is
    r' = -S u with u = (dW - theta') r, and as d2W/ds2 = -dW,
    theta'' = -theta' + 2 l.(dW - theta').r' / l.r = -theta' - 2 v.S.u / l.r
    with v = l (dW - theta').

    SpectralError where theta' or theta'' has an imaginary part, where
    another eigenvalue within 1e-9 of the top couples to it through dW
    ("crowds": that eigenvalue's pole carries gap * |v.S.u| > 1e-6 |v||u|
    of v.S.u), and where theta, theta' or theta'' is not finite.
    """
    s = _s_array(s_values)
    out = np.empty((3, s.size))
    step = max(1, _SLICE_ENTRIES // generator.n_excitons**2)
    for lo in range(0, s.size, step):
        part = s[lo : lo + step]
        th, l, r, inv_s, overlap, gap, live, wins = _top_eigenpairs(generator, part)
        dw = generator.population_block_derivative(part)
        if not live.all():
            dw = dw[:, live][:, :, live]
        dw_r = (dw @ r[..., None])[..., 0]
        d1 = _dot(l, dw_r) / overlap
        _check_real(d1, "theta'", part)
        u = dw_r - d1[:, None] * r
        v = (l[:, None, :] @ dw)[:, 0] - d1[:, None] * l
        vsu = _dot(v, (inv_s @ u[..., None])[..., 0])
        close = gap < 1e-9
        if close.any():
            coupling = gap * np.abs(vsu)
            bound = 1e-6 * np.linalg.norm(v, axis=-1) * np.linalg.norm(u, axis=-1)
            _raise_first(
                close & (coupling > bound),
                lambda k: f"an eigenvalue {gap[k]:.3g} away crowds the top eigenvalue "
                f"{th[k]:.6g} at s={part[k]}",
            )
        d2 = -d1 - 2.0 * vsu / overlap
        _check_real(d2, "theta''", part)
        out[:, lo : lo + step] = np.where(wins, (th, d1.real, d2.real), 0.0)
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
    return float(_top_eigenpairs(generator, _s_array([s]))[0][0])


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
