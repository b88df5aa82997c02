"""Spectral large-deviation toolkit for tilted jump generators.

theta(s), the scaled cumulant generating function of the counted-jump
statistics, is the largest real eigenvalue of the tilted generator, taken
from its N x N population block.  theta and its derivatives need only the
top eigenpair: one batched eigenvalues-only solve of the stacked blocks
gives theta over a whole s grid (a long grid goes in slices of bounded
memory), and batched bordered systems [[W_s - theta, b], [b^T, 0]] give
the top right and left vectors and, in the inverse, the generalized
inverse of W_s - theta, from which theta', theta'' and (for crossover
refinement only) theta''' follow in closed form (Meyer, SIAM Rev. 17, 443
(1975)).  W_s is block-triangular in the strongly connected classes of its
jump graph (``TiltedGenerator.graphs``), so each class block is solved on
its own and theta is the largest class top.  Where classes tie (every
closed class at s = 0), the tied class with the largest activity -theta'
is reported, with its higher derivatives: theta's slope just below the
tie.  A generator may stack tasks (say one per temperature and channel) on
leading axes: ``scan`` and ``find_crossover`` solve the blocks of all its
tasks at all s in one stack (one grid, or one s per task), in slices that
may run on threads (``_spectra``), and each task's result is the one its
own generator gives, bit for bit.  ``stationary`` reduces the rates of
the closed class by GTH.  The mean jump rate is -theta'(0), the variance
rate theta''(0), and Q(s) = -theta''(s)/theta'(s) - 1 flags sub- (Q<0)
versus super-Poissonian (Q>0) trajectory ensembles.  ``find_crossover``
refines the sign change of Q, and its maximum as the root of the analytic
Q' in the grid cell where Q' turns from positive to non-positive, with one
batched root finder for all tasks.  The rate function phi(k) is the
Legendre transform of theta.

Results are numpy columns, never per-point objects: ``scan`` returns one
``ScanResult`` (s, theta, activity, and Q with NaN where the activity
vanishes), and ``rate_function`` returns the k and phi columns.  An s at
which e^{-s} overflows is a ValueError, and a non-finite theta, theta' or
theta'' is a SpectralError, so a NaN in a result can only mean "Q undefined".
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .generator import TiltedGenerator

__all__ = [
    "SpectralError",
    "UndefinedMandelError",
    "NonConvexThetaWarning",
    "ScanResult",
    "CrossoverReport",
    "theta_derivatives",
    "mandel",
    "stationary",
    "scan",
    "rate_function",
    "find_crossover",
    "default_s_grid",
]

# Default scan range; matches the figure-style window on the inactive side.
S_MIN_DEFAULT = -2.0
S_MAX_DEFAULT = 12.0
S_POINTS_DEFAULT = 281

# Stacked block entries per slice, one np.linalg.eigvals call each.  Long
# grids at large N are walked in slices of this size so their memory stays
# bounded (an unsliced 281-point stack at N = 100 reached 204 MB of resident
# memory).  Slices are also the unit of parallel work.
_SLICE_ENTRIES = 2**18

# Stacks of more block entries than this are cut into at least ``workers``
# slices (``workers`` capped at the processor count), solved on up to that
# many threads.  Measured on 2 cores: two threads with a fresh pool win on
# stacks of N = 3 and 4 blocks from about 2^14 entries, by 1.2-1.5x from
# 2^15; a 41-point scan of one N = 30 task (36900 entries) gained nothing
# and its process grew by 1 MB.
_THREAD_ENTRIES = 2**16

# Crossover refinement: the root-finding tolerance in s, and the round cap.
_S_TOL = 1e-8
_ROUNDS = 60

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
    float64 columns; Q is NaN where the activity vanishes.  The scan of a
    stacked generator has its task axes in front of every column."""

    s: np.ndarray
    theta: np.ndarray
    activity: np.ndarray
    mandel: np.ndarray

    def __len__(self) -> int:
        return self.s.size

    def tasks(self) -> list[ScanResult]:
        """One single-task result per task of a stacked scan, in the order
        of ``TiltedGenerator.tasks``."""
        points = self.s.shape[-1]
        columns = (self.s, self.theta, self.activity, self.mandel)
        return [ScanResult(*row) for row in zip(*(c.reshape(-1, points) for c in columns))]


@dataclass(frozen=True)
class CrossoverReport:
    """Sign change s* of Q(s), Q(0), and the maximum (s, Q) where Q' turns; None if absent."""

    s_star: float | None
    q_at_zero: float
    local_max: tuple[float, float] | None


def default_s_grid(
    s_min: float = S_MIN_DEFAULT,
    s_max: float = S_MAX_DEFAULT,
    n_points: int = S_POINTS_DEFAULT,
) -> np.ndarray:
    return np.linspace(s_min, s_max, n_points)


def _s_array(s_values, batch=()) -> np.ndarray:
    """The s values as a float array; ValueError, before any block is built,
    for a grid that is neither 1-D nor (points, *batch) for task axes
    ``batch``, for complex values (a cast would drop their imaginary parts)
    and at the first s where e^{-s} overflows (or that is NaN)."""
    s = np.asarray(s_values)
    if s.ndim != 1 and not (batch and s.shape[1:] == batch):
        raise ValueError(f"the s grid must be 1-D, got shape {s.shape}")
    if np.iscomplexobj(s):
        raise ValueError(f"s must be real, got {s.dtype} values")
    s = s.astype(float, copy=False)
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
# _top_eigenpairs and _spectra turn it into a SpectralError.  The callers of
# _top_eigenpairs apply it.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _single(generator: TiltedGenerator) -> TiltedGenerator:
    if generator.batch_shape:
        raise ValueError(f"needs a single-task generator, got task axes {generator.batch_shape}")
    return generator


def _class_block(stack: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The diagonal block of the class ``c`` in every matrix of ``stack``;
    the stack itself, not a copy, for a class of every exciton."""
    return stack if c.size == stack.shape[-1] else stack[:, c[:, None], c]


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


def _top_eigenpairs(blocks: np.ndarray, s: np.ndarray):
    """The top eigenpair of each tilted block of the stack ``blocks``, the
    block at s[k] being blocks[k], from one eigenvalues-only solve and
    bordered systems.

    On the block W_s (of one class), theta is the eigenvalue with the
    largest real part.  The bordered matrix
    M = [[W_s - theta, b], [b^T, 0]] with b = 1 gives the right and left
    vectors normalized by 1.r = 1 and l.1 = 1 (its last column and row),
    and so the exciton k with the largest |l_k r_k|.  The inverse of M with
    b = e_k then holds r (last column, r_k = 1), l (last row, l_k = 1) and,
    in its top-left block, the generalized inverse S of W_s - theta with
    S e_k = 0 and e_k^T S = 0.

    Returns (theta, l, r, S, l.r, gap): gap is the distance from the top
    to the nearest other eigenvalue.  The blocks are real, so a complex
    eigenvalue comes with its conjugate, and a complex top ties with it.

    SpectralError, with the failing s, where a block is not finite, where
    several eigenvalues with nonzero imaginary parts share the top real part
    within 1e-12 ("ambiguous"), and "defective" where the top is not a
    simple eigenvalue: another eigenvalue with its real part within 1e-12, a
    singular M, or |sum l_i r_i| <= 1e-12 sum |l_i r_i|, a test that
    diagonal similarity (rescaling the excitons) leaves unchanged.
    """
    _raise_first(
        ~np.isfinite(blocks).all(axis=(-2, -1)),
        lambda k: f"tilted block overflows at s={s[k]}",
    )
    n = blocks.shape[-1]
    w = np.linalg.eigvals(blocks)
    rows = np.arange(s.size)
    i = np.argmax(w.real, axis=-1)
    top = w[rows, i]
    th = top.real
    near = np.abs(w.real - th[:, None]) < 1e-12
    ties = near.sum(axis=-1) > 1
    _raise_first(
        ties & (near & (np.abs(w.imag) > 1e-9)).any(axis=-1),
        lambda k: f"ambiguous top eigenvalue: {near[k].sum()} eigenvalues share the "
        f"real part {th[k]:.6g} with nonzero imaginary parts at s={s[k]}",
    )
    _raise_first(
        ties,
        lambda k: f"defective top eigenpair at s={s[k]}: {near[k].sum()} eigenvalues "
        f"tie at the top {th[k]:.6g} of one strongly connected class",
    )
    m = np.zeros((s.size, n + 1, n + 1))
    m[:, :n, :n] = blocks
    diag = np.arange(n)
    m[:, diag, diag] -= th[:, None]
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
    return th, l, r, inv_s, overlap, gap.min(axis=-1)


def _stack_spectra(s: np.ndarray, blocks, dw, classes, third=False) -> np.ndarray:
    """Rows theta, theta' and theta'' (and with ``third`` theta''') of the
    stack of tilted blocks ``blocks`` with derivatives ``dw``, the block at
    s[k] being blocks[k]: those of the class with the top theta, or of the
    tied class (within 1e-12 times the larger of 1 and the block's largest
    entry) with the largest activity -theta'.
    """
    parts = [
        _class_spectra(s, _class_block(blocks, c), _class_block(dw, c), third) for c in classes
    ]
    if len(parts) == 1:
        return parts[0]
    parts = np.stack(parts)
    th = parts[:, 0]
    tied = th >= th.max(axis=0) - 1e-12 * np.maximum(1.0, np.abs(blocks).max(axis=(-2, -1)))
    best = np.argmin(np.where(tied, parts[:, 1], np.inf), axis=0)
    return parts[best, :, np.arange(s.size)].T + 0.0  # +0, not -0: the slope without counting


def _class_spectra(s: np.ndarray, blocks, dw, third=False) -> np.ndarray:
    """``_stack_spectra`` for the blocks of one class.

    With dW = dW/ds and the top pair of ``_top_eigenpairs``,
    theta' = l.dW.r / l.r.  The derivative of r (normalized by r_k = 1) is
    r' = -S u with u = (dW - theta') r, and as d2W/ds2 = -dW,
    theta'' = -theta' + 2 l.(dW - theta').r' / l.r = -theta' - 2 v.S.u / l.r
    with v = l (dW - theta').  One order up, as d3W/ds3 = dW,
    r'' = -S[2(dW - theta')r' + (-dW - theta'')r] and
    theta''' = [l.dW.r + 3 l.(-dW - theta'').r' + 3 v.r''] / l.r.

    SpectralError as ``_top_eigenpairs`` raises it, and where another
    eigenvalue within 1e-9 of the top couples to it through dW ("crowds":
    that eigenvalue's pole carries gap * |v.S.u| > 1e-6 |v||u| of v.S.u).
    """
    th, l, r, inv_s, overlap, gap = _top_eigenpairs(blocks, s)
    dw_r = (dw @ r[..., None])[..., 0]
    d1 = (l * dw_r).sum(axis=-1) / overlap
    u = dw_r - d1[:, None] * r
    l_dw = (l[:, None, :] @ dw)[:, 0]
    v = l_dw - d1[:, None] * l
    su = (inv_s @ u[..., None])[..., 0]  # -r'
    vsu = (v * su).sum(axis=-1)
    close = gap < 1e-9
    if close.any():
        coupling = gap * np.abs(vsu)
        bound = 1e-6 * np.linalg.norm(v, axis=-1) * np.linalg.norm(u, axis=-1)
        _raise_first(
            close & (coupling > bound),
            lambda k: f"an eigenvalue {gap[k]:.3g} away crowds the top eigenvalue "
            f"{th[k]:.6g} at s={s[k]}",
        )
    d2 = -d1 - 2.0 * vsu / overlap
    if not third:
        return np.array((th, d1, d2))
    y = 2.0 * ((dw @ su[..., None])[..., 0] - d1[:, None] * su) + dw_r + d2[:, None] * r
    r2 = (inv_s @ y[..., None])[..., 0]
    d3 = (l * dw_r + 3.0 * (l_dw + d2[:, None] * l) * su + 3.0 * v * r2).sum(axis=-1) / overlap
    return np.array((th, d1, d2, d3))


def _spectra(generator: TiltedGenerator, s_values, workers: int = 1, third=False) -> np.ndarray:
    """Rows theta, theta' and theta'' (and with ``third`` theta''') for
    every task of ``generator`` at s, one grid for all tasks or one column
    per task (points, *batch_shape), shaped (rows, *batch_shape, points).

    The blocks of all tasks at all s form one stack, solved by
    ``_stack_spectra`` (the rows of each jump graph with its classes) in
    slices of at most _SLICE_ENTRIES entries (or one s of every task).  A
    stack of more than _THREAD_ENTRIES entries is cut into at least
    ``workers`` slices, which run on up to ``workers`` threads; ``workers``
    is capped at the processor count.  Every block is solved on its own,
    so neither stacking nor slicing changes a bit of any result.

    SpectralError where a row is not finite, and as ``_stack_spectra``
    raises it.  The error is always the one that the first failing task
    raises alone and serially: when the stacked or threaded solve fails,
    the tasks are solved again one by one to find it.
    """
    batch, n = generator.batch_shape, generator.n_excitons
    tasks, rows = math.prod(batch), 4 if third else 3
    s = _s_array(s_values, batch)
    points = len(s)
    if not points:
        return np.empty((rows, *batch, 0))
    s = np.broadcast_to(s.reshape(points, -1), (points, tasks))  # one column per task
    step = max(1, _SLICE_ENTRIES // (tasks * n * n))
    workers = min(workers, os.cpu_count() or 1)
    threaded = workers > 1 and points * tasks * n * n > _THREAD_ENTRIES
    if threaded:
        step = min(step, -(-points // workers))
    slices = [s[lo : lo + step] for lo in range(0, points, step)]
    graphs = generator.graphs

    @_quiet_overflow
    def solve(i: int) -> np.ndarray:
        # the block of every task at its first s, then at its second, and so on
        part = slices[i].reshape(len(slices[i]), *batch)
        stack = (
            slices[i].ravel(),
            generator.population_block(part).reshape(-1, n, n),
            generator.population_block_derivative(part).reshape(-1, n, n),
        )
        if len(graphs) == 1:
            return _stack_spectra(*stack, graphs[0][1], third)
        # each jump graph's rows of the stack on their own, put back in place
        out = np.empty((rows, stack[0].size))
        for idx, classes in graphs:
            at = (np.arange(len(slices[i]))[:, None] * tasks + idx).ravel()
            out[:, at] = _stack_spectra(*(part[at] for part in stack), classes, third)
        return out

    try:
        if threaded and len(slices) > 1:
            with ThreadPoolExecutor(max_workers=min(workers, len(slices))) as pool:
                parts = list(pool.map(solve, range(len(slices))))
        else:
            parts = [solve(i) for i in range(len(slices))]
    except SpectralError:
        if tasks > 1 or threaded:
            for j, task in enumerate(generator.tasks()):
                _spectra(task, s[:, j], third=third)  # raises the first failing task's error
        raise
    out = np.concatenate(parts, axis=1).reshape(rows, points, tasks)
    out = out.transpose(0, 2, 1).reshape(rows, *batch, points)  # task by task
    flat = out.reshape(rows, -1)
    names = "theta, theta', theta''" + (", theta'''" if third else "")
    _raise_first(
        ~np.isfinite(flat).all(axis=0),
        lambda k: f"non-finite {names} = {flat[:, k].tolist()} at s={s[k % points, k // points]}",
    )
    return out


def _mandel(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Q = -theta''/theta' - 1, NaN where the activity vanishes."""
    return -d2 / np.where(np.abs(d1) < _ACTIVITY_FLOOR, np.nan, d1) - 1.0


def _mandel_slope(generator: TiltedGenerator, s: np.ndarray, workers: int = 1):
    """Q (NaN where the activity vanishes) and its slope
    Q' = -(theta''' theta' - theta''^2)/theta'^2 at s (a grid, or one column
    per task) for every task, each shaped (*batch_shape, points)."""
    _, d1, d2, d3 = _spectra(generator, s, workers, third=True)
    q = _mandel(d1, d2)
    return q, -(d3 + d2 * (q + 1.0)) / d1  # theta''/theta' = -(Q + 1)


def stationary(generator: TiltedGenerator) -> np.ndarray:
    """The stationary exciton populations: those of the one closed class
    (no rate out) that carries rates, by GTH state reduction of its rates
    (Grassmann, Taksar & Heyman, Oper. Res. 33, 1107 (1985)), and 0
    elsewhere; uniform for a model without rates.  GTH subtracts nothing,
    so each population keeps a small relative error, the tiny ones of a low
    temperature too.  Several such classes (no unique stationary state)
    are a defective SpectralError."""
    rates, n = _single(generator).rates, generator.n_excitons
    closed = [
        c
        for c in generator.graphs[0][1]
        if rates[c].any() and not np.delete(rates[:, c], c, axis=0).any()
    ]
    if len(closed) > 1:
        raise SpectralError(
            f"defective top eigenpair at s=0.0: {len(closed)} closed classes carry "
            "rates, so the rate matrix is reducible"
        )
    if not closed:
        return np.full(n, 1.0 / n)
    c = closed[0]
    p = rates[c[:, None], c].T.copy()  # p[i, j]: the rate i -> j
    for k in range(c.size - 1, 0, -1):  # fold exciton k into the excitons below it
        p[:k, k] /= p[k, :k].sum()
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    r = np.ones(c.size)
    for k in range(1, c.size):
        r[k] = r[:k] @ p[:k, k]
    pi = np.zeros(n)
    pi[c] = r / r.sum()
    return pi


def theta_derivatives(generator: TiltedGenerator, s: float) -> tuple[float, float, float]:
    """(theta, theta', theta'') at the given s, from one eigensolve."""
    return tuple(_spectra(_single(generator), [s])[:, 0].tolist())


def mandel(generator: TiltedGenerator, s: float) -> float:
    """Q(s) = -theta''(s)/theta'(s) - 1."""
    q = float(scan(_single(generator), [s]).mandel[0])
    if math.isnan(q):
        raise UndefinedMandelError(f"activity vanishes at s={s}; Q undefined")
    return q


def scan(generator: TiltedGenerator, s_values, workers: int = 1) -> ScanResult:
    """Evaluate theta, activity and Mandel Q on a grid of s values, on up
    to ``workers`` threads for a large stack.

    For a stacked generator the columns have its task axes in front (s is
    repeated per task), so ``len`` counts every point of every task, and
    ``ScanResult.tasks`` splits the result by task.
    """
    s = _s_array(s_values)
    th, d1, d2 = _spectra(generator, s, workers)
    s = np.array(np.broadcast_to(s, th.shape))
    return ScanResult(s=s, theta=th, activity=-d1, mandel=_mandel(d1, d2))


def rate_function(result: ScanResult) -> tuple[np.ndarray, np.ndarray]:
    """Legendre transform of a theta scan: the columns k and phi(k) on the
    scanned activity range, in ascending k, via phi(k(s)) = -theta(s) - s*k(s).

    The parametric values are cross-checked against the direct grid
    minimum -min_s[theta(s) + k s]; a convexity violation of the numerical
    theta triggers a NonConvexThetaWarning and the result is still
    returned.  A stacked scan is refused: split it with ``ScanResult.tasks``.
    """
    if result.s.ndim != 1:
        raise ValueError(
            f"rate_function takes a single-task scan, got columns of shape {result.s.shape}; "
            "split a stacked scan with ScanResult.tasks()"
        )
    by_s = np.argsort(result.s, kind="stable")
    s, th, k = result.s[by_s], result.theta[by_s], result.activity[by_s]
    # Second divided differences times the adjacent spacings h_{i-1} h_i,
    # which on an evenly spaced grid is the plain second difference.
    h = np.diff(s)
    span = h[:-1] + h[1:]
    w = np.divide(2.0 * h[:-1], span, out=np.ones_like(span), where=span > 0)
    second = w * th[2:] - 2.0 * th[1:-1] + (2.0 - w) * th[:-2]
    convex = bool(second.size == 0 or second.min() >= -1e-9)
    if not convex:
        warnings.warn(
            "theta(s) is not numerically convex; rate function may be unreliable",
            NonConvexThetaWarning,
            stacklevel=2,
        )
    phi = -th - s * k
    # Direct transform on the same grid; equals the parametric value when
    # theta is convex (the touching point is a grid point).
    direct = -_lower_envelope(th, k, s)
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


def _lower_envelope(f: np.ndarray, x, y: np.ndarray) -> np.ndarray:
    """min_j [f(j) + x(i) y(j)] for every x(i), in row blocks of at most
    _SLICE_ENTRIES entries (bounded memory; a minimum is exact, so no bit
    changes)."""
    step = max(1, _SLICE_ENTRIES // max(1, y.size))
    out, block = np.empty(x.size), np.empty((min(step, x.size), y.size))
    for lo in range(0, x.size, step):
        part = np.multiply.outer(x[lo : lo + step], y, out=block[: x.size - lo])
        np.add(part, f, out=part).min(axis=1, out=out[lo : lo + step])
    return out


@_quiet_overflow  # a == b gives 0/0 at a point that is not taken
def _illinois(f, a: np.ndarray, b: np.ndarray, f_a: np.ndarray, f_b: np.ndarray):
    """The roots of f in the brackets [a, b] (arrays, f_a and f_b of
    opposite signs) by the Illinois method: the regula falsi point x
    replaces b, and b replaces a where f(x) and f(b) differ in sign, else
    f(a) is halved.  ``f`` maps all points to their values in one call per
    round.  A bracket is done (a == b at the start) when narrower than
    _S_TOL or at an exact zero, and its root is its last point, so each
    root depends on its own values only.  SpectralError after _ROUNDS."""
    x, done = a.copy(), np.abs(b - a) <= _S_TOL
    for _ in range(_ROUNDS):
        if done.all():
            return x
        live = ~done
        x = np.where(live, b - f_b * (b - a) / (f_b - f_a), x)
        fx = f(x)
        flip = live & ((fx < 0) != (f_b < 0))
        a, f_a = np.where(flip, b, a), np.where(flip, f_b, np.where(live, 0.5 * f_a, f_a))
        b, f_b = np.where(live, x, b), np.where(live, fx, f_b)
        done |= (np.abs(b - a) <= _S_TOL) | (fx == 0.0)
    raise SpectralError(f"root finding at s={x[~done][0]} left a bracket wider than {_S_TOL} in s")


def find_crossover(generator: TiltedGenerator, s_grid, workers: int = 1):
    """The first sign change s* and the highest local maximum of Q(s) on
    the grid, refined by root finding; None for an absent feature.  The
    grid needs at least 3 points, one of them interior.

    Q and Q' on the grid and at s = 0 come from one batched eigensolve (on
    up to ``workers`` threads for a large stack), theta''' from the same
    generalized inverse as theta''.  s* is the root of Q in the bracket
    [s_i, s_i+1] of the first sign change (s_i where Q(s_i) = 0).  Every
    cell [s_j, s_j+1] with Q'(s_j) > 0 >= Q'(s_j+1) holds a maximum; the
    maximum is the root of Q' in the first such cell with the largest grid
    Q at its ends, and a task with no such cell has none.  ``_illinois``
    finds both roots to 1e-8 in s, in one call for all tasks.  A
    stacked generator gives one report per task, in the order of
    ``TiltedGenerator.tasks``, each the one its own generator gives, bit for
    bit: the grid solve and each round are one stacked call for all tasks.
    """
    s = _s_array(s_grid)
    if s.size < 3:
        raise ValueError(f"s grid needs at least 3 points, got {s.size}")
    if not np.all(np.isfinite(s)):
        raise ValueError("s grid must be finite")
    s = np.sort(s)
    grid = np.append(s, 0.0)
    q, dq = _mandel_slope(generator, grid, workers)
    if np.isnan(q).any():  # Q at the roots is defined: the activity falls monotonically
        bad = grid[np.argmax(np.isnan(q)) % grid.size]
        raise UndefinedMandelError(f"activity vanishes at s={bad}; Q undefined")
    q, dq, q_at_zero = q[..., :-1], dq[..., :-1], q[..., -1]

    def at(column, k):
        return np.take_along_axis(column, k[..., None], axis=-1)[..., 0]

    negative = q < 0
    change = (q[..., :-1] == 0.0) | (negative[..., :-1] != negative[..., 1:])
    i = np.argmax(change, axis=-1)
    star = change.any(axis=-1) & (at(q, i) != 0.0)
    turn = (dq[..., :-1] > 0.0) & (dq[..., 1:] <= 0.0)  # a maximum of Q in [s_j, s_j+1]
    j = np.argmax(np.where(turn, np.maximum(q[..., :-1], q[..., 1:]), -np.inf), axis=-1)
    peak = turn.any(axis=-1)
    q_max = at(q, j)  # then Q at the maximum points of the latest round

    def values(x):  # Q at the s* points (row 0), Q' at the maximum points (row 1)
        nonlocal q_max
        q_x, dq_x = _mandel_slope(generator, x, workers)
        q_max = q_x[..., 1]
        return np.stack([q_x[..., 0], dq_x[..., 1]])

    x = _illinois(
        values,
        np.stack([s[i], s[j]]),
        np.stack([np.where(star, s[i + 1], s[i]), np.where(peak, s[j + 1], s[j])]),
        np.stack([at(q, i), at(dq, j)]),
        np.stack([at(q, i + 1), at(dq, j + 1)]),
    )
    columns = (change.any(axis=-1), x[0], q_at_zero, peak, x[1], q_max)
    reports = [
        CrossoverReport(float(a) if hs else None, float(q0), (float(b), float(qb)) if hm else None)
        for hs, a, q0, hm, b, qb in zip(*map(np.ravel, columns))
    ]
    return reports if q.ndim > 1 else reports[0]
