"""Spectral large-deviation toolkit for tilted jump generators.

theta(s), the scaled cumulant generating function of the counted-jump
statistics, is the largest real eigenvalue of the tilted generator, taken
from its N x N population block.  theta and its derivatives need only the
top eigenpair: one batched eigenvalues-only solve of the stacked blocks
gives theta over a whole s grid (a long grid goes in slices of bounded
memory), and batched bordered systems [[W_s - theta, b], [b^T, 0]] give
the top right and left vectors and, in the inverse, the generalized
inverse of W_s - theta, from which theta' and theta'' follow in closed
form (Meyer, SIAM Rev. 17, 443 (1975)).  W_s is block-triangular in the
strongly connected classes of its jump graph
(``TiltedGenerator.graphs``), so each class block is solved on its own
and theta is the largest class top.  Where classes tie (every closed class
at s = 0), the tied class with the largest activity -theta' is reported,
with its theta'': theta's slope just below the tie.  A single s is a grid
of one point.  A generator may stack tasks (say one per temperature and
channel) on leading axes: ``scan`` and ``find_crossover`` solve the blocks
of all its tasks at all s in one stack, and each task's result is the one
its own generator gives, bit for bit.  Tasks may differ in their jump
graphs (at very low temperature an upward rate can underflow to 0): the
rows of each graph are then solved with its own classes.  The stack goes
in slices, which are also the unit of parallel work: a large stack runs
its slices on threads, as the batched eigensolver releases the
interpreter lock.  The top right
vector at s = 0 gives the stationary populations (``stationary``).  The
mean jump rate is -theta'(0), the variance rate theta''(0), and the Mandel
parameter Q(s) = -theta''(s)/theta'(s) - 1 flags sub- (Q<0) versus
super-Poissonian (Q>0) trajectory ensembles.  The rate function phi(k) is
the Legendre transform of theta.

Results are numpy columns, never per-point objects: ``scan`` returns one
``ScanResult`` (s, theta, activity, and Q with NaN where the activity
vanishes), and ``rate_function`` returns the k and phi columns.  An s at
which e^{-s} overflows is a ValueError, and a non-finite theta, theta' or
theta'' is a SpectralError, so a NaN in a result can only mean "Q undefined".
"""

from __future__ import annotations

import math
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
    "theta",
    "theta_derivatives",
    "mandel",
    "stationary",
    "scan",
    "rate_function",
    "legendre_reconstruct",
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
# slices, solved on up to that many threads.  Measured on 2 cores: two threads
# with a fresh pool win on stacks of N = 3 and 4 blocks from about 2^14
# entries, by 1.2-1.5x from 2^15; a 41-point scan of one N = 30 task (36900
# entries) gained nothing and its process grew by 1 MB.
_THREAD_ENTRIES = 2**16

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
    """Sign change of Q(s) (if any) plus the strongest local maximum of Q."""

    s_star: float | None
    q_at_zero: float
    local_max: tuple[float, float] | None


def default_s_grid(
    s_min: float = S_MIN_DEFAULT,
    s_max: float = S_MAX_DEFAULT,
    n_points: int = S_POINTS_DEFAULT,
) -> np.ndarray:
    return np.linspace(s_min, s_max, n_points)


def _s_array(s_values) -> np.ndarray:
    """The s values as a float array; ValueError, before any block is built,
    for a grid that is not 1-D, for complex values (a cast would drop their
    imaginary parts) and at the first s where e^{-s} overflows (or that is
    NaN)."""
    s = np.asarray(s_values)
    if s.ndim != 1:
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
        raise ValueError(
            f"needs a single-task generator, got task axes {generator.batch_shape}"
        )
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
    to the nearest other eigenvalue.

    SpectralError, with the failing s, where a block is not finite, where
    several eigenvalues with nonzero imaginary parts share the top real part
    within 1e-12 ("ambiguous"), where the top has an imaginary part above
    1e-9, and "defective" where the top is not a simple eigenvalue: another
    real eigenvalue within 1e-12, a singular M, or
    |sum l_i r_i| <= 1e-12 sum |l_i r_i|, a test that diagonal similarity
    (rescaling the excitons) leaves unchanged.
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
    if np.iscomplexobj(w):  # numpy returns real eigenvalues when all of them are
        _raise_first(
            ties & (near & (np.abs(w.imag) > 1e-9)).any(axis=-1),
            lambda k: f"ambiguous top eigenvalue: {near[k].sum()} eigenvalues share the "
            f"real part {th[k]:.6g} with nonzero imaginary parts at s={s[k]}",
        )
        _raise_first(
            np.abs(top.imag) > 1e-9,
            lambda k: f"top eigenvalue has imaginary part {top[k].imag:.3e} at s={s[k]}",
        )
    _raise_first(
        ties,
        lambda k: f"defective top eigenpair at s={s[k]}: {near[k].sum()} eigenvalues "
        f"tie at the top {th[k]:.6g} of one strongly connected class",
    )
    m = np.zeros((s.size, n + 1, n + 1), dtype=np.result_type(blocks, float))
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


def _check_real(values: np.ndarray, name: str, s: np.ndarray) -> None:
    if np.iscomplexobj(values):
        _raise_first(
            np.abs(values.imag) > 1e-9 * np.maximum(1.0, np.abs(values)),
            lambda k: f"{name}({s[k]}) came out complex: {values[k]}",
        )


@_quiet_overflow
def _stack(generator: TiltedGenerator, s: np.ndarray):
    """(s, blocks, dW/ds) of every task at the s values, s by s: the stack
    holds the block of each task at s[0], then at s[1], and so on, and its
    s values come out in the same order."""
    batch, n = generator.batch_shape, generator.n_excitons
    part = s.reshape((-1,) + (1,) * len(batch))  # s in front of the task axes
    return (
        np.repeat(s, math.prod(batch)),
        generator.population_block(part).reshape(-1, n, n),
        generator.population_block_derivative(part).reshape(-1, n, n),
    )


@_quiet_overflow
def _stack_spectra(s: np.ndarray, blocks, dw, classes) -> np.ndarray:
    """Rows theta, theta' and theta'' of the stack of tilted blocks
    ``blocks`` with derivatives ``dw``, the block at s[k] being blocks[k]:
    those of the class with the top theta, or of the tied class (within
    1e-12 times the larger of 1 and the block's largest entry) with the
    largest activity -theta'.
    """
    parts = [_class_spectra(s, _class_block(blocks, c), _class_block(dw, c)) for c in classes]
    if len(parts) == 1:
        return parts[0]
    parts = np.stack(parts)
    th = parts[:, 0]
    tied = th >= th.max(axis=0) - 1e-12 * np.maximum(1.0, np.abs(blocks).max(axis=(-2, -1)))
    best = np.argmin(np.where(tied, parts[:, 1], np.inf), axis=0)
    return parts[best, :, np.arange(s.size)].T + 0.0  # +0, not -0: the slope without counting


def _class_spectra(s: np.ndarray, blocks, dw) -> np.ndarray:
    """``_stack_spectra`` for the blocks of one class.

    With dW = dW/ds and the top pair of ``_top_eigenpairs``,
    theta' = l.dW.r / l.r.  The derivative of r (normalized by r_k = 1) is
    r' = -S u with u = (dW - theta') r, and as d2W/ds2 = -dW,
    theta'' = -theta' + 2 l.(dW - theta').r' / l.r = -theta' - 2 v.S.u / l.r
    with v = l (dW - theta').

    SpectralError where theta' or theta'' has an imaginary part, and where
    another eigenvalue within 1e-9 of the top couples to it through dW
    ("crowds": that eigenvalue's pole carries gap * |v.S.u| > 1e-6 |v||u|
    of v.S.u).
    """
    th, l, r, inv_s, overlap, gap = _top_eigenpairs(blocks, s)
    dw_r = (dw @ r[..., None])[..., 0]
    d1 = (l * dw_r).sum(axis=-1) / overlap
    _check_real(d1, "theta'", s)
    u = dw_r - d1[:, None] * r
    v = (l[:, None, :] @ dw)[:, 0] - d1[:, None] * l
    vsu = (v * (inv_s @ u[..., None])[..., 0]).sum(axis=-1)
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
    _check_real(d2, "theta''", s)
    return np.array((th, d1.real, d2.real))


def _spectra(generator: TiltedGenerator, s_values, workers: int = 1) -> np.ndarray:
    """Rows theta, theta' and theta'' over a grid of s for every task of
    ``generator``, shaped (3, *generator.batch_shape, number of s).

    The blocks of all tasks at all s form one stack, solved by
    ``_stack_spectra`` (the rows of each jump graph with its classes) in
    slices of at most _SLICE_ENTRIES entries (or one s of every task).  A
    stack of more than _THREAD_ENTRIES entries is cut into at least
    ``workers`` slices, which run on up to ``workers`` threads.  Every
    block is solved on its own, so neither stacking nor slicing changes a
    bit of any result.

    SpectralError where theta, theta' or theta'' is not finite, and as
    ``_stack_spectra`` raises it.  The error is always the one that the
    first failing task raises alone and serially: when the stacked or
    threaded solve fails, the tasks are solved again one by one to find it.
    """
    s = _s_array(s_values)
    batch, n = generator.batch_shape, generator.n_excitons
    tasks = math.prod(batch)
    if not s.size:
        return np.empty((3, *batch, 0))
    step = max(1, _SLICE_ENTRIES // (tasks * n * n))
    threaded = workers > 1 and s.size * tasks * n * n > _THREAD_ENTRIES
    if threaded:
        step = min(step, -(-s.size // workers))
    slices = [s[lo : lo + step] for lo in range(0, s.size, step)]
    graphs = generator.graphs

    def solve(i: int) -> np.ndarray:
        stack = _stack(generator, slices[i])
        if len(graphs) == 1:
            return _stack_spectra(*stack, graphs[0][1])
        # each jump graph's rows of the stack on their own, put back in place
        out = np.empty((3, stack[0].size))
        for idx, classes in graphs:
            rows = (np.arange(slices[i].size)[:, None] * tasks + idx).ravel()
            out[:, rows] = _stack_spectra(*(part[rows] for part in stack), classes)
        return out

    try:
        if threaded and len(slices) > 1:
            with ThreadPoolExecutor(max_workers=min(workers, len(slices))) as pool:
                parts = list(pool.map(solve, range(len(slices))))
        else:
            parts = [solve(i) for i in range(len(slices))]
    except SpectralError:
        if tasks > 1 or threaded:
            for task in generator.tasks():
                _spectra(task, s)  # raises the error of the first failing task
        raise
    out = np.concatenate(parts, axis=1).reshape(3, s.size, tasks)
    out = out.transpose(0, 2, 1).reshape(3, *batch, s.size)  # task by task
    flat = out.reshape(3, -1)
    _raise_first(
        ~np.isfinite(flat).all(axis=0),
        lambda k: f"non-finite theta, theta', theta'' = {flat[:, k].tolist()} "
        f"at s={s[k % s.size]}",
    )
    return out


def _mandel(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Q = -theta''/theta' - 1, NaN where the activity vanishes."""
    undefined = np.abs(d1) < _ACTIVITY_FLOOR
    return np.where(undefined, np.nan, -d2 / np.where(undefined, 1.0, d1) - 1.0)


def _mandel_grid(generator: TiltedGenerator, s: np.ndarray, workers: int = 1) -> np.ndarray:
    """Q over the grid s for every task, shaped (*batch_shape, s.size);
    UndefinedMandelError at the first task and s where the activity
    vanishes."""
    q = _mandel(*_spectra(generator, s, workers)[1:])
    undefined = np.isnan(q)
    if undefined.any():
        raise UndefinedMandelError(
            f"activity vanishes at s={s[np.argmax(undefined) % s.size]}; Q undefined"
        )
    return q


@_quiet_overflow
def stationary(generator: TiltedGenerator) -> np.ndarray:
    """The stationary exciton populations: the top right vector r of the
    s = 0 block of the one closed class (no rate out) that carries rates,
    as r / sum(r), and 0 elsewhere; uniform for a model without rates.
    Several such classes (no unique stationary state) are a defective
    SpectralError."""
    s = np.zeros(1)
    blocks = _single(generator).population_block(s)
    w, n = blocks[0], generator.n_excitons
    closed = [
        c for c in generator.graphs[0][1] if w[c].any() and not np.delete(w[:, c], c, axis=0).any()
    ]
    if len(closed) > 1:
        raise SpectralError(
            f"defective top eigenpair at s=0.0: {len(closed)} closed classes carry "
            "rates, so the rate matrix is reducible"
        )
    if not closed:
        return np.full(n, 1.0 / n)
    r = _top_eigenpairs(_class_block(blocks, closed[0]), s)[2][0]
    pi = np.zeros(n)
    pi[closed[0]] = r / r.sum()
    return pi


@_quiet_overflow
def theta(generator: TiltedGenerator, s: float) -> float:
    """theta(s): largest real eigenvalue of the tilted population block."""
    s = _s_array([s])
    blocks = _single(generator).population_block(s)
    classes = generator.graphs[0][1]
    return max(float(_top_eigenpairs(_class_block(blocks, c), s)[0][0]) for c in classes)


def theta_derivatives(generator: TiltedGenerator, s: float) -> tuple[float, float, float]:
    """(theta, theta', theta'') at the given s, from one eigensolve."""
    return tuple(_spectra(_single(generator), [s])[:, 0].tolist())


def mandel(generator: TiltedGenerator, s: float) -> float:
    """Q(s) = -theta''(s)/theta'(s) - 1."""
    return float(_mandel_grid(_single(generator), _s_array([s]))[0])


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
    second = th[2:] - 2.0 * th[1:-1] + th[:-2]
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


def legendre_reconstruct(rate, s_values) -> np.ndarray:
    """Rebuild theta_hat(s) = -min_k [phi(k) + k*s] from the (k, phi)
    columns of ``rate_function``."""
    k, phi = rate
    return -_lower_envelope(phi, np.asarray(s_values, dtype=float).ravel(), k)


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


def find_crossover(generator: TiltedGenerator, s_grid, workers: int = 1):
    """Locate sign changes and local maxima of Q(s) on the given grid.

    Q on the grid and at s = 0 comes from one batched eigensolve, on up to
    ``workers`` threads for a large stack.  The first sign change of Q is
    refined by bisection to 1e-6 in s; the strongest interior local maximum
    of Q (a phase-coexistence indicator) by golden-section search to 1e-8.
    Absent features are reported as None rather than raised.

    A stacked generator gives one report per task, in the order of
    ``TiltedGenerator.tasks``: every task's grid is in the one stacked
    solve, and the refinement runs task by task.
    """
    s = _s_array(s_grid)
    if s.size < 32:
        raise ValueError(f"s grid needs at least 32 points, got {s.size}")
    if not np.all(np.isfinite(s)):
        raise ValueError("s grid must be finite")
    s = np.sort(s)
    q = _mandel_grid(generator, np.append(s, 0.0), workers)
    if q.ndim == 1:
        return _crossover(generator, s, q)
    rows = q.reshape(-1, s.size + 1)
    return [_crossover(task, s, row) for task, row in zip(generator.tasks(), rows)]


def _crossover(generator: TiltedGenerator, s: np.ndarray, q: np.ndarray) -> CrossoverReport:
    """The report of a single-task generator from Q on the sorted grid s
    followed by Q(0)."""
    q, q_at_zero = q[:-1], q[-1]

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

    return CrossoverReport(s_star=s_star, q_at_zero=float(q_at_zero), local_max=local_max)
