"""Stochastic trajectory oracle: continuous-time jumps over exciton populations.

Under the secular generator the populations close on a classical Markov
chain, the same rate matrix whose tilted form gives theta(s): ``simulate``
reads the rates and the counted mask of the ``TiltedGenerator`` itself,
and starts every trajectory from the stationary populations of the
spectral kernel (``lds.stationary``).  theta(s), the activity and Q(0)
are properties of the stationary process, so there is no relaxation to
discard, and the counted-jump statistics at s=0 are sampled exactly by a
Gillespie walk (Gillespie, J. Phys. Chem. 81, 2340 (1977)) over exciton
indices; no wavefunction unraveling is needed.

The jump chain and the holding times are drawn apart.  A path table holds
every L-jump path without self-jumps from each exciton, so one uniform and
one guided table search pick the next L destinations at once.  The walk
advances a block of jumps by such lookups.  It then draws the time the
block spends in each exciton as one Gamma variate per trajectory and
exciton, and needs single holding times only in the block where a
trajectory crosses t_max.

Trajectories run in fixed chunks of ``_CHUNK``.  Chunk c draws from its
own stream, spawned from ``SeedSequence(seed)`` by chunk index, so the
result is bit-reproducible for a given seed and trajectory count.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .generator import TiltedGenerator
from .lds import stationary

__all__ = ["TrajectoryConfig", "CountStatistics", "simulate"]

_CHUNK = 1024
# fewest jumps advanced per block of array arithmetic, rounded up to whole paths
_BLOCK = 16
# the path table holds n (n - 1)**L entries for n excitons, at most this
# many unless a single jump, L = 1, needs more
_PATH_ENTRIES = 4096
# expected jumps over all trajectories above which simulate warns first
_RUNAWAY_JUMPS = 1e9


@dataclass(frozen=True)
class TrajectoryConfig:
    """Simulation window and ensemble controls.

    Times are in internal units (1/cm^-1); every trajectory is observed
    over [0, t_max) from a stationary start.
    """

    t_max: float
    n_trajectories: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        for name, low in (("n_trajectories", 1), ("seed", 0)):
            value = getattr(self, name)
            if _index(value) is None or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _index(value) -> int | None:
    """``value`` as an int if it is an integer (a bool is not), else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class CountStatistics:
    """Counted-jump estimators over the window [0, t_max).

    ``histogram`` maps the per-trajectory count K to its frequency, and
    ``n_trajectories`` is the sum of the frequencies.  Standard errors come
    from the across-trajectory scatter (jackknife for the Mandel estimator).
    ``occupation`` holds the fraction of window time spent in each exciton.
    """

    mean_rate: float
    se_mean: float
    mandel_estimate: float | None
    se_mandel: float | None
    histogram: dict[int, int]
    occupation: np.ndarray

    @property
    def n_trajectories(self) -> int:
        """The number of sampled trajectories."""
        return sum(self.histogram.values())


class _Paths(NamedTuple):
    """Every L-jump path without self-jumps from each exciton, row by row.

    Entry a * (n - 1)**L + p is path p from exciton a.  ``keys`` are the
    sorted lookup keys: row a holds a plus half the cumulative path
    probabilities, with its last key pinned to a + 1.  ``guide[b]`` is the
    first entry whose key exceeds b / ``buckets``.  ``held`` lists the
    exciton held before each jump of a path, ``last`` the exciton it ends
    in and ``counted`` how many of its jumps are counted.  ``visited`` and
    ``visits`` hold the same holds per exciton: the excitons a path holds
    in, padded to min(n, L) columns, and how often it holds in each.
    """

    keys: np.ndarray
    guide: np.ndarray
    buckets: int
    last: np.ndarray
    held: np.ndarray
    counted: np.ndarray
    visited: np.ndarray
    visits: np.ndarray


def _path_table(rates, esc, counted):
    """The ``_Paths`` of the jump chain of ``rates`` (escape rates ``esc``).

    A jump from exciton a goes to b != a with probability R[b, a] / esc_a.
    Path digits are in base n - 1, most significant first, and digit d
    from exciton a means exciton d + (d >= a).  L is the largest length
    with n (n - 1)**L <= ``_PATH_ENTRIES``, but at least 1; for n = 2 each
    row has one path, and L is ``_BLOCK``.  An absorbing exciton (esc == 0)
    holds forever, but gets one fixed destination so that its row stays
    well-formed.  The number of guide buckets is a power of two, so that
    x * buckets is exact, and the half row a lookup can reach holds at
    least two of them per path, so that a lookup rarely finds another key
    in its bucket.
    """
    n = esc.size
    if n == 2:
        length = _BLOCK
    else:
        length = 1
        while n * (n - 1) ** (length + 1) <= _PATH_ENTRIES:
            length += 1
    # other[a, d]: the exciton that digit d leads to from exciton a
    other = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
    hop = esc > 0
    step = np.zeros((n, n - 1))
    step[hop] = np.take_along_axis(rates.T, other, axis=1)[hop] / esc[hop, None]
    step[~hop, 0] = 1.0
    # Extend the path prefixes by one jump at a time, the newest digit
    # varying fastest; levels[k] holds the exciton each k-jump prefix ends
    # in.  ``before`` is the probability of the paths ahead of each one in
    # its row, built level by level, so that the rounding of a key grows
    # with L and not with the number of paths ahead of it.
    levels = [np.arange(n)]
    prob = np.ones(n)
    before = np.zeros(n)
    n_counted = np.zeros(n, dtype=np.int64)
    for _ in range(length):
        here = levels[-1]
        nxt = other[here]
        split = prob[:, None] * step[here]
        before = (before[:, None] + np.cumsum(split, axis=1) - split).ravel()
        prob = split.ravel()
        n_counted = (n_counted[:, None] + counted[here[:, None], nxt]).ravel()
        levels.append(nxt.ravel())
    path = np.column_stack([np.repeat(level, prob.size // level.size) for level in levels])
    held = path[:, :-1]
    # a + u / 2 with u < 1 never rounds up to a + 1, where row a + 1 starts;
    # the running maximum keeps the keys sorted where the rounding did not
    keys = np.maximum.accumulate(np.minimum(0.5 * (before + prob), 0.5).reshape(n, -1), axis=1)
    keys[:, -1] = 1.0
    keys = (keys + np.arange(n)[:, None]).ravel()
    buckets = 1 << (4 * (n - 1) ** length - 1).bit_length()
    guide = np.searchsorted(keys, np.arange(n * buckets) / buckets, side="right")
    if length > n:
        # fewer columns as hold counts per exciton
        visited = np.broadcast_to(np.arange(n)[:, None], (n, keys.size))
        cell = held + n * np.arange(keys.size)[:, None]
        visits = np.bincount(cell.ravel(), minlength=n * keys.size).reshape(-1, n).T.astype(float)
    else:
        visited, visits = held.T, np.ones(held.T.shape)
    return _Paths(keys, guide, buckets, path[:, -1], held, n_counted, visited, visits)


def _lookup(table, a, u):
    """The table entries drawn by uniforms ``u`` from excitons ``a``: the
    first entry whose key exceeds a + u / 2.

    a + u / 2 never reaches the last key of row a, a + 1, so the draw stays
    in its row, and the last path takes every u above the second-to-last
    cumulative probability.  Adding a rounds u to about ulp(n) ~ n 2^-52,
    which distorts a path probability by at most that much, the same order
    as the rounding in the keys themselves.  The search starts at the guide
    entry of the bucket that holds a + u / 2, and only draws whose bucket
    holds another key below them fall back to a binary search (indexed
    search, Chen & Asau, AIIE Trans. 6, 163 (1974)).
    """
    x = a + 0.5 * u
    p = table.guide[(x * table.buckets).astype(np.intp)]
    behind = np.flatnonzero(table.keys[p] <= x)
    p[behind] = np.searchsorted(table.keys, x[behind], side="right")
    return p


def _walk(rng, state, esc, table, counted, t_max):
    """Move one chunk of trajectories a block of jumps at a time.

    ``state`` holds the start excitons.  A block draws its jump chain by
    one path lookup per L jumps, each with one uniform.  Its time is not
    drawn jump by jump: the c_a holds in exciton a sum to Gamma(c_a) /
    esc_a, one draw per trajectory and exciton.  A block that ends before
    t_max adds those sums to the occupation and its path totals to the
    counts.  Only a block that straddles t_max needs its single holds:
    given their sum G_a, the holds in a are G_a times a flat Dirichlet
    split, E_j / sum(E) with E_j ~ Exp(1), which is their exact
    conditional law.  Trajectories past t_max drop out after the block.

    A block has between ``_BLOCK`` and 4 max(``_BLOCK``, n) jumps, rounded
    up to whole paths: long enough that the per-(trajectory, exciton) work
    stays small against the jumps, and cut to half the jumps the mean live
    trajectory has left, at its pace so far, so that the last block of a
    trajectory overshoots t_max by little.  How many jumps a block takes
    depends only on the past, so the walk stays exact.

    An absorbing exciton (esc == 0) holds forever, so a block that enters
    one ends at t = inf; a stationary start can begin in one.  Returns the
    counted jumps per trajectory and the time spent in each exciton inside
    [0, t_max], summed over the chunk.
    """
    n = esc.size
    length = table.held.shape[1]
    fewest = -(-_BLOCK // length)
    most = -(-4 * max(_BLOCK, n) // length)
    divisor = np.where(esc > 0, esc, 1.0)  # no 0/0 in absorbing states (esc == 0)
    absorbing = esc == 0
    counts = np.zeros(state.size, dtype=np.int64)
    occ = np.zeros(n)
    live = np.arange(state.size)
    t = np.zeros(state.size)
    done = 0  # jumps so far, the same in every live trajectory
    while live.size:
        m = live.size
        mean_t = t.mean()
        lookups = most
        if mean_t > 0:
            left = done * (t_max / mean_t - 1.0)
            lookups = int(np.clip(np.ceil(left / (2 * length)), fewest, most))
        done += lookups * length
        u = rng.random((lookups, m))
        paths = np.empty((lookups, m), dtype=np.intp)
        a = state
        for i in range(lookups):
            paths[i] = _lookup(table, a, u[i])
            a = table.last[paths[i]]
        # holds per (trajectory, exciton) and the time they add up to
        cell = np.take(table.visited, paths, axis=1) + n * np.arange(m)
        holds = np.bincount(
            cell.ravel(), weights=np.take(table.visits, paths, axis=1).ravel(), minlength=m * n
        ).reshape(m, n)
        gamma = rng.standard_gamma(holds)
        spent = gamma / divisor
        t_end = t + spent.sum(axis=1)
        if absorbing.any():
            t_end[holds[:, absorbing].any(axis=1)] = np.inf
        inside = t_end < t_max
        counts[live] += np.where(inside, table.counted[paths].sum(axis=0), 0)
        occ += inside @ spent
        edge = np.flatnonzero(~inside)
        if edge.size:
            h = np.take(table.held, paths[:, edge], axis=0).transpose(0, 2, 1)
            h = h.reshape(-1, edge.size)  # the exciton held before each jump
            dest = np.concatenate((h[1:], a[None, edge]))
            draws = rng.standard_exponential(h.shape)
            cell = h + n * np.arange(edge.size)
            total = np.bincount(cell.ravel(), weights=draws.ravel(), minlength=edge.size * n)
            # G_a / sum(E) per (trajectory, exciton); a sum of 0 has no holds
            share = gamma[edge].ravel() / np.where(total > 0, total, 1.0)
            times = np.empty((h.shape[0] + 1, edge.size))
            times[0] = t[edge]
            dt = times[1:]
            np.multiply(draws, share[cell], out=dt)
            dt /= divisor[h]
            np.copyto(dt, np.inf, where=absorbing[h])
            np.cumsum(times, axis=0, out=times)
            # time held inside the window: the segments clipped to it
            seg = np.diff(np.minimum(times, t_max), axis=0)
            occ += np.bincount(h.ravel(), weights=seg.ravel(), minlength=n)
            t1 = times[1:]
            hit = counted[h, dest] & (t1 < t_max)
            counts[live[edge]] += hit.sum(axis=0)
            t_end[edge] = t1[-1]
        go = t_end < t_max
        state, t, live = a[go], t_end[go], live[go]
    return counts, occ


def simulate(generator: TiltedGenerator, config: TrajectoryConfig) -> CountStatistics:
    """Sample counted-jump statistics of the classical exciton chain whose
    rates and counted jumps are those of ``generator``.  Counting is
    passive, so the walk itself is independent of which jumps are counted.

    Every trajectory starts from the stationary populations of
    ``lds.stationary``, so a reducible chain raises its SpectralError.  A
    UserWarning comes before any sampling when fewer than one counted jump
    per trajectory is expected, and when the expected jumps over all
    trajectories exceed ``_RUNAWAY_JUMPS``.  A stacked generator (with task
    axes) is refused: the walk reads one N x N rate matrix.
    """
    rates, n = generator.rates, generator.n_excitons
    if rates.ndim != 2:
        raise ValueError(
            f"the sampler takes one N x N rate matrix, got rates of shape {rates.shape}"
        )
    if n < 2:
        raise ValueError("the sampler needs at least two excitons")
    esc = rates.sum(axis=0)

    pi = stationary(generator)
    cum_pi = np.cumsum(pi)
    expected = float((rates * pi[None, :])[generator.counted].sum()) * config.t_max
    if expected < 1.0:
        warnings.warn(
            f"expected counted jumps per trajectory is {expected:.3g} < 1; "
            "estimates will be noisy",
            stacklevel=2,
        )
    total_jumps = float(pi @ esc) * config.t_max * config.n_trajectories
    if total_jumps > _RUNAWAY_JUMPS:
        warnings.warn(
            f"expected {total_jumps:.3g} jumps over all trajectories, which may take "
            "very long to sample; lower n_trajectories or t_max (--traj, --t-max-ps)",
            stacklevel=2,
        )

    counted = generator.counted.T  # counted[a, b] flags the jump a -> b
    table = _path_table(rates, esc, counted)

    n_traj = config.n_trajectories
    counts = np.zeros(n_traj, dtype=np.int64)
    occupation = np.zeros(n)
    streams = np.random.SeedSequence(config.seed).spawn(math.ceil(n_traj / _CHUNK))
    for c, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        chunk = slice(c * _CHUNK, min((c + 1) * _CHUNK, n_traj))
        size = chunk.stop - chunk.start
        state = np.minimum(np.searchsorted(cum_pi, rng.random(size), side="right"), n - 1)
        counts[chunk], occ = _walk(rng, state, esc, table, counted, config.t_max)
        occupation += occ

    return _statistics(counts, occupation, config.t_max)


def _statistics(counts, occupation, window) -> CountStatistics:
    n = counts.size
    mean_k = counts.mean()
    mean_rate = mean_k / window
    if n > 1:
        var_k = counts.var(ddof=1)
        se_mean = counts.std(ddof=1) / (math.sqrt(n) * window)
    else:
        var_k = 0.0
        se_mean = 0.0

    mandel = float(var_k / mean_k - 1.0) if (mean_k > 0 and n > 1) else None
    se_mandel = None
    if n > 2:
        # jackknife over trajectories for the Mandel estimator
        s1 = counts.sum(dtype=np.float64)
        s2 = (counts.astype(np.float64) ** 2).sum()
        m_i = (s1 - counts) / (n - 1)
        v_i = (s2 - counts.astype(np.float64) ** 2 - (n - 1) * m_i**2) / (n - 2)
        if mandel is not None and np.all(m_i > 0):
            q_i = v_i / m_i - 1.0
            se_mandel = math.sqrt((n - 1) / n * ((q_i - q_i.mean()) ** 2).sum())

    values, freqs = np.unique(counts, return_counts=True)
    histogram = {int(v): int(c) for v, c in zip(values, freqs)}

    occ = occupation / (n * window)
    return CountStatistics(
        mean_rate=float(mean_rate),
        se_mean=float(se_mean),
        mandel_estimate=mandel,
        se_mandel=se_mandel,
        histogram=histogram,
        occupation=occ,
    )

