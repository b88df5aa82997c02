"""Stochastic trajectory oracle: continuous-time jumps over exciton populations.

Under the secular generator the populations close on a classical Markov
chain, the same rate matrix whose tilted form gives theta(s): ``simulate``
reads the rates and the counted mask of the ``TiltedGenerator`` itself,
and takes its stationary start from the spectral kernel
(``lds.stationary``).  The counted-jump statistics at s=0 are therefore
sampled exactly by a Gillespie walk (Gillespie, J. Phys. Chem. 81, 2340
(1977)) over exciton indices; no wavefunction unraveling is needed.

The jump chain and the holding times are drawn apart.  A path table holds
the cumulative probability of every L-jump path from each exciton, so one
uniform and one ``searchsorted`` pick the next L destinations at once.  The
walk advances a block of about ``_BLOCK`` jumps by such lookups, then draws
the block's holding times and takes its jump times, occupation and counted
jumps in whole-array operations over (jumps, trajectories).

Trajectories run in fixed chunks of ``_CHUNK``.  Chunk c draws from its
own stream, spawned from ``SeedSequence(seed)`` by chunk index, so the
result is bit-reproducible for a given seed and trajectory count.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .generator import TiltedGenerator
from .lds import stationary

__all__ = ["TrajectoryConfig", "CountStatistics", "simulate"]

_CHUNK = 1024
# jumps advanced per block of array arithmetic, rounded up to whole paths
_BLOCK = 16
# the path table holds at most this many entries: n**(L+1) for n excitons
_PATH_ENTRIES = 4096


@dataclass(frozen=True)
class TrajectoryConfig:
    """Simulation window and ensemble controls.

    Times are in internal units (1/cm^-1).  ``burn_in=None`` resolves to 0
    for a stationary start and to 10 / (smallest nonzero escape rate) when
    starting from a fixed exciton.  ``initial_state`` is "stationary" or an
    exciton index.
    """

    t_max: float
    n_trajectories: int = 10_000
    burn_in: float | None = None
    seed: int = 0
    initial_state: int | str = "stationary"

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        for name, low in (("n_trajectories", 1), ("seed", 0)):
            value = getattr(self, name)
            if _index(value) is None or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.burn_in is not None and not 0 <= self.burn_in < self.t_max:
            raise ValueError("need t_max > burn_in >= 0")


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
    """Counted-jump estimators over the observation window.

    ``histogram`` maps the per-trajectory count K to its frequency;
    frequencies sum to ``n_trajectories``.  Standard errors come from the
    across-trajectory scatter (jackknife for the variance and Mandel
    estimators).  ``occupation`` holds the fraction of window time spent
    in each exciton.
    """

    mean_rate: float
    se_mean: float
    variance_rate: float
    se_variance: float
    mandel_estimate: float | None
    se_mandel: float | None
    histogram: dict[int, int]
    n_trajectories: int
    window: float
    occupation: np.ndarray
    warning: str | None = None


def _destinations(rates, esc):
    """Row-wise cumulative destination probabilities, ``cum[a, b]``.

    Rows with no escape hold for dt = inf, so their jumps never count, but
    must stay well-formed.  The last entry is pinned to 1.0 so every
    uniform draw lands inside the table, and no entry exceeds it, so each
    row stays sorted when the cumulative sum rounds above 1.
    """
    cum = np.ones_like(rates)
    hop = esc > 0
    cum[hop] = np.minimum(np.cumsum(rates[:, hop].T, axis=1) / esc[hop, None], 1.0)
    cum[:, -1] = 1.0
    return cum


def _path_table(cum):
    """The sorted lookup keys of every L-jump path, and L.

    ``cum[a]`` holds the cumulative destination probabilities from exciton
    a.  L is the largest path length with n**(L+1) <= ``_PATH_ENTRIES``,
    but at least 1.  Path p from exciton a visits the base-n digits of p,
    most significant first; its key is a plus the cumulative probability of
    the paths up to p, capped at a + 1 and with each row's last key pinned
    to a + 1, so the keys stay sorted.
    """
    n = cum.shape[0]
    length = 1
    while n > 1 and n ** (length + 2) <= _PATH_ENTRIES:
        length += 1
    step = np.diff(cum, prepend=0.0, axis=1)
    prob = step
    for _ in range(length - 1):
        # extend every path by one jump from its last exciton, p % n
        prob = (prob[:, :, None] * step[np.arange(prob.shape[1]) % n]).reshape(n, -1)
    keys = np.minimum(np.cumsum(prob, axis=1), 1.0)
    keys[:, -1] = 1.0
    keys += np.arange(n)[:, None]
    return keys.ravel(), length


def _lookup(keys, n_paths, a, u):
    """The path index drawn by uniforms ``u`` from excitons ``a``.

    When a + u rounds up to a + 1 the count would run into row a + 1, so it
    is capped at the row's last path.
    """
    p = np.searchsorted(keys, a + u, side="right") - a * n_paths
    return np.minimum(p, n_paths - 1)


def _walk(rng, state, esc, table, counted, t_max, burn_in):
    """Move one chunk of trajectories a block of jumps at a time.

    ``state`` holds the start excitons and ``table`` is ``_path_table``'s
    result.  Each block of about ``_BLOCK`` jumps draws its jump chain by
    one path lookup per L jumps, each with one uniform; the holding times,
    jump times, occupation and counts of the whole block are then array
    operations, and trajectories past t_max drop out after the block.

    The lookup searches a + u in the keys of row a.  Adding a rounds u to
    ulp(n) ~ n 2^-52, which distorts a path probability by at most that
    much, the same order as the rounding already in ``cum``.

    An absorbing exciton (esc == 0) holds for dt = inf, so every later jump
    of the block lies past t_max.  Returns the counted jumps per trajectory
    and the time spent in each exciton inside [burn_in, t_max], summed over
    the chunk.
    """
    keys, length = table
    n = esc.size
    n_paths = n**length
    lookups = -(-_BLOCK // length)
    jumps = lookups * length
    # the excitons path p visits: its base-n digits, first jump first
    digits = np.arange(n_paths)[:, None] // n ** np.arange(length - 1, -1, -1) % n
    divisor = np.where(esc > 0, esc, 1.0)  # no 0/0 in absorbing states (esc == 0)
    absorbing = esc == 0
    flat_counted = counted.ravel()
    counts = np.zeros(state.size, dtype=np.int64)
    occ = np.zeros(n)
    live = np.arange(state.size)
    t = np.zeros(state.size)
    while live.size:
        u = rng.random((lookups + jumps, live.size))
        paths = np.empty((lookups, live.size), dtype=np.intp)
        a = state
        for i in range(lookups):
            paths[i] = _lookup(keys, n_paths, a, u[i])
            a = paths[i] % n
        dest = digits[paths].transpose(0, 2, 1).reshape(jumps, -1)
        held = np.concatenate((state[None], dest[:-1]))
        # jump times: t, then t plus the cumulated holding times
        times = np.empty((jumps + 1, live.size))
        times[0] = t
        dt = times[1:]
        np.log1p(-u[lookups:], out=dt)
        dt /= -divisor[held]
        np.copyto(dt, np.inf, where=absorbing[held])
        np.cumsum(times, axis=0, out=times)
        # time held inside the window: the segments clipped to it
        seg = np.diff(np.clip(times, burn_in, t_max), axis=0)
        occ += np.bincount(held.ravel(), weights=seg.ravel(), minlength=n)
        t1 = times[1:]
        hit = flat_counted[held * n + dest] & (t1 < t_max) & (t1 >= burn_in)
        counts[live] += hit.sum(axis=0)
        go = t1[-1] < t_max
        state, t, live = dest[-1, go], t1[-1, go], live[go]
    return counts, occ


def simulate(generator: TiltedGenerator, config: TrajectoryConfig) -> CountStatistics:
    """Sample counted-jump statistics of the classical exciton chain whose
    rates and counted jumps are those of ``generator``.  Counting is
    passive, so the walk itself is independent of which jumps are counted.

    The stationary populations come from ``lds.stationary``.  Where they
    are needed, for a stationary start or for the expected-count check
    after the default burn-in, a reducible chain raises its SpectralError.
    """
    rates, n = generator.rates, generator.n_excitons
    start = config.initial_state
    if isinstance(start, str) and start == "stationary":
        start = None
    else:
        index = _index(start)
        if index is None:
            raise ValueError(
                f"initial_state must be 'stationary' or an exciton index, got {start!r}"
            )
        if not 0 <= index < n:
            raise ValueError(f"initial exciton {index} out of range [0, {n})")
        start = index
    esc = rates.sum(axis=0)
    if not esc.any() and start is not None:
        raise ValueError("all rates vanish; only a stationary start is meaningful")

    if config.burn_in is not None:
        burn_in = config.burn_in
    elif start is None:
        burn_in = 0.0
    else:
        burn_in = 10.0 / esc[esc > 0].min()
        if burn_in >= config.t_max:
            raise ValueError(
                f"default burn_in {burn_in:.3g} exceeds t_max {config.t_max:.3g}"
            )
    window = config.t_max - burn_in

    table = _path_table(_destinations(rates, esc))

    warning = None
    # The stationary expectation holds only for a walk that is stationary
    # over the window: a stationary start, or a fixed start relaxed by the
    # default burn-in.  After an explicit burn-in nothing is predicted.
    if start is None or config.burn_in is None:
        pi = stationary(generator)
        cum_pi = np.cumsum(pi)
        expected = float((rates * pi[None, :])[generator.counted].sum()) * window
        if expected < 1.0:
            warning = (
                f"expected counted jumps per trajectory is {expected:.3g} < 1; "
                "estimates will be noisy"
            )
            warnings.warn(warning, stacklevel=2)

    n_traj = config.n_trajectories
    counts = np.zeros(n_traj, dtype=np.int64)
    occupation = np.zeros(n)
    counted = generator.counted.T  # counted[a, b] flags the jump a -> b
    streams = np.random.SeedSequence(config.seed).spawn(math.ceil(n_traj / _CHUNK))
    for c, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        chunk = slice(c * _CHUNK, min((c + 1) * _CHUNK, n_traj))
        size = chunk.stop - chunk.start
        if start is None:
            state = np.searchsorted(cum_pi, rng.random(size), side="right")
            state = np.minimum(state, n - 1)
        else:
            state = np.full(size, start)
        counts[chunk], occ = _walk(rng, state, esc, table, counted, config.t_max, burn_in)
        occupation += occ

    return _statistics(counts, occupation, window, warning)


def _statistics(counts, occupation, window, warning) -> CountStatistics:
    n = counts.size
    mean_k = counts.mean()
    mean_rate = mean_k / window
    if n > 1:
        var_k = counts.var(ddof=1)
        se_mean = counts.std(ddof=1) / (math.sqrt(n) * window)
    else:
        var_k = 0.0
        se_mean = 0.0
    variance_rate = var_k / window

    mandel = float(var_k / mean_k - 1.0) if (mean_k > 0 and n > 1) else None
    se_mandel = None
    se_variance = 0.0
    if n > 2:
        # jackknife over trajectories for the variance and Mandel estimators
        s1 = counts.sum(dtype=np.float64)
        s2 = (counts.astype(np.float64) ** 2).sum()
        m_i = (s1 - counts) / (n - 1)
        v_i = (s2 - counts.astype(np.float64) ** 2 - (n - 1) * m_i**2) / (n - 2)
        v_jack = v_i / window
        se_variance = math.sqrt((n - 1) / n * ((v_jack - v_jack.mean()) ** 2).sum())
        if mandel is not None and np.all(m_i > 0):
            q_i = v_i / m_i - 1.0
            se_mandel = math.sqrt((n - 1) / n * ((q_i - q_i.mean()) ** 2).sum())

    values, freqs = np.unique(counts, return_counts=True)
    histogram = {int(v): int(c) for v, c in zip(values, freqs)}

    occ = occupation / (n * window)
    return CountStatistics(
        mean_rate=float(mean_rate),
        se_mean=float(se_mean),
        variance_rate=float(variance_rate),
        se_variance=float(se_variance),
        mandel_estimate=mandel,
        se_mandel=se_mandel,
        histogram=histogram,
        n_trajectories=int(n),
        window=float(window),
        occupation=occ,
        warning=warning,
    )

