"""Stochastic trajectory oracle: continuous-time jumps over exciton populations.

Under the secular generator the populations close on a classical Markov
chain, the same rate matrix (``generator.rate_matrix``) whose tilted form
gives theta(s).  The counted-jump statistics at s=0 are therefore sampled
exactly by a Gillespie walk (Gillespie, J. Phys. Chem. 81, 2340 (1977))
over exciton indices; no wavefunction unraveling is needed.

Trajectories run in fixed chunks of ``_CHUNK``.  Chunk c draws from its
own stream, spawned from ``SeedSequence(seed)`` by chunk index, and moves
all of its live trajectories one jump per numpy step, so the result is
bit-reproducible for a given seed and trajectory count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .generator import rate_matrix
from .lds import RateFunctionPoint

__all__ = ["TrajectoryConfig", "CountStatistics", "simulate", "empirical_rate_function"]

_CHUNK = 1024


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
        if self.t_max <= 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.burn_in is not None and not 0 <= self.burn_in < self.t_max:
            raise ValueError("need t_max > burn_in >= 0")


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


def _stationary(rates: np.ndarray) -> np.ndarray:
    n = rates.shape[0]
    if not rates.any():
        return np.full(n, 1.0 / n)
    gen = rates - np.diag(rates.sum(axis=0))
    w, v = np.linalg.eig(gen)
    i = int(np.argmax(w.real))
    pi = np.abs(v[:, i].real)
    return pi / pi.sum()


def _walk(rng, state, esc, cum, counted, t_max, burn_in):
    """Move one chunk of trajectories in lockstep, one jump per numpy step.

    ``state`` holds the start excitons.  Returns the counted jumps per
    trajectory and the time spent in each exciton inside [burn_in, t_max],
    summed over the chunk.
    """
    n = esc.size
    divisor = np.where(esc > 0, esc, 1.0)  # no 0/0 in absorbing states (esc == 0)
    counts = np.zeros(state.size, dtype=np.int64)
    occ = np.zeros(n)
    live = np.arange(state.size)
    t = np.zeros(state.size)
    while live.size:
        u = rng.random((2, live.size))
        dt = np.where(esc[state] > 0, -np.log1p(-u[0]) / divisor[state], np.inf)
        t_new = t + dt
        seg = np.minimum(t_new, t_max) - np.maximum(t, burn_in)
        occ += np.bincount(state, weights=np.maximum(seg, 0.0), minlength=n)
        go = t_new < t_max
        state, t, live = state[go], t_new[go], live[go]
        dest = (cum[state] <= u[1, go][:, None]).sum(axis=1)
        counts[live] += counted[state, dest] & (t >= burn_in)
        state = dest
    return counts, occ


def simulate(channels, config: TrajectoryConfig) -> CountStatistics:
    """Sample counted-jump statistics of the classical exciton chain.

    ``channels`` is a JumpChannel list with counted flags set.  Counting is
    passive, so the walk itself is independent of which channels are
    counted.
    """
    channels = list(channels)
    if not channels:
        raise ValueError("need at least one channel")
    if not any(c.counted for c in channels):
        raise ValueError("no counted channels")
    n = max(max(c.from_exciton, c.to_exciton) for c in channels) + 1
    start = config.initial_state
    if isinstance(start, str):
        if start != "stationary":
            raise ValueError(
                f"initial_state must be 'stationary' or an exciton index, got {start!r}"
            )
        start = None
    elif not 0 <= start < n:
        raise ValueError(f"initial exciton {start} out of range [0, {n})")
    rates = rate_matrix(channels, n)
    if not np.all(np.isfinite(rates)):
        raise ValueError("channel rates must be finite")
    esc = rates.sum(axis=0)
    if not esc.any() and start is not None:
        raise ValueError("all rates vanish; only a stationary start is meaningful")

    counted = np.zeros((n, n), dtype=np.bool_)
    for ch in channels:
        if ch.counted:
            counted[ch.from_exciton, ch.to_exciton] = True

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

    # Row-wise cumulative destination probabilities; rows with no escape
    # are never consulted but must stay well-formed.  The last entry is
    # pinned to 1.0 so every uniform draw lands inside the table.
    cum = np.ones((n, n))
    for a in range(n):
        if esc[a] > 0:
            cum[a] = np.cumsum(rates[:, a]) / esc[a]
            cum[a, -1] = 1.0

    pi = _stationary(rates)
    cum_pi = np.cumsum(pi)
    warning = None
    expected = float((rates * pi[None, :])[counted.T].sum()) * window
    if expected < 1.0:
        warning = (
            f"expected counted jumps per trajectory is {expected:.3g} < 1; "
            "estimates will be noisy"
        )
        warnings.warn(warning, stacklevel=2)

    n_traj = config.n_trajectories
    counts = np.zeros(n_traj, dtype=np.int64)
    occupation = np.zeros(n)
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
        counts[chunk], occ = _walk(rng, state, esc, cum, counted, config.t_max, burn_in)
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


def empirical_rate_function(stats: CountStatistics, t: float) -> list[RateFunctionPoint]:
    """phi_hat(k) = -ln(P_t(K)) / t over the observed histogram bins.

    Intended for qualitative comparison with the spectral rate function
    near its minimum; empty bins are simply absent, so no infinities.
    """
    if not stats.histogram:
        raise ValueError("empty histogram")
    total = sum(stats.histogram.values())
    points = []
    for k_count, freq in sorted(stats.histogram.items()):
        p = freq / total
        points.append(RateFunctionPoint(k=k_count / t, phi=-math.log(p) / t))
    return points
