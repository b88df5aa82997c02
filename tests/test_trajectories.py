import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.stats import chi2, poisson

from excount import lds, trajectories
from excount.bath import BathSpec
from excount.generator import TiltedGenerator, tilted_generator
from excount.lds import SpectralError, theta_derivatives
from excount.model import SiteModel, diagonalize, preset
from excount.trajectories import (
    _CHUNK,
    TrajectoryConfig,
    _lookup,
    _path_table,
    simulate,
)
from reference import counting_distribution, stationary_eig


def fmo_setup(name, selector, temp=300.0):
    basis = diagonalize(preset(name))
    bath = BathSpec(35.0, 150.0, temp)
    gen = tilted_generator(basis, bath, [selector])
    _, d1, d2 = theta_derivatives(gen, 0.0)
    return basis, bath, gen, -d1, -d2 / d1 - 1.0


def zero_rate_generator():
    basis = diagonalize(SiteModel(energies=[0.0, 200.0], couplings=np.zeros((2, 2))))
    bath = BathSpec(35.0, 150.0, 300.0)
    return tilted_generator(basis, bath, ["down:a2->a1"])


def test_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(t_max=0.0)
    # an infinite window never ends the walk, a NaN one gives NaN estimates
    for t_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            TrajectoryConfig(t_max=t_max)
    with pytest.raises(ValueError):
        TrajectoryConfig(t_max=1.0, n_trajectories=0)
    # non-integers are refused here, not deep inside numpy's sampler
    for bad in (10.0, 2.5, True, "10"):
        with pytest.raises(ValueError, match=f"n_trajectories .* got {bad!r}"):
            TrajectoryConfig(t_max=1.0, n_trajectories=bad)
    for bad in (1.5, 2.0, False, -1):
        with pytest.raises(ValueError, match=f"seed .* got {bad!r}"):
            TrajectoryConfig(t_max=1.0, seed=bad)
    _, _, gen, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    cfg = TrajectoryConfig(
        t_max=50.0 / activity, n_trajectories=np.int64(3), seed=np.uint32(5)
    )
    assert simulate(gen, cfg).n_trajectories == 3


def absorbing_start_generator():
    # exciton 1 feeds exciton 0, which has no escape: the stationary state
    # sits in exciton 0
    return TiltedGenerator([[0.0, 5.0], [0.0, 0.0]], [[False, True], [False, False]])


def isolated_exciton_generator():
    # sites at 0, 150 and 400 cm^-1 with only J12 = 60 cm^-1: the exciton on
    # site 3 has no rate in or out
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 60.0
    basis = diagonalize(SiteModel(energies=[0.0, 150.0, 400.0], couplings=j))
    return tilted_generator(basis, BathSpec(35.0, 150.0, 300.0), ["down:a2->a1"])


def test_zero_rates_stationary_start():
    gen = zero_rate_generator()
    with pytest.warns(UserWarning, match="expected counted jumps"):
        stats = simulate(gen, TrajectoryConfig(t_max=5.0, n_trajectories=64, seed=1))
    assert stats.mean_rate == 0.0
    assert stats.histogram == {0: 64}
    assert stats.mandel_estimate is None


def test_stationary_start_in_an_absorbing_exciton():
    # every trajectory holds in exciton 0 and counts nothing
    gen = absorbing_start_generator()
    assert np.array_equal(lds.stationary(gen), [1.0, 0.0])
    with pytest.warns(UserWarning, match="expected counted jumps"):
        stats = simulate(gen, TrajectoryConfig(t_max=2.0, n_trajectories=64, seed=1))
    assert stats.histogram == {0: 64}
    assert np.array_equal(stats.occupation, [1.0, 0.0])


@pytest.mark.parametrize("bad_rate", [-1.0, math.inf, math.nan], ids=["negative", "inf", "nan"])
def test_bad_channel_rate_rejected(bad_rate):
    # the counted jump 1 -> 0 has the bad rate; the sampler and the spectral
    # kernel both see it rejected when the generator is built, not as a
    # misleading "ambiguous" or "overflows" error later
    rates, counted = [[0.0, bad_rate], [2.0, 0.0]], [[False, True], [False, False]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate(
                TiltedGenerator(rates, counted),
                TrajectoryConfig(t_max=5.0, n_trajectories=8),
            )
        with pytest.raises(ValueError, match="finite and non-negative"):
            lds.scan(TiltedGenerator(rates, counted), [-1.0, 0.0])


def test_stationary_start_on_reducible_chain_is_an_error():
    # two uncoupled dimers: the stationary state is not unique, and a start
    # drawn from one of them alone never reaches the counted jump
    j = np.zeros((4, 4))
    j[0, 1] = j[1, 0] = 60.0
    j[2, 3] = j[3, 2] = 70.0
    basis = diagonalize(SiteModel(energies=[0.0, 150.0, 300.0, 500.0], couplings=j))
    gen = tilted_generator(basis, BathSpec(35.0, 150.0, 300.0), ["down:a2->a1"])
    with pytest.raises(SpectralError, match="defective .* reducible"):
        simulate(gen, TrajectoryConfig(t_max=5.0, n_trajectories=8))


def test_isolated_exciton_gets_no_stationary_weight():
    gen = isolated_exciton_generator()
    np.testing.assert_allclose(lds.stationary(gen), [0.7153, 0.2847, 0.0], rtol=0.0, atol=1e-4)
    activity = -theta_derivatives(gen, 0.0)[1]
    assert activity == pytest.approx(6.267, abs=1e-3)
    cfg = TrajectoryConfig(t_max=200.0 / activity, n_trajectories=4000, seed=3)
    stats = simulate(gen, cfg)
    assert abs(stats.mean_rate - activity) < 3.0 * stats.se_mean
    assert stats.occupation[2] == 0.0


def test_isolated_exciton_walks_a_two_exciton_table(monkeypatch):
    # the walk reads the closed class {a1, a2} alone, where every exciton
    # has an escape rate
    tables = []

    def recording(rates, esc, counted):
        tables.append((rates.shape, counted.shape, esc))
        return path_table(rates, esc, counted)

    path_table = trajectories._path_table
    monkeypatch.setattr(trajectories, "_path_table", recording)
    simulate(isolated_exciton_generator(), TrajectoryConfig(t_max=5.0, n_trajectories=8))
    [(rates_shape, counted_shape, esc)] = tables
    assert rates_shape == counted_shape == (2, 2)
    assert esc.size == 2 and np.all(esc > 0.0)


def test_isolated_exciton_histogram_matches_exact_counting_distribution():
    gen = isolated_exciton_generator()
    t_max = 200.0 / -theta_derivatives(gen, 0.0)[1]
    n_traj = 4000
    stats = simulate(gen, TrajectoryConfig(t_max=t_max, n_trajectories=n_traj, seed=33))
    k_max = 2 * max(stats.histogram) + 10
    probs = counting_distribution(gen.rates, gen.counted, lds.stationary(gen), t_max, k_max)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert chi_square_p(stats.histogram, probs, n_traj) > 1e-3


@pytest.mark.parametrize(
    "make, occupation",
    [(zero_rate_generator, None), (absorbing_start_generator, [1.0, 0.0])],
    ids=["zero-rates", "absorbing-start"],
)
def test_frozen_chain_holds_its_start_without_a_walk(make, occupation, monkeypatch):
    def fails(*args):
        raise AssertionError("walked a chain that cannot move")

    monkeypatch.setattr(trajectories, "_path_table", fails)
    monkeypatch.setattr(trajectories, "_walk", fails)
    n_traj = _CHUNK + 476
    with pytest.warns(UserWarning, match="expected counted jumps"):
        stats = simulate(make(), TrajectoryConfig(t_max=2.0, n_trajectories=n_traj, seed=4))
    assert stats.histogram == {0: n_traj}
    assert stats.mean_rate == 0.0 and stats.mandel_estimate is None
    assert stats.occupation.sum() == pytest.approx(1.0, abs=1e-12)
    if occupation is None:  # uniform starts over both excitons
        assert np.all(np.abs(stats.occupation - 0.5) < 4.0 * math.sqrt(0.25 / n_traj))
    else:
        assert np.array_equal(stats.occupation, occupation)


class TopUniformFirst:
    """A random generator whose first ``random`` call, the start draw of a
    chunk, returns the largest double below 1 everywhere."""

    def __init__(self, rng):
        self.rng, self.first = rng, True

    def random(self, size=None):
        if self.first:
            self.first = False
            return np.full(size, 1.0 - 2.0**-53)
        return self.rng.random(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_top_uniform_starts_in_the_support(monkeypatch):
    # exciton 3 is isolated, and the stationary populations of the others
    # sum to just below 1, so the top uniform lies above their total
    rates = np.zeros((4, 4))
    rates[:3, :3] = random_rates(3, seed=2)
    counted = np.zeros((4, 4), dtype=bool)
    counted[0, 2] = True
    gen = TiltedGenerator(rates, counted)
    pi = lds.stationary(gen)
    assert pi[3] == 0.0 and np.cumsum(pi)[-1] < 1.0
    starts = []

    def recording(rng, state, *args):
        starts.append(state.copy())
        return walk(rng, state, *args)

    walk = trajectories._walk
    monkeypatch.setattr(trajectories, "_walk", recording)
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: TopUniformFirst(default_rng(seed)))
    stats = simulate(gen, TrajectoryConfig(t_max=50.0, n_trajectories=8, seed=1))
    # the class is {0, 1, 2}, so class index 2 is exciton 2, the last
    # exciton of positive weight
    assert np.array_equal(np.concatenate(starts), np.full(8, 2))
    assert pi[2] > 0.0 and stats.occupation[3] == 0.0


def test_fmo2_agrees_with_spectral_pipeline():
    basis, bath, gen, activity, q = fmo_setup("fmo2", "down:a2->a1")
    cfg = TrajectoryConfig(t_max=200.0 / activity, n_trajectories=10_000, seed=42)
    stats = simulate(gen, cfg)
    assert abs(stats.mean_rate - activity) < 3.0 * stats.se_mean
    assert abs(stats.mandel_estimate - q) < 3.0 * stats.se_mandel
    # same number as the stationary downward flux
    pops = np.exp(-bath.beta * basis.energies)
    pops /= pops.sum()
    rate_down = gen.rates[0, 1]
    assert abs(stats.mean_rate - rate_down * pops[1]) < 3.0 * stats.se_mean
    # occupation fractions track the Boltzmann weights
    occ_se = np.sqrt(pops * (1 - pops) / cfg.n_trajectories)  # loose per-state bound
    assert np.all(np.abs(stats.occupation - pops) < 3.0 * np.maximum(occ_se, 1e-3))
    assert sum(stats.histogram.values()) == cfg.n_trajectories


def test_equal_rate_toy_mandel_is_minus_half():
    kappa = 5.0
    gen = TiltedGenerator([[0.0, kappa], [kappa, 0.0]], [[False, True], [False, False]])
    cfg = TrajectoryConfig(t_max=80.0, n_trajectories=6000, seed=9)
    stats = simulate(gen, cfg)
    assert abs(stats.mandel_estimate + 0.5) < 3.0 * stats.se_mandel


def test_bit_reproducibility():
    # one trajectory, a partial chunk, exactly one chunk, one past a chunk
    _, _, gen, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    for n_traj in (1, 500, _CHUNK, _CHUNK + 1):
        cfg = TrajectoryConfig(t_max=100.0 / activity, n_trajectories=n_traj, seed=77)
        a = simulate(gen, cfg)
        b = simulate(gen, cfg)
        assert a.histogram == b.histogram
        assert a.mean_rate == b.mean_rate
        assert a.se_mandel == b.se_mandel
        assert np.array_equal(a.occupation, b.occupation)
        assert sum(a.histogram.values()) == n_traj
        assert a.occupation.sum() == pytest.approx(1.0, abs=1e-12)


def test_seed_changes_the_sample():
    _, _, gen, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    a = simulate(gen, TrajectoryConfig(t_max=50.0 / activity, n_trajectories=200, seed=1))
    b = simulate(gen, TrajectoryConfig(t_max=50.0 / activity, n_trajectories=200, seed=2))
    assert a.histogram != b.histogram


def test_upward_and_downward_counts_balance():
    # same seed -> identical paths, so only the counting flags differ
    basis = diagonalize(preset("fmo3"))
    bath = BathSpec(35.0, 150.0, 300.0)
    down = tilted_generator(basis, bath, ["down:a3->a2"])
    up = tilted_generator(basis, bath, ["up:a2->a3"])
    activity = -theta_derivatives(down, 0.0)[1]
    cfg = TrajectoryConfig(t_max=100.0 / activity, n_trajectories=4000, seed=13)
    st_down = simulate(down, cfg)
    st_up = simulate(up, cfg)
    se = math.hypot(st_down.se_mean, st_up.se_mean)
    assert abs(st_down.mean_rate - st_up.mean_rate) < 3.0 * se


def test_standard_error_scaling():
    _, _, gen, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    ratios = []
    for rep in range(10):
        small = simulate(
            gen, TrajectoryConfig(t_max=50.0 / activity, n_trajectories=400, seed=100 + rep)
        )
        big = simulate(
            gen, TrajectoryConfig(t_max=50.0 / activity, n_trajectories=800, seed=200 + rep)
        )
        ratios.append(small.se_mean / big.se_mean)
    assert 1.25 <= np.mean(ratios) <= 1.6


def random_rates(n, seed):
    rng = np.random.default_rng(seed)
    rates = rng.exponential(size=(n, n))
    np.fill_diagonal(rates, 0.0)
    return rates


def destination_cum(rates, esc):
    """Cumulative probabilities of the destinations b != a from each exciton
    a, in ascending b, as the reference for single-jump lookups."""
    n = esc.size
    cum = np.ones((n, n - 1))
    for a in range(n):
        cum[a] = np.minimum(np.cumsum(np.delete(rates[:, a], a) / esc[a]), 1.0)
        cum[a, -1] = 1.0
    return cum


@pytest.mark.parametrize(
    "n, length", [(2, 16), (3, 10), (17, 1), (20, 1)], ids=["n2", "n3", "n17", "n20"]
)
def test_path_table_holds_path_probabilities(n, length):
    rates = random_rates(n, seed=n)
    esc = rates.sum(axis=0)
    counted = np.random.default_rng(n).random((n, n)) < 0.5  # counted[a, b]: a -> b
    table = _path_table(rates, esc, counted)
    n_paths = (n - 1) ** length
    assert table.held.shape == (n * n_paths, length)
    assert table.keys.size == n * n_paths <= max(trajectories._PATH_ENTRIES, n * (n - 1))
    if n == 2:
        assert n_paths == 1
    rows = table.keys.reshape(n, -1)
    assert np.all(np.diff(rows, axis=1) >= 0.0)
    assert np.array_equal(rows[:, -1], np.arange(n) + 1.0)
    seqs = np.column_stack((table.held, table.last))
    assert np.all(seqs[:, 1:] != seqs[:, :-1])  # no path holds a self-jump
    # the guide only speeds up the search: a lookup is the first key above
    # a + u / 2, and it stays in row a
    rng = np.random.default_rng(n)
    a = rng.integers(0, n, 10_000)
    u = rng.random(10_000)
    entry = _lookup(table, a, u)
    assert np.array_equal(entry, np.searchsorted(table.keys, a + 0.5 * u, side="right"))
    assert np.array_equal(entry // n_paths, a)
    # the keys hold half the cumulative probabilities, and the last path
    # takes the rest; they resolve only to ulp(a + 1) <= ulp(n)
    tol = max(1e-15, 2.0 * np.spacing(float(n)))
    for a in range(n):
        probs = 2.0 * np.diff(rows[a], prepend=float(a))
        probs[-1] = 1.0 - 2.0 * (rows[a, -2] - a) if n_paths > 1 else 1.0
        for p, digits in enumerate(itertools.product(range(n - 1), repeat=length)):
            prob, here, seq, k_count = 1.0, a, [a], 0
            for d in digits:
                b = d + (d >= here)
                prob *= rates[b, here] / esc[here]
                k_count += counted[here, b]
                here = b
                seq.append(b)
            entry = a * n_paths + p
            assert np.array_equal(seqs[entry], seq), (a, digits)
            assert table.counted[entry] == k_count, (a, digits)
            assert abs(probs[p] - prob) <= tol, (a, digits)
            # the per-exciton hold counts agree with the held sequence
            holds = np.bincount(
                table.visited[:, entry], weights=table.visits[:, entry], minlength=n
            )
            assert np.array_equal(holds, np.bincount(seq[:-1], minlength=n))


@pytest.mark.parametrize("n", [17], ids=["n17"])
def test_single_jump_lookup_matches_cumulative_search(n):
    rates = random_rates(n, seed=100 + n)
    esc = rates.sum(axis=0)
    table = _path_table(rates, esc, np.zeros((n, n), dtype=bool))
    assert table.held.shape[1] == 1
    cum = destination_cum(rates, esc)
    rng = np.random.default_rng(7)
    a = rng.integers(0, n, 100_000)
    u = rng.random(100_000)
    digit = (cum[a] <= u[:, None]).sum(axis=1)
    entry = _lookup(table, a, u)
    assert np.array_equal(entry, a * (n - 1) + digit)
    assert np.array_equal(table.last[entry], digit + (digit >= a))


def test_lookup_stays_in_its_row_when_a_plus_u_rounds_up():
    rates = random_rates(3, seed=1)
    table = _path_table(rates, rates.sum(axis=0), np.zeros((3, 3), dtype=bool))
    n_paths = 2 ** table.held.shape[1]
    a = np.array([1, 2])
    u = np.full(2, np.nextafter(1.0, 0.0))  # a + u rounds to a + 1
    assert np.all(a + u == a + 1.0)
    assert np.array_equal(_lookup(table, a, u), (a + 1) * n_paths - 1)


def test_counting_distribution_reference():
    # equal rates both ways, every jump counted: K is Poisson(k t) exactly
    k, t = 3.0, 40.0
    rates = np.array([[0.0, k], [k, 0.0]])
    probs = counting_distribution(rates, rates > 0, [1.0, 0.0], t, 300)
    expected = poisson.pmf(np.arange(300), k * t)
    np.testing.assert_allclose(probs[:-1], expected, rtol=0.0, atol=1e-12)
    # only the downward jumps counted, from the stationary start: the mean
    # count is the stationary flux times t
    rates = np.array([[0.0, 5.0], [2.0, 0.0]])
    counted = np.array([[False, True], [False, False]])
    pi = np.array([5.0, 2.0]) / 7.0
    probs = counting_distribution(rates, counted, pi, t, 400)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs @ np.arange(401) == pytest.approx(5.0 * pi[1] * t, rel=1e-10)


def chi_square_p(histogram, probs, n_traj):
    """Pearson chi-square p-value of a K histogram against P(K), with
    adjacent bins pooled upward until each expects at least 5 counts.  The
    last entry of ``probs`` is P(K >= its index)."""
    top = probs.size - 1
    observed = np.zeros(probs.size)
    for k_count, freq in histogram.items():
        observed[min(k_count, top)] += freq
    pooled_o, pooled_e, o, e = [], [], 0.0, 0.0
    for ok, ek in zip(observed, n_traj * probs):
        o, e = o + ok, e + ek
        if e >= 5.0:
            pooled_o.append(o)
            pooled_e.append(e)
            o = e = 0.0
    pooled_o[-1] += o
    pooled_e[-1] += e
    pooled_o, pooled_e = np.array(pooled_o), np.array(pooled_e)
    stat = ((pooled_o - pooled_e) ** 2 / pooled_e).sum()
    return float(chi2.sf(stat, pooled_o.size - 1))


# (preset, temperature, counted channel, seed); t_max = 200 / activity, so
# Lambda t is about 754 for fmo2 and 2000 for fmo3 (L = 10 there: paths
# span block boundaries)
EXACT_CASES = {
    "fmo2-300K": ("fmo2", 300.0, "down:a2->a1", 31),
    "fmo3-300K": ("fmo3", 300.0, "down:a3->a2", 32),
}


@pytest.mark.parametrize("block", [None, 1], ids=["default-block", "block-1"])
@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_histogram_matches_exact_counting_distribution(case, block, monkeypatch):
    name, temp, selector, seed = EXACT_CASES[case]
    if block is not None:
        monkeypatch.setattr(trajectories, "_BLOCK", block)
    basis, bath, gen, activity, _ = fmo_setup(name, selector, temp)
    t_max = 200.0 / activity
    n_traj = 4000
    stats = simulate(gen, TrajectoryConfig(t_max=t_max, n_trajectories=n_traj, seed=seed))
    rates, counted = gen.rates, gen.counted
    k_max = 2 * max(stats.histogram) + 10
    probs = counting_distribution(rates, counted, stationary_eig(rates), t_max, k_max)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert sum(stats.histogram.values()) == n_traj
    assert chi_square_p(stats.histogram, probs, n_traj) > 1e-3


def test_runaway_run_warns_before_sampling(monkeypatch):
    # fmo4 at 77 K counting the rare upward jump a1 -> a4: the default window
    # of 200 expected counted jumps holds about 1.65e6 jumps per trajectory
    _, _, gen, activity, _ = fmo_setup("fmo4", "up:a1->a4", 77.0)

    def no_walk(*args):
        raise AssertionError("sampled despite the warning")

    monkeypatch.setattr(trajectories, "_walk", no_walk)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match=r"expected 1\.6\de\+10 jumps .*--traj, --t-max-ps"):
            simulate(gen, TrajectoryConfig(t_max=200.0 / activity))


def test_self_jump_rates_rejected():
    # the generator refuses them, so neither the sampler nor lds gets one
    rates = [[1.0, 2.0], [3.0, 0.0]]
    with pytest.raises(ValueError, match="self-jump"):
        gen = TiltedGenerator(rates, [[False, True], [False, False]])
        simulate(gen, TrajectoryConfig(t_max=5.0, n_trajectories=8))
    with pytest.raises(ValueError, match="self-jump"):
        lds.scan(TiltedGenerator(rates, [[True, True], [False, False]]), [0.0])


def test_stacked_generator_rejected():
    rates = np.array([[0.0, 2.0], [3.0, 0.0]])
    gen = TiltedGenerator([rates, 2.0 * rates], np.broadcast_to(rates > 0, (2, 2, 2)))
    with pytest.raises(ValueError, match=r"^needs a single-task generator, got task axes \(2,\)"):
        simulate(gen, TrajectoryConfig(t_max=5.0, n_trajectories=8))


def test_one_exciton_rejected():
    # its only counted jump would be a self-jump, so no generator of one
    # exciton reaches the sampler
    with pytest.raises(ValueError, match="^no counted self-jumps"):
        TiltedGenerator([[0.0]], [[True]])


def occupation_se(rates, pi, window, n_traj):
    """Standard errors of the occupation fractions of ``n_traj`` stationary
    trajectories over ``window``: the time spent in exciton a has the
    asymptotic variance 2 pi_a D[a, a] per unit time, where
    D = (pi 1^T - Q)^-1 - pi 1^T is the deviation matrix of the chain."""
    q = rates - np.diag(rates.sum(axis=0))
    proj = np.outer(pi, np.ones_like(pi))
    dev = np.linalg.inv(proj - q) - proj
    return np.sqrt(2.0 * pi * np.diag(dev) / (window * n_traj))


# (n, jumps per trajectory in units of the mean escape rate, seed).  With 6
# jumps per trajectory against blocks of at least 16, the edge-heavy case
# takes nearly every hold from the Dirichlet split of a block that
# straddles t_max.
RANDOM_CASES = {
    "n2": (2, 40.0, 51),
    "n3": (3, 40.0, 52),
    "n4": (4, 40.0, 53),
    "n5": (5, 40.0, 54),
    "n6": (6, 40.0, 55),
    "n6-edge-heavy": (6, 6.0, 58),
}


@pytest.mark.parametrize("case", list(RANDOM_CASES))
def test_random_chain_matches_exact_counting_distribution(case):
    n, jumps, seed = RANDOM_CASES[case]
    rates = random_rates(n, seed)
    counted = np.random.default_rng(seed).random((n, n)) < 0.5
    np.fill_diagonal(counted, False)
    counted[0, n - 1] = True  # the jump n - 1 -> 0, so that one jump is counted
    gen = TiltedGenerator(rates, counted)
    t_max = jumps / rates.sum(axis=0).mean()
    n_traj = 4000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = simulate(gen, TrajectoryConfig(t_max=t_max, n_trajectories=n_traj, seed=seed))
    k_max = 2 * max(stats.histogram) + 10
    probs = counting_distribution(rates, counted, stationary_eig(rates), t_max, k_max)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert sum(stats.histogram.values()) == n_traj
    assert chi_square_p(stats.histogram, probs, n_traj) > 1e-3
    assert stats.occupation.sum() == pytest.approx(1.0, abs=1e-12)
    pi = lds.stationary(gen)
    se = occupation_se(rates, pi, t_max, n_traj)
    assert np.all(np.abs(stats.occupation - pi) < 4.0 * se)
