import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import chi2, poisson

from excount import trajectories
from excount.bath import BathSpec
from excount.generator import (
    JumpChannel,
    enumerate_channels,
    rate_matrix,
    resolve_counted,
    tilted_generator,
)
from excount.lds import theta_derivatives
from excount.model import SiteModel, diagonalize, preset
from excount.trajectories import (
    _CHUNK,
    CountStatistics,
    TrajectoryConfig,
    _destinations,
    _lookup,
    _path_table,
    _stationary,
    empirical_rate_function,
    simulate,
)
from reference import counting_distribution


def fmo_setup(name, selector, temp=300.0):
    basis = diagonalize(preset(name))
    bath = BathSpec(35.0, 150.0, temp)
    channels = resolve_counted(enumerate_channels(basis, bath), [selector])
    gen = tilted_generator(basis, bath, [selector])
    _, d1, d2 = theta_derivatives(gen, 0.0)
    return basis, bath, channels, -d1, -d2 / d1 - 1.0


def zero_rate_channels():
    basis = diagonalize(SiteModel(energies=[0.0, 200.0], couplings=np.zeros((2, 2))))
    bath = BathSpec(35.0, 150.0, 300.0)
    return resolve_counted(enumerate_channels(basis, bath), ["down:a2->a1"])


def test_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(t_max=0.0)
    # an infinite window never ends the walk, a NaN one gives NaN estimates
    for t_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            TrajectoryConfig(t_max=t_max)
    with pytest.raises(ValueError):
        TrajectoryConfig(t_max=1.0, n_trajectories=0)
    with pytest.raises(ValueError):
        TrajectoryConfig(t_max=1.0, burn_in=2.0)
    # non-integers are refused here, not deep inside numpy's sampler
    for bad in (10.0, 2.5, True, "10"):
        with pytest.raises(ValueError, match=f"n_trajectories .* got {bad!r}"):
            TrajectoryConfig(t_max=1.0, n_trajectories=bad)
    for bad in (1.5, 2.0, False, -1):
        with pytest.raises(ValueError, match=f"seed .* got {bad!r}"):
            TrajectoryConfig(t_max=1.0, seed=bad)
    _, _, channels, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    cfg = TrajectoryConfig(
        t_max=50.0 / activity, n_trajectories=np.int64(3), seed=np.uint32(5)
    )
    assert simulate(channels, cfg).n_trajectories == 3


def test_zero_rates_stationary_start():
    channels = zero_rate_channels()
    with pytest.warns(UserWarning, match="expected counted jumps"):
        stats = simulate(channels, TrajectoryConfig(t_max=5.0, n_trajectories=64, seed=1))
    assert stats.mean_rate == 0.0
    assert stats.histogram == {0: 64}
    assert stats.mandel_estimate is None
    assert stats.warning is not None


def test_zero_rates_fixed_start_rejected():
    channels = zero_rate_channels()
    with pytest.raises(ValueError, match="stationary"):
        simulate(channels, TrajectoryConfig(t_max=5.0, n_trajectories=8, initial_state=0))


@pytest.mark.parametrize("bad_rate", [-1.0, math.inf, math.nan], ids=["negative", "inf", "nan"])
def test_bad_channel_rate_rejected(bad_rate):
    channels = (
        JumpChannel(0, 1, 100.0, 2.0, counted=False),
        JumpChannel(1, 0, -100.0, bad_rate, counted=True),
    )
    with pytest.raises(ValueError, match="finite and non-negative"):
        simulate(channels, TrajectoryConfig(t_max=5.0, n_trajectories=8, burn_in=0.0))


def test_fmo2_agrees_with_spectral_pipeline():
    basis, bath, channels, activity, q = fmo_setup("fmo2", "down:a2->a1")
    cfg = TrajectoryConfig(t_max=200.0 / activity, n_trajectories=10_000, seed=42)
    stats = simulate(channels, cfg)
    assert abs(stats.mean_rate - activity) < 3.0 * stats.se_mean
    assert abs(stats.mandel_estimate - q) < 3.0 * stats.se_mandel
    # same number as the stationary downward flux
    pops = np.exp(-bath.beta * basis.energies)
    pops /= pops.sum()
    rate_down = next(c.rate for c in channels if c.counted)
    assert abs(stats.mean_rate - rate_down * pops[1]) < 3.0 * stats.se_mean
    # occupation fractions track the Boltzmann weights
    occ_se = np.sqrt(pops * (1 - pops) / cfg.n_trajectories)  # loose per-state bound
    assert np.all(np.abs(stats.occupation - pops) < 3.0 * np.maximum(occ_se, 1e-3))
    assert sum(stats.histogram.values()) == cfg.n_trajectories


def test_equal_rate_toy_mandel_is_minus_half():
    kappa = 5.0
    channels = (
        JumpChannel(0, 1, 100.0, kappa, counted=False),
        JumpChannel(1, 0, -100.0, kappa, counted=True),
    )
    cfg = TrajectoryConfig(t_max=80.0, n_trajectories=6000, seed=9)
    stats = simulate(channels, cfg)
    assert abs(stats.mandel_estimate + 0.5) < 3.0 * stats.se_mandel


def test_bit_reproducibility():
    # one trajectory, a partial chunk, exactly one chunk, one past a chunk
    _, _, channels, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    for n_traj in (1, 500, _CHUNK, _CHUNK + 1):
        cfg = TrajectoryConfig(t_max=100.0 / activity, n_trajectories=n_traj, seed=77)
        a = simulate(channels, cfg)
        b = simulate(channels, cfg)
        assert a.histogram == b.histogram
        assert a.mean_rate == b.mean_rate
        assert a.se_mandel == b.se_mandel
        assert np.array_equal(a.occupation, b.occupation)
        assert sum(a.histogram.values()) == n_traj
        assert a.occupation.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "initial_state, message",
    [
        (2, r"initial exciton 2 out of range \[0, 2\)"),
        (-1, r"initial exciton -1 out of range \[0, 2\)"),
        ("upper", r"'stationary' or an exciton index, got 'upper'"),
        (1.0, r"'stationary' or an exciton index, got 1\.0"),
        (1.5, r"'stationary' or an exciton index, got 1\.5"),
        (True, r"'stationary' or an exciton index, got True"),
    ],
    ids=["above", "below", "string", "float", "fraction", "bool"],
)
def test_initial_state_validated(initial_state, message):
    _, _, channels, _, _ = fmo_setup("fmo2", "down:a2->a1")
    cfg = TrajectoryConfig(t_max=1.0, n_trajectories=8, initial_state=initial_state)
    with pytest.raises(ValueError, match=message):
        simulate(channels, cfg)


def test_numpy_integer_initial_state_accepted():
    _, _, channels, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    runs = [
        simulate(
            channels,
            TrajectoryConfig(
                t_max=20.0 / activity, n_trajectories=64, seed=4, initial_state=start
            ),
        )
        for start in (1, np.int64(1))
    ]
    assert runs[0].histogram == runs[1].histogram
    assert np.array_equal(runs[0].occupation, runs[1].occupation)


def test_absorbing_state_reached_mid_trajectory():
    # from exciton 1 the counted downward jump leads into exciton 0, which
    # has no escape: K is 0 or 1, and exciton 1 is held for min(T, t_max)
    gamma_down, t_max, n_traj = 5.0, 0.2, 4000
    channels = (
        JumpChannel(0, 1, 100.0, 0.0, counted=False),
        JumpChannel(1, 0, -100.0, gamma_down, counted=True),
    )
    cfg = TrajectoryConfig(
        t_max=t_max, n_trajectories=n_traj, burn_in=0.0, seed=5, initial_state=1
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = simulate(channels, cfg)
    assert stats.warning is None
    assert set(stats.histogram) <= {0, 1}
    x = gamma_down * t_max
    p_jump = 1.0 - math.exp(-x)
    se_jump = math.sqrt(p_jump * (1.0 - p_jump) / n_traj)
    assert abs(stats.histogram.get(1, 0) / n_traj - p_jump) < 3.0 * se_jump
    # held time min(T, t_max) / t_max: mean and second moment are exact
    mean_held = p_jump / x
    second = 2.0 * (1.0 - math.exp(-x) * (1.0 + x)) / x**2
    se_held = math.sqrt((second - mean_held**2) / n_traj)
    assert abs(stats.occupation[1] - mean_held) < 3.0 * se_held
    assert stats.occupation.sum() == pytest.approx(1.0, abs=1e-12)


def test_seed_changes_the_sample():
    _, _, channels, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    a = simulate(channels, TrajectoryConfig(t_max=50.0 / activity, n_trajectories=200, seed=1))
    b = simulate(channels, TrajectoryConfig(t_max=50.0 / activity, n_trajectories=200, seed=2))
    assert a.histogram != b.histogram


def test_upward_and_downward_counts_balance():
    # same seed -> identical paths, so only the counting flags differ
    basis = diagonalize(preset("fmo3"))
    bath = BathSpec(35.0, 150.0, 300.0)
    all_channels = enumerate_channels(basis, bath)
    down = resolve_counted(all_channels, ["down:a3->a2"])
    up = resolve_counted(all_channels, ["up:a2->a3"])
    gen = tilted_generator(basis, bath, ["down:a3->a2"])
    activity = -theta_derivatives(gen, 0.0)[1]
    cfg = TrajectoryConfig(t_max=100.0 / activity, n_trajectories=4000, seed=13)
    st_down = simulate(down, cfg)
    st_up = simulate(up, cfg)
    se = math.hypot(st_down.se_mean, st_up.se_mean)
    assert abs(st_down.mean_rate - st_up.mean_rate) < 3.0 * se


def test_standard_error_scaling():
    _, _, channels, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    ratios = []
    for rep in range(10):
        small = simulate(
            channels, TrajectoryConfig(t_max=50.0 / activity, n_trajectories=400, seed=100 + rep)
        )
        big = simulate(
            channels, TrajectoryConfig(t_max=50.0 / activity, n_trajectories=800, seed=200 + rep)
        )
        ratios.append(small.se_mean / big.se_mean)
    assert 1.25 <= np.mean(ratios) <= 1.6


def test_burn_in_discards_early_relaxation():
    # start in the upper exciton: without burn-in the early downhill bias
    # inflates the counted rate; the default burn-in removes it
    basis, bath, channels, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    cfg = TrajectoryConfig(
        t_max=200.0 / activity, n_trajectories=4000, seed=3, initial_state=1
    )
    stats = simulate(channels, cfg)
    assert stats.window < cfg.t_max  # default burn-in was applied
    assert abs(stats.mean_rate - activity) < 4.0 * stats.se_mean


def test_empirical_rate_function_shape():
    _, _, channels, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    cfg = TrajectoryConfig(t_max=200.0 / activity, n_trajectories=10_000, seed=11)
    stats = simulate(channels, cfg)
    window = stats.window
    points = empirical_rate_function(stats, window)
    assert all(math.isfinite(p.phi) for p in points)
    phi = {int(round(p.k * window)): p.phi for p in points}
    mean_bin = int(round(stats.mean_rate * window))
    # the mode sits within O(ln t / t) of zero
    assert 0.0 <= phi[mean_bin] <= 2.0 * math.log(window) / window
    # unimodality: bucket the histogram at half a standard deviation and
    # demand monotone growth away from the most likely bucket
    sigma = math.sqrt(stats.variance_rate * window)
    width = max(2, int(round(sigma / 2.0)))
    total = sum(stats.histogram.values())
    buckets: dict[int, int] = {}
    for k_count, freq in stats.histogram.items():
        buckets[k_count // width] = buckets.get(k_count // width, 0) + freq
    bphi = {b: -math.log(c / total) / window for b, c in buckets.items()}
    keys = sorted(bphi)
    mode_b = min(bphi, key=bphi.get)
    left = [bphi[b] for b in keys if b <= mode_b]
    right = [bphi[b] for b in keys if b >= mode_b]
    assert len(left) >= 3 and len(right) >= 3
    assert all(x >= y for x, y in zip(left, left[1:]))
    assert all(y >= x for x, y in zip(right, right[1:]))


def test_empirical_rate_function_empty():
    stats = CountStatistics(
        mean_rate=0.0, se_mean=0.0, variance_rate=0.0, se_variance=0.0,
        mandel_estimate=None, se_mandel=None, histogram={},
        n_trajectories=0, window=1.0, occupation=np.zeros(2),
    )
    with pytest.raises(ValueError, match="histogram"):
        empirical_rate_function(stats, 1.0)


def random_rates(n, seed, absorbing=()):
    rng = np.random.default_rng(seed)
    rates = rng.exponential(size=(n, n))
    np.fill_diagonal(rates, 0.0)
    rates[:, list(absorbing)] = 0.0
    return rates


@pytest.mark.parametrize(
    "n, absorbing, length",
    [(2, (), 11), (3, (), 6), (17, (), 1), (20, (), 1), (3, (1,), 6), (4, (0, 3), 5)],
    ids=["n2", "n3", "n17", "n20", "n3-absorbing", "n4-two-absorbing"],
)
def test_path_table_holds_path_probabilities(n, absorbing, length):
    rates = random_rates(n, seed=n, absorbing=absorbing)
    esc = rates.sum(axis=0)
    cum = _destinations(rates, esc)
    # the row loop the table replaced, as the reference; the new table also
    # caps entries at 1.0, which may move one by an ulp
    ref = np.ones((n, n))
    for a in range(n):
        if esc[a] > 0:
            ref[a] = np.cumsum(rates[:, a]) / esc[a]
            ref[a, -1] = 1.0
    np.testing.assert_allclose(cum, ref, rtol=0.0, atol=2.0 * np.spacing(1.0))
    assert np.all(np.diff(cum, axis=1) >= 0.0)

    keys, got_length = _path_table(cum)
    assert got_length == length
    assert keys.size == n ** (length + 1) <= max(trajectories._PATH_ENTRIES, n * n)
    assert np.all(np.diff(keys) >= 0.0)
    rows = keys.reshape(n, -1)
    assert np.array_equal(rows[:, -1], np.arange(n) + 1.0)
    step = np.diff(cum, prepend=0.0, axis=1)
    # the keys of row a resolve only to ulp(a + 1) <= ulp(n)
    tol = max(1e-15, 2.0 * np.spacing(float(n)))
    for a in range(n):
        diffs = np.diff(rows[a], prepend=float(a))
        for p, path in enumerate(itertools.product(range(n), repeat=length)):
            prob, here = 1.0, a
            for b in path:
                prob *= step[here, b]
                here = b
            assert abs(diffs[p] - prob) <= tol, (a, path)


@pytest.mark.parametrize("n, absorbing", [(17, ()), (20, (3,))], ids=["n17", "n20-absorbing"])
def test_single_jump_lookup_matches_cumulative_search(n, absorbing):
    rates = random_rates(n, seed=100 + n, absorbing=absorbing)
    cum = _destinations(rates, rates.sum(axis=0))
    keys, length = _path_table(cum)
    assert length == 1
    rng = np.random.default_rng(7)
    a = rng.integers(0, n, 100_000)
    u = rng.random(100_000)
    expected = (cum[a] <= u[:, None]).sum(axis=1)
    assert np.array_equal(_lookup(keys, n, a, u), expected)


def test_lookup_stays_in_its_row_when_a_plus_u_rounds_up():
    rates = random_rates(3, seed=1)
    keys, length = _path_table(_destinations(rates, rates.sum(axis=0)))
    n_paths = 3**length
    a = np.array([1, 2])
    u = np.full(2, np.nextafter(1.0, 0.0))  # a + u rounds to a + 1
    assert np.all(a + u == a + 1.0)
    assert np.array_equal(_lookup(keys, n_paths, a, u), [n_paths - 1] * 2)


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


# (preset, temperature, counted channel, initial state, burn-in in units
# of t_max, seed); t_max = 200 / activity, so Lambda t is about 754 for
# fmo2 and 2000 for fmo3 (L = 6 there: paths span block boundaries)
EXACT_CASES = {
    "fmo2-300K": ("fmo2", 300.0, "down:a2->a1", "stationary", None, 31),
    "fmo3-300K": ("fmo3", 300.0, "down:a3->a2", "stationary", None, 32),
    "fmo3-300K-burn-in": ("fmo3", 300.0, "down:a3->a2", 2, 0.002, 33),
}


@pytest.mark.parametrize("block", [None, 1], ids=["default-block", "block-1"])
@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_histogram_matches_exact_counting_distribution(case, block, monkeypatch):
    name, temp, selector, start, burn_frac, seed = EXACT_CASES[case]
    if block is not None:
        monkeypatch.setattr(trajectories, "_BLOCK", block)
    basis, bath, channels, activity, _ = fmo_setup(name, selector, temp)
    t_max = 200.0 / activity
    burn_in = None if burn_frac is None else burn_frac * t_max
    n_traj = 4000
    stats = simulate(
        channels,
        TrajectoryConfig(
            t_max=t_max, n_trajectories=n_traj, burn_in=burn_in, seed=seed,
            initial_state=start,
        ),
    )
    n = basis.n_excitons
    rates = rate_matrix(channels, n)
    counted = rate_matrix([c for c in channels if c.counted], n) > 0
    if start == "stationary":
        p0 = _stationary(rates)
    else:
        # relax the fixed start through the burn-in before counting
        p0 = scipy.linalg.expm((rates - np.diag(rates.sum(axis=0))) * burn_in)[:, start]
        assert p0[start] > 0.05  # the burn-in leaves the start visible
    k_max = 2 * max(stats.histogram) + 10
    probs = counting_distribution(rates, counted, p0, stats.window, k_max)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert sum(stats.histogram.values()) == n_traj
    assert chi_square_p(stats.histogram, probs, n_traj) > 1e-3
