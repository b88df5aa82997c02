import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import chi2, poisson

from excount import lds, trajectories
from excount.bath import BathSpec
from excount.generator import TiltedGenerator, tilted_generator
from excount.lds import SpectralError, theta_derivatives
from excount.model import SiteModel, diagonalize, preset
from excount.trajectories import (
    _CHUNK,
    TrajectoryConfig,
    _destinations,
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
    with pytest.raises(ValueError):
        TrajectoryConfig(t_max=1.0, burn_in=2.0)
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


def test_zero_rates_stationary_start():
    gen = zero_rate_generator()
    with pytest.warns(UserWarning, match="expected counted jumps"):
        stats = simulate(gen, TrajectoryConfig(t_max=5.0, n_trajectories=64, seed=1))
    assert stats.mean_rate == 0.0
    assert stats.histogram == {0: 64}
    assert stats.mandel_estimate is None
    assert stats.warning is not None


def test_zero_rates_fixed_start_rejected():
    gen = zero_rate_generator()
    with pytest.raises(ValueError, match="stationary"):
        simulate(gen, TrajectoryConfig(t_max=5.0, n_trajectories=8, initial_state=0))


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
                TrajectoryConfig(t_max=5.0, n_trajectories=8, burn_in=0.0),
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
    # sites at 0, 150 and 400 cm^-1 with only J12 = 60 cm^-1: the exciton on
    # site 3 has no rate in or out
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 60.0
    basis = diagonalize(SiteModel(energies=[0.0, 150.0, 400.0], couplings=j))
    gen = tilted_generator(basis, BathSpec(35.0, 150.0, 300.0), ["down:a2->a1"])
    np.testing.assert_allclose(lds.stationary(gen), [0.7153, 0.2847, 0.0], rtol=0.0, atol=1e-4)
    activity = -theta_derivatives(gen, 0.0)[1]
    assert activity == pytest.approx(6.267, abs=1e-3)
    cfg = TrajectoryConfig(t_max=200.0 / activity, n_trajectories=4000, seed=3)
    stats = simulate(gen, cfg)
    assert abs(stats.mean_rate - activity) < 3.0 * stats.se_mean
    assert stats.occupation[2] == 0.0


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
    _, _, gen, _, _ = fmo_setup("fmo2", "down:a2->a1")
    cfg = TrajectoryConfig(t_max=1.0, n_trajectories=8, initial_state=initial_state)
    with pytest.raises(ValueError, match=message):
        simulate(gen, cfg)


def test_numpy_integer_initial_state_accepted():
    _, _, gen, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    runs = [
        simulate(
            gen,
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
    gen = TiltedGenerator([[0.0, gamma_down], [0.0, 0.0]], [[False, True], [False, False]])
    cfg = TrajectoryConfig(
        t_max=t_max, n_trajectories=n_traj, burn_in=0.0, seed=5, initial_state=1
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = simulate(gen, cfg)
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


def test_burn_in_discards_early_relaxation():
    # start in the upper exciton: without burn-in the early downhill bias
    # inflates the counted rate; the default burn-in removes it
    basis, bath, gen, activity, _ = fmo_setup("fmo2", "down:a2->a1")
    cfg = TrajectoryConfig(
        t_max=200.0 / activity, n_trajectories=4000, seed=3, initial_state=1
    )
    stats = simulate(gen, cfg)
    assert stats.window < cfg.t_max  # default burn-in was applied
    assert abs(stats.mean_rate - activity) < 4.0 * stats.se_mean


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
    basis, bath, gen, activity, _ = fmo_setup(name, selector, temp)
    t_max = 200.0 / activity
    burn_in = None if burn_frac is None else burn_frac * t_max
    n_traj = 4000
    stats = simulate(
        gen,
        TrajectoryConfig(
            t_max=t_max, n_trajectories=n_traj, burn_in=burn_in, seed=seed,
            initial_state=start,
        ),
    )
    rates, counted = gen.rates, gen.counted
    if start == "stationary":
        p0 = stationary_eig(rates)
    else:
        # relax the fixed start through the burn-in before counting
        p0 = scipy.linalg.expm((rates - np.diag(rates.sum(axis=0))) * burn_in)[:, start]
        assert p0[start] > 0.05  # the burn-in leaves the start visible
    k_max = 2 * max(stats.histogram) + 10
    probs = counting_distribution(rates, counted, p0, stats.window, k_max)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert sum(stats.histogram.values()) == n_traj
    assert chi_square_p(stats.histogram, probs, n_traj) > 1e-3
