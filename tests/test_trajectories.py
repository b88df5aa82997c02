import math

import numpy as np
import pytest

from excount.bath import BathSpec
from excount.generator import (
    JumpChannel,
    enumerate_channels,
    resolve_counted,
    tilted_generator,
)
from excount.lds import theta_derivatives
from excount.model import SiteModel, diagonalize, preset
from excount.trajectories import (
    _CHUNK,
    CountStatistics,
    TrajectoryConfig,
    empirical_rate_function,
    simulate,
)


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
    with pytest.raises(ValueError):
        TrajectoryConfig(t_max=1.0, n_trajectories=0)
    with pytest.raises(ValueError):
        TrajectoryConfig(t_max=1.0, burn_in=2.0)


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
    ],
    ids=["above", "below", "string"],
)
def test_initial_state_validated(initial_state, message):
    _, _, channels, _, _ = fmo_setup("fmo2", "down:a2->a1")
    cfg = TrajectoryConfig(t_max=1.0, n_trajectories=8, initial_state=initial_state)
    with pytest.raises(ValueError, match=message):
        simulate(channels, cfg)


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
    with pytest.warns(UserWarning, match="expected counted jumps"):
        stats = simulate(channels, cfg)
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
