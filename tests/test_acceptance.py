"""Acceptance suite: one test per agreed criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -rA``).

Criterion 4a asserts a positive-s sign change of Q(s) for the three-site
model's strong channel.  That assertion is implemented exactly as agreed
and is expected to FAIL: for this model the steady state of that channel
is super-Poissonian (Q(0) > 0, confirmed independently by stochastic
trajectory sampling), so the sign change sits at negative s.  The
companion test directly below records the verified behaviour.
"""

import math

import numpy as np
from click.testing import CliRunner

from excount.bath import BathSpec
from excount.cli import main as cli_main
from excount.generator import (
    enumerate_channels,
    resolve_counted,
    tilted_generator,
    transport_rates,
)
from excount.lds import (
    default_s_grid,
    find_crossover,
    legendre_reconstruct,
    mandel,
    rate_function,
    scan,
    theta,
    theta_derivatives,
)
from excount.model import diagonalize, dominant_exciton, preset
from excount.trajectories import TrajectoryConfig, simulate
from reference import ClassicalTwoState, superoperator, top_eigenvalue

TEMPS = (77.0, 150.0, 300.0)
S_GRID = default_s_grid()  # 281 points on [-2, 12]

# Channel under study per preset: fmo2/fmo3 count the downward jump of the
# strongly interfering pair; for fmo4 it is the downward jump whose Q(0)
# changes sign with temperature (highest exciton into the second-lowest).
CHANNELS = {"fmo2": "down:a2->a1", "fmo3": "down:a3->a2", "fmo4": "down:a4->a2"}


def generator_for(name, temp, selector=None):
    basis = diagonalize(preset(name))
    bath = BathSpec(35.0, 150.0, temp)
    return tilted_generator(basis, bath, [selector or CHANNELS[name]])


def two_state_reference(temp):
    basis = diagonalize(preset("fmo2"))
    bath = BathSpec(35.0, 150.0, temp)
    return ClassicalTwoState.from_rates(transport_rates(basis, bath), basis, bath)


def report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def test_criterion_1_two_state_analytic_equivalence():
    worst = 0.0
    for temp in TEMPS:
        cts = two_state_reference(temp)
        gen = generator_for("fmo2", temp)
        bath = BathSpec(35.0, 150.0, temp)
        for s in S_GRID:
            err = abs(top_eigenvalue(superoperator(gen, bath, s)) - cts.theta(s))
            worst = max(worst, err)
    ok = worst < 1e-9
    assert report("1 two-state theta", ok, f"max |dtheta| = {worst:.3e} cm^-1 (< 1e-9)")


def test_criterion_2_closed_form_mandel():
    worst = 0.0
    all_negative = True
    for temp in TEMPS:
        cts = two_state_reference(temp)
        gen = generator_for("fmo2", temp)
        for s in S_GRID:
            q = mandel(gen, s)
            worst = max(worst, abs(q - cts.mandel(s)) / abs(cts.mandel(s)))
            all_negative = all_negative and q < 0.0
    ok = worst < 1e-6 and all_negative
    assert report(
        "2 Mandel closed form", ok,
        f"max rel err = {worst:.3e} (< 1e-6), strictly negative: {all_negative}",
    )


def test_criterion_3_steady_state_physics():
    worst_pop = worst_db = worst_flux = 0.0
    for name in ("fmo2", "fmo3", "fmo4"):
        basis = diagonalize(preset(name))
        for temp in TEMPS:
            bath = BathSpec(35.0, 150.0, temp)
            boltz = np.exp(-bath.beta * basis.energies)
            boltz /= boltz.sum()
            gen = generator_for(name, temp)
            n = basis.n_excitons
            evals, evecs = np.linalg.eig(superoperator(gen, bath, 0.0))
            sigma = evecs[:, np.argmin(np.abs(evals))].reshape(n, n, order="F")
            sigma /= np.trace(sigma)
            worst_pop = max(worst_pop, np.max(np.abs(np.diag(sigma).real - boltz)))
            rate = {(c.from_exciton, c.to_exciton): c.rate for c in gen.channels}
            for (a, b), r in rate.items():
                expected = rate[(b, a)] * math.exp(-bath.beta * basis.gap(a, b))
                worst_db = max(worst_db, abs(r - expected) / expected)
                flux_ab = boltz[a] * r
                flux_ba = boltz[b] * rate[(b, a)]
                worst_flux = max(worst_flux, abs(flux_ab - flux_ba) / flux_ba)
    ok = worst_pop < 1e-8 and worst_db < 1e-10 and worst_flux < 1e-10
    assert report(
        "3 steady state", ok,
        f"pops {worst_pop:.2e} (<1e-8), balance {worst_db:.2e}, flux {worst_flux:.2e} (<1e-10)",
    )


def _fmo3_strong_channel():
    basis = diagonalize(preset("fmo3"))
    hi = dominant_exciton(basis, 1)  # exciton carried by site 2
    lo = dominant_exciton(basis, 0)  # exciton carried by site 1
    return f"down:a{max(hi, lo) + 1}->a{min(hi, lo) + 1}"


def test_criterion_4a_three_site_positive_crossover():
    """Agreed boolean: Q(s) changes sign at some s* > 0 for T in {150, 300}
    with s*(300) < s*(150).  Measured physics says otherwise (see the
    companion test and the stochastic confirmation), so this stays red.
    """
    selector = _fmo3_strong_channel()
    stars = {}
    for temp in (150.0, 300.0):
        rep = find_crossover(generator_for("fmo3", temp, selector), S_GRID)
        stars[temp] = rep.s_star
    ok = (
        stars[150.0] is not None
        and stars[300.0] is not None
        and stars[150.0] > 0.0
        and stars[300.0] > 0.0
        and stars[300.0] < stars[150.0]
    )
    report("4a fmo3 positive-s crossover", ok, f"s* = {stars}")
    assert ok, (
        f"no positive-s sign change exists for {selector}: measured s* = "
        f"{stars}; Q(0) is positive at both temperatures (trajectory-"
        "confirmed), so the crossover lies at negative s"
    )


def test_criterion_4a_companion_verified_crossover_behaviour():
    """What the three-site model actually does, cross-validated: a sign
    change of Q exists at each temperature and moves toward s = 0 as the
    temperature rises; the steady state itself is super-Poissonian."""
    selector = _fmo3_strong_channel()
    stars = {}
    for temp in (150.0, 300.0):
        gen = generator_for("fmo3", temp, selector)
        rep = find_crossover(gen, S_GRID)
        assert rep.s_star is not None
        assert mandel(gen, rep.s_star - 1e-3) * mandel(gen, rep.s_star + 1e-3) < 0
        assert rep.q_at_zero > 0.0
        stars[temp] = rep.s_star
    assert abs(stars[300.0]) < abs(stars[150.0])
    # independent stochastic confirmation of the steady-state sign at 300 K
    basis = diagonalize(preset("fmo3"))
    bath = BathSpec(35.0, 150.0, 300.0)
    channels = resolve_counted(enumerate_channels(basis, bath), [selector])
    gen = tilted_generator(basis, bath, [selector])
    activity = -theta_derivatives(gen, 0.0)[1]
    stats = simulate(
        channels, TrajectoryConfig(t_max=200.0 / activity, n_trajectories=4000, seed=1)
    )
    assert stats.mandel_estimate - 3.0 * stats.se_mandel > 0.0
    report(
        "4a* verified crossover", True,
        f"s* = {stars} (sign change toward 0 with rising T), "
        f"trajectory Q(0) = {stats.mandel_estimate:.2f} > 0",
    )


def test_criterion_4b_two_site_has_no_crossover():
    rep = find_crossover(generator_for("fmo2", 300.0), S_GRID)
    rep77 = find_crossover(generator_for("fmo2", 77.0), S_GRID)
    ok = rep.s_star is None and rep77.s_star is None
    assert report("4b fmo2 no crossover", ok, f"s* = {rep.s_star}, {rep77.s_star}")


def test_criterion_4c_four_site_bunching_at_low_temperature():
    q = mandel(generator_for("fmo4", 77.0), 0.0)
    assert report("4c fmo4 Q(0) at 77 K", q > 0.0, f"Q(0) = {q:+.4f} (> 0)")


def test_criterion_4d_four_site_antibunching_at_high_temperature():
    q = mandel(generator_for("fmo4", 300.0), 0.0)
    assert report("4d fmo4 Q(0) at 300 K", q < 0.0, f"Q(0) = {q:+.4f} (< 0)")


def test_criterion_5_poisson_limit():
    worst = 0.0
    for name in ("fmo2", "fmo3", "fmo4"):
        for temp in TEMPS:
            worst = max(worst, abs(mandel(generator_for(name, temp), 12.0)))
    ok = worst < 0.05
    assert report("5 Poisson limit", ok, f"max |Q(12)| = {worst:.2e} (< 0.05)")


def test_criterion_6_trajectory_oracle_agreement():
    # temperatures chosen so the K ~ 200 window spans many mixing times of
    # the population chain (the asymptotic estimators need that)
    cases = {"fmo2": 300.0, "fmo3": 77.0}
    details = []
    ok = True
    for name, temp in cases.items():
        basis = diagonalize(preset(name))
        bath = BathSpec(35.0, 150.0, temp)
        selector = CHANNELS[name]
        channels = resolve_counted(enumerate_channels(basis, bath), [selector])
        gen = tilted_generator(basis, bath, [selector])
        _, d1, d2 = theta_derivatives(gen, 0.0)
        activity, q = -d1, -d2 / d1 - 1.0
        rate_pass = q_pass = 0
        for seed in range(5):
            stats = simulate(
                channels,
                TrajectoryConfig(
                    t_max=200.0 / activity, n_trajectories=10_000, seed=seed
                ),
            )
            if abs(stats.mean_rate - activity) < 3.0 * stats.se_mean:
                rate_pass += 1
            if abs(stats.mandel_estimate - q) < 3.0 * stats.se_mandel:
                q_pass += 1
        details.append(f"{name}@{temp:g}K rate {rate_pass}/5, Q {q_pass}/5")
        ok = ok and rate_pass >= 4 and q_pass >= 4
    assert report("6 trajectory oracle", ok, "; ".join(details))


def test_criterion_7_numerical_hygiene():
    theta0_worst = grad_worst = 0.0
    convex_worst = np.inf
    legendre_worst = 0.0
    h = 1e-4
    for name in ("fmo2", "fmo3", "fmo4"):
        gen = generator_for(name, 300.0)
        theta0_worst = max(theta0_worst, abs(theta(gen, 0.0)))
        for s in (-1.0, 0.0, 2.0):
            _, d1, _ = theta_derivatives(gen, s)
            fd = (
                theta_derivatives(gen, s + h)[0] - theta_derivatives(gen, s - h)[0]
            ) / (2.0 * h)
            grad_worst = max(grad_worst, abs(d1 - fd) / abs(d1))
        result = scan(gen, S_GRID)
        th = result.theta
        convex_worst = min(convex_worst, (th[2:] - 2 * th[1:-1] + th[:-2]).min())
        rebuilt = legendre_reconstruct(rate_function(result), S_GRID[1:-1])
        legendre_worst = max(
            legendre_worst,
            np.max(np.abs(rebuilt - th[1:-1])) / np.max(np.abs(th)),
        )
    ok = (
        theta0_worst < 1e-10
        and grad_worst < 1e-7
        and convex_worst >= -1e-9
        and legendre_worst < 1e-6
    )
    assert report(
        "7 numerical hygiene", ok,
        f"theta(0) {theta0_worst:.1e} (<1e-10), grad {grad_worst:.1e} (<1e-7), "
        f"2nd-diff min {convex_worst:+.1e} (>=-1e-9), legendre {legendre_worst:.1e} (<1e-6)",
    )


def test_criterion_8_byte_identical_outputs(tmp_path):
    runner = CliRunner()
    args_scan = [
        "theta-scan", "--preset", "fmo3", "--temps", "150,300",
        "--channel", "down:a3->a2", "--format", "csv,svg", "--s-points", "61",
    ]
    args_cross = [
        "crossover-map", "--preset", "fmo3", "--temps", "150,300",
        "--channel", "down:a3->a2", "--s-points", "61",
    ]
    args_oracle = [
        "oracle-check", "--preset", "fmo2", "--temps", "300",
        "--channel", "down:a2->a1", "--traj", "500", "--seed", "11",
    ]
    identical = True
    for run in ("one", "two"):
        for args in (args_scan, args_cross, args_oracle):
            res = runner.invoke(
                cli_main, args + ["--out", str(tmp_path / run)], catch_exceptions=False
            )
            assert res.exit_code == 0
    files_one = sorted((tmp_path / "one").iterdir())
    files_two = sorted((tmp_path / "two").iterdir())
    assert [p.name for p in files_one] == [p.name for p in files_two]
    for a, b in zip(files_one, files_two):
        identical = identical and a.read_bytes() == b.read_bytes()
    assert report(
        "8 reproducibility", identical,
        f"{len(files_one)} files byte-identical across reruns",
    )
