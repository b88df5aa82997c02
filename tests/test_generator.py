import math

import numpy as np
import pytest

from excount import bath as bath_module
from excount import lds
from excount.bath import BathSpec, gamma
from excount import generator
from excount.generator import (
    DegenerateGapError,
    SelectorError,
    TiltedGenerator,
    resolve_counted,
    tilted_generator,
    transport_rates,
)
from excount.model import SiteModel, diagonalize, preset
from reference import (
    ClassicalTwoState,
    classical_two_state,
    homogeneous_chain,
    kron_reference,
    lindblad_direct,
    population_entries,
    random_basis,
    scalar_rates,
    superoperator,
    top_eigenvalue,
)

TEMPS = (77.0, 150.0, 300.0)


def make(name, temp=300.0):
    basis = diagonalize(preset(name))
    bath = BathSpec(35.0, 150.0, temp)
    return basis, bath


def boltzmann(basis, bath):
    w = np.exp(-bath.beta * basis.energies)
    return w / w.sum()


def counted_pairs(counted):
    """The (from, to) pairs flagged by a counted mask counted[to, from]."""
    return {(int(a), int(b)) for a, b in np.argwhere(counted.T)}


def test_fmo2_channel_enumeration():
    basis, bath = make("fmo2")
    rates, gaps = transport_rates(basis, bath), basis.gaps
    assert rates.shape == (2, 2)
    ((down_from, down_to),) = np.argwhere(gaps < 0)
    ((up_from, up_to),) = np.argwhere(gaps > 0)
    down, up = rates[down_to, down_from], rates[up_to, up_from]
    gap = basis.gaps[0, 1]
    assert gaps[down_from, down_to] == pytest.approx(-gap, rel=1e-12)
    assert down == pytest.approx(
        gamma(bath, -gap) * basis.intensity_factors[0, 1], rel=1e-12
    )
    assert up == pytest.approx(down * math.exp(-bath.beta * gap), rel=1e-10)


def test_uncoupled_model_has_zero_transport_rates():
    basis = diagonalize(SiteModel(energies=[0.0, 150.0, 340.0], couplings=np.zeros((3, 3))))
    bath = BathSpec(35.0, 150.0, 300.0)
    assert not transport_rates(basis, bath).any()


def test_fmo3_channel_count_and_strongest_pair():
    basis, bath = make("fmo3")
    assert transport_rates(basis, bath).shape == (3, 3)
    # brute-force the largest intensity factor over all pairs
    best = max(
        ((a, b) for a in range(3) for b in range(3) if a != b),
        key=lambda p: basis.intensity_factors[p],
    )
    assert set(best) == {1, 2}  # the excitons split by the site-1/2 dimer


def test_degenerate_gap_error_names_pairs():
    # degenerate exciton energies put a transport gap at zero; the error
    # names the first colliding pair (a, b) in row-major order
    bath = BathSpec(35.0, 150.0, 300.0)
    for energies, pair in (
        ([0.0, 0.0, 200.0], "a1<->a2"),
        ([0.0, 100.0, 100.0, 100.0], "a2<->a3"),
        ([0.0, 0.0, 300.0, 300.0], "a1<->a2"),
    ):
        n = len(energies)
        basis = diagonalize(SiteModel(energies=energies, couplings=np.zeros((n, n))))
        message = rf"transition {pair} has zero frequency"
        with pytest.raises(DegenerateGapError, match=message):
            transport_rates(basis, bath)
        with pytest.raises(DegenerateGapError, match=message):
            tilted_generator(basis, bath, ["all-down"])


def assert_rates_match_scalar_reference(basis, bath):
    rates = transport_rates(basis, bath)
    expected = scalar_rates(basis, bath)
    # np.exp may round one ulp away from math.exp, so allow a few ulp
    assert np.all(np.abs(rates - expected) <= 4 * np.finfo(float).eps * np.abs(expected))
    gen = tilted_generator(basis, bath, ["all-down"])
    assert np.array_equal(gen.rates, rates)


@pytest.mark.parametrize("seed", range(12))
def test_array_rates_match_scalar_reference(seed):
    basis, _ = random_basis(200 + seed, 2, 31)
    rng = np.random.default_rng(seed)
    for temp in (4.0, float(10.0 ** rng.uniform(math.log10(4.0), 4.0)), 1e4):
        assert_rates_match_scalar_reference(basis, BathSpec(35.0, 150.0, temp))


@pytest.mark.parametrize("model", ["chain", "uncoupled"])
def test_array_rates_match_scalar_reference_special_models(model):
    if model == "chain":
        basis = homogeneous_chain(7)
    else:
        energies = [0.0, 150.0, 340.0, 500.0]
        basis = diagonalize(SiteModel(energies=energies, couplings=np.zeros((4, 4))))
    for temp in (4.0, 300.0, 1e4):
        assert_rates_match_scalar_reference(basis, BathSpec(35.0, 150.0, temp))
    if model == "uncoupled":
        assert not transport_rates(basis, BathSpec(35.0, 150.0, 300.0)).any()


@pytest.mark.parametrize("seed", range(6))
def test_counted_mask_matches_selector_pairs(seed):
    basis, bath = random_basis(300 + seed, 2, 9)
    n = basis.n_excitons
    hi, lo = sorted(np.random.default_rng(seed).choice(n, 2, replace=False), reverse=True)
    hi, lo = int(hi), int(lo)
    downward = {(a, b) for a in range(n) for b in range(n) if basis.gaps[a, b] < 0}
    cases = [
        ([f"down:a{hi + 1}->a{lo + 1}"], {(hi, lo)}),
        ([f"up:a{lo + 1}->a{hi + 1}"], {(lo, hi)}),
        ([f"pair:a{lo + 1}<->a{hi + 1}"], {(lo, hi), (hi, lo)}),
        (["all-down"], downward),
        ([f"up:a{lo + 1}->a{hi + 1}"], {(lo, hi)}),
        ([f"down:a{hi + 1}->a{lo + 1}", f"up:a{lo + 1}->a{hi + 1}"], {(hi, lo), (lo, hi)}),
    ]
    for selectors, pairs in cases:
        gen = tilted_generator(basis, bath, selectors)
        assert counted_pairs(gen.counted) == pairs
        assert counted_pairs(resolve_counted(n, selectors)) == pairs


def test_generator_does_not_depend_on_rate_layout():
    # escape rates are column sums, whose rounding follows the memory order
    basis, bath = random_basis(11, 20, 21)
    rates = transport_rates(basis, bath)
    counted = np.triu(np.ones_like(rates, dtype=bool), 1)
    plain = TiltedGenerator(np.ascontiguousarray(rates), counted)
    fortran = TiltedGenerator(np.asfortranarray(rates), counted)
    for s in (-1.0, 0.0, 2.0):
        assert np.array_equal(plain.population_block(s), fortran.population_block(s))


def test_generator_build_calls_gamma_at_most_once(monkeypatch):
    calls = []

    def counting_gamma(bath, omega):
        calls.append(np.shape(omega))
        return gamma(bath, omega)

    monkeypatch.setattr(generator, "gamma", counting_gamma)
    monkeypatch.setattr(bath_module, "gamma", counting_gamma)
    basis, bath = random_basis(7, 20, 21)
    tilted_generator(basis, bath, ["all-down"])
    assert len(calls) <= 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_colliding_gaps_scan_with_zero_theta():
    # a1<->a2 and a2<->a3 share the frequency 100 cm^-1; every rate vanishes
    basis = diagonalize(SiteModel(energies=[0.0, 100.0, 200.0], couplings=np.zeros((3, 3))))
    gen = tilted_generator(basis, BathSpec(35.0, 150.0, 300.0), ["all-down"])
    result = lds.scan(gen, np.linspace(-2.0, 12.0, 15))
    assert np.all(result.theta == 0.0) and np.all(result.activity == 0.0)
    assert np.all(np.isnan(result.mandel))


def grouped_tilted_lindblad(basis, bath, s):
    """Tilted secular Lindblad superoperator with the jump operators grouped
    by Bohr frequency (Breuer & Petruccione, sec. 3.3), counting every
    downward group.  Site m contributes A_m(w) = sum over pairs (a, b) with
    E_b - E_a = w of sqrt(gamma(E_b - E_a)) c_m(a) c_m(b) |b><a|; gamma is
    taken at each pair's own gap, so grouping adds no rounding."""
    n = basis.n_excitons
    groups = {}
    for a in range(n):
        for b in range(n):
            w = basis.gaps[a, b]
            key = next((k for k in groups if abs(k - w) < 1e-6), w)
            groups.setdefault(key, []).append((a, b))
    eye = np.eye(n)
    ham = np.diag(basis.energies)
    out = -1j * (np.kron(eye, ham) - np.kron(ham, eye))
    for w, pairs in groups.items():
        tilt = math.exp(-s) if w < 0 else 1.0
        for m in range(basis.n_sites):
            op = np.zeros((n, n))
            for a, b in pairs:
                op[b, a] = (
                    math.sqrt(gamma(bath, basis.gaps[a, b]))
                    * basis.amplitudes[m, a]
                    * basis.amplitudes[m, b]
                )
            op_dag_op = op.T @ op
            out += tilt * np.kron(op, op) - 0.5 * (
                np.kron(eye, op_dag_op) + np.kron(op_dag_op.T, eye)
            )
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_homogeneous_chain_matches_grouped_lindblad(n):
    basis = homogeneous_chain(n)
    gaps = sorted(abs(basis.gaps[a, b]) for a in range(n) for b in range(a + 1, n))
    assert min(np.diff(gaps)) < 1e-9  # the chain does have colliding gaps
    bath = BathSpec(35.0, 150.0, 300.0)
    gen = tilted_generator(basis, bath, ["all-down"])
    rate_scale = np.max(np.abs(np.diag(gen.population_block(0.0))))
    result = lds.scan(gen, lds.default_s_grid())
    for s, th in zip(result.s, result.theta):
        expected = top_eigenvalue(grouped_tilted_lindblad(basis, bath, s))
        assert abs(th - expected) <= 1e-9 * rate_scale


def test_detailed_balance_of_rates_all_presets():
    for name in ("fmo2", "fmo3", "fmo4"):
        for temp in TEMPS:
            basis, bath = make(name, temp)
            rates = transport_rates(basis, bath)
            pairs = np.argwhere(~np.eye(basis.n_excitons, dtype=bool))
            rate = {(int(a), int(b)): rates[b, a] for a, b in pairs}
            for (a, b), r in rate.items():
                expected = rate[(b, a)] * math.exp(-bath.beta * basis.gaps[a, b])
                assert r == pytest.approx(expected, rel=1e-10)


def test_untilted_matches_independent_construction():
    for name in ("fmo2", "fmo3", "fmo4"):
        basis, bath = make(name)
        gen = tilted_generator(basis, bath, ["down:a2->a1"])
        direct = lindblad_direct(basis, bath)
        scale = np.max(np.abs(direct))
        np.testing.assert_allclose(
            superoperator(gen, basis, bath, 0.0), direct, atol=1e-12 * scale
        )
        np.testing.assert_allclose(
            gen.population_block(0.0), population_entries(direct), atol=1e-12 * scale
        )


def test_trace_preservation_at_s_zero():
    for name in ("fmo2", "fmo3", "fmo4"):
        basis, bath = make(name)
        gen = tilted_generator(basis, bath, ["all-down"])
        w0 = superoperator(gen, basis, bath, 0.0)
        n = basis.n_excitons
        trace_vec = np.zeros(n * n)
        trace_vec[:: n + 1] = 1.0
        assert np.max(np.abs(trace_vec @ w0)) < 1e-10
        assert np.max(np.abs(gen.population_block(0.0).sum(axis=0))) < 1e-10


def test_counting_factor_touches_only_counted_sandwiches():
    basis, bath = make("fmo3")
    gen = tilted_generator(basis, bath, ["down:a3->a2"])
    diff = gen.population_block(1.0) - gen.population_block(0.0)
    # only the population a3 -> population a2 entry moves
    expected = np.zeros((3, 3))
    (rate,) = gen.rates[gen.counted]
    expected[1, 2] = rate * (math.exp(-1.0) - 1.0)
    np.testing.assert_allclose(diff, expected, atol=1e-12 * rate)
    full_diff = superoperator(gen, basis, bath, 1.0) - superoperator(gen, basis, bath, 0.0)
    np.testing.assert_allclose(population_entries(full_diff), expected, atol=1e-12 * rate)
    full_diff[np.ix_([0, 4, 8], [0, 4, 8])] = 0.0
    assert np.max(np.abs(full_diff)) <= 1e-12 * rate


def test_stationary_state_is_boltzmann():
    for name in ("fmo2", "fmo3", "fmo4"):
        for temp in TEMPS:
            basis, bath = make(name, temp)
            n = basis.n_excitons
            gen = tilted_generator(basis, bath, ["down:a2->a1"])
            w0 = superoperator(gen, basis, bath, 0.0)
            evals, evecs = np.linalg.eig(w0)
            sigma = evecs[:, np.argmin(np.abs(evals))].reshape(n, n, order="F")
            sigma = sigma / np.trace(sigma)
            np.testing.assert_allclose(
                np.diag(sigma).real, boltzmann(basis, bath), atol=1e-8
            )
            off = sigma - np.diag(np.diag(sigma))
            assert np.max(np.abs(off)) < 1e-10


def test_stationary_flux_balance_fmo2():
    basis, bath = make("fmo2")
    pops = boltzmann(basis, bath)
    rates = transport_rates(basis, bath)
    down_flux = rates[0, 1] * pops[1]
    up_flux = rates[1, 0] * pops[0]
    assert down_flux == pytest.approx(up_flux, rel=1e-10)


def test_population_block_is_stochastic_generator():
    basis, bath = make("fmo3")
    block = tilted_generator(basis, bath, ["down:a3->a2"]).population_block(0.0)
    np.testing.assert_allclose(block.sum(axis=0), 0.0, atol=1e-12)
    assert np.all(block[~np.eye(3, dtype=bool)] >= 0.0)


def test_population_block_matches_two_state_matrix():
    basis, bath = make("fmo2")
    cts = ClassicalTwoState.from_rates(transport_rates(basis, bath), basis, bath)
    gen = tilted_generator(basis, bath, ["down:a2->a1"])
    for s in (-1.0, 0.0, 0.7, 4.0):
        block = gen.population_block(s)
        np.testing.assert_allclose(
            block, classical_two_state(cts.kappa, cts.Gamma, s), rtol=1e-12
        )
    evals = np.sort(np.linalg.eigvals(gen.population_block(0.0)).real)
    np.testing.assert_allclose(evals, [-(cts.kappa + cts.Gamma), 0.0], atol=1e-10)


def test_population_block_top_eigenvalue_matches_full():
    for name in ("fmo2", "fmo3", "fmo4"):
        basis, bath = make(name)
        gen = tilted_generator(basis, bath, ["down:a2->a1"])
        for s in np.linspace(-2.0, 10.0, 13):
            top_block = top_eigenvalue(gen.population_block(s))
            top_full = top_eigenvalue(superoperator(gen, basis, bath, s))
            assert top_block == pytest.approx(top_full, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_population_block_consistency_random_models(seed):
    # secular decoupling holds for any nondegenerate model, not just presets
    basis, bath = random_basis(seed)
    gen = tilted_generator(basis, bath, ["down:a2->a1"])
    for s in (-1.5, 0.0, 2.5, 8.0):
        top_block = top_eigenvalue(gen.population_block(s))
        top_full = top_eigenvalue(superoperator(gen, basis, bath, s))
        assert top_block == pytest.approx(top_full, abs=1e-9)


@pytest.mark.parametrize("selector", ["down", "up", "pair", "all-down"])
@pytest.mark.parametrize("seed", range(6))
def test_direct_build_matches_kron_reference(seed, selector):
    basis, bath = random_basis(100 + seed, 2, 7)
    n = basis.n_excitons
    chosen = {
        "down": f"down:a{n}->a1",
        "up": f"up:a1->a{n}",
        "pair": f"pair:a1<->a{n}",
        "all-down": "all-down",
    }[selector]
    gen = tilted_generator(basis, bath, [chosen])
    static, counted = kron_reference(gen, basis, bath)
    for s in (-1.5, 0.0, 2.5, 8.0):
        expected = population_entries(static + math.exp(-s) * counted)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(
            gen.population_block(s), expected, rtol=0, atol=1e-12 * scale
        )
        np.testing.assert_allclose(
            gen.population_block_derivative(s),
            population_entries(-math.exp(-s) * counted),
            rtol=0, atol=1e-12 * scale,
        )
    direct = population_entries(lindblad_direct(basis, bath))
    np.testing.assert_allclose(
        gen.population_block(0.0), direct, rtol=0,
        atol=1e-12 * np.max(np.abs(direct)),
    )


def test_population_scan_never_assembles_superoperator():
    # a 60-site chain: the N^2 x N^2 superoperator would hold 13M entries
    rng = np.random.default_rng(60)
    n = 60
    j = np.diag(rng.normal(scale=60.0, size=n - 1), 1)
    basis = diagonalize(
        SiteModel(energies=rng.uniform(0.0, 800.0, size=n), couplings=j + j.T)
    )
    gen = tilted_generator(basis, BathSpec(35.0, 150.0, 300.0), ["all-down"])
    stored = [v for v in vars(gen).values() if isinstance(v, np.ndarray)]
    assert stored and max(v.size for v in stored) <= n * n
    result = lds.scan(gen, np.linspace(-2.0, 8.0, 21))
    rate_scale = result.activity.max()
    assert rate_scale > 0
    (at_zero,) = result.theta[result.s == 0.0]
    assert abs(at_zero) <= 1e-9 * rate_scale


def test_large_s_limit_deletes_counted_sandwiches():
    basis, bath = make("fmo3")
    gen = tilted_generator(basis, bath, ["all-down"])
    rates = gen.rates
    limit = rates - np.diag(rates.sum(axis=0)) - np.where(gen.counted, rates, 0.0)
    expected = np.max(np.linalg.eigvals(limit).real)
    top40 = top_eigenvalue(superoperator(gen, basis, bath, 40.0))
    assert top40 == pytest.approx(expected, abs=1e-8)


def test_selector_forms():
    n = diagonalize(preset("fmo3")).n_excitons
    assert counted_pairs(resolve_counted(n, ["down:a3->a2"])) == {(2, 1)}
    assert counted_pairs(resolve_counted(n, ["up:a1->a3"])) == {(0, 2)}
    assert counted_pairs(resolve_counted(n, ["pair:a1<->a2"])) == {(0, 1), (1, 0)}
    assert counted_pairs(resolve_counted(n, ["all-down"])) == {(1, 0), (2, 0), (2, 1)}
    # selectors are strings only: an index tuple is refused, not resolved
    with pytest.raises(SelectorError, match=r"\(2, 0\) is not a string"):
        resolve_counted(n, [(2, 0)])
    # ... and a bare string is not a list of them
    with pytest.raises(SelectorError, match="list of selector strings, got the string 'all-down'"):
        resolve_counted(n, "all-down")
    with pytest.raises(SelectorError, match="expected a list of selector strings"):
        tilted_generator(*make("fmo3"), "all-down")


@pytest.mark.parametrize(
    "selector",
    [
        "down:a1->a2",          # not downward
        "up:a3->a1",            # not upward
        "pair:a2<->a2",         # single exciton
        "down:a9->a1",          # out of range
        "sideways:a1->a2",      # unknown form
        (0, 0),                 # not a string
    ],
)
def test_selector_rejections(selector):
    basis, _ = make("fmo3")
    with pytest.raises(SelectorError):
        resolve_counted(basis.n_excitons, [selector])


def test_empty_counted_set_rejected():
    basis, bath = make("fmo2")
    with pytest.raises(SelectorError, match="empty"):
        resolve_counted(basis.n_excitons, [])
    with pytest.raises(SelectorError):
        TiltedGenerator(transport_rates(basis, bath), np.zeros((2, 2), bool))


def test_stacked_generator_checks_every_task():
    basis, bath = make("fmo2")
    rates = transport_rates(basis, bath)
    counted = np.array([[False, True], [False, False]])
    gen = TiltedGenerator([rates, 2.0 * rates], [counted, counted.T])
    assert gen.batch_shape == (2,) and gen.n_excitons == 2
    s = np.linspace(-1.0, 1.0, 5)
    blocks = gen.population_block(s[:, None])
    for i, task in enumerate(gen.tasks()):
        assert task.batch_shape == ()
        assert np.array_equal(blocks[:, i], task.population_block(s))
    self_jump = rates.copy()
    self_jump[1, 1] = 0.5
    with pytest.raises(ValueError, match="self-jump"):
        TiltedGenerator([rates, self_jump], [counted, counted])
    with pytest.raises(SelectorError, match="empty"):
        TiltedGenerator([rates, rates], [counted, np.zeros((2, 2), bool)])
    with pytest.raises(ValueError, match=r"\(\.\.\., N, N\)"):
        TiltedGenerator([rates, rates], counted)


def test_counting_direction_is_irrelevant_for_theta():
    # reversibility makes the tilted spectra of the two directions coincide
    basis, bath = make("fmo3")
    gen_down = tilted_generator(basis, bath, ["down:a3->a2"])
    gen_up = tilted_generator(basis, bath, ["up:a2->a3"])
    for s in (-1.5, 0.7, 3.0):
        a = np.max(np.linalg.eigvals(gen_down.population_block(s)).real)
        b = np.max(np.linalg.eigvals(gen_up.population_block(s)).real)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_classical_two_state_matrix():
    mat = classical_two_state(2.0, 5.0, 0.0)
    np.testing.assert_allclose(mat, [[-2.0, 5.0], [2.0, -5.0]])
    np.testing.assert_allclose(mat.sum(axis=0), 0.0, atol=1e-15)
    mat_s = classical_two_state(2.0, 5.0, 1.5)
    assert mat_s[0, 1] == pytest.approx(5.0 * math.exp(-1.5), rel=1e-15)
    with pytest.raises(ValueError):
        classical_two_state(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        classical_two_state(1.0, -1.0, 0.0)


def test_classical_equal_rates_closed_form():
    kappa = 3.7
    cts = ClassicalTwoState(kappa=kappa, Gamma=kappa)
    for s in (-1.0, 0.0, 1.0, 4.0):
        evals = np.linalg.eigvals(cts.matrix(s))
        assert np.max(evals.real) == pytest.approx(
            kappa * (math.exp(-s / 2.0) - 1.0), rel=1e-12, abs=1e-12
        )
        assert cts.theta(s) == pytest.approx(kappa * (math.exp(-s / 2.0) - 1.0), rel=1e-12)


def test_classical_mandel_matches_numerical_derivatives():
    # independent check of the printed Q(s) expression: differentiate the
    # numerically diagonalized theta(s) by central differences
    cts = ClassicalTwoState(kappa=2.3, Gamma=6.1)

    def theta_num(s):
        return float(np.max(np.linalg.eigvals(cts.matrix(s)).real))

    h = 1e-4
    for s in (-0.8, 0.0, 1.2, 3.0):
        d1 = (theta_num(s + h) - theta_num(s - h)) / (2 * h)
        d2 = (theta_num(s + h) - 2 * theta_num(s) + theta_num(s - h)) / h**2
        assert cts.mandel(s) == pytest.approx(-d2 / d1 - 1.0, rel=1e-4)
    assert cts.mandel(0.0) == pytest.approx(
        -2 * 2.3 * 6.1 / (2.3 + 6.1) ** 2, rel=1e-12
    )


def test_classical_from_channels_detailed_balance_guard():
    basis, bath = make("fmo2")
    cts = ClassicalTwoState.from_rates(transport_rates(basis, bath), basis, bath)
    assert cts.Gamma > cts.kappa
    gap = basis.gaps[0, 1]
    assert cts.kappa == pytest.approx(cts.Gamma * math.exp(-bath.beta * gap), rel=1e-10)
