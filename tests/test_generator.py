import math

import numpy as np
import pytest

from excount import lds
from excount.bath import BathSpec, gamma
from excount.generator import (
    ClassicalTwoState,
    DegenerateGapError,
    SelectorError,
    TiltedGenerator,
    classical_two_state,
    enumerate_channels,
    resolve_counted,
    tilted_generator,
)
from excount.model import SiteModel, diagonalize, intensity_factor, preset

TEMPS = (77.0, 150.0, 300.0)


def make(name, temp=300.0):
    basis = diagonalize(preset(name))
    bath = BathSpec(35.0, 150.0, temp)
    return basis, bath


def boltzmann(basis, bath):
    w = np.exp(-bath.beta * basis.energies)
    return w / w.sum()


def lindblad_direct(basis, bath):
    """Independent untilted construction: act on every basis matrix with
    explicit operator products and column-stack the results."""
    n = basis.n_excitons
    mats = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            g = gamma(bath, basis.gap(a, b))
            for m in range(basis.n_sites):
                op = np.zeros((n, n))
                op[b, a] = basis.amplitudes[m, b] * basis.amplitudes[m, a]
                mats.append((g, op))
    g0 = gamma(bath, 0.0)
    for m in range(basis.n_sites):
        mats.append((g0, np.diag(basis.amplitudes[m, :] ** 2)))
    ham = np.diag(basis.energies)
    out = np.zeros((n * n, n * n), complex)
    for j in range(n):
        for i in range(n):
            e_ij = np.zeros((n, n), complex)
            e_ij[i, j] = 1.0
            col = -1j * (ham @ e_ij - e_ij @ ham)
            for g, op in mats:
                col += g * (
                    op @ e_ij @ op.conj().T
                    - 0.5 * (op.conj().T @ op @ e_ij + e_ij @ op.conj().T @ op)
                )
            out[:, i + j * n] = col.reshape(n * n, order="F")
    return out


def kron_reference(gen):
    """The generator rebuilt term by term from dense np.kron sandwiches:
    returns (static, counted) with W_s = static + e^{-s} counted."""
    basis, n = gen.basis, gen.n_excitons
    eye = np.eye(n)
    ham = np.diag(basis.energies).astype(complex)
    static = -1j * (np.kron(eye, ham) - np.kron(ham, eye))
    counted = np.zeros((n * n, n * n), dtype=complex)
    for ch in gen.channels:
        if ch.is_dephasing:
            continue
        a, b = ch.from_exciton, ch.to_exciton
        e_ba = np.zeros((n, n))
        e_ba[b, a] = 1.0
        p_a = np.zeros((n, n))
        p_a[a, a] = 1.0
        static -= 0.5 * ch.rate * (np.kron(eye, p_a) + np.kron(p_a, eye))
        if ch.counted:
            counted += ch.rate * np.kron(e_ba, e_ba)
        else:
            static += ch.rate * np.kron(e_ba, e_ba)
    gamma0 = gamma(gen.bath, 0.0)
    for m in range(basis.n_sites):
        d_m = np.diag(basis.amplitudes[m, :] ** 2)
        d_m2 = d_m @ d_m
        static += gamma0 * (
            np.kron(d_m, d_m) - 0.5 * (np.kron(eye, d_m2) + np.kron(d_m2, eye))
        )
    return static, counted


def random_basis(seed, n_min=2, n_max=6):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max))
    j = rng.normal(scale=40.0, size=(n, n))
    j = np.triu(j, 1)
    model = SiteModel(energies=rng.uniform(0.0, 800.0, size=n), couplings=j + j.T)
    return diagonalize(model), BathSpec(35.0, 150.0, float(rng.uniform(77.0, 400.0)))


def test_fmo2_channel_enumeration():
    basis, bath = make("fmo2")
    channels = enumerate_channels(basis, bath)
    transport = [c for c in channels if not c.is_dephasing]
    dephasing = [c for c in channels if c.is_dephasing]
    assert len(transport) == 2 and len(dephasing) == 2
    down = next(c for c in transport if c.omega < 0)
    up = next(c for c in transport if c.omega > 0)
    gap = basis.gap(0, 1)
    assert down.omega == pytest.approx(-gap, rel=1e-12)
    assert down.rate == pytest.approx(
        gamma(bath, -gap) * intensity_factor(basis, 0, 1), rel=1e-12
    )
    assert up.rate == pytest.approx(down.rate * math.exp(-bath.beta * gap), rel=1e-10)
    np.testing.assert_allclose(
        down.site_weights, basis.amplitudes[:, 1] * basis.amplitudes[:, 0], atol=1e-14
    )


def test_uncoupled_model_has_zero_transport_rates():
    basis = diagonalize(SiteModel(energies=[0.0, 150.0, 340.0], couplings=np.zeros((3, 3))))
    bath = BathSpec(35.0, 150.0, 300.0)
    assert all(
        c.rate == 0.0 for c in enumerate_channels(basis, bath) if not c.is_dephasing
    )


def test_fmo3_channel_count_and_strongest_pair():
    basis, bath = make("fmo3")
    transport = [c for c in enumerate_channels(basis, bath) if not c.is_dephasing]
    assert len(transport) == 6
    # brute-force the largest intensity factor over all pairs
    best = max(
        ((a, b) for a in range(3) for b in range(3) if a != b),
        key=lambda p: intensity_factor(basis, *p),
    )
    assert set(best) == {1, 2}  # the excitons split by the site-1/2 dimer


def test_degenerate_gap_error_names_pairs():
    basis = diagonalize(SiteModel(energies=[0.0, 100.0, 200.0], couplings=np.zeros((3, 3))))
    with pytest.raises(DegenerateGapError, match=r"a1<->a2.*a2<->a3"):
        enumerate_channels(basis, BathSpec(35.0, 150.0, 300.0))


def test_detailed_balance_of_rates_all_presets():
    for name in ("fmo2", "fmo3", "fmo4"):
        for temp in TEMPS:
            basis, bath = make(name, temp)
            channels = enumerate_channels(basis, bath)
            rate = {
                (c.from_exciton, c.to_exciton): c.rate
                for c in channels
                if not c.is_dephasing
            }
            for (a, b), r in rate.items():
                expected = rate[(b, a)] * math.exp(-bath.beta * basis.gap(a, b))
                assert r == pytest.approx(expected, rel=1e-10)


def test_untilted_matches_independent_construction():
    for name in ("fmo2", "fmo3", "fmo4"):
        basis, bath = make(name)
        w0 = tilted_generator(basis, bath, ["down:a2->a1"]).assemble(0.0)
        direct = lindblad_direct(basis, bath)
        scale = np.max(np.abs(direct))
        np.testing.assert_allclose(w0, direct, atol=1e-12 * scale)


def test_trace_preservation_at_s_zero():
    for name in ("fmo2", "fmo3", "fmo4"):
        basis, bath = make(name)
        w0 = tilted_generator(basis, bath, ["all-down"]).assemble(0.0)
        n = basis.n_excitons
        trace_vec = np.zeros(n * n)
        trace_vec[:: n + 1] = 1.0
        assert np.max(np.abs(trace_vec @ w0)) < 1e-10


def test_counting_factor_touches_only_counted_sandwiches():
    basis, bath = make("fmo3")
    gen = tilted_generator(basis, bath, ["down:a3->a2"])
    w0, w1 = gen.assemble(0.0), gen.assemble(1.0)
    diff = w1 - w0
    n = basis.n_excitons
    # only the (population a3 -> population a2) sandwich entry moves
    expected = np.zeros((n * n, n * n), complex)
    rate = next(c.rate for c in gen.channels if c.counted)
    expected[1 * n + 1, 2 * n + 2] = rate * (math.exp(-1.0) - 1.0)
    np.testing.assert_allclose(diff, expected, atol=1e-12 * rate)


def test_stationary_state_is_boltzmann():
    for name in ("fmo2", "fmo3", "fmo4"):
        for temp in TEMPS:
            basis, bath = make(name, temp)
            n = basis.n_excitons
            w0 = tilted_generator(basis, bath, ["down:a2->a1"]).assemble(0.0)
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
    rate = {
        (c.from_exciton, c.to_exciton): c.rate
        for c in enumerate_channels(basis, bath)
        if not c.is_dephasing
    }
    down_flux = rate[(1, 0)] * pops[1]
    up_flux = rate[(0, 1)] * pops[0]
    assert down_flux == pytest.approx(up_flux, rel=1e-10)


def test_population_block_is_stochastic_generator():
    basis, bath = make("fmo3")
    block = tilted_generator(basis, bath, ["down:a3->a2"]).population_block(0.0)
    np.testing.assert_allclose(block.sum(axis=0), 0.0, atol=1e-12)
    assert np.all(block[~np.eye(3, dtype=bool)] >= 0.0)


def test_population_block_matches_two_state_matrix():
    basis, bath = make("fmo2")
    channels = enumerate_channels(basis, bath)
    cts = ClassicalTwoState.from_channels(channels, bath)
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
            top_block = np.max(np.linalg.eigvals(gen.population_block(s)).real)
            top_full = np.max(np.linalg.eigvals(gen.assemble(s)).real)
            assert top_block == pytest.approx(top_full, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_population_block_consistency_random_models(seed):
    # secular decoupling holds for any nondegenerate model, not just presets
    basis, bath = random_basis(seed)
    try:
        gen = tilted_generator(basis, bath, ["down:a2->a1"])
    except DegenerateGapError:
        pytest.skip("random draw produced colliding gaps")
    for s in (-1.5, 0.0, 2.5, 8.0):
        top_block = np.max(np.linalg.eigvals(gen.population_block(s)).real)
        top_full = np.max(np.linalg.eigvals(gen.assemble(s)).real)
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
    try:
        gen = tilted_generator(basis, bath, [chosen])
    except DegenerateGapError:
        pytest.skip("random draw produced colliding gaps")
    static, counted = kron_reference(gen)
    for s in (-1.5, 0.0, 2.5, 8.0):
        expected = static + math.exp(-s) * counted
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(gen.assemble(s), expected, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            gen.assemble_derivative(s), -math.exp(-s) * counted,
            rtol=0, atol=1e-12 * scale,
        )


def test_population_scan_never_assembles_superoperator(monkeypatch):
    # a 60-site chain: the N^2 x N^2 superoperator would hold 13M entries
    rng = np.random.default_rng(60)
    n = 60
    j = np.diag(rng.normal(scale=60.0, size=n - 1), 1)
    basis = diagonalize(
        SiteModel(energies=rng.uniform(0.0, 800.0, size=n), couplings=j + j.T)
    )
    gen = tilted_generator(basis, BathSpec(35.0, 150.0, 300.0), ["all-down"])

    def refuse(self, s):
        raise AssertionError("the population path assembled the superoperator")

    monkeypatch.setattr(TiltedGenerator, "assemble", refuse)
    monkeypatch.setattr(TiltedGenerator, "assemble_derivative", refuse)
    points = lds.scan(gen, np.linspace(-2.0, 8.0, 21))
    rate_scale = max(p.activity for p in points)
    assert rate_scale > 0
    (at_zero,) = [p for p in points if p.s == 0.0]
    assert abs(at_zero.theta) <= 1e-9 * rate_scale


def test_large_s_limit_deletes_counted_sandwiches():
    basis, bath = make("fmo3")
    gen = tilted_generator(basis, bath, ["all-down"])
    n = basis.n_excitons
    rates = np.zeros((n, n))
    for c in gen.channels:
        if not c.is_dephasing:
            rates[c.to_exciton, c.from_exciton] = c.rate
    limit = rates - np.diag(rates.sum(axis=0))
    for c in gen.channels:
        if c.counted:
            limit[c.to_exciton, c.from_exciton] -= c.rate
    expected = np.max(np.linalg.eigvals(limit).real)
    top40 = np.max(np.linalg.eigvals(gen.assemble(40.0)).real)
    assert top40 == pytest.approx(expected, abs=1e-8)


def test_selector_forms():
    basis, bath = make("fmo3")
    channels = enumerate_channels(basis, bath)
    down = resolve_counted(channels, ["down:a3->a2"])
    assert {c.pair for c in down if c.counted} == {(2, 1)}
    up = resolve_counted(channels, ["up:a1->a3"])
    assert {c.pair for c in up if c.counted} == {(0, 2)}
    pair = resolve_counted(channels, ["pair:a1<->a2"])
    assert {c.pair for c in pair if c.counted} == {(0, 1), (1, 0)}
    alldown = resolve_counted(channels, ["all-down"])
    assert {c.pair for c in alldown if c.counted} == {(1, 0), (2, 0), (2, 1)}
    explicit = resolve_counted(channels, [(2, 0)])
    assert {c.pair for c in explicit if c.counted} == {(2, 0)}


@pytest.mark.parametrize(
    "selector",
    [
        "down:a1->a2",          # not downward
        "up:a3->a1",            # not upward
        "pair:a2<->a2",         # single exciton
        "down:a9->a1",          # out of range
        "sideways:a1->a2",      # unknown form
        (0, 0),                 # dephasing is not countable
    ],
)
def test_selector_rejections(selector):
    basis, bath = make("fmo3")
    channels = enumerate_channels(basis, bath)
    with pytest.raises(SelectorError):
        resolve_counted(channels, [selector])


def test_empty_counted_set_rejected():
    basis, bath = make("fmo2")
    channels = enumerate_channels(basis, bath)
    with pytest.raises(SelectorError, match="empty"):
        resolve_counted(channels, [])
    with pytest.raises(SelectorError):
        TiltedGenerator(basis, bath, channels)  # nothing flagged counted


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
    cts = ClassicalTwoState.from_channels(enumerate_channels(basis, bath), bath)
    assert cts.Gamma > cts.kappa
    gap = basis.gap(0, 1)
    assert cts.kappa == pytest.approx(cts.Gamma * math.exp(-bath.beta * gap), rel=1e-10)
