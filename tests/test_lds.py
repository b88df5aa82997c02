import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from excount.bath import BathSpec
from excount.generator import TiltedGenerator, strong_classes, tilted_generator, transport_rates
from excount import lds
from excount.lds import (
    NonConvexThetaWarning,
    ScanResult,
    SpectralError,
    UndefinedMandelError,
    default_s_grid,
    find_crossover,
    legendre_reconstruct,
    mandel,
    rate_function,
    scan,
    scan_mandel_vs_parameter,
    theta,
    theta_derivatives,
)
from excount.model import SiteModel, diagonalize, preset
from reference import (
    ClassicalTwoState,
    homogeneous_chain,
    random_aggregate,
    random_basis,
    reference_derivatives,
    stationary_eig,
    superoperator,
    top_eigenvalue,
)

TEMPS = (77.0, 150.0, 300.0)
ACCEPT_CHANNELS = {"fmo2": "down:a2->a1", "fmo3": "down:a3->a2", "fmo4": "down:a4->a2"}


def make_generator(name, temp=300.0, selector=None):
    basis = diagonalize(preset(name))
    bath = BathSpec(35.0, 150.0, temp)
    return tilted_generator(basis, bath, [selector or ACCEPT_CHANNELS[name]])


def equal_rate_generator(kappa):
    """Two-state chain with kappa == Gamma, counting the downward jump."""
    rates = np.array([[0.0, kappa], [kappa, 0.0]])
    return TiltedGenerator(rates, [[False, True], [False, False]])


def mandel_from(d1, d2):
    """Q from theta' and theta'' at one s, or None where the activity
    vanishes (the floor of ``lds._mandel``)."""
    q = float(lds._mandel(np.float64(d1), np.float64(d2)))
    return None if math.isnan(q) else q


def test_theta_vanishes_at_s_zero():
    for name in ("fmo2", "fmo3", "fmo4"):
        gen = make_generator(name)
        bath = BathSpec(35.0, 150.0, 300.0)
        assert abs(theta(gen, 0.0)) < 1e-10
        basis = diagonalize(preset(name))
        assert abs(top_eigenvalue(superoperator(gen, basis, bath, 0.0))) < 1e-10


def test_equal_rate_chain_closed_form():
    kappa = 4.2
    gen = equal_rate_generator(kappa)
    for s in (-1.0, 0.0, 1.0, 5.0):
        expected = kappa * (math.exp(-s / 2.0) - 1.0)
        assert theta(gen, s) == pytest.approx(expected, abs=1e-11)
        th, d1, d2 = theta_derivatives(gen, s)
        assert d1 == pytest.approx(-(kappa / 2.0) * math.exp(-s / 2.0), rel=1e-9)
        assert d2 == pytest.approx((kappa / 4.0) * math.exp(-s / 2.0), rel=1e-9)
        assert mandel(gen, s) == pytest.approx(-0.5, abs=1e-9)


def test_fmo2_theta_matches_two_state_closed_form():
    for temp in TEMPS:
        basis = diagonalize(preset("fmo2"))
        bath = BathSpec(35.0, 150.0, temp)
        cts = ClassicalTwoState.from_rates(transport_rates(basis, bath), basis, bath)
        gen = tilted_generator(basis, bath, ["down:a2->a1"])
        for s in (-2.0, -0.5, 0.0, 1.0, 6.0, 12.0):
            full = top_eigenvalue(superoperator(gen, basis, bath, s))
            assert full == pytest.approx(cts.theta(s), abs=1e-10)
            assert theta(gen, s) == pytest.approx(cts.theta(s), abs=1e-10)


def test_activity_at_zero_is_stationary_flux():
    basis = diagonalize(preset("fmo2"))
    bath = BathSpec(35.0, 150.0, 300.0)
    gen = tilted_generator(basis, bath, ["down:a2->a1"])
    _, d1, _ = theta_derivatives(gen, 0.0)
    pops = np.exp(-bath.beta * basis.energies)
    pops /= pops.sum()
    gamma_down = gen.rates[0, 1]
    assert -d1 == pytest.approx(gamma_down * pops[1], rel=1e-10)


@pytest.mark.parametrize("name", ["fmo2", "fmo3", "fmo4"])
def test_gradient_identity_vs_finite_difference(name):
    gen = make_generator(name)
    h = 1e-4
    for s in (-1.0, 0.0, 2.0):
        _, d1, _ = theta_derivatives(gen, s)
        fd = (
            theta_derivatives(gen, s + h)[0] - theta_derivatives(gen, s - h)[0]
        ) / (2.0 * h)
        assert abs(d1 - fd) <= 1e-7 * abs(d1)


def fd_second_derivative(gen, s, h=1e-4):
    """Richardson-refined central difference of theta'(s), a reference for
    the exact perturbation sum."""

    def slope(step):
        up = theta_derivatives(gen, s + step)[1]
        dn = theta_derivatives(gen, s - step)[1]
        return (up - dn) / (2.0 * step)

    return (4.0 * slope(h / 2.0) - slope(h)) / 3.0


def second_derivative_case(name):
    if name.startswith("random"):
        basis, bath = random_basis(int(name[len("random"):]), 2, 8)
        return tilted_generator(basis, bath, ["all-down"])
    if name == "chain":
        return tilted_generator(homogeneous_chain(5), BathSpec(35.0, 150.0, 300.0), ["all-down"])
    return make_generator(name)


@pytest.mark.parametrize(
    "name", ["fmo2", "fmo3", "fmo4", *(f"random{seed}" for seed in range(6)), "chain"]
)
def test_exact_and_fd_second_derivatives_agree(name):
    gen = second_derivative_case(name)
    for s in (-1.0, 0.0, 2.0):
        _, _, d2 = theta_derivatives(gen, s)
        assert fd_second_derivative(gen, s) == pytest.approx(d2, rel=1e-6)


class FakeGenerator:
    """Duck-typed generator with fixed blocks, W_s = mat and dW/ds = dmat,
    broadcast over an array of s like the real blocks; its one jump graph
    is the support of mat and dmat."""

    batch_shape = ()

    def __init__(self, mat, dmat=None):
        self.mat = np.asarray(mat)
        self.dmat = np.zeros_like(self.mat) if dmat is None else np.asarray(dmat)
        self.n_excitons = self.mat.shape[-1]
        self.graphs = ((np.arange(1), strong_classes((self.mat != 0) | (self.dmat != 0))),)

    def population_block(self, s):
        return np.broadcast_to(self.mat, np.shape(s) + self.mat.shape)

    def population_block_derivative(self, s):
        return np.broadcast_to(self.dmat, np.shape(s) + self.dmat.shape)


@pytest.mark.parametrize(
    "gen, message",
    [
        (FakeGenerator([[0.0, -1.0], [1.0, 0.0]]), "ambiguous"),  # eigenvalues +-i
        (FakeGenerator(np.diag([2.0j, -1.0])), "imaginary part"),
        (FakeGenerator([[1.0, 1.0], [-1.0, -1.0]]), "defective"),  # irreducible Jordan block
    ],
)
def test_bad_top_eigenpair_raises_for_both_methods(gen, message):
    # both spectral entry points share the guards
    with pytest.raises(SpectralError, match=message):
        theta(gen, 0.0)
    with pytest.raises(SpectralError, match=message):
        theta_derivatives(gen, 0.0)


def test_singular_eigenvector_matrix_is_defective(monkeypatch):
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(SpectralError, match=r"defective top eigenpair at s=0\.5"):
        theta_derivatives(make_generator("fmo2"), 0.5)


def test_singular_bordered_matrix_names_its_s():
    # [[0, -1], [-1, 0]] has the simple top eigenvalue 1, but its vector
    # (1, -1) has 1.r = 0, so the bordered matrix is singular
    good, bad = np.array([[-1.0, 2.0], [1.0, -2.0]]), np.array([[0.0, -1.0], [-1.0, 0.0]])
    gen = FakeGenerator(good)
    gen.population_block = lambda s: np.where((np.asarray(s) == 2.0)[..., None, None], bad, good)
    with pytest.raises(SpectralError, match=r"defective top eigenpair at s=2\.0: the bordered"):
        scan(gen, [0.0, 1.0, 2.0, 3.0])


def test_derivative_guards_raise():
    crowded = FakeGenerator(np.diag([0.0, -1e-10]), [[0.0, 1.0], [1.0, 0.0]])
    complex_slope = FakeGenerator(np.diag([0.0, -1.0]), np.diag([1.0j, 0.0]))
    assert theta(crowded, 0.0) == 0.0
    with pytest.raises(SpectralError, match="crowds"):
        theta_derivatives(crowded, 0.0)
    with pytest.raises(SpectralError, match="complex"):
        theta_derivatives(complex_slope, 0.0)


def test_defective_guard_ignores_exciton_scaling():
    # rescaling the excitons, D W D^-1 with D = diag(1, 1e150), leaves the
    # spectrum and the derivatives unchanged; a guard on |<l|r>| / (|l| |r|)
    # called the rescaled block defective
    mat = np.array([[-1.0, 2.0], [1.0, -2.0]])
    dmat = np.array([[0.0, -2.0], [0.0, 0.0]])
    scale = np.array([1.0, 1e150])
    similar = FakeGenerator(mat * np.outer(scale, 1.0 / scale), dmat * np.outer(scale, 1.0 / scale))
    plain = theta_derivatives(FakeGenerator(mat, dmat), 0.0)
    assert plain[1] == pytest.approx(-2.0 / 3.0, rel=1e-15)  # -l.dW.r with l = 1, r = (2, 1)/3
    assert theta_derivatives(similar, 0.0) == pytest.approx(plain, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("s", [-58.0, -60.0, -100.0, -300.0, -700.0])
def test_fmo2_far_active_side_matches_closed_form(s):
    """fmo2 300 K down:a2->a1 far on the active side, where the left and
    right vectors grow apart by the tilt but nothing is defective."""
    basis = diagonalize(preset("fmo2"))
    bath = BathSpec(35.0, 150.0, 300.0)
    cts = ClassicalTwoState.from_rates(transport_rates(basis, bath), basis, bath)
    gen = make_generator("fmo2")
    th, d1, d2 = theta_derivatives(gen, s)
    assert th == pytest.approx(cts.theta(s), rel=1e-14)
    assert -d1 == pytest.approx(cts.activity(s), rel=1e-14)
    assert mandel_from(d1, d2) == pytest.approx(cts.mandel(s), rel=1e-14)
    result = scan(gen, [0.0, s])
    assert (result.theta[1], result.activity[1]) == (th, -d1)


def test_pair_counting_far_inactive_side_matches_closed_form():
    """fmo2 77 K pair:a1<->a2 at large s: with both legs of the two-state
    chain counted, Q = 1 - kappa Gamma z^2 / D with z = e^-s and
    D = (kappa - Gamma)^2 / 4 + kappa Gamma z^2.  The entries of r and l
    span five decades there, and Q - 1 is about 1e-11."""
    basis = diagonalize(preset("fmo2"))
    rates = transport_rates(basis, BathSpec(35.0, 150.0, 77.0))
    kappa, gamma_ = rates[1, 0], rates[0, 1]
    gen = TiltedGenerator(rates, [[False, True], [True, False]])
    grid = np.linspace(10.0, 12.0, 9)
    result = scan(gen, grid)
    z2 = np.exp(-2.0 * grid)
    d = (kappa - gamma_) ** 2 / 4.0 + kappa * gamma_ * z2
    np.testing.assert_allclose(result.activity, kappa * gamma_ * z2 / np.sqrt(d), rtol=1e-14)
    np.testing.assert_allclose(result.mandel, 1.0 - kappa * gamma_ * z2 / d, rtol=0.0, atol=1e-15)


def one_uncoupled_site_generator(temp=300.0, selector="all-down"):
    """Sites at 0, 120 and 300 cm^-1 with only J12 = 80 cm^-1: the exciton
    on site 3 has no rate in or out."""
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 80.0
    basis = diagonalize(SiteModel(energies=[0.0, 120.0, 300.0], couplings=j))
    return tilted_generator(basis, BathSpec(35.0, 150.0, temp), [selector])


def test_isolated_exciton_is_set_aside():
    gen = one_uncoupled_site_generator()
    assert not gen.rates[2].any() and not gen.rates[:, 2].any()
    # the dimer's theta where it is positive, its derivatives at the tie
    # s = 0, and the isolated exciton's 0 with zero derivatives beyond
    expected = {
        -1.0: (13.0597803318877, -17.030932089459, 9.2279214174873),
        0.0: (0.0, -9.65880445265381, 5.78969022012082),
        1.0: (0.0, 0.0, 0.0),
    }
    for s, values in expected.items():
        assert theta_derivatives(gen, s) == pytest.approx(values, rel=1e-12, abs=1e-15)
    result = scan(gen, default_s_grid())
    assert np.isnan(result.mandel).sum() == 240
    assert np.array_equal(np.isnan(result.mandel), result.s > 0.0)
    assert np.all(result.theta[result.s > 0.0] == 0.0)
    assert np.all(result.theta[result.s < 0.0] > 0.0)


def test_two_closed_classes_tie_at_zero():
    """Two uncoupled dimers, both counted: theta is the larger of the two
    dimers' thetas, and at s = 0, where both are 0, the more active
    dimer's, with its derivatives."""
    bath = BathSpec(35.0, 150.0, 300.0)

    def dimers(energies, couplings):
        j = np.zeros((len(energies), len(energies)))
        for (a, b), value in couplings.items():
            j[a, b] = j[b, a] = value
        return tilted_generator(diagonalize(SiteModel(energies=energies, couplings=j)), bath, ["all-down"])

    gen = dimers([0.0, 150.0, 300.0, 500.0], {(0, 1): 60.0, (2, 3): 70.0})
    alone = [dimers([0.0, 150.0], {(0, 1): 60.0}), dimers([300.0, 500.0], {(0, 1): 70.0})]
    for s in (-1.0, 1.0):
        expected = max(theta_derivatives(d, s) for d in alone)
        assert theta_derivatives(gen, s) == pytest.approx(expected, rel=1e-12)
    assert theta_derivatives(alone[0], -1.0)[0] != theta_derivatives(alone[1], -1.0)[0]
    at_zero = [theta_derivatives(d, 0.0) for d in alone]
    assert at_zero[0][1] != at_zero[1][1]
    active = min(at_zero, key=lambda values: values[1])  # the largest activity -theta'
    assert theta_derivatives(gen, 0.0) == pytest.approx(active, rel=1e-12, abs=1e-15)
    grid = default_s_grid()
    result = scan(gen, grid)
    first, second = (scan(d, grid) for d in alone)
    off = grid != 0.0
    top = np.where(first.theta >= second.theta, first.theta, second.theta)
    np.testing.assert_allclose(result.theta[off], top[off], rtol=1e-12, atol=0.0)
    assert result.activity[~off] == pytest.approx(-active[1], rel=1e-12)


def test_scan_is_one_eigensolve_per_point(monkeypatch):
    """fmo3 pair:a1<->a2 at 77 K: the top two eigenvalues nearly touch, the
    case where a power iteration stalls; scan must match the full
    superoperator with one batched numpy eigenvalues-only solve per grid
    slice, one matrix per grid point and no eigenvector solve."""
    bath = BathSpec(35.0, 150.0, 77.0)
    basis = diagonalize(preset("fmo3"))
    gen = tilted_generator(basis, bath, ["pair:a1<->a2"])
    grid = default_s_grid()
    original = np.linalg.eigvals
    # the default slice holds the whole grid; 900 entries make three slices
    for slice_entries in (lds._SLICE_ENTRIES, 9 * 100):
        stacks, eig_calls = [], []

        def counted(a, *args, **kwargs):
            stacks.append(a.shape[:-2])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(lds, "_SLICE_ENTRIES", slice_entries)
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: eig_calls.append(a))
        monkeypatch.setattr(scipy.linalg, "eig", lambda *a, **k: eig_calls.append(a))
        result = scan(gen, grid)
        monkeypatch.undo()
        assert len(stacks) == math.ceil(grid.size / (slice_entries // 9))
        assert sum(math.prod(shape) for shape in stacks) == grid.size
        assert eig_calls == []
        scale = result.activity.max()
        for s, th in zip(result.s, result.theta):
            assert abs(th - top_eigenvalue(superoperator(gen, basis, bath, s))) <= 1e-10 * scale


def hub_generator(leaves, k_out=3.0, k_in=1.7):
    """A hub exciton with identical leaves, counting every leaf -> hub jump:
    the antisymmetric leaf combinations give a non-top eigenvalue -k_in of
    multiplicity leaves - 1 at every s."""
    rates = np.zeros((leaves + 1, leaves + 1))
    rates[1:, 0] = k_out
    rates[0, 1:] = k_in
    counted = np.zeros_like(rates, dtype=bool)
    counted[0, 1:] = True
    return TiltedGenerator(rates, counted)


def reference_case(name):
    kind, _, arg = name.partition("-")
    if kind == "hub":
        return hub_generator(int(arg))
    if kind == "chain":
        n, selector = arg.split("-", 1)
        return tilted_generator(homogeneous_chain(int(n)), BathSpec(35.0, 150.0, 300.0), [selector])
    if kind == "aggregate":
        n, selector = arg.split("-", 1)
        return tilted_generator(*random_aggregate(int(n), int(n)), [selector])
    seed, selector = arg.split("-", 1)
    basis, bath = random_basis(int(seed), 2, 9)
    n = basis.n_excitons
    selector = {"down": f"down:a{n}->a1", "pair": "pair:a1<->a2"}.get(selector, selector)
    return tilted_generator(basis, bath, [selector])


REFERENCE_CASES = [
    *(f"random-{seed}-{sel}" for seed in range(8) for sel in ("down", "pair", "all-down")),
    *(f"chain-{n}-{sel}" for n in (3, 4, 6) for sel in ("all-down", "pair:a1<->a2")),
    "hub-3",
    "hub-5",
    *(f"aggregate-{n}-all-down" for n in (16, 24, 30)),
    "aggregate-24-pair:a1<->a2",
]


def assert_matches_reference(gen, grid):
    result = scan(gen, grid)
    scale = np.max(np.abs(np.diag(gen.population_block(0.0))))
    for s, theta_s, activity, q_s in zip(result.s, result.theta, result.activity, result.mandel):
        th, d1, d2 = reference_derivatives(gen, s)
        assert abs(theta_s - th) <= 1e-12 * scale
        assert abs(activity + d1) <= 1e-12 * scale
        q = mandel_from(d1, d2)
        assert np.isnan(q_s) == (q is None)
        if q is not None:
            assert abs(q_s - q) <= 1e-9 * max(1.0, abs(q))
    return result


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_scan_matches_reference_kernel(name):
    gen = reference_case(name)
    assert_matches_reference(gen, default_s_grid())


def test_scan_over_several_slices_matches_pointwise():
    basis, bath = random_basis(3, 30, 31)
    gen = tilted_generator(basis, bath, ["all-down"])
    step = lds._SLICE_ENTRIES // gen.n_excitons**2
    grid = np.linspace(-2.0, 12.0, 2 * step + 5)
    result = assert_matches_reference(gen, grid)
    for i, s in enumerate(grid):
        th, d1, d2 = theta_derivatives(gen, s)
        q = mandel_from(d1, d2)
        assert (result.theta[i], result.activity[i]) == (th, -d1)
        assert np.isnan(result.mandel[i]) if q is None else result.mandel[i] == q


def stacked(generators, shape):
    """One generator with the tasks of ``generators`` on task axes of ``shape``."""
    n = generators[0].n_excitons
    return TiltedGenerator(
        np.reshape([g.rates for g in generators], shape + (n, n)),
        np.reshape([g.counted for g in generators], shape + (n, n)),
    )


def assert_same_scan(result, single):
    for name in ("s", "theta", "activity", "mandel"):
        assert np.array_equal(getattr(result, name), getattr(single, name), equal_nan=True)


def test_stacked_scan_and_crossover_equal_the_per_task_calls(monkeypatch):
    selectors = ("pair:a1<->a2", "down:a3->a2")
    singles = [make_generator("fmo3", t, sel) for t in TEMPS for sel in selectors]
    gen = stacked(singles, (3, 2))
    grid = default_s_grid()
    result = scan(gen, grid)
    assert result.theta.shape == (3, 2, grid.size) and len(result) == 6 * grid.size
    for part, single in zip(result.tasks(), singles):
        assert_same_scan(part, scan(single, grid))
    assert find_crossover(gen, grid) == [find_crossover(single, grid) for single in singles]
    # slices on threads: two s points of every task per slice
    monkeypatch.setattr(lds, "_SLICE_ENTRIES", 2 * 6 * 9)
    monkeypatch.setattr(lds, "_THREAD_ENTRIES", 0)
    assert_same_scan(scan(gen, grid, workers=3), result)


def test_stacked_scan_with_an_isolated_exciton():
    singles = [
        one_uncoupled_site_generator(t, sel)
        for t in (150.0, 300.0)
        for sel in ("all-down", "down:a2->a1")
    ]
    grid = default_s_grid()
    result = scan(stacked(singles, (4,)), grid)
    assert np.isnan(result.mandel).any()
    for part, single in zip(result.tasks(), singles):
        assert_same_scan(part, scan(single, grid))


def test_stacked_tasks_may_differ_in_their_isolated_excitons():
    singles = [one_uncoupled_site_generator(), make_generator("fmo3")]
    gen = stacked(singles, (2,))
    assert [idx.tolist() for idx, _ in gen.graphs] == [[0], [1]]
    grid = default_s_grid()
    for part, single in zip(scan(gen, grid).tasks(), singles):
        assert_same_scan(part, scan(single, grid))


def test_mixed_graph_stack_equals_the_per_task_calls(monkeypatch):
    # fmo3 with its a1 -> a3 rate cut keeps one class, on another jump
    # graph than the full fmo3 tasks that come before and after it
    full = make_generator("fmo3", 300.0, "pair:a1<->a2")
    rates = full.rates.copy()
    rates[2, 0] = 0.0
    cold = make_generator("fmo3", 150.0, "pair:a1<->a2")
    singles = [full, TiltedGenerator(rates, full.counted), cold]
    gen = stacked(singles, (3,))
    assert [idx.tolist() for idx, _ in gen.graphs] == [[0, 2], [1]]
    grid = default_s_grid()
    result = scan(gen, grid)
    for part, single in zip(result.tasks(), singles):
        assert_same_scan(part, scan(single, grid))
    assert find_crossover(gen, grid) == [find_crossover(single, grid) for single in singles]
    # slices on threads: two s points of every task per slice
    monkeypatch.setattr(lds, "_SLICE_ENTRIES", 2 * 3 * 9)
    monkeypatch.setattr(lds, "_THREAD_ENTRIES", 0)
    assert_same_scan(scan(gen, grid, workers=3), result)


def test_stacked_error_is_that_of_the_first_failing_task(monkeypatch):
    # fmo4 with tiny rates has its eigenvalues within the absolute 1e-12 of
    # the tie check near s = 0, and fails at s = -2; fmo4 with huge rates
    # overflows at s = -300, the first point of the grid, so the stacked
    # solve meets its error first, but the tiny rates come first in task order
    fmo4 = make_generator("fmo4")
    tiny = TiltedGenerator(fmo4.rates * 1e-15, fmo4.counted)
    huge = TiltedGenerator(fmo4.rates * 1e200, fmo4.counted)
    gen = stacked([tiny, huge], (2,))
    grid = np.append(-300.0, np.linspace(-2.0, 2.0, 41))
    with pytest.raises(SpectralError, match=r"overflows at s=-300\.0"):
        scan(huge, grid)
    with pytest.raises(SpectralError, match=r"at s=-2\.0: 4 eigenvalues tie") as alone:
        scan(tiny, grid)
    for workers in (1, 2):
        with pytest.raises(SpectralError) as both:
            scan(gen, grid, workers=workers)
        assert str(both.value) == str(alone.value)
        with pytest.raises(SpectralError) as both:
            find_crossover(gen, grid, workers=workers)
        assert str(both.value) == str(alone.value)
        # then on threads, four s points of both tasks per slice
        monkeypatch.setattr(lds, "_SLICE_ENTRIES", 4 * 2 * 16)
        monkeypatch.setattr(lds, "_THREAD_ENTRIES", 0)


def assert_stationary_matches_eig(gen):
    pi = lds.stationary(gen)
    np.testing.assert_allclose(pi, stationary_eig(gen.rates), rtol=1e-12, atol=0.0)
    escape = gen.rates.sum(axis=0).max()
    assert np.abs(gen.population_block(0.0) @ pi).max() <= 1e-12 * escape


@pytest.mark.parametrize("temp", TEMPS)
@pytest.mark.parametrize("name", ["fmo2", "fmo3", "fmo4"])
def test_stationary_matches_eig_reference_presets(name, temp):
    assert_stationary_matches_eig(make_generator(name, temp))


@pytest.mark.parametrize("seed", range(12))
def test_stationary_matches_eig_reference_random_models(seed):
    basis, bath = random_basis(700 + seed, 2, 31)
    assert_stationary_matches_eig(tilted_generator(basis, bath, ["all-down"]))


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5, 1e7])
def test_isolated_exciton_loses_to_a_large_rate_scale_top(scale):
    # eight live excitons with random rates and one isolated exciton: at
    # s = 0 the live top rounds to about -1e-16 times the largest rate, so
    # from a rate scale of 1e3 on it lost to the isolated 0 under a fixed
    # 1e-12 tie (in 9 of 50 draws at 1e3, 23 of 50 at 1e7), giving zero
    # activity and a unit stationary vector
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rates = np.zeros((9, 9))
        rates[:8, :8] = rng.exponential(size=(8, 8)) * scale
        np.fill_diagonal(rates, 0.0)
        counted = np.zeros_like(rates, dtype=bool)
        counted[0, 1] = True
        gen = TiltedGenerator(rates, counted)
        pi = lds.stationary(gen)
        assert pi[8] == 0.0
        np.testing.assert_allclose(pi[:8], stationary_eig(rates[:8, :8]), rtol=1e-12, atol=0.0)
        result = scan(gen, [0.0])
        assert result.activity[0] == pytest.approx(rates[0, 1] * pi[1], rel=1e-10)


def test_stationary_of_absorbing_excitons():
    # exciton 1 is absorbing and fed by exciton 0: a closed class that
    # carries rates; fed from exciton 0, excitons 1 and 2 are two of them
    one = TiltedGenerator([[0.0, 0.0], [1.0, 0.0]], [[False, False], [True, False]])
    assert lds.stationary(one).tolist() == [0.0, 1.0]
    rates = np.zeros((3, 3))
    rates[1:, 0] = 1.0
    two = TiltedGenerator(rates, rates > 0.0)
    with pytest.raises(SpectralError, match="defective .* 2 closed classes .* reducible"):
        lds.stationary(two)
    none = TiltedGenerator(np.zeros((3, 3)), rates > 0.0)
    assert lds.stationary(none).tolist() == [1.0 / 3.0] * 3


@st.composite
def reducible_chains(draw):
    """(rates, counted, closed, classes) of a reducible chain in a random
    exciton order: 0-2 isolated excitons, 1-3 closed classes of 2-3
    excitons, and a transient class of 1-3 excitons that feeds one closed
    class; classes lists the excitons of each class, the closed ones
    first, and closed counts them."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    transient = draw(st.integers(1, 3))
    isolated = draw(st.integers(0, 2))
    n = sum(sizes) + transient + isolated
    order = np.array(draw(st.permutations(range(n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bounds = np.cumsum([0, *sizes, transient])
    classes = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    rates = np.zeros((n, n))
    for c in classes:
        rates[c[:, None], c] = rng.uniform(0.1, 10.0, (c.size, c.size))
    fed = classes[draw(st.integers(0, len(sizes) - 1))]
    rates[fed[:, None], classes[-1]] = rng.uniform(0.1, 10.0, (fed.size, transient))
    np.fill_diagonal(rates, 0.0)
    counted = (rates > 0.0) & (rng.random((n, n)) < 0.5)
    counted.flat[rng.choice(np.flatnonzero(rates))] = True
    return rates, counted, len(sizes), classes + [order[i : i + 1] for i in range(n - isolated, n)]


class ClassView:
    """The diagonal block of the class ``c`` of ``generator``, as a
    single-class generator."""

    batch_shape = ()

    def __init__(self, generator, c):
        self.generator, self.c = generator, c
        self.n_excitons = c.size
        self.graphs = ((np.arange(1), (np.arange(c.size),)),)

    def population_block(self, s):
        return self.generator.population_block(s)[..., self.c[:, None], self.c]

    def population_block_derivative(self, s):
        return self.generator.population_block_derivative(s)[..., self.c[:, None], self.c]


CLASS_GRID = np.array([-1.5, -0.5, 0.0, 0.5, 2.0])


@given(reducible_chains())
def test_reducible_scan_is_the_class_maximum(chain):
    rates, counted, _, classes = chain
    gen = TiltedGenerator(rates, counted)
    (task, found), = gen.graphs
    assert task.tolist() == [0]
    assert sorted(map(tuple, found)) == sorted(tuple(np.sort(c)) for c in classes)
    # each class alone, then the top theta, and among tied classes the
    # largest activity
    parts = np.stack([lds._spectra(ClassView(gen, c), CLASS_GRID) for c in found])
    scale = np.abs(gen.population_block(CLASS_GRID)).max(axis=(-2, -1))
    tied = parts[:, 0] >= parts[:, 0].max(axis=0) - 1e-12 * np.maximum(1.0, scale)
    best = np.argmax(np.where(tied, -parts[:, 1], -np.inf), axis=0)
    expected = parts[best, :, np.arange(CLASS_GRID.size)].T
    np.testing.assert_array_equal(lds._spectra(gen, CLASS_GRID), expected)
    top = np.linalg.eigvals(gen.population_block(CLASS_GRID)).real.max(axis=-1)
    np.testing.assert_allclose(expected[0], top, rtol=0.0, atol=1e-12 * scale.max())


@given(reducible_chains(), st.integers(0, 2**32 - 1))
def test_reducible_stacked_scan_equals_the_task_scans(chain, seed):
    rates, counted, _, _ = chain
    scaled = rates * np.random.default_rng(seed).uniform(0.5, 2.0, rates.shape)
    singles = [TiltedGenerator(rates, counted), TiltedGenerator(scaled, rates > 0.0)]
    result = scan(stacked(singles, (2,)), CLASS_GRID)
    for part, single in zip(result.tasks(), singles):
        assert_same_scan(part, scan(single, CLASS_GRID))


@given(reducible_chains())
def test_reducible_stationary_is_that_of_the_closed_class(chain):
    rates, counted, closed, classes = chain
    gen = TiltedGenerator(rates, counted)
    if closed > 1:
        with pytest.raises(SpectralError, match="defective .* reducible"):
            lds.stationary(gen)
        return
    c = classes[0]
    pi = lds.stationary(gen)
    np.testing.assert_allclose(pi[c], stationary_eig(rates[c[:, None], c]), rtol=1e-12, atol=0.0)
    assert not np.delete(pi, c).any()


@st.composite
def site_models(draw):
    """(basis, bath) of a random site model: 2-8 sites, energies 0-500
    cm^-1, couplings |J| <= 150 cm^-1, and a Drude-Lorentz bath with
    reorganization energy 1-200 cm^-1, cutoff 10-500 cm^-1 and a
    temperature log-uniform on 1-1000 K."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j = np.triu(rng.uniform(-150.0, 150.0, (n, n)), 1)
    model = SiteModel(energies=rng.uniform(0.0, 500.0, n), couplings=j + j.T)
    temp = 10.0 ** rng.uniform(0.0, 3.0)
    return diagonalize(model), BathSpec(rng.uniform(1.0, 200.0), rng.uniform(10.0, 500.0), temp)


@given(site_models())
def test_site_model_invariants(case):
    basis, bath = case
    gen = tilted_generator(basis, bath, ["all-down"])
    scale = gen.rates.max()
    boltzmann = np.exp(-bath.beta * (basis.energies - basis.energies[0]))
    assert np.abs(lds.stationary(gen) - boltzmann / boltzmann.sum()).max() <= 1e-12
    assert abs(theta(gen, 0.0)) <= 1e-12 * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonConvexThetaWarning)
        rate_function(scan(gen, default_s_grid(n_points=41)))


def test_mandel_two_state_values():
    basis = diagonalize(preset("fmo2"))
    bath = BathSpec(35.0, 150.0, 300.0)
    cts = ClassicalTwoState.from_rates(transport_rates(basis, bath), basis, bath)
    gen = tilted_generator(basis, bath, ["down:a2->a1"])
    q0 = -2.0 * cts.kappa * cts.Gamma / (cts.kappa + cts.Gamma) ** 2
    assert mandel(gen, 0.0) == pytest.approx(q0, rel=1e-9)
    assert mandel(gen, 0.0) < 0.0


def test_fmo2_mandel_negative_throughout():
    for temp in TEMPS:
        gen = make_generator("fmo2", temp)
        for s in np.linspace(-2.0, 6.0, 33):
            assert mandel(gen, s) < 0.0


def test_mandel_undefined_for_dead_chain():
    basis = diagonalize(SiteModel(energies=[0.0, 200.0], couplings=np.zeros((2, 2))))
    bath = BathSpec(35.0, 150.0, 300.0)
    gen = tilted_generator(basis, bath, ["down:a2->a1"])
    with pytest.raises(UndefinedMandelError):
        mandel(gen, 0.0)


def test_scan_points_structure():
    gen = make_generator("fmo2")
    grid = default_s_grid(-2.0, 12.0, 57)
    result = scan(gen, grid)
    assert len(result) == 57
    assert all(getattr(result, c).shape == (57,) for c in ("s", "theta", "activity", "mandel"))
    assert abs(result.theta[np.argmin(np.abs(result.s))]) < 1e-10
    acts = result.activity
    assert np.all(acts >= 0.0)
    assert np.all(np.diff(acts) <= 1e-9)  # activity non-increasing in s
    thetas = result.theta
    second = thetas[2:] - 2 * thetas[1:-1] + thetas[:-2]
    assert second.min() >= -1e-9  # convexity


def test_scan_marks_undefined_mandel_as_none():
    basis = diagonalize(SiteModel(energies=[0.0, 200.0], couplings=np.zeros((2, 2))))
    bath = BathSpec(35.0, 150.0, 300.0)
    gen = tilted_generator(basis, bath, ["down:a2->a1"])
    result = scan(gen, np.linspace(-1.0, 1.0, 5))
    assert np.all(np.isnan(result.mandel))
    assert all(th == pytest.approx(0.0, abs=1e-12) for th in result.theta)


def test_rate_function_minimum_at_stationary_activity():
    gen = make_generator("fmo2")
    k, phi = rate_function(scan(gen, default_s_grid(-2.0, 12.0, 141)))
    assert np.all(phi >= 0.0)
    act0 = -theta_derivatives(gen, 0.0)[1]
    at_mean = phi[np.argmin(np.abs(k - act0))]
    assert at_mean == pytest.approx(0.0, abs=1e-10)


def test_rate_function_equal_rate_closed_form():
    # eliminating s from k(s) = (kappa/2) e^{-s/2} gives
    # phi(k) = kappa - 2k + 2k ln(2k/kappa)
    kappa = 4.2
    gen = equal_rate_generator(kappa)
    k, phi = rate_function(scan(gen, np.linspace(-2.0, 8.0, 101)))
    for k_i, phi_i in zip(k, phi):
        expected = kappa - 2.0 * k_i + 2.0 * k_i * math.log(2.0 * k_i / kappa)
        assert phi_i == pytest.approx(expected, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("name", ["fmo2", "fmo3"])
def test_legendre_round_trip(name):
    gen = make_generator(name)
    grid = default_s_grid()
    result = scan(gen, grid)
    interior = grid[1:-1]
    rebuilt = legendre_reconstruct(rate_function(result), interior)
    reference = result.theta[1:-1]
    assert np.max(np.abs(rebuilt - reference)) < 1e-6 * np.max(np.abs(reference))


def test_rate_function_flags_nonconvex_input():
    fake = ScanResult(
        s=np.array([0.0, 1.0, 2.0]),
        theta=np.array([0.0, 1.0, 1.2]),
        activity=np.array([2.0, 1.0, 0.5]),
        mandel=np.full(3, np.nan),
    )
    with pytest.warns(NonConvexThetaWarning):
        rate_function(fake)


def test_rate_function_refuses_a_stacked_scan():
    singles = [make_generator("fmo2", t) for t in (77.0, 300.0)]
    result = scan(stacked(singles, (2,)), default_s_grid())
    with pytest.raises(ValueError, match=r"shape \(2, 281\); .*ScanResult\.tasks\(\)"):
        rate_function(result)
    for part, single in zip(result.tasks(), singles):
        for got, want in zip(rate_function(part), rate_function(scan(single, default_s_grid()))):
            assert np.array_equal(got, want)


def test_legendre_row_blocks_change_no_bit(monkeypatch):
    """The direct Legendre minima run in row blocks of at most
    _SLICE_ENTRIES entries; a minimum is exact, so blocks of 7 rows (the
    last one short) give the one-block result bit for bit, warnings too."""
    s = np.linspace(-2.0, 12.0, 281)
    results = [
        ScanResult(s=s, theta=np.expm1(-s), activity=a * np.exp(-s), mandel=np.zeros_like(s))
        for a in (1.0, 1.1)  # the second activity is not -theta': the transforms disagree
    ]

    def transforms():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rates = [rate_function(r) for r in results]
        columns = [c for rate in rates for c in (*rate, legendre_reconstruct(rate, s))]
        return columns, [str(w.message) for w in caught]

    whole, messages = transforms()
    assert len(messages) == 1 and "disagree" in messages[0]
    monkeypatch.setattr(lds, "_SLICE_ENTRIES", 7 * s.size)
    blocked, blocked_messages = transforms()
    assert blocked_messages == messages
    assert all(np.array_equal(a, b) for a, b in zip(blocked, whole))


def test_rate_function_memory_is_bounded_on_a_long_grid():
    # theta(s) = e^-s - 1 is the Poisson process of unit rate, with
    # phi(k) = k ln k - k + 1; one 20001 x 20001 array of the direct
    # minimum would take 3.2 GB
    s = np.linspace(-2.0, 12.0, 20001)
    result = ScanResult(s=s, theta=np.expm1(-s), activity=np.exp(-s), mandel=np.zeros_like(s))
    tracemalloc.start()
    try:
        k, phi = rate_function(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    np.testing.assert_allclose(phi, k * np.log(k) - k + 1.0, rtol=0.0, atol=1e-12)


def test_crossover_fmo2_absent():
    report = find_crossover(make_generator("fmo2"), default_s_grid())
    assert report.s_star is None
    assert report.q_at_zero < 0.0
    assert report.local_max is None


def test_crossover_fmo3_positions():
    stars = {}
    for temp in (150.0, 300.0):
        gen = make_generator("fmo3", temp)
        report = find_crossover(gen, default_s_grid())
        assert report.s_star is not None
        assert report.q_at_zero > 0.0
        # genuine sign change across the refined point
        assert mandel(gen, report.s_star - 1e-3) * mandel(gen, report.s_star + 1e-3) < 0
        assert report.local_max is not None
        assert report.local_max[1] > report.q_at_zero
        stars[temp] = report.s_star
    # the crossover sits closer to s=0 at the higher temperature
    assert abs(stars[300.0]) < abs(stars[150.0])


def test_crossover_grid_validation():
    gen = make_generator("fmo2")
    with pytest.raises(ValueError, match="32"):
        find_crossover(gen, np.linspace(-1, 1, 8))
    bad = np.linspace(-1, 1, 40)
    bad[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        find_crossover(gen, bad)


def loop_crossover(q, s, f, golden_max):
    """find_crossover's grid search as a per-point loop: the first sign
    change, and a golden-section refinement of every grid-local maximum of
    q that beats the best one so far."""
    s_star = None
    for i in range(s.size - 1):
        if q[i] == 0.0:
            s_star = float(s[i])
            break
        if (q[i] < 0) != (q[i + 1] < 0):
            s_star = float(lds._bisect_sign_change(f, s[i], s[i + 1], q[i]))
            break
    local_max, best_q, refinements = None, -np.inf, 0
    for i in range(1, s.size - 1):
        if q[i] > q[i - 1] and q[i] >= q[i + 1] and q[i] > best_q:
            x, qx = golden_max(f, s[i - 1], s[i + 1])
            local_max, best_q = (float(x), float(qx)), q[i]
            refinements += 1
    return s_star, local_max, refinements


def patch_mandel(monkeypatch, f, q=None):
    """Make find_crossover see Q = f (or the grid values q), and record the
    brackets it hands to _golden_max."""
    brackets = []
    golden_max = lds._golden_max

    def recording(g, lo, hi, *args):
        brackets.append((lo, hi))
        return golden_max(g, lo, hi, *args)

    # find_crossover asks for Q on the grid followed by s = 0
    monkeypatch.setattr(
        lds, "_mandel_grid", lambda _gen, s, _workers: f(s) if q is None else np.append(q, f(s[-1]))
    )
    monkeypatch.setattr(lds, "mandel", lambda _gen, x: float(f(x)))
    monkeypatch.setattr(lds, "_golden_max", recording)
    return brackets


def test_crossover_refines_only_the_highest_local_maximum(monkeypatch):
    def f(s):
        return 0.1 * s + np.sin(3.0 * s) - 0.05

    grid = np.linspace(-2.0, 12.0, 141)
    s_star, local_max, refinements = loop_crossover(f(grid), grid, f, lds._golden_max)
    assert refinements >= 2  # several local maxima, each higher than the last
    brackets = patch_mandel(monkeypatch, f)
    report = find_crossover(None, grid)
    assert len(brackets) == 1
    assert report.local_max == local_max
    assert report.s_star == s_star
    assert report.q_at_zero == f(0.0)


def test_crossover_grid_search_ties_and_zeros(monkeypatch):
    grid = np.linspace(0.0, 39.0, 40)
    q = np.full(40, -1.0)
    q[[10, 30]] = 1.0  # equal maxima: the first is refined
    q[20] = 0.0  # an exact zero after the first sign change
    brackets = patch_mandel(monkeypatch, lambda s: np.interp(s, grid, q), q)
    report = find_crossover(None, grid)
    assert brackets == [(grid[9], grid[11])]
    assert 9.0 < report.s_star < 10.0
    q[:5] = [0.5, 0.25, 0.0, -0.5, -1.0]  # an exact zero comes first
    assert find_crossover(None, grid).s_star == 2.0
    q[:] = 0.3  # flat: no sign change and no interior maximum
    report = find_crossover(None, grid)
    assert report.s_star is None and report.local_max is None


def test_scan_rejects_overflowing_tilt_before_building_blocks(monkeypatch):
    gen = make_generator("fmo2")
    builds = []
    block = TiltedGenerator.population_block
    monkeypatch.setattr(
        TiltedGenerator, "population_block", lambda g, s: builds.append(s) or block(g, s)
    )
    monkeypatch.setattr(lds, "_SLICE_ENTRIES", 4 * 4)  # four s per slice
    grid = np.linspace(-2.0, 12.0, 20)
    grid[[9, 15]] = -800.0, -900.0
    with pytest.raises(ValueError, match=r"s=-800\.0"):
        scan(gen, grid)
    for bad in (-710.0, -np.inf, np.nan):
        with pytest.raises(ValueError, match=f"s={bad}"):
            theta(gen, bad)
        with pytest.raises(ValueError, match=f"s={bad}"):
            theta_derivatives(gen, bad)
    assert builds == []
    # the lowest accepted s is the last one where e^-s is finite
    assert lds._s_array([lds._S_LOWEST]).tolist() == [lds._S_LOWEST]
    assert np.isfinite(np.exp(-lds._S_LOWEST))


COMPLEX_S_CALLS = {
    "population_block": lambda gen, s: gen.population_block(s),
    "population_block_derivative": lambda gen, s: gen.population_block_derivative(s),
    "scan": lambda gen, s: scan(gen, [0.0, s]),
    "theta": theta,
    "theta_derivatives": theta_derivatives,
    "mandel": mandel,
    "find_crossover": lambda gen, s: find_crossover(gen, np.append(default_s_grid(), s)),
}


@pytest.mark.parametrize("name", COMPLEX_S_CALLS)
def test_complex_s_refused(name):
    # a cast to float would drop the imaginary part with only a ComplexWarning
    with pytest.raises(ValueError, match="s must be real, got complex128"):
        COMPLEX_S_CALLS[name](make_generator("fmo2"), np.complex128(0.1 + 0.5j))


NOT_1D_CALLS = {"scan": scan, "find_crossover": find_crossover, "_spectra": lds._spectra}


@pytest.mark.parametrize("name", NOT_1D_CALLS)
@pytest.mark.parametrize(
    "grid, shape", [(0.0, r"\(\)"), (np.zeros((2, 40)), r"\(2, 40\)")], ids=["scalar", "2-D"]
)
def test_grid_that_is_not_1d_refused(name, grid, shape):
    # refused by name, not as numpy's IndexError or axis error deep inside
    with pytest.raises(ValueError, match=f"s grid must be 1-D, got shape {shape}"):
        NOT_1D_CALLS[name](make_generator("fmo2"), grid)


def test_overflowing_tilt_is_a_spectral_error():
    # the block itself overflows: 4.2 * e^{709.7} > max float
    with pytest.raises(SpectralError, match="tilted block overflows at s=-709.7"):
        scan(equal_rate_generator(4.2), [0.0, -709.7])
    # finite blocks near overflow: both jumps of a two-state chain with equal
    # rates k counted, so theta = k (e^-s - 1), theta' = -k e^-s, theta'' = k e^-s
    k = 1e-100
    gen = TiltedGenerator([[0.0, k], [k, 0.0]], [[False, True], [True, False]])
    tilt = math.exp(700.0)
    result = scan(gen, [-700.0])
    assert result.theta[0] == pytest.approx(k * (tilt - 1.0), rel=1e-14)
    assert result.activity[0] == pytest.approx(k * tilt, rel=1e-14)
    th, d1, d2 = theta_derivatives(gen, -700.0)
    assert (th, d1, d2) == pytest.approx((k * (tilt - 1.0), -k * tilt, k * tilt), rel=1e-14)
    # finite blocks whose theta'' overflows: a derivative of about 1e200
    # couples the top to an eigenvalue 1 below, so theta'' is about 2e400
    huge = FakeGenerator(np.diag([0.0, -1.0]), [[0.0, 1e200], [1e200, 0.0]])
    with pytest.raises(SpectralError, match="non-finite theta.* at s=-700.0"):
        scan(huge, [-700.0])
    with pytest.raises(SpectralError, match="non-finite"):
        theta_derivatives(huge, -700.0)


@pytest.mark.parametrize("name", ["fmo2", "fmo3", "fmo4"])
@pytest.mark.parametrize("temp", TEMPS)
def test_poisson_limit(name, temp):
    gen = make_generator(name, temp)
    assert abs(mandel(gen, 12.0)) < 0.05


def test_parameter_scan_temperature_family():
    basis = diagonalize(preset("fmo4"))

    def family(temp):
        return tilted_generator(basis, BathSpec(35.0, 150.0, temp), ["down:a4->a2"])

    result = scan_mandel_vs_parameter(family, (77.0, 150.0, 300.0))
    qs = dict(result.points)
    assert qs[77.0] > 0.0 and qs[150.0] > 0.0 and qs[300.0] < 0.0
    assert result.local_maxima == ((150.0, qs[150.0]),)


def test_parameter_scan_fmo2_stays_negative():
    basis = diagonalize(preset("fmo2"))

    def family(temp):
        return tilted_generator(basis, BathSpec(35.0, 150.0, temp), ["down:a2->a1"])

    result = scan_mandel_vs_parameter(family, (77.0, 150.0, 300.0, 600.0))
    assert all(q < 0.0 for _, q in result.points)


def test_parameter_scan_constant_family():
    gen = make_generator("fmo3")
    result = scan_mandel_vs_parameter(lambda _f: gen, (1.0, 2.0, 3.0))
    qs = [q for _, q in result.points]
    assert qs[0] == pytest.approx(qs[1], rel=1e-12)
    assert qs[1] == pytest.approx(qs[2], rel=1e-12)
    assert result.local_maxima == ()
