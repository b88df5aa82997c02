import math

import numpy as np
import pytest
import scipy.linalg

from excount.bath import BathSpec
from excount.generator import TiltedGenerator, tilted_generator, transport_rates
from excount import lds
from excount.lds import (
    NonConvexThetaWarning,
    ScanPoint,
    SpectralError,
    UndefinedMandelError,
    _mandel_from,
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
    random_basis,
    reference_derivatives,
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
    basis = diagonalize(preset("fmo2"))
    rates = np.array([[0.0, kappa], [kappa, 0.0]])
    return TiltedGenerator(basis, rates, [[False, True], [False, False]])


def test_theta_vanishes_at_s_zero():
    for name in ("fmo2", "fmo3", "fmo4"):
        gen = make_generator(name)
        bath = BathSpec(35.0, 150.0, 300.0)
        assert abs(theta(gen, 0.0)) < 1e-10
        assert abs(top_eigenvalue(superoperator(gen, bath, 0.0))) < 1e-10


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
            full = top_eigenvalue(superoperator(gen, bath, s))
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
    broadcast over an array of s like the real blocks."""

    def __init__(self, mat, dmat=None):
        self.mat = np.asarray(mat)
        self.dmat = np.zeros_like(self.mat) if dmat is None else np.asarray(dmat)
        self.n_excitons = self.mat.shape[-1]

    def population_block(self, s):
        return np.broadcast_to(self.mat, np.shape(s) + self.mat.shape)

    def population_block_derivative(self, s):
        return np.broadcast_to(self.dmat, np.shape(s) + self.dmat.shape)


@pytest.mark.parametrize(
    "gen, message",
    [
        (FakeGenerator([[0.0, -1.0], [1.0, 0.0]]), "ambiguous"),  # eigenvalues +-i
        (FakeGenerator(np.diag([2.0j, -1.0])), "imaginary part"),
        (FakeGenerator([[0.0, 1.0], [0.0, 0.0]]), "defective"),  # Jordan block
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


def test_derivative_guards_raise():
    crowded = FakeGenerator(np.diag([0.0, -1e-10]), [[0.0, 1.0], [1.0, 0.0]])
    complex_slope = FakeGenerator(np.diag([0.0, -1.0]), np.diag([1.0j, 0.0]))
    assert theta(crowded, 0.0) == 0.0
    with pytest.raises(SpectralError, match="crowds"):
        theta_derivatives(crowded, 0.0)
    with pytest.raises(SpectralError, match="complex"):
        theta_derivatives(complex_slope, 0.0)


def test_scan_is_one_eigensolve_per_point(monkeypatch):
    """fmo3 pair:a1<->a2 at 77 K: the top two eigenvalues nearly touch, the
    case where a power iteration stalls; scan must match the full
    superoperator with one batched numpy eigensolve per grid slice, one
    matrix per grid point and no scipy eigensolve."""
    bath = BathSpec(35.0, 150.0, 77.0)
    gen = tilted_generator(diagonalize(preset("fmo3")), bath, ["pair:a1<->a2"])
    grid = default_s_grid()
    original = np.linalg.eig
    # the default slice holds the whole grid; 900 entries make three slices
    for slice_entries in (lds._SLICE_ENTRIES, 9 * 100):
        stacks, scipy_calls = [], []

        def counted(a, *args, **kwargs):
            stacks.append(a.shape[:-2])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(lds, "_SLICE_ENTRIES", slice_entries)
        monkeypatch.setattr(np.linalg, "eig", counted)
        monkeypatch.setattr(scipy.linalg, "eig", lambda *a, **k: scipy_calls.append(a))
        points = scan(gen, grid)
        monkeypatch.undo()
        assert len(stacks) == math.ceil(grid.size / (slice_entries // 9))
        assert sum(math.prod(shape) for shape in stacks) == grid.size
        assert scipy_calls == []
        scale = max(p.activity for p in points)
        for p in points:
            assert abs(p.theta - top_eigenvalue(superoperator(gen, bath, p.s))) <= 1e-10 * scale


def hub_generator(leaves, k_out=3.0, k_in=1.7):
    """A hub exciton with identical leaves, counting every leaf -> hub jump:
    the antisymmetric leaf combinations give a non-top eigenvalue -k_in of
    multiplicity leaves - 1 at every s."""
    basis, _ = random_basis(0, leaves + 1, leaves + 2)
    rates = np.zeros((leaves + 1, leaves + 1))
    rates[1:, 0] = k_out
    rates[0, 1:] = k_in
    counted = np.zeros_like(rates, dtype=bool)
    counted[0, 1:] = True
    return TiltedGenerator(basis, rates, counted)


def reference_case(name):
    kind, _, arg = name.partition("-")
    if kind == "hub":
        return hub_generator(int(arg))
    if kind == "chain":
        n, selector = arg.split("-", 1)
        return tilted_generator(homogeneous_chain(int(n)), BathSpec(35.0, 150.0, 300.0), [selector])
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
]


def assert_matches_reference(gen, grid):
    points = scan(gen, grid)
    scale = np.max(np.abs(np.diag(gen.population_block(0.0))))
    for p in points:
        th, d1, d2 = reference_derivatives(gen, p.s)
        assert abs(p.theta - th) <= 1e-12 * scale
        assert abs(p.activity + d1) <= 1e-12 * scale
        q = _mandel_from(d1, d2)
        assert (p.mandel is None) == (q is None)
        if q is not None:
            assert abs(p.mandel - q) <= 1e-9 * max(1.0, abs(q))
    return points


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_scan_matches_reference_kernel(name):
    gen = reference_case(name)
    assert_matches_reference(gen, default_s_grid())


def test_scan_over_several_slices_matches_pointwise():
    basis, bath = random_basis(3, 30, 31)
    gen = tilted_generator(basis, bath, ["all-down"])
    step = lds._SLICE_ENTRIES // gen.n_excitons**2
    grid = np.linspace(-2.0, 12.0, 2 * step + 5)
    points = assert_matches_reference(gen, grid)
    for p, s in zip(points, grid):
        th, d1, d2 = theta_derivatives(gen, s)
        assert (p.theta, p.activity, p.mandel) == (th, -d1, _mandel_from(d1, d2))


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
    points = scan(gen, grid)
    assert len(points) == 57
    s0 = min(points, key=lambda p: abs(p.s))
    assert abs(s0.theta) < 1e-10
    acts = np.array([p.activity for p in points])
    assert np.all(acts >= 0.0)
    assert np.all(np.diff(acts) <= 1e-9)  # activity non-increasing in s
    thetas = np.array([p.theta for p in points])
    second = thetas[2:] - 2 * thetas[1:-1] + thetas[:-2]
    assert second.min() >= -1e-9  # convexity


def test_scan_marks_undefined_mandel_as_none():
    basis = diagonalize(SiteModel(energies=[0.0, 200.0], couplings=np.zeros((2, 2))))
    bath = BathSpec(35.0, 150.0, 300.0)
    gen = tilted_generator(basis, bath, ["down:a2->a1"])
    points = scan(gen, np.linspace(-1.0, 1.0, 5))
    assert all(p.mandel is None for p in points)
    assert all(p.theta == pytest.approx(0.0, abs=1e-12) for p in points)


def test_rate_function_minimum_at_stationary_activity():
    gen = make_generator("fmo2")
    points = scan(gen, default_s_grid(-2.0, 12.0, 141))
    rf = rate_function(points)
    assert all(p.phi >= 0.0 for p in rf)
    act0 = -theta_derivatives(gen, 0.0)[1]
    at_mean = min(rf, key=lambda p: abs(p.k - act0))
    assert at_mean.phi == pytest.approx(0.0, abs=1e-10)


def test_rate_function_equal_rate_closed_form():
    # eliminating s from k(s) = (kappa/2) e^{-s/2} gives
    # phi(k) = kappa - 2k + 2k ln(2k/kappa)
    kappa = 4.2
    gen = equal_rate_generator(kappa)
    points = scan(gen, np.linspace(-2.0, 8.0, 101))
    rf = rate_function(points)
    for p in rf:
        expected = kappa - 2.0 * p.k + 2.0 * p.k * math.log(2.0 * p.k / kappa)
        assert p.phi == pytest.approx(expected, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("name", ["fmo2", "fmo3"])
def test_legendre_round_trip(name):
    gen = make_generator(name)
    grid = default_s_grid()
    points = scan(gen, grid)
    rf = rate_function(points)
    interior = grid[1:-1]
    rebuilt = legendre_reconstruct(rf, interior)
    reference = np.array([p.theta for p in points])[1:-1]
    assert np.max(np.abs(rebuilt - reference)) < 1e-6 * np.max(np.abs(reference))


def test_rate_function_flags_nonconvex_input():
    fake = [
        ScanPoint(s=0.0, theta=0.0, activity=2.0, mandel=None),
        ScanPoint(s=1.0, theta=1.0, activity=1.0, mandel=None),
        ScanPoint(s=2.0, theta=1.2, activity=0.5, mandel=None),
    ]
    with pytest.warns(NonConvexThetaWarning):
        rate_function(fake)


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
