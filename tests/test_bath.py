import math

import numpy as np
import pytest
import scipy.integrate

from excount.bath import BathSpec, gamma, occupation, spectral_density
from excount.units import KB_CM1_PER_K
from reference import scalar_gamma


@pytest.fixture
def bath300():
    return BathSpec(reorg_energy=35.0, cutoff=150.0, temperature=300.0)


def test_parameter_validation():
    good = dict(reorg_energy=35.0, cutoff=150.0, temperature=300.0)
    # non-finite values are refused here, not later as a division by zero
    # or as non-finite rates
    non_finite = [(name, bad) for name in good for bad in (math.nan, math.inf, -math.inf)]
    for name, bad in [("reorg_energy", -1.0), ("cutoff", 0.0), ("temperature", -5.0), *non_finite]:
        with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {bad}"):
            BathSpec(**{**good, name: bad})


def test_beta(bath300):
    assert bath300.beta == pytest.approx(1.0 / (KB_CM1_PER_K * 300.0), rel=1e-15)


def test_spectral_density_peak(bath300):
    # J peaks at omega_c with value E_r/pi
    assert spectral_density(bath300, 150.0) == pytest.approx(35.0 / math.pi, rel=1e-14)
    assert spectral_density(bath300, 0.0) == 0.0
    with pytest.raises(ValueError):
        spectral_density(bath300, -1.0)


def test_reorganization_energy_integral(bath300):
    # E_r = integral of J(w)/w: quadrature against the defining identity
    val, _ = scipy.integrate.quad(
        lambda w: spectral_density(bath300, w) / w, 0.0, np.inf
    )
    assert val == pytest.approx(35.0, rel=1e-6)


def test_gamma_zero_frequency_limit(bath300):
    expected = 4.0 * 35.0 / (bath300.beta * 150.0)
    assert gamma(bath300, 0.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(194.61, abs=0.01)
    # the analytic value continues the product 2 pi J(w) n(w)
    assert gamma(bath300, 1e-6) == pytest.approx(expected, rel=1e-6)
    assert abs(gamma(bath300, 1e-8) - gamma(bath300, 0.0)) < 1e-6 * gamma(bath300, 0.0)
    assert abs(gamma(bath300, -1e-8) - gamma(bath300, 0.0)) < 1e-6 * gamma(bath300, 0.0)


@pytest.mark.parametrize("temp", [77.0, 150.0, 300.0])
@pytest.mark.parametrize("omega", [1.0, 50.0, 212.5, 500.0, 2000.0])
def test_detailed_balance(temp, omega):
    bath = BathSpec(35.0, 150.0, temp)
    ratio = gamma(bath, -omega) / gamma(bath, omega)
    assert ratio == pytest.approx(math.exp(bath.beta * omega), rel=1e-12)


def test_detailed_balance_fmo2_gap():
    bath = BathSpec(35.0, 150.0, 300.0)
    omega = math.sqrt(120.0**2 + 4.0 * 87.7**2)
    assert gamma(bath, -omega) / gamma(bath, omega) == pytest.approx(
        math.exp(bath.beta * omega), rel=1e-12
    )


def test_high_temperature_expansion():
    # gamma(w) -> 2 pi J(w) kB T / w for beta*w << 1
    bath = BathSpec(35.0, 150.0, 3000.0)
    omega = 50.0
    classical = 2.0 * math.pi * spectral_density(bath, omega) * KB_CM1_PER_K * 3000.0 / omega
    assert gamma(bath, omega) == pytest.approx(classical, rel=0.02)


def test_gamma_positive_and_decaying(bath300):
    omegas = [-1000.0, -10.0, -0.1, 0.0, 0.1, 10.0, 1000.0]
    assert all(gamma(bath300, w) > 0.0 for w in omegas)
    assert gamma(bath300, 1e6) < 1e-6


def test_occupation_domain(bath300):
    with pytest.raises(ValueError):
        occupation(bath300, 0.0)
    assert occupation(bath300, 208.51044) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-6)



def test_gamma_over_arrays(bath300):
    omegas = np.array([[-3e3, -75.0, -1e-8], [0.0, 1e-8, 75.0], [150.0, 900.0, 3e3]])
    values = gamma(bath300, omegas)  # omega = 0 inside an array warns of nothing
    assert values.shape == omegas.shape
    expected = np.array([scalar_gamma(bath300, float(w)) for w in omegas.ravel()])
    eps = np.finfo(float).eps
    assert np.all(np.abs(values.ravel() - expected) <= 4 * eps * expected)
    assert values[1, 0] == gamma(bath300, 0.0)
    # both signs share J(|omega|) and n(|omega|): detailed balance elementwise
    np.testing.assert_allclose(
        gamma(bath300, -omegas) / values, np.exp(bath300.beta * omegas), rtol=1e-12
    )
    assert type(gamma(bath300, 75.0)) is float
    assert type(gamma(bath300, np.float64(0.0))) is float


@pytest.mark.parametrize("temperature", [0.01, 1.0, 300.0, 1e6])
def test_gamma_where_beta_omega_underflows_is_the_zero_limit(temperature):
    bath = BathSpec(35.0, 150.0, temperature)
    limit = 4.0 * 35.0 / (bath.beta * 150.0)
    tiny = np.finfo(float).tiny
    # beta*|omega| and |omega| below the smallest normal double, or 0
    underflows = [5e-324, -5e-324, 0.0, 1e-310, -1e-310, 0.5 * tiny / bath.beta]
    for omega in underflows:
        value = gamma(bath, omega)
        assert isinstance(value, float) and value == limit
    assert gamma(bath, np.array(underflows)).tolist() == [limit] * len(underflows)
    mixed = gamma(bath, np.array([5e-324, 1.0, -5e-324, -1.0]))
    assert mixed.tolist() == [limit, gamma(bath, 1.0), limit, gamma(bath, -1.0)]
    # just above the underflow the closed form agrees with the limit
    for omega in (1e-300, -1e-300, 2.0 * tiny / min(bath.beta, 1.0)):
        assert abs(gamma(bath, omega) - limit) <= 1e-15 * limit
