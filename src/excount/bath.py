"""Drude-Lorentz bath: spectral density, thermal occupation, jump-rate factor.

Sign convention for gamma(omega): omega is the energy change of the system,
so omega > 0 is an upward (absorbing) transition weighted by n(omega) and
omega < 0 is a downward (emitting) transition weighted by n(|omega|) + 1.
This is the assignment under which the generator's stationary state is the
Boltzmann distribution over excitons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import beta_cm

__all__ = ["BathSpec", "spectral_density", "occupation", "gamma"]


@dataclass(frozen=True)
class BathSpec:
    """Drude-Lorentz parameters and temperature.

    reorg_energy and cutoff in cm^-1, temperature in kelvin.
    """

    reorg_energy: float
    cutoff: float
    temperature: float

    def __post_init__(self):
        if self.reorg_energy <= 0:
            raise ValueError(f"reorg_energy must be positive, got {self.reorg_energy}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def beta(self) -> float:
        """Inverse temperature in cm."""
        return beta_cm(self.temperature)

    def replace_temperature(self, temperature_K: float) -> "BathSpec":
        return BathSpec(self.reorg_energy, self.cutoff, temperature_K)


def spectral_density(bath: BathSpec, omega: float) -> float:
    """Drude-Lorentz J(omega) = (2 E_r / pi) * omega * omega_c / (omega^2 + omega_c^2)."""
    if omega < 0:
        raise ValueError(f"spectral_density requires omega >= 0, got {omega}")
    return (2.0 * bath.reorg_energy / math.pi) * omega * bath.cutoff / (
        omega * omega + bath.cutoff * bath.cutoff
    )


def occupation(bath: BathSpec, omega: float) -> float:
    """Bose occupation n(omega) = 1/(exp(beta*omega) - 1) for omega > 0."""
    if omega <= 0:
        raise ValueError(f"occupation requires omega > 0, got {omega}")
    # exp(-x)/(1 - exp(-x)) stays finite for arbitrarily large beta*omega
    x = bath.beta * omega
    return math.exp(-x) / -math.expm1(-x)


def gamma(bath: BathSpec, omega: float) -> float:
    """Bath factor of a jump rate, 2*pi*J(|omega|)*|n(omega)|, in cm^-1.

    Total on the real line: the omega -> 0 limit 4*E_r/(beta*omega_c) is
    used at omega == 0 (pure dephasing), and detailed balance
    gamma(-omega) = exp(beta*omega) * gamma(omega) holds exactly.
    """
    if omega == 0.0:
        return 4.0 * bath.reorg_energy / (bath.beta * bath.cutoff)
    absw = abs(omega)
    n = occupation(bath, absw)
    if omega < 0:
        n += 1.0
    return 2.0 * math.pi * spectral_density(bath, absw) * n

