"""Drude-Lorentz bath: spectral density, thermal occupation, jump-rate factor.

Sign convention for gamma(omega): omega is the energy change of the system,
so omega > 0 is an upward (absorbing) transition weighted by n(omega) and
omega < 0 is a downward (emitting) transition weighted by n(|omega|) + 1.
This is the assignment under which the generator's stationary state is the
Boltzmann distribution over excitons.  The functions of omega act
elementwise on arrays; a scalar omega gives a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import KB_CM1_PER_K

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
        for name in ("reorg_energy", "cutoff", "temperature"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def beta(self) -> float:
        """Inverse temperature 1/(kB*T) in cm (the reciprocal of cm^-1)."""
        return 1.0 / (KB_CM1_PER_K * self.temperature)


def _like(omega, value):
    """``value`` as a float when ``omega`` is a scalar, else as an array."""
    return float(value) if np.ndim(omega) == 0 else value


def spectral_density(bath: BathSpec, omega):
    """Drude-Lorentz J(omega) = (2 E_r / pi) * omega * omega_c / (omega^2 + omega_c^2)."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError(f"spectral_density requires omega >= 0, got {omega}")
    return _like(omega, (2.0 * bath.reorg_energy / math.pi) * w * bath.cutoff / (
        w * w + bath.cutoff * bath.cutoff
    ))


def occupation(bath: BathSpec, omega):
    """Bose occupation n(omega) = 1/(exp(beta*omega) - 1) for omega > 0."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0):
        raise ValueError(f"occupation requires omega > 0, got {omega}")
    # exp(-x)/(1 - exp(-x)) stays finite for arbitrarily large beta*omega
    x = bath.beta * w
    return _like(omega, np.exp(-x) / -np.expm1(-x))


def gamma(bath: BathSpec, omega):
    """Bath factor of a jump rate, 2*pi*J(|omega|)*|n(omega)|, in cm^-1.

    Total on the real line: the omega -> 0 limit 4*E_r/(beta*omega_c) is
    used wherever |omega| or beta*|omega| underflows (is below the smallest
    normal double, where n(omega) would overflow or divide by zero), which
    includes omega == 0 (pure dephasing).  Detailed balance
    gamma(-omega) = exp(beta*omega) * gamma(omega) holds exactly: both
    signs share one J(|omega|) and one n(|omega|).
    """
    w = np.asarray(omega, dtype=float)
    out = np.full(w.shape, 4.0 * bath.reorg_energy / (bath.beta * bath.cutoff))
    absw = np.abs(w)
    jump = np.minimum(absw, bath.beta * absw) >= np.finfo(float).tiny
    absw = absw[jump]
    n = occupation(bath, absw) + (w[jump] < 0.0)
    out[jump] = 2.0 * math.pi * spectral_density(bath, absw) * n
    return _like(omega, out)
