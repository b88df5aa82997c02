"""Spectroscopic unit constants (energies and rates in cm^-1, hbar = 1)."""

import math

# Boltzmann constant in cm^-1 per kelvin (CODATA, spectroscopic units).
KB_CM1_PER_K = 0.6950348

# Speed of light in cm/ps; a rate of 1 cm^-1 equals 2*pi*c ps^-1.
C_CM_PER_PS = 0.0299792458
CM1_TO_PS1 = 2.0 * math.pi * C_CM_PER_PS


def beta_cm(temperature_K: float) -> float:
    """Inverse temperature 1/(kB*T) in cm (the reciprocal of cm^-1)."""
    if temperature_K <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_K}")
    return 1.0 / (KB_CM1_PER_K * temperature_K)


def time_ps_to_cm(t_ps: float) -> float:
    """Convert a time in picoseconds to internal units (1/cm^-1)."""
    return t_ps * CM1_TO_PS1
