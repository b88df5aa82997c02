"""Spectroscopic unit constants (energies and rates in cm^-1, hbar = 1).

The inverse temperature 1/(kB*T) in cm is ``bath.BathSpec.beta``, next to
the one check that the temperature is positive.
"""

import math

# Boltzmann constant in cm^-1 per kelvin (CODATA, spectroscopic units).
KB_CM1_PER_K = 0.6950348

# Speed of light in cm/ps; a rate of 1 cm^-1 equals 2*pi*c ps^-1.
C_CM_PER_PS = 0.0299792458
CM1_TO_PS1 = 2.0 * math.pi * C_CM_PER_PS


def time_ps_to_cm(t_ps: float) -> float:
    """Convert a time in picoseconds to internal units (1/cm^-1)."""
    return t_ps * CM1_TO_PS1
