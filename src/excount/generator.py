"""Secular Lindblad generator over exciton populations, jump channels, and
the s-tilted rate matrix.

Under the secular structure the exciton populations close on a classical
rate matrix: each transport channel moves population from one exciton to
another, and coherences never feed back into populations.  The largest real
eigenvalue of the tilted generator is therefore the largest real eigenvalue
of the N x N population block, which is the only form built here.  This
holds also when distinct exciton pairs share a transition frequency (a
homogeneous chain, say): grouping their jump operators by frequency only
couples coherences to coherences.

Counting: a channel selector names an ordered exciton pair.  The e^{-s}
counting factor multiplies the population-jump rates of the selected
channels and nothing else.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .bath import BathSpec, gamma
from .model import ExcitonBasis, intensity_factor

__all__ = [
    "DegenerateGapError",
    "SelectorError",
    "JumpChannel",
    "TiltedGenerator",
    "ClassicalTwoState",
    "enumerate_channels",
    "resolve_counted",
    "rate_matrix",
    "tilted_generator",
    "classical_two_state",
]

# Exciton energies closer than this (cm^-1) are degenerate: a transport gap
# at zero mixes populations with coherences, so no rate matrix exists.
GAP_TOL = 1e-9


class DegenerateGapError(ValueError):
    """Two excitons share an energy, so a transition has zero frequency."""


class SelectorError(ValueError):
    """A channel selector does not resolve to an existing channel."""


@dataclass(frozen=True, eq=False)
class JumpChannel:
    """One dissipative transition between exciton states.

    ``omega`` is the signed energy change of the system (energy of the
    destination minus the source) and ``rate`` is gamma(omega) times the
    intensity factor.
    """

    from_exciton: int
    to_exciton: int
    omega: float
    rate: float
    counted: bool = False

    @property
    def pair(self) -> tuple[int, int]:
        return (self.from_exciton, self.to_exciton)

    def __repr__(self):
        flag = ", counted" if self.counted else ""
        return (
            f"JumpChannel(a{self.from_exciton + 1}->a{self.to_exciton + 1}, "
            f"omega={self.omega:.6g}, rate={self.rate:.6g}{flag})"
        )


def enumerate_channels(basis: ExcitonBasis, bath: BathSpec) -> list[JumpChannel]:
    """The N(N-1) ordered transport channels of the secular generator, none
    counted yet.

    Raises DegenerateGapError when two exciton energies lie within GAP_TOL
    (1e-9 cm^-1), i.e. when a transport gap collides with zero.  Distinct
    pairs that share a transition frequency are accepted.
    """
    n = basis.n_excitons
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    channels = []
    for a, b in pairs:
        omega = basis.gap(a, b)
        if abs(omega) < GAP_TOL:
            raise DegenerateGapError(
                f"transition a{a + 1}<->a{b + 1} has zero frequency "
                f"({abs(omega):.3e} cm^-1): the exciton energies are degenerate"
            )
        channels.append(
            JumpChannel(
                from_exciton=a,
                to_exciton=b,
                omega=omega,
                rate=gamma(bath, omega) * intensity_factor(basis, a, b),
            )
        )
    return channels


_DOWN_RE = re.compile(r"^down:a(\d+)->a(\d+)$")
_UP_RE = re.compile(r"^up:a(\d+)->a(\d+)$")
_PAIR_RE = re.compile(r"^pair:a(\d+)<->a(\d+)$")


def _parse_label(text: str, value: str, n: int) -> int:
    idx = int(value) - 1
    if not 0 <= idx < n:
        raise SelectorError(
            f"selector {text!r}: exciton a{value} out of range (model has {n} excitons)"
        )
    return idx


def resolve_counted(channels, selectors) -> tuple[JumpChannel, ...]:
    """Return a channel tuple with counted flags set from the selectors.

    Selector syntax (1-based, ascending-energy exciton labels):
    ``down:a2->a1`` one downward channel, ``up:a1->a2`` one upward channel,
    ``pair:a1<->a2`` both directions, ``all-down`` every downward channel.
    Ordered (from, to) index tuples are accepted programmatically.
    """
    n = max(max(c.from_exciton, c.to_exciton) for c in channels) + 1
    counted_pairs: set[tuple[int, int]] = set()
    for sel in selectors:
        if isinstance(sel, tuple):
            frm, to = sel
            if not (0 <= frm < n and 0 <= to < n):
                raise SelectorError(f"selector {sel}: exciton index out of range")
            counted_pairs.add((frm, to))
            continue
        text = sel.strip()
        if text == "all-down":
            counted_pairs.update(c.pair for c in channels if c.omega < 0)
            continue
        if m := _DOWN_RE.match(text):
            frm = _parse_label(text, m.group(1), n)
            to = _parse_label(text, m.group(2), n)
            if frm <= to:
                raise SelectorError(
                    f"selector {text!r} is not downward (labels ascend in energy)"
                )
            counted_pairs.add((frm, to))
        elif m := _UP_RE.match(text):
            frm = _parse_label(text, m.group(1), n)
            to = _parse_label(text, m.group(2), n)
            if frm >= to:
                raise SelectorError(f"selector {text!r} is not upward")
            counted_pairs.add((frm, to))
        elif m := _PAIR_RE.match(text):
            i = _parse_label(text, m.group(1), n)
            j = _parse_label(text, m.group(2), n)
            if i == j:
                raise SelectorError(f"selector {text!r} names a single exciton")
            counted_pairs.add((i, j))
            counted_pairs.add((j, i))
        else:
            raise SelectorError(
                f"bad channel selector {text!r}; expected down:aJ->aI, "
                "up:aI->aJ, pair:aI<->aJ or all-down"
            )
    if not counted_pairs:
        raise SelectorError("empty counted set: theta(s) would be structure-free")
    existing = {c.pair for c in channels}
    missing = counted_pairs - existing
    if missing:
        raise SelectorError(f"selectors name non-existing channels: {sorted(missing)}")
    return tuple(replace(c, counted=c.pair in counted_pairs) for c in channels)


def rate_matrix(channels, n: int) -> np.ndarray:
    """R[b, a] = transport rate from exciton a to b."""
    rates = np.zeros((n, n))
    for ch in channels:
        rates[ch.to_exciton, ch.from_exciton] += ch.rate
    return rates


class TiltedGenerator:
    """The s-parameterized tilted population block W_s.

    Stores the untilted and counted N x N parts of the block, so
    ``population_block`` is a cheap, pure function of s, or of a whole grid
    of s at once.  All methods are safe to call concurrently.
    """

    def __init__(self, basis: ExcitonBasis, channels):
        channels = tuple(channels)
        if not any(c.counted for c in channels):
            raise SelectorError("tilted generator needs a non-empty counted set")
        self.basis = basis
        self.channels = channels
        n = basis.n_excitons
        self._n = n

        rates = rate_matrix(channels, n)
        self._block_counted = rate_matrix(self.counted_channels, n)
        esc = rates.sum(axis=0)
        self._block_static = rates - self._block_counted - np.diag(esc)

    @property
    def n_excitons(self) -> int:
        return self._n

    @property
    def counted_channels(self) -> tuple[JumpChannel, ...]:
        return tuple(c for c in self.channels if c.counted)

    def population_block(self, s) -> np.ndarray:
        """Classical tilted rate matrix over exciton populations (real).

        A scalar s gives one N x N block, an array of s a stack of blocks
        with the shape of s in front.
        """
        return self._block_static + _tilt(s) * self._block_counted

    def population_block_derivative(self, s) -> np.ndarray:
        """dW/ds, shaped like ``population_block(s)``."""
        return -_tilt(s) * self._block_counted


def _tilt(s) -> np.ndarray:
    """The counting factor e^{-s}, shaped to broadcast against N x N blocks."""
    return np.exp(-np.asarray(s, dtype=float))[..., None, None]


def tilted_generator(basis: ExcitonBasis, bath: BathSpec, counted) -> TiltedGenerator:
    """Enumerate channels, apply counting selectors, return the generator."""
    channels = resolve_counted(enumerate_channels(basis, bath), counted)
    return TiltedGenerator(basis, channels)


def classical_two_state(kappa: float, Gamma: float, s: float) -> np.ndarray:
    """The two-state rate matrix [[-kappa, Gamma e^{-s}], [kappa, -Gamma]]."""
    if kappa <= 0 or Gamma <= 0:
        raise ValueError(f"rates must be positive, got kappa={kappa}, Gamma={Gamma}")
    return np.array([[-kappa, Gamma * math.exp(-s)], [kappa, -Gamma]])


@dataclass(frozen=True)
class ClassicalTwoState:
    """Closed forms for the two-state chain with counting on the Gamma leg.

    ``kappa`` is the upward and ``Gamma`` the downward equilibrium rate;
    detailed balance ties them through the counted jump's signed frequency,
    Gamma = kappa * exp(-beta * omega) with omega < 0 for a downward jump.
    """

    kappa: float
    Gamma: float

    def __post_init__(self):
        if self.kappa <= 0 or self.Gamma <= 0:
            raise ValueError("rates must be positive")

    @classmethod
    def from_channels(cls, channels, bath: BathSpec) -> "ClassicalTwoState":
        """Build from an enumerated two-exciton channel list, with a
        detailed-balance consistency check."""
        channels = list(channels)
        if len(channels) != 2:
            raise ValueError("expected exactly one exciton pair")
        down = next(c for c in channels if c.omega < 0)
        up = next(c for c in channels if c.omega > 0)
        expected = up.rate * math.exp(-bath.beta * down.omega)
        if not math.isclose(down.rate, expected, rel_tol=1e-10):
            raise ValueError("channel rates violate detailed balance")
        return cls(kappa=up.rate, Gamma=down.rate)

    def matrix(self, s: float) -> np.ndarray:
        return classical_two_state(self.kappa, self.Gamma, s)

    def _discriminant(self, s: float) -> float:
        # (kappa+Gamma)^2 - 4 kappa Gamma (1 - e^{-s}), in cancellation-free form
        return (self.kappa - self.Gamma) ** 2 + 4.0 * self.kappa * self.Gamma * math.exp(-s)

    def theta(self, s: float) -> float:
        """Largest eigenvalue of the tilted matrix."""
        return -0.5 * (self.kappa + self.Gamma) + 0.5 * math.sqrt(self._discriminant(s))

    def activity(self, s: float) -> float:
        return self.kappa * self.Gamma * math.exp(-s) / math.sqrt(self._discriminant(s))

    def mandel(self, s: float) -> float:
        """Q(s) = -2 kappa Gamma e^{-s} / [(kappa+Gamma)^2 - 4 kappa Gamma (1-e^{-s})]."""
        return -2.0 * self.kappa * self.Gamma * math.exp(-s) / self._discriminant(s)
