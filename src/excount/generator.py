"""Secular Lindblad generator, jump channels, and the s-tilted superoperator.

Density operators are vectorized by column stacking: component (i, j) of a
density matrix sits at vector index i + j*N.  Under the secular structure the
exciton populations close on a classical rate matrix and each coherence only
decays and rotates at its own rate.  The full N^2-dimensional tilted
superoperator is therefore the coherence rates on its diagonal plus the N x N
population block embedded at the population entries (a + a*N, b + b*N), and
its largest real eigenvalue is the largest real eigenvalue of the population
block; both forms are exposed.

Counting: a channel selector names an ordered exciton pair.  The e^{-s}
counting factor multiplies the population-jump rates of the selected
channels and nothing else.  Pure-dephasing (zero-frequency) channels enter
the generator but are never countable since they produce no population jump.
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

# Transition frequencies closer than this (cm^-1) would have to share a
# Lindblad operator, which the per-pair channel structure cannot express.
GAP_TOL = 1e-9


class DegenerateGapError(ValueError):
    """Two distinct exciton pairs share a transition frequency."""


class SelectorError(ValueError):
    """A channel selector does not resolve to an existing channel."""


@dataclass(frozen=True, eq=False)
class JumpChannel:
    """One dissipative transition between exciton states.

    ``omega`` is the signed energy change of the system (energy of the
    destination minus the source), ``rate`` is gamma(omega) times the
    intensity factor, and ``site_weights`` holds the per-site exciton
    interference c_m(from) * c_m(to).  Channels with ``from_exciton ==
    to_exciton`` are the pure-dephasing group (omega = 0).
    """

    from_exciton: int
    to_exciton: int
    omega: float
    rate: float
    site_weights: np.ndarray
    counted: bool = False

    @property
    def is_dephasing(self) -> bool:
        return self.from_exciton == self.to_exciton

    @property
    def pair(self) -> tuple[int, int]:
        return (self.from_exciton, self.to_exciton)

    def __repr__(self):
        kind = "dephasing" if self.is_dephasing else "transport"
        flag = ", counted" if self.counted else ""
        return (
            f"JumpChannel({kind} a{self.from_exciton + 1}->a{self.to_exciton + 1}, "
            f"omega={self.omega:.6g}, rate={self.rate:.6g}{flag})"
        )


def enumerate_channels(basis: ExcitonBasis, bath: BathSpec) -> list[JumpChannel]:
    """All jump channels of the secular generator, none counted yet.

    Returns the N(N-1) ordered transport channels followed by the N-member
    zero-frequency dephasing group.  Raises DegenerateGapError when two
    distinct exciton pairs sit closer than 1e-9 cm^-1 in transition
    frequency (including a transport gap colliding with zero).
    """
    n = basis.n_excitons
    amps = basis.amplitudes
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]

    gaps: list[tuple[float, tuple[int, int]]] = []
    for a, b in pairs:
        if a > b:
            continue
        gap = abs(basis.gap(a, b))
        if gap < GAP_TOL:
            raise DegenerateGapError(
                f"transition a{a + 1}<->a{b + 1} has zero frequency "
                f"({gap:.3e} cm^-1), colliding with the dephasing group"
            )
        gaps.append((gap, (a, b)))
    sorted_gaps = sorted(gaps)
    for (g1, p1), (g2, p2) in zip(sorted_gaps, sorted_gaps[1:]):
        if g2 - g1 < GAP_TOL:
            raise DegenerateGapError(
                f"transitions a{p1[0] + 1}<->a{p1[1] + 1} and "
                f"a{p2[0] + 1}<->a{p2[1] + 1} share the frequency "
                f"{g1:.6g} cm^-1 within {GAP_TOL}"
            )

    channels = []
    for a, b in pairs:
        omega = basis.gap(a, b)
        channels.append(
            JumpChannel(
                from_exciton=a,
                to_exciton=b,
                omega=omega,
                rate=gamma(bath, omega) * intensity_factor(basis, a, b),
                site_weights=amps[:, a] * amps[:, b],
            )
        )
    gamma0 = gamma(bath, 0.0)
    for a in range(n):
        channels.append(
            JumpChannel(
                from_exciton=a,
                to_exciton=a,
                omega=0.0,
                rate=gamma0 * intensity_factor(basis, a, a),
                site_weights=amps[:, a] * amps[:, a],
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
    transport = [c for c in channels if not c.is_dephasing]
    n = max(max(c.from_exciton, c.to_exciton) for c in channels) + 1
    counted_pairs: set[tuple[int, int]] = set()
    for sel in selectors:
        if isinstance(sel, tuple):
            frm, to = sel
            if frm == to:
                raise SelectorError(f"cannot count a dephasing channel: {sel}")
            if not (0 <= frm < n and 0 <= to < n):
                raise SelectorError(f"selector {sel}: exciton index out of range")
            counted_pairs.add((frm, to))
            continue
        text = sel.strip()
        if text == "all-down":
            counted_pairs.update(c.pair for c in transport if c.omega < 0)
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
    existing = {c.pair for c in transport}
    missing = counted_pairs - existing
    if missing:
        raise SelectorError(f"selectors name non-existing channels: {sorted(missing)}")
    return tuple(
        replace(c, counted=c.pair in counted_pairs and not c.is_dephasing)
        for c in channels
    )


def rate_matrix(channels, n: int) -> np.ndarray:
    """R[b, a] = transport rate from exciton a to b (dephasing entries skipped)."""
    rates = np.zeros((n, n))
    for ch in channels:
        if not ch.is_dephasing:
            rates[ch.to_exciton, ch.from_exciton] += ch.rate
    return rates


class TiltedGenerator:
    """The s-parameterized family W_s over vectorized density operators.

    Only N x N pieces are stored: the untilted and counted parts of the
    population block and the coherence rates.  ``population_block`` is a
    cheap, pure function of s; ``assemble`` builds the N^2 x N^2 matrix on
    each call (coherence rates on the diagonal plus the embedded population
    block).  All methods are safe to call concurrently.
    """

    def __init__(self, basis: ExcitonBasis, bath: BathSpec, channels):
        channels = tuple(channels)
        if not any(c.counted for c in channels):
            raise SelectorError("tilted generator needs a non-empty counted set")
        if any(c.counted and c.is_dephasing for c in channels):
            raise SelectorError("dephasing channels are not countable")
        self.basis = basis
        self.bath = bath
        self.channels = channels
        n = basis.n_excitons
        self._n = n

        rates = rate_matrix(channels, n)
        self._block_counted = rate_matrix(self.counted_channels, n)
        esc = rates.sum(axis=0)
        self._block_static = rates - self._block_counted - np.diag(esc)

        # Coherence (i, j) rotates at E_i - E_j and decays at half the summed
        # escape rates plus the pure dephasing of the zero-frequency group,
        # (gamma(0)/2) sum_m (|c_m(i)|^2 - |c_m(j)|^2)^2.  Its diagonal
        # (i == j) is overwritten by the population block on assembly.
        weights = basis.amplitudes**2
        dephasing = np.zeros((n, n))
        for w_m in weights:
            dephasing += (w_m[:, None] - w_m[None, :]) ** 2
        energies = basis.energies
        self._coherence = (
            -1j * (energies[:, None] - energies[None, :])
            - 0.5 * (esc[:, None] + esc[None, :])
            - 0.5 * gamma(bath, 0.0) * dephasing
        )

    @property
    def n_excitons(self) -> int:
        return self._n

    @property
    def dimension(self) -> int:
        return self._n * self._n

    @property
    def counted_channels(self) -> tuple[JumpChannel, ...]:
        return tuple(c for c in self.channels if c.counted)

    def _embed(self, block: np.ndarray, coherence: np.ndarray | None = None) -> np.ndarray:
        """N^2 x N^2 matrix with ``block`` at the population entries
        (a + a*N, b + b*N) and, if given, the N x N ``coherence`` array on
        the remaining diagonal (entry (i, j) at index i + j*N)."""
        n = self._n
        out = np.zeros((n * n, n * n), dtype=complex)
        if coherence is not None:
            np.fill_diagonal(out, coherence.ravel(order="F"))
        pop = np.arange(n) * (n + 1)
        out[np.ix_(pop, pop)] = block
        return out

    def assemble(self, s: float) -> np.ndarray:
        """W_s on the N^2-dimensional vectorized space (complex)."""
        block = self._block_static + math.exp(-s) * self._block_counted
        return self._embed(block, self._coherence)

    def assemble_derivative(self, s: float) -> np.ndarray:
        """dW_s/ds: the counted population jumps scaled by -e^{-s}."""
        return self._embed(-math.exp(-s) * self._block_counted)

    def population_block(self, s: float) -> np.ndarray:
        """Classical tilted rate matrix over exciton populations (real)."""
        return self._block_static + math.exp(-s) * self._block_counted

    def population_block_derivative(self, s: float) -> np.ndarray:
        return -math.exp(-s) * self._block_counted


def tilted_generator(basis: ExcitonBasis, bath: BathSpec, counted) -> TiltedGenerator:
    """Enumerate channels, apply counting selectors, return the generator."""
    channels = resolve_counted(enumerate_channels(basis, bath), counted)
    return TiltedGenerator(basis, bath, channels)


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
        transport = [c for c in channels if not c.is_dephasing]
        if len(transport) != 2:
            raise ValueError("expected exactly one exciton pair")
        down = next(c for c in transport if c.omega < 0)
        up = next(c for c in transport if c.omega > 0)
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
