"""Secular Lindblad generator over exciton populations: transport rates,
counted jumps, and the s-tilted rate matrix.

Under the secular structure the exciton populations close on a classical
rate matrix: each transport channel moves population from one exciton to
another, and coherences never feed back into populations.  The largest real
eigenvalue of the tilted generator is therefore the largest real eigenvalue
of the N x N population block, which is the only form built here.  This
holds also when distinct exciton pairs share a transition frequency (a
homogeneous chain, say): grouping their jump operators by frequency only
couples coherences to coherences.

The rates are computed in one place, ``transport_rates``, as one N x N
matrix R[b, a] (the rate of the jump a -> b).  ``TiltedGenerator`` holds R
and the boolean mask of the counted jumps; the spectral kernel (``lds``)
and the trajectory sampler (``trajectories.simulate``) both read those two
arrays.

Counting: a channel selector names ordered exciton pairs, and
``resolve_counted`` turns selectors into the counted mask.  The e^{-s}
counting factor multiplies the population-jump rates of the selected
channels and nothing else.
"""

from __future__ import annotations

import functools
import operator
import re

import numpy as np

from .bath import BathSpec, gamma
from .model import ExcitonBasis

__all__ = [
    "DegenerateGapError",
    "SelectorError",
    "TiltedGenerator",
    "transport_rates",
    "resolve_counted",
    "tilted_generator",
]

# Exciton energies closer than this (cm^-1) are degenerate: a transport gap
# at zero mixes populations with coherences, so no rate matrix exists.
GAP_TOL = 1e-9


class DegenerateGapError(ValueError):
    """Two excitons share an energy, so a transition has zero frequency."""


class SelectorError(ValueError):
    """A channel selector does not resolve to an existing channel."""


def transport_rates(basis: ExcitonBasis, bath: BathSpec) -> np.ndarray:
    """R[b, a] = transport rate from exciton a to b, gamma(eps_b - eps_a)
    times the intensity factor of the pair; zero on the diagonal.

    Raises DegenerateGapError when two exciton energies lie within GAP_TOL
    (1e-9 cm^-1), i.e. when a transport gap collides with zero; it names
    the first such pair (a, b) in row-major order.  Distinct pairs that
    share a transition frequency are accepted.
    """
    gaps = basis.gaps
    off = ~np.eye(basis.n_excitons, dtype=bool)
    collide = np.argwhere(off & (np.abs(gaps) < GAP_TOL))
    if collide.size:
        a, b = collide[0]
        raise DegenerateGapError(
            f"transition a{a + 1}<->a{b + 1} has zero frequency "
            f"({abs(gaps[a, b]):.3e} cm^-1): the exciton energies are degenerate"
        )
    return np.where(off, gamma(bath, gaps) * basis.intensity_factors, 0.0).T


_SELECTOR_RE = re.compile(r"^(down|up|pair):a(\d+)(<?->)a(\d+)$")

# Per selector kind: its arrow, the test its (first, second) labels must
# pass, and the refusal where they fail it.
_SELECTOR_KINDS = {
    "down": ("->", operator.gt, "is not downward (labels ascend in energy)"),
    "up": ("->", operator.lt, "is not upward"),
    "pair": ("<->", operator.ne, "names a single exciton"),
}


def _parse_label(text: str, value: str, n: int) -> int:
    idx = int(value) - 1
    if not 0 <= idx < n:
        raise SelectorError(
            f"selector {text!r}: exciton a{value} out of range (model has {n} excitons)"
        )
    return idx


def resolve_counted(n: int, selectors) -> np.ndarray:
    """The N x N counted mask of n excitons: counted[b, a] flags the jump
    a -> b as named by the selector strings (syntax in ``tilted_generator``).

    Raises SelectorError for a bare string in place of the list, a
    selector that is not a string, a malformed selector, an exciton out of
    range, a selector naming a single exciton, and an empty counted set.
    """
    if isinstance(selectors, str):
        raise SelectorError(f"expected a list of selector strings, got the string {selectors!r}")
    counted = np.zeros((n, n), dtype=bool)
    for sel in selectors:
        if not isinstance(sel, str):
            raise SelectorError(f"channel selector {sel!r} is not a string")
        text = sel.strip()
        if text == "all-down":
            counted[np.triu_indices(n, 1)] = True  # to < from: labels ascend in energy
            continue
        m = _SELECTOR_RE.match(text)
        if not m or m[3] != _SELECTOR_KINDS[m[1]][0]:
            raise SelectorError(
                f"bad channel selector {text!r}; expected down:aJ->aI, "
                "up:aI->aJ, pair:aI<->aJ or all-down"
            )
        _, valid, refusal = _SELECTOR_KINDS[m[1]]
        frm, to = _parse_label(text, m[2], n), _parse_label(text, m[4], n)
        if not valid(frm, to):
            raise SelectorError(f"selector {text!r} {refusal}")
        counted[to, frm] = True
        if m[1] == "pair":
            counted[frm, to] = True
    if not counted.any():
        raise SelectorError("empty counted set: theta(s) would be structure-free")
    return counted


class TiltedGenerator:
    """The s-parameterized tilted population block W_s.

    Built from the rate matrix ``rates`` (R[b, a], a -> b) and the boolean
    mask ``counted`` of the counted jumps, shaped like it.  Both are kept
    as attributes: the spectral kernel and the trajectory sampler read the
    same two arrays.  Stores the untilted and counted N x N parts of the
    block, so ``population_block`` is a cheap, pure function of s, or of a
    whole grid of s at once.  All methods are safe to call concurrently.

    Leading axes of ``rates`` (shape (..., N, N)) are task axes: one
    generator then holds a stack of tasks, say one per (temperature,
    channel), whose blocks the spectral kernel solves in one stacked call.
    Every task needs a zero diagonal in ``rates`` and in ``counted`` (no
    self-jumps) and a counted jump.
    """

    def __init__(self, rates, counted):
        rates = np.array(rates, dtype=float, order="C")  # sets how column sums round
        counted = np.array(counted, dtype=bool)
        shape = rates.shape
        if rates.ndim < 2 or shape[-2] != shape[-1] or counted.shape != shape:
            raise ValueError(
                f"rates and counted must be (..., N, N), got {shape} and {counted.shape}"
            )
        if not np.all(np.isfinite(rates) & (rates >= 0.0)):
            raise ValueError("channel rates must be finite and non-negative")
        if np.diagonal(rates, axis1=-2, axis2=-1).any():
            raise ValueError("no self-jump rates: the diagonal of rates must be 0")
        if np.diagonal(counted, axis1=-2, axis2=-1).any():
            raise ValueError("no counted self-jumps: the diagonal of counted must be False")
        if not counted.any(axis=(-2, -1)).all():
            raise SelectorError("tilted generator needs a non-empty counted set")
        self.rates = rates
        self.counted = counted
        self._block_counted = np.where(counted, rates, 0.0)
        esc = rates.sum(axis=-2)
        diag = esc[..., None, :] * np.eye(shape[-1])
        self._block_static = rates - self._block_counted - diag

    @property
    def n_excitons(self) -> int:
        return self.rates.shape[-1]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """The shape of the task axes; () for a single task."""
        return self.rates.shape[:-2]

    def tasks(self) -> list["TiltedGenerator"]:
        """One single-task generator per task, in C order of the task axes."""
        if not self.batch_shape:
            return [self]
        n = self.n_excitons
        return [
            TiltedGenerator(r, c)
            for r, c in zip(self.rates.reshape(-1, n, n), self.counted.reshape(-1, n, n))
        ]

    @functools.cached_property
    def graphs(self) -> tuple[tuple[np.ndarray, tuple[np.ndarray, ...]], ...]:
        """The tasks grouped by jump graph (nonzero rates): per distinct
        graph, in order of its first task, the flat indices of its tasks (C
        order of the task axes) and its ``strong_classes``.  Tasks at very
        low temperature can lose upward rates to underflow, so the tasks of
        one stack need not share a graph."""
        n = self.n_excitons
        support = (self.rates != 0.0).reshape(-1, n, n)
        left, groups = np.arange(len(support)), []
        while left.size:
            same = (support[left] == support[left[0]]).all(axis=(-2, -1))
            groups.append((left[same], strong_classes(support[left[0]])))
            left = left[~same]
        return tuple(groups)

    def population_block(self, s) -> np.ndarray:
        """Classical tilted rate matrix over exciton populations (real).

        A scalar s gives one N x N block per task, an array of s a stack of
        blocks: the shape of s broadcasts against the task axes, so for a
        single task the shape of s is in front of N x N.
        """
        return self._block_static + _tilt(s) * self._block_counted

    def population_block_derivative(self, s) -> np.ndarray:
        """dW/ds, shaped like ``population_block(s)``."""
        return -_tilt(s) * self._block_counted


def strong_classes(support) -> tuple[np.ndarray, ...]:
    """The strongly connected classes of the N x N graph with an edge
    a -> b wherever ``support[b, a]`` is true, each as the ascending array
    of its excitons, ordered by their first exciton; reachability squares a
    0/1 matrix until it stops growing."""
    support = np.asarray(support, dtype=bool)
    reach, grown = None, support | np.eye(support.shape[-1], dtype=bool)
    while not np.array_equal(reach, grown):
        reach = grown
        one = reach.astype(float)
        grown = one @ one > 0.0
    first = (reach & reach.T).argmax(axis=1)  # the first exciton of each one's class
    return tuple(np.flatnonzero(first == a) for a in range(first.size) if first[a] == a)


def _tilt(s) -> np.ndarray:
    """The counting factor e^{-s}, shaped to broadcast against N x N blocks;
    ValueError for a complex s, whose imaginary part a cast would drop."""
    s = np.asarray(s)
    if np.iscomplexobj(s):
        raise ValueError(f"s must be real, got {s.dtype} values")
    return np.exp(-s.astype(float, copy=False))[..., None, None]


def tilted_generator(basis: ExcitonBasis, bath: BathSpec, counted) -> TiltedGenerator:
    """The generator of ``transport_rates`` with the jumps named by the
    ``counted`` selectors counted.

    Selector syntax (1-based, ascending-energy exciton labels):
    ``down:a2->a1`` one downward channel, ``up:a1->a2`` one upward channel,
    ``pair:a1<->a2`` both directions, ``all-down`` every downward channel.
    """
    rates = transport_rates(basis, bath)
    return TiltedGenerator(rates, resolve_counted(basis.n_excitons, counted))
