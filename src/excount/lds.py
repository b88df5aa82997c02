"""Spectral large-deviation toolkit for tilted jump generators.

theta(s), the scaled cumulant generating function of the counted-jump
statistics, is the largest real eigenvalue of the tilted generator, taken
from its N x N population block with one left/right eigensolve per s.  The
mean jump rate is -theta'(0), the variance rate theta''(0), and the Mandel
parameter Q(s) = -theta''(s)/theta'(s) - 1 flags sub- (Q<0) versus
super-Poissonian (Q>0) trajectory ensembles.  The rate function phi(k) is
the Legendre transform of theta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .generator import TiltedGenerator

__all__ = [
    "SpectralError",
    "UndefinedMandelError",
    "NonConvexThetaWarning",
    "ScanPoint",
    "RateFunctionPoint",
    "CrossoverReport",
    "ParameterScan",
    "theta",
    "theta_derivatives",
    "mandel",
    "scan",
    "rate_function",
    "legendre_reconstruct",
    "find_crossover",
    "scan_mandel_vs_parameter",
    "default_s_grid",
]

# Default scan range; matches the figure-style window on the inactive side.
S_MIN_DEFAULT = -2.0
S_MAX_DEFAULT = 12.0
S_POINTS_DEFAULT = 281


class SpectralError(RuntimeError):
    """Top eigenvalue of the tilted generator is ambiguous or defective."""


class UndefinedMandelError(ValueError):
    """Mandel parameter requested where the activity vanishes."""


class NonConvexThetaWarning(UserWarning):
    """Numerical theta(s) violated convexity beyond tolerance."""


@dataclass(frozen=True)
class ScanPoint:
    """One s-grid sample: theta, activity -theta'(s), and Mandel Q(s)."""

    s: float
    theta: float
    activity: float
    mandel: float | None


@dataclass(frozen=True)
class RateFunctionPoint:
    """Legendre-transform sample phi(k) at jump rate k (both cm^-1)."""

    k: float
    phi: float


@dataclass(frozen=True)
class CrossoverReport:
    """Sign change of Q(s) (if any) plus the strongest local maximum of Q."""

    s_star: float | None
    q_at_zero: float
    local_max: tuple[float, float] | None


@dataclass(frozen=True)
class ParameterScan:
    """Q(0) versus an external parameter, with grid-local maxima."""

    points: tuple[tuple[float, float], ...]
    local_maxima: tuple[tuple[float, float], ...]


def default_s_grid(
    s_min: float = S_MIN_DEFAULT,
    s_max: float = S_MAX_DEFAULT,
    n_points: int = S_POINTS_DEFAULT,
) -> np.ndarray:
    return np.linspace(s_min, s_max, n_points)


def _eig_pieces(generator: TiltedGenerator, s: float):
    """One left/right eigensolve of the tilted population block at s.

    Returns the eigenvalues, left and right eigenvectors, the index of the
    top eigenvalue and dW/ds.  The top eigenpair must be real, unambiguous
    and non-defective, else SpectralError.
    """
    w, vl, vr = scipy.linalg.eig(generator.population_block(s), left=True, right=True)
    i = int(np.argmax(w.real))
    top = w[i]
    near = w[np.abs(w.real - top.real) < 1e-12]
    if near.size > 1 and np.any(np.abs(near.imag) > 1e-9):
        raise SpectralError(
            f"ambiguous top eigenvalue: {near.size} eigenvalues share the real "
            f"part {top.real:.6g} with nonzero imaginary parts at s={s}"
        )
    if abs(top.imag) > 1e-9:
        raise SpectralError(f"top eigenvalue has imaginary part {top.imag:.3e} at s={s}")
    l = vl[:, i].conj()
    r = vr[:, i]
    if abs(l @ r) < 1e-12 * np.linalg.norm(l) * np.linalg.norm(r):
        raise SpectralError(f"defective top eigenpair at s={s}")
    return w, vl, vr, i, generator.population_block_derivative(s)


def _real(value: complex, name: str, s: float) -> float:
    if abs(np.imag(value)) > 1e-9 * max(1.0, abs(value)):
        raise SpectralError(f"{name}({s}) came out complex: {value}")
    return float(np.real(value))


def _mandel_from(d1: float, d2: float) -> float | None:
    """Q = -theta''/theta' - 1, or None where the activity vanishes."""
    return None if abs(d1) < 1e-14 else -d2 / d1 - 1.0


def theta(generator: TiltedGenerator, s: float) -> float:
    """theta(s): largest real eigenvalue of the tilted population block."""
    w, _, _, i, _ = _eig_pieces(generator, s)
    return float(w[i].real)


def theta_derivatives(generator: TiltedGenerator, s: float) -> tuple[float, float, float]:
    """(theta, theta', theta'') at the given s, from one eigensolve.

    theta' comes from the eigenvector identity <l|dW/ds|r>/<l|r>, theta''
    from the exact second-order eigenvalue-perturbation sum over the
    remaining eigenpairs.
    """
    w, vl, vr, i, dmat = _eig_pieces(generator, s)
    top = w[i]
    l0 = vl[:, i].conj()
    r0 = vr[:, i]
    s0 = l0 @ r0
    d1 = _real((l0 @ dmat @ r0) / s0, "theta'", s)
    # d2W/ds2 = -dW/ds for an exponential tilt, so the diagonal term is -d1;
    # the cross terms are the usual second-order perturbation sum.
    left_all = vl.conj().T @ dmat @ r0
    right_all = l0 @ dmat @ vr
    d2 = -d1
    for j in range(w.size):
        if j == i:
            continue
        num = right_all[j] * left_all[j]
        if num == 0.0:
            continue
        denom = top - w[j]
        if abs(denom) < 1e-9:
            raise SpectralError(
                f"eigenvalue {w[j]:.6g} crowds the top eigenvalue at s={s}"
            )
        sj = vl[:, j].conj() @ vr[:, j]
        d2 += 2.0 * num / (denom * s0 * sj)
    return float(top.real), d1, _real(d2, "theta''", s)


def mandel(generator: TiltedGenerator, s: float) -> float:
    """Q(s) = -theta''(s)/theta'(s) - 1."""
    _, d1, d2 = theta_derivatives(generator, s)
    q = _mandel_from(d1, d2)
    if q is None:
        raise UndefinedMandelError(f"activity vanishes at s={s}; Q undefined")
    return q


def scan(generator: TiltedGenerator, s_values) -> list[ScanPoint]:
    """Evaluate theta, activity and Mandel Q on a grid of s values."""
    points = []
    for s in np.asarray(s_values, dtype=float):
        th, d1, d2 = theta_derivatives(generator, s)
        q = _mandel_from(d1, d2)
        points.append(ScanPoint(s=float(s), theta=th, activity=-d1, mandel=q))
    return points


def _check_convexity(s: np.ndarray, th: np.ndarray, tol: float = 1e-9) -> bool:
    second = th[2:] - 2.0 * th[1:-1] + th[:-2]
    return bool(second.size == 0 or second.min() >= -tol)


def rate_function(scan_points) -> list[RateFunctionPoint]:
    """Legendre transform of a theta scan: samples of phi on the scanned
    activity range, via phi(k(s)) = -theta(s) - s*k(s).

    The parametric values are cross-checked against the direct grid
    minimum -min_s[theta(s) + k s]; a convexity violation of the numerical
    theta triggers a NonConvexThetaWarning and the result is still
    returned.
    """
    pts = sorted(scan_points, key=lambda p: p.s)
    s = np.array([p.s for p in pts])
    th = np.array([p.theta for p in pts])
    k = np.array([p.activity for p in pts])
    convex = _check_convexity(s, th)
    if not convex:
        warnings.warn(
            "theta(s) is not numerically convex; rate function may be unreliable",
            NonConvexThetaWarning,
            stacklevel=2,
        )
    phi = -th - s * k
    # Direct transform on the same grid; equals the parametric value when
    # theta is convex (the touching point is a grid point).
    direct = -(th[None, :] + np.outer(k, s)).min(axis=1)
    mismatch = float(np.max(np.abs(direct - phi)))
    if convex and mismatch > 1e-9 * max(1.0, float(np.max(np.abs(th)))):
        warnings.warn(
            f"parametric and direct Legendre transforms disagree by {mismatch:.3e}",
            NonConvexThetaWarning,
            stacklevel=2,
        )
    phi = np.where((phi < 0.0) & (phi > -1e-9), 0.0, phi)
    order = np.argsort(k)
    return [RateFunctionPoint(k=float(k[i]), phi=float(phi[i])) for i in order]


def legendre_reconstruct(rate_points, s_values) -> np.ndarray:
    """Rebuild theta_hat(s) = -min_k [phi(k) + k*s] from a phi grid."""
    k = np.array([p.k for p in rate_points])
    phi = np.array([p.phi for p in rate_points])
    s = np.asarray(s_values, dtype=float)
    return -(phi[None, :] + np.outer(s, k)).min(axis=1)


def _bisect_sign_change(f, lo: float, hi: float, f_lo: float, tol: float = 1e-6) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_crossover(generator: TiltedGenerator, s_grid) -> CrossoverReport:
    """Locate sign changes and local maxima of Q(s) on the given grid.

    The first sign change of Q is refined by bisection to 1e-6 in s; the
    strongest interior local maximum of Q (a phase-coexistence indicator)
    is refined by bounded minimization.  Absent features are reported as
    None rather than raised.
    """
    s = np.asarray(s_grid, dtype=float)
    if s.size < 32:
        raise ValueError(f"s grid needs at least 32 points, got {s.size}")
    if not np.all(np.isfinite(s)):
        raise ValueError("s grid must be finite")
    s = np.sort(s)
    q = np.array([mandel(generator, x) for x in s])

    s_star = None
    for i in range(s.size - 1):
        if q[i] == 0.0:
            s_star = float(s[i])
            break
        if (q[i] < 0) != (q[i + 1] < 0):
            s_star = float(
                _bisect_sign_change(lambda x: mandel(generator, x), s[i], s[i + 1], q[i])
            )
            break

    local_max = None
    best_q = -np.inf
    for i in range(1, s.size - 1):
        if q[i] > q[i - 1] and q[i] >= q[i + 1] and q[i] > best_q:
            res = scipy.optimize.minimize_scalar(
                lambda x: -mandel(generator, x),
                bounds=(s[i - 1], s[i + 1]),
                method="bounded",
                options={"xatol": 1e-8},
            )
            local_max = (float(res.x), float(-res.fun))
            best_q = q[i]

    return CrossoverReport(
        s_star=s_star, q_at_zero=mandel(generator, 0.0), local_max=local_max
    )


def scan_mandel_vs_parameter(family, values) -> ParameterScan:
    """Q at s=0 across a family of generators indexed by a control parameter.

    ``family`` maps a parameter value to a TiltedGenerator; grid-local
    maxima of Q(0) are reported as phase-coexistence candidates.
    """
    points = tuple((float(v), mandel(family(v), 0.0)) for v in values)
    q = [p[1] for p in points]
    maxima = tuple(
        points[i]
        for i in range(1, len(points) - 1)
        if q[i] > q[i - 1] and q[i] >= q[i + 1]
    )
    return ParameterScan(points=points, local_maxima=maxima)
