"""Reference superoperators and test models shared by the test modules.

The package builds only the N x N population block.  The full N^2 x N^2
secular Lindblad superoperator lives here, built two independent ways, so
tests can pin the block (and its top eigenvalue) against it.  Density
operators are vectorized by column stacking: entry (i, j) sits at index
i + j*N, so the populations sit at a*(N + 1).

``counting_distribution`` is the exact finite-time distribution of the
counted jumps, a deterministic reference for the trajectory sampler,
``stationary_eig`` the stationary populations from a full eigensolve, and
``legendre_reconstruct`` theta(s) rebuilt from a rate function.

``random_basis`` and ``random_aggregate`` draw seeded site models (the
latter with the couplings 100 / |m - n|^3 of the benchmark aggregates).

``scalar_rates`` is the rate matrix computed one ordered exciton pair at a
time with ``math.exp``, the reference for the array build, and
``ClassicalTwoState`` holds the closed forms of the two-state chain.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import gammaln, pdtrc

from excount.bath import BathSpec, gamma
from excount.model import SiteModel, diagonalize


def random_basis(seed, n_min=2, n_max=6):
    """Seeded random site model with N in [n_min, n_max), and a bath."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max))
    j = rng.normal(scale=40.0, size=(n, n))
    j = np.triu(j, 1)
    model = SiteModel(energies=rng.uniform(0.0, 800.0, size=n), couplings=j + j.T)
    return diagonalize(model), BathSpec(35.0, 150.0, float(rng.uniform(77.0, 400.0)))


def random_aggregate(seed, n):
    """Seeded aggregate of n sites: energies uniform on 0..600 cm^-1,
    couplings 100 / |m - n|^3 cm^-1, and a 35/150 cm^-1 bath at 300 K."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
    np.fill_diagonal(dist, np.inf)
    model = SiteModel(energies=rng.uniform(0.0, 600.0, n), couplings=100.0 / dist**3)
    return diagonalize(model), BathSpec(35.0, 150.0, 300.0)


def homogeneous_chain(n, coupling=100.0):
    """Equal site energies with nearest-neighbour coupling: a nondegenerate
    spectrum whose transition frequencies collide in pairs."""
    j = np.diag(np.full(n - 1, coupling), 1)
    return diagonalize(SiteModel(energies=np.zeros(n), couplings=j + j.T))


def lindblad_direct(basis, bath):
    """Independent untilted construction: act on every basis matrix with
    explicit operator products and column-stack the results."""
    n = basis.n_excitons
    mats = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            g = gamma(bath, basis.gaps[a, b])
            for m in range(basis.n_sites):
                op = np.zeros((n, n))
                op[b, a] = basis.amplitudes[m, b] * basis.amplitudes[m, a]
                mats.append((g, op))
    g0 = gamma(bath, 0.0)
    for m in range(basis.n_sites):
        mats.append((g0, np.diag(basis.amplitudes[m, :] ** 2)))
    ham = np.diag(basis.energies)
    out = np.zeros((n * n, n * n), complex)
    for j in range(n):
        for i in range(n):
            e_ij = np.zeros((n, n), complex)
            e_ij[i, j] = 1.0
            col = -1j * (ham @ e_ij - e_ij @ ham)
            for g, op in mats:
                col += g * (
                    op @ e_ij @ op.conj().T
                    - 0.5 * (op.conj().T @ op @ e_ij + e_ij @ op.conj().T @ op)
                )
            out[:, i + j * n] = col.reshape(n * n, order="F")
    return out


def kron_reference(gen, basis, bath):
    """The generator rebuilt term by term from dense np.kron sandwiches:
    returns (static, counted) with W_s = static + e^{-s} counted.  ``basis``
    and ``bath`` must be the ones the generator's rates came from; the bath
    sets the zero-frequency pure-dephasing rate gamma(0)."""
    n = gen.n_excitons
    eye = np.eye(n)
    ham = np.diag(basis.energies).astype(complex)
    static = -1j * (np.kron(eye, ham) - np.kron(ham, eye))
    counted = np.zeros((n * n, n * n), dtype=complex)
    for a, b in np.argwhere(~np.eye(n, dtype=bool)):  # each jump a -> b
        rate = gen.rates[b, a]
        e_ba = np.zeros((n, n))
        e_ba[b, a] = 1.0
        p_a = np.zeros((n, n))
        p_a[a, a] = 1.0
        static -= 0.5 * rate * (np.kron(eye, p_a) + np.kron(p_a, eye))
        if gen.counted[b, a]:
            counted += rate * np.kron(e_ba, e_ba)
        else:
            static += rate * np.kron(e_ba, e_ba)
    gamma0 = gamma(bath, 0.0)
    for m in range(basis.n_sites):
        d_m = np.diag(basis.amplitudes[m, :] ** 2)
        d_m2 = d_m @ d_m
        static += gamma0 * (
            np.kron(d_m, d_m) - 0.5 * (np.kron(eye, d_m2) + np.kron(d_m2, eye))
        )
    return static, counted


def superoperator(gen, basis, bath, s):
    """The full tilted superoperator W_s from the kron reference."""
    static, counted = kron_reference(gen, basis, bath)
    return static + math.exp(-s) * counted


def population_entries(mat):
    """The N x N block of an N^2 x N^2 superoperator at the population entries."""
    n = math.isqrt(mat.shape[0])
    pop = np.arange(n) * (n + 1)
    return mat[np.ix_(pop, pop)]


def top_eigenvalue(mat):
    return float(np.max(np.linalg.eigvals(mat).real))


def reference_derivatives(gen, s):
    """(theta, theta', theta'') at one s, the way lds computed them before
    batching: scipy's left/right eigensolve of the population block, the
    top eigenpair by the largest real part, and an explicit loop over the
    second-order perturbation sum (each pair normalized by its own <l|r>)."""
    w, vl, vr = scipy.linalg.eig(gen.population_block(s), left=True, right=True)
    dmat = gen.population_block_derivative(s)
    i = int(np.argmax(w.real))
    l0 = vl[:, i].conj()
    r0 = vr[:, i]
    s0 = l0 @ r0
    d1 = (l0 @ dmat @ r0) / s0
    left_all = vl.conj().T @ dmat @ r0
    right_all = l0 @ dmat @ vr
    d2 = -d1
    for j in range(w.size):
        num = right_all[j] * left_all[j]
        if j == i or num == 0.0:
            continue
        sj = vl[:, j].conj() @ vr[:, j]
        d2 += 2.0 * num / ((w[i] - w[j]) * s0 * sj)
    return float(w[i].real), float(d1.real), float(d2.real)


def stationary_eig(rates):
    """Stationary populations of the rate matrix R[b, a] from a full
    ``np.linalg.eig`` of R - diag(escape rates): the eigenvector of the
    eigenvalue with the largest real part, in absolute value, normalized to
    sum 1; uniform when every rate vanishes.  The reference for
    ``lds.stationary``."""
    n = rates.shape[0]
    if not rates.any():
        return np.full(n, 1.0 / n)
    gen = rates - np.diag(rates.sum(axis=0))
    w, v = np.linalg.eig(gen)
    i = int(np.argmax(w.real))
    pi = np.abs(v[:, i].real)
    return pi / pi.sum()


def legendre_reconstruct(rate, s_values):
    """theta_hat(s) = -min_k [phi(k) + k s] from the (k, phi) columns of
    ``lds.rate_function``, one row of the outer sum per s."""
    k, phi = rate
    s = np.asarray(s_values, dtype=float).ravel()
    return -(np.multiply.outer(s, k) + phi).min(axis=1)


def counting_distribution(rates, counted, p0, t, k_max):
    """P_t(K) of the counted jumps of the population chain, by uniformization.

    ``rates[b, a]`` is the rate from exciton a to b (as
    ``TiltedGenerator.rates``) and ``counted[b, a]`` flags the jumps a -> b
    that count.  The chain starts from populations ``p0`` and runs for time
    t.  Returns P_t(K) for K = 0 .. k_max - 1, and P_t(K >= k_max) as entry
    k_max.

    With Lambda the largest escape rate, P = 1 + W / Lambda is a stochastic
    matrix on (exciton, K) and the state at t is sum_m Pois(m; Lambda t) p0
    P^m (Jensen 1953; Grassmann, Comput. Oper. Res. 4, 47 (1977)).  The
    Poisson weights are taken in log space, and the series is cut where
    the omitted weight is below 1e-12, which is checked before the
    propagation starts.  The kept weights are then normalized by their
    exactly rounded sum, so their rounding does not leak into the total.
    """
    rates = np.asarray(rates, dtype=float)
    counted = np.asarray(counted, dtype=bool)
    dist = np.zeros((k_max + 1, rates.shape[0]))
    dist[0] = p0
    esc = rates.sum(axis=0)
    lam = esc.max()
    x = lam * t
    if x == 0.0:
        return dist.sum(axis=1)
    m = np.arange(math.ceil(x + 12.0 * math.sqrt(x) + 40.0))
    log_w = -x + m * math.log(x) - gammaln(m + 1.0)
    omitted = pdtrc(m[-1], x)  # P(Pois(x) > m[-1])
    if not omitted < 1e-12:
        raise ValueError(f"Poisson truncation leaves {omitted:.3g}")
    weights = np.exp(log_w)
    weights /= math.fsum(weights)
    stay = 1.0 - esc / lam
    plain = np.where(counted, 0.0, rates).T / lam
    shift = np.where(counted, rates, 0.0).T / lam
    out = weights[0] * dist
    for w in weights[1:]:
        moved = dist @ shift
        dist = dist * stay + dist @ plain
        dist[1:] += moved[:-1]
        dist[-1] += moved[-1]
        out += w * dist
    return out.sum(axis=1)


def scalar_gamma(bath, omega):
    """gamma(omega) for one float omega, with ``math.exp``: the bath factor
    2 pi J(|omega|) |n(omega)|, and its limit 4 E_r / (beta omega_c) at 0."""
    if omega == 0.0:
        return 4.0 * bath.reorg_energy / (bath.beta * bath.cutoff)
    absw = abs(omega)
    x = bath.beta * absw
    n = math.exp(-x) / -math.expm1(-x)
    if omega < 0:
        n += 1.0
    density = (2.0 * bath.reorg_energy / math.pi) * absw * bath.cutoff / (
        absw * absw + bath.cutoff * bath.cutoff
    )
    return 2.0 * math.pi * density * n


def scalar_rates(basis, bath):
    """R[b, a], the transport rate a -> b, filled by one loop over the
    ordered exciton pairs: gamma at the pair's gap times its intensity
    factor sum_m c_m(a)^2 c_m(b)^2."""
    n = basis.n_excitons
    rates = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a != b:
                ca = basis.amplitudes[:, a]
                cb = basis.amplitudes[:, b]
                factor = float(np.sum(ca * ca * cb * cb))
                rates[b, a] = scalar_gamma(bath, basis.gaps[a, b]) * factor
    return rates


def classical_two_state(kappa, Gamma, s):
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
    def from_rates(cls, rates, basis, bath):
        """Build from a two-exciton rate matrix R[b, a], with a
        detailed-balance consistency check."""
        if np.shape(rates) != (2, 2):
            raise ValueError("expected exactly one exciton pair")
        up, down = float(rates[1, 0]), float(rates[0, 1])
        expected = up * math.exp(bath.beta * basis.gaps[0, 1])
        if not math.isclose(down, expected, rel_tol=1e-10):
            raise ValueError("channel rates violate detailed balance")
        return cls(kappa=up, Gamma=down)

    def matrix(self, s):
        return classical_two_state(self.kappa, self.Gamma, s)

    def _discriminant(self, s):
        # (kappa+Gamma)^2 - 4 kappa Gamma (1 - e^{-s}), in cancellation-free form
        return (self.kappa - self.Gamma) ** 2 + 4.0 * self.kappa * self.Gamma * math.exp(-s)

    def theta(self, s):
        """Largest eigenvalue of the tilted matrix."""
        return -0.5 * (self.kappa + self.Gamma) + 0.5 * math.sqrt(self._discriminant(s))

    def activity(self, s):
        return self.kappa * self.Gamma * math.exp(-s) / math.sqrt(self._discriminant(s))

    def mandel(self, s):
        """Q(s) = -2 kappa Gamma e^{-s} / [(kappa+Gamma)^2 - 4 kappa Gamma (1-e^{-s})]."""
        return -2.0 * self.kappa * self.Gamma * math.exp(-s) / self._discriminant(s)
