"""Reference superoperators and test models shared by the test modules.

The package builds only the N x N population block.  The full N^2 x N^2
secular Lindblad superoperator lives here, built two independent ways, so
tests can pin the block (and its top eigenvalue) against it.  Density
operators are vectorized by column stacking: entry (i, j) sits at index
i + j*N, so the populations sit at a*(N + 1).
"""

import math

import numpy as np

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
            g = gamma(bath, basis.gap(a, b))
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


def kron_reference(gen, bath):
    """The generator rebuilt term by term from dense np.kron sandwiches:
    returns (static, counted) with W_s = static + e^{-s} counted.  ``bath``
    must be the one the generator's channels came from; it sets the
    zero-frequency pure-dephasing rate gamma(0)."""
    basis, n = gen.basis, gen.n_excitons
    eye = np.eye(n)
    ham = np.diag(basis.energies).astype(complex)
    static = -1j * (np.kron(eye, ham) - np.kron(ham, eye))
    counted = np.zeros((n * n, n * n), dtype=complex)
    for ch in gen.channels:
        a, b = ch.from_exciton, ch.to_exciton
        e_ba = np.zeros((n, n))
        e_ba[b, a] = 1.0
        p_a = np.zeros((n, n))
        p_a[a, a] = 1.0
        static -= 0.5 * ch.rate * (np.kron(eye, p_a) + np.kron(p_a, eye))
        if ch.counted:
            counted += ch.rate * np.kron(e_ba, e_ba)
        else:
            static += ch.rate * np.kron(e_ba, e_ba)
    gamma0 = gamma(bath, 0.0)
    for m in range(basis.n_sites):
        d_m = np.diag(basis.amplitudes[m, :] ** 2)
        d_m2 = d_m @ d_m
        static += gamma0 * (
            np.kron(d_m, d_m) - 0.5 * (np.kron(eye, d_m2) + np.kron(d_m2, eye))
        )
    return static, counted


def superoperator(gen, bath, s):
    """The full tilted superoperator W_s from the kron reference."""
    static, counted = kron_reference(gen, bath)
    return static + math.exp(-s) * counted


def population_entries(mat):
    """The N x N block of an N^2 x N^2 superoperator at the population entries."""
    n = math.isqrt(mat.shape[0])
    pop = np.arange(n) * (n + 1)
    return mat[np.ix_(pop, pop)]


def top_eigenvalue(mat):
    return float(np.max(np.linalg.eigvals(mat).real))
