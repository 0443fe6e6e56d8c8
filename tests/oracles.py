"""Independent dense reference implementations used to check the solver.

Everything here is built from explicit Kronecker products of 2x2 Pauli
matrices, deliberately avoiding the package's bitmask element generation,
so agreement between the two paths is a real cross-check.

Index convention matches the package: site 1 is the least significant bit,
a set bit is spin up, composite index = bitmask value.
"""

from functools import lru_cache

import numpy as np
from scipy.linalg import expm

# single-site Paulis in (down, up) index order
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]])
ID = np.eye(2)


def op_on_site(op, site, n):
    """Embed a single-site operator; site 1 must be the last kron factor."""
    out = np.eye(1)
    for k in range(n, 0, -1):
        out = np.kron(out, op if k == site else ID)
    return out


def dense_hamiltonian(model):
    """Full 2^N Hamiltonian of a ChainModel, built bond by bond from krons."""
    n = model.n_spins
    dim = 1 << n
    h = np.zeros((dim, dim))
    for b in model.bonds:
        for coupling, pauli in ((b.jx, SX), (b.jy, SY), (b.jz, SZ)):
            if coupling != 0.0:
                term = op_on_site(pauli, b.i, n) @ op_on_site(pauli, b.j, n)
                h += coupling * np.real(term)
    return h


def sector_masks(n, spec):
    """Ascending bitmasks of a SectorSpec, via string popcounts."""
    all_masks = range(1 << n)
    if spec.kind == "full":
        return np.array(list(all_masks))
    ups = [bin(m).count("1") for m in all_masks]
    if spec.kind == "magnetization":
        return np.array([m for m in all_masks if ups[m] == spec.k])
    want = 0 if spec.parity == "even" else 1
    return np.array([m for m in all_masks if ups[m] % 2 == want])


def dense_sector_block(model, spec):
    h = dense_hamiltonian(model)
    idx = sector_masks(model.n_spins, spec)
    return h[np.ix_(idx, idx)]


def dense_sector_eigvals(model, spec, k=None):
    vals = np.linalg.eigvalsh(dense_sector_block(model, spec))
    return vals if k is None else vals[:k]


@lru_cache(maxsize=None)
def dense_total_spin_squared(n):
    """Full 2^N matrix of S^2, with S = (1/2) sum_i sigma_i, from krons."""
    s2 = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for pauli in (SX, SY, SZ):
        s = 0.5 * sum(op_on_site(pauli, i, n) for i in range(1, n + 1))
        s2 += s @ s
    return np.real(s2)


def dense_total_spin_levels(model, spec):
    """Ascending levels of a magnetization sector block with S = |M|, M = k - N/2."""
    n = model.n_spins
    idx = sector_masks(n, spec)
    spin = abs(spec.k - n / 2.0)
    w, v = np.linalg.eigh(dense_total_spin_squared(n)[np.ix_(idx, idx)])
    block = v[:, np.abs(w - spin * (spin + 1.0)) < 1e-8]
    return np.linalg.eigvalsh(block.T @ dense_sector_block(model, spec) @ block)


def cf4_propagator(h_of_s, tau, steps):
    """Dense CF4:2 propagator of H(s) over physical time tau.

    Step k takes H at the Gauss points (k + 1/2 -+ sqrt(3)/6)/steps and
    applies two expm factors; the first weights the earlier point more.
    """
    dt = tau / steps
    c = np.sqrt(3.0) / 6.0
    a_lo, a_hi = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
    u = np.eye(len(h_of_s(0.0)), dtype=np.complex128)
    for k in range(steps):
        h1, h2 = h_of_s((k + 0.5 - c) / steps), h_of_s((k + 0.5 + c) / steps)
        u = expm(-1j * dt * (a_hi * h1 + a_lo * h2)) @ u
        u = expm(-1j * dt * (a_lo * h1 + a_hi * h2)) @ u
    return u
