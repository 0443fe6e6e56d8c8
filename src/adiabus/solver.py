"""Sector-restricted sparse Hamiltonians, eigenpairs, and time evolution.

Matrix elements follow the Pauli convention (sigma eigenvalues +-1).  Per
bond (i, j):

* diagonal      jz * z_i * z_j
* anti-aligned  jx + jy   between states differing by a flip of opposite
                spins at i and j (conserves the up count)
* aligned       jx - jy   between states differing by a simultaneous flip
                of equal spins (changes the up count by two)

On a total-spin basis (standard Young tableaux, see ``basis``) a bond must
be isotropic, jx = jy = jz = J, and is J (2 P_ij - 1), where P_ij swaps
sites i and j and acts by Young's orthogonal form.

Every Hamiltonian in scope is real symmetric in the computational basis,
and each sector block is one CSR matrix whose pattern holds every diagonal
slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import (
    MAGNETIZATION,
    TOTAL_SPIN,
    SectorBasis,
    SectorSpec,
    StateVector,
    enumerate_sector,
)
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonConservingSector,
    NormDrift,
)
from .model import ChainModel, ProtocolSpec

_BREAKDOWN = 1e-13


def _pair_structure(basis: SectorBasis, i: int, j: int, with_double_flip: bool):
    """Per-(i,j) element structure on a sector basis.

    Returns (zz, flip_rows, flip_cols, dflip_rows, dflip_cols) where zz is
    the per-state z_i*z_j product and the index arrays address symmetric
    off-diagonal entries (both triangles included).
    """
    states = basis.states
    bi, bj = i - 1, j - 1
    zi = ((states >> bi) & 1) * 2 - 1
    zj = ((states >> bj) & 1) * 2 - 1
    zz = (zi * zj).astype(np.float64)
    mask = (1 << bi) | (1 << bj)

    rows = np.nonzero(zi != zj)[0]
    partners = states[rows] ^ mask
    cols = np.searchsorted(states, partners)
    # anti-aligned flips stay inside every supported sector kind
    drows = dcols = np.empty(0, dtype=np.int64)
    if with_double_flip:
        drows = np.nonzero(zi == zj)[0]
        dpartners = states[drows] ^ mask
        dcols = np.searchsorted(states, dpartners)
    return zz, rows, cols, drows, dcols


def _adjacent_swap(basis: SectorBasis, m: int) -> sp.csr_matrix:
    """Swap of sites m and m+1 on a total-spin basis, in Young's orthogonal form.

    With r = content(m+1) - content(m) in a tableau T (content = column - row),
    the swap maps T to T / r + sqrt(1 - 1/r^2) T', where T' exchanges m and
    m+1; T' is standard exactly when |r| > 1.
    """
    states = basis.states
    # row-2 numbers below m (bitwise_count returns uint8, which would wrap below)
    below = np.bitwise_count(states & ((1 << (m - 1)) - 1)).astype(np.int64)
    row_m = (states >> (m - 1)) & 1
    row_next = (states >> m) & 1
    content_m = np.where(row_m == 1, below - 1, m - 1 - below)
    below_next = below + row_m
    content_next = np.where(row_next == 1, below_next - 1, m - below_next)
    r = (content_next - content_m).astype(np.float64)
    dim = basis.dimension
    rows = np.nonzero(np.abs(r) > 1.0)[0]
    cols = np.searchsorted(states, states[rows] ^ (3 << (m - 1)))
    return sp.csr_matrix(
        (
            np.concatenate([1.0 / r, np.sqrt(1.0 - 1.0 / r[rows] ** 2)]),
            (np.concatenate([np.arange(dim), rows]), np.concatenate([np.arange(dim), cols])),
        ),
        shape=(dim, dim),
    )


def _swap(basis: SectorBasis, i: int, j: int) -> sp.csr_matrix:
    """P_ij on a total-spin basis.

    P_ij = s_{j-1} P_{i,j-1} s_{j-1}, with s_m the adjacent swap of m and m+1.
    """
    if j == i + 1:
        return _adjacent_swap(basis, i)
    s = _adjacent_swap(basis, j - 1)
    p = s @ _swap(basis, i, j - 1) @ s
    # symmetric up to rounding; averaging makes it exactly so
    p = (0.5 * (p + p.T)).tocsr()
    p.sort_indices()
    return p


def _bond_entries(basis: SectorBasis, b):
    """(diagonal, [(rows, cols, values), ...]) of one bond on a sector basis.

    The diagonal is an array over the basis or a scalar added to every slot;
    the runs are off-diagonal entries (both triangles), and on a total-spin
    basis also diagonal ones.  There P_ij depends on the basis alone, so its
    COO triples are kept on the basis, for the built bonds only.
    """
    kind = basis.spec.kind
    if kind == TOTAL_SPIN:
        if b.pair not in basis.swaps:
            p = _swap(basis, b.i, b.j).tocoo()
            basis.swaps[b.pair] = (p.row, p.col, p.data)
        rows, cols, data = basis.swaps[b.pair]
        return -b.jz, [(rows, cols, 2.0 * b.jz * data)]
    zz, fr, fc, dr, dc = _pair_structure(
        basis, b.i, b.j, with_double_flip=(kind != MAGNETIZATION and b.jx != b.jy)
    )
    runs = [(r, c, np.full(len(r), w))
            for r, c, w in ((fr, fc, b.jx + b.jy), (dr, dc, b.jx - b.jy))
            if w != 0.0 and len(r)]
    return b.jz * zz, runs


def _compile_terms(n_spins: int, groups, basis: SectorBasis):
    """Sector blocks of K bond groups on one shared, sorted CSR pattern.

    Returns (data, indices, indptr): group k's block is the CSR matrix
    (data[k], indices, indptr), in the index type scipy keeps uncopied.  The
    pattern holds every row's diagonal slot, so one CSR with data c @ data is
    sum_k c_k H_k.  Entries of one group on one slot add up.
    """
    if basis.spec.n_spins != n_spins:
        raise DimensionMismatch("basis and Hamiltonian disagree on the number of spins")
    all_bonds = [b for bonds in groups for b in bonds]
    if basis.spec.kind == MAGNETIZATION and any(b.jx != b.jy for b in all_bonds):
        raise NonConservingSector(
            "jx != jy does not conserve magnetization; use a parity or full basis"
        )
    if basis.spec.kind == TOTAL_SPIN and any(not b.jx == b.jy == b.jz for b in all_bonds):
        raise NonConservingSector(
            "only isotropic bonds (jx = jy = jz) conserve total spin; "
            "use a magnetization, parity or full basis"
        )
    dim = basis.dimension
    diag = np.zeros((len(groups), dim))
    rows, cols, term, vals = [], [], [], []
    for k, bonds in enumerate(groups):
        for b in bonds:
            d, runs = _bond_entries(basis, b)
            diag[k] += d
            for r, c, v in runs:
                rows.append(r)
                cols.append(c)
                term.append(np.full(len(r), k))
                vals.append(v)
    # each group's diagonal, summed over its bonds, is one more run of entries
    rows.append(np.tile(np.arange(dim), len(groups)))
    cols.append(rows[-1])
    term.append(np.repeat(np.arange(len(groups)), dim))
    vals.append(diag.ravel())
    keys = np.concatenate(rows) * dim + np.concatenate(cols)
    # sorted unique (row, col) keys are the CSR pattern.  Each bond adds a
    # sorted run of keys, which a stable sort merges cheaply; it also keeps
    # the entries of one slot in build order, so they add up in that order.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pattern = keys[first]
    nnz = len(pattern)
    slots = np.concatenate(term)[order] * nnz + np.cumsum(first) - 1
    data = np.bincount(
        slots, weights=np.concatenate(vals)[order], minlength=len(groups) * nnz
    ).reshape(len(groups), nnz)
    indptr = np.searchsorted(pattern, np.arange(dim + 1) * dim)
    index = np.int32 if max(dim, nnz) <= np.iinfo(np.int32).max else np.int64
    return data, (pattern % dim).astype(index), indptr.astype(index)


@dataclass(eq=False)
class SparseOperator:
    """Sector-restricted real symmetric Hamiltonian."""

    basis: SectorBasis
    matrix: sp.csr_matrix

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.dimension,):
            raise DimensionMismatch(
                f"vector length {v.shape} does not match dimension {self.dimension}"
            )
        return self.matrix @ v

    def expectation(self, v: np.ndarray) -> float:
        return float(np.real(np.vdot(v, self.matvec(v))))

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def build_sector_operator(model: ChainModel, basis: SectorBasis) -> SparseOperator:
    """Assemble the sector block of a static chain Hamiltonian."""
    data, indices, indptr = _compile_terms(model.n_spins, [model.bonds], basis)
    dim = basis.dimension
    return SparseOperator(
        basis=basis, matrix=sp.csr_matrix((data[0], indices, indptr), shape=(dim, dim))
    )


@dataclass(eq=False)
class EigResult:
    """Lowest eigenpairs, ascending, with explicit residual norms."""

    eigenvalues: np.ndarray
    eigenvectors: list[StateVector]
    residuals: np.ndarray


def _fix_sign(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def lowest_eigenpairs(
    op: SparseOperator,
    m: int,
    tol: float = 1e-10,
    dense_cutoff: int = 512,
    max_iter: int = 500,
) -> EigResult:
    """The m algebraically smallest eigenpairs of a sector operator.

    Up to ``dense_cutoff`` states, and for a single state, LAPACK computes just
    the m lowest levels.  Larger sectors run ARPACK for one pair at a time
    from a seeded start vector, at most ``max_iter`` restarts each.  Every
    converged vector v is locked by adding sigma * v v^T, with sigma above the
    Gershgorin width of the spectrum, so each run finds the next level and
    every copy of a degenerate one (a single k=m run can miss copies).
    Raises NoConvergence unless every residual norm is at most ``tol``.
    """
    # imported here, not at module level: scipy.linalg and scipy.sparse.linalg
    # add a third to the import time of the package
    import scipy.linalg

    dim = op.dimension
    if not 1 <= m <= dim:
        raise DimensionMismatch(f"requested {m} pairs from dimension {dim}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    if dim <= dense_cutoff or dim == 1:  # eigsh needs k=1 < dim
        evals, evecs = scipy.linalg.eigh(op.to_dense(), subset_by_index=[0, m - 1])
    else:
        import scipy.sparse.linalg as spla

        # the max absolute row sum bounds |eigenvalue| (Gershgorin)
        sigma = 2.0 * float(spla.norm(op.matrix, np.inf)) + 1.0
        v0 = np.random.default_rng(0).standard_normal(dim)
        evals, evecs = np.empty(m), np.empty((dim, m))
        for k in range(m):
            locked = evecs[:, :k]

            def shifted(v, locked=locked):
                return op.matvec(v) + sigma * (locked @ (locked.T @ v))

            a = spla.LinearOperator((dim, dim), matvec=shifted, dtype=np.float64)
            try:
                w, v = spla.eigsh(a, k=1, which="SA", v0=v0, maxiter=max_iter)
            except spla.ArpackNoConvergence as e:
                raise NoConvergence(f"ARPACK: {e}", iterations=max_iter) from None
            evals[k], evecs[:, k] = w[0], v[:, 0]
        order = np.argsort(evals, kind="stable")
        evals, evecs = evals[order], evecs[:, order]

    vs = [_fix_sign(np.ascontiguousarray(evecs[:, k])) for k in range(m)]
    residuals = np.array(
        [np.linalg.norm(op.matvec(v) - evals[k] * v) for k, v in enumerate(vs)]
    )
    if residuals.max() > tol:
        raise NoConvergence(
            f"eigen-residual {residuals.max():.3e} above tol {tol:.3e}"
        )
    return EigResult(
        eigenvalues=evals,
        eigenvectors=[StateVector(op.basis, v.astype(np.complex128)) for v in vs],
        residuals=residuals,
    )


def sector_gap(model: ChainModel, spec: SectorSpec, tol: float = 1e-10) -> float:
    """E1 - E0 inside one sector; nonnegative up to twice the tolerance."""
    basis = enumerate_sector(spec)
    if basis.dimension < 2:
        raise DimensionMismatch("sector gap needs dimension >= 2")
    op = build_sector_operator(model, basis)
    res = lowest_eigenpairs(op, 2, tol)
    return float(res.eigenvalues[1] - res.eigenvalues[0])


@dataclass(frozen=True)
class PropagatorConfig:
    """Stepping controls for schedule evolution.

    ``step_count`` wins over ``dt``; with neither, the default policy is
    dt = min(0.25, tau/8), i.e. at least 8 steps and at most 0.25 per step.
    A step is one fourth-order commutator-free step of ``evolve`` (two
    exponentials).  ``step_tol`` bounds the per-exponential Krylov error
    estimate and ``krylov_dim`` caps the Krylov subspace of one exponential.
    """

    step_count: int | None = None
    dt: float | None = None
    krylov_dim: int = 30
    step_tol: float = 1e-10

    def __post_init__(self):
        for name in ("step_count", "krylov_dim"):
            v = getattr(self, name)
            # a bool is an int, and a whole float still fails range()
            if isinstance(v, bool) or not isinstance(v, (int, np.integer, type(None))):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.step_count is not None and self.step_count < 1:
            raise ValueError("step_count must be positive")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not (self.krylov_dim >= 2 and 0 < self.step_tol < math.inf):
            raise ValueError("propagator settings must be positive and finite")

    def steps_for(self, tau: float) -> int:
        if self.step_count is not None:
            return self.step_count
        if tau <= 0.0:
            return 1
        dt = self.dt if self.dt is not None else min(0.25, tau / 8.0)
        return max(1, math.ceil(tau / dt - 1e-9))


class ScheduleOperator:
    """H(s) = sum_k c_k(s) H_k on a fixed sector basis, compiled once.

    The terms are the protocol's own (``ProtocolSpec.terms``): the static
    bonds, then each ramped group.  Every H_k is a real data row on one shared, sorted
    CSR pattern that holds each row's diagonal slot; a pair that appears in
    several places adds to each of its terms.  assemble(c) writes c @ A into
    one data array on that pattern, which is then sum_k c_k H_k, so per-step
    cost stays dominated by matrix-vector products.  That array is stored
    complex, as the product with a complex state needs it, and is allocated
    at the first assemble, so a compile that only calls at(s) never holds
    it.  matvec runs the kernel of scipy's csr @ v, sparsetools'
    csr_matvec, without scipy's dispatch, into a new zeroed array.  ``evolve``
    evaluates c(s) = coefficients(s) once at each of a step's two points, and
    assembles both mixes w1 H(s1) + w2 H(s2) as w1 c(s1) + w2 c(s2).
    at(s) gives the static H(s) instead, a ``SparseOperator`` of its own on
    the same pattern, so one compile serves a whole column of eigensolves
    (``anneal.gap_scan``).  Its data are real: a complex eigensolve would
    cost about four times as much.
    """

    def __init__(self, protocol: ProtocolSpec, basis: SectorBasis):
        terms = protocol.terms()
        self._term_data, self._indices, self._indptr = _compile_terms(
            protocol.n_spins, [bonds for _, bonds in terms], basis
        )
        self._coefficients = [c for c, _ in terms]
        self.basis = basis
        self.dimension = basis.dimension
        self._data = None  # the complex data of assemble, allocated at its first call

    def coefficients(self, s: float) -> np.ndarray:
        """c(s): the K term coefficients at schedule point s."""
        return np.array([coefficient(s) for coefficient in self._coefficients])

    def at(self, s: float) -> SparseOperator:
        """The static H(s) with real data on the shared pattern, for eigensolves."""
        dim = self.dimension
        data = self.coefficients(s) @ self._term_data
        matrix = sp.csr_matrix((data, self._indices, self._indptr), shape=(dim, dim))
        return SparseOperator(self.basis, matrix)

    def assemble(self, c: np.ndarray) -> None:
        """Hold sum_k c_k H_k for the coefficient vector c."""
        if self._data is None:
            self._data = np.zeros(len(self._indices), dtype=np.complex128)
        self._data.real[:] = c @ self._term_data

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """(sum_k c_k H_k) v for the c of the last assemble, as a new array."""
        dim = self.dimension
        # the kernel reads v unchecked
        if v.shape != (dim,):
            raise DimensionMismatch(f"vector length {v.shape} does not match dimension {dim}")
        out = np.zeros(dim, dtype=np.complex128)
        sp._sparsetools.csr_matvec(dim, dim, self._indptr, self._indices, self._data, v, out)
        return out


def krylov_expm_apply(
    matvec,
    psi: np.ndarray,
    dt: float,
    tol: float = 1e-10,
    m_max: int = 30,
    _depth: int = 0,
    _accepted: list | None = None,
) -> np.ndarray:
    """exp(-i dt H) psi for Hermitian H, via a Lanczos subspace.

    The basis comes from the plain three-term Lanczos recurrence, with no
    re-orthogonalization, as in Expokit's Hermitian expv (Sidje, ACM TOMS
    24, 130, 1998): Lanczos approximations of f(H) psi stay accurate when
    rounding destroys the orthogonality of the basis (Druskin, Greenbaum &
    Knizhnerman, SIAM J. Sci. Comput. 19, 38, 1998).  One step is one
    ``matvec`` and three BLAS calls on its result w: alpha = zdotc(q_j, w),
    two zaxpy that subtract alpha q_j and beta q_{j-1} in place, and beta =
    dznrm2(w).  Where the subspace can fill the basis (dimension at most
    m_max), each new vector is also re-orthogonalized against the basis so
    far: else the lost orthogonality hides the happy breakdown at the full
    space, and a long step splits over and over (1260 matvecs against 20
    for one exponential at dt = 50 on a 20-state sector).  The subspace
    grows until the standard a-posteriori estimate beta * |last
    small-solution entry| falls below tol; a step whose estimate cannot
    meet tol within m_max dimensions is split in half (exact, since H is
    fixed within the step).  The estimate is checked on a happy breakdown,
    at m_max, and at every size from 4 up; each check solves the small
    tridiagonal with LAPACK dstev.

    ``evolve`` hands the exponentials of one call a list ``_accepted`` of
    two items: each records in the first the size it accepted, and the next
    starts its checks at that size (never below 4), since consecutive steps
    accept nearly the same size.  On ``anneal-search`` that takes about 1.0
    dstev per exponential, against 2.0 when checks started one size below.
    Only a step that would have met tol below its first check accepts a
    larger size than without the hint.  Each exponential also adds the
    estimate it accepted to the second item, which so sums them over the
    call.  The list lives in that one call, so no result depends on what
    ran before it in the process.
    """
    # imported here, not at module level: see lowest_eigenpairs
    from scipy.linalg.blas import dznrm2, zaxpy, zdotc
    from scipy.linalg.lapack import dstev

    nrm = math.sqrt(np.vdot(psi, psi).real)
    if nrm == 0.0 or dt == 0.0:
        return psi.copy()
    dim = len(psi)
    m_cap = min(m_max, dim)
    first_check = 3 if _accepted is None else max(3, _accepted[0] - 1)
    # row-major basis: each q[j] handed to matvec is contiguous
    q = np.empty((m_cap, dim), dtype=np.complex128)
    # the tridiagonal T: diagonal alpha and off-diagonal beta, filled as the
    # recurrence goes
    diag = np.empty(m_cap)
    off = np.empty(m_cap)
    np.divide(psi, nrm, out=q[0])
    scale = 1.0
    for j in range(m_cap):
        w = matvec(q[j])
        # zaxpy writes even into a read-only array; on one that is strided
        # or not complex128 it works on a copy, which it returns
        if not w.flags.writeable:
            w = w.copy()
        alpha = zdotc(q[j], w).real
        diag[j] = alpha
        # n and a passed by position: f2py parses keywords slowly
        w = zaxpy(q[j], w, dim, -alpha)
        if j > 0:
            w = zaxpy(q[j - 1], w, dim, -off[j - 1])
        if m_cap == dim:
            w -= q[: j + 1].T @ (q[: j + 1].conj() @ w)
        beta = dznrm2(w)
        scale = max(scale, abs(alpha), beta)
        happy = beta <= _BREAKDOWN * scale
        if happy or j == m_cap - 1 or j >= first_check:
            if j == 0:  # dstev needs at least one off-diagonal entry
                u_small = np.exp(-1j * dt * diag[:1])
            else:
                evals, evecs, info = dstev(diag[: j + 1], off[:j])
                if info:
                    raise NoConvergence(f"LAPACK dstev failed with info {info}")
                u_small = evecs @ (np.exp(-1j * dt * evals) * evecs[0, :])
            err = beta * abs(u_small[-1]) * min(abs(dt), 1.0)
            if happy or err <= tol:
                if _accepted is not None:
                    _accepted[0] = j + 1
                    _accepted[1] += err
                return (nrm * u_small) @ q[: j + 1]
        if j < m_cap - 1:
            off[j] = beta
            # numpy divides by a real scalar as by a complex one, with the
            # same reciprocal; multiplying by it gives the same bits faster
            np.multiply(w, 1.0 / beta, out=q[j + 1])
    if _depth >= 40:
        raise NoConvergence("Krylov step refused to converge", iterations=_depth)
    # the estimate is per unit time below |dt| = 1, so only longer steps share tol
    half_tol = tol / 2.0 if abs(dt) > 1.0 else tol
    half = krylov_expm_apply(matvec, psi, dt / 2.0, half_tol, m_max, _depth + 1, _accepted)
    return krylov_expm_apply(matvec, half, dt / 2.0, half_tol, m_max, _depth + 1, _accepted)


# CF4:2 (Blanes & Moan 2006; Alvermann & Fehske 2011): H at the two Gauss
# points of each step, mixed with the weights A_LO and A_HI
_GAUSS_LO = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + math.sqrt(3.0) / 6.0
_A_LO = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_A_HI = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0


def evolve(
    op: ScheduleOperator,
    tau: float,
    psi0: StateVector,
    cfg: PropagatorConfig = PropagatorConfig(),
    *,
    krylov_error: list[float] | None = None,
) -> StateVector:
    """Propagate psi0 through the schedule of ``op`` over physical time tau.

    ``op`` is compiled once per protocol and basis, and ``psi0`` must live
    on that basis.  Fourth-order commutator-free stepping (CF4:2).  Step k
    of n takes H at the Gauss points s1,2 = (k + 1/2 -+ sqrt(3)/6)/n and
    applies exp(-i dt (a1 H1 + a2 H2)) exp(-i dt (a2 H1 + a1 H2)), with
    a1,2 = (3 -+ 2 sqrt(3))/12: the right factor acts first and gives the
    earlier point the larger weight.  Each factor is one Krylov exponential.

    Given a one-item list ``krylov_error``, the call adds to its item the
    sum of the a-posteriori estimates its exponentials accepted (see
    ``krylov_expm_apply``), one add per exponential, and 0 at tau = 0.  Each
    exponential is unitary, so an error made in one step is carried, not
    grown, by the rest: where each estimate bounds its exponential's error,
    the sum bounds the Krylov part of the error of the result, up to the
    final renormalization, which at most doubles it.
    """
    if not 0 <= tau < math.inf:
        raise ValueError("tau must be nonnegative and finite")
    if psi0.basis.spec != op.basis.spec:
        raise DimensionMismatch("initial state basis does not match the operator's")
    if abs(psi0.norm() - 1.0) > 1e-9:
        raise NormDrift(f"initial state norm {psi0.norm()} is not 1")
    if tau == 0.0:
        return StateVector(psi0.basis, psi0.amplitudes.copy())

    n = cfg.steps_for(tau)
    dt = tau / n
    psi = psi0.amplitudes.astype(np.complex128, copy=True)
    # the subspace size of the last exponential of this call, and the sum of
    # the estimates accepted so far
    accepted = [0, 0.0]
    for k in range(n):
        c1 = op.coefficients((k + _GAUSS_LO) / n)
        c2 = op.coefficients((k + _GAUSS_HI) / n)
        for w1, w2 in ((_A_HI, _A_LO), (_A_LO, _A_HI)):
            op.assemble(w1 * c1 + w2 * c2)
            psi = krylov_expm_apply(
                op.matvec, psi, dt, cfg.step_tol, cfg.krylov_dim, _accepted=accepted
            )
    drift = abs(np.linalg.norm(psi) - 1.0)
    if drift > 1e-6:
        raise NormDrift(f"norm drifted by {drift:.3e}; reduce the step size")
    psi /= np.linalg.norm(psi)
    if krylov_error is not None:
        krylov_error[0] += accepted[1]
    return StateVector(psi0.basis, psi)
