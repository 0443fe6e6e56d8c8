import numpy as np
import pytest
import scipy.linalg

from adiabus.basis import SectorSpec, StateVector, enumerate_sector
from adiabus.errors import (
    DimensionMismatch,
    NoConvergence,
    NonConservingSector,
    NormDrift,
)
from adiabus.model import (
    Bond,
    ChainModel,
    ProtocolSpec,
    Ramp,
    RampedGroup,
    dynamic_j2_protocol,
    evaluate_protocol,
    j1j2_chain,
    join_protocol,
    reverse_protocol,
    simultaneous_protocol,
    xyz_couplings,
)
from adiabus.solver import (
    PropagatorConfig,
    ScheduleOperator,
    build_sector_operator,
    evolve,
    krylov_expm_apply,
    lowest_eigenpairs,
    sector_gap,
)

from oracles import (
    cf4_propagator,
    dense_hamiltonian,
    dense_sector_block,
    dense_sector_eigvals,
    sector_masks,
)


def sector_op(n, k, j1=1.0, j2=0.0):
    return build_sector_operator(
        j1j2_chain(n, j1, j2), enumerate_sector(SectorSpec.magnetization(n, k))
    )


# ------------------------------------------------------------------- build

def test_two_site_matrix():
    op = sector_op(2, 1)
    assert np.allclose(op.to_dense(), [[-1.0, 2.0], [2.0, -1.0]])


def test_three_site_matrix():
    op = sector_op(3, 1)
    assert np.allclose(op.to_dense(), [[0, 2, 0], [2, -2, 2], [0, 2, 0]])


def test_build_against_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(4):
        n = int(rng.integers(3, 7))
        model = j1j2_chain(n, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0, 0.6)))
        for spec in (
            SectorSpec.full(n),
            SectorSpec.magnetization(n, n // 2),
            SectorSpec.parity(n, "odd"),
        ):
            mine = build_sector_operator(model, enumerate_sector(spec)).to_dense()
            assert np.allclose(mine, dense_sector_block(model, spec), atol=1e-12)


def test_xyz_needs_parity_or_full():
    model = j1j2_chain(4, xyz_couplings(0.5))
    with pytest.raises(NonConservingSector):
        build_sector_operator(model, enumerate_sector(SectorSpec.magnetization(4, 2)))
    # parity and full bases accept anisotropic couplings
    for spec in (SectorSpec.parity(4, "even"), SectorSpec.full(4)):
        mine = build_sector_operator(model, enumerate_sector(spec)).to_dense()
        assert np.allclose(mine, dense_sector_block(model, spec), atol=1e-12)


def test_full_operator_has_no_cross_sector_blocks():
    for n in (4, 5, 6):
        model = j1j2_chain(n, 1.0, 0.3)
        full = build_sector_operator(model, enumerate_sector(SectorSpec.full(n)))
        h = full.to_dense()
        ups = np.bitwise_count(np.arange(1 << n))
        cross = h[np.not_equal.outer(ups, ups)]
        assert np.max(np.abs(cross)) == 0.0


# ------------------------------------------------------------------ matvec

def test_matvec_examples():
    op = sector_op(2, 1)
    assert np.allclose(op.matvec(np.zeros(2)), 0.0)
    assert np.allclose(op.matvec(np.array([1.0, 0.0])), [-1.0, 2.0])


def test_matvec_symmetry():
    op = sector_op(6, 3, 1.0, 0.4)
    rng = np.random.default_rng(3)
    u = rng.normal(size=op.dimension)
    v = rng.normal(size=op.dimension)
    assert abs(u @ op.matvec(v) - op.matvec(u) @ v) < 1e-12


def test_matvec_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sector_op(3, 1).matvec(np.ones(5))


# -------------------------------------------------------------- eigenpairs

def test_lowest_eigenpairs_examples():
    assert np.allclose(lowest_eigenpairs(sector_op(2, 1), 2).eigenvalues, [-3, 1])
    res = lowest_eigenpairs(sector_op(3, 1), 1)
    assert np.isclose(res.eigenvalues[0], -4.0)
    vec = res.eigenvectors[0].amplitudes.real
    assert np.allclose(np.abs(vec), np.abs(np.array([1, -2, 1]) / np.sqrt(6)))
    tri = lowest_eigenpairs(sector_op(3, 1, 1.0, 1.0), 3)
    assert np.allclose(tri.eigenvalues, [-3, -3, 3], atol=1e-9)
    mg = build_sector_operator(
        j1j2_chain(4, 1.0, 0.5), enumerate_sector(SectorSpec.full(4))
    )
    assert np.isclose(lowest_eigenpairs(mg, 1).eigenvalues[0], -6.0)


def test_lanczos_path_matches_dense_oracle():
    # forced past the dense cutoff, including degenerate full-space spectra
    for n, spec in ((6, SectorSpec.magnetization(6, 3)), (5, SectorSpec.full(5))):
        model = j1j2_chain(n, 1.0, 0.35)
        op = build_sector_operator(model, enumerate_sector(spec))
        got = lowest_eigenpairs(op, 3, tol=1e-10, dense_cutoff=0)
        want = dense_sector_eigvals(model, spec, 3)
        assert np.allclose(got.eigenvalues, want, atol=1e-9)
        assert np.all(got.residuals <= 1e-9)


def test_lanczos_finds_state_orthogonal_to_start():
    # the 2x2 singlet sector on the ARPACK path (dense_cutoff=0): the first
    # run finds the singlet from the seeded random start, and the second must
    # find the triplet level once the singlet is locked away by the shift
    got = lowest_eigenpairs(sector_op(2, 1), 2, dense_cutoff=0)
    assert np.allclose(got.eigenvalues, [-3.0, 1.0], atol=1e-10)


def test_lowest_eigenpairs_xyz_parity_block():
    # dim 1024 on the default iterative path; the dense spectrum is well gapped
    model = evaluate_protocol(simultaneous_protocol(11, xyz_couplings(0.3), 0.0), 0.0)
    op = build_sector_operator(model, enumerate_sector(SectorSpec.parity(11, "even")))
    assert op.dimension == 1024
    got = lowest_eigenpairs(op, 2)
    want = np.linalg.eigvalsh(op.to_dense())[:2]
    assert np.allclose(got.eigenvalues, want, rtol=0.0, atol=1e-9)
    assert np.all(got.residuals <= 1e-9)
    with pytest.raises(NoConvergence):
        lowest_eigenpairs(op, 1, max_iter=1)


def test_lowest_eigenpairs_m_validation():
    with pytest.raises(DimensionMismatch):
        lowest_eigenpairs(sector_op(3, 1), 4)


def test_sector_gap_examples():
    assert np.isclose(sector_gap(j1j2_chain(2, 1.0, 0.0), SectorSpec.magnetization(2, 1)), 4.0)
    assert np.isclose(
        sector_gap(j1j2_chain(3, 1.0, 0.0), SectorSpec.magnetization(3, 1)), 4.0
    )
    assert abs(sector_gap(j1j2_chain(3, 1.0, 1.0), SectorSpec.magnetization(3, 1))) < 1e-9


# ------------------------------------------------------------------ evolve

def ground_state(protocol, s, spec):
    op = build_sector_operator(
        __import__("adiabus.model", fromlist=["evaluate_protocol"]).evaluate_protocol(
            protocol, s
        ),
        enumerate_sector(spec),
    )
    return lowest_eigenpairs(op, 1).eigenvectors[0]


def test_evolve_tau_zero_is_identity():
    p = join_protocol(5, 1.0, 0.3)
    spec = SectorSpec.magnetization(5, 2)
    psi0 = ground_state(p, 0.0, spec)
    out = evolve(ScheduleOperator(p, psi0.basis), 0.0, psi0)
    assert np.array_equal(out.amplitudes, psi0.amplitudes)


def test_evolve_keeps_stationary_state():
    model = j1j2_chain(6, 1.0, 0.4)
    p = ProtocolSpec(n_spins=6, static_bonds=model.bonds, label="static")
    spec = SectorSpec.magnetization(6, 3)
    psi0 = ground_state(p, 0.0, spec)
    out = evolve(ScheduleOperator(p, psi0.basis), 7.0, psi0)
    assert abs(abs(np.vdot(psi0.amplitudes, out.amplitudes)) - 1.0) < 1e-8


def test_evolve_norm_and_energy_conservation():
    model = j1j2_chain(5, 1.0, 0.3)
    p = ProtocolSpec(n_spins=5, static_bonds=model.bonds, label="static")
    spec = SectorSpec.magnetization(5, 2)
    basis = enumerate_sector(spec)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    psi0 = StateVector(basis, amps / np.linalg.norm(amps))
    op = build_sector_operator(model, basis)
    e0 = op.expectation(psi0.amplitudes)
    out = evolve(ScheduleOperator(p, basis), 100.0, psi0)
    assert abs(out.norm() - 1.0) < 1e-9
    assert abs(op.expectation(out.amplitudes) - e0) < 1e-8


def test_evolve_rejects_unnormalized_state():
    p = join_protocol(4, 1.0, 0.0)
    spec = SectorSpec.magnetization(4, 2)
    basis = enumerate_sector(spec)
    bad = StateVector(basis, np.ones(basis.dimension, dtype=complex))
    with pytest.raises(NormDrift):
        evolve(ScheduleOperator(p, basis), 1.0, bad)


def test_evolve_rejects_state_on_another_basis():
    p = join_protocol(5, 1.0, 0.3)
    psi0 = ground_state(p, 0.0, SectorSpec.magnetization(5, 2))
    op = ScheduleOperator(p, enumerate_sector(SectorSpec.magnetization(5, 3)))
    with pytest.raises(DimensionMismatch):
        evolve(op, 1.0, psi0)


# (1, 2) sits in the static bonds and in the ramped group, (2, 3) twice in
# the static bonds: every copy adds per axis
_SHARED_PAIR = ProtocolSpec(
    n_spins=5,
    static_bonds=(Bond(1, 2, 1.0, 1.0, 0.5), Bond(2, 3, 1.0, 1.0, 1.0),
                  Bond(2, 3, 0.4, 0.4, -0.3)),
    ramped_groups=(
        RampedGroup((Ramp.linear(0.2, -0.7),), (Bond(1, 2, 0.3, 0.3, 2.0), Bond(4, 5, 1.0, 1.0, 1.0))),
    ),
    label="shared-pair",
)
# the protocols and sectors every ScheduleOperator test runs
SCHEDULE_CASES = [
    (join_protocol(6, 1.0, 0.35), SectorSpec.magnetization(6, 3)),
    # the joining next-nearest bond carries ramp x j2 ramp
    (dynamic_j2_protocol(7, 1.0, 0.3), SectorSpec.magnetization(7, 3)),
    # double flips; the ramped bonds cancel static ones to zero at s = 1
    (simultaneous_protocol(7, xyz_couplings(0.3), 0.0), SectorSpec.parity(7, "even")),
    (reverse_protocol(join_protocol(6, 1.0, 0.35)), SectorSpec.magnetization(6, 3)),
    (_SHARED_PAIR, SectorSpec.magnetization(5, 2)),
]


def test_schedule_operator_matches_static_build():
    rng = np.random.default_rng(5)
    for p, spec in SCHEDULE_CASES:
        basis = enumerate_sector(spec)
        sched = ScheduleOperator(p, basis)
        v = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
        for s in (0.0, 0.21, 0.5, 0.99, 1.0):
            sched.assemble(sched.coefficients(s))
            static = build_sector_operator(evaluate_protocol(p, s), basis)
            assert np.allclose(sched.matvec(v), static.matvec(v), atol=1e-12), (p.label, s)


def test_schedule_operator_against_dense_oracle():
    # SCHEDULE_CASES against the Kronecker-product oracle instead of the
    # shared sector compile
    rng = np.random.default_rng(11)
    for p, spec in SCHEDULE_CASES:
        basis = enumerate_sector(spec)
        sched = ScheduleOperator(p, basis)
        v = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
        for s in (0.0, 0.21, 0.5, 0.99, 1.0):
            sched.assemble(sched.coefficients(s))
            want = dense_sector_block(evaluate_protocol(p, s), spec) @ v
            assert np.allclose(sched.matvec(v), want, rtol=0.0, atol=1e-12), (p.label, s)


def test_schedule_operator_at_against_dense_oracle():
    for p, spec in SCHEDULE_CASES:
        sched = ScheduleOperator(p, enumerate_sector(spec))
        for s in (0.0, 0.21, 0.5, 0.99, 1.0):
            h = sched.at(s)
            assert h.matrix.dtype == np.float64
            want = dense_sector_block(evaluate_protocol(p, s), spec)
            assert np.allclose(h.to_dense(), want, rtol=0.0, atol=1e-12), (p.label, s)


@pytest.mark.parametrize("p", [
    join_protocol(7, 1.0, 0.35),
    dynamic_j2_protocol(7, 1.0, 0.3),
    simultaneous_protocol(7, 1.0, 0.3),
], ids=lambda p: p.label)
def test_schedule_operator_at_on_a_total_spin_block(p):
    basis = enumerate_sector(SectorSpec.total_spin(7, 3))
    sched = ScheduleOperator(p, basis)
    for s in (0.0, 0.21, 0.5, 0.99, 1.0):
        want = build_sector_operator(evaluate_protocol(p, s), basis).to_dense()
        assert np.allclose(sched.at(s).to_dense(), want, rtol=0.0, atol=1e-12), s


def test_schedule_operator_allocates_its_complex_matrix_at_the_first_assemble():
    # a compile that only solves at(s) holds no complex CSR of zeros, and
    # every at(s) shares the compiled index arrays
    p, spec = SCHEDULE_CASES[1]
    sched = ScheduleOperator(p, enumerate_sector(spec))

    def complex_held():
        return [k for k, v in vars(sched).items() if getattr(v, "dtype", None) == np.complex128]

    assert np.shares_memory(sched.at(0.2).matrix.indices, sched.at(0.7).matrix.indices)
    assert complex_held() == []
    sched.assemble(sched.coefficients(0.5))
    assert len(complex_held()) == 1


def test_assemble_two_point_mix():
    # both weight orders at the same two points, back to back, as one CF4
    # step assembles them: a cache keyed on the points alone reuses the first
    rng = np.random.default_rng(13)
    for p, spec in SCHEDULE_CASES:
        basis = enumerate_sector(spec)
        sched = ScheduleOperator(p, basis)
        v = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
        for s1, s2 in ((0.0, 1.0), (0.21, 0.5), (0.11, 0.89)):
            h1 = dense_sector_block(evaluate_protocol(p, s1), spec)
            h2 = dense_sector_block(evaluate_protocol(p, s2), spec)
            for w1, w2 in ((0.54, -0.04), (-0.04, 0.54)):
                sched.assemble(w1 * sched.coefficients(s1) + w2 * sched.coefficients(s2))
                want = (w1 * h1 + w2 * h2) @ v
                assert np.allclose(sched.matvec(v), want, rtol=0.0, atol=1e-12), (p.label, s1, w1)


def test_schedule_operator_rejects_nonconserving_basis():
    p = join_protocol(4, (1.0, 0.8, 1.0), 0.0)
    with pytest.raises(NonConservingSector):
        ScheduleOperator(p, enumerate_sector(SectorSpec.magnetization(4, 2)))


def test_total_spin_basis_rejects_anisotropic_bond():
    for coupling in ((1.0, 1.0, 0.5), (1.0, 0.8, 1.0)):
        with pytest.raises(NonConservingSector):
            build_sector_operator(j1j2_chain(4, coupling), enumerate_sector(SectorSpec.total_spin(4, 2)))


@pytest.mark.parametrize("n", range(3, 10))
def test_total_spin_block_against_dense_oracle(n):
    # magnetization sector k holds every S >= N/2 - k once, sector k - 1 every
    # S > N/2 - k, so the S = N/2 - k block's spectrum is their difference
    rng = np.random.default_rng(n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for _ in range(3):
        chosen = sorted(rng.choice(len(pairs), size=min(len(pairs), n + 2), replace=False))
        bonds = [Bond.heisenberg(*pairs[c], rng.uniform(-1.0, 1.0)) for c in chosen]
        # every chain carries an nn, an nnn and the longest bond
        for pair in ((1, 2), (1, 3), (1, n)):
            if pair not in [pairs[c] for c in chosen]:
                bonds.append(Bond.heisenberg(*pair, rng.uniform(-1.0, 1.0)))
        model = ChainModel(n, tuple(bonds))
        h = dense_hamiltonian(model)

        def levels(k):
            idx = sector_masks(n, SectorSpec.magnetization(n, k))
            return np.linalg.eigvalsh(h[np.ix_(idx, idx)])

        for k in range(n // 2 + 1):
            block = build_sector_operator(model, enumerate_sector(SectorSpec.total_spin(n, k)))
            dense = block.to_dense()
            assert np.array_equal(dense, dense.T)
            below = levels(k - 1) if k else []
            merged = np.sort(np.concatenate([np.linalg.eigvalsh(dense), below]))
            assert np.abs(merged - levels(k)).max() <= 1e-12, (n, k)


def test_krylov_expm_against_scipy():
    rng = np.random.default_rng(2)
    # (dim, dt, m_max, split): a split step costs more than m_max matvecs.
    # dt 1.7 splits once; m_max 6 at dt 5 halves the step 11 levels deep;
    # dim 3 ends in a happy breakdown at the full space
    for dim, dt, m_max, split in ((12, 0.3, 30, False), (40, 1.7, 30, True),
                                  (40, 5.0, 6, True), (3, 0.9, 30, False)):
        a = rng.normal(size=(dim, dim))
        h = (a + a.T) / 2.0
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        want = scipy.linalg.expm(-1j * dt * h) @ psi
        calls = []

        def matvec(v):
            calls.append(1)
            return h @ v

        got = krylov_expm_apply(matvec, psi, dt, tol=1e-12, m_max=m_max)
        assert np.linalg.norm(got - want) < 1e-9
        assert (len(calls) > m_max) == split


def test_krylov_split_keeps_tolerance_per_unit_time():
    # m_max 6 cannot reach tol at dt 5; below |dt| = 1 the halves keep the
    # whole tol, so the split tree stops before chasing sub-rounding targets
    rng = np.random.default_rng(1)
    a = rng.normal(size=(40, 40))
    h = (a + a.T) / 2.0
    psi = rng.normal(size=40) + 1j * rng.normal(size=40)
    psi /= np.linalg.norm(psi)
    calls = []

    def matvec(v):
        calls.append(1)
        return h @ v

    got = krylov_expm_apply(matvec, psi, 5.0, tol=1e-12, m_max=6)
    assert np.linalg.norm(got - scipy.linalg.expm(-5j * h) @ psi) < 1e-9
    assert len(calls) <= 25000


def _expm_grid_specs():
    yield SectorSpec.magnetization(3, 0)  # dimension 1
    for n in range(3, 16):
        yield SectorSpec.total_spin(n, n // 2)  # 2 ... 1430
        yield SectorSpec.magnetization(n, min(n // 2, 3))  # 3 ... 455


def test_krylov_expm_against_exact_propagator_over_a_grid():
    # the plain three-term recurrence loses orthogonality; the exponential
    # must stay accurate anyway, from one state up to Krylov spaces that fill
    # the basis (dim up to m_max = 30) and through the split path (dt 10
    # and 50).  The drift bound: where the space fills the 14-state block,
    # the basis loses orthogonality to about 1e-10, and over random start
    # vectors the norm drifts by up to 7e-12
    rng = np.random.default_rng(3)
    for spec in _expm_grid_specs():
        op = ScheduleOperator(join_protocol(spec.n_spins, 1.0, 0.55), enumerate_sector(spec))
        op.assemble(op.coefficients(0.3))
        evals, evecs = np.linalg.eigh(op.at(0.3).to_dense())
        psi = rng.normal(size=op.dimension) + 1j * rng.normal(size=op.dimension)
        psi /= np.linalg.norm(psi)
        for dt in (0.25, 2.0, 10.0, 50.0):
            got = krylov_expm_apply(op.matvec, psi, dt)
            want = evecs @ (np.exp(-1j * dt * evals) * (evecs.T @ psi))
            assert np.linalg.norm(got - want) <= 1e-10, (spec, dt)
            assert abs(np.linalg.norm(got) - 1.0) <= 1e-11, (spec, dt)


@pytest.mark.parametrize("p, first, partner", [
    (join_protocol(7, (1.0, 1.0, 0.5), 0.2),
     SectorSpec.magnetization(7, 3), SectorSpec.magnetization(7, 4)),
    (join_protocol(7, xyz_couplings(0.3)),
     SectorSpec.parity(7, "even"), SectorSpec.parity(7, "odd")),
], ids=["xxz-join", "xyz-parity"])
def test_evolve_commutes_with_the_global_spin_flip(p, first, partner):
    # the flip F commutes with every bond and maps the partner sector onto
    # the first in reversed basis order, so evolving there and flipping is
    # flipping and evolving here; transport folds its partner in on this
    rng = np.random.default_rng(17)
    op_first = ScheduleOperator(p, enumerate_sector(first))
    op_partner = ScheduleOperator(p, enumerate_sector(partner))
    psi = rng.normal(size=op_first.dimension) + 1j * rng.normal(size=op_first.dimension)
    psi /= np.linalg.norm(psi)
    got = evolve(op_partner, 6.0, StateVector(op_partner.basis, psi)).amplitudes[::-1]
    want = evolve(op_first, 6.0, StateVector(op_first.basis, psi[::-1].copy())).amplitudes
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def _block_start(protocol, n, k):
    basis = enumerate_sector(SectorSpec.total_spin(n, k))
    return ScheduleOperator(protocol, basis), ground_state(protocol, 0.0, basis.spec)


def test_evolve_results_do_not_depend_on_earlier_calls():
    # B's long steps need far larger Krylov subspaces than A's; a size hint
    # that outlived one evolve call would move A's accepted sizes
    op_a, psi_a = _block_start(join_protocol(9, 1.0, 0.5), 9, 4)
    op_b, psi_b = _block_start(dynamic_j2_protocol(9, 1.0, 0.3), 9, 4)
    first = evolve(op_a, 6.0, psi_a).amplitudes
    evolve(op_b, 40.0, psi_b, PropagatorConfig(step_count=2))
    again = evolve(op_a, 6.0, psi_a).amplitudes
    assert np.array_equal(first, again)


def test_evolve_checks_the_krylov_estimate_near_the_last_size(monkeypatch):
    # 797 matvecs was the count when every size from 4 up was checked; the
    # hint moves checks, never the subspace sizes accepted on this case
    from scipy.linalg import lapack

    op, psi0 = _block_start(join_protocol(11, 1.0, 0.6), 11, 5)
    counts = {"matvec": 0, "eig": 0}
    matvec, dstev = op.matvec, lapack.dstev

    def counted_matvec(v):
        counts["matvec"] += 1
        return matvec(v)

    def counted_dstev(*args, **kwargs):
        counts["eig"] += 1
        return dstev(*args, **kwargs)

    op.matvec = counted_matvec
    monkeypatch.setattr(lapack, "dstev", counted_dstev)
    evolve(op, 10.0, psi0)
    exponentials = 2 * PropagatorConfig().steps_for(10.0)
    assert counts["matvec"] <= 797
    assert exponentials <= counts["eig"] <= 2.5 * exponentials


def test_evolve_checks_each_exponential_once_at_the_last_size(monkeypatch):
    # checks start at the size the previous exponential accepted, so most
    # exponentials solve the small tridiagonal once (twice when checks
    # started one size below it)
    from scipy.linalg import lapack

    op, psi0 = _block_start(join_protocol(11, 1.0, 0.6), 11, 5)
    calls = []
    dstev = lapack.dstev
    monkeypatch.setattr(lapack, "dstev", lambda *a, **k: calls.append(1) or dstev(*a, **k))
    evolve(op, 10.0, psi0)
    assert len(calls) <= 1.25 * 2 * PropagatorConfig().steps_for(10.0)


def test_evolve_evaluates_each_coefficient_twice_per_step(monkeypatch):
    # c(s1) and c(s2) once per CF4 step, each mixed into both exponentials
    p = join_protocol(9, 1.0, 0.5)
    calls = [0] * len(p.terms())

    def counted(k, coefficient):
        def call(s):
            calls[k] += 1
            return coefficient(s)
        return call

    terms = tuple((counted(k, c), bonds) for k, (c, bonds) in enumerate(p.terms()))
    monkeypatch.setattr(ProtocolSpec, "terms", lambda self: terms)
    op, psi0 = _block_start(p, 9, 4)
    calls[:] = [0] * len(terms)
    evolve(op, 3.0, psi0, PropagatorConfig(step_count=5))
    assert len(terms) == 2 and calls == [2 * 5] * len(terms)


def test_cf4_is_fourth_order():
    # dynamic_j2 ramps a product of two ramps, so H(s) is not affine in s.
    # Halving the step must cut the error about 16x; with the two factors
    # of a step swapped the scheme is 2nd order and the ratio is about 4
    p = dynamic_j2_protocol(5, 1.0, 0.4)
    spec = SectorSpec.magnetization(5, 2)
    basis = enumerate_sector(spec)

    # H(s) = sum_k c_k(s) H_k with each H_k from the Kronecker oracle, so the
    # reference's many steps cost one oracle build per term
    terms = [(c, dense_sector_block(ChainModel(5, bonds), spec)) for c, bonds in p.terms()]

    def h_of_s(s):
        return sum(c(s) * h for c, h in terms)

    want = dense_sector_block(evaluate_protocol(p, 0.37), spec)
    assert np.allclose(h_of_s(0.37), want, rtol=0.0, atol=1e-12)
    tau, coarse = 6.0, 32
    psi0 = np.linalg.eigh(h_of_s(0.0))[1][:, 0].astype(np.complex128)
    ref = cf4_propagator(h_of_s, tau, 16 * 2 * coarse) @ psi0
    errors = []
    for steps in (coarse, 2 * coarse):
        cfg = PropagatorConfig(step_count=steps, step_tol=1e-14)
        out = evolve(ScheduleOperator(p, basis), tau, StateVector(basis, psi0), cfg)
        errors.append(np.linalg.norm(out.amplitudes - ref))
    assert errors[1] > 1e-9  # far above the Krylov tolerance
    assert 12.0 <= errors[0] / errors[1] <= 20.0, errors


def test_propagator_config_validation():
    with pytest.raises(ValueError):
        PropagatorConfig(step_count=0)
    with pytest.raises(ValueError):
        PropagatorConfig(dt=-0.1)
    with pytest.raises(ValueError):
        PropagatorConfig(step_tol=0.0)
    for bad in ({"dt": np.nan}, {"dt": np.inf}, {"step_tol": np.nan}, {"step_tol": np.inf},
                {"step_count": 2.5}, {"step_count": 2.0}, {"step_count": True},
                {"krylov_dim": 2.5}, {"krylov_dim": 30.0}, {"krylov_dim": True}):
        with pytest.raises(ValueError):
            PropagatorConfig(**bad)
    assert PropagatorConfig(step_count=np.int64(3), krylov_dim=np.int64(12)).steps_for(1.0) == 3
    assert PropagatorConfig().steps_for(1.0) == 8
    assert PropagatorConfig().steps_for(100.0) == 400
    assert PropagatorConfig(dt=0.5).steps_for(10.0) == 20
    assert PropagatorConfig(step_count=17).steps_for(1e6) == 17
