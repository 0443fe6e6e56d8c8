import math
import warnings

import numpy as np
import pytest

from adiabus.basis import SectorSpec, enumerate_sector
from adiabus.errors import (
    AmbiguousInitial,
    DimensionMismatch,
    Disconnected,
    EvenLengthRequired,
    InputSiteCoupled,
    NoConvergence,
    OddLengthRequired,
    SectorMismatch,
)
from adiabus.model import (
    CARDINAL_BLOCH,
    BlochVector,
    Bond,
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
from adiabus import anneal
from adiabus.anneal import (
    FidelityComputer,
    SearchSettings,
    fidelity,
    find_anneal_time,
    gap_scan,
    ground_manifold_tracking,
    ground_space,
    mg_dimer_state,
    prepare_initial_state,
    sector_pair,
    total_spin_block,
    transport_qubit,
)
from adiabus import solver
from adiabus.solver import (
    PropagatorConfig,
    ScheduleOperator,
    build_sector_operator,
    lowest_eigenpairs,
    sector_gap,
)
from adiabus.solver import evolve as solver_evolve

from oracles import (
    SX,
    SY,
    SZ,
    cf4_propagator,
    dense_hamiltonian,
    dense_sector_block,
    dense_total_spin_levels,
)

K1_3 = SectorSpec.magnetization(3, 1)


def _record_compiles(monkeypatch):
    """(compiled, built): the basis spec of each ``ScheduleOperator`` that
    ``anneal`` compiles and of each static ``build_sector_operator`` call."""
    compiled, built = [], []

    class Recording(ScheduleOperator):
        def __init__(self, protocol, basis):
            compiled.append(basis.spec)
            super().__init__(protocol, basis)

    def building(model, basis):
        built.append(basis.spec)
        return build_sector_operator(model, basis)

    monkeypatch.setattr(anneal, "ScheduleOperator", Recording)
    monkeypatch.setattr(anneal, "build_sector_operator", building)
    return compiled, built


# ------------------------------------------------------------- preparation

def test_prepare_join_three_sites():
    psi = prepare_initial_state(join_protocol(3, 1.0, 0.0), K1_3)
    assert np.allclose(psi.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0])


def test_prepare_matches_direct_ground_state():
    # dimer-point subchain: the product of singlets is the exact ground state
    p = dynamic_j2_protocol(5, 1.0, 0.2)
    spec = SectorSpec.magnetization(5, 2)
    psi = prepare_initial_state(p, spec)
    block = dense_sector_block(
        evaluate_protocol(p, 0.0), spec
    )
    evals, evecs = np.linalg.eigh(block)
    overlap = abs(np.vdot(evecs[:, 0], psi.amplitudes))
    assert overlap > 1.0 - 1e-10
    # and it is literally singlet(1,2) x singlet(3,4) x down(5)
    mg4 = mg_dimer_state(4)
    target = enumerate_sector(spec)
    expect = np.zeros(target.dimension, dtype=complex)
    for mask, amp in zip(np.nonzero(mg4.amplitudes)[0], mg4.amplitudes[np.nonzero(mg4.amplitudes)[0]]):
        expect[np.searchsorted(target.states, mask)] = amp
    assert abs(abs(np.vdot(expect, psi.amplitudes)) - 1.0) < 1e-10


def test_prepare_disconnected():
    # both end bonds ramp from zero: two free sites at s=0
    static = tuple(Bond.heisenberg(i, i + 1, 1.0) for i in range(2, 4))
    ramped = RampedGroup(
        (Ramp.linear(0.0, 1.0),),
        (Bond.heisenberg(1, 2, 1.0), Bond.heisenberg(4, 5, 1.0)),
    )
    p = ProtocolSpec(n_spins=5, static_bonds=static, ramped_groups=(ramped,))
    with pytest.raises(Disconnected):
        prepare_initial_state(p, SectorSpec.magnetization(5, 2))


def test_prepare_ambiguous_on_frustrated_subchain():
    # triangle subchain at J1=J2=1 has a degenerate sector ground state
    with pytest.raises(AmbiguousInitial):
        prepare_initial_state(join_protocol(4, 1.0, 1.0), SectorSpec.magnetization(4, 2))


def test_prepare_full_sector_is_ambiguous():
    with pytest.raises(AmbiguousInitial):
        prepare_initial_state(join_protocol(3, 1.0, 0.0), SectorSpec.full(3))


def test_prepare_initial_state_one_eigensolve(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return lowest_eigenpairs(*args, **kwargs)

    monkeypatch.setattr(anneal, "lowest_eigenpairs", counting)
    prepare_initial_state(join_protocol(9, 1.0, 0.3), SectorSpec.magnetization(9, 4))
    assert len(calls) == 1


def test_prepare_initial_state_without_free_site():
    # the uncoupling protocol starts from the full chain's sector ground state
    p = reverse_protocol(join_protocol(7, 1.0, 0.3))
    spec = SectorSpec.magnetization(7, 3)
    psi = prepare_initial_state(p, spec)
    _, evecs = np.linalg.eigh(dense_sector_block(evaluate_protocol(p, 0.0), spec))
    assert abs(np.vdot(evecs[:, 0], psi.amplitudes)) > 1.0 - 1e-10


# ---------------------------------------------------------------- fidelity

def test_sudden_quench_overlap():
    f = fidelity(join_protocol(3, 1.0, 0.0), 0.0, K1_3)
    assert abs(f - math.sqrt(3.0) / 2.0) < 1e-9


def test_adiabatic_limit_small_chain():
    assert fidelity(join_protocol(3, 1.0, 0.0), 200.0, K1_3) >= 0.999


def test_fidelity_bounded_by_one():
    p = join_protocol(5, 1.0, 0.45)
    comp = FidelityComputer(p, SectorSpec.magnetization(5, 2))
    for tau in (0.0, 0.7, 3.0, 11.0):
        f = comp.value(tau)
        assert 0.0 <= f <= 1.0 + 1e-9


def _sector_only_fidelity(p, spec, tau):
    # F with no total-spin block: the sector ground of H(0), evolved and
    # projected on the sector ground space of H(1)
    psi0 = prepare_initial_state(p, spec)
    op = ScheduleOperator(p, psi0.basis)
    psi = solver_evolve(op, tau, psi0)
    _, vecs = ground_space(op.at(1.0))
    return float(math.sqrt(sum(abs(np.vdot(g, psi.amplitudes)) ** 2 for g in vecs)))


def _recording_evolve(monkeypatch):
    seen = []

    def recording(op, tau, psi0, cfg=PropagatorConfig()):
        seen.append(psi0.basis.spec)
        return solver_evolve(op, tau, psi0, cfg)

    monkeypatch.setattr(anneal, "evolve", recording)
    return seen


@pytest.mark.parametrize("p", [
    *(join_protocol(n, 1.0, 0.4) for n in (5, 7, 9)),
    *(dynamic_j2_protocol(n, 1.0, 0.3) for n in (5, 7, 9)),
    *(simultaneous_protocol(n, 1.0, 0.3) for n in (5, 7, 9)),
    *(reverse_protocol(join_protocol(n, 1.0, 0.4)) for n in (5, 6, 7, 8, 9)),
], ids=lambda p: p.label)
def test_isotropic_fidelity_evolves_in_total_spin_block(monkeypatch, p):
    spec = SectorSpec.magnetization(p.n_spins, p.n_spins // 2)
    seen = _recording_evolve(monkeypatch)
    comp = FidelityComputer(p, spec)
    for tau in (2.0, 7.0):
        assert abs(comp.value(tau) - _sector_only_fidelity(p, spec, tau)) <= 1e-10
    assert seen == [SectorSpec.total_spin(p.n_spins, spec.k)] * 2


def _ferro_uncoupling():
    with pytest.warns(UserWarning):
        return reverse_protocol(join_protocol(5, -1.0, 0.0))


@pytest.mark.parametrize("p, spec", [
    (simultaneous_protocol(5, (1.0, 1.0, 0.5)), SectorSpec.magnetization(5, 2)),
    (join_protocol(5, xyz_couplings(0.3)), SectorSpec.parity(5, "even")),
    (reverse_protocol(join_protocol(5, (0.0, 0.0, 1.0), (0.0, 0.0, 0.2))),
     SectorSpec.magnetization(5, 2)),
    # the ferromagnet's ground has S = 5/2, so the S = 1/2 block misses it
    (_ferro_uncoupling(), SectorSpec.magnetization(5, 2)),
    (join_protocol(5, 1.0, 0.3), SectorSpec.parity(5, "even")),
    (reverse_protocol(join_protocol(6, 1.0, 0.3)), SectorSpec.full(6)),
], ids=["xxz", "xyz", "ising", "ferromagnet", "parity", "full"])
def test_fidelity_falls_back_to_the_sector(monkeypatch, p, spec):
    seen = _recording_evolve(monkeypatch)
    comp = FidelityComputer(p, spec)
    assert comp.value(3.0) == _sector_only_fidelity(p, spec, 3.0)
    assert seen[0] == spec


def test_find_anneal_time_evolves_in_total_spin_block(monkeypatch):
    seen = _recording_evolve(monkeypatch)
    find_anneal_time(join_protocol(9, 1, 0.6), SectorSpec.magnetization(9, 4))
    assert seen and {spec.dimension() for spec in seen} == {42}


def _recording_eigensolves(monkeypatch):
    seen = []

    def recording(op, m, tol=1e-10, dense_cutoff=512, max_iter=500):
        seen.append(op.basis.spec)
        return lowest_eigenpairs(op, m, tol, dense_cutoff, max_iter)

    monkeypatch.setattr(anneal, "lowest_eigenpairs", recording)
    return seen


@pytest.mark.parametrize("n, k, partner", [(9, 4, 3), (9, 5, 6), (8, 4, 3), (5, 0, None)])
def test_fidelity_set_up_solves_block_and_partner_once_per_end(monkeypatch, n, k, partner):
    # the block's levels of H(0) and H(1) serve both the guard and F; the
    # guard adds one solve of the partner sector at each end, none of sector
    # k, both before the block is compiled
    p = join_protocol(n, 1.0, 0.3) if n % 2 else reverse_protocol(join_protocol(n, 1.0, 0.3))
    spec = SectorSpec.magnetization(n, k)
    seen = _recording_eigensolves(monkeypatch)
    comp = FidelityComputer(p, spec)
    block = SectorSpec.total_spin(n, k)
    if partner is None:  # the block is the whole sector
        assert seen == [block, block]
    else:
        assert seen == [SectorSpec.magnetization(n, partner)] * 2 + [block] * 2
    solves = len(seen)
    comp.value(1.0)
    assert len(seen) == solves


def test_fidelity_block_path_keeps_the_free_site_check(monkeypatch):
    # site 1 is free at s=0, but the others form two dimers, not one chain;
    # the block still holds the ground at both ends
    static = (Bond.heisenberg(2, 3, 1.0), Bond.heisenberg(4, 5, 1.0))
    ramped = RampedGroup(
        (Ramp.linear(0.0, 1.0),),
        (Bond.heisenberg(1, 2, 1.0), Bond.heisenberg(3, 4, 1.0)),
    )
    p = ProtocolSpec(n_spins=5, static_bonds=static, ramped_groups=(ramped,))
    spec = SectorSpec.magnetization(5, 2)
    assert total_spin_block(p, spec) is not None
    seen = _recording_eigensolves(monkeypatch)
    with pytest.raises(Disconnected):
        FidelityComputer(p, spec)
    assert seen == []


def test_degenerate_block_ground_is_ambiguous():
    # the uncoupling triangle (N = 3, J2 = J1) starts from two S = 1/2
    # levels below S = 3/2: the block is accepted, and its own gap is zero
    p = reverse_protocol(join_protocol(3, 1.0, 1.0))
    assert total_spin_block(p, K1_3) is not None
    with pytest.raises(AmbiguousInitial):
        FidelityComputer(p, K1_3)


def test_tie_across_total_spin_is_left_to_the_sector():
    # join N = 4: the free spin leaves S = 0 and S = 1 level at s = 0
    p, spec = join_protocol(4, 1.0, 0.0), SectorSpec.magnetization(4, 2)
    assert total_spin_block(p, spec) is None
    with pytest.raises(AmbiguousInitial):
        FidelityComputer(p, spec)


# --------------------------------------------------------------- tau search

def test_find_anneal_time_small_chain():
    r = find_anneal_time(join_protocol(3, 1.0, 0.0), K1_3, 0.9)
    assert r.reached and r.tau_star is not None
    assert r.fidelity_at_tau_star >= 0.9
    assert r.tau_star <= 10.0


def test_find_anneal_time_trivial_protocol():
    model = j1j2_chain(5, 1.0, 0.2)
    p = ProtocolSpec(n_spins=5, static_bonds=model.bonds, label="static")
    r = find_anneal_time(p, SectorSpec.magnetization(5, 2), 0.9)
    assert r.reached and r.tau_star == 0.0


def test_find_anneal_time_cap_not_reached():
    # strongly frustrated joining needs tau ~ 8 here; a tight cap gives up
    # gracefully instead of erroring
    r = find_anneal_time(
        join_protocol(9, 1.0, 0.7),
        SectorSpec.magnetization(9, 4),
        target=0.9,
        search=SearchSettings(tau0=1.0, tau_cap=3.0),
    )
    assert not r.reached
    assert r.status == "not-reached"
    assert r.tau_star is None and r.fidelity_at_tau_star is None
    assert r.cap == 3.0
    assert all(f < 0.9 for _, f in r.trace)


def test_find_anneal_time_rejects_bad_target():
    with pytest.raises(ValueError):
        find_anneal_time(join_protocol(3, 1.0, 0.0), K1_3, target=1.5)


@pytest.mark.parametrize(
    "bad", [{"tau0": math.nan}, {"growth": math.nan}, {"tau_cap": math.nan}, {"tau_cap": math.inf}]
)
def test_search_settings_reject_non_finite(bad):
    with pytest.raises(ValueError):
        SearchSettings(**bad)


# ----------------------------------------------------------------- gap scan

def test_gap_scan_known_cells():
    gaps = [gap_scan(join_protocol(3, 1.0, j2), [1.0], K1_3) for j2 in (0.0, 1.0)]
    assert np.isclose(gaps[0][0], 4.0)
    assert abs(gaps[1][0]) < 1e-9


def test_gap_scan_slice_matches_sector_gap():
    from adiabus.solver import sector_gap

    spec = SectorSpec.magnetization(5, 2)
    gaps = gap_scan(join_protocol(5, 1.0, 0.2), [0.4, 1.0], spec)
    for js, s in enumerate((0.4, 1.0)):
        model = evaluate_protocol(join_protocol(5, 1.0, 0.2), s)
        assert np.isclose(gaps[js], sector_gap(model, spec))


def test_gap_scan_records_failed_cells_as_nan(monkeypatch):
    def explode(op, m, tol=1e-10):
        raise NoConvergence("forced failure")

    monkeypatch.setattr(anneal, "lowest_eigenpairs", explode)
    gaps = gap_scan(join_protocol(3, 1.0, 0.0), [0.5], K1_3)
    assert np.isnan(gaps[0])


GAP_S = [0.0, 0.5, 1.0]


def _record_solves(monkeypatch):
    """(built, cells, solves): the spec of each ``build_sector_operator`` call,
    of each eigensolve in ``anneal`` outside the ``total_spin_block`` guard,
    that is of each gap-scan cell solved on its own, and of every eigensolve."""
    built, cells, solves, guarding = [], [], [], []

    def building(model, basis):
        built.append(basis.spec)
        return build_sector_operator(model, basis)

    def guard(protocol, sector):
        guarding.append(True)
        try:
            return total_spin_block(protocol, sector)
        finally:
            guarding.pop()

    def solving(op, m, tol=1e-10):
        solves.append(op.basis.spec)
        if not guarding:
            cells.append(op.basis.spec)
        return lowest_eigenpairs(op, m, tol)

    monkeypatch.setattr(solver, "build_sector_operator", building)
    monkeypatch.setattr(anneal, "build_sector_operator", building)
    monkeypatch.setattr(anneal, "total_spin_block", guard)
    monkeypatch.setattr(anneal, "lowest_eigenpairs", solving)
    return built, cells, solves


@pytest.mark.parametrize("p", [
    *(join_protocol(n, 1.0, 0.4) for n in (5, 7, 9)),
    *(dynamic_j2_protocol(n, 1.0, 0.3) for n in (5, 7, 9)),
    *(simultaneous_protocol(n, 1.0, 0.3) for n in (5, 7, 9)),
    *(reverse_protocol(join_protocol(n, 1.0, 0.4)) for n in (5, 7, 9)),
], ids=lambda p: p.label)
def test_isotropic_gap_scan_is_the_total_spin_gap(p):
    spec = SectorSpec.magnetization(p.n_spins, p.n_spins // 2)
    assert total_spin_block(p, spec) is not None
    gaps = gap_scan(p, GAP_S, spec)
    for gap, s in zip(gaps, GAP_S):
        levels = dense_total_spin_levels(evaluate_protocol(p, s), spec)
        assert abs(gap - (levels[1] - levels[0])) <= 1e-10


def _ferro_join():
    with pytest.warns(UserWarning):
        return join_protocol(5, -1.0, 0.0)


@pytest.mark.parametrize("p, spec", [
    (join_protocol(5, (1.0, 1.0, 0.5), 0.2), SectorSpec.magnetization(5, 2)),
    (join_protocol(5, 1.0, 0.2), SectorSpec.parity(5, "even")),
    (_ferro_join(), SectorSpec.magnetization(5, 2)),
], ids=["xxz", "parity", "ferromagnet"])
def test_gap_scan_keeps_the_sector(p, spec, monkeypatch):
    assert total_spin_block(p, spec) is None
    expect = [sector_gap(evaluate_protocol(p, s), spec) for s in GAP_S]
    _, cells, _ = _record_solves(monkeypatch)
    gaps = gap_scan(p, GAP_S, spec)
    assert cells == [spec] * len(GAP_S)
    # c_k (sum of H_k's entries) rounds apart from sum of (c_k J) entries
    assert np.allclose(gaps, expect, rtol=0.0, atol=1e-13)


def test_isotropic_gap_scan_builds_no_sector_operator(monkeypatch):
    built, cells, solves = _record_solves(monkeypatch)
    gap_scan(join_protocol(7, 1.0, 0.3), GAP_S, SectorSpec.magnetization(7, 3))
    # only the guard's partner is built, once per end; the cells at s = 0 and
    # s = 1 read the guard's block solves, so beyond the cells the column
    # solves the partner once per end
    assert built == [SectorSpec.magnetization(7, 2)] * 2
    assert cells == [SectorSpec.total_spin(7, 3)]
    assert len(solves) == len(GAP_S) + 2


def test_gap_scan_compiles_one_schedule_operator(monkeypatch):
    compiled, _ = _record_compiles(monkeypatch)
    gap_scan(join_protocol(7, 1.0, 0.3), [0.0, 0.25, 0.5, 0.75, 1.0],
             SectorSpec.magnetization(7, 3))
    assert compiled == [SectorSpec.total_spin(7, 3)]


def test_gap_scan_rejects_a_one_state_basis():
    with pytest.raises(DimensionMismatch):
        gap_scan(join_protocol(3, 1.0, 0.0), GAP_S, SectorSpec.magnetization(3, 0))


def test_gap_scan_falls_back_to_the_sector_when_the_guard_fails(monkeypatch):
    def explode(op, m):
        raise NoConvergence("forced failure")

    monkeypatch.setattr(anneal, "sector_levels", explode)
    p, spec = join_protocol(5, 1.0, 0.2), SectorSpec.magnetization(5, 2)
    expect = [sector_gap(evaluate_protocol(p, s), spec) for s in GAP_S]
    assert np.array_equal(gap_scan(p, GAP_S, spec), expect)


def test_gap_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        gap_scan(join_protocol(3, 1.0, 0.0), [], K1_3)


@pytest.mark.parametrize("s_values", [[0.5, 1.5], [-0.5, 0.5], [0.5, math.nan]])
def test_gap_scan_rejects_points_off_the_schedule(s_values):
    # a Ramp clamps s to [0, 1]: 1.5 would return the s = 1 gap, labelled 1.5
    with pytest.raises(ValueError):
        gap_scan(join_protocol(5, 1.0, 0.3), s_values, SectorSpec.magnetization(5, 2))


# ------------------------------------------------------- manifold tracking

def test_manifold_split_vanishes():
    split = ground_manifold_tracking(join_protocol(5, 1.0, 0.3), np.linspace(0, 1, 11))
    assert split <= 1e-9


def test_manifold_split_xyz_parity():
    p = simultaneous_protocol(5, xyz_couplings(0.3), 0.0)
    split = ground_manifold_tracking(p, np.linspace(0, 1, 7))
    assert split <= 1e-9


@pytest.mark.parametrize("spec, partner", [
    (SectorSpec.magnetization(7, 3), SectorSpec.magnetization(7, 4)),
    (SectorSpec.magnetization(7, 4), SectorSpec.magnetization(7, 3)),
    (SectorSpec.magnetization(7, 0), SectorSpec.magnetization(7, 7)),
    (SectorSpec.parity(5, "even"), SectorSpec.parity(5, "odd")),
    (SectorSpec.parity(5, "odd"), SectorSpec.parity(5, "even")),
    # self-partnered sectors appear once; at even N a spin flip keeps the parity
    (SectorSpec.full(5), None),
    (SectorSpec.magnetization(6, 3), None),
    (SectorSpec.parity(4, "even"), None),
    (SectorSpec.parity(4, "odd"), None),
])
def test_sector_pair(spec, partner):
    assert sector_pair(spec) == ((spec,) if partner is None else (spec, partner))


# an empty grid would read as a split of 0.0, perfect tracking
@pytest.mark.parametrize("s_values", [[0.5, 1.5], [-0.5, 0.5], [0.5, math.nan], []])
def test_manifold_tracking_rejects_bad_grids(s_values):
    with pytest.raises(ValueError):
        ground_manifold_tracking(join_protocol(5, 1.0, 0.3), s_values)


def test_manifold_tracking_needs_odd_length():
    with pytest.raises(OddLengthRequired):
        ground_manifold_tracking(join_protocol(4, 1.0, 0.0), [0.0, 1.0])


# ------------------------------------------------------------- dimer state

def test_mg_dimer_energies():
    two = mg_dimer_state(2)
    op2 = build_sector_operator(
        j1j2_chain(2, 1.0, 0.0), enumerate_sector(SectorSpec.full(2))
    )
    assert abs(op2.expectation(two.amplitudes) + 3.0) < 1e-12

    for n in (4, 6):
        sv = mg_dimer_state(n)
        op = build_sector_operator(
            j1j2_chain(n, 1.0, 0.5), enumerate_sector(SectorSpec.full(n))
        )
        e = op.expectation(sv.amplitudes)
        assert abs(e + 1.5 * n) < 1e-10
        residual = np.linalg.norm(op.matvec(sv.amplitudes) - e * sv.amplitudes)
        assert residual < 1e-10


def test_mg_dimer_rejects_odd_length():
    with pytest.raises(EvenLengthRequired):
        mg_dimer_state(5)


# --------------------------------------------------------------- transport

def test_transport_z_qubit():
    p = simultaneous_protocol(5, 1.0, 0.2)
    [r] = transport_qubit(p, [BlochVector(0, 0, 1)], 60.0)
    assert r.qubit_fidelity >= 0.99
    assert np.allclose((r.bloch_out.x, r.bloch_out.y, r.bloch_out.z), (0, 0, 1), atol=0.01)


def test_transport_plus_state_phase_coherence():
    p = simultaneous_protocol(5, 1.0, 0.2)
    [r] = transport_qubit(p, [BlochVector(1, 0, 0)], 60.0)
    assert r.qubit_fidelity >= 0.98
    assert r.bloch_out.x > 0.97
    assert set(r.sector_fidelities) == {"k=2", "k=3"}


def test_transport_ising_fails():
    p = simultaneous_protocol(5, (0.0, 0.0, 1.0), (0.0, 0.0, 0.2))
    with pytest.warns(UserWarning):
        [r] = transport_qubit(p, [BlochVector(1, 0, 0)], 40.0)
    assert r.qubit_fidelity < 0.6


def test_transport_manifold_readout_for_join():
    p = join_protocol(5, 1.0, 0.2)
    rz, rx = transport_qubit(p, [BlochVector(0, 0, 1), BlochVector(1, 0, 0)], 80.0)
    assert rz.qubit_fidelity >= 0.99 and rx.qubit_fidelity >= 0.99
    assert rz.bloch_out.z > 0.99
    assert rx.bloch_out.x > 0.99


@pytest.mark.parametrize("p, tau", [
    (join_protocol(7, 1.0, 0.4), 3.0),
    (join_protocol(7, 1.0, 0.6), 10.0),
    (join_protocol(7, (1.0, 1.0, 0.5)), 3.0),
    (join_protocol(7, xyz_couplings(0.3)), 3.0),  # parity sectors
    (dynamic_j2_protocol(7, 1.0, 0.3), 3.0),
])
def test_transport_absorbed_readout_is_exact(p, tau):
    # the global spin flip F commutes with H(s) and takes the input-down
    # component to +-1 times the input-up one, so the evolved halves are
    # flip partners too and the frame (g, sigma F g) reads the same amplitude
    # from both: the readout keeps the direction exactly even where the
    # anneal is poor (F = 0.82 and 0.58 for the first two), and a sign slip
    # in one sector would flip bx and by
    for b, r in zip(CARDINAL_BLOCH, transport_qubit(p, CARDINAL_BLOCH, tau)):
        out = r.bloch_out
        assert np.allclose((out.x, out.y, out.z), (b.x, b.y, b.z), rtol=0, atol=1e-12)
        assert r.sector_fidelities
        for f in r.sector_fidelities.values():
            assert abs(r.qubit_fidelity - f**2) < 1e-12


@pytest.mark.parametrize("p, tau", [
    (simultaneous_protocol(5, 1.0, 0.2), 20.0),
    (join_protocol(7, 1.0, 0.4), 3.0),  # the qubit ends absorbed into the chain
])
def test_transport_inputs_share_one_evolution(p, tau):
    # the evolved state is linear in the input spinor, so reading all six
    # cardinals from one call gives each single-input call's numbers bitwise
    batch = transport_qubit(p, CARDINAL_BLOCH, tau)
    assert [r.bloch_in for r in batch] == list(CARDINAL_BLOCH)
    for b, r in zip(CARDINAL_BLOCH, batch):
        [single] = transport_qubit(p, [b], tau)
        assert r.bloch_out == single.bloch_out
        assert r.qubit_fidelity == single.qubit_fidelity
        assert r.sector_fidelities == single.sector_fidelities
    assert batch[0].sector_fidelities is not batch[1].sector_fidelities


def test_transport_absorbed_qubit_eigensolves_per_tau(monkeypatch):
    # one at s=0 and one at s=1, both in the first sector; the spin flip
    # gives the partner's s=1 ground and the frame
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return lowest_eigenpairs(*args, **kwargs)

    monkeypatch.setattr(anneal, "lowest_eigenpairs", counting)
    transport_qubit(join_protocol(9, 1.0, 0.3), CARDINAL_BLOCH, 3.0)
    assert len(calls) == 2


def test_transport_rejects_coupled_input():
    model = j1j2_chain(5, 1.0, 0.0)
    p = ProtocolSpec(n_spins=5, static_bonds=model.bonds, label="static")
    with pytest.raises(InputSiteCoupled):
        transport_qubit(p, [BlochVector(0, 0, 1)], 1.0)


def test_transport_stays_in_sectors(monkeypatch):
    built = []

    def recording(spec):
        built.append(spec)
        return enumerate_sector(spec)

    monkeypatch.setattr(anneal, "enumerate_sector", recording)
    for p in (simultaneous_protocol(5, 1.0, 0.2), join_protocol(5, 1.0, 0.2)):
        transport_qubit(p, [BlochVector(1, 0, 0)], 5.0)
    assert built and all(spec.kind != "full" for spec in built)


def test_transport_rejects_even_length(monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the length check")

    monkeypatch.setattr(anneal, "lowest_eigenpairs", no_eigensolve)
    for n in (4, 6):
        with pytest.raises(OddLengthRequired):
            transport_qubit(simultaneous_protocol(n, 1.0, 0.2), [BlochVector(1, 0, 0)], 5.0)


def test_transport_rejects_empty_inputs(monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the input check")

    monkeypatch.setattr(anneal, "lowest_eigenpairs", no_eigensolve)
    with pytest.raises(ValueError):
        transport_qubit(join_protocol(5, 1.0, 0.3), [], 5.0)


@pytest.mark.parametrize("tau", [math.inf, math.nan])
def test_transport_rejects_non_finite_tau(tau, monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the tau check")

    monkeypatch.setattr(anneal, "lowest_eigenpairs", no_eigensolve)
    with pytest.raises(ValueError, match="finite"):
        transport_qubit(join_protocol(5, 1.0, 0.3), [BlochVector(1, 0, 0)], tau)


@pytest.mark.parametrize("tau", [math.inf, math.nan])
def test_fidelity_rejects_non_finite_tau(tau):
    with pytest.raises(ValueError, match="finite"):
        fidelity(join_protocol(5, 1.0, 0.3), tau, SectorSpec.magnetization(5, 2))


def test_transport_rejects_ferromagnetic_subchain():
    # isotropic ferromagnet: both free-spin orientations tie
    with pytest.warns(UserWarning):
        ferro = join_protocol(5, (-1.0, -1.0, -1.0), 0.0)
    with pytest.raises(AmbiguousInitial):
        transport_qubit(ferro, [BlochVector(1, 0, 0)], 2.0)
    # Ising-like ferromagnet: the subchain ground leaves the manifold pair
    with pytest.raises(SectorMismatch):
        transport_qubit(join_protocol(5, (1.0, 1.0, -1.5), 0.0), [BlochVector(1, 0, 0)], 2.0)


ORACLE_CASES = (
    (simultaneous_protocol(5, 1.0, 0.2), 20.0),
    (simultaneous_protocol(5, xyz_couplings(0.4), 0.0), 15.0),
)


def _dense_bloch_out(p, tau, steps):
    """Output Bloch vectors of the cardinal inputs: the full 2^N state, prepared
    from an eigh of the s=0 block with the input site (N) spin down, evolved
    with dense CF4 exponentials over ``steps`` steps."""
    n = p.n_spins
    h0 = dense_hamiltonian(evaluate_protocol(p, 0.0))
    h1 = dense_hamiltonian(evaluate_protocol(p, 1.0))
    half = 1 << (n - 1)
    _, sub = np.linalg.eigh(h0[:half, :half])
    # H(s) is affine in s for these protocols
    u = cf4_propagator(lambda s: (1 - s) * h0 + s * h1, tau, steps)
    out = []
    for b in CARDINAL_BLOCH:
        _, frame = np.linalg.eigh(b.x * SX + b.y * SY + b.z * SZ)
        m = (u @ np.kron(frame[:, 1], sub[:, 0])).reshape(-1, 2)
        rho = m.T @ m.conj()  # site 1, (down, up) order
        out.append([np.trace(rho @ pauli).real for pauli in (SX, SY, SZ)])
    return out


def test_transport_against_dense_oracle():
    # the same CF4 steps as evolve, so only the sector path and Krylov differ
    for p, tau in ORACLE_CASES:
        want = _dense_bloch_out(p, tau, PropagatorConfig().steps_for(tau))
        for r, w in zip(transport_qubit(p, CARDINAL_BLOCH, tau), want):
            got = r.bloch_out
            assert np.allclose((got.x, got.y, got.z), w, rtol=0, atol=1e-9)


def test_default_steps_beat_midpoint():
    # the default step policy against the converged answer (CF4 at 16x the
    # steps); 2e-7 excludes the midpoint rule at dt = min(0.05, tau/200),
    # which is 1.0e-6 off on the xyz case
    for p, tau in ORACLE_CASES:
        want = _dense_bloch_out(p, tau, 16 * PropagatorConfig().steps_for(tau))
        for r, w in zip(transport_qubit(p, CARDINAL_BLOCH, tau), want):
            got = r.bloch_out
            assert np.allclose((got.x, got.y, got.z), w, rtol=0, atol=2e-7)


# ------------------------------------------ one compile per protocol and basis

@pytest.mark.parametrize("p, spec, basis, built_specs", [
    # the guard builds its partner statically, once at each end
    (join_protocol(9, 1.0, 0.3), SectorSpec.magnetization(9, 4),
     SectorSpec.total_spin(9, 4), [SectorSpec.magnetization(9, 3)] * 2),
    (join_protocol(5, (1.0, 1.0, 0.5), 0.2), SectorSpec.magnetization(5, 2),
     SectorSpec.magnetization(5, 2), []),
    (join_protocol(5, 1.0, 0.3), SectorSpec.parity(5, "even"),
     SectorSpec.parity(5, "even"), []),
], ids=["block", "xxz", "parity"])
def test_fidelity_computer_compiles_once(monkeypatch, p, spec, basis, built_specs):
    compiled, built = _record_compiles(monkeypatch)
    FidelityComputer(p, spec).value(1.0)
    assert compiled == [basis]
    assert built == built_specs


@pytest.mark.parametrize("p, evolves", [
    (join_protocol(7, 1.0, 0.3), 1),
    (simultaneous_protocol(5, xyz_couplings(0.3), 0.0), 1),
    # a degenerate subchain ground: the folded component is evolved too
    (simultaneous_protocol(5, (0.0, 0.0, 1.0), (0.0, 0.0, 0.2)), 2),
], ids=["magnetization", "parity", "warn"])
def test_transport_compiles_once(monkeypatch, p, evolves):
    # every solve and evolution runs on one compile of the first sector
    compiled, built = _record_compiles(monkeypatch)
    seen = _recording_evolve(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the warn case warns of its ground
        for tau in (3.0, 5.0):
            transport_qubit(p, CARDINAL_BLOCH, tau)
    first = anneal.default_sector(p)
    assert compiled == [first] * 2
    assert built == []
    assert seen == [first] * 2 * evolves


def test_manifold_tracking_compiles_once_per_sector(monkeypatch):
    compiled, built = _record_compiles(monkeypatch)
    ground_manifold_tracking(join_protocol(7, 1.0, 0.3), np.linspace(0, 1, 5))
    assert compiled == [SectorSpec.magnetization(7, 3), SectorSpec.magnetization(7, 4)]
    assert built == []


def test_prepare_initial_state_builds_no_static_operator(monkeypatch):
    compiled, built = _record_compiles(monkeypatch)
    spec = SectorSpec.magnetization(9, 4)
    prepare_initial_state(join_protocol(9, 1.0, 0.3), spec)
    assert compiled == [spec]
    assert built == []
