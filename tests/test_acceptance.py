"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
Expected values tagged as derived come from the independent dense oracle
in oracles.py (Kronecker-product Hamiltonians + numpy.linalg.eigh).
"""

import json
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from adiabus.basis import SectorSpec, enumerate_sector
from adiabus.cli import parse_config, run_experiment
from adiabus.model import (
    BlochVector,
    CARDINAL_BLOCH,
    dynamic_j2_protocol,
    evaluate_protocol,
    join_protocol,
    reverse_protocol,
    simultaneous_protocol,
    xyz_couplings,
)
from adiabus.anneal import (
    FidelityComputer,
    fidelity,
    find_anneal_time,
    ground_manifold_tracking,
    mg_dimer_state,
    transport_qubit,
)
from adiabus.solver import (
    build_sector_operator,
    lowest_eigenpairs,
    sector_gap,
)
from adiabus.model import j1j2_chain

from oracles import dense_hamiltonian, dense_sector_eigvals


@contextmanager
def criterion(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


def all_sectors(n):
    specs = [SectorSpec.full(n), SectorSpec.parity(n, "even"), SectorSpec.parity(n, "odd")]
    specs += [SectorSpec.magnetization(n, k) for k in range(n + 1)]
    return specs


def test_c01_oracle_equivalence():
    with criterion(1, "ARPACK (LAPACK for one state) matches dense diagonalization on all sectors"):
        for trial in range(5):
            rng = np.random.default_rng(1000 + trial)
            j1 = float(rng.uniform(0.5, 1.5))
            j2 = float(rng.uniform(0.0, 0.6))
            for n in range(2, 9):
                model = j1j2_chain(n, j1, j2)
                for spec in all_sectors(n):
                    basis = enumerate_sector(spec)
                    m = min(3, basis.dimension)
                    op = build_sector_operator(model, basis)
                    got = lowest_eigenpairs(op, m, tol=1e-10, dense_cutoff=0)
                    want = dense_sector_eigvals(model, spec, m)
                    assert np.allclose(got.eigenvalues, want, atol=1e-9), (
                        trial, n, spec, got.eigenvalues, want,
                    )


def union_lowest(model, specs, count):
    vals = []
    for spec in specs:
        basis = enumerate_sector(spec)
        m = min(count, basis.dimension)
        vals.extend(
            float(e)
            for e in lowest_eigenpairs(build_sector_operator(model, basis), m).eigenvalues
        )
    return sorted(vals)[:count]


def test_c02_twofold_degeneracy():
    with criterion(2, "odd chains carry an exact twofold degeneracy"):
        for n in (3, 5, 7, 9):
            for seed in range(5):
                rng = np.random.default_rng(77 * n + seed)
                model = j1j2_chain(
                    n, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 0.6))
                )
                specs = [SectorSpec.magnetization(n, k) for k in range(n + 1)]
                low = union_lowest(model, specs, 6)
                for a, b in zip(low[0::2], low[1::2]):
                    assert abs(a - b) < 1e-9, (n, seed, low)
        # anisotropic chains keep the pairing through the parity blocks
        for n in (3, 5, 7):
            for delta in (0.3, 1.0):
                model = j1j2_chain(n, xyz_couplings(delta))
                specs = [SectorSpec.parity(n, "even"), SectorSpec.parity(n, "odd")]
                low = union_lowest(model, specs, 6)
                for a, b in zip(low[0::2], low[1::2]):
                    assert abs(a - b) < 1e-9, (n, delta, low)


def test_c03_dimer_product_exactness():
    with criterion(3, "dimer product is the exact ground state at J2/J1=0.5"):
        for n in (4, 6):
            # oracle: dense diagonalization confirms the dimer energy is E0
            e0 = float(np.linalg.eigvalsh(dense_hamiltonian(j1j2_chain(n, 1.0, 0.5)))[0])
            assert abs(e0 + 1.5 * n) < 1e-10
        for n in (4, 6, 8, 10):
            sv = mg_dimer_state(n)
            full = enumerate_sector(SectorSpec.full(n))
            op = build_sector_operator(j1j2_chain(n, 1.0, 0.5), full)
            energy = op.expectation(sv.amplitudes)
            assert abs(energy + 1.5 * n) < 1e-10, (n, energy)
            spec = SectorSpec.magnetization(n, n // 2)
            basis = enumerate_sector(spec)
            ground = lowest_eigenpairs(
                build_sector_operator(j1j2_chain(n, 1.0, 0.5), basis), 1
            ).eigenvectors[0]
            overlap = abs(np.vdot(ground.amplitudes, sv.amplitudes[basis.states]))
            assert overlap >= 1.0 - 1e-9, (n, overlap)


def test_c04_sudden_quench_overlap():
    with criterion(4, "instant quench fidelity equals sqrt(3)/2"):
        f = fidelity(join_protocol(3, 1.0, 0.0), 0.0, SectorSpec.magnetization(3, 1))
        assert abs(f - 0.866025) < 1e-6


def test_c05_adiabatic_convergence():
    with criterion(5, "joining reaches 0.9 and 0.99 fidelity in bounded time"):
        for n in (5, 7, 9):
            sec = SectorSpec.magnetization(n, n // 2)
            for j2 in (0.0, 0.2, 0.4):
                p = join_protocol(n, 1.0, j2)
                r90 = find_anneal_time(p, sec, 0.9)
                assert r90.reached and r90.tau_star <= 1e4, (n, j2, r90.status)
                assert r90.fidelity_at_tau_star >= 0.9
                r99 = find_anneal_time(p, sec, 0.99)
                assert r99.reached and r99.tau_star <= 1e4, (n, j2, r99.status)
                assert r99.fidelity_at_tau_star >= 0.99


def test_c06_gap_collapse_above_half_frustration():
    with criterion(6, "sector gap collapses for J2 above 0.5"):
        sec = SectorSpec.magnetization(9, 4)
        reference = sector_gap(
            evaluate_protocol(join_protocol(9, 1.0, 0.25), 1.0), sec
        )
        frustrated = [
            sector_gap(evaluate_protocol(join_protocol(9, 1.0, j2), 1.0), sec)
            for j2 in (0.55, 0.60, 0.65, 0.70, 0.75, 0.80)
        ]
        assert min(frustrated) < 0.1 * reference, (min(frustrated), reference)
        triangle = sector_gap(
            evaluate_protocol(join_protocol(3, 1.0, 1.0), 1.0),
            SectorSpec.magnetization(3, 1),
        )
        assert triangle <= 1e-9


def test_c07_time_reversal_equality():
    with criterion(7, "reversed schedules anneal exactly as well as forward"):
        sec = SectorSpec.magnetization(7, 3)
        for j2 in (0.2, 0.5):
            p = join_protocol(7, 1.0, j2)
            fwd = FidelityComputer(p, sec)
            rev = FidelityComputer(reverse_protocol(p), sec)
            for tau in (1.0, 10.0, 100.0):
                assert abs(fwd.value(tau) - rev.value(tau)) < 1e-6, (j2, tau)


def test_c08_no_relative_phase_condition():
    with criterion(8, "manifold sector energies stay locked along the schedule"):
        split = ground_manifold_tracking(
            join_protocol(7, 1.0, 0.3), np.linspace(0.0, 1.0, 21)
        )
        assert split <= 1e-9, split


def test_c09_qubit_transport():
    with criterion(9, "arbitrary qubits survive transport; diagonal coupling fails"):
        p = simultaneous_protocol(7, 1.0, 0.2)
        r = find_anneal_time(p, SectorSpec.magnetization(7, 3), 0.99)
        assert r.reached
        tau = r.tau_star
        for bloch, out in zip(CARDINAL_BLOCH, transport_qubit(p, CARDINAL_BLOCH, tau)):
            assert out.qubit_fidelity >= 0.98, (bloch, out.qubit_fidelity)
        ising = simultaneous_protocol(7, (0.0, 0.0, 1.0), (0.0, 0.0, 0.2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            [bad] = transport_qubit(ising, [BlochVector(1, 0, 0)], tau)
        # oracle run pins the diagonal-coupling failure at exactly 0.5
        assert bad.qubit_fidelity < 0.6, bad.qubit_fidelity
        assert abs(bad.qubit_fidelity - 0.5) < 1e-6


def test_c10_dynamic_coupling_fixed_point():
    with criterion(10, "dynamic J2 at 0.5 coincides with the plain join"):
        sec = SectorSpec.magnetization(7, 3)
        rj = find_anneal_time(join_protocol(7, 1.0, 0.5), sec, 0.9)
        rd = find_anneal_time(dynamic_j2_protocol(7, 1.0, 0.5), sec, 0.9)
        assert rj.reached and rd.reached
        # identical schedules: the searches agree to full precision, well
        # inside the bisection resolution
        resolution = 0.05 * max(rj.tau_star, rd.tau_star)
        assert abs(rj.tau_star - rd.tau_star) <= resolution
        assert rj.tau_star == rd.tau_star


def test_c11_xxz_anisotropy_optimum():
    with criterion(11, "moderate Z/X anisotropy helps, strong anisotropy hurts"):
        sec = SectorSpec.magnetization(7, 3)
        taus = {}
        for ratio in (1.0, 1.5, 6.0):
            p = simultaneous_protocol(7, (1.0, 1.0, ratio), 0.0)
            r = find_anneal_time(p, sec, 0.9)
            assert r.reached, ratio
            taus[ratio] = r.tau_star
        assert taus[1.5] <= taus[1.0], taus
        assert taus[6.0] > taus[1.5], taus


def test_c12_deterministic_parallel_sweeps(tmp_path):
    with criterion(12, "worker count never changes the CSV bytes"):
        cfg = parse_config(
            json.dumps(
                {
                    "experiment": "anneal-time",
                    "model": "j1j2",
                    "protocol": "join",
                    "N": [5, 7],
                    "J2": [0.0, 0.2, 0.4],
                }
            )
        )
        run_experiment(cfg, tmp_path / "serial", workers=1)
        run_experiment(cfg, tmp_path / "parallel", workers=8)
        serial = (tmp_path / "serial" / "anneal-time.csv").read_bytes()
        parallel = (tmp_path / "parallel" / "anneal-time.csv").read_bytes()
        assert serial == parallel and len(serial) > 0
