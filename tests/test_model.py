import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabus.errors import InvalidSize
from adiabus.model import (
    BlochVector,
    Bond,
    Ramp,
    RampedGroup,
    dynamic_j2_protocol,
    evaluate_protocol,
    j1j2_chain,
    join_protocol,
    protocol_from_dict,
    protocol_to_dict,
    reverse_protocol,
    simultaneous_protocol,
    xyz_couplings,
)


def bond_map(model):
    return {b.pair: b.triple for b in model.bonds}


# ------------------------------------------------------------ static chains

def test_j1j2_chain_bond_pattern():
    m = j1j2_chain(4, 1.0, 0.5)
    nearest = [b for b in m.bonds if b.j == b.i + 1]
    nnn = [b for b in m.bonds if b.j == b.i + 2]
    assert len(nearest) == 3 and all(b.triple == (1.0, 1.0, 1.0) for b in nearest)
    assert len(nnn) == 2 and all(b.triple == (0.5, 0.5, 0.5) for b in nnn)


def test_j1j2_chain_minimal_and_mg_point():
    assert len(j1j2_chain(2, 1.0, 0.0).bonds) == 1
    m = j1j2_chain(5, 1.0, 0.5)
    assert len(m.bonds) == 4 + 3


def test_j1j2_chain_isotropy():
    for b in j1j2_chain(9, 1.3, 0.4).bonds:
        assert b.jx == b.jy == b.jz


def test_chain_size_errors():
    with pytest.raises(InvalidSize):
        j1j2_chain(1)
    with pytest.raises(InvalidSize):
        join_protocol(2)
    with pytest.raises(InvalidSize):
        simultaneous_protocol(3)


def test_antiferromagnetic_warning():
    with pytest.warns(UserWarning):
        j1j2_chain(4, -1.0, 0.0)


def test_xxz_chain():
    assert j1j2_chain(5, (1.0, 1.0, 1.0)) == j1j2_chain(5, 1.0, 0.0)
    xx = j1j2_chain(4, (1.0, 1.0, 0.0))
    assert all(b.triple == (1.0, 1.0, 0.0) for b in xx.bonds)
    assert all(b.jz == 2.0 for b in j1j2_chain(4, (1.0, 1.0, 2.0)).bonds)


def test_xyz_chain_values():
    assert j1j2_chain(4, xyz_couplings(0.0)) == j1j2_chain(4, 1.0, 0.0)
    jx, jy, jz = xyz_couplings(1.0)
    assert np.allclose((jx, jy, jz), (0.462910, 0.925820, 1.388730), atol=1e-6)
    jx, jy, jz = xyz_couplings(-0.5)
    assert np.allclose((jx, jy, jz), (1.549193, 0.774597, 0.0), atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-1.0, max_value=2.0, allow_nan=False))
def test_xyz_normalization(delta):
    jx, jy, jz = xyz_couplings(delta)
    a, b, c = 1.0, 1.0 + delta, 1.0 + 2.0 * delta
    ratio = (jx / a) if a else 0.0
    assert abs(ratio**2 * (a * a + b * b + c * c) - 3.0) < 1e-12


def test_ising_chain_is_diagonal_coupling():
    m = j1j2_chain(5, (0.0, 0.0, 1.0), (0.0, 0.0, 0.2))
    assert all(b.jx == b.jy == 0.0 for b in m.bonds)


# ---------------------------------------------------------------- protocols

def test_join_protocol_endpoints():
    p = join_protocol(5, 1.0, 0.0)
    assert evaluate_protocol(p, 0.0).free_sites() == [5]
    p3 = join_protocol(5, 1.0, 0.3)
    assert evaluate_protocol(p3, 1.0) == j1j2_chain(5, 1.0, 0.3)


def test_join_protocol_midpoint():
    p = join_protocol(5, 1.0, 0.3)
    bm = bond_map(evaluate_protocol(p, 0.5))
    assert np.allclose(bm[(4, 5)], (0.5,) * 3)
    assert np.allclose(bm[(3, 5)], (0.15,) * 3)


def test_dynamic_j2_schedule():
    p = dynamic_j2_protocol(5, 1.0, 0.2)
    bm0 = bond_map(evaluate_protocol(p, 0.0))
    assert np.allclose(bm0[(1, 3)], (0.5,) * 3)
    assert (4, 5) not in bm0 and (3, 5) not in bm0
    bm = bond_map(evaluate_protocol(p, 0.5))
    assert np.allclose(bm[(1, 3)], (0.35,) * 3)
    assert np.allclose(bm[(3, 5)], (0.5 * 0.35,) * 3)


def test_dynamic_j2_at_fixed_point_matches_join():
    pd = dynamic_j2_protocol(6, 1.0, 0.5)
    pj = join_protocol(6, 1.0, 0.5)
    for s in (0.0, 0.25, 0.6, 1.0):
        assert evaluate_protocol(pd, s) == evaluate_protocol(pj, s)


@pytest.mark.parametrize("reverse", [False, True])
def test_dynamic_j2_term_layout(reverse):
    # static nearest-neighbour bonds, then the sliding next-nearest bonds, the
    # joining bond, and the joining next-nearest bond under both ramps
    n, j2f = 6, 0.2
    p = dynamic_j2_protocol(n, 1.0, j2f)
    if reverse:
        p = reverse_protocol(p)
    terms = p.terms()
    assert [[b.pair for b in bonds] for _, bonds in terms] == [
        [(1, 2), (2, 3), (3, 4), (4, 5)],
        [(1, 3), (2, 4), (3, 5)],
        [(5, 6)],
        [(4, 6)],
    ]
    assert all(b.triple == (1.0, 1.0, 1.0) for _, bonds in terms for b in bonds)
    for s in (0.0, 0.2113248654051871, 0.5, 0.8, 1.0):
        # the ramps as Ramp evaluates them: v0 + s (v1 - v0), reversed or not
        t, j2 = (1.0 - s, j2f + s * (0.5 - j2f)) if reverse else (s, 0.5 + s * (j2f - 0.5))
        assert [c(s) for c, _ in terms] == [1.0, j2, t, t * j2]


def test_ramped_group_is_the_product_of_its_ramps():
    g = RampedGroup((Ramp(0.0, 1.0), Ramp(0.5, 0.2), Ramp(2.0, 2.0)), (Bond(1, 2, 1, 1, 1),))
    assert g(0.5) == 0.5 * 0.35 * 2.0
    assert g(0.0) == 0.0 and g(1.0) == 0.4
    with pytest.raises(ValueError):
        RampedGroup((), (Bond(1, 2, 1, 1, 1),))


def test_simultaneous_endpoints_and_crossover():
    p = simultaneous_protocol(6, 1.0, 0.2)
    m0, m1 = evaluate_protocol(p, 0.0), evaluate_protocol(p, 1.0)
    assert m0.free_sites() == [6]
    assert m1.free_sites() == [1]
    bm = bond_map(evaluate_protocol(p, 0.5))
    assert np.allclose(bm[(1, 2)], (0.5,) * 3)
    assert np.allclose(bm[(5, 6)], (0.5,) * 3)


def test_evaluate_clamps_outside_schedule():
    p = join_protocol(4, 1.0, 0.2)
    assert evaluate_protocol(p, -3.0) == evaluate_protocol(p, 0.0)
    assert evaluate_protocol(p, 7.0) == evaluate_protocol(p, 1.0)
    bm = bond_map(evaluate_protocol(join_protocol(3, 1.0, 0.0), 0.25))
    assert np.allclose(bm[(2, 3)], (0.25,) * 3)


def test_reverse_protocol_is_involution():
    for p in (
        join_protocol(5, 1.0, 0.3),
        dynamic_j2_protocol(5, 1.0, 0.2),
        simultaneous_protocol(5, 1.0, 0.1),
    ):
        assert reverse_protocol(reverse_protocol(p)) == p
        for s in (0.0, 0.3, 0.5, 1.0):
            assert evaluate_protocol(reverse_protocol(p), s) == evaluate_protocol(
                p, 1.0 - s
            )


def test_continuity_of_bond_strengths():
    # piecewise-linear in s: steps on a fine grid bounded by slope * spacing
    grid = np.linspace(0.0, 1.0, 101)
    for p in (
        join_protocol(6, 1.0, 0.4),
        dynamic_j2_protocol(6, 1.0, 0.1),
        simultaneous_protocol(6, 1.0, 0.4),
    ):
        pairs = sorted({b.pair for _, bonds in p.terms() for b in bonds})
        prev = None
        max_slope = 0.0
        for g in p.ramped_groups:
            # slope of a product of ramps: each ramp's slope times the others' bounds
            bounds = [max(abs(r.v0), abs(r.v1)) for r in g.ramps]
            slope = sum(
                abs(r.v1 - r.v0) * math.prod(bounds[:k] + bounds[k + 1:])
                for k, r in enumerate(g.ramps)
            )
            max_slope = max(max_slope, slope * max(
                max(abs(c) for c in b.triple) for b in g.bonds))
        for s in grid:
            coeffs = p.bond_coefficients(s)
            vec = np.concatenate([
                coeffs.get(pair, np.zeros(3)) for pair in pairs
            ])
            if prev is not None:
                step = np.max(np.abs(vec - prev))
                assert step <= (max_slope + 1.0) * (grid[1] - grid[0]) + 1e-12
            prev = vec


def test_ramp_basics():
    r = Ramp.linear(1.0, 0.0)
    assert r(0.0) == 1.0 and r(1.0) == 0.0 and r(0.25) == 0.75
    assert r(-5.0) == 1.0 and r(5.0) == 0.0
    assert r.reversed()(0.0) == 0.0
    c = Ramp.constant(0.5)
    assert c(0.3) == 0.5


def test_bond_validation():
    with pytest.raises(InvalidSize):
        Bond(3, 3, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidSize):
        Bond(4, 2, 1.0, 1.0, 1.0)


def test_protocol_serialization_round_trip():
    for p in (
        join_protocol(5, 1.0, 0.3),
        dynamic_j2_protocol(7, 1.0, 0.2),
        simultaneous_protocol(6, (1.0, 1.0, 1.5), 0.0),
        reverse_protocol(join_protocol(4, 1.0, 0.1)),
    ):
        assert protocol_from_dict(protocol_to_dict(p)) == p


UNIT = {"v0": 1.0, "v1": 1.0}


def test_protocol_from_dict_rejects_fractional_sites():
    d = protocol_to_dict(dynamic_j2_protocol(5, 1.0, 0.2))
    for bad in (
        {"n_spins": 5.9},
        {"static_bonds": [[1, 2.7, 1.0, 1.0, 1.0]]},
        {"ramped_groups": [{"ramp": {"v0": 0.5, "v1": 0.2}, "bonds": [[1, 3.5, 1, 1, 1]]}]},
    ):
        with pytest.raises(ValueError):
            protocol_from_dict({**d, **bad})
    for bad in (
        {"n_spins": math.inf},
        {"static_bonds": [[1, 2, math.nan, 1.0, 1.0]]},
        {"static_bonds": [[1, 2, 1.0, 1.0, -math.inf]]},
        {"ramped_groups": [{"ramp": [UNIT, {"v0": 0.5, "v1": math.nan}], "bonds": [[3, 5, 1, 1, 1]]}]},
        {"ramped_groups": [{"ramp": {"v0": math.inf, "v1": 1.0}, "bonds": [[4, 5, 1, 1, 1]]}]},
        {"ramped_groups": [{"ramp": UNIT, "bonds": [[1, math.nan, 1, 1, 1]]}]},
        # 401-digit integers, too large for a float
        {"static_bonds": [[1, 2, 10**400, 1.0, 1.0]]},
        {"ramped_groups": [{"ramp": [UNIT, {"v0": 0.5, "v1": -(10**400)}], "bonds": [[3, 5, 1, 1, 1]]}]},
        {"ramped_groups": [{"ramp": UNIT, "bonds": [[1, 10**400, 1, 1, 1]]}]},
    ):
        with pytest.raises(ValueError, match="finite"):
            protocol_from_dict({**d, **bad})


@pytest.mark.parametrize(
    "key, where, bad",
    [
        ("ramped_group", "protocol_spec", {"ramped_group": []}),
        ("j2_ramp", "protocol_spec", {"j2_ramp": {"v0": 0.5, "v1": 0.2}}),
        ("j2_pairs", "protocol_spec", {"j2_pairs": [[1, 3]]}),
        ("ramps", "ramped_groups[0]", {"ramped_groups": [{"ramps": [UNIT], "ramp": UNIT, "bonds": []}]}),
        ("v", "ramped_groups[0].ramp", {"ramped_groups": [{"ramp": {"v0": 0, "v": 1}, "bonds": []}]}),
        ("V1", "ramped_groups[0].ramp", {"ramped_groups": [{"ramp": [UNIT, {"V1": 1}], "bonds": []}]}),
    ],
)
def test_protocol_from_dict_rejects_unknown_keys(key, where, bad):
    d = {**protocol_to_dict(join_protocol(5, 1.0, 0.3)), **bad}
    with pytest.raises(ValueError, match=rf"unknown key '{key}' in {re.escape(where)}$"):
        protocol_from_dict(d)


def test_protocol_from_dict_reads_one_ramp_or_a_list():
    spec = {"n_spins": 5, "static_bonds": [[1, 2, 1, 1, 1], [2, 3, 1, 1, 1], [3, 4, 1, 1, 1]]}
    bonds = [[3, 5, 1.0, 1.0, 1.0]]
    one = protocol_from_dict({**spec, "ramped_groups": [{"ramp": {"v0": 0, "v1": 1}, "bonds": bonds}]})
    listed = protocol_from_dict(
        {**spec, "ramped_groups": [{"ramp": [{"v0": 0, "v1": 1}], "bonds": bonds}]}
    )
    assert one == listed
    assert one.ramped_groups == (RampedGroup((Ramp(0.0, 1.0),), (Bond(3, 5, 1.0, 1.0, 1.0),)),)
    ramps = [{"v0": 0.0, "v1": 1.0}, {"v0": 0.5, "v1": 0.2}]
    product = protocol_from_dict({**spec, "ramped_groups": [{"ramp": ramps, "bonds": bonds}]})
    assert product.ramped_groups[0].ramps == (Ramp(0.0, 1.0), Ramp(0.5, 0.2))
    assert product.bond_coefficients(0.5)[(3, 5)].tolist() == [0.5 * 0.35] * 3
    assert protocol_to_dict(product)["ramped_groups"][0]["ramp"] == ramps


# ------------------------------------------------------------- Bloch vector

UNIT_BLOCH = st.tuples(
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
).filter(lambda v: 1e-3 < math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2) <= 1.0)


@settings(max_examples=60, deadline=None)
@given(UNIT_BLOCH)
def test_bloch_spinor_round_trip(vec):
    x, y, z = vec
    nrm = math.sqrt(x * x + y * y + z * z)
    b = BlochVector(x / nrm, y / nrm, z / nrm)
    spinor = b.to_spinor()
    assert abs(np.linalg.norm(spinor) - 1.0) < 1e-12
    back = BlochVector.from_density(np.outer(spinor, spinor.conj()))
    assert np.allclose((back.x, back.y, back.z), (b.x, b.y, b.z), atol=1e-12)


def test_bloch_norm_validation():
    with pytest.raises(ValueError):
        BlochVector(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BlochVector(math.nan, 0.0, 0.0)
