import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabus.basis import (
    SectorSpec,
    enumerate_sector,
    index_of,
    indices_of,
)
from adiabus.errors import InvalidSector, NotInSector


def test_enumerate_magnetization_example():
    b = enumerate_sector(SectorSpec.magnetization(3, 1))
    assert list(b.states) == [0b001, 0b010, 0b100]
    assert b.dimension == 3
    # only a parity sector carries a parity label
    assert SectorSpec.magnetization(5, 2).parity is None
    assert SectorSpec.full(3).parity is None


def test_enumerate_total_spin_lists_lattice_words():
    # the two standard tableaux of shape (2, 2): [[1, 2], [3, 4]] and [[1, 3], [2, 4]]
    assert list(enumerate_sector(SectorSpec.total_spin(4, 2)).states) == [0b1010, 0b1100]
    # one block serves magnetization k and N - k
    assert SectorSpec.total_spin(13, 7) == SectorSpec.total_spin(13, 6)
    assert enumerate_sector(SectorSpec.total_spin(13, 6)).dimension == 429
    assert SectorSpec.total_spin(13, 6).label() == "S=1/2"
    assert SectorSpec.total_spin(8, 2).label() == "S=2"
    for n in range(2, 11):
        for k in range(n // 2 + 1):
            spec = SectorSpec.total_spin(n, k)
            # ballot condition, prefix by prefix, on every k-subset of sites
            words = [x for x in range(1 << n) if bin(x).count("1") == k
                     and all(2 * bin(x & ((1 << m) - 1)).count("1") <= m for m in range(n))]
            assert list(enumerate_sector(spec).states) == words
            assert spec.dimension() == len(words)
    with pytest.raises(InvalidSector):
        SectorSpec(5, "total-spin", k=3)


def test_enumerate_parity_dimension():
    assert enumerate_sector(SectorSpec.parity(4, "even")).dimension == 8
    assert enumerate_sector(SectorSpec.parity(4, "odd")).dimension == 8


@pytest.mark.parametrize("a, b", [
    (SectorSpec.magnetization(7, 3), SectorSpec.magnetization(7, 4)),
    (SectorSpec.magnetization(9, 0), SectorSpec.magnetization(9, 9)),
    (SectorSpec.parity(5, "even"), SectorSpec.parity(5, "odd")),
    (SectorSpec.parity(7, "even"), SectorSpec.parity(7, "odd")),
])
def test_spin_flip_reverses_sector_order(a, b):
    # flipping every spin maps sector a onto b in exactly reversed order,
    # which the absorbed-qubit transport readout relies on
    flipped = ((1 << a.n_spins) - 1 ^ enumerate_sector(a).states)[::-1]
    assert np.array_equal(flipped, enumerate_sector(b).states)


def test_enumerate_large_sector_dimension():
    assert enumerate_sector(SectorSpec.magnetization(17, 8)).dimension == 24310


def test_invalid_sector():
    with pytest.raises(InvalidSector):
        SectorSpec.magnetization(3, 4)
    with pytest.raises(InvalidSector):
        SectorSpec.magnetization(3, -1)
    with pytest.raises(InvalidSector):
        SectorSpec.full(1)
    with pytest.raises(InvalidSector):
        SectorSpec.parity(5, "sideways")


def test_index_of_examples():
    b3 = enumerate_sector(SectorSpec.magnetization(3, 1))
    assert index_of(b3, 0b010) == 1
    full2 = enumerate_sector(SectorSpec.full(2))
    assert index_of(full2, 0b11) == 3
    with pytest.raises(NotInSector):
        index_of(b3, 0b011)


def test_indices_of_rejects_foreign_states():
    b = enumerate_sector(SectorSpec.magnetization(4, 2))
    with pytest.raises(NotInSector):
        indices_of(b, np.array([0b0011, 0b0111]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_magnetization_sectors_partition_full_space(n):
    seen = []
    total = 0
    for k in range(n + 1):
        b = enumerate_sector(SectorSpec.magnetization(n, k))
        seen.append(b.states)
        total += b.dimension
    assert total == 2**n
    merged = np.sort(np.concatenate(seen))
    assert np.array_equal(merged, np.arange(2**n))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_parity_refines_magnetization(n):
    even = set(enumerate_sector(SectorSpec.parity(n, "even")).states.tolist())
    for k in range(n + 1):
        b = enumerate_sector(SectorSpec.magnetization(n, k))
        inside = [int(s) in even for s in b.states]
        assert all(inside) or not any(inside)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.data(),
)
def test_index_round_trip(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    b = enumerate_sector(SectorSpec.magnetization(n, k))
    i = data.draw(st.integers(min_value=0, max_value=b.dimension - 1))
    assert index_of(b, int(b.states[i])) == i
