"""Computational-basis enumeration by symmetry sector.

Bitmask convention shared by every module: site ``i`` (1-based) maps to bit
``i - 1``; a set bit means the spin points up (sigma_z = +1).  Sector bases
list their bitmasks in strictly ascending order, so the ordinal of a state
is recoverable by binary search.

A total-spin sector is the S = |M| block of a magnetization sector, where
M = k - N/2 is the z-magnetization of k up spins.  Its basis is not a set of
spin configurations: it is the standard Young tableaux of the two-row shape
(N - l2, l2), l2 = min(k, N - k), each written as a lattice word, with bit
``i - 1`` set when the number i sits in the second row.  Lattice words are
bitmasks too, so they are listed and searched like any other sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidSector, NotInSector

FULL = "full"
MAGNETIZATION = "magnetization"
PARITY = "parity"
TOTAL_SPIN = "total-spin"

MAX_SPINS = 24  # full-space vectors beyond this exceed desk-scale memory


@dataclass(frozen=True)
class SectorSpec:
    """Label of one invariant block of the Hamiltonian."""

    n_spins: int
    kind: str
    k: int | None = None          # up-spin count, or the row-2 length l2 of a total-spin sector
    parity: str | None = None     # "even" | "odd", parity sectors only

    def __post_init__(self):
        if self.n_spins < 2:
            raise InvalidSector(f"need at least 2 spins, got {self.n_spins}")
        if self.n_spins > MAX_SPINS:
            raise InvalidSector(f"n_spins {self.n_spins} exceeds cap {MAX_SPINS}")
        if self.kind != PARITY:  # else the ``parity`` classmethod is the default
            object.__setattr__(self, "parity", None)
        if self.kind == MAGNETIZATION:
            if self.k is None or not 0 <= self.k <= self.n_spins:
                raise InvalidSector(f"k={self.k} out of range for N={self.n_spins}")
        elif self.kind == TOTAL_SPIN:
            if self.k is None or not 0 <= 2 * self.k <= self.n_spins:
                raise InvalidSector(f"row-2 length {self.k} out of range for N={self.n_spins}")
        elif self.kind == PARITY:
            if self.parity not in ("even", "odd"):
                raise InvalidSector(f"parity must be 'even' or 'odd', got {self.parity!r}")
        elif self.kind != FULL:
            raise InvalidSector(f"unknown sector kind {self.kind!r}")

    @classmethod
    def full(cls, n_spins: int) -> "SectorSpec":
        return cls(n_spins, FULL)

    @classmethod
    def magnetization(cls, n_spins: int, k: int) -> "SectorSpec":
        return cls(n_spins, MAGNETIZATION, k=k)

    @classmethod
    def parity(cls, n_spins: int, parity: str) -> "SectorSpec":
        return cls(n_spins, PARITY, parity=parity)

    @classmethod
    def total_spin(cls, n_spins: int, k: int) -> "SectorSpec":
        """The S = |M| block of magnetization sector k (or N - k)."""
        return cls(n_spins, TOTAL_SPIN, k=min(k, n_spins - k))

    def dimension(self) -> int:
        if self.kind == FULL:
            return 1 << self.n_spins
        if self.kind == PARITY:
            return 1 << (self.n_spins - 1)
        from math import comb

        if self.kind == TOTAL_SPIN:
            return comb(self.n_spins, self.k) - (comb(self.n_spins, self.k - 1) if self.k else 0)
        return comb(self.n_spins, self.k)

    def label(self) -> str:
        if self.kind == FULL:
            return "full"
        if self.kind == PARITY:
            return f"parity-{self.parity}"
        if self.kind == TOTAL_SPIN:
            twice_s = self.n_spins - 2 * self.k
            return f"S={twice_s // 2}" if twice_s % 2 == 0 else f"S={twice_s}/2"
        return f"k={self.k}"


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Ordered bitmask enumeration of one sector, ascending."""

    spec: SectorSpec
    states: np.ndarray = field(repr=False)  # int64, strictly increasing
    # on a total-spin basis, the swap P_ij of each bond the solver has
    # built, as COO triples (rows, cols, data) keyed by (i, j)
    swaps: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dimension(self) -> int:
        return len(self.states)

    @property
    def n_spins(self) -> int:
        return self.spec.n_spins


@lru_cache(maxsize=4)
def enumerate_sector(spec: SectorSpec) -> SectorBasis:
    """List all bitmasks of the sector in ascending order.

    The last four bases are kept, so a repeated spec returns the same basis,
    with the swaps already built on it.
    """
    n = spec.n_spins
    all_states = np.arange(1 << n, dtype=np.int64)
    if spec.kind == FULL:
        states = all_states
    else:
        ups = np.bitwise_count(all_states)
        if spec.kind == MAGNETIZATION:
            states = all_states[ups == spec.k]
        elif spec.kind == TOTAL_SPIN:
            states = all_states[ups == spec.k]
            # lattice words: no prefix 1..m puts more numbers in row 2 than in row 1
            for m in range(1, n):
                states = states[2 * np.bitwise_count(states & ((1 << m) - 1)) <= m]
        else:
            want = 0 if spec.parity == "even" else 1
            states = all_states[(ups & 1) == want]
    states.setflags(write=False)
    return SectorBasis(spec=spec, states=states)


def index_of(basis: SectorBasis, state: int) -> int:
    """Ordinal of ``state`` within the basis; NotInSector if absent."""
    pos = int(np.searchsorted(basis.states, state))
    if pos >= basis.dimension or basis.states[pos] != state:
        raise NotInSector(f"bitmask {state:#b} not in sector {basis.spec.label()}")
    return pos


def indices_of(basis: SectorBasis, states: np.ndarray) -> np.ndarray:
    """Vectorized index_of; every input must belong to the sector."""
    pos = np.searchsorted(basis.states, states)
    pos = np.minimum(pos, basis.dimension - 1)
    if not np.array_equal(basis.states[pos], states):
        raise NotInSector("some bitmasks are absent from the sector")
    return pos


@dataclass(eq=False)
class StateVector:
    """Complex amplitudes over a sector basis."""

    basis: SectorBasis
    amplitudes: np.ndarray  # complex128, len == basis.dimension

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

