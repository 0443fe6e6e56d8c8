"""Spin-chain Hamiltonians as bond lists, and annealing protocols as schedules.

A static Hamiltonian is ``sum_b  jx sx_i sx_j + jy sy_i sy_j + jz sz_i sz_j``
over its bonds (Pauli convention, sigma eigenvalues +-1, hbar = 1).  A
protocol is a family of such models parameterized by the normalized time
s = t/tau in [0, 1].  Every built-in schedule is affine in s except
dynamic-j2, whose joining (N-2, N) bond carries the product of its two
ramps, s * (0.5 + s (J2f - 0.5)).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSize

Triple = tuple[float, float, float]
Coefficient = Callable[[float], float]


def coupling_triple(value) -> Triple:
    """Accept a scalar (isotropic) or an (jx, jy, jz) triple."""
    if np.isscalar(value):
        v = float(value)
        return (v, v, v)
    jx, jy, jz = value
    return (float(jx), float(jy), float(jz))


@dataclass(frozen=True)
class Bond:
    """Two-site coupling; sites are 1-based with i < j."""

    i: int
    j: int
    jx: float
    jy: float
    jz: float

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise InvalidSize(f"bond sites must satisfy 1 <= i < j, got ({self.i},{self.j})")

    @classmethod
    def heisenberg(cls, i: int, j: int, strength: float) -> "Bond":
        return cls(i, j, strength, strength, strength)

    @classmethod
    def of(cls, i: int, j: int, coupling) -> "Bond":
        jx, jy, jz = coupling_triple(coupling)
        return cls(i, j, jx, jy, jz)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)

    @property
    def triple(self) -> Triple:
        return (self.jx, self.jy, self.jz)


@dataclass(frozen=True)
class ChainModel:
    """Static Hamiltonian: a site count plus a duplicate-free bond list."""

    n_spins: int
    bonds: tuple[Bond, ...]

    def __post_init__(self):
        pairs = [b.pair for b in self.bonds]
        if len(set(pairs)) != len(pairs):
            raise InvalidSize("duplicate bond pairs in model")
        for b in self.bonds:
            if b.j > self.n_spins:
                raise InvalidSize(f"bond {b.pair} outside 1..{self.n_spins}")

    def coupled_sites(self) -> set[int]:
        out: set[int] = set()
        for b in self.bonds:
            out.add(b.i)
            out.add(b.j)
        return out

    def free_sites(self) -> list[int]:
        coupled = self.coupled_sites()
        return [s for s in range(1, self.n_spins + 1) if s not in coupled]

    def conserves_magnetization(self) -> bool:
        return all(b.jx == b.jy for b in self.bonds)


def _warn_if_not_antiferromagnetic(j1) -> None:
    # The bus requires predominantly anti-ferromagnetic coupling; the type
    # still permits anything, so this is advisory only.
    jx, jy, jz = coupling_triple(j1)
    if max(jx, jy, jz) <= 0.0:
        warnings.warn(
            "nearest-neighbor coupling is not anti-ferromagnetic; "
            "the chain may not act as a quantum bus",
            stacklevel=3,
        )


def j1j2_chain(n_spins: int, j1: float = 1.0, j2: float = 0.0) -> ChainModel:
    """Open chain with nearest (j1) and next-nearest (j2) Heisenberg bonds."""
    if n_spins < 2:
        raise InvalidSize(f"need at least 2 spins, got {n_spins}")
    _warn_if_not_antiferromagnetic(j1)
    bonds = [Bond.of(n, n + 1, j1) for n in range(1, n_spins)]
    j2t = coupling_triple(j2)
    if j2t != (0.0, 0.0, 0.0):
        bonds += [Bond.of(n, n + 2, j2) for n in range(1, n_spins - 1)]
    return ChainModel(n_spins, tuple(sorted(bonds, key=lambda b: b.pair)))


def xxz_chain(n_spins: int, ratio: float) -> ChainModel:
    """Nearest-neighbor chain with jx = jy = 1 and jz = ratio (Z/X)."""
    if n_spins < 2:
        raise InvalidSize(f"need at least 2 spins, got {n_spins}")
    _warn_if_not_antiferromagnetic((1.0, 1.0, ratio))
    bonds = tuple(Bond(n, n + 1, 1.0, 1.0, float(ratio)) for n in range(1, n_spins))
    return ChainModel(n_spins, bonds)


def xyz_couplings(delta: float) -> Triple:
    """Normalized anisotropic triple C*(1, 1+d, 1+2d) with C^2*(sum of squares)=3."""
    a, b, c = 1.0, 1.0 + delta, 1.0 + 2.0 * delta
    norm = math.sqrt(3.0) / math.sqrt(a * a + b * b + c * c)
    return (norm * a, norm * b, norm * c)


def xyz_chain(n_spins: int, delta: float) -> ChainModel:
    """Nearest-neighbor chain with the normalized anisotropic coupling triple."""
    if n_spins < 2:
        raise InvalidSize(f"need at least 2 spins, got {n_spins}")
    jx, jy, jz = xyz_couplings(delta)
    bonds = tuple(Bond(n, n + 1, jx, jy, jz) for n in range(1, n_spins))
    return ChainModel(n_spins, bonds)


def ising_chain(n_spins: int, j1: float = 1.0, j2: float = 0.0) -> ChainModel:
    """Diagonal chain (jx = jy = 0); kept as the documented negative case."""
    if n_spins < 2:
        raise InvalidSize(f"need at least 2 spins, got {n_spins}")
    bonds = [Bond(n, n + 1, 0.0, 0.0, float(j1)) for n in range(1, n_spins)]
    if j2 != 0.0:
        bonds += [Bond(n, n + 2, 0.0, 0.0, float(j2)) for n in range(1, n_spins - 1)]
    return ChainModel(n_spins, tuple(sorted(bonds, key=lambda b: b.pair)))


@dataclass(frozen=True)
class Ramp:
    """Piecewise-linear coefficient of s, clamped to [0, 1] outside."""

    v0: float
    v1: float

    @classmethod
    def constant(cls, v: float) -> "Ramp":
        return cls(float(v), float(v))

    @classmethod
    def linear(cls, v0: float, v1: float) -> "Ramp":
        return cls(float(v0), float(v1))

    def __call__(self, s: float) -> float:
        s = min(1.0, max(0.0, s))
        if s == 0.0:
            return self.v0
        if s == 1.0:
            return self.v1
        return self.v0 + s * (self.v1 - self.v0)

    def reversed(self) -> "Ramp":
        return Ramp(self.v1, self.v0)


@dataclass(frozen=True)
class RampedGroup:
    """Bond templates whose strengths are multiplied by one shared ramp."""

    ramp: Ramp
    bonds: tuple[Bond, ...]

    def __post_init__(self):
        pairs = [b.pair for b in self.bonds]
        if len(set(pairs)) != len(pairs):
            raise InvalidSize("duplicate bond pairs inside a ramped group")


@dataclass(frozen=True)
class _RampProduct:
    """Coefficient ramp(s) * j2_ramp(s) of a ramped bond on a designated pair."""

    ramp: Ramp
    j2_ramp: Ramp

    def __call__(self, s: float) -> float:
        return self.ramp(s) * self.j2_ramp(s)


_UNIT = Ramp.constant(1.0)


@dataclass(frozen=True)
class ProtocolSpec:
    """Time-parameterized family of chain models over s = t/tau.

    Net coupling of a bond at schedule point s:

        static bond          strength * (j2_ramp(s) if designated)
        bond in a group      strength * ramp(s) * (j2_ramp(s) if designated)

    Bonds appearing in several places merge by per-axis summation; designated
    pairs (``j2_pairs``) carry unit template strength so the j2 ramp value is
    their actual coupling.
    """

    n_spins: int
    static_bonds: tuple[Bond, ...] = ()
    ramped_groups: tuple[RampedGroup, ...] = ()
    j2_ramp: Ramp | None = None
    j2_pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    label: str = ""

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        for g in self.ramped_groups:
            for b in g.bonds:
                if b.pair in seen:
                    raise InvalidSize(f"bond {b.pair} appears in more than one ramped group")
                seen.add(b.pair)
        # one term per (bond source, designated), in order of first appearance
        terms: dict[tuple[int, bool], tuple[Coefficient, list[Bond]]] = {}
        sources = [(_UNIT, self.static_bonds)]
        sources += [(g.ramp, g.bonds) for g in self.ramped_groups]
        for idx, (ramp, bonds) in enumerate(sources):
            for b in bonds:
                scaled = self.j2_ramp is not None and b.pair in self.j2_pairs
                if (idx, scaled) not in terms:
                    c = _RampProduct(ramp, self.j2_ramp) if scaled else ramp
                    terms[idx, scaled] = (c, [])
                terms[idx, scaled][1].append(b)
        object.__setattr__(
            self, "_terms", tuple((c, tuple(bs)) for c, bs in terms.values())
        )
        # endpoint evaluation doubles as a site-range / validity check
        evaluate_protocol(self, 0.0)
        evaluate_protocol(self, 1.0)

    def terms(self) -> tuple[tuple[Coefficient, tuple[Bond, ...]], ...]:
        """H(s) = sum_k c_k(s) H_k as ((c_k, bonds_k), ...), fixed per protocol.

        One term per distinct coefficient: the static bonds (c = 1), each
        ramped group, and either of those times the j2 ramp for the
        designated pairs.  A pair in several places is a bond of each term.
        """
        return self._terms

    def conserves_magnetization(self) -> bool:
        bonds = list(self.static_bonds)
        for g in self.ramped_groups:
            bonds.extend(g.bonds)
        return all(b.jx == b.jy for b in bonds)

    def bond_coefficients(self, s: float) -> dict[tuple[int, int], np.ndarray]:
        """Merged per-axis couplings of every pair at schedule point s."""
        coeffs: dict[tuple[int, int], np.ndarray] = {}
        for c, bonds in self._terms:
            w = c(s)
            for b in bonds:
                acc = coeffs.get(b.pair)
                if acc is None:
                    acc = np.zeros(3)
                    coeffs[b.pair] = acc
                acc += np.array(b.triple) * w
        return coeffs


def evaluate_protocol(p: ProtocolSpec, s: float) -> ChainModel:
    """Resolve all ramps at s and merge; bonds with zero net strength drop out."""
    coeffs = p.bond_coefficients(s)
    bonds = []
    for (i, j), (jx, jy, jz) in sorted(coeffs.items()):
        if jx == 0.0 and jy == 0.0 and jz == 0.0:
            continue
        bonds.append(Bond(i, j, float(jx), float(jy), float(jz)))
    return ChainModel(p.n_spins, tuple(bonds))


def reverse_protocol(p: ProtocolSpec) -> ProtocolSpec:
    """Schedule with s -> 1 - s; evaluate(reverse(p), s) == evaluate(p, 1-s)."""
    return ProtocolSpec(
        n_spins=p.n_spins,
        static_bonds=p.static_bonds,
        ramped_groups=tuple(RampedGroup(g.ramp.reversed(), g.bonds) for g in p.ramped_groups),
        j2_ramp=p.j2_ramp.reversed() if p.j2_ramp is not None else None,
        j2_pairs=p.j2_pairs,
        label=p.label[8:-1] if p.label.startswith("reverse(") and p.label.endswith(")")
        else f"reverse({p.label})",
    )


def join_protocol(n_spins: int, j1=1.0, j2=0.0) -> ProtocolSpec:
    """Couple the last spin to a chain of length N-1 by linearly ramping
    the (N-1,N) nearest and (N-2,N) next-nearest bonds from 0 to full strength."""
    n = n_spins
    if n < 3:
        raise InvalidSize(f"join needs at least 3 spins, got {n}")
    _warn_if_not_antiferromagnetic(j1)
    static = [Bond.of(k, k + 1, j1) for k in range(1, n - 1)]
    j2t = coupling_triple(j2)
    if j2t != (0.0, 0.0, 0.0):
        static += [Bond.of(k, k + 2, j2) for k in range(1, n - 2)]
    joining = [Bond.of(n - 1, n, j1)]
    if j2t != (0.0, 0.0, 0.0):
        joining.append(Bond.of(n - 2, n, j2))
    return ProtocolSpec(
        n_spins=n,
        static_bonds=tuple(sorted(static, key=lambda b: b.pair)),
        ramped_groups=(RampedGroup(Ramp.linear(0.0, 1.0), tuple(joining)),),
        label=f"join(N={n}, J2={j2})",
    )


def dynamic_j2_protocol(n_spins: int, j1: float = 1.0, j2_final: float = 0.5) -> ProtocolSpec:
    """Join the last spin while sliding every next-nearest coupling from the
    dimer point 0.5 to ``j2_final``; the joining next-nearest bond carries the
    product of both ramps."""
    n = n_spins
    if n < 3:
        raise InvalidSize(f"dynamic join needs at least 3 spins, got {n}")
    _warn_if_not_antiferromagnetic(j1)
    static = [Bond.of(k, k + 1, j1) for k in range(1, n - 1)]
    static += [Bond.heisenberg(k, k + 2, 1.0) for k in range(1, n - 2)]
    joining = (Bond.of(n - 1, n, j1), Bond.heisenberg(n - 2, n, 1.0))
    j2_pairs = frozenset((k, k + 2) for k in range(1, n - 1))
    return ProtocolSpec(
        n_spins=n,
        static_bonds=tuple(sorted(static, key=lambda b: b.pair)),
        ramped_groups=(RampedGroup(Ramp.linear(0.0, 1.0), joining),),
        j2_ramp=Ramp.linear(0.5, float(j2_final)),
        j2_pairs=j2_pairs,
        label=f"dynamic-j2(N={n}, J2f={j2_final})",
    )


def simultaneous_protocol(n_spins: int, j1=1.0, j2=0.0) -> ProtocolSpec:
    """Couple the last spin while uncoupling the first with one shared ramp;
    the leading bonds end at exactly zero strength."""
    n = n_spins
    if n < 4:
        raise InvalidSize(f"simultaneous protocol needs at least 4 spins, got {n}")
    _warn_if_not_antiferromagnetic(j1)
    j1t = coupling_triple(j1)
    j2t = coupling_triple(j2)
    has_j2 = j2t != (0.0, 0.0, 0.0)
    static = [Bond.of(k, k + 1, j1) for k in range(1, n - 1)]
    if has_j2:
        static += [Bond.of(k, k + 2, j2) for k in range(1, n - 2)]
    neg = lambda t: tuple(-c for c in t)
    ramped = [Bond.of(n - 1, n, j1t), Bond.of(1, 2, neg(j1t))]
    if has_j2:
        ramped += [Bond.of(n - 2, n, j2t), Bond.of(1, 3, neg(j2t))]
    return ProtocolSpec(
        n_spins=n,
        static_bonds=tuple(sorted(static, key=lambda b: b.pair)),
        ramped_groups=(RampedGroup(Ramp.linear(0.0, 1.0), tuple(sorted(ramped, key=lambda b: b.pair))),),
        label=f"simultaneous(N={n}, J2={j2})",
    )


_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=np.complex128)  # (down, up) index order
_SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class BlochVector:
    """Pauli expectation values of a single-site state; norm <= 1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not self.norm() <= 1.0 + 1e-12:  # NaN fails too
            raise ValueError(f"Bloch vector norm {self.norm()} is not at most 1")

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def to_spinor(self) -> np.ndarray:
        """Length-2 amplitudes indexed by bit value (0 = down, 1 = up).

        Half-angle magnitudes are taken from the transverse radius near the
        poles, which keeps tiny x/y components that cos(theta) alone would
        round away.
        """
        nrm = max(self.norm(), 1e-300)
        cos_theta = max(-1.0, min(1.0, self.z / nrm))
        sin_theta = math.hypot(self.x, self.y) / nrm
        if cos_theta >= 0.0:
            up = math.sqrt((1.0 + cos_theta) / 2.0)
            down_mag = sin_theta / (2.0 * up)
        else:
            down_mag = math.sqrt((1.0 - cos_theta) / 2.0)
            up = sin_theta / (2.0 * down_mag)
        phi = math.atan2(self.y, self.x)
        down = down_mag * complex(math.cos(phi), math.sin(phi))
        return np.array([down, up], dtype=np.complex128)

    @classmethod
    def from_density(cls, rho: np.ndarray) -> "BlochVector":
        """Bloch components of a 2x2 density matrix in (down, up) index order."""
        tr = np.trace(rho).real
        if tr <= 0.0:
            return cls(0.0, 0.0, 0.0)
        r = rho / tr
        return cls(
            float(np.trace(r @ _SX).real),
            float(np.trace(r @ _SY).real),
            float(np.trace(r @ _SZ).real),
        )


CARDINAL_BLOCH = (
    BlochVector(0.0, 0.0, 1.0),
    BlochVector(0.0, 0.0, -1.0),
    BlochVector(1.0, 0.0, 0.0),
    BlochVector(-1.0, 0.0, 0.0),
    BlochVector(0.0, 1.0, 0.0),
    BlochVector(0.0, -1.0, 0.0),
)


def protocol_to_dict(p: ProtocolSpec) -> dict:
    """Structural JSON form; inverse of protocol_from_dict."""

    def bond(b: Bond):
        return [b.i, b.j, b.jx, b.jy, b.jz]

    def ramp(r: Ramp):
        return {"v0": r.v0, "v1": r.v1}

    out = {
        "n_spins": p.n_spins,
        "static_bonds": [bond(b) for b in p.static_bonds],
        "ramped_groups": [
            {"ramp": ramp(g.ramp), "bonds": [bond(b) for b in g.bonds]}
            for g in p.ramped_groups
        ],
        "label": p.label,
    }
    if p.j2_ramp is not None:
        out["j2_ramp"] = ramp(p.j2_ramp)
        out["j2_pairs"] = sorted(list(pair) for pair in p.j2_pairs)
    return out


def protocol_from_dict(d: dict) -> ProtocolSpec:
    def number(x) -> float:
        try:
            v = float(x)
        except OverflowError:  # an int too large for a float
            v = math.inf
        if not math.isfinite(v):
            raise ValueError(f"couplings, ramp values and sites must be finite, got {x!r}")
        return v

    def integer(x) -> int:
        if isinstance(x, bool) or number(x) != int(x):
            raise ValueError(f"site counts and indices must be integers, got {x!r}")
        return int(x)

    def bond(row) -> Bond:
        i, j, jx, jy, jz = row
        return Bond(integer(i), integer(j), number(jx), number(jy), number(jz))

    def ramp(rd) -> Ramp:
        return Ramp(number(rd["v0"]), number(rd["v1"]))

    return ProtocolSpec(
        n_spins=integer(d["n_spins"]),
        static_bonds=tuple(bond(b) for b in d.get("static_bonds", [])),
        ramped_groups=tuple(
            RampedGroup(ramp(g["ramp"]), tuple(bond(b) for b in g["bonds"]))
            for g in d.get("ramped_groups", [])
        ),
        j2_ramp=ramp(d["j2_ramp"]) if "j2_ramp" in d else None,
        j2_pairs=frozenset((integer(i), integer(j)) for i, j in d.get("j2_pairs", [])),
        label=d.get("label", ""),
    )
