"""Annealing experiments: preparation, fidelity, time search, gap maps, transport.

Times are measured in units of the inverse nearest-neighbor coupling
(hbar = 1).  "Gap" means E1 - E0 inside one symmetry sector; for an
isotropic protocol on a magnetization sector, inside its S = |M| block
(``total_spin_block``), which such an anneal never leaves, so that is the
only gap it can see.  The qubit of an odd chain lives in the
twofold-degenerate ground manifold spanned by the two largest sectors.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import (
    MAGNETIZATION,
    PARITY,
    SectorSpec,
    StateVector,
    enumerate_sector,
    indices_of,
)
from .errors import (
    AdiabusError,
    AmbiguousInitial,
    DimensionMismatch,
    Disconnected,
    EvenLengthRequired,
    InputSiteCoupled,
    NoConvergence,
    OddLengthRequired,
    SectorMismatch,
)
from .model import (
    BlochVector,
    ChainModel,
    ProtocolSpec,
    evaluate_protocol,
)
from .solver import (
    EigResult,
    PropagatorConfig,
    ScheduleOperator,
    SparseOperator,
    build_sector_operator,
    evolve,
    lowest_eigenpairs,
)

DEGENERACY_TOL = 1e-10
# the Krylov step_tol of a screened evaluation (FidelityComputer.screened)
SCREEN_TOL = 1e-6

REACHED = "reached"
NOT_REACHED = "not-reached"


@dataclass(frozen=True)
class SearchSettings:
    """Controls of the annealing-time search: the geometric grid tau0 *
    growth^m up to tau_cap, and the relative width rel_width to which the
    first crossing is refined (``find_anneal_time``)."""

    tau0: float = 1.0
    growth: float = math.sqrt(2.0)
    tau_cap: float = 1e5
    rel_width: float = 0.05

    def __post_init__(self):
        if not (0 < self.tau0 <= self.tau_cap < math.inf and self.growth > 1):
            raise ValueError("search grid must grow from a positive tau0 to a finite cap")
        if not 0 < self.rel_width < 1:
            raise ValueError("rel_width must lie in (0, 1)")


@dataclass
class AnnealTimeResult:
    """First grid crossing of the fidelity target, refined to rel_width.

    tau_star is the smallest tau found with F >= target, within rel_width of
    a tau that falls short; ``trace`` holds every (tau, F) evaluated, in
    order, a screened one and its re-run as two entries.  ``screened``
    counts the evolutions run at SCREEN_TOL (``find_anneal_time``).  F(tau)
    may be non-monotonic; tau_star is the refined first crossing, not a
    certified global minimum.
    """

    tau_star: float | None
    fidelity_at_tau_star: float | None
    status: str
    cap: float
    trace: list[tuple[float, float]] = field(default_factory=list)
    screened: int = 0

    @property
    def reached(self) -> bool:
        return self.status == REACHED


@dataclass
class TransportResult:
    bloch_in: BlochVector
    bloch_out: BlochVector
    qubit_fidelity: float
    sector_fidelities: dict[str, float]  # |<s=1 ground|evolved part>|, the partner's F g
    tau: float


def default_sector(system: ProtocolSpec | ChainModel) -> SectorSpec:
    """Largest useful sector: magnetization floor(N/2) when conserved, else parity."""
    n = system.n_spins
    if system.conserves_magnetization():
        return SectorSpec.magnetization(n, n // 2)
    return SectorSpec.parity(n, "even")


def sector_pair(spec: SectorSpec) -> tuple[SectorSpec, ...]:
    """``spec`` and its partner in the ground manifold, once when they coincide.

    A global spin flip maps magnetization k to N - k, and a parity sector to
    the other parity at odd N but to itself at even N; the full space pairs
    with itself.
    """
    n = spec.n_spins
    if spec.kind == MAGNETIZATION:
        partner = SectorSpec.magnetization(n, n - spec.k)
    elif spec.kind == PARITY and n % 2:
        partner = SectorSpec.parity(n, "odd" if spec.parity == "even" else "even")
    else:
        partner = spec
    return tuple(dict.fromkeys((spec, partner)))


def sector_levels(op: SparseOperator, m: int) -> EigResult:
    """The min(m, dim) lowest eigenpairs of the sector operator ``op``."""
    return lowest_eigenpairs(op, min(m, op.dimension), 1e-10)


def _connected(model: ChainModel, sites: list[int]) -> bool:
    if not sites:
        return True
    adj: dict[int, list[int]] = {s: [] for s in sites}
    for b in model.bonds:
        adj[b.i].append(b.j)
        adj[b.j].append(b.i)
    seen = {sites[0]}
    stack = [sites[0]]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(sites)


def _split_off_free_site(model: ChainModel) -> int:
    """The single free site of ``model``; the other sites must form one chain."""
    free = model.free_sites()
    if len(free) != 1:
        raise Disconnected(
            f"initial model has {len(free)} free sites, need exactly one"
        )
    if not _connected(model, [s for s in range(1, model.n_spins + 1) if s != free[0]]):
        raise Disconnected("the coupled sites do not form one connected subchain")
    return free[0]


def _degenerate(res) -> bool:
    ev = res.eigenvalues
    return len(ev) > 1 and ev[1] - ev[0] < DEGENERACY_TOL


def _check_free_site(protocol: ProtocolSpec) -> None:
    """A free site of H(0) must be the only one, beside one connected chain."""
    model0 = evaluate_protocol(protocol, 0.0)
    if model0.free_sites():
        _split_off_free_site(model0)


def prepare_initial_state(protocol: ProtocolSpec, sector: SectorSpec) -> StateVector:
    """Sector ground state of the s=0 model.

    When the s=0 model frees a site it must free exactly one, and the rest
    must form one connected subchain (else Disconnected).  Its Hamiltonian
    then acts on the subchain only, so the ground state is the subchain
    ground times the free spin, as the bus prepares it.  Protocols without a
    free site (the uncoupling ones) start from the full chain's ground state.
    Raises AmbiguousInitial when E1 - E0 < DEGENERACY_TOL in the sector,
    which includes a tie between the two free-spin orientations (always so
    in the full space).
    """
    _check_free_site(protocol)
    basis = enumerate_sector(sector)
    res = sector_levels(ScheduleOperator(protocol, basis).at(0.0), 2)
    if _degenerate(res):
        raise AmbiguousInitial("initial sector ground state is degenerate")
    return StateVector(basis, res.eigenvectors[0].amplitudes.copy())


def ground_space(op: SparseOperator) -> tuple[EigResult, list[np.ndarray]]:
    """(levels, orthonormal vectors spanning all levels of ``op`` within
    DEGENERACY_TOL of E0); ``levels`` also holds a level above them, if any."""
    m = 4
    while True:
        res = sector_levels(op, m)
        e0 = float(res.eigenvalues[0])
        inside = np.nonzero(res.eigenvalues - e0 < DEGENERACY_TOL)[0]
        if len(inside) < len(res.eigenvalues) or m >= op.dimension:
            break
        m *= 2
    return res, [res.eigenvectors[int(k)].amplitudes.real.copy() for k in inside]


def total_spin_block(
    protocol: ProtocolSpec, sector: SectorSpec
) -> tuple[ScheduleOperator, EigResult, tuple[EigResult, list[np.ndarray]]] | None:
    """The S = |M| block an isotropic anneal on ``sector`` stays in, or None.

    With jx = jy = jz on every bond H(s) conserves total spin, and the
    spectrum of magnetization sector k (M = k - N/2) is the block's joined
    with that of its partner, sector k - 1 (k + 1 when 2k > N), which holds
    every level of S > |M|.  So one partner level at each end decides
    exactly whether the block holds the sector's ground of H(0),
    E0(block) < E0(partner) - DEGENERACY_TOL, and a sector ground of H(1),
    E0(block) <= E0(partner) + DEGENERACY_TOL; at k = 0 or N the block is
    the sector.  Returns (the block's H(s) compiled once, its two lowest
    levels of H(0), its ``ground_space`` of H(1)), or None for another
    sector kind, an anisotropic bond or a failed condition: a ferromagnet's
    ground has S = N/2, and a tie across S at s = 0 is left to the sector,
    which finds it ambiguous.  The partner, the largest basis touched, is
    solved only at the two ends, so it gets a static build, not a compile,
    and before the block is compiled, which is then not resident in them.
    """
    if sector.kind != MAGNETIZATION or not all(
        b.jx == b.jy == b.jz for _, bonds in protocol.terms() for b in bonds
    ):
        return None
    n, k = sector.n_spins, sector.k
    partner_e0 = (math.inf, math.inf)
    if 0 < k < n:
        partner = enumerate_sector(SectorSpec.magnetization(n, k - 1 if 2 * k <= n else k + 1))
        partner_e0 = tuple(
            sector_levels(build_sector_operator(evaluate_protocol(protocol, s), partner), 1)
            .eigenvalues[0] for s in (0.0, 1.0)
        )
    op = ScheduleOperator(protocol, enumerate_sector(SectorSpec.total_spin(n, k)))
    levels0 = sector_levels(op.at(0.0), 2)
    if not levels0.eigenvalues[0] < partner_e0[0] - DEGENERACY_TOL:
        return None
    final = ground_space(op.at(1.0))
    if not final[0].eigenvalues[0] <= partner_e0[1] + DEGENERACY_TOL:
        return None
    return op, levels0, final


class FidelityComputer:
    """Caches the initial state and final ground projector for one protocol.

    The initial state is the sector ground state of H(0).  When
    ``total_spin_block`` returns the S = |M| block, ``value`` evolves the
    block's ground of H(0) instead and projects on the block's ground space
    of H(1): the initial state lies in the block, the evolved state never
    leaves it, and final ground vectors of any other S are orthogonal to
    it, so F is the same.  Otherwise the sector's own levels serve.  Either
    way H(s) is compiled once, and both ends and the evolution solve it.
    ``screened`` evolves the same start on the same operator and steps at
    the looser Krylov tolerance SCREEN_TOL, and returns F with a bound on
    its distance from ``value``'s.
    """

    def __init__(
        self,
        protocol: ProtocolSpec,
        sector: SectorSpec,
        cfg: PropagatorConfig = PropagatorConfig(),
    ):
        self.cfg = cfg
        _check_free_site(protocol)  # Disconnected before any eigensolve
        setup = total_spin_block(protocol, sector)
        if setup is None:
            op = ScheduleOperator(protocol, enumerate_sector(sector))
            setup = (op, sector_levels(op.at(0.0), 2), ground_space(op.at(1.0)))
        self._op, levels0, (_, self.final_vectors) = setup
        if _degenerate(levels0):
            raise AmbiguousInitial("initial sector ground state is degenerate")
        self._start = levels0.eigenvectors[0]

    def value(self, tau: float) -> float:
        return self._projected(evolve(self._op, tau, self._start, self.cfg))

    def screened(self, tau: float) -> tuple[float, float]:
        """(F, E): F(tau) evolved at step_tol SCREEN_TOL, and E, the sum of
        its accepted Krylov estimates plus 2 n cfg.step_tol for its n steps.

        F is the norm of a projection, so it moves by at most as much as the
        evolved state: E bounds |F - value(tau)| wherever each accepted
        estimate bounds its exponential's error, at either tolerance.
        """
        error = [0.0]
        psi = evolve(self._op, tau, self._start, replace(self.cfg, step_tol=SCREEN_TOL),
                     krylov_error=error)
        return self._projected(psi), error[0] + 2 * self.cfg.steps_for(tau) * self.cfg.step_tol

    def _projected(self, psi: StateVector) -> float:
        overlaps = [np.vdot(g, psi.amplitudes) for g in self.final_vectors]
        return float(math.sqrt(sum(abs(c) ** 2 for c in overlaps)))


def fidelity(
    protocol: ProtocolSpec,
    tau: float,
    sector: SectorSpec,
    cfg: PropagatorConfig = PropagatorConfig(),
) -> float:
    """Overlap magnitude of the evolved state with the final ground space."""
    return FidelityComputer(protocol, sector, cfg).value(tau)


def find_anneal_time(
    protocol: ProtocolSpec,
    sector: SectorSpec,
    target: float = 0.9,
    search: SearchSettings = SearchSettings(),
    cfg: PropagatorConfig = PropagatorConfig(),
) -> AnnealTimeResult:
    """Smallest tau on the search grid with F(tau) >= target, refined.

    Walks the geometric grid tau0 * growth^m until the target is crossed,
    then narrows that bracket (lo, hi) until hi - lo <= rel_width * hi.
    Bisecting it would halve the bracket on fixed midpoints until a cell
    meets that rule; those stopping cells tile the bracket, and only their
    ends are probed.  Each probe is the end just above a secant estimate,
    or just below it after a probe that lowered hi; the secant is the line
    through the bracket's ends of ln(1 - F) against ln tau, nearly straight
    while 1 - F falls as a power of tau.  Where F is monotone across the
    grid bracket and rel_width <= 1/3, tau_star and its F are bisection's,
    to the bit, mostly in fewer evaluations; an F that creeps up to the
    target and then jumps can take more.  A cap overrun returns status
    NOT_REACHED instead of raising.

    When cfg.step_tol is below SCREEN_TOL, each grid probe is screened
    first (``FidelityComputer.screened``): its F at SCREEN_TOL decides the
    probe when |F - target| > 2 E, E its bound, and else, or when the
    screened evolution raises, the probe is re-run at ``cfg``.  Refinement
    probes run at ``cfg``, and so does a grid crossing that ends as
    tau_star, once more at the end.  So tau_star and its F are those of
    the unscreened search wherever the screened decisions agree with it;
    the secant reads the screened F of the grid bracket, which can move a
    probe only where its estimate lies on a cell edge.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target fidelity must lie in (0, 1)")
    comp = FidelityComputer(protocol, sector, cfg)
    trace: list[tuple[float, float]] = []
    screening = cfg.step_tol < SCREEN_TOL
    screened = 0

    f0 = comp.value(0.0)
    trace.append((0.0, f0))
    if f0 >= target:
        return AnnealTimeResult(0.0, f0, REACHED, search.tau_cap, trace)

    lo, f_lo = 0.0, f0
    hi = None
    tau = search.tau0
    while tau <= search.tau_cap * (1.0 + 1e-12):
        margin = 0.0
        if screening:
            screened += 1
            try:
                f, bound = comp.screened(tau)
            except AdiabusError:  # NoConvergence or NormDrift at the loose tolerance
                pass
            else:
                trace.append((tau, f))
                margin = abs(f - target) - 2.0 * bound
        if not margin > 0.0:
            f = comp.value(tau)
            trace.append((tau, f))
        if f >= target:
            hi, f_hi, hi_screened = tau, f, margin > 0.0
            break
        lo, f_lo = tau, f
        tau *= search.growth
    if hi is None:
        return AnnealTimeResult(None, None, NOT_REACHED, search.tau_cap, trace, screened)

    grid, below = (lo, hi), False
    while hi - lo > search.rel_width * hi:
        a, b = _stopping_cell(*grid, _secant(lo, f_lo, hi, f_hi, target), search.rel_width)
        tau = a if (below and a > lo) or b >= hi else b
        f = comp.value(tau)
        trace.append((tau, f))
        below = f >= target  # a new hi: probe below the next estimate
        if below:
            hi, f_hi = tau, f
        else:
            lo, f_lo = tau, f
    if hi == grid[1] and hi_screened:
        f_hi = comp.value(hi)
        trace.append((hi, f_hi))
    return AnnealTimeResult(hi, f_hi, REACHED, search.tau_cap, trace, screened)


def _secant(lo: float, f_lo: float, hi: float, f_hi: float, target: float) -> float:
    """Where the line through the bracket's ends of ln(1 - F) against ln tau
    (against tau when lo is 0) meets the target, inside [lo, hi)."""
    y_lo, y_hi, y_t = (math.log(max(1.0 - f, 1e-300)) for f in (f_lo, f_hi, target))
    w = (y_t - y_lo) / (y_hi - y_lo)
    tau = lo + w * (hi - lo) if lo <= 0.0 else lo * (hi / lo) ** w
    return min(tau, math.nextafter(hi, lo))


def _stopping_cell(lo: float, hi: float, tau: float, rel_width: float) -> tuple[float, float]:
    """The cell [a, b) holding ``tau`` where bisecting (lo, hi) stops.

    Halves as bisection does, on the same floats, until the stopping rule
    accepts the cell.
    """
    while hi - lo > rel_width * hi:
        mid = 0.5 * (lo + hi)
        if tau < mid:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _schedule_points(s_values) -> np.ndarray:
    """``s_values`` as a float array; ValueError unless nonempty and inside [0, 1]."""
    s_values = np.asarray(s_values, dtype=float)
    if s_values.size == 0:
        raise ValueError("schedule grid must be nonempty")
    # a Ramp clamps s outside [0, 1], which would relabel an endpoint's value
    if not np.all((s_values >= 0.0) & (s_values <= 1.0)):
        raise ValueError("schedule points must lie in [0, 1]")
    return s_values


def gap_scan(protocol: ProtocolSpec, s_values, sector: SectorSpec) -> np.ndarray:
    """Gap of ``protocol`` in ``sector`` at each schedule point in ``s_values``.

    For an isotropic protocol on a magnetization sector whose S = |M| block
    ``total_spin_block`` accepts, the gap is E1 - E0 within that block, the
    only gap such an anneal can see, and each point is solved on the
    block's smaller basis.  Otherwise, or when the block's guard fails to
    converge, it is the sector gap.  H(s) is compiled once on that basis
    (``ScheduleOperator``), and each point solves its ``at(s)``; on the
    block, points at s = 0 and s = 1 read the guard's own solves of those
    ends instead.  Points whose eigensolve fails are recorded as NaN rather
    than aborting the scan; a basis of dimension below 2 raises
    DimensionMismatch.  The grid must be nonempty and inside [0, 1] (else
    ValueError).
    """
    s_values = _schedule_points(s_values)
    try:
        block = total_spin_block(protocol, sector)
    except NoConvergence:
        block = None
    if block is None:
        op, ends = ScheduleOperator(protocol, enumerate_sector(sector)), {}
    else:
        op, levels0, (levels1, _) = block
        ends = {0.0: levels0, 1.0: levels1}
    if op.dimension < 2:
        raise DimensionMismatch("sector gap needs dimension >= 2")
    gaps = np.full(len(s_values), np.nan)
    for js, s in enumerate(s_values):
        try:
            levels = ends[s] if s in ends else lowest_eigenpairs(op.at(float(s)), 2, 1e-10)
        except NoConvergence:
            continue
        gaps[js] = levels.eigenvalues[1] - levels.eigenvalues[0]
    return gaps


def ground_manifold_tracking(protocol: ProtocolSpec, s_values) -> float:
    """Largest ground-energy split between the two manifold sectors over s.

    The twofold ground degeneracy of an odd chain guarantees the split
    vanishes identically, which is what keeps the encoded qubit free of
    relative phase; this measures how well the solver reproduces that.
    The grid must be nonempty and inside [0, 1] (else ValueError).
    """
    n = protocol.n_spins
    if n % 2 == 0:
        raise OddLengthRequired("manifold tracking needs an odd number of spins")
    s_values = _schedule_points(s_values)
    ops = [ScheduleOperator(protocol, enumerate_sector(spec))
           for spec in sector_pair(default_sector(protocol))]
    worst = 0.0
    for s in s_values:
        e = [float(sector_levels(op.at(float(s)), 1).eigenvalues[0]) for op in ops]
        worst = max(worst, abs(e[0] - e[1]))
    return worst


def mg_dimer_state(n_spins: int) -> StateVector:
    """Product of nearest-neighbor singlets on (1,2), (3,4), ..., full basis."""
    if n_spins % 2 != 0:
        raise EvenLengthRequired("the dimer product needs an even number of spins")
    masks = np.zeros(1, dtype=np.int64)
    amps = np.ones(1, dtype=np.complex128)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for i in range(1, n_spins, 2):
        up_first = masks | (1 << (i - 1))      # up at i, down at i+1
        down_first = masks | (1 << i)          # down at i, up at i+1
        masks = np.concatenate([up_first, down_first])
        amps = np.concatenate([amps * inv_sqrt2, amps * (-inv_sqrt2)])
    basis = enumerate_sector(SectorSpec.full(n_spins))
    out = np.zeros(basis.dimension, dtype=np.complex128)
    out[masks] = amps
    return StateVector(basis, out)


def _site_density_matrix(pieces, site: int) -> np.ndarray:
    """2x2 reduced density matrix of one site, (down, up) index order, of a
    state held as (basis, amplitudes) parts in one or two sectors."""
    bit = 1 << (site - 1)
    rho = np.zeros((2, 2), dtype=np.complex128)
    for (basis, part), (other, opart) in zip(pieces, pieces[::-1]):
        down = (basis.states & bit) == 0
        v_down, v_up = part[down], part[~down]
        rho[0, 0] += np.vdot(v_down, v_down)
        rho[1, 1] += np.vdot(v_up, v_up)
        # pair each site-down state with its site-up partner in the other part
        flipped = basis.states[down] | bit
        pos = np.minimum(np.searchsorted(other.states, flipped), other.dimension - 1)
        hit = other.states[pos] == flipped
        rho[0, 1] += np.vdot(opart[pos[hit]], v_down[hit])
    rho[1, 0] = np.conj(rho[0, 1])
    return rho


def transport_qubit(
    protocol: ProtocolSpec,
    bloch_inputs: Sequence[BlochVector],
    tau: float,
    cfg: PropagatorConfig = PropagatorConfig(),
) -> list[TransportResult]:
    """Send qubits through the chain and read them back, one result per input.

    The chain must have an odd number of spins, so that the even subchain
    has a unique ground state and the full chain a twofold ground manifold.
    The initial state is (subchain ground) x (qubit on the free input site);
    the subchain ground is read off the ground vector of H(0) in
    ``default_sector``, which lies entirely at one free-spin orientation.
    A tie between the two orientations raises AmbiguousInitial, and a
    degenerate subchain ground only warns.
    Its input-down and input-up components lie in two symmetry sectors that
    H(s) never mixes, because every bond flips spins in pairs: the pair
    ``default_sector`` and its spin-flip partner, the same pair that
    ``ground_manifold_tracking`` compares.  The global spin flip F commutes
    with every bond and maps either sector onto the other by reversing the
    basis order, so H(s) is compiled once, in ``default_sector``, and serves
    the s=0 solve, the evolution and the s=1 solve, whose ground g gives
    the partner's as F g, also for ``sector_fidelities``.  F folds the
    partner's component in as sigma = +-1 times the component there, so one
    evolution serves both, unless a degenerate subchain ground (the warn
    path) leaves the two unrelated: the folded one is then evolved too, and
    sigma, the sign of their overlap, is as arbitrary as that ground.  The
    evolved state of an input (a, b) is a * (evolved down part) + b *
    (evolved up part), so every input costs only a readout.  When the final
    model frees an output site, the qubit is read from that site's reduced
    density matrix; protocols that end with the qubit absorbed into the
    chain read it from the twofold ground manifold instead, in the frame
    (g_down, sigma F g_down), g_down the s=1 ground of the input-down sector.
    """
    if protocol.n_spins % 2 == 0:
        raise OddLengthRequired("transport needs an odd number of spins")
    if not bloch_inputs:
        raise ValueError("transport needs at least one Bloch input")
    if not 0 <= tau < math.inf:
        raise ValueError("tau must be nonnegative and finite")
    model0 = evaluate_protocol(protocol, 0.0)
    if not model0.free_sites():
        raise InputSiteCoupled("the input site is coupled at s=0")
    free = 1 << (_split_off_free_site(model0) - 1)
    first, partner = sector_pair(default_sector(protocol))
    op = ScheduleOperator(protocol, enumerate_sector(first))
    basis = op.basis
    res = sector_levels(op.at(0.0), 2)
    # H(0) does not act on the free spin, so every eigenvector has one
    # free-spin orientation; in a parity sector the ground's may be up
    free_up = (basis.states & free) != 0
    bits = [int(np.linalg.norm(v.amplitudes[free_up]) ** 2 > 0.5)
            for v in res.eigenvectors]
    bit = bits[0]
    degenerate = _degenerate(res)
    if degenerate:
        if bits[1] != bit:
            raise AmbiguousInitial("two free-spin orientations give the same initial energy")
        warnings.warn("subchain ground state is degenerate; transport uses the "
                      "lowest deterministic eigenvector", stacklevel=2)
    # ``bit`` is the free spin in the first sector; the other part of the qubit
    # sits in the partner sector, unless the subchain ground has fewer up spins
    # than a singlet (an Ising-like ferromagnet)
    if bit and first.kind == MAGNETIZATION:
        raise SectorMismatch("the subchain ground lies outside the manifold sectors")
    ground = free_up if bit else ~free_up
    start, folded = np.zeros((2, basis.dimension), dtype=np.complex128)
    start[ground] = res.eigenvectors[0].amplitudes[ground]
    # F takes (subchain ground) x (other free spin) into this sector: the
    # subchain flipped, the free spin kept
    flip = ((1 << protocol.n_spins) - 1) ^ free
    folded[indices_of(basis, basis.states[ground] ^ flip)] = start[ground]
    sigma = -1.0 if np.vdot(folded, start).real < 0.0 else 1.0
    out = evolve(op, tau, StateVector(basis, start), cfg).amplitudes
    if degenerate:
        out_folded = evolve(op, tau, StateVector(basis, folded), cfg).amplitudes
    else:  # a unique subchain ground: folded = sigma * start
        out_folded = sigma * out
    g = sector_levels(op.at(1.0), 1).eigenvectors[0].amplitudes.real
    # F reverses the ascending basis order of either sector onto the other's,
    # so the partner's evolved part and s=1 ground are this sector's reversed
    evolved = [(first, basis, out, g),
               (partner, enumerate_sector(partner), out_folded[::-1], g[::-1])]
    if bit:  # the input-down part is the partner's
        evolved.reverse()
    sector_fidelities = {spec.label(): abs(complex(np.vdot(gs, o)))
                         for spec, _, o, gs in evolved}
    frame = (evolved[0][3], sigma * evolved[1][3])
    model1 = evaluate_protocol(protocol, 1.0)
    out_free = [s for s in model1.free_sites() if 1 << (s - 1) != free]

    results = []
    for bloch_in in bloch_inputs:
        spinor = bloch_in.to_spinor()
        pieces = [(b, amp * o) for (_, b, o, _), amp in zip(evolved, spinor)]
        if out_free:
            rho = _site_density_matrix(pieces, out_free[0])
            qubit_fidelity = float(np.real(np.vdot(spinor, rho @ spinor)))
        else:
            # qubit absorbed into the chain: read the ground-manifold amplitudes
            c = np.array([np.vdot(g, part) for g, (_, part) in zip(frame, pieces)])
            rho = np.outer(c, c.conj())
            qubit_fidelity = float(abs(np.vdot(spinor, c)) ** 2)
        results.append(TransportResult(
            bloch_in=bloch_in,
            bloch_out=BlochVector.from_density(rho),
            qubit_fidelity=qubit_fidelity,
            sector_fidelities=dict(sector_fidelities),
            tau=tau,
        ))
    return results
