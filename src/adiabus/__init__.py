"""Adiabatic quantum data-bus simulator for frustrated spin chains."""

import os

# One BLAS thread unless the user sets one: the CLI's forked pool workers inherit
# it, and a multithreaded BLAS only spins on the small matrices of one grid cell.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .basis import (
    SectorBasis,
    SectorSpec,
    StateVector,
    enumerate_sector,
    index_of,
)
from .model import (
    BlochVector,
    Bond,
    CARDINAL_BLOCH,
    ChainModel,
    ProtocolSpec,
    Ramp,
    RampedGroup,
    dynamic_j2_protocol,
    evaluate_protocol,
    ising_chain,
    j1j2_chain,
    join_protocol,
    protocol_from_dict,
    protocol_to_dict,
    reverse_protocol,
    simultaneous_protocol,
    xxz_chain,
    xyz_chain,
    xyz_couplings,
)
from .solver import (
    EigResult,
    PropagatorConfig,
    ScheduleOperator,
    SparseOperator,
    build_sector_operator,
    evolve,
    krylov_expm_apply,
    lowest_eigenpairs,
    sector_gap,
)
from .anneal import (
    AnnealTimeResult,
    FidelityComputer,
    SearchSettings,
    TransportResult,
    default_sector,
    fidelity,
    find_anneal_time,
    gap_scan,
    ground_manifold_tracking,
    mg_dimer_state,
    prepare_initial_state,
    transport_qubit,
)
from . import errors

__all__ = [
    "__version__",
    "errors",
    "SectorBasis",
    "SectorSpec",
    "StateVector",
    "enumerate_sector",
    "index_of",
    "BlochVector",
    "Bond",
    "CARDINAL_BLOCH",
    "ChainModel",
    "ProtocolSpec",
    "Ramp",
    "RampedGroup",
    "dynamic_j2_protocol",
    "evaluate_protocol",
    "ising_chain",
    "j1j2_chain",
    "join_protocol",
    "protocol_from_dict",
    "protocol_to_dict",
    "reverse_protocol",
    "simultaneous_protocol",
    "xxz_chain",
    "xyz_chain",
    "xyz_couplings",
    "EigResult",
    "PropagatorConfig",
    "ScheduleOperator",
    "SparseOperator",
    "build_sector_operator",
    "evolve",
    "krylov_expm_apply",
    "lowest_eigenpairs",
    "sector_gap",
    "AnnealTimeResult",
    "FidelityComputer",
    "SearchSettings",
    "TransportResult",
    "default_sector",
    "fidelity",
    "find_anneal_time",
    "gap_scan",
    "ground_manifold_tracking",
    "mg_dimer_state",
    "prepare_initial_state",
    "transport_qubit",
]
