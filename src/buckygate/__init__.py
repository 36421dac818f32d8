"""Two-qubit pi-phase gate simulation for dipole-coupled spins in fullerene traps."""

__version__ = "0.1.0"

from .analysis import (
    GateResult,
    PhaseSeries,
    concurrence,
    correction_phases,
    entanglement_of_formation,
    find_gate_time,
    ops_budget,
    unwrap_phases,
)
from .config import (
    SimulationConfig,
    default_initial_state,
    product_state,
    state_vector,
    validate,
)
from .constants import CONSTANTS, PhysicalConstants
from .engine import SimulationResult, run_simulation
from .fields import ResonancePair, WirePair, gradient_field, resonance_frequencies
from .hamiltonian import build_drive, build_static, dipole_coupling
from .propagator import (
    Trajectory,
    propagate_numeric,
    propagate_static,
    recommended_step,
)

__all__ = [
    "CONSTANTS",
    "GateResult",
    "PhaseSeries",
    "PhysicalConstants",
    "ResonancePair",
    "SimulationConfig",
    "SimulationResult",
    "Trajectory",
    "WirePair",
    "build_drive",
    "build_static",
    "concurrence",
    "correction_phases",
    "default_initial_state",
    "dipole_coupling",
    "entanglement_of_formation",
    "find_gate_time",
    "gradient_field",
    "ops_budget",
    "product_state",
    "propagate_numeric",
    "propagate_static",
    "recommended_step",
    "resonance_frequencies",
    "run_simulation",
    "state_vector",
    "unwrap_phases",
    "validate",
]
