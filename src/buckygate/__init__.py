"""Two-qubit pi-phase gate simulation for dipole-coupled spins in fullerene traps."""

__version__ = "0.1.0"

from .analysis import (
    GateResult,
    concurrence,
    correction_phases,
    entanglement_of_formation,
    ops_budget,
)
from .config import (
    SimulationConfig,
    default_initial_state,
    validate,
)
from .constants import CONSTANTS, PhysicalConstants
from .engine import SimulationResult, run_simulation
from .fields import ResonancePair, WirePair, gradient_field, resonance_frequencies
from .hamiltonian import build_drive, build_static, dipole_coupling
from .propagator import Trajectory

__all__ = [
    "CONSTANTS",
    "GateResult",
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
    "gradient_field",
    "ops_budget",
    "resonance_frequencies",
    "run_simulation",
    "validate",
]
