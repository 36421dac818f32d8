"""High-level driver: from a configuration to a full gate summary.

Static mode propagates with the exact spectral solution, driven mode with
fixed-step RK4.  Gate-time refinement re-propagates inside the bracketing
sample interval instead of interpolating the sampled phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    GateResult,
    PhaseSeries,
    compose_theta,
    concurrence,
    correction_phases,
    entanglement_of_formation,
    find_gate_time,
    ops_budget,
    unwrap_phases,
)
from .config import SimulationConfig, validate
from .constants import CONSTANTS, PhysicalConstants
from .fields import ResonancePair, resonance_frequencies
from .hamiltonian import build_static
from .propagator import (
    SpectralPropagator,
    Trajectory,
    hamiltonian_scale,
    propagate_static,
    propagate_numeric,
    resolve_step,
    rk4_segment,
    time_dependent_hamiltonian,
)

# Target phase advance of the fastest coefficient between stored samples;
# must stay well below pi/2 for unambiguous unwrapping.
MAX_PHASE_PER_SAMPLE = 0.5

MIN_SAMPLES = 1001
MAX_SAMPLES = 50001


@dataclass(frozen=True)
class SimulationResult:
    config: SimulationConfig  # validated, with the resolved step
    resonances: ResonancePair
    trajectory: Trajectory
    phases: PhaseSeries
    gate: GateResult


def sample_times(t_max: float, h_scale: float) -> np.ndarray:
    """Output grid dense enough for branch-safe phase unwrapping."""
    n = int(np.ceil(t_max * h_scale / MAX_PHASE_PER_SAMPLE)) + 1
    n = min(max(n, MIN_SAMPLES), MAX_SAMPLES)
    return np.linspace(0.0, t_max, n)


class TrajectoryEvaluator:
    """Continuous theta(t) / psi(t) between the stored samples of a run.

    Re-propagates from the nearest earlier sample (exactly for the static
    case, with RK4 substeps for the driven case) and aligns the raw complex
    arguments to the unwrapped sampled series, which is branch-safe because
    per-sample increments are kept below pi/2.
    """

    def __init__(self, config, resonances, trajectory, phases, constants=CONSTANTS):
        self.trajectory = trajectory
        self.phases = phases
        self.theta0 = compose_theta(phases.per_basis_args[0])
        self.dt = config.dt
        if config.mode == "driven":
            self.hfun = time_dependent_hamiltonian(config, resonances, constants)
            self.spectral = None
        else:
            self.spectral = SpectralPropagator(build_static(config, constants))
            self.hfun = None

    def state_at(self, t: float) -> np.ndarray:
        times = self.trajectory.times
        i = int(np.searchsorted(times, t, side="right")) - 1
        i = min(max(i, 0), len(times) - 1)
        psi_i = self.trajectory.states[i]
        if t == times[i]:
            return psi_i.copy()
        if self.spectral is not None:
            return self.spectral.evolve(psi_i, t - times[i])
        return rk4_segment(self.hfun, psi_i.copy(), times[i], t, self.dt)

    def args_at(self, t: float) -> np.ndarray:
        """Unwrapped coefficient arguments at arbitrary t."""
        times = self.trajectory.times
        i = int(np.searchsorted(times, t, side="right")) - 1
        i = min(max(i, 0), len(times) - 2)
        raw = np.angle(self.state_at(t))
        # Nearest-branch alignment against the interpolated sampled series.
        frac = (t - times[i]) / (times[i + 1] - times[i])
        ref = (1 - frac) * self.phases.per_basis_args[i] + frac * self.phases.per_basis_args[i + 1]
        return raw + 2 * np.pi * np.round((ref - raw) / (2 * np.pi))

    def theta_at(self, t: float) -> float:
        return compose_theta(self.args_at(t)) - self.theta0


def run_trajectory(config, constants: PhysicalConstants = CONSTANTS):
    """Validate, propagate and unwrap; returns (config, resonances, traj, phases)."""
    cfg = validate(config)
    resonances = resonance_frequencies(constants, cfg.Bz1, cfg.Bg1, cfg.Bz2, cfg.Bg2)
    scale = hamiltonian_scale(cfg, resonances, constants)
    cfg = resolve_step(cfg, resonances, constants, scale)
    times = sample_times(cfg.t_max, scale)
    if cfg.mode == "driven":
        traj = propagate_numeric(cfg, resonances, times, constants)
    else:
        traj = propagate_static(build_static(cfg, constants), cfg.initial_state, times)
    phases = unwrap_phases(traj)
    return cfg, resonances, traj, phases


def run_simulation(
    config: SimulationConfig, constants: PhysicalConstants = CONSTANTS
) -> SimulationResult:
    """Full pipeline: propagate, find the pi-gate time, summarize the gate."""
    cfg, resonances, traj, phases = run_trajectory(config, constants)
    evaluator = TrajectoryEvaluator(cfg, resonances, traj, phases, constants)

    tau = find_gate_time(phases, theta_fn=evaluator.theta_at)
    psi_tau = evaluator.state_at(tau)
    args_tau = evaluator.args_at(tau) - phases.per_basis_args[0]
    c_tau = concurrence(psi_tau)
    gate = GateResult(
        tau=tau,
        theta_at_tau=evaluator.theta_at(tau),
        concurrence_at_tau=c_tau,
        eof_at_tau=entanglement_of_formation(c_tau),
        ops_budget=ops_budget(tau, cfg.T2),
        correction_phases=correction_phases(args_tau[0], args_tau[1], args_tau[2]),
    )
    return SimulationResult(
        config=cfg, resonances=resonances, trajectory=traj, phases=phases, gate=gate
    )
