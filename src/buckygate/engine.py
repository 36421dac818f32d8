"""High-level driver: from a configuration to a full gate summary.

Static mode propagates with the exact spectral solution, driven mode with
fixed-step RK4.  Gate-time refinement re-propagates between the stored
samples, first to scan the intervals near the crossing at a fine spacing and
then to bisect the first crossing found, instead of interpolating the sampled
phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    GateResult,
    PhaseSeries,
    composite_angle,
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
    recommended_step,
    resolve_step,
    rk4_segment,
    time_dependent_hamiltonian,
    _rk4_chunks,
)

# Target phase advance of the fastest coefficient between stored samples.
# theta turns far slower (about 4 g), so its unwrap has a wide margin.
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
    """Output grid resolving the fastest coefficient, within the sample bounds."""
    n = int(np.ceil(t_max * h_scale / MAX_PHASE_PER_SAMPLE)) + 1
    n = min(max(n, MIN_SAMPLES), MAX_SAMPLES)
    return np.linspace(0.0, t_max, n)


class TrajectoryEvaluator:
    """Continuous theta(t) / psi(t) between the stored samples of a run.

    Re-propagates from the nearest earlier sample (exactly for the static
    case, with RK4 substeps for the driven case).  theta is the argument of
    c1 c4 conj(c2 c3) aligned to the nearest branch of the linearly
    interpolated sampled theta, which is safe because per-sample theta
    increments stay far below pi.  ``scan_step`` is the point spacing,
    0.05 rad at the run's Hamiltonian scale, at which find_gate_time scans
    for crossings between samples.
    """

    def __init__(self, config, resonances, trajectory, phases, constants=CONSTANTS):
        self.trajectory = trajectory
        self.phases = phases
        self.theta0 = float(composite_angle(trajectory.states[0]))
        self.dt = config.dt
        self.scan_step = recommended_step(hamiltonian_scale(config, resonances, constants))
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

    def theta_at(self, t: float) -> float:
        return float(self._aligned(t, self.state_at(t)))

    def theta_on(self, times: np.ndarray) -> np.ndarray:
        """theta at each of the increasing ``times``, in one vectorized pass.

        Static runs evolve each time exactly from its nearest earlier sample;
        driven runs take one RK4 pass from the sample at or before times[0].
        """
        samples = self.trajectory.times
        i = np.clip(np.searchsorted(samples, times, side="right") - 1, 0, len(samples) - 1)
        if self.spectral is not None:
            states = self.spectral.evolve(self.trajectory.states[i], times - samples[i])
        else:
            grid = np.concatenate([samples[i[:1]], times])
            chunks = _rk4_chunks(self.hfun, self.trajectory.states[i[0]], grid, self.dt)
            states = np.concatenate([block for _, block in chunks])
        return self._aligned(times, states)

    def _aligned(self, t, states):
        raw = composite_angle(states) - self.theta0
        ref = np.interp(t, self.trajectory.times, self.phases.theta)
        return raw + 2 * np.pi * np.round((ref - raw) / (2 * np.pi))


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

    tau = find_gate_time(
        phases,
        theta_fn=evaluator.theta_at,
        scan_fn=evaluator.theta_on,
        scan_step=evaluator.scan_step,
    )
    psi_tau = evaluator.state_at(tau)
    # Per-basis phases accumulated by tau, mod 2 pi in (-pi, pi].
    phi = np.angle(psi_tau * np.conj(traj.states[0])).tolist()
    c_tau = concurrence(psi_tau)
    gate = GateResult(
        tau=tau,
        theta_at_tau=evaluator.theta_at(tau),
        concurrence_at_tau=c_tau,
        eof_at_tau=entanglement_of_formation(c_tau),
        ops_budget=ops_budget(tau, cfg.T2),
        correction_phases=correction_phases(phi[0], phi[1], phi[2]),
    )
    return SimulationResult(
        config=cfg, resonances=resonances, trajectory=traj, phases=phases, gate=gate
    )
