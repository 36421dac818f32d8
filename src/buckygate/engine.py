"""High-level driver: from a configuration to a full gate summary.

Static mode propagates with the exact spectral solution on a grid that
follows theta's own rate, driven mode with 4th-order Magnus steps in the
interaction picture of the static Hamiltonian on a grid at the fastest
Hamiltonian scale.  Gate-time refinement re-propagates between the stored
samples, first to scan the intervals near the crossing at a fine spacing and
then to refine the first crossing found by regula falsi, instead of
interpolating the sampled phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    MAX_THETA_STEP,
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
from .constants import CONSTANTS
from .errors import PhaseAliasing
from .fields import ResonancePair, resonance_frequencies
from .hamiltonian import build_static, static_terms
from .propagator import (
    SpectralPropagator,
    Trajectory,
    hamiltonian_scale,
    propagate_magnus,
    propagate_static,
    recommended_step,
    resolve_step,
    rk4_segment,
    time_dependent_hamiltonian,
    _rk4_chunks,
)

# Target phase advance between stored samples at the rate the grid follows:
# theta's own rate for static runs (theta_rate), the fastest coefficient's
# for driven runs.  The unwrap trusts steps up to MAX_THETA_STEP (pi / 2).
MAX_PHASE_PER_SAMPLE = 0.5

MIN_SAMPLES = 1001
MAX_SAMPLES = 50001


@dataclass(frozen=True)
class SimulationResult:
    config: SimulationConfig  # validated, with the step RK4 is given as dt
    resonances: ResonancePair
    trajectory: Trajectory
    phases: PhaseSeries
    gate: GateResult


def sample_times(t_max: float, rate: float) -> np.ndarray:
    """Uniform output grid advancing MAX_PHASE_PER_SAMPLE rad per sample at
    ``rate`` (rad/s), within MIN_SAMPLES and MAX_SAMPLES.

    Static runs pass theta_rate, so at large r the grid follows theta and no
    longer resolves the Zeeman precession of the single amplitudes, which are
    still exact at each sample; driven runs pass the Hamiltonian scale.
    """
    n = np.ceil(t_max * rate / MAX_PHASE_PER_SAMPLE) + 1
    return np.linspace(0.0, t_max, int(min(max(n, MIN_SAMPLES), MAX_SAMPLES)))


def theta_rate(config, spectral):
    """(rate, unresolved) of theta on a static run, both from H's spectrum.

    theta turns at the dipolar rate 4 (g + J0) and beats at the
    {|01>,|10>}-block frequency 2 sqrt(m2^2 + (g - 2 J0)^2); the Zeeman
    terms cancel in c1 c4 conj(c2 c3).  The slow rate is the sum of the two.
    An amplitude's eigencomponents further than that from the frequency of
    its largest one (the -3g mixing of |00> and |11> across the Zeeman gap)
    are off-resonant: with weights summing to ``leak`` against a lower bound
    ``floor`` on the modulus of the rest, they add arg(1 + eps(t)) to theta
    with |eps| <= leak / floor, which moves at most arcsin(leak / floor) rad
    and at most sum(gap * weight) / (floor - leak) rad/s.  ``rate`` adds those
    rates to the slow one, ``unresolved`` sums the amplitudes: the grid is
    not asked to resolve that wiggle, the first-crossing scan allows for it.
    When some leak is not below its floor the wiggle has no bound: the
    rate is infinite, so the grid takes MAX_SAMPLES, and ``unresolved`` is
    pi, so the scan covers every interval up to the first sampled crossing.
    """
    g, _, m2 = static_terms(config)
    j0 = config.J0
    slow = 4 * abs(g + j0) + 2 * math.hypot(m2, g - 2 * j0)
    v, lam = spectral.eigenvectors, spectral.eigenvalues.tolist()
    rate, unresolved = slow, 0.0
    for weight in np.abs(v * (config.initial_state @ v.conj())).tolist():  # |V_jk a_k|
        top = max(range(4), key=weight.__getitem__)
        gap = [abs(x - lam[top]) for x in lam]
        off = [k for k in range(4) if gap[k] > slow]
        leak = sum(weight[k] for k in off)
        floor = 2 * weight[top] - (sum(weight) - leak)
        if not leak:
            continue
        if leak >= floor:
            return math.inf, math.pi
        rate += sum(gap[k] * weight[k] for k in off) / (floor - leak)
        unresolved += math.asin(leak / floor)
    return rate, unresolved


class TrajectoryEvaluator:
    """One propagated run, and continuous theta(t) / psi(t) between its samples.

    Re-propagates from the nearest earlier sample (exactly with the run's own
    SpectralPropagator for the static case, with RK4 substeps of at most the
    config's ``dt`` for the driven case).  theta is the argument of
    c1 c4 conj(c2 c3) aligned to the nearest branch of the linearly
    interpolated sampled theta, which is safe because per-sample theta
    increments stay below MAX_THETA_STEP.
    ``scan_step`` is the point spacing, 0.05 rad at the run's Hamiltonian
    scale, at which find_gate_time scans for crossings between samples;
    ``unresolved`` bounds the part of theta the sample grid does not resolve.
    """

    def __init__(self, config, resonances, trajectory, phases, scan_step,
                 unresolved, spectral, hfun):
        self.config = config
        self.resonances = resonances
        self.trajectory = trajectory
        self.phases = phases
        self.scan_step = scan_step
        self.unresolved = unresolved
        self.spectral = spectral
        self.hfun = hfun
        self.theta0 = float(composite_angle(trajectory.states[0]))

    def state_at(self, t: float) -> np.ndarray:
        times = self.trajectory.times
        i = int(times.searchsorted(t, side="right")) - 1
        i = min(max(i, 0), len(times) - 1)
        psi_i = self.trajectory.states[i]
        if t == times[i]:
            return psi_i.copy()
        if self.spectral is not None:
            return self.spectral.evolve(psi_i, t - times[i])
        return rk4_segment(self.hfun, psi_i.copy(), times[i], t, self.config.dt)

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
            chunks = _rk4_chunks(self.hfun, self.trajectory.states[i[0]], grid, self.config.dt)
            states = np.concatenate([block for _, block in chunks])
        return self._aligned(times, states)

    def _aligned(self, t, states):
        raw = composite_angle(states) - self.theta0
        ref = np.interp(t, self.trajectory.times, self.phases.theta)
        return raw + 2 * np.pi * np.rint((ref - raw) / (2 * np.pi))


def run_trajectory(config) -> TrajectoryEvaluator:
    """Validate, propagate and unwrap; the returned evaluator holds the run.

    The static Hamiltonian is built and diagonalized once per run.  A static
    run raises PhaseAliasing if MAX_SAMPLES samples cannot hold theta's
    per-sample step below MAX_THETA_STEP over the horizon.  A driven run
    takes Magnus steps of at most ``recommended_step`` at the Hamiltonian
    scale, which ``dt`` does not enter.  Once the sample grid is built,
    ``dt`` becomes min(dt, largest sample spacing), the step RK4 is given
    between samples, since no step is longer than its sample interval.  The
    evaluator refines with it and its config records it, so rerunning that
    config reproduces the run.
    """
    cfg = validate(config)
    resonances = resonance_frequencies(CONSTANTS, cfg.Bz1, cfg.Bg1, cfg.Bz2, cfg.Bg2)
    h0 = build_static(cfg)
    scale = hamiltonian_scale(cfg, resonances, h0)
    cfg = resolve_step(cfg, resonances, scale)
    step = recommended_step(scale)
    spectral = SpectralPropagator(h0)
    if cfg.mode == "driven":
        unresolved = 0.0
        times = sample_times(cfg.t_max, scale)
        traj = propagate_magnus(spectral, cfg, resonances, times, step)
        # The evaluator refines a driven run by RK4 from the stored samples.
        spectral, hfun = None, time_dependent_hamiltonian(cfg, resonances, h0)
    else:
        rate, unresolved = theta_rate(cfg, spectral)
        times = sample_times(cfg.t_max, rate)
        theta_step = rate * times[1]
        if math.isfinite(theta_step) and theta_step > MAX_THETA_STEP:
            raise PhaseAliasing(
                f"{len(times)} samples over t_max={cfg.t_max:.6e} s let theta step by up "
                f"to {theta_step:.4g} rad, above the unwrap bound {MAX_THETA_STEP:.3f} rad; "
                "shorten t_max"
            )
        traj = propagate_static(spectral, cfg.initial_state, times)
        hfun = None
    cfg = cfg.replace(dt=min(cfg.dt, float(np.max(np.diff(times)))))
    phases = unwrap_phases(traj)
    return TrajectoryEvaluator(cfg, resonances, traj, phases, step, unresolved, spectral, hfun)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Full pipeline: propagate, find the pi-gate time, summarize the gate."""
    run = run_trajectory(config)
    traj = run.trajectory
    tau = find_gate_time(run.phases, run.theta_at, run.theta_on, run.scan_step, run.unresolved)
    psi_tau = run.state_at(tau)
    # Per-basis phases accumulated by tau, mod 2 pi in (-pi, pi].
    phi = np.angle(psi_tau * np.conj(traj.states[0])).tolist()
    c_tau = concurrence(psi_tau)
    gate = GateResult(
        tau=tau,
        theta_at_tau=float(run._aligned(tau, psi_tau)),
        concurrence_at_tau=c_tau,
        eof_at_tau=entanglement_of_formation(c_tau),
        ops_budget=ops_budget(tau, run.config.T2),
        correction_phases=correction_phases(phi[0], phi[1], phi[2]),
    )
    return SimulationResult(
        config=run.config, resonances=run.resonances, trajectory=traj,
        phases=run.phases, gate=gate,
    )
