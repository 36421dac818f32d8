"""High-level driver: from a configuration to a full gate summary.

Static mode takes theta, its rate and the states in closed form from the
static Hamiltonian's two 2x2 blocks (``BlockPropagator``).  Where the
blocks' bounds exist, theta has its branch in closed form at any time and
the gate samples nothing: the window where theta can reach pi comes from
theta's slow part S, the dipolar turn and block B's beat, alone, where S
comes within the amplitude of the fast part, block A's Zeeman-scale
wiggle, of pi, and theta is evaluated only there.  Driven mode propagates with 4th-order Magnus
steps in the interaction picture of the static Hamiltonian on a grid at the
fastest Hamiltonian scale, as far as the gate needs, in the eigenbasis of
the same blocks.  The trajectory a run outputs is computed when it is read,
a static one from the blocks, with the gate's theta.  Gate-time refinement
evaluates theta between the stored samples, a driven run by re-propagating
from them, first to search the
times near the crossing in cubic Hermite cells on theta and its exact rate,
then to refine the first crossing found by safeguarded Newton steps on that
rate, instead of interpolating the sampled phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .analysis import (
    AMP_FLOOR,
    MAX_THETA_STEP,
    GateResult,
    composite_angle,
    concurrence,
    correction_phases,
    entanglement_of_formation,
    find_gate_time,
    ops_budget,
    static_window,
    unwrap_angles,
    unwrap_phases,
)
from .config import SimulationConfig, validate
from .errors import PhaseAliasing
from .hamiltonian import build_static
from .propagator import (
    DEFAULT_STEP_SAFETY,
    MAX_PHASE_PER_STEP,
    STEPS_PER_CHUNK,
    BlockPropagator,
    MagnusPass,
    Trajectory,
    hamiltonian_scale,
    magnus_steps,
    rk4_spans,
    time_dependent_hamiltonian,
)

# Target phase advance between stored samples at the rate the grid follows:
# the bound on theta's rate for a static grid, the fastest coefficient's for
# driven runs.  The unwrap trusts steps up to MAX_THETA_STEP (pi / 2).
MAX_PHASE_PER_SAMPLE = 0.5

MIN_SAMPLES = 1001
MAX_SAMPLES = 50001


@dataclass(frozen=True)
class SimulationResult:
    """One solve: its validated ``config``, whose resonances are the drive
    frequencies, and its ``gate``.  ``trajectory`` holds the run's output
    samples up to t_max and ``theta`` the unwrapped composite phase at each
    of their times.  The gate reads samples of its own (``run_trajectory``),
    so both are computed on first read, and a NormDrift, UndefinedPhase or
    PhaseAliasing that only they meet is raised there, not by
    ``run_simulation``.
    """

    config: SimulationConfig
    gate: GateResult
    _run: TrajectoryEvaluator = field(repr=False, compare=False)

    @property
    def trajectory(self) -> Trajectory:
        return self._run.trajectory

    @property
    def theta(self) -> np.ndarray:
        return self._run.theta

    def __reduce__(self):
        # The run holds closures: a result pickles as its output samples.
        return _result_of_samples, (self.config, self.gate, self.trajectory, self.theta)


def _result_of_samples(config, gate, trajectory, theta) -> SimulationResult:
    return SimulationResult(config, gate, SimpleNamespace(trajectory=trajectory, theta=theta))


def sample_times(t_max: float, rate: float) -> np.ndarray:
    """Uniform grid from 0 to t_max advancing MAX_PHASE_PER_SAMPLE rad per
    sample at ``rate`` (rad/s), within MIN_SAMPLES and MAX_SAMPLES samples.

    A static run's grid passes the bound on theta's rate, so at large r it
    does not resolve the Zeeman precession of the single amplitudes, which
    are still exact at each sample; driven runs pass the Hamiltonian scale.
    """
    steps = t_max * rate / MAX_PHASE_PER_SAMPLE
    # A rate of inf takes the cap here: math.ceil(inf) raises.
    n = MAX_SAMPLES if steps >= MAX_SAMPLES else min(max(math.ceil(steps) + 1, MIN_SAMPLES), MAX_SAMPLES)
    # np.linspace(0, t_max, n) by its own operations, bit for bit; its
    # branch for a step of 0 is never taken, as validate keeps t_max normal.
    times = np.arange(n) * (t_max / (n - 1))
    times[-1] = t_max
    return times


class TrajectoryEvaluator:
    """One run: what the gate reads, continuous theta(t) / psi(t), and the
    run's output, ``trajectory`` to t_max and ``theta`` at its times.

    The gate's samples, at ``_times`` with unwrapped theta ``_theta``, are a
    driven run's Magnus pass up to where it stopped, or a static run's grid
    where its bounds do not exist (``run_trajectory``).  A static run whose
    bounds exist samples nothing: its ``_times`` are 0 and t_max, its
    ``_theta`` None and its ``window`` the gate's (``static_window``), None
    on other runs.  ``psi0`` is the state at time 0 as the mode gives it.
    ``finish()`` gives the output as (trajectory, theta): the static output
    grid's states and theta from the blocks, or the driven pass completed to
    t_max.  It runs on the first read of ``trajectory`` or ``theta``, and a
    failure there is raised at every read; ``states_at`` and ``theta_at``
    give the same before and after it.

    The mode gives ``states(times)``, through which ``states_at`` gives
    every state: a static run's closed form (``BlockPropagator.states``), or
    a driven run's RK4 carry from each time's nearest earlier sample.  It
    gives ``angles(times)``: theta, on its branch where the run has a window
    and up to a multiple of 2 pi otherwise, its exact rate, and the states
    where the mode computed them, else None.  A static run takes theta and
    its rate from the blocks' ellipses (``BlockPropagator.theta``); a driven
    run takes theta as the argument of c1 c4 conj(c2 c3) less its value at
    0, and, with i dpsi/dt = H(t) psi, its rate as
    dtheta/dt = -Re[(H psi)_1 / c1 - (H psi)_2 / c2 - (H psi)_3 / c3 + (H psi)_4 / c4].
    ``theta_at`` gives theta and its rate at an array of times, for
    find_gate_time's search calls and Newton steps alike, on the branch
    nearest the linear interpolation of ``_theta`` where there are samples,
    safe as per-sample increments stay below MAX_THETA_STEP, and keeps the
    latest evaluation, where run_simulation reads tau's.  A run with a
    window takes any time; the others the span of ``_times``: a driven
    run's samples end just past the first sampled crossing, beyond which
    np.interp would pick a branch off by multiples of 2 pi, so its
    ``states`` raises ValueError for a later time.  ``scan_step``, 0.05 rad
    at the run's Hamiltonian scale, is the narrowest cell find_gate_time's
    scan splits.
    """

    def __init__(self, config, times, theta, psi0, scan_step, window, states, angles, finish):
        self.config = config
        self._times = times
        self._theta = theta
        self.psi0 = psi0
        self._finish = finish
        self._output = None
        self.scan_step = scan_step
        self.window = window
        self._states = states
        self._angles = angles
        # The latest evaluated times, states (or None) and theta; before any,
        # time 0, where theta is 0.
        self._last = times[:1], psi0[None], np.zeros(1)

    @property
    def trajectory(self) -> Trajectory:
        return self._complete()[0]

    @property
    def theta(self) -> np.ndarray:
        return self._complete()[1]

    def _complete(self):
        if self._output is None:
            self._output = self._finish()
        return self._output

    def states_at(self, times) -> np.ndarray:
        """psi at each of ``times``."""
        return self._states(np.asarray(times, dtype=float))

    def theta_at(self, times: np.ndarray):
        """(theta, dtheta/dt) at each of ``times``, a 1-D array within the
        evaluator's domain (see the class).  The times, the states
        ``angles`` gave (or None) and theta are kept as ``_last`` for the
        caller that needs them at tau."""
        theta, rate, states = self._angles(times)
        if self._theta is not None:
            ref = np.interp(times, self._times, self._theta)
            theta = theta + 2 * np.pi * np.rint((ref - theta) / (2 * np.pi))
        self._last = times, states, theta
        return theta, rate


def _unwrap_new_samples(magnus, theta):
    """``theta``, the unwrapped theta of the first len(theta) samples of the
    Magnus pass ``magnus``, extended over every later sample it holds.  The
    new part is summed on from the last theta, so that the series equals the
    one of all the samples at once, bit for bit (``unwrap_phases``)."""
    return np.concatenate([theta, unwrap_phases(magnus.samples(len(theta) - 1), theta[-1])[1:]])


def _run_to_first_crossing(magnus) -> np.ndarray:
    """Advance the driven pass ``magnus`` until its samples hold the one
    after the first sample whose |theta| reaches pi, as far as the gate-time
    scan reads (``find_gate_time``), or to its end; return theta at its
    samples.

    The first chunk is STEPS_PER_CHUNK steps.  Each later one covers 1.5
    times the time theta needs to reach pi at its mean sampled rate so far,
    |theta| / t at the last sample, but at least one sample interval and at
    most STEPS_PER_CHUNK steps.  The factor trades steps past the gate for
    more chunks, each of which costs a fixed count of numpy calls.  On the
    benchmark's driven sweep (seeds 1-3, 36 solves) factors of 1.5, 2 and 3
    build 822, 859 and 925 Magnus steps per solve in 2.25, 2.22 and 2.19
    chunks, against 1 389 steps for the whole pass.  At 2, a gate at 63 % of
    t_max (Bz 0.1 T, Bl 0.2 mT, 15 ns) leaves the pass at 75 % of its steps,
    at 1.5 at 69 %.
    """
    theta, steps, hit = np.zeros(1), STEPS_PER_CHUNK, None
    while not magnus.done:
        new = len(theta)
        magnus.advance(steps)
        theta = _unwrap_new_samples(magnus, theta)
        if hit is None:  # only the samples new in this chunk can be the first
            reached = np.flatnonzero(np.abs(theta[new:]) >= math.pi)
            hit = new + int(reached[0]) if reached.size else None
        if hit is not None and hit + 2 <= len(theta):
            break
        size, t = abs(float(theta[-1])), float(magnus.times[len(theta) - 1])
        steps = 1.5 * (math.pi - size) * t / (size * magnus.h) if size else math.inf
        steps = math.ceil(min(max(steps, magnus.steps), STEPS_PER_CHUNK))
    return theta


def _unwrap(blocks, times, phase, rate: float, states=None) -> np.ndarray:
    """``unwrap_angles`` of ``phase``, a static run's theta at ``times`` up
    to a multiple of 2 pi.  First ``unwrap_phases``
    checks the ``states`` there (the blocks' if None) where the blocks do not
    bound every amplitude above AMP_FLOOR, then the grid's step is checked
    at ``rate``, a bound on the phase's rate."""
    if blocks.least_modulus < AMP_FLOOR:  # an amplitude may vanish: check the samples' states
        states = blocks.states(times) if states is None else states
        unwrap_phases(Trajectory(times=times, states=states))
    theta_step = rate * times[1]
    if math.isfinite(theta_step) and theta_step > MAX_THETA_STEP:
        raise PhaseAliasing(
            f"{len(times)} samples over t_max={times[-1]:.6e} s let theta step by up "
            f"to {theta_step:.4g} rad, above the unwrap bound {MAX_THETA_STEP:.3f} rad; "
            "shorten t_max"
        )
    return unwrap_angles(times, phase)


def run_trajectory(config) -> TrajectoryEvaluator:
    """Validate, propagate and unwrap what the gate reads; the returned
    evaluator holds the run and computes its output when that is read.

    H0 is diagonalized once, in closed form from its two 2x2 blocks formed
    from the validated config in Python floats (``BlockPropagator``); only a
    driven run builds the 4x4 matrix, for H(t), with its drive at
    ``config.resonances``.  A static run reads theta, its rate, the states
    and the bounds from the blocks, with no eigh and no 4x4 evolution.
    Where the bounds exist, theta has its branch in closed form and the
    gate samples nothing: the window where theta can reach pi comes from its
    slow part S alone, at any horizon (``static_window``).  Where they do
    not (an ellipse may pass through 0, or block A's leaves its centre's
    side), theta is sampled on a grid at the bound on its rate, at least
    MIN_SAMPLES, and searched with no bound, as a driven run's; PhaseAliasing
    is raised if MAX_SAMPLES samples cannot hold its step below
    MAX_THETA_STEP.  Static samples are unwrapped by ``unwrap_angles`` after
    a check of their states where an amplitude may vanish (``_unwrap``), and
    so is the output, that grid with the blocks' states and theta there,
    when ``trajectory`` or ``theta`` is first read.  A driven run's Magnus
    pass works in the blocks' eigenbasis, with ``magnus_steps`` steps per
    sample interval, set by the drive rather than the Zeeman precession;
    it stops just past the first sampled crossing
    (``_run_to_first_crossing``), all the gate needs, and is completed on
    that read, so a NormDrift, UndefinedPhase or PhaseAliasing that only the
    output meets is raised there.  MAX_STEPS bounds the whole driven run,
    before any step.  The refinement scans in cells no narrower than
    ``scan_step``, MAX_PHASE_PER_STEP rad at the Hamiltonian scale, and
    refines, both through ``theta_at``; a driven run carries its states
    between samples by ``rk4_spans`` in steps of at most DEFAULT_STEP_SAFETY
    times ``scan_step``, and takes one H(t) per time for theta's rate.
    """
    cfg = validate(config)
    blocks = BlockPropagator(cfg)
    scale = hamiltonian_scale(cfg, blocks)
    scan_step = MAX_PHASE_PER_STEP / scale
    if cfg.mode == "driven":
        window = None
        times = sample_times(cfg.t_max, scale)
        magnus = MagnusPass(blocks, cfg, times, magnus_steps(cfg, scale, times))
        theta = _run_to_first_crossing(magnus)
        traj = magnus.trajectory
        times, psi0 = traj.times, traj.states[0]

        def finish():
            magnus.advance(magnus.total)
            return magnus.trajectory, _unwrap_new_samples(magnus, theta)

        hfun = time_dependent_hamiltonian(cfg, build_static(cfg))
        step = DEFAULT_STEP_SAFETY * scan_step
        theta0, last = float(composite_angle(psi0)), float(times[-1])

        def states(t):
            if (t > last).any():
                raise ValueError(
                    f"t={t[t > last].max():.6e} s is past the last gate sample of the driven run, at {last:.6e} s"
                )
            i = times[1:].searchsorted(t, side="right")
            return rk4_spans(hfun, traj.states[i], times[i], t, step)

        def angles(t):
            psi = states(t)
            # dtheta/dt (TrajectoryEvaluator) from the real parts of the
            # ratios, with the signs turned.
            ratio = ((hfun(t) @ psi[..., None])[..., 0] / psi).real
            return composite_angle(psi) - theta0, ratio[:, 1] - ratio[:, 0] + ratio[:, 2] - ratio[:, 3], psi
    else:
        bounds = blocks.bounds()
        if all(map(math.isfinite, bounds)):  # theta on its branch: no samples
            times, theta, window = np.array([0.0, cfg.t_max]), None, static_window(blocks, bounds, cfg.t_max)
        else:  # theta itself, on a grid as a driven run's
            times, window = sample_times(cfg.t_max, bounds.rate), None
            theta = _unwrap(blocks, times, blocks.angles(times), bounds.rate)
        psi0, states = blocks.psi0, blocks.states

        def finish():
            times = sample_times(cfg.t_max, bounds.rate)
            output = Trajectory(times=times, states=states(times))
            return output, _unwrap(blocks, times, blocks.angles(times), bounds.rate, output.states)

        def angles(t):
            return *blocks.theta(t), None

    return TrajectoryEvaluator(cfg, times, theta, psi0, scan_step, window, states, angles, finish)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Full pipeline: propagate, find the pi-gate time, summarize the gate.
    Theta at tau is that of the evaluation that accepted tau, the
    refinement's last unless tau is the earlier end of its bracket, and so
    is a driven run's state at tau; a static run's is evaluated once."""
    run = run_trajectory(config)
    tau = find_gate_time(run._times, run._theta, run.theta_at, run.scan_step, run.window)
    if run._last[0][-1] != tau:  # tau is not the latest time evaluated
        run.theta_at(np.array([tau]))
    _, states, theta = run._last  # the evaluation that accepted tau
    psi_tau = run.states_at([tau])[0] if states is None else states[-1]
    # Per-basis phases accumulated by tau, mod 2 pi in (-pi, pi].
    phi = np.angle(psi_tau * run.psi0.conj()).tolist()
    c_tau = concurrence(psi_tau)
    gate = GateResult(
        tau=tau,
        theta_at_tau=float(theta[-1]),
        concurrence_at_tau=c_tau,
        eof_at_tau=entanglement_of_formation(c_tau),
        ops_budget=ops_budget(tau, run.config.T2),
        correction_phases=correction_phases(phi[0], phi[1], phi[2]),
    )
    return SimulationResult(config=run.config, gate=gate, _run=run)
