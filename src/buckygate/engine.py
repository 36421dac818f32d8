"""High-level driver: from a configuration to a full gate summary.

Static mode takes theta, its rate and the states in closed form from the
static Hamiltonian's two 2x2 blocks (``BlockPropagator``), on a grid sized
by bounds on theta's rate and curvature; driven mode propagates with
4th-order Magnus steps in the interaction picture of the static Hamiltonian
on a grid at the fastest Hamiltonian scale, as far as the gate needs.  The
trajectory a run outputs is computed when it is read, a static one by the
exact spectral solution.  Gate-time refinement evaluates theta between the
stored samples, a driven run by re-propagating from them, first to search
the intervals near the crossing in cubic Hermite cells on theta and its
exact rate, then to refine the first crossing found by safeguarded Newton
steps on that rate, instead of interpolating the sampled phase.
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
    SpectralPropagator,
    Trajectory,
    hamiltonian_scale,
    magnus_steps,
    propagate_static,
    rk4_spans,
    time_dependent_hamiltonian,
)

# Target phase advance between stored samples at the rate the grid follows:
# theta's own rate for static runs (theta_rate), the fastest coefficient's
# for driven runs.  The unwrap trusts steps up to MAX_THETA_STEP (pi / 2).
MAX_PHASE_PER_SAMPLE = 0.5

MIN_SAMPLES = 1001
MAX_SAMPLES = 50001

# Bound (rad) on h^2 m2 / 8, the interpolation error of theta's resolved
# part between the static gate grid's samples h apart: the part of the
# first-crossing scan's margin that the grid sets (analysis._scan_margin).
# A wider margin widens the bands the scan evaluates, a narrower one takes
# more samples.
MARGIN_TARGET = 3e-4


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


def sample_times(t_max: float, rate: float, least: int = MIN_SAMPLES) -> np.ndarray:
    """Uniform grid from 0 to t_max advancing MAX_PHASE_PER_SAMPLE rad per
    sample at ``rate`` (rad/s), within ``least`` and MAX_SAMPLES samples.

    Static runs pass theta_rate, so at large r the grid follows theta and no
    longer resolves the Zeeman precession of the single amplitudes, which are
    still exact at each sample; driven runs pass the Hamiltonian scale.
    """
    n = np.ceil(t_max * rate / MAX_PHASE_PER_SAMPLE) + 1
    return np.linspace(0.0, t_max, int(min(max(n, least), MAX_SAMPLES)))


def theta_rate(blocks):
    """(rate, unresolved, m2, m4) of theta on a static run, all from the
    spectrum and the terms s and rho of its ``BlockPropagator`` ``blocks``:
    bounds on |theta'|, on the part of theta the gate's samples need not
    resolve, on |theta''| of the rest and on |theta''''|.

    Each amplitude is c_j = exp(-i lam_top t) u_j with the exponential sum
    u_j(t) = sum_k V_jk a_k exp(-i (lam_k - lam_top) t) about its largest
    eigencomponent, top, whose n-th derivative is at most
    D_n = sum_k weight_k gap_k^n in modulus and whose modulus is at least
    2 weight_top - sum(weight).  theta = Im log z with z = c1 c4 conj(c2 c3),
    so theta' is -(lam_top1 + lam_top4 - lam_top2 - lam_top3) plus a signed
    sum of Im (log u_j)', each at most D_1 / (2 weight_top - sum(weight)):
    ``rate`` sums their moduli.  It is never below the dipolar rate
    |s| = 4 |g + J0|, which H's spectrum no longer shows where J0 dwarfs the
    other terms beyond float resolution (J0 = 1e300 rad/s): such a run is
    refused with PhaseAliasing, not sampled as if theta stood still.

    theta turns at the dipolar rate and beats at the {|01>,|10>}-block
    frequency 2 rho_B; the Zeeman terms cancel in z.  An amplitude's
    eigencomponents further than the sum of the two from top (the -3g
    mixing of |00> and |11> across the Zeeman gap) are off-resonant: with
    weights summing to ``leak`` against a lower bound ``floor`` on the
    modulus of the near ones, they add arg(1 + eps(t)) to theta with
    |eps| <= leak / floor, which moves at most arcsin(leak / floor) rad.
    ``unresolved`` sums those amplitudes: the gate's grid is not asked to
    resolve that wiggle, the first-crossing scan allows for it.  The rest,
    the argument of the near part, has (log near)'' = near''/near -
    (near'/near)^2, so ``m2`` sums Q_2 + Q_1^2 over the amplitudes, Q_n the
    near components' D_n over ``floor``: between samples h apart theta
    departs from their linear interpolation by at most h^2 m2 / 8 besides
    the wiggle (``find_gate_time``).

    ``m4`` sizes the cubic Hermite cells of the first-crossing scan.  The
    factor in front of u_j drops out of every derivative of log c_j past the
    first, and Faa di Bruno's formula for log u,
        (log u)'''' = u''''/u - (4 u' u''' + 3 u''^2)/u^2 + 12 u'^2 u''/u^3 - 6 (u'/u)^4,
    bounds each term by the D_n and 2 weight_top - sum(weight).

    An amplitude with no dominant eigencomponent, 2 weight_top <= sum(weight),
    may pass near zero, where theta turns without bound: then ``rate``,
    ``m2`` and ``m4`` are infinite, so the grid takes MAX_SAMPLES, and where
    some leak is not below its floor ``unresolved`` is pi, so the scan
    covers every interval up to the first sampled crossing.
    """
    dipolar = abs(blocks.s)
    slow = dipolar + 2 * blocks.rho[1]
    lam = blocks.eigenvalues.tolist()
    turn, rate, unresolved, m2, m4 = 0.0, 0.0, 0.0, 0.0, 0.0
    weights = np.abs(blocks.components.T).tolist()  # |V_jk a_k|
    for sign, weight in zip((1, -1, -1, 1), weights):
        top = max(range(4), key=weight.__getitem__)
        turn += sign * lam[top]
        gap = [abs(x - lam[top]) for x in lam]
        leak = sum(w for w, x in zip(weight, gap) if x > slow)
        floor = 2 * weight[top] - (sum(weight) - leak)
        if leak and leak >= floor:
            return math.inf, math.pi, math.inf, math.inf
        if leak:
            unresolved += math.asin(leak / floor)
        u = floor - leak
        if u <= 0:
            rate = m2 = m4 = math.inf
            continue
        # q_n = D_n / u and p_n, the near components' D_n over floor, by
        # products, not powers: a float product beyond the floats reads inf,
        # and a zero weight keeps its terms at zero.
        q1 = q2 = q3 = q4 = p1 = p2 = 0.0
        for w, x in zip(weight, gap):
            if x <= slow:
                p = w * x / floor
                p1 += p
                p2 += p * x
            w = w * x / u
            q1 += w
            w *= x
            q2 += w
            w *= x
            q3 += w
            q4 += w * x
        rate += q1
        m2 += p2 + p1 * p1
        m4 += q4 + 4 * q1 * q3 + 3 * q2 * q2 + 12 * q1 * q1 * q2 + 6 * q1 * q1 * q1 * q1
    return max(abs(turn) + rate, dipolar), unresolved, m2, m4


class TrajectoryEvaluator:
    """One run: the samples the gate reads, theta unwrapped at each of them,
    and continuous theta(t) / psi(t) between them; and the run's output,
    ``trajectory`` to t_max and ``theta`` at its times.

    The gate's samples, at ``_times`` with theta ``_theta``, are a static
    run's grid sized for the gate, or a driven run's Magnus pass up to where
    it stopped (``run_trajectory``); ``psi0`` is the run's state at time 0
    as the mode gives it.  ``finish()`` gives the output as (trajectory,
    theta): the static output grid propagated and unwrapped, or the driven
    pass completed to t_max.  It runs on the first read of ``trajectory`` or
    ``theta``, and a failure there is raised at every read.  ``states_at``
    and ``theta_at`` give the same before and after that read.

    The mode gives ``states(times)``, psi at each time, through which
    ``states_at`` gives every state the evaluator gives: a static run's
    closed form (``BlockPropagator.states``), or a driven run's RK4 carry
    from each time's nearest earlier sample.  It gives ``angles(times)``:
    theta at each time up to a multiple of 2 pi, its exact rate, and the
    states at the times where the mode computed them, else None.  A static
    run takes theta and its rate from the blocks' ellipses
    (``BlockPropagator.theta``) and no state; a driven run takes the states
    at every time, theta as the argument of c1 c4 conj(c2 c3) less its value
    at 0, and its rate, with i dpsi/dt = H(t) psi, as
    dtheta/dt = -Re[(H psi)_1 / c1 - (H psi)_2 / c2 - (H psi)_3 / c3 + (H psi)_4 / c4].
    ``theta_at`` gives theta and its rate at an array of times, for
    find_gate_time's scan rounds and one-time Newton steps alike, with theta
    on the nearest branch of the linearly interpolated sampled theta, which
    is safe because per-sample theta increments stay below MAX_THETA_STEP,
    and keeps the latest evaluation, where run_simulation reads tau's.
    ``scan_step``, 0.05 rad at the run's Hamiltonian scale, is the narrowest
    cell find_gate_time's scan for crossings between samples splits;
    ``unresolved`` bounds the part of theta the samples do not resolve,
    ``m2`` |theta''| of the rest and ``m4`` |theta''''|, each infinite where
    there is no bound.
    """

    def __init__(self, config, times, theta, psi0, scan_step, unresolved, m2, m4, states, angles, finish):
        self.config = config
        self._times = times
        self._theta = theta
        self.psi0 = psi0
        self._finish = finish
        self._output = None
        self.scan_step = scan_step
        self.unresolved = unresolved
        self.m2 = m2
        self.m4 = m4
        self._states = states
        self._angles = angles
        # The latest evaluated times, states (or None) and theta; before any, the first sample.
        self._last = times[:1], psi0[None], theta[:1]

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
        """(theta, dtheta/dt) at each of ``times``, a 1-D array.  The times, the
        states ``angles`` gave (or None) and theta are kept as ``_last`` for
        the caller that needs them at tau."""
        raw, rate, states = self._angles(times)
        ref = np.interp(times, self._times, self._theta)
        theta = raw + 2 * np.pi * np.rint((ref - raw) / (2 * np.pi))
        self._last = times, states, theta
        return theta, rate


def _unwrap_new_samples(magnus, theta):
    """``theta``, the unwrapped theta of the first len(theta) samples of the
    Magnus pass ``magnus``, extended over every later sample it holds.  The
    new part is summed on from the last theta, so that the series equals the
    one of all the samples at once, bit for bit (``unwrap_phases``)."""
    traj = magnus.trajectory
    start = len(theta) - 1
    new = Trajectory(times=traj.times[start:], states=traj.states[start:])
    return np.concatenate([theta, unwrap_phases(new, theta[-1])[1:]])


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
    theta, steps = np.zeros(1), STEPS_PER_CHUNK
    while not magnus.done:
        magnus.advance(steps)
        theta = _unwrap_new_samples(magnus, theta)
        hit = np.flatnonzero(np.abs(theta) >= math.pi)
        if hit.size and hit[0] + 2 <= len(theta):
            break
        size, t = abs(float(theta[-1])), float(magnus.times[len(theta) - 1])
        steps = 1.5 * (math.pi - size) * t / (size * magnus.h) if size else math.inf
        steps = math.ceil(min(max(steps, magnus.steps), STEPS_PER_CHUNK))
    return theta


def run_trajectory(config) -> TrajectoryEvaluator:
    """Validate, propagate and unwrap what the gate reads; the returned
    evaluator holds the run and computes its output when that is read.

    The static Hamiltonian is built once per run, and a driven run's drive
    is at ``config.resonances``.  A static run's gate reads the closed form
    of ``BlockPropagator``, built from the Hamiltonian's two 2x2 blocks,
    for theta, its rate, the states and the spectrum ``theta_rate`` bounds
    theta from; its gate calls neither eigh nor a 4x4 evolution.  It
    samples the gate on a grid with no MIN_SAMPLES floor, from 0 to t_max,
    whose spacing h keeps theta's step within MAX_PHASE_PER_SAMPLE at the
    bound ``rate`` of ``theta_rate`` and the interpolation error h^2 m2 / 8
    of its resolved part within MARGIN_TARGET; it raises PhaseAliasing if
    MAX_SAMPLES samples cannot hold theta's step below MAX_THETA_STEP.  The
    samples' theta is unwrapped by ``unwrap_angles``, the rule of
    ``unwrap_phases``.  Where the blocks do not bound every amplitude's
    modulus above AMP_FLOOR, ``unwrap_phases`` first checks the samples'
    states, so a vanishing amplitude raises UndefinedPhase, before any
    PhaseAliasing.  Its output is the MIN_SAMPLES-floored grid at ``rate``,
    diagonalized, propagated and unwrapped (``SpectralPropagator``,
    ``propagate_static``, ``unwrap_phases``) when the evaluator's
    ``trajectory`` or ``theta`` is first read.  A driven
    run takes ``magnus_steps`` Magnus steps per sample interval, set by the
    drive and the fitted error of the step rather than by the Zeeman
    precession: one or two on the benchmark's driven points.  Its pass
    stops just past the first sampled crossing (``_run_to_first_crossing``),
    which is all the gate needs, and is completed on that read.  So a
    NormDrift, UndefinedPhase or PhaseAliasing that only the output meets is
    raised there.  MAX_STEPS bounds the whole driven run, before any step.
    Gate-time refinement scans in cells no narrower than ``scan_step``,
    MAX_PHASE_PER_STEP rad at the Hamiltonian scale, but around the
    crossing, and refines, both through the evaluator's ``theta_at``.  A
    driven run's states between samples are carried by ``rk4_spans`` in
    steps of at most DEFAULT_STEP_SAFETY times ``scan_step``, and theta's
    rate takes one H(t) per time of a batch.
    """
    cfg = validate(config)
    h0 = build_static(cfg)
    scale = hamiltonian_scale(cfg, h0)
    scan_step = MAX_PHASE_PER_STEP / scale
    if cfg.mode == "driven":
        unresolved, m2, m4 = 0.0, math.inf, math.inf
        times = sample_times(cfg.t_max, scale)
        magnus = MagnusPass(SpectralPropagator(h0), cfg, times, magnus_steps(cfg, scale, times))
        theta = _run_to_first_crossing(magnus)
        traj = magnus.trajectory
        times, psi0 = traj.times, traj.states[0]

        def finish():
            magnus.advance(magnus.total)
            return magnus.trajectory, _unwrap_new_samples(magnus, theta)

        hfun = time_dependent_hamiltonian(cfg, h0)
        step = DEFAULT_STEP_SAFETY * scan_step
        theta0 = float(composite_angle(psi0))

        def states(t):
            i = times[1:].searchsorted(t, side="right")
            return rk4_spans(hfun, traj.states[i], times[i], t, step)

        def angles(t):
            psi = states(t)
            # dtheta/dt (TrajectoryEvaluator) from the real parts of the
            # ratios, with the signs turned.
            ratio = ((hfun(t) @ psi[..., None])[..., 0] / psi).real
            return composite_angle(psi) - theta0, ratio[:, 1] - ratio[:, 0] + ratio[:, 2] - ratio[:, 3], psi
    else:
        blocks = BlockPropagator(h0, cfg.initial_state)
        rate, unresolved, m2, m4 = theta_rate(blocks)
        # m2 is infinite only where the rate is, which asks for MAX_SAMPLES.
        pace = max(rate, MAX_PHASE_PER_SAMPLE * math.sqrt(m2 / (8 * MARGIN_TARGET)))
        times = sample_times(cfg.t_max, pace, least=2)
        if blocks.least_modulus < AMP_FLOOR:  # an amplitude may vanish: check the samples' states
            unwrap_phases(Trajectory(times=times, states=blocks.states(times)))
        theta_step = rate * times[1]
        if math.isfinite(theta_step) and theta_step > MAX_THETA_STEP:
            raise PhaseAliasing(
                f"{len(times)} samples over t_max={cfg.t_max:.6e} s let theta step by up "
                f"to {theta_step:.4g} rad, above the unwrap bound {MAX_THETA_STEP:.3f} rad; "
                "shorten t_max"
            )
        theta = unwrap_angles(times, blocks.angles(times))
        psi0, states = blocks.psi0, blocks.states

        def finish():
            spectral = SpectralPropagator(h0)
            output = propagate_static(spectral, cfg.initial_state, sample_times(cfg.t_max, rate))
            return output, unwrap_phases(output)

        def angles(t):
            return *blocks.theta(t), None

    return TrajectoryEvaluator(cfg, times, theta, psi0, scan_step, unresolved, m2, m4, states, angles, finish)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Full pipeline: propagate, find the pi-gate time, summarize the gate.
    Theta at tau is that of the evaluation that accepted tau, the
    refinement's last unless tau is the earlier end of its bracket, and so
    is a driven run's state at tau; a static run's is evaluated once."""
    run = run_trajectory(config)
    tau = find_gate_time(run._times, run._theta, run.theta_at, run.scan_step, run.unresolved, run.m2, run.m4)
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
