"""High-level driver: from a configuration to a full gate summary.

Static mode propagates with the exact spectral solution on a grid that
follows theta's own rate, driven mode with 4th-order Magnus steps in the
interaction picture of the static Hamiltonian on a grid at the fastest
Hamiltonian scale, as far as the gate needs: the rest of a driven
trajectory is computed when it is read.  Gate-time refinement re-propagates
between the stored samples, first to search the intervals near the crossing
in cubic Hermite cells on theta and its exact rate, then to refine the first
crossing found by safeguarded Newton steps on that rate, instead of
interpolating the sampled phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .analysis import (
    MAX_THETA_STEP,
    GateResult,
    composite_angle,
    concurrence,
    correction_phases,
    entanglement_of_formation,
    find_gate_time,
    ops_budget,
    unwrap_phases,
)
from .config import SimulationConfig, validate
from .errors import PhaseAliasing
from .hamiltonian import build_static, static_terms
from .propagator import (
    DEFAULT_STEP_SAFETY,
    MAX_PHASE_PER_STEP,
    STEPS_PER_CHUNK,
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


@dataclass(frozen=True)
class SimulationResult:
    """One solve: its validated ``config``, whose resonances are the drive
    frequencies, and its ``gate``.  ``trajectory`` holds the run's samples up
    to t_max and ``theta`` the unwrapped composite phase at each of their
    times.  A driven run's Magnus pass stops just past the first sampled
    crossing (``run_trajectory``), so both are completed on first read, and
    a NormDrift, UndefinedPhase or PhaseAliasing after that sample is raised
    there, not by ``run_simulation``.
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
        # The run holds closures: a result pickles as its completed samples.
        return _result_of_samples, (self.config, self.gate, self.trajectory, self.theta)


def _result_of_samples(config, gate, trajectory, theta) -> SimulationResult:
    return SimulationResult(config, gate, SimpleNamespace(trajectory=trajectory, theta=theta))


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
    """(rate, unresolved, m4) of theta on a static run, all from H's spectrum.

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

    ``m4`` bounds |theta''''|, which sizes the cubic Hermite cells of the
    first-crossing scan.  theta = Im log z with z = c1 c4 conj(c2 c3), so
    theta'''' is a signed sum of Im (log c_j)''''.  Each amplitude is
    c_j = exp(-i lam_top t) u_j with the exponential sum
    u_j(t) = sum_k V_jk a_k exp(-i (lam_k - lam_top) t), whose n-th
    derivative is at most D_n = sum_k weight_k gap_k^n in modulus and whose
    modulus is at least floor - leak = 2 weight_top - sum(weight) > 0; the
    factor in front drops out of every derivative of log c_j past the first.
    Faa di Bruno's formula for log u,
        (log u)'''' = u''''/u - (4 u' u''' + 3 u''^2)/u^2 + 12 u'^2 u''/u^3 - 6 (u'/u)^4,
    then bounds each term by the D_n and floor - leak.  ``m4`` is infinite
    when some floor - leak is not positive, and where the rate is.
    """
    g, _, m2 = static_terms(config)
    j0 = config.J0
    slow = 4 * abs(g + j0) + 2 * math.hypot(m2, g - 2 * j0)
    v, lam = spectral.eigenvectors, spectral.eigenvalues.tolist()
    rate, unresolved, m4 = slow, 0.0, 0.0
    for weight in np.abs(v * (config.initial_state @ v.conj())).tolist():  # |V_jk a_k|
        top = max(range(4), key=weight.__getitem__)
        gap = [abs(x - lam[top]) for x in lam]
        off = [k for k in range(4) if gap[k] > slow]
        leak = sum(weight[k] for k in off)
        floor = 2 * weight[top] - (sum(weight) - leak)
        if leak and leak >= floor:
            return math.inf, math.pi, math.inf
        u = floor - leak
        if u <= 0:
            m4 = math.inf
        else:
            # q_n = D_n / u by products, not powers: a float product beyond
            # the floats reads inf, and a zero weight keeps its terms at zero.
            q1 = q2 = q3 = q4 = 0.0
            for w, x in zip(weight, gap):
                w = w * x / u
                q1 += w
                w *= x
                q2 += w
                w *= x
                q3 += w
                q4 += w * x
            m4 += q4 + 4 * q1 * q3 + 3 * q2 * q2 + 12 * q1 * q1 * q2 + 6 * q1 * q1 * q1 * q1
        if leak:
            rate += sum(gap[k] * weight[k] for k in off) / (floor - leak)
            unresolved += math.asin(leak / floor)
    return rate, unresolved, m4


class TrajectoryEvaluator:
    """One propagated run, its unwrapped theta at each of ``trajectory.times``,
    and continuous theta(t) / psi(t) between its samples.

    ``trajectory`` and ``theta`` are the run's to t_max.  A driven run's
    Magnus pass, ``magnus``, may have stopped before the end: the evaluator
    then holds the samples up to where it stopped, and the first read of
    ``trajectory`` or ``theta`` completes the pass and unwraps theta over the
    rest; a failure there is raised at every read.  ``states_at`` and
    ``theta_at`` use the samples at hand.

    ``carry(psi, t0, t1)`` carries states psi[j] from the times t0[j] to
    t1[j]: exactly with the run's SpectralPropagator for a static run, by RK4
    from each time's own sample for a driven one.  ``states_at`` carries each
    time from its nearest earlier sample, and every state the evaluator gives
    comes from it.  ``theta_at`` gives theta and its rate at an array of
    times, for find_gate_time's scan rounds and one-time Newton steps alike.
    theta is the argument of c1 c4 conj(c2 c3) aligned to the nearest branch
    of the linearly interpolated sampled theta, which is safe because
    per-sample theta increments stay below MAX_THETA_STEP.  Its rate
    comes exactly from the same state: with i dpsi/dt = H(t) psi, where
    ``apply_h(t, psi)`` gives H(t) psi for each time and state,
    dtheta/dt = -Re[(H psi)_1 / c1 - (H psi)_2 / c2 - (H psi)_3 / c3 + (H psi)_4 / c4].
    ``scan_step``, 0.05 rad at the run's Hamiltonian scale, is the narrowest
    cell find_gate_time's scan for crossings between samples splits;
    ``unresolved`` bounds the part of theta the sample grid does not resolve,
    and ``m4`` bounds |theta''''| (infinite where there is no bound).
    """

    def __init__(self, config, trajectory, theta, scan_step, unresolved, m4, carry, apply_h, magnus):
        self.config = config
        self._samples = trajectory
        self._theta = theta
        self._magnus = magnus
        self.scan_step = scan_step
        self.unresolved = unresolved
        self.m4 = m4
        self.carry = carry
        self.apply_h = apply_h
        self.theta0 = float(composite_angle(trajectory.states[0]))
        # The latest evaluated times and their states; before any, the first sample.
        self._last = trajectory.times[:1], trajectory.states[:1]

    @property
    def trajectory(self) -> Trajectory:
        self._complete()
        return self._samples

    @property
    def theta(self) -> np.ndarray:
        self._complete()
        return self._theta

    def _complete(self):
        if self._magnus is not None:
            self._magnus.advance(self._magnus.total)
            self._theta = _unwrap_new_samples(self._magnus, self._theta)
            self._samples, self._magnus = self._magnus.trajectory, None

    def states_at(self, times) -> np.ndarray:
        """psi at each of ``times``, carried from its nearest earlier sample."""
        times = np.asarray(times, dtype=float)
        samples = self._samples.times
        i = np.maximum(samples.searchsorted(times, side="right") - 1, 0)
        return self.carry(self._samples.states[i], samples[i], times)

    def theta_at(self, times: np.ndarray):
        """(theta, dtheta/dt) at each of ``times``, a 1-D array.  The states
        are kept as ``_last`` for the caller that needs psi at the time found."""
        states = self.states_at(times)
        self._last = times, states
        return self._aligned(times, states), self._rate(times, states)

    def _aligned(self, t, states):
        raw = composite_angle(states) - self.theta0
        ref = np.interp(t, self._samples.times, self._theta)
        return raw + 2 * np.pi * np.rint((ref - raw) / (2 * np.pi))

    def _rate(self, t, states):
        ratio = self.apply_h(t, states) / states
        return -(ratio[..., 0] - ratio[..., 1] - ratio[..., 2] + ratio[..., 3]).real


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
    """Validate, propagate and unwrap; the returned evaluator holds the run.

    The static Hamiltonian is built and diagonalized once per run, and a
    driven run's drive is at ``config.resonances``.  A static run raises
    PhaseAliasing if MAX_SAMPLES samples cannot hold theta's per-sample step
    below MAX_THETA_STEP over the horizon, and is propagated to t_max.  A
    driven run takes ``magnus_steps`` Magnus steps per sample interval, set
    by the drive and the fitted error of the step rather than by the Zeeman
    precession: one or two on the benchmark's driven points.  Its pass
    stops just past the first sampled crossing (``_run_to_first_crossing``),
    which is all the gate needs; the evaluator completes it when its
    ``trajectory`` or ``theta`` is first read, so that a NormDrift,
    UndefinedPhase or PhaseAliasing after that sample is raised there.
    MAX_STEPS bounds the whole run, before any step.  Gate-time refinement
    scans in cells no narrower than ``scan_step``, MAX_PHASE_PER_STEP rad at
    the Hamiltonian scale, but around the crossing, and refines, both
    through the evaluator's ``theta_at``.  The mode also picks, once, the
    evaluator's ``carry`` from a sample to a later time, the static run's
    exact spectral evolution or for a driven run ``rk4_spans`` in steps of
    at most DEFAULT_STEP_SAFETY times ``scan_step``, and its ``apply_h``:
    one product with the static Hamiltonian for every time, or one H(t) per
    time of a driven batch.
    """
    cfg = validate(config)
    h0 = build_static(cfg)
    scale = hamiltonian_scale(cfg, h0)
    scan_step = MAX_PHASE_PER_STEP / scale
    spectral = SpectralPropagator(h0)
    if cfg.mode == "driven":
        unresolved, m4 = 0.0, math.inf
        times = sample_times(cfg.t_max, scale)
        magnus = MagnusPass(spectral, cfg, times, magnus_steps(cfg, scale, times))
        theta = _run_to_first_crossing(magnus)
        traj = magnus.trajectory
        hfun = time_dependent_hamiltonian(cfg, h0)
        step = DEFAULT_STEP_SAFETY * scan_step
        carry = lambda psi, t0, t1: rk4_spans(hfun, psi, t0, t1, step)  # noqa: E731
        apply_h = lambda t, psi: (hfun(t) @ psi[..., None])[..., 0]  # noqa: E731
    else:
        rate, unresolved, m4 = theta_rate(cfg, spectral)
        times = sample_times(cfg.t_max, rate)
        theta_step = rate * times[1]
        if math.isfinite(theta_step) and theta_step > MAX_THETA_STEP:
            raise PhaseAliasing(
                f"{len(times)} samples over t_max={cfg.t_max:.6e} s let theta step by up "
                f"to {theta_step:.4g} rad, above the unwrap bound {MAX_THETA_STEP:.3f} rad; "
                "shorten t_max"
            )
        traj = propagate_static(spectral, cfg.initial_state, times)
        theta, magnus = unwrap_phases(traj), None
        carry = lambda psi, t0, t1: spectral.evolve(psi, t1 - t0)  # noqa: E731
        # One product for all times, C-contiguous as in SpectralPropagator.
        h0_t = np.ascontiguousarray(h0.T)
        apply_h = lambda t, psi: psi @ h0_t  # noqa: E731
    return TrajectoryEvaluator(cfg, traj, theta, scan_step, unresolved, m4, carry, apply_h, magnus)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Full pipeline: propagate, find the pi-gate time, summarize the gate."""
    run = run_trajectory(config)
    traj = run._samples  # up to where a driven pass stopped
    tau = find_gate_time(traj.times, run._theta, run.theta_at, run.scan_step, run.unresolved, run.m4)
    t_last, psi_last = run._last  # the latest evaluated times and their states
    psi_tau = psi_last[-1] if t_last[-1] == tau else run.states_at([tau])[0]
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
    return SimulationResult(config=run.config, gate=gate, _run=run)
