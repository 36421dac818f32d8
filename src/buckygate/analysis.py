"""Gate-phase extraction, gate time, local corrections, and entanglement measures.

The composite gate phase is

    theta(t) = Arg c1(t) - Arg c2(t) - Arg c3(t) + Arg c4(t),

computed as the unwrapped argument of the gauge-invariant product
c1 c4 conj(c2 c3) and shifted so that theta(0) = 0.  The Zeeman terms on the
diagonal of H cancel exactly in that product, so it turns at the dipole rate
(about 4 g) instead of the Zeeman rate of the single arguments, and one
unwrapped series resolves it on any sample grid that resolves theta itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCrossing, OutOfRange, PhaseAliasing, UndefinedPhase, ZeroState
from .propagator import Trajectory

# Amplitudes below this leave Arg undefined.
AMP_FLOOR = 1e-12

# Largest per-sample step of the unwrapped theta that is trusted.  A grid that
# resolves theta steps by about 0.5 rad at most; a larger step means the grid
# is too coarse for the horizon (the sample count is capped), and beyond pi
# the unwrap would pick the wrong branch without any sign of it.
MAX_THETA_STEP = math.pi / 2

# Bisection-grid points of the first-crossing scan per call of its theta
# evaluator, at most.
SCAN_BATCH = 1 << 16


@dataclass(frozen=True)
class PhaseSeries:
    """The unwrapped composite phase theta at each sample, with theta[0] = 0."""

    times: np.ndarray
    theta: np.ndarray

    @property
    def max_step(self) -> float:
        """Largest per-sample |delta theta| (rad): the unwrap margin."""
        return float(np.max(np.abs(np.diff(self.theta)), initial=0.0))


@dataclass(frozen=True)
class GateResult:
    """Summary of one gate run."""

    tau: float
    theta_at_tau: float
    concurrence_at_tau: float
    eof_at_tau: float
    ops_budget: int
    correction_phases: tuple  # (s1_0, s1_1, s2_0, s2_1) in rad


def composite_angle(states) -> np.ndarray:
    """Arg(c1 c4 conj(c2 c3)) in [-pi, pi] for each state of a (..., 4) array."""
    c = np.asarray(states)
    return np.angle(c[..., 0] * c[..., 3] * np.conj(c[..., 1] * c[..., 2]))


def unwrap_phases(traj: Trajectory, amp_floor: float = AMP_FLOOR) -> PhaseSeries:
    """Continuous composite phase theta(t), unwrapped from the sampled states.

    Raises UndefinedPhase if any amplitude magnitude falls below
    ``amp_floor`` anywhere along the trajectory, and PhaseAliasing if a
    per-sample step of theta exceeds MAX_THETA_STEP.
    """
    amps = np.abs(traj.states)
    if np.min(amps) < amp_floor:
        i, j = np.unravel_index(np.argmin(amps), amps.shape)
        raise UndefinedPhase(
            f"|c{j + 1}| = {amps[i, j]:.3e} at t={traj.times[i]:.6e} s; "
            "Arg is undefined at vanishing amplitude"
        )
    # Each step of the argument taken to [-pi, pi], then summed from theta[0] = 0.
    steps = np.diff(composite_angle(traj.states))
    steps -= 2 * np.pi * np.rint(steps / (2 * np.pi))
    if np.max(np.abs(steps), initial=0.0) > MAX_THETA_STEP:
        k = int(np.argmax(np.abs(steps)))
        raise PhaseAliasing(
            f"theta steps by {abs(steps[k]):.3f} rad between the samples at "
            f"t={traj.times[k]:.6e} s and t={traj.times[k + 1]:.6e} s, above the "
            f"unwrap bound {MAX_THETA_STEP:.3f} rad; shorten t_max"
        )
    return PhaseSeries(times=traj.times, theta=np.concatenate([[0.0], np.cumsum(steps)]))


def find_gate_time(
    phases: PhaseSeries,
    target: float = -math.pi,
    theta_fn=None,
    time_tol: float = 1e-12,
    phase_tol: float = 1e-7,
    scan_fn=None,
    scan_step: float | None = None,
    unresolved: float = 0.0,
) -> float:
    """First time the unwrapped composite phase reaches +/-|target|.

    The nominal target is -pi; if the series reaches +|target| first that
    earlier crossing is returned instead.  Between the bracketing samples the
    crossing is refined by bisection on ``theta_fn`` (a continuous theta(t)
    evaluator, typically backed by re-propagation) until the bracket is below
    ``time_tol`` seconds and the phase residual below ``phase_tol`` rad;
    without an evaluator, linear interpolation of the sampled series is used.

    theta can reach the level and turn back between two samples, which the
    sampled series does not show.  Given ``scan_fn`` (theta at an array of
    times) and ``scan_step`` (s), the times before the first sampled crossing
    at which theta could reach the level are scanned at a spacing of at most
    ``scan_step``, and the first crossing found there is refined instead.
    Those are the times where the linear interpolation of the samples comes
    within ``2 * unresolved`` plus half the largest second difference of the
    samples of the level: ``unresolved`` (rad) bounds the part of theta the
    samples do not resolve, the second difference the interpolation error of
    the part they do.  The scan runs in time order in batches and stops at
    the first crossing, so its cost follows that window, not the horizon.
    The scanned points are midpoints the bisection itself would visit, so
    when the scan finds no earlier crossing the result does not change.

    Raises NoCrossing when the phase never reaches the target before the end
    of the series; the exception carries theta at the final sample.
    """
    level = abs(target)
    times, theta = phases.times, phases.theta
    hit = np.flatnonzero(np.abs(theta) >= level)
    if len(hit) == 0:
        raise NoCrossing(
            f"theta stayed in (-{level:.6f}, {level:.6f}) up to "
            f"t={times[-1]:.6e} s (theta_end={theta[-1]:.6f} rad)",
            theta_end=float(theta[-1]),
        )
    i = hit[0]
    if i == 0:
        return float(times[0])
    bracket = (times[i - 1], times[i], theta[i - 1], theta[i])
    if scan_fn is not None:
        margin = _scan_margin(theta, unresolved)
        scanned = _scan(times[: i + 1], theta[: i + 1], level, margin, scan_fn, scan_step)
        bracket = scanned or bracket
    t_lo, t_hi, th_lo, th_hi = bracket

    crossed = level if th_hi >= level else -level
    if theta_fn is None:
        return float(t_lo + (t_hi - t_lo) * (crossed - th_lo) / (th_hi - th_lo))

    f_lo = th_lo - crossed
    f_best = math.inf
    t_best = t_lo
    while t_hi - t_lo > time_tol or abs(f_best) > phase_tol:
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid == t_lo or t_mid == t_hi:  # float resolution reached
            break
        f_mid = theta_fn(t_mid) - crossed
        if abs(f_mid) < abs(f_best):
            f_best, t_best = f_mid, t_mid
        if (f_mid > 0) == (f_lo > 0):
            t_lo, f_lo = t_mid, f_mid
        else:
            t_hi = t_mid
    return float(t_best)


def _scan_margin(theta, unresolved):
    """Bound on |theta(t) - its linear interpolation between samples| (rad).

    ``unresolved`` bounds the part of theta the samples do not resolve; it
    enters twice, once at t and once in the samples.  The interpolation error
    of the resolved part is at most h^2 max|theta''| / 8, about an eighth of
    the largest second difference of the samples; the margin allows four
    times that.
    """
    return 2 * unresolved + 0.5 * np.max(np.abs(np.diff(theta, 2)), initial=0.0)


def _scan(times, theta, level, margin, scan_fn, scan_step):
    """Bracket (t_lo, t_hi, theta_lo, theta_hi) of the first crossing of
    |theta| = level on the scan grid, or None if the scan finds none.

    ``theta`` ends at the first sample beyond the level.  Each sample
    interval is scanned where its linear interpolation is within ``margin``
    of the level, on the points of the interval's bisection grid there and
    one more on either side.  The intervals are evaluated in time order, in
    batches of at most SCAN_BATCH grid points, until one holds a crossing.
    """
    floor = max(level - margin, 0.0)
    near = np.abs(theta) >= floor
    rows = np.flatnonzero(near[:-1] | near[1:])
    # In the direction s of its larger end, an interval's interpolation u
    # passes floor at the fraction x; it is scanned from there on toward
    # that end, or whole if u also falls to -floor.  x may lie outside
    # [0, 1]: the grid cells lie inside the interval anyway.
    a, b = theta[rows], theta[rows + 1]
    s = np.sign(a + b)
    ua, ub = s * a, s * b
    d = ub - ua
    x = (floor - ua) / np.where(d == 0, 1.0, d)
    whole = np.minimum(ua, ub) <= -floor
    lo = np.where((d > 0) & ~whole, x, 0.0)
    hi = np.where((d < 0) & ~whole, x, 1.0)
    # theta is past the level wherever the interpolation is past it by the
    # margin, so the last interval is scanned no further than that.
    hi[-1] = min(hi[-1], (level + margin - ua[-1]) / d[-1])

    t0, t1 = times[rows], times[rows + 1]
    span = t1 - t0
    start, stop = t0 + lo * span, t0 + hi * span
    depth = max(0, math.ceil(math.log2(np.max(span) / scan_step)))
    per_batch = max(1, SCAN_BATCH >> depth)
    prev = t0[0], a[0]
    for k in range(0, len(rows), per_batch):
        batch = slice(k, k + per_batch)
        points = _bisection_points(t0[batch], t1[batch], start[batch], stop[batch], depth)
        values = scan_fn(points)
        cross = np.flatnonzero(np.abs(values) >= level)
        if cross.size:
            j = cross[0]
            if j > 0:
                return points[j - 1], points[j], values[j - 1], values[j]
            return prev[0], points[0], prev[1], values[0]
        prev = points[-1], values[-1]
    return None


def _bisection_points(lo, hi, start, stop, depth):
    """Points of the bisection grid of each interval [lo, hi], halved
    ``depth`` times, in the cells that meet [start, stop], in time order.

    Midpoints are formed as 0.5 * (lo + hi), exactly as the bisection in
    find_gate_time forms them; cells away from [start, stop] are dropped at
    each level, so the work follows the points kept.
    """
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        lo, hi = _interleave(lo, mid), _interleave(mid, hi)
        start, stop = start.repeat(2), stop.repeat(2)
        keep = (hi >= start) & (lo <= stop)
        lo, hi, start, stop = lo[keep], hi[keep], start[keep], stop[keep]
    # A cell's upper edge is the next cell's lower edge unless cells were
    # dropped between them.
    edges = _interleave(lo, hi)
    return edges[np.concatenate([[True], edges[1:] > edges[:-1]])]


def _interleave(a, b):
    out = np.empty(2 * len(a))
    out[::2], out[1::2] = a, b
    return out


def correction_phases(phi00: float, phi01: float, phi10: float):
    """Local single-qubit phases (s1_0, s1_1, s2_0, s2_1) removing the
    single-particle parts of the evolution, leaving only the entangling phase
    on |11>."""
    s1_0 = -phi00 / 2
    s1_1 = -phi10 + phi00 / 2
    s2_0 = -phi00 / 2
    s2_1 = -phi01 + phi00 / 2
    return (s1_0, s1_1, s2_0, s2_1)


def concurrence(psi):
    """Normalized concurrence C = 2 |c2 c3 - c1 c4| / <psi|psi> in [0, 1].

    ``psi`` is one state (result: a float) or an (n, 4) array of states
    (result: an array of n values).
    """
    c = np.asarray(psi, dtype=complex)
    nrm2 = np.sum(np.abs(c) ** 2, axis=-1)
    if np.any(nrm2 < AMP_FLOOR**2):
        raise ZeroState("cannot compute concurrence of the zero state")
    # c2 c3 - c1 c4 and its modulus in real arithmetic: numpy's vectorized
    # complex multiply and abs round differently from its scalar ones, and
    # this form gives every state the same bits whether passed alone or in
    # an array.
    a, b = np.moveaxis(c.real, -1, 0), np.moveaxis(c.imag, -1, 0)
    re = (a[1] * a[2] - b[1] * b[2]) - (a[0] * a[3] - b[0] * b[3])
    im = (a[1] * b[2] + b[1] * a[2]) - (a[0] * b[3] + b[0] * a[3])
    value = 2 * np.hypot(re, im) / nrm2
    return float(value) if c.ndim == 1 else value


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if x <= 0 or x >= 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def entanglement_of_formation(c: float) -> float:
    """E(C) = h((1 + sqrt(1 - C^2)) / 2), monotone from 0 to 1 on [0, 1]."""
    if not -1e-12 <= c <= 1 + 1e-12:
        raise OutOfRange(f"concurrence must lie in [0, 1], got {c}")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1 + math.sqrt(1 - c * c)) / 2)


def ops_budget(tau: float, t2: float) -> int:
    """Number of gate operations fitting into the coherence time: floor(T2/tau)."""
    if tau <= 0:
        raise OutOfRange(f"gate time must be > 0, got {tau}")
    return int(math.floor(t2 / tau))
