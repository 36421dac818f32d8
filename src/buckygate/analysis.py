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

# find_gate_time refines the crossing until its phase residual is at most
# PHASE_TOL rad, within one or two evaluations from the Hermite start.
PHASE_TOL = 1e-10

# Points of the first-crossing scan per call of its theta evaluator, at most.
SCAN_BATCH = 1 << 16

# Points of the first-crossing scan per solve, at most (about 0.5 s of
# evaluations).  Runs in the benchmark's ranges need a few thousand; equal
# fields of 1e9 T on both spins need over 1e10, at the Zeeman scale.
MAX_SCAN_POINTS = 10**6


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


def unwrap_phases(traj: Trajectory) -> np.ndarray:
    """The continuous composite phase theta at each of ``traj.times``,
    unwrapped from the sampled states, with theta[0] = 0.

    Raises UndefinedPhase if any amplitude magnitude falls below
    AMP_FLOOR anywhere along the trajectory, and PhaseAliasing if a
    per-sample step of theta exceeds MAX_THETA_STEP.
    """
    amps = np.abs(traj.states)
    if np.min(amps) < AMP_FLOOR:
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
    return np.concatenate([[0.0], np.cumsum(steps)])


def find_gate_time(times, theta, theta_fn, scan_step: float, unresolved: float) -> float:
    """First time the unwrapped composite phase reaches +/-pi, from its
    samples ``theta`` at the increasing ``times`` (``unwrap_phases``).

    The nominal target is -pi; if the series reaches +pi first that
    earlier crossing is returned instead.

    theta can reach the level and turn back between two samples, which the
    sampled series does not show.  So the times before the first sampled
    crossing at which theta could reach the level are scanned with
    ``theta_fn``, which maps an array of times to theta and its rate there
    (typically by re-propagation), at a spacing of at most ``scan_step`` (s).
    Those are the times where the linear interpolation of the samples comes
    within ``2 * unresolved`` plus half the largest second difference of the
    samples of the level: ``unresolved`` (rad) bounds the part of theta the
    samples do not resolve, the second difference the interpolation error of
    the part they do.  The scan runs in time order in batches and stops at
    the first crossing, so its cost follows that window, not the horizon.

    Inside the bracket of the first crossing found, the crossing is refined
    by Newton steps, each a call of ``theta_fn`` at one time, safeguarded to
    the bracket as in Press et al., Numerical Recipes, 3rd ed., sec. 9.4
    (rtsafe): a step that would leave the bracket, or go further than half
    the step before, is replaced by bisection.  Runs of Newton steps thus
    shrink geometrically and every bisection halves the bracket, so the
    refinement ends, at float resolution at the latest.  The first point is
    the root of the cubic Hermite interpolant on the bracket, or its secant
    root when the bracket comes from the samples, which carry no rate.  The
    refinement stops when the phase residual is at most PHASE_TOL rad, or
    when no next point lies strictly inside the bracket (float resolution);
    then the end of the bracket with the smaller residual is returned.

    Raises NoCrossing when the phase never reaches the target before the end
    of the series; its message gives theta at the final sample.
    """
    level = math.pi
    hit = np.flatnonzero(np.abs(theta) >= level)
    if len(hit) == 0:
        raise NoCrossing(
            f"theta stayed in (-{level:.6f}, {level:.6f}) up to "
            f"t={times[-1]:.6e} s (theta_end={theta[-1]:.6f} rad)"
        )
    i = hit[0]
    if i == 0:
        return float(times[0])
    margin = _scan_margin(theta, unresolved)
    scanned = _scan(times[: i + 1], theta[: i + 1], level, margin, theta_fn, scan_step)
    bracket = scanned or (times[i - 1], times[i], theta[i - 1], theta[i], math.nan, math.nan)
    t_lo, t_hi, th_lo, th_hi, rate_lo, rate_hi = map(float, bracket)

    crossed = level if th_hi >= level else -level
    f_lo, f_hi = th_lo - crossed, th_hi - crossed
    t = t_lo + (t_hi - t_lo) * _hermite_root(f_lo, f_hi, rate_lo * (t_hi - t_lo), rate_hi * (t_hi - t_lo))
    last = t_hi - t_lo  # the step before
    while min(abs(f_lo), abs(f_hi)) > PHASE_TOL and t_lo < t < t_hi:
        (theta_t,), (rate,) = theta_fn(np.array([t]))
        f, rate = float(theta_t) - crossed, float(rate)
        if (f > 0) == (f_lo > 0):
            t_lo, f_lo = t, f
        else:
            t_hi, f_hi = t, f
        # A zero or NaN rate fails the step bound, a huge one leaves t - step
        # at t, not strictly inside: both bisect.
        step = f / rate if abs(f) < abs(rate) * last / 2 else math.inf
        t_next = t - step if t_lo < t - step < t_hi else (t_lo + t_hi) / 2
        t, last = t_next, abs(t_next - t)
    return t_lo if abs(f_lo) < abs(f_hi) else t_hi


def _hermite_root(f0, f1, m0, m1):
    """Root in (0, 1) of the cubic with values f0, f1 and slopes m0, m1 at 0
    and 1, by three Newton steps from the secant root f0 / (f0 - f1); the
    secant root when that leaves (0, 1) or meets a zero or non-finite slope."""
    s = secant = f0 / (f0 - f1)
    c2 = 3 * (f1 - f0) - 2 * m0 - m1
    c3 = 2 * (f0 - f1) + m0 + m1
    for _ in range(3):
        slope = m0 + s * (2 * c2 + 3 * c3 * s)
        s -= (f0 + s * (m0 + s * (c2 + s * c3))) / slope if slope else math.nan
    return s if 0 < s < 1 else secant


def _scan_margin(theta, unresolved):
    """Bound on |theta(t) - its linear interpolation between samples| (rad).

    ``unresolved`` bounds the part of theta the samples do not resolve; it
    enters twice, once at t and once in the samples.  The interpolation error
    of the resolved part is at most h^2 max|theta''| / 8, about an eighth of
    the largest second difference of the samples; the margin allows four
    times that.
    """
    return 2 * unresolved + 0.5 * np.max(np.abs(np.diff(theta, 2)), initial=0.0)


def _scan(times, theta, level, margin, theta_fn, scan_step):
    """Bracket (t_lo, t_hi, theta_lo, theta_hi, rate_lo, rate_hi) of the
    first crossing of |theta| = level on the scan grid, or None if the scan
    finds none.  ``theta_fn`` gives theta and its rate at an array of times;
    a lower end at a sample has rate NaN.

    ``theta`` ends at the first sample beyond the level.  Each sample
    interval is scanned on the band where its linear interpolation is within
    ``margin`` of the level, at both ends of the band and at a uniform
    spacing of at most ``scan_step`` between them.  The bands are evaluated
    in time order, at most SCAN_BATCH points per call of ``theta_fn``, until
    one holds a crossing.  Raises OutOfRange if that takes more than
    MAX_SCAN_POINTS points.
    """
    floor = max(level - margin, 0.0)
    near = np.abs(theta) >= floor
    rows = np.flatnonzero(near[:-1] | near[1:])
    # In the direction s of its larger end, an interval's interpolation u
    # passes floor at the fraction x; it is scanned from there on toward
    # that end, or whole if u also falls to -floor.  x may lie outside
    # [0, 1], so the band is clipped to the interval.
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

    t0, span = times[rows], times[rows + 1] - times[rows]
    start = t0 + np.clip(lo, 0.0, 1.0) * span
    width = t0 + np.clip(hi, 0.0, 1.0) * span - start
    cells = np.maximum(np.ceil(width / scan_step), 1.0)
    first = np.concatenate([[0], np.cumsum(cells + 1)])  # per band
    if not first[-1] <= MAX_SCAN_POINTS:
        raise OutOfRange(
            f"the first-crossing scan needs {first[-1]:.3g} points at a {scan_step:.3e} s "
            f"spacing, above {MAX_SCAN_POINTS}"
        )
    first = first.astype(int)
    prev = t0[0], a[0], math.nan
    for k in range(0, first[-1], SCAN_BATCH):
        index = np.arange(k, min(k + SCAN_BATCH, first[-1]))
        band = np.searchsorted(first, index, side="right") - 1
        points = start[band] + width[band] * ((index - first[band]) / cells[band])
        # Adjacent bands can share the sample between them.
        points = points[np.concatenate([[True], points[1:] > points[:-1]])]
        values, rates = theta_fn(points)
        cross = np.flatnonzero(np.abs(values) >= level)
        if cross.size:
            j = cross[0]
            if j > 0:
                return points[j - 1], points[j], values[j - 1], values[j], rates[j - 1], rates[j]
            return prev[0], points[0], prev[1], values[0], prev[2], rates[0]
        prev = points[-1], values[-1], rates[-1]
    return None


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
    budget = t2 / tau
    if not math.isfinite(budget):
        raise OutOfRange(f"T2/tau = {t2}/{tau} is not a finite number of operations")
    return int(math.floor(budget))
