"""Gate-phase extraction, gate time, local corrections, and entanglement measures.

The composite gate phase is

    theta(t) = Arg c1(t) - Arg c2(t) - Arg c3(t) + Arg c4(t),

computed as the unwrapped argument of the gauge-invariant product
c1 c4 conj(c2 c3) and shifted so that theta(0) = 0.  The Zeeman terms on the
diagonal of H cancel exactly in that product, so it turns at the dipole rate
(about 4 g) instead of the Zeeman rate of the single arguments, and one
unwrapped series resolves it on any sample grid that resolves theta itself.

The gate time is theta's first crossing of +/-pi (``find_gate_time``).  A
static run hands the search the samples of theta's slow part S and bounds
on the rest (``SlowPhase``), so that theta itself is evaluated only in the
window where S comes within the fast part's amplitude of pi; a driven run
hands it samples of theta and no bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
# PHASE_TOL rad, within one or two evaluations from the Hermite start (one
# where the search's bound lets it cut the bracket to width ``fine``).
PHASE_TOL = 1e-10

# Points of the first-crossing scan per call of its theta evaluator, at most.
SCAN_BATCH = 1 << 16

# Points of the first-crossing scan per solve, at most (about 0.5 s of
# evaluations), or, where a window is cut in stages, cells of the widest
# width whose bound can rule a crossing out.  Runs in the benchmark's ranges
# need a few hundred; a run searched with no bound at equal fields of 1e9 T
# on both spins would need over 1e10, at the Zeeman scale.
MAX_SCAN_POINTS = 10**6

# Cells that a static window, or a crossing cell of the search, is cut into
# at once, at most: cells of the width ``fine`` at which the root of a
# crossing cell's cubic meets PHASE_TOL (``_fine``), or wider ones where
# they would number more, whose near cells are cut again; and, about, the
# points of one round of those cuts.  On the benchmark's static inputs
# (seeds 1-3) a window spans 94 cells of width fine in the median on
# static-near and 67 on static-far, and more than 512 on 1 solve in 768 of
# each.  Each round is one more call of the theta evaluator, which costs
# about as much as 250 more points in one call (40 us against 0.16 us a
# point, 2-vCPU x86-64 host).
FINE_CELLS = 512


@dataclass(frozen=True)
class GateResult:
    """Summary of one gate run."""

    tau: float
    theta_at_tau: float
    concurrence_at_tau: float
    eof_at_tau: float
    ops_budget: int
    correction_phases: tuple  # (s1_0, s1_1, s2_0, s2_1) in rad


def composite_angle(c: np.ndarray) -> np.ndarray:
    """Arg(c1 c4 conj(c2 c3)) in [-pi, pi] for each state of a (..., 4) array."""
    return np.angle(c[..., 0] * c[..., 3] * (c[..., 1] * c[..., 2]).conj())


def unwrap_phases(traj: Trajectory, start: float = 0.0) -> np.ndarray:
    """The continuous composite phase theta at each of ``traj.times``,
    unwrapped from the sampled states, with theta[0] = ``start``.

    theta is summed in sample order, so that a run unwrapped piece by piece,
    each piece starting at the last sample of the one before with that
    sample's theta as ``start``, gives the series of the whole run, bit for
    bit.

    Raises UndefinedPhase if any amplitude magnitude falls below
    AMP_FLOOR anywhere along the trajectory, and PhaseAliasing if a
    per-sample step of theta exceeds MAX_THETA_STEP.
    """
    amps = np.abs(traj.states)
    if amps.min() < AMP_FLOOR:
        i, j = np.unravel_index(amps.argmin(), amps.shape)
        raise UndefinedPhase(
            f"|c{j + 1}| = {amps[i, j]:.3e} at t={traj.times[i]:.6e} s; "
            "Arg is undefined at vanishing amplitude"
        )
    return unwrap_angles(traj.times, composite_angle(traj.states), start)


def unwrap_angles(times, angles, start: float = 0.0) -> np.ndarray:
    """theta unwrapped from ``angles``, theta at each of ``times`` up to a
    multiple of 2 pi, with theta[0] = ``start``: each step taken to
    [-pi, pi], then summed from theta[0].  Raises PhaseAliasing if a step
    exceeds MAX_THETA_STEP."""
    steps = angles[1:] - angles[:-1]
    steps -= 2 * np.pi * np.rint(steps / (2 * np.pi))
    if np.abs(steps).max(initial=0.0) > MAX_THETA_STEP:
        k = int(np.abs(steps).argmax())
        raise PhaseAliasing(
            f"theta steps by {abs(steps[k]):.3f} rad between the samples at "
            f"t={times[k]:.6e} s and t={times[k + 1]:.6e} s, above the "
            f"unwrap bound {MAX_THETA_STEP:.3f} rad; shorten t_max"
        )
    return np.concatenate(([start], steps)).cumsum()


class SlowPhase(NamedTuple):
    """A static run's split theta = S + F (``propagator.BlockPropagator``),
    for ``find_gate_time``: ``rates`` are S' at the samples, which are of S;
    |S'| <= ``rate`` (rad/s), |F| <= ``fast`` (rad), |S''''| <= ``m4_slow``
    and |theta''''| <= ``m4`` (rad/s^4)."""

    rates: np.ndarray
    rate: float
    fast: float
    m4_slow: float
    m4: float


def find_gate_time(times, theta, theta_fn, scan_step: float, slow: SlowPhase | None = None) -> float:
    """First time the unwrapped composite phase reaches +/-pi, from its
    samples ``theta`` at the increasing ``times`` (``unwrap_phases``), or,
    with ``slow``, from the samples of its slow part S.

    The nominal target is -pi; if theta reaches +pi first that earlier
    crossing is returned instead.

    theta can reach the level and turn back between two samples, which the
    samples do not show.  So a window of times at which theta could reach
    the level before the first crossing the samples show is cut into cells,
    and ``theta_fn``, which maps an array of times to theta and its rate
    there (typically by re-propagation), evaluates all their ends in one
    call.  One array pass tests every cell through the cubic Hermite
    interpolant of theta and its rate at its ends, within its error bound
    h^4 m4 / 384 from a bound m4 on |theta''''| (infinite where there is
    none), and marks the cells that may hold a crossing.  Those before the
    first cell that theta is past the level at the end of are cut again,
    in rounds of one call each, so that a crossing shorter than a cell is
    found too; that cell is the bracket once they are ruled out
    (``_search``).  No cell is split below ``scan_step`` (s).

    With no ``slow``, the samples are of theta and there is no bound: the
    window is where the linear interpolation of the samples comes within a
    margin of the level, half the largest second difference of the samples,
    an estimate, up to the first sample past the level, and its cells are
    ``scan_step`` wide (``_scan``).  Only the samples up to the one after
    that sample count, so the gate does not depend on the samples beyond
    it: a driven run may stop there (``engine.run_trajectory``).

    With ``slow`` (a static run), theta = S + F with |F| <= ``slow.fast``
    and the samples and ``slow.rates`` are S and S': theta can reach the
    level only where S's cubic Hermite band, its interpolant within
    h^4 m4_slow / 384, comes within ``fast`` of it, and is past it where
    that band is past the level by ``fast`` (``_window``).  That window is
    cut into cells of the width ``fine`` at which the root of a crossing
    cell's cubic meets PHASE_TOL by the bound from ``slow.m4``, or into
    FINE_CELLS wider ones, so that the search's one call usually leaves a
    bracket ready for the refinement.

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

    Raises NoCrossing when theta never reaches the target before the end
    of the samples; its message gives theta at the final sample.
    """
    level = math.pi
    if slow is None:
        past = np.abs(theta) >= level
        i = int(past.argmax())
        if not past[i]:
            raise NoCrossing(_no_crossing(level, times[-1], theta[-1]))
        if i == 0:
            return float(times[0])
        # Four times an eighth of the largest second difference of the
        # samples up to the one after the first past the level.
        margin = 0.5 * float(np.abs(np.diff(theta[: i + 2], 2)).max(initial=0.0))
        start, width, before = _scan(times[: i + 1], theta[: i + 1], level, margin)
        scanned = _search(start, width, scan_step, level, theta_fn, scan_step, math.inf, before)
        bracket = scanned or (times[i - 1], times[i], theta[i - 1], theta[i], math.nan, math.nan)
    else:
        start, width = _window(times, theta, level, slow)
        bracket = None
        if start:
            # theta(0) = 0: a fallback before the window, which its bounds make unused.
            bracket = _search(start, width, _fine(slow.m4), level, theta_fn, scan_step, slow.m4, (times[0], 0.0))
        if bracket is None:
            (end,), _ = theta_fn(times[-1:])
            raise NoCrossing(_no_crossing(level, times[-1], end))
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


def _no_crossing(level, t_end, theta_end) -> str:
    return (
        f"theta stayed in (-{level:.6f}, {level:.6f}) up to "
        f"t={t_end:.6e} s (theta_end={theta_end:.6f} rad)"
    )


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


def _scan(times, theta, level, margin):
    """(start, width, before): the bands of the scan of samples with no
    bound, in time order, and (time, theta) at the first sample they touch.

    ``theta`` ends at the first sample beyond the level.  Each sample
    interval is scanned on the band where its linear interpolation is within
    ``margin`` of the level.  The few intervals near the level are taken in
    Python floats, by the operations an array pass over them would make.
    """
    floor = max(level - margin, 0.0)
    near = np.abs(theta) >= floor
    rows = (near[:-1] | near[1:]).nonzero()[0].tolist()  # few: the sample intervals near the level
    start, width = [], []
    for row in rows:
        (t0, t1), (a, b) = times[row : row + 2].tolist(), theta[row : row + 2].tolist()
        # In the direction s of its larger end, the interval's interpolation u
        # passes floor at the fraction x; it is scanned from there on toward
        # that end, or whole if u also falls to -floor.  x may lie outside
        # [0, 1], so the band is clipped to the interval.
        s = 1.0 if a + b > 0 else -1.0 if a + b < 0 else 0.0
        ua, ub = s * a, s * b
        d = ub - ua
        x = (floor - ua) / (d if d != 0 else 1.0)
        whole = min(ua, ub) <= -floor
        lo = x if d > 0 and not whole else 0.0
        hi = x if d < 0 and not whole else 1.0
        # theta is past the level wherever the interpolation is past it by the
        # margin, so the last interval, which ends past it, is scanned no further.
        if row == rows[-1]:
            hi = min(hi, (level + margin - ua) / d)
        start.append(t0 + min(max(lo, 0.0), 1.0) * (t1 - t0))
        width.append(t0 + min(max(hi, 0.0), 1.0) * (t1 - t0) - start[-1])
    return start, width, (times[rows[0]], theta[rows[0]])


def _window(times, theta, level, slow):
    """(start, width): the bands of a static run's window, in time order,
    from the samples ``theta`` of theta's slow part S at ``times``
    (``find_gate_time``).

    On a sample interval of width h, S lies within err = h^4 m4_slow / 384 of
    the cubic Hermite interpolant p of S and S' at its ends, and theta within
    ``fast`` of S.  So theta is below the level, in the direction of the
    interval's larger end, where p is below low = level - fast - err, and
    past it from a sample where |S| >= level + fast, or from the first time p
    reaches high = level + fast + err.  |S| exceeds the larger end of an
    interval by at most ``rate`` h / 2, so one array pass over the samples
    keeps the few intervals that may come within err of low; of those, the
    ones where p's Bezier points S0, S0 + h S0' / 3, S1 - h S1' / 3 and S1,
    whose hull holds p, reach low are searched in turn, up to the first
    sample past the level.  On each the band runs from the first time p
    reaches low to the first time it reaches high, where the window ends, or
    to the interval's end (``_hermite_reach``); a band that starts at the
    end of the one before extends it.
    """
    rates, rate, fast, m4_slow, _ = slow
    widest = float((times[1:] - times[:-1]).max(initial=0.0))
    err = widest * widest * widest * widest * m4_slow / 384
    low, high = level - fast - err, level + fast + err
    near = np.abs(theta) >= low - err - rate * widest / 2
    start, width, last = [], [], -2
    for row in (near[:-1] | near[1:]).nonzero()[0].tolist():
        a, b = theta[row : row + 2].tolist()
        if abs(a) >= level + fast:  # theta is past the level from there on
            break
        m0, m1 = rates[row : row + 2].tolist()
        t0, t1 = times[row : row + 2].tolist()
        span = t1 - t0
        s = 1.0 if a + b > 0 else -1.0
        f0, f1, m0, m1 = s * a, s * b, s * m0 * span, s * m1 * span
        top = max(f1, f0 + m0 / 3, f1 - m1 / 3)  # of p's hull, as f0 < high
        reach = _hermite_reach(f0, f1, m0, m1, low) if max(f0, top) >= low else None
        if reach is None:
            continue
        end = _hermite_reach(f0, f1, m0, m1, high) if top >= high else None
        stop = t0 + (1.0 if end is None else end[1]) * span
        if row == last + 1 and reach[0] == 0:  # the band before goes on
            width[-1] = stop - start[-1]
        else:
            start.append(t0 + reach[0] * span)
            width.append(stop - start[-1])
        if end is not None:  # theta is past the level there
            break
        last = row
    return start, width


def _hermite_reach(f0, f1, m0, m1, level):
    """(a, b) with p(a) < level <= p(b) and b - a at most 1e-9, around the
    first x in [0, 1] where the cubic p with values f0, f1 and slopes m0, m1
    at 0 and 1 reaches ``level``, or None if it stays below; (0, 0) if f0
    does not.  The critical points of p cut [0, 1] into pieces on which p is
    monotone; on the first whose end reaches the level, the crossing is
    bracketed by regula falsi with the Illinois step."""
    if f0 >= level:
        return 0.0, 0.0
    c2 = 3 * (f1 - f0) - 2 * m0 - m1
    c3 = 2 * (f0 - f1) + m0 + m1
    a, fa = 0.0, f0 - level
    for b in sorted(x for x in _critical_points(m0, c2, c3) if 0 < x < 1) + [1.0]:
        fb = f0 + b * (m0 + b * (c2 + b * c3)) - level
        if fb < 0:
            a, fa = b, fb
            continue
        side = 0
        for _ in range(100):  # a few in practice
            if b - a <= 1e-9:
                break
            x = (a * fb - b * fa) / (fb - fa)
            x = x if a < x < b else (a + b) / 2
            fx = f0 + x * (m0 + x * (c2 + x * c3)) - level
            if fx < 0:
                a, fa = x, fx
                fb = fb / 2 if side < 0 else fb
                side = -1
            else:
                b, fb = x, fx
                fa = fa / 2 if side > 0 else fa
                side = 1
        return a, b
    return None


def _fine(m4):
    """Width of the cells a crossing's cell is cut to: there the root of
    the cubic Hermite interpolant meets PHASE_TOL by the bound h^4 m4 / 384."""
    return (96 * PHASE_TOL / m4) ** 0.25 if 0 < m4 < math.inf else math.inf


def _search(start, width, step, level, theta_fn, scan_step, m4, before):
    """Bracket (t_lo, t_hi, theta_lo, theta_hi, rate_lo, rate_hi) of the
    first crossing of |theta| = level on the bands [start, start + width],
    in time order, each cut into cells of equal width, ``step`` or one
    narrower, or None.  A lower end at a sample has rate NaN.  With a bound
    (m4 finite), bands that would hold more than FINE_CELLS such cells are
    cut into that many wider ones, whose near cells are cut again
    (``_first_crossing``).

    The cell ends of all bands are laid out once, less each end the next
    does not follow (the earlier copy of a time two bands share), and
    evaluated in time order, at most SCAN_BATCH points per call of
    ``theta_fn``; the cells of each batch are searched (``_first_crossing``)
    before the next batch is evaluated.  A cell between two bands is not
    searched.  If theta is past the level at the first end, the bracket
    reaches back to ``before``, (time, theta) before it.  Raises OutOfRange,
    before any evaluation, if the ends laid out, or the cells of a staged
    window at the widest width whose bound rules a crossing out, would
    number more than MAX_SCAN_POINTS.
    """
    cells = [max(math.ceil(w / step), 1) for w in width]
    total = sum(cells) + len(cells)
    if total > FINE_CELLS and math.isfinite(m4):  # cut in stages (_first_crossing)
        cells = [max(math.ceil(w * FINE_CELLS / sum(width)), 1) for w in width]
        # The bound dismisses no cell wider than (384 level / m4)^(1/4).
        total = sum(width) / (384 * level / m4) ** 0.25
    if not total <= MAX_SCAN_POINTS:
        raise OutOfRange(f"the first-crossing scan needs {total:.3g} points, above {MAX_SCAN_POINTS}")
    widest = max(w / n for w, n in zip(width, cells))
    # Each band's cell ends, start + width (k / n) for k = 0 .. n; a band's
    # cell starts at each but its last.
    if len(cells) == 1:  # the usual static window: 3 numpy calls, not 10 (8 us of a static-near search's 41)
        points, inner = start[0] + width[0] * (np.arange(cells[0] + 1.0) / cells[0]), np.ones(cells[0] + 1, bool)
    else:
        steps = np.arange(max(cells) + 1.0)
        points = np.concatenate([b + w * (steps[: n + 1] / n) for b, w, n in zip(start, width, cells)])
        inner = np.concatenate([steps[: n + 1] < n for n in cells])
        # Adjacent bands can share a time; the later copy starts the next cell.
        keep = np.concatenate((points[1:] > points[:-1], [True]))
        points, inner = points[keep], inner[keep]
    # Batches overlap by one point, so that every cell lies in one of them.
    for k in range(0, len(points), SCAN_BATCH):
        first = max(k - 1, 0)
        batch = points[first : k + SCAN_BATCH]
        values, rates = theta_fn(batch)
        if abs(values[0]) >= level:  # the window did not hold
            return before[0], batch[0], before[1], values[0], math.nan, rates[0]
        bracket = _first_crossing(batch, values, rates, inner[first : first + len(batch) - 1], widest, level, theta_fn, scan_step, m4)
        if bracket is not None:
            return bracket
    return None


def _first_crossing(t, v, r, open_, widest, level, theta_fn, scan_step, m4):
    """Bracket (t0, t1, theta0, theta1, rate0, rate1) of the first crossing
    of |theta| = level on the cells between the increasing times ``t``,
    where theta is ``v`` and its rate ``r``, or None if there is none.
    ``open_`` is False for a cell between two bands, where the window rules
    a crossing out unless theta is past the level at its end; the others
    are at most ``widest`` wide.

    On a cell of width h the cubic Hermite interpolant p of theta and its
    rate at the ends lies in the hull of its Bezier points theta0,
    theta0 + h rate0 / 3, theta1 - h rate1 / 3 and theta1, so |p| is at most
    |theta| + |rate| h / 3 at one of the ends, and theta lies within
    h^4 m4 / 384 of p.  One array pass marks the cells where, at
    h = widest, either may reach the level.  In time order up to the first
    cell past the level at its end, the open ones get nodes, about
    FINE_CELLS at most, all evaluated in one call: that last cell, if at
    least 2 ``fine`` wide (``_fine``), is cut into cells of width fine,
    FINE_CELLS at most; any other gets its node from ``_cell_node`` or is
    dismissed.  A node that does not split its cell dismisses it unless
    theta is past the level there, where it closes the cell's bracket.  The
    pass is made again on the cells so cut until no node is left: then the
    first cell past the level at its end is the bracket.
    """
    fine = _fine(m4)
    while True:  # for the cells given, and again after each round of nodes
        # Products, not a power: beyond the floats reads inf.
        err = widest * widest * widest * widest * m4 / 384 if math.isfinite(m4) else 0.0
        size = np.abs(v)
        # A NaN rate bounds nothing: its cells stay near.
        reach = ~(size + np.abs(r) * (widest / 3) < level - err)
        near = reach[:-1] | reach[1:]
        nodes, shut, bracket = [], [], None  # nodes as (time, split, cell)
        for i in near.nonzero()[0].tolist():
            if len(nodes) >= FINE_CELLS:  # the later cells wait for a round of their own
                break
            (t0, t1), (v0, v1), (r0, r1) = t[i : i + 2].tolist(), v[i : i + 2].tolist(), r[i : i + 2].tolist()
            crossing, inside = abs(v1) >= level, bool(open_[i])
            if crossing and inside and t1 - t0 >= 2 * fine:
                m = min(math.floor((t1 - t0) / fine), FINE_CELLS)
                nodes += [(x, True, i) for x in (t0 + (t1 - t0) * (np.arange(1.0, m) / m)).tolist()]
                break
            node = _cell_node(t0, t1, v0, v1, r0, r1, crossing, level, scan_step, m4) if inside else None
            if node is not None:
                nodes.append((*node, i))
            elif inside and not crossing:
                shut.append(i)
            if crossing:  # the bracket unless its node splits it; the cells after it do not count
                bracket = t0, t1, v0, v1, r0, r1
                break
        if not nodes:
            return bracket
        x, split, cells = map(np.array, zip(*nodes))
        vx, rx = theta_fn(x)
        # A node that does not split its cell tests p's extreme there.
        keep = split | (np.abs(vx) >= level)
        open_ = open_.copy()
        open_[shut + cells[~keep].tolist()] = False
        at = cells[keep] + 1
        t, v, r = np.insert(t, at, x[keep]), np.insert(v, at, vx[keep]), np.insert(r, at, rx[keep])
        open_ = np.insert(open_, at, True)
        widest = float((t[1:] - t[:-1])[open_].max(initial=0.0))


def _cell_node(t0, t1, v0, v1, r0, r1, crossing, level, scan_step, m4):
    """(time, split): where ``_first_crossing`` evaluates theta on one open
    cell, and whether that splits it; None if the cell needs none.
    ``crossing`` tells whether theta is past the level at its end.

    On a cell of width h theta lies within h^4 m4 / 384 of the cubic
    Hermite interpolant p of its end values and rates.  A cell below the
    level at its end is dismissed when p's extreme toward the level plus
    that bound stays below the level; otherwise its node is the extreme, or
    the cell's middle if the extreme is an end or only the bound takes it
    to the level.  A cell past the level at its end is the bracket unless p
    peaks inside it, where its node is.  No cell is split below
    ``scan_step``: there, and everywhere when m4 is infinite, the extreme
    is a node only where p itself reaches the level.
    """
    h = t1 - t0
    split = h >= 2 * scan_step
    if crossing and not split:
        return None
    err = h * h * h * h * m4 / 384 if split and math.isfinite(m4) else 0.0
    s = 1.0 if v0 + v1 > 0 else -1.0
    x, top = _hermite_peak(s * v0, s * v1, s * r0 * h, s * r1 * h)
    interior = 0 < x < 1
    if not (interior and split if crossing else (split or interior) and top + err >= level):
        return None
    if not interior or top < level:
        x = 0.5
    if split:
        x = min(max(x, scan_step / h), 1 - scan_step / h)
    return t0 + x * h, split


def _hermite_peak(f0, f1, m0, m1):
    """(x, p(x)) at the largest value on [0, 1] of the cubic p with values f0,
    f1 and slopes m0, m1 at 0 and 1; the larger end where the slopes are not
    finite."""
    x, top = (1.0, f1) if f1 > f0 else (0.0, f0)
    c2 = 3 * (f1 - f0) - 2 * m0 - m1
    c3 = 2 * (f0 - f1) + m0 + m1
    for root in _critical_points(m0, c2, c3):
        if 0 < root < 1:
            value = f0 + root * (m0 + root * (c2 + root * c3))
            if value > top:
                x, top = root, value
    return x, top


def _critical_points(m0, c2, c3):
    """The roots of p' = m0 + 2 c2 x + 3 c3 x^2 of a cubic
    p = f0 + m0 x + c2 x^2 + c3 x^3, in the form that keeps its digits, NaN
    for one that does not exist; none where they are not real and finite."""
    disc = c2 * c2 - 3 * c3 * m0
    if not (math.isfinite(disc) and disc >= 0):
        return ()
    q = -(c2 + math.copysign(math.sqrt(disc), c2))
    return q / (3 * c3) if c3 else math.nan, m0 / q if q else math.nan


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
    nrm2 = (np.abs(c) ** 2).sum(axis=-1)
    if (nrm2 < AMP_FLOOR**2).any():
        raise ZeroState("cannot compute concurrence of the zero state")
    # c2 c3 - c1 c4 and its modulus in real arithmetic: numpy's vectorized
    # complex multiply and abs round differently from its scalar ones, and
    # this form gives every state the same bits whether passed alone or in
    # an array.  a[k] and b[k] are the real and imaginary parts of c_(k+1).
    a, b = c.real.T, c.imag.T
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
