"""Gate-phase extraction, gate time, local corrections, and entanglement measures.

The composite gate phase is

    theta(t) = Arg c1(t) - Arg c2(t) - Arg c3(t) + Arg c4(t),

computed as the unwrapped argument of the gauge-invariant product
c1 c4 conj(c2 c3) and shifted so that theta(0) = 0.  The Zeeman terms on the
diagonal of H cancel exactly in that product, so it turns at the dipole rate
(about 4 g) instead of the Zeeman rate of the single arguments, and one
unwrapped series resolves it on any sample grid that resolves theta itself.

The gate time is theta's first crossing of +/-pi (``find_gate_time``).  A
static run with closed-form bounds hands the search theta on its branch at
any time and the window where theta can reach pi, found from theta's slow
part S alone (``static_window``), so that theta is evaluated only there; a
driven run, or a static one with no bounds, hands it samples of theta and
no bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
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

# How much further out than the fast part's bound a static window's ends lie:
# far above the rounding of S and theta, about 1e-15 rad, and far below
# PHASE_TOL, so that theta stays that near the level only briefly.
_SLACK = PHASE_TOL / 100

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


def static_window(blocks, bounds, t_end: float):
    """(start, width, m4) for ``find_gate_time``: the bands [start,
    start + width], in time order, where the theta of the static run of
    ``blocks`` with the finite ``bounds`` can reach +/-pi before it is past
    it at the end of the last, found from its slow part S alone in Python
    floats, and the bound m4 on |theta''''|.

    |theta - S| <= ``fast``, so theta can reach the level only where |S|
    reaches low = pi - fast - _SLACK, and is past it once |S| reaches
    high = pi + fast + _SLACK; band ends are found within _SLACK / 2
    (``_reach``).  |S' + s| <= q1 = ``slow_rate`` - |s|: where q1 < |s|, S
    is monotone, and its rate bounds bracket the one band; elsewhere the
    bands come from the monotone pieces of S's periods (``_piece_bands``).
    Raises OutOfRange where the window holds more than FINE_CELLS bands or
    spans more than MAX_SCAN_POINTS cells of the width ``fine``, across which
    theta can stay within _SLACK of the level, or where theta's fast part
    has turned by more than 2^48 rad, so that its rate is rounding, as
    fields of 1e12 T and more ask for.
    """
    slow, s, q1 = blocks.slow, abs(blocks.s), bounds.slow_rate - abs(blocks.s)
    low, high = math.pi - bounds.fast - _SLACK, math.pi + bounds.fast + _SLACK
    if q1 < s:
        sign, mean = -math.copysign(1.0, blocks.s), abs(blocks.drift)
        rise = low - sign * slow(0.0)[0]
        t0 = _reach(slow, sign, low, rise / (s + q1), rise / (s - q1), rise / mean)
        bands = [(t0, _reach(slow, sign, high, t0, t0 + (high - low + _SLACK) / (s - q1), t0 + (high - low) / mean))]
    else:  # none where S stays at -F(0)
        bands = list(islice(_piece_bands(blocks, low, high, t_end), FINE_CELLS + 1)) if bounds.slow_rate else []
    if len(bands) > FINE_CELLS:
        raise OutOfRange(f"the window of the first crossing holds over {FINE_CELLS} bands")
    start, width = [lo for lo, _ in bands], [hi - lo for lo, hi in bands]
    cells = sum(width) / _fine(bounds.m4)
    if cells > MAX_SCAN_POINTS:
        raise OutOfRange(f"the first-crossing scan needs {cells:.3g} points, above {MAX_SCAN_POINTS}")
    # The fast part's phase 2 rho_A t carries eps 2 rho_A t of rounding, and
    # theta's rate with it: past 2^48 rad, 1/16 rad.
    turn = 2 * blocks.rho[0] * (bands[-1][1] if bands else 0.0)
    if turn > 2.0**48:
        raise OutOfRange(f"theta's fast part turns by {turn:.3g} rad by the window's end, beyond float resolution")
    return start, width, bounds.m4


def _piece_bands(blocks, low, high, t_end):
    """The bands (from, to) where |S| >= low, in time order, up to the first
    time |S| reaches high, on the monotone pieces of S's periods
    (``blocks.beat``).  S moves by the period's shift from one period to the
    next, so one division gives the first period whose range reaches low,
    and one the first whose range reaches high; each period from the one to
    the other gives a band, and periods that start past ``t_end`` are not
    searched."""
    slow = blocks.slow
    period, shift, cuts = blocks.beat()
    values = [slow(t)[0] for t in cuts]
    top, bottom = max(values), min(values)

    def first(level):  # the first period whose range reaches |S| >= level
        gap = (level - top) / shift if shift > 0 else (-level - bottom) / shift if shift < 0 else math.inf
        return 0 if top >= level or bottom <= -level else math.ceil(gap) if gap < math.inf else math.inf

    k, last = first(low), min(first(high), t_end // period)
    while k <= last:
        for a, b, va, vb in zip(cuts, cuts[1:], values, values[1:]):
            # sign * S rises from ua to ub on [a, b].
            a, b, sign = a + k * period, b + k * period, 1.0 if vb >= va else -1.0
            ua, ub = sign * (va + k * shift), sign * (vb + k * shift)

            def time(level):  # a flat piece reaches its level at once
                return _reach(slow, sign, level, a, b, a + (b - a) * (level - ua) / (ub - ua) if ub > ua else a)

            if ua <= -low:
                yield a, b if ub <= -low else time(-low)
            if ub >= low:
                yield a if ua >= low else time(low), time(high) if ub >= high else b
                if ub >= high:
                    return
        k += 1


def _reach(slow, sign, level, a, b, t):
    """A time in [a, b] at which sign * S, increasing there, is within
    _SLACK / 2 of ``level``, S and S' as ``slow`` gives them: ``_newton``
    from t."""

    def f(t):
        value, rate = slow(t)
        return sign * value - level, sign * rate

    return _newton(f, a, b, -math.inf, math.inf, t if a < t < b else (a + b) / 2, _SLACK / 2)


def _newton(f, t_lo, t_hi, f_lo, f_hi, t, tol):
    """The end with the smaller |f| of the bracket [t_lo, t_hi], where f is
    f_lo and f_hi of opposite signs, by Newton steps on f(t) = (value, rate)
    from t, safeguarded to the bracket as in Press et al., Numerical
    Recipes, 3rd ed., sec. 9.4 (rtsafe): a step that would leave it, or go
    further than half the step before, bisects.  So the steps shrink, and
    stop once an end's |f| is at most ``tol``, or at float resolution."""
    last = t_hi - t_lo  # the step before
    while min(abs(f_lo), abs(f_hi)) > tol and t_lo < t < t_hi:
        value, rate = f(t)
        if (value > 0) == (f_lo > 0):
            t_lo, f_lo = t, value
        else:
            t_hi, f_hi = t, value
        # A zero or NaN rate fails the step bound, a huge one leaves t - step
        # at t, not strictly inside: both bisect.
        step = value / rate if abs(value) < abs(rate) * last / 2 else math.inf
        t_next = t - step if t_lo < t - step < t_hi else (t_lo + t_hi) / 2
        t, last = t_next, abs(t_next - t)
    return t_lo if abs(f_lo) < abs(f_hi) else t_hi


def find_gate_time(times, theta, theta_fn, scan_step: float, window=None) -> float:
    """First time the unwrapped composite phase reaches +/-pi, from its
    samples ``theta`` at the increasing ``times`` (``unwrap_phases``), or,
    with a ``window``, from theta on its branch at any time.

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

    With no ``window``, the samples are of theta and there is no bound: the
    window is where the linear interpolation of the samples comes within a
    margin of the level, half the largest second difference of the samples,
    an estimate, up to the first sample past the level, and its cells are
    ``scan_step`` wide (``_scan``).  Only the samples up to the one after
    that sample count, so the gate does not depend on the samples beyond
    it: a driven run may stop there (``engine.run_trajectory``).

    A ``window`` (start, width, m4), a bounded static run's
    (``static_window``), comes with theta on its branch at any time and no
    samples: ``times`` ends at the horizon, ``theta`` is not read, and a
    crossing past the horizon is none.  Its bands are cut into cells of the
    width ``fine`` at which the root of a crossing cell's cubic meets
    PHASE_TOL by the bound m4, or into FINE_CELLS wider ones, so that one
    call usually leaves a bracket ready for the refinement: Newton steps
    (``_newton``), each a call of ``theta_fn`` at one time, from the root of
    the bracket's cubic Hermite interpolant (its secant root from samples,
    which carry no rate) until the phase residual is at most PHASE_TOL rad.
    Raises NoCrossing when theta does not reach the target by the last of
    ``times``; its message gives theta there.
    """
    level = math.pi
    if window is None:
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
        start, width, m4 = window
        bracket = None
        if start and start[0] <= times[-1]:
            # theta(0) = 0: a fallback before the window, which its bounds make unused.
            bracket = _search(start, width, _fine(m4), level, theta_fn, scan_step, m4, (0.0, 0.0))
    if bracket is not None:
        t_lo, t_hi, th_lo, th_hi, rate_lo, rate_hi = map(float, bracket)
        crossed = level if th_hi >= level else -level
        f_lo, f_hi = th_lo - crossed, th_hi - crossed
        t = t_lo + (t_hi - t_lo) * _hermite_root(f_lo, f_hi, rate_lo * (t_hi - t_lo), rate_hi * (t_hi - t_lo))

        def residual(t):
            (theta_t,), (rate,) = theta_fn(np.array([t]))
            return float(theta_t) - crossed, float(rate)

        tau = _newton(residual, t_lo, t_hi, f_lo, f_hi, t, PHASE_TOL)
        if tau <= times[-1]:
            return tau
    (end,), _ = theta_fn(times[-1:])
    raise NoCrossing(_no_crossing(level, times[-1], end))


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
