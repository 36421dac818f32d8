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

from .errors import NoCrossing, OutOfRange, UndefinedPhase, ZeroState
from .propagator import Trajectory

# Amplitudes below this leave Arg undefined.
AMP_FLOOR = 1e-12


@dataclass(frozen=True)
class PhaseSeries:
    """The unwrapped composite phase theta at each sample, with theta[0] = 0."""

    times: np.ndarray
    theta: np.ndarray


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
    ``amp_floor`` anywhere along the trajectory.
    """
    amps = np.abs(traj.states)
    if np.min(amps) < amp_floor:
        i, j = np.unravel_index(np.argmin(amps), amps.shape)
        raise UndefinedPhase(
            f"|c{j + 1}| = {amps[i, j]:.3e} at t={traj.times[i]:.6e} s; "
            "Arg is undefined at vanishing amplitude"
        )
    theta = np.unwrap(composite_angle(traj.states))
    return PhaseSeries(times=traj.times, theta=theta - theta[0])


def find_gate_time(
    phases: PhaseSeries,
    target: float = -math.pi,
    theta_fn=None,
    time_tol: float = 1e-12,
    phase_tol: float = 1e-7,
    scan_fn=None,
    scan_step: float | None = None,
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
    times) and ``scan_step`` (s), the sample intervals from the first sample
    within twice the largest per-sample increment of the level up to the
    first sampled crossing are evaluated in one call at a spacing of at most
    ``scan_step``, and the first crossing found there is refined instead.
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
    t_lo, t_hi = times[i - 1], times[i]
    th_lo, th_hi = theta[i - 1], theta[i]

    if scan_fn is not None:
        margin = 2 * np.max(np.abs(np.diff(theta)))
        j = int(np.argmax(np.abs(theta) >= level - margin))
        grid = _bisection_grid(times[j : i + 1], scan_step)
        fine = scan_fn(grid)
        k = np.flatnonzero(np.abs(fine) >= level)
        if k.size and k[0] > 0:
            t_lo, t_hi = grid[k[0] - 1], grid[k[0]]
            th_lo, th_hi = fine[k[0] - 1], fine[k[0]]

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


def _bisection_grid(edges: np.ndarray, max_step: float) -> np.ndarray:
    """``edges`` with every interval halved until none exceeds ``max_step``.

    Midpoints are formed as 0.5 * (lo + hi), exactly as the bisection in
    find_gate_time forms them.
    """
    grid = edges
    while np.max(np.diff(grid)) > max_step:
        finer = np.empty(2 * len(grid) - 1)
        finer[::2] = grid
        finer[1::2] = 0.5 * (grid[:-1] + grid[1:])
        grid = finer
    return grid


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
