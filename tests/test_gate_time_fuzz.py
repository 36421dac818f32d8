"""Property test of the gate time over generated static runs.

For static configs drawn over r 0.8-12 nm, with unequal fields, exchange
coupling J0, and product or entangled initial states, the gate time is the
first crossing of the exact composite phase: no earlier |theta| reaches pi,
and |theta(tau) +/- pi| is within PHASE_TOL plus the rounding of the exact
phase.  The exact phase comes from the eigen-evolution on a grid of 8 points
per period of the largest eigenvalue gap, the fastest frequency in theta.
Draws whose run raises (no crossing within t_max, an aliased or undefined
phase) are rejected: other tests cover those errors.
"""

import math
import tempfile

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from buckygate.analysis import PHASE_TOL
from buckygate.config import SimulationConfig
from buckygate.engine import run_simulation
from buckygate.errors import NoCrossing, OutOfRange, PhaseAliasing, UndefinedPhase
from buckygate.hamiltonian import build_static, dipole_coupling

# Hypothesis keeps its storage directory out of the working tree.
HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)

# Exact-phase points per evaluation, to bound memory at 12 nm (about 1e6).
CHUNK = 1 << 17


def exact_theta(config, times):
    """The unwrapped composite phase at the increasing ``times`` from the
    exact eigen-evolution, with theta(times[0]) = 0; evaluated in chunks."""
    eigenvalues, v = np.linalg.eigh(build_static(config))
    coef = v.conj().T @ config.initial_state
    pieces, last = [], None
    for k in range(0, len(times), CHUNK):
        c = (np.exp(-1j * np.outer(times[k : k + CHUNK], eigenvalues)) * coef) @ v.T
        angle = np.angle(c[:, 0] * c[:, 3] * np.conj(c[:, 1] * c[:, 2]))
        if last is None:
            theta = np.unwrap(angle)
        else:
            theta = np.unwrap(np.concatenate([[last[0]], angle]))[1:] - last[0] + last[1]
        pieces.append(theta)
        last = angle[-1], theta[-1]
    theta = np.concatenate(pieces)
    return theta - theta[0]


@st.composite
def static_configs(draw):
    r = math.exp(draw(st.floats(math.log(0.8e-9), math.log(12e-9))))
    g = dipole_coupling(r)
    j0 = g * draw(st.floats(-0.5, 0.5))
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):  # a product state
        q1, q2 = (np.array(draw(st.tuples(unit, unit, unit, unit))) for _ in range(2))
        state = np.kron(q1[:2] + 1j * q1[2:], q2[:2] + 1j * q2[2:])
    else:
        x = np.array(draw(st.tuples(*[unit] * 8)))
        state = x[:4] + 1j * x[4:]
    assume(np.linalg.norm(state) > 0.1)
    return SimulationConfig(
        r=r,
        Bz1=draw(st.floats(0.02, 0.2)),
        Bz2=draw(st.floats(0.02, 0.2)),
        Bg1=draw(st.floats(-2e-4, 2e-4)),
        Bg2=draw(st.floats(-2e-4, 2e-4)),
        J0=j0,
        # theta turns at about 4 (g + J0) on average.
        t_max=3 * math.pi / (4 * abs(g + j0)),
        initial_state=state,
    )


def check_first_crossing(config):
    """tau of ``config`` is the first crossing of the exact theta, to
    PHASE_TOL plus rounding; draws whose run raises are rejected."""
    try:
        result = run_simulation(config)
    except (NoCrossing, OutOfRange, PhaseAliasing, UndefinedPhase):
        assume(False)
    tau = result.gate.tau
    eigenvalues = np.linalg.eigvalsh(build_static(result.config))
    spacing = 2 * np.pi / np.ptp(eigenvalues) / 8
    theta = exact_theta(result.config, np.append(np.arange(0.0, tau, spacing), tau))
    assert np.max(np.abs(theta[:-1])) < np.pi
    # The exact phase at tau rounds by about eps |lambda| tau.
    slack = 1e-9 + 64 * np.finfo(float).eps * np.max(np.abs(eigenvalues)) * tau
    assert abs(abs(theta[-1]) - np.pi) <= PHASE_TOL + slack


def exact_slopes(config, t):
    """(theta', theta'') at the time ``t`` from the exact eigen-evolution:
    theta = Im sum_j +/- log c_j, (log c)' = c'/c and (log c)'' = c''/c - (c'/c)^2."""
    eigenvalues, v = np.linalg.eigh(build_static(config))
    terms = np.exp(-1j * eigenvalues * t) * (v.conj().T @ config.initial_state)
    c0, c1, c2 = (v @ (terms * (-1j * eigenvalues) ** n) for n in range(3))
    d1 = c1 / c0
    signs = np.array([1, -1, -1, 1])
    return float(d1.imag @ signs), float((c2 / c0 - d1 * d1).imag @ signs)


def shortfall(config, t, side):
    """How far theta(t) falls short of side * pi, for theta within pi of it:
    theta(t) + pi = Arg(-z(t) / z(0)) up to 2 pi, z = c1 c4 conj(c2 c3)."""
    eigenvalues, v = np.linalg.eigh(build_static(config))
    coef = v.conj().T @ config.initial_state
    c, c0 = v @ (np.exp(-1j * eigenvalues * t) * coef), v @ coef
    z, z0 = (x[0] * x[3] * np.conj(x[1] * x[2]) for x in (c, c0))
    return -side * float(np.angle(-z / z0))


def extreme_near(config, t):
    """The time of the local extreme of the exact theta nearest t, by Newton
    steps on theta' = 0."""
    for _ in range(8):
        rate, curvature = exact_slopes(config, t)
        t -= rate / curvature
    return t


def tune_extreme(config, miss):
    """``config`` with J0 tuned so that the largest local maximum of the
    exact |theta| before its first crossing of pi falls short of pi by
    ``miss`` rad (past it where ``miss`` is negative), and the time of that
    extreme.

    The extreme is found on the exact theta at 8 points per period of the
    largest eigenvalue gap and refined by Newton steps on theta' = 0; J0 is
    tuned by secant steps on the extreme's shortfall, each from the extreme
    of the J0 before.  A draw whose extreme does not reach ``miss`` is
    rejected.  Returns (tuned config, time of the extreme, grid spacing).
    """
    spacing = 2 * np.pi / np.ptp(np.linalg.eigvalsh(build_static(config))) / 8
    times = np.arange(0.0, config.t_max, spacing)
    size = np.abs(exact_theta(config, times))
    n = int(np.argmax(size >= np.pi))
    assume(n > 1)
    peaks = np.flatnonzero((size[1 : n - 1] >= size[: n - 2]) & (size[1 : n - 1] >= size[2:n])) + 1
    assume(peaks.size > 0)
    k = int(peaks[np.argmax(size[peaks])])
    side = 1.0 if exact_theta(config, times[: k + 1])[-1] > 0 else -1.0
    t = extreme_near(config, times[k])
    j0, off = config.J0, shortfall(config, t, side) - miss
    step = 1e-9 * dipole_coupling(config.r)
    for _ in range(30):
        if abs(off) <= 1e-3 * abs(miss):
            break
        t_next = extreme_near(config.replace(J0=j0 + step), t)
        slope = (shortfall(config.replace(J0=j0 + step), t_next, side) - miss - off) / step
        assume(slope != 0)
        j0 -= off / slope
        t = extreme_near(config.replace(J0=j0), t)
        off = shortfall(config.replace(J0=j0), t, side) - miss
    tuned = config.replace(J0=j0)
    assume(abs(off) <= 1e-3 * abs(miss) and 0 < t < tuned.t_max)
    return tuned, t, spacing


@st.composite
def grazing_configs(draw):
    """A ``static_configs`` draw whose largest local maximum of the exact
    |theta| before its first crossing of pi falls short of pi by a depth
    drawn log-uniformly from 1e-6 to 1e-4 rad (``tune_extreme``).  A draw
    whose tuned theta reaches pi before the extreme is rejected.
    """
    config = draw(static_configs())
    # A vanishing amplitude leaves theta undefined (UndefinedPhase).
    assume(np.abs(config.initial_state).min() > 1e-2 * np.linalg.norm(config.initial_state))
    depth = 10 ** draw(st.floats(-6.0, -4.0))
    tuned, t, spacing = tune_extreme(config, depth)
    before = exact_theta(tuned, np.append(np.arange(0.0, t, spacing), t))
    assume(np.max(np.abs(before)) < np.pi and abs(abs(before[-1]) - (np.pi - depth)) <= 1e-2 * depth)
    return tuned


@st.composite
def excursion_configs(draw):
    """A ``static_configs`` draw whose largest local maximum of the exact
    |theta| before its first crossing of pi is tuned past pi by a height
    drawn log-uniformly from 1e-6 to 1e-4 rad (``tune_extreme``): theta
    reaches pi there and turns back within 2 sqrt(2 height / |theta''|).
    A draw is rejected whose tuned theta reaches pi before that excursion.
    A static gate with bounds samples nothing, so only the search in its
    window can find the crossing.  The 25 draws' excursions last 0.9 to 29
    of the search's narrowest cells, of width ``analysis._fine``, and 0.3 to
    41 of the run's ``scan_step``.
    """
    config = draw(static_configs())
    # A vanishing amplitude leaves theta undefined (UndefinedPhase).
    assume(np.abs(config.initial_state).min() > 1e-2 * np.linalg.norm(config.initial_state))
    height = 10 ** draw(st.floats(-6.0, -4.0))
    tuned, t, spacing = tune_extreme(config, -height)
    _, curvature = exact_slopes(tuned, t)
    width = 2 * math.sqrt(2 * height / abs(curvature))
    before = exact_theta(tuned, np.append(np.arange(0.0, t - width, spacing), t - width))
    assume(np.max(np.abs(before)) < np.pi)
    return tuned


# Fixed examples and no example database keep the test deterministic.
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(config=static_configs())
def test_gate_time_is_the_first_exact_crossing(config):
    check_first_crossing(config)


# The draws above rarely hold an extreme of theta just short of pi before
# the first crossing; these are tuned to hold one.
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(config=grazing_configs())
def test_gate_time_is_the_first_exact_crossing_past_a_grazing_extreme(config):
    check_first_crossing(config)


# An extreme of theta past pi that turns back between two gate samples is
# the first crossing; these draws are tuned to hold one.
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(config=excursion_configs())
def test_gate_time_is_the_first_exact_crossing_in_a_short_excursion(config):
    check_first_crossing(config)
