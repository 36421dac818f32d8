"""The accuracy contract of tau and of the static output, checked at 40
digits.

The engine promises |theta(tau) +/- pi| <= analysis.PHASE_TOL.  The engine,
tier-1's exact theta and the benchmark's oracle all evaluate theta in
float64, so they share its rounding.  Here theta(tau) is evaluated with
mpmath at 40 digits from the same float64 matrix ``build_static`` gives, the
same validated initial state and the same tau: the residual of tau is the
distance from -pi (or +pi) of the exact theta of the run's float64
Hamiltonian.  The output trajectory's states and theta are checked the same
way at its own times.  Parameters such as g +/- m1 would differ by their own
rounding, about 3e-11 rad of theta at 12 nm, so they are not recomputed.
"""

import math

import mpmath
import numpy as np
import pytest

from buckygate.analysis import PHASE_TOL
from buckygate.config import SimulationConfig, validate
from buckygate.engine import run_simulation, run_trajectory
from buckygate.hamiltonian import build_static
from buckygate.propagator import BlockPropagator
from test_engine import GRAZING_IDS, GRAZING_INPUTS, TAU_12NM, reference_config

DIGITS = 40

# Allowance for the 40-digit evaluation itself.  Its phases lambda t reach
# about 3e5 rad on these inputs, so each carries about 1e-34 rad of
# rounding; the eigenvalues and theta carry as little.
EVALUATION_SLACK = 1e-20


def exact_amplitudes(config):
    """The amplitudes c(t) of the static run of ``config`` as a function of
    time, exact for its float64 Hamiltonian; call both within
    mpmath.workdps(DIGITS)."""
    cfg = validate(config)
    h = build_static(cfg)
    assert not h.imag.any()  # real symmetric: the J0 term is real too
    lam, v = mpmath.eigsy(mpmath.matrix(h.real.tolist()))
    psi0 = [mpmath.mpc(complex(c)) for c in cfg.initial_state]
    coef = [mpmath.fsum(v[k, j] * psi0[k] for k in range(4)) for j in range(4)]

    def amplitudes(t):
        terms = [coef[j] * mpmath.expj(-lam[j] * mpmath.mpf(t)) for j in range(4)]
        return [mpmath.fsum(v[k, j] * terms[j] for j in range(4)) for k in range(4)]

    return amplitudes


def angle(c):
    """Arg(c1 c4 conj(c2 c3)) of four mpmath amplitudes."""
    return mpmath.arg(c[0] * c[3] * mpmath.conj(c[1] * c[2]))


def distance_mod_2pi(d) -> float:
    """|d| taken to [-pi, pi] up to a multiple of 2 pi."""
    return float(abs(d - 2 * mpmath.pi * mpmath.nint(d / (2 * mpmath.pi))))


def exact_residual(config, tau: float) -> float:
    """|theta(tau) +/- pi| at DIGITS digits for the static run of ``config``."""
    with mpmath.workdps(DIGITS):
        amplitudes = exact_amplitudes(config)
        # theta is within PHASE_TOL of -pi or pi, so theta + pi taken to
        # [-pi, pi] is its distance from it.
        return distance_mod_2pi(angle(amplitudes(tau)) - angle(amplitudes(0)) + mpmath.pi)


def workload_config(fields):
    """A SimulationConfig from the benchmark's ``workloads.config_fields``."""
    state = np.array([complex(re, im) for re, im in fields["initial_state"]])
    return SimulationConfig(**{**fields, "initial_state": state})


# static-far seed 1 input 24 and seed 3 input 66: of the 36 largest-r
# static-far inputs of seeds 1-3 (11.2-12 nm), the two whose exact residual
# exceeded PHASE_TOL, by 2.13e-10 and 1.12e-10 rad, while theta was taken
# from the 4x4 evolution: at tau of about 15 us it carries Zeeman phases of
# about 2.6e5 rad, whose float64 rounding entered theta.  The closed form
# of the two 2x2 blocks keeps those phases out of theta.
FOUND_INPUTS = {
    "far-seed1-24": {
        "r": 1.1853419615858346e-08,
        "Bz1": 0.1226553863920664,
        "Bz2": 0.1226553863920664,
        "Bg1": 0.0001098004404242,
        "Bg2": -0.0001098004404242,
        "t_max": 2.6810493369475674e-05,
        "initial_state": [
            [-0.352716611298593, 0.09185642463041216],
            [-0.2505518397130915, -0.4109239039148829],
            [-0.2505518397130915, -0.4109239039148829],
            [0.4240350909615107, -0.47336906596955936],
        ],
    },
    "far-seed3-66": {
        "r": 1.1514482198632599e-08,
        "Bz1": 0.06967321557499702,
        "Bz2": 0.06967321557499702,
        "Bg1": 8.680858361745578e-05,
        "Bg2": -8.680858361745578e-05,
        "t_max": 2.4575766241446636e-05,
        "initial_state": [
            [0.2650019617049875, 0.7434147333921837],
            [0.33097973589659807, -0.23831841798065098],
            [0.33097973589659807, -0.23831841798065095],
            [-0.16583885847006252, -0.13007482324923292],
        ],
    },
}


# Inputs whose window comes from the monotone pieces of S's periods
# (``analysis._piece_bands``), as the bounds do not prove S monotone:
# static-near seed 1 input 157, where q1_B = 2.23 |s|; and the reference
# point with J0 = -g/2, where 2 rho_B > |s|, and (c2, c3) along block B's
# second eigenvector, so that P_B = K_B = 0 and the quartic of
# ``BlockPropagator.beat`` has a leading coefficient of 0.
PIECEWISE_INPUTS = {
    "near-seed1-157": {
        "r": 1.4555249404582116e-09,
        "Bz1": 0.14753535555246203,
        "Bz2": 0.14753535555246203,
        "Bg1": 0.00011971516091078243,
        "Bg2": -0.00011971516091078243,
        "t_max": 3.971209244602308e-08,
        "initial_state": [
            [0.1680513885492798, 0.7008587026765344],
            [0.40487916631109555, 0.1932703747436666],
            [0.40487916631109555, 0.1932703747436666],
            [0.25210963018315136, -0.12014736753457987],
        ],
    },
    "p-b-zero": {
        "r": 1.14e-9,
        "Bz1": 0.1,
        "Bz2": 0.1,
        "Bg1": 6.08e-5,
        "Bg2": -6.08e-5,
        "J0": -27524181.739761295,
        "t_max": 1.2e-8,
        "initial_state": [[0.6123724356957946, 0.0], [0.3702489738675926, 0.0], [0.336029310254321, 0.0], [0.6123724356957946, 0.0]],
    },
}


def test_piecewise_inputs_take_the_quartic():
    # Neither input's bounds prove S monotone (q1_B >= |s|), so its window
    # comes from the cuts of ``beat``; on p-b-zero P_B = K_B = 0 exactly.
    blocks = {name: BlockPropagator(validate(workload_config(f))) for name, f in PIECEWISE_INPUTS.items()}
    for b in blocks.values():
        assert b.bounds().slow_rate >= 2 * abs(b.s)
        period, _, cuts = b.beat()
        assert cuts[0] == 0.0 and cuts[-1] == period
    k, p, q = blocks["p-b-zero"]._kpq_b
    assert k == p == 0 and q != 0


@pytest.mark.parametrize(
    "config",
    [reference_config(), reference_config(r=12e-9, t_max=2.5 * TAU_12NM)]
    + [SimulationConfig(**fields) for fields in GRAZING_INPUTS.values()]
    + [workload_config(fields) for fields in {**FOUND_INPUTS, **PIECEWISE_INPUTS}.values()],
    ids=["reference", "12nm"] + GRAZING_IDS + list(FOUND_INPUTS) + list(PIECEWISE_INPUTS),
)
def test_tau_meets_phase_tol_at_40_digits(config):
    tau = run_simulation(config).gate.tau
    residual = exact_residual(config, tau)
    assert math.isfinite(residual)
    assert residual <= PHASE_TOL + EVALUATION_SLACK


# The static output's theta comes from the blocks' ellipses, as the gate's,
# and its states from the blocks' closed form: 1.3e-15 rad and 4.2e-11 at
# most on these rows.  A 4x4 evolution's output fails both on far-seed1-24
# (3.8e-10 rad and 1.66e-10): its Zeeman phases lambda t of up to 2.6e5 rad
# carry their float64 rounding into theta and psi.
OUTPUT_ROWS = 25
OUTPUT_THETA_TOL = 1e-13
OUTPUT_PSI_TOL = 1e-10


@pytest.mark.parametrize(
    "config",
    [reference_config(), reference_config(r=12e-9, t_max=2.5 * TAU_12NM)]
    + [workload_config(fields) for fields in FOUND_INPUTS.values()],
    ids=["reference", "12nm"] + list(FOUND_INPUTS),
)
def test_static_output_meets_40_digits(config):
    run = run_trajectory(config)
    times, states, theta = run.trajectory.times, run.trajectory.states, run.theta
    theta_err, psi_err = 0.0, 0.0
    with mpmath.workdps(DIGITS):
        amplitudes = exact_amplitudes(config)
        theta0 = angle(amplitudes(0))
        for k in np.linspace(0, len(times) - 1, OUTPUT_ROWS).round().astype(int):
            c = amplitudes(times[k])
            theta_err = max(theta_err, distance_mod_2pi(mpmath.mpf(theta[k]) - (angle(c) - theta0)))
            psi_err = max(psi_err, *(float(abs(c[j] - mpmath.mpc(states[k, j]))) for j in range(4)))
    assert theta_err <= OUTPUT_THETA_TOL
    assert psi_err <= OUTPUT_PSI_TOL
