import math
import warnings

import numpy as np
import pytest

from buckygate import analysis
from buckygate.analysis import (
    PHASE_TOL,
    binary_entropy,
    concurrence,
    correction_phases,
    entanglement_of_formation,
    find_gate_time,
    ops_budget,
    unwrap_phases,
)
from buckygate.errors import NoCrossing, OutOfRange, PhaseAliasing, UndefinedPhase, ZeroState
from buckygate.propagator import Trajectory

EPR = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def spin_flip(psi):
    """Two-qubit spin flip (sigma_y x sigma_y) conj(psi)."""
    c = np.conj(np.asarray(psi, dtype=complex))
    return np.array([-c[3], c[2], c[1], -c[0]], dtype=complex)


def make_trajectory(states, t_max=1.0):
    states = np.asarray(states, dtype=complex)
    return Trajectory(times=np.linspace(0, t_max, len(states)), states=states)


class TestUnwrapPhases:
    def test_constant_state_zero_theta(self):
        traj = make_trajectory([np.full(4, 0.5)] * 10)
        np.testing.assert_array_equal(unwrap_phases(traj), 0.0)

    def test_theta_offset_rescaled_to_zero(self):
        psi = np.array([0.5j, 0.5, -0.5, 0.5], dtype=complex)
        traj = make_trajectory([psi] * 5)
        assert unwrap_phases(traj)[0] == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(3)
        base = [np.exp(1j * 0.1 * k) * np.full(4, 0.5) for k in range(20)]
        traj = make_trajectory(base)
        alpha = rng.uniform(0, 2 * np.pi)
        shifted = make_trajectory([np.exp(1j * alpha) * s for s in base])
        np.testing.assert_allclose(
            unwrap_phases(traj), unwrap_phases(shifted), atol=1e-12
        )

    def test_single_qubit_z_phase_invariance(self):
        # Phases (beta on qubit 1, gamma on qubit 2) shift the arguments by
        # {0, gamma, beta, beta+gamma}, which the +,-,-,+ weighting cancels.
        rng = np.random.default_rng(11)
        base = [np.exp(1j * 0.2 * k) * np.full(4, 0.5) for k in range(20)]
        theta_ref = unwrap_phases(make_trajectory(base))
        for _ in range(10):
            beta, gamma = rng.uniform(-np.pi, np.pi, size=2)
            u = np.exp(1j * np.array([0.0, gamma, beta, beta + gamma]))
            shifted = make_trajectory([u * s for s in base])
            np.testing.assert_allclose(
                unwrap_phases(shifted), theta_ref, atol=1e-12
            )

    def test_unwrap_continuity(self):
        # theta follows a uniformly rotating c1 through several turns without
        # 2 pi jumps.
        times = np.linspace(0, 1, 200)
        states = np.full((len(times), 4), 0.5, dtype=complex)
        states[:, 0] *= np.exp(1j * 20.0 * times)
        theta = unwrap_phases(Trajectory(times=times, states=states))
        assert np.max(np.abs(np.diff(theta))) < np.pi / 2
        np.testing.assert_allclose(theta, 20.0 * times, atol=1e-12)

    def test_step_above_unwrap_bound_rejected(self):
        # c1 turns by 2 rad per sample: the unwrap would read -4.28 rad steps
        # as +2, so the series is refused instead of silently aliased.
        times = np.linspace(0, 1, 20)
        states = np.full((len(times), 4), 0.5, dtype=complex)
        states[:, 0] *= np.exp(1j * 2.0 * np.arange(len(times)))
        with pytest.raises(PhaseAliasing, match="theta steps by 2.000 rad"):
            unwrap_phases(Trajectory(times=times, states=states))

    def test_max_step_is_the_unwrap_margin(self):
        times = np.linspace(0, 1, 200)
        states = np.full((len(times), 4), 0.5, dtype=complex)
        states[:, 0] *= np.exp(1j * 20.0 * times**2)
        theta = unwrap_phases(Trajectory(times=times, states=states))
        assert np.max(np.abs(np.diff(theta))) == pytest.approx(20.0 * (1 - times[-2] ** 2), rel=1e-9)

    def test_vanishing_amplitude_rejected(self):
        traj = make_trajectory([np.array([1, 0, 0, 0], dtype=complex)] * 4)
        with pytest.raises(UndefinedPhase):
            unwrap_phases(traj)


def evaluator(theta, rate):
    """theta and its rate at an array of times, the pair of arrays that
    find_gate_time's evaluator returns."""
    return lambda t: (theta(t), np.broadcast_to(rate(t), np.shape(t)))


def dip_theta(t):
    """theta dipping below -pi around t = 0.3055, between the samples at 0.30
    and 0.31 of a 0.01 grid, and turning back; it falls through -pi for good
    from 0.71 on.  Its first crossing is at DIP_TAU."""
    dip = 0.003 * np.exp(-(((t - 0.3055) / 0.003) ** 2))
    return -np.pi + 0.002 - dip - 10 * np.maximum(0.0, t - 0.7)


def dip_rate(t):
    u = (t - 0.3055) / 0.003
    return 2 * u * np.exp(-(u**2)) - 10.0 * (t > 0.7)


DIP_TAU = 0.3055 - 0.003 * np.sqrt(np.log(1.5))


# theta rises past -pi by GRAZE_DEPTH rad for under 1e-4 around t = GRAZE_AT,
# on a hump of width 0.01: less than a tenth of the 1e-3 scan step, so no
# scan point need fall inside it.  It falls through -pi for good from 0.71
# on.  Its first crossing is at GRAZE_TAU.
GRAZE_AT, GRAZE_DEPTH, GRAZE_HUMP, GRAZE_WIDTH = 0.30055, 2e-7, 0.01, 0.01


def graze_theta(t):
    u = (t - GRAZE_AT) / GRAZE_WIDTH
    return -np.pi + GRAZE_HUMP - GRAZE_DEPTH - GRAZE_HUMP * np.exp(-(u**2)) - 10 * np.maximum(0.0, t - 0.7)


def graze_rate(t):
    u = (t - GRAZE_AT) / GRAZE_WIDTH
    return 2 * GRAZE_HUMP * u / GRAZE_WIDTH * np.exp(-(u**2)) - 10.0 * (t > 0.7)


GRAZE_TAU = GRAZE_AT - GRAZE_WIDTH * np.sqrt(np.log(GRAZE_HUMP / (GRAZE_HUMP - GRAZE_DEPTH)))
# |theta''''| on the hump is at most 12 GRAZE_HUMP / GRAZE_WIDTH^4: the
# fourth derivative of exp(-u^2) peaks at 12, at u = 0.
GRAZE_M4 = 12 * GRAZE_HUMP / GRAZE_WIDTH**4


def newton_calls(times, theta, theta_fn, scan_step):
    """find_gate_time's result and the times of its Newton steps: the calls
    of ``theta_fn`` at one time after the scan has returned."""
    calls, scanned = [], []
    search = analysis._search

    def recording_search(*args):
        bracket = search(*args)
        scanned.append(True)
        return bracket

    def recording(t):
        if scanned:
            calls.append(t)
        return theta_fn(t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_search", recording_search)
        return find_gate_time(times, theta, recording, scan_step), calls


def _scan_array_pass(times, theta, level, margin):
    """Reference: analysis._scan with every near interval taken in one numpy
    array pass."""
    floor = max(level - margin, 0.0)
    near = np.abs(theta) >= floor
    rows = (near[:-1] | near[1:]).nonzero()[0]
    a, b, t0 = theta[rows], theta[rows + 1], times[rows]
    span = times[rows + 1] - t0
    s = np.sign(a + b)
    ua, ub = s * a, s * b
    d = ub - ua
    x = (floor - ua) / np.where(d == 0, 1.0, d)
    whole = np.minimum(ua, ub) <= -floor
    lo = np.where((d > 0) & ~whole, x, 0.0)
    hi = np.where((d < 0) & ~whole, x, 1.0)
    hi[-1] = min(hi[-1], (level + margin - ua[-1]) / d[-1])
    start = t0 + np.minimum(np.maximum(lo, 0.0), 1.0) * span
    width = t0 + np.minimum(np.maximum(hi, 0.0), 1.0) * span - start
    return start.tolist(), width.tolist(), (times[rows[0]], theta[rows[0]])


class TestFindGateTime:
    def linear_series(self, tau0, t_max=1.0, n=101):
        times = np.linspace(0, t_max, n)
        theta = -(np.pi / tau0) * times
        return times, theta

    def gate_time(self, series, theta, rate, scan_step=1e-3):
        """find_gate_time on the samples ``series`` = (times, theta) with
        ``theta`` and ``rate`` as its evaluator."""
        return find_gate_time(*series, evaluator(theta, rate), scan_step)

    def test_linear_crossing(self):
        tau = self.gate_time(self.linear_series(0.4), lambda t: -(np.pi / 0.4) * t, lambda t: -np.pi / 0.4)
        assert tau == pytest.approx(0.4, rel=1e-10)

    def test_refinement_with_evaluator(self):
        tau0 = 0.37
        series = self.linear_series(tau0)
        tau = self.gate_time(series, lambda t: -(np.pi / tau0) * t, lambda t: -np.pi / tau0)
        assert tau == pytest.approx(tau0, abs=5e-12)

    def test_positive_crossing_reported_first(self):
        times = np.linspace(0, 1.0, 101)
        theta = lambda t: (np.pi / 0.25) * t  # rises through +pi at t=0.25
        tau = self.gate_time((times, theta(times)), theta, lambda t: np.pi / 0.25)
        assert tau == pytest.approx(0.25, rel=1e-10)

    def test_scan_finds_crossing_between_samples(self):
        times = np.linspace(0, 1.0, 101)
        sampled = dip_theta(times)
        assert np.all(np.abs(sampled[times < 0.7]) < np.pi)
        tau = self.gate_time((times, sampled), dip_theta, dip_rate)
        assert tau == pytest.approx(DIP_TAU, abs=1e-9)

    @pytest.mark.parametrize("m4", [GRAZE_M4, math.inf], ids=["bound", "no-bound"])
    def test_scan_finds_crossing_shorter_than_its_step(self, m4):
        # theta is past -pi for under 1e-4 around GRAZE_AT, and no point of
        # the scan's first batch falls there: a scan of points alone would
        # return the crossing after 0.7.  The cubic Hermite interpolant of a
        # cell reaches the level there, with or without the bound on
        # |theta''''|, so theta is evaluated at its extreme and the first
        # crossing is found.
        times = np.linspace(0, 1.0, 101)
        assert np.all(np.abs(graze_theta(times[times < 0.7])) < np.pi)
        batches = []

        def recording(t):
            batches.append(t)
            return graze_theta(t), np.broadcast_to(graze_rate(t), np.shape(t))

        # With the bound, the window is handed over: theta can reach the
        # level only within 0.005 of the hump's top, where |theta| is at
        # most pi - 2.6e-3 at both ends, or past 0.7.  None of the ends of
        # its cells, of the width fine, falls in the excursion.
        window = ([GRAZE_AT - 0.00505, 0.7], [0.01, 0.01], m4) if math.isfinite(m4) else None
        tau = find_gate_time(times, graze_theta(times), recording, 1e-3, window)
        first = batches[0]
        assert np.all(np.abs(graze_theta(first[first < 0.7])) < np.pi)
        assert abs(graze_theta(tau) + np.pi) <= PHASE_TOL
        assert tau == pytest.approx(GRAZE_TAU, abs=1e-7)

    @pytest.mark.parametrize("omega", [2e3, 2.5e4], ids=["1e5-fine-cells", "1e6-fine-cells"])
    def test_long_static_window_is_searched_in_few_calls(self, omega):
        # theta = S + F with S = -t and F = 0.05 sin(omega t), searched with
        # the loose bound |F| <= 0.5: the window spans S from pi - 0.5 to
        # pi + 0.5, 1 s, which holds about 1e5 or 1.2e6 cells of the width
        # fine at which the Hermite bound meets PHASE_TOL.  The search lays
        # out FINE_CELLS cells, not all of those, and theta's wiggles keep
        # most cells before the first crossing, near t = pi - 0.05, within
        # the bound of the level: each round of cuts is one call, not one
        # call a cell.
        theta = lambda t: -t + 0.05 * np.sin(omega * t)
        rate = lambda t: -1 + 0.05 * omega * np.cos(omega * t)
        m4 = 0.05 * omega**4
        calls = []

        def recording(t):
            calls.append(len(t))
            return theta(t), rate(t)

        window = ([np.pi - 0.5], [1.0], m4)
        tau = find_gate_time(np.array([0.0, 5.0]), None, recording, 0.05 / omega, window)
        assert abs(theta(tau) + np.pi) <= PHASE_TOL
        grid = np.linspace(np.pi - 0.5, tau, 10**6)
        assert np.all(theta(grid[:-1]) > -np.pi)
        if omega > 1e4:
            assert 1 / analysis._fine(m4) > analysis.MAX_SCAN_POINTS
        assert len(calls) <= 12
        assert sum(calls) <= 5000

    def test_refinement_meets_phase_tol_in_few_calls(self):
        # theta wiggles by 1e-3 rad about a line through -pi at 0.37.  The
        # scan is as coarse as the samples, so the refinement starts from the
        # whole band around the level; the root of the cubic Hermite
        # interpolant on the scan's bracket meets PHASE_TOL at the first call.
        times = np.linspace(0, 1.0, 101)
        theta = lambda t: -(np.pi / 0.37) * t + 1e-3 * np.sin(40 * t)
        rate = lambda t: -(np.pi / 0.37) + 0.04 * np.cos(40 * t)
        tau, calls = newton_calls(times, theta(times), evaluator(theta, rate), 1e-2)
        assert abs(theta(tau) + np.pi) <= PHASE_TOL
        assert len(calls) <= 1

    @pytest.mark.parametrize(
        "bad_rate",
        [lambda t: -dip_rate(t), lambda t: 0.0, lambda t: math.nan, lambda t: 1e300, lambda t: -math.inf],
        ids=["wrong-sign", "zero", "nan", "1e300", "-inf"],
    )
    def test_bad_rates_still_give_the_first_crossing(self, bad_rate):
        # A rate of no use makes every Newton step fail its safeguard, so the
        # refinement bisects: the bracket of width 1e-3 halves at least every
        # other call, and PHASE_TOL needs it below about 1e-10 (theta turns at
        # 0.85 rad/s there), some 23 halvings.
        times = np.linspace(0, 1.0, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau, calls = newton_calls(times, dip_theta(times), evaluator(dip_theta, bad_rate), 1e-3)
        assert abs(dip_theta(tau) + np.pi) <= PHASE_TOL
        assert tau == pytest.approx(DIP_TAU, abs=1e-9)
        assert len(calls) <= 2 * 24

    def test_evaluator_gets_one_dimensional_times_only(self):
        # The scan's batches and each Newton step's one time are all 1-D
        # arrays; an evaluator that accepts nothing else still finds tau.
        point = evaluator(dip_theta, dip_rate)

        def strict(t):
            assert isinstance(t, np.ndarray) and t.ndim == 1 and t.size >= 1, t
            return point(t)

        times = np.linspace(0, 1.0, 101)
        tau = find_gate_time(times, dip_theta(times), strict, 1e-3)
        assert tau == pytest.approx(DIP_TAU, abs=1e-9)

    def test_samples_past_the_one_after_the_crossing_are_not_read(self):
        # A driven run stops its pass just past the first sampled crossing,
        # so the scan margin is taken over the samples up to the one after
        # it.  Later samples, here with second differences 100 times the
        # ones before, change neither the scan nor the gate.
        times = np.linspace(0, 1.0, 101)
        theta = lambda t: -(np.pi / 0.37) * t + 1e-3 * np.sin(40 * t)
        rate = lambda t: -(np.pi / 0.37) + 0.04 * np.cos(40 * t)
        sampled = theta(times)
        i = np.flatnonzero(np.abs(sampled) >= np.pi)[0]
        wild = sampled.copy()
        wild[i + 2 :: 2] += 0.5
        runs = []
        for series in ((times[: i + 2], sampled[: i + 2]), (times, sampled), (times, wild)):
            batches = []

            def recording(t):
                batches.append(t.copy())
                return theta(t), np.broadcast_to(rate(t), np.shape(t))

            runs.append((find_gate_time(*series, recording, 1e-2), batches))
        for tau, batches in runs[1:]:
            assert tau == runs[0][0]
            assert len(batches) == len(runs[0][1])
            for batch, first in zip(batches, runs[0][1]):
                np.testing.assert_array_equal(batch, first)

    def test_scan_bands_equal_the_array_pass(self):
        # Random walks up to their first sample past pi, with the margin
        # find_gate_time takes and with wider ones: the bands taken in Python
        # floats have the bits of one array pass over the near intervals.
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(400):
            n = int(rng.integers(3, 200))
            times = np.linspace(0, 1e-8, n)
            theta = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.2, 0.5, n - 1))]) * rng.choice([1, -1])
            past = np.abs(theta) >= np.pi
            i = int(past.argmax())
            if not past[i]:
                continue
            steps = np.diff(theta[: i + 2])
            for margin in (0.5 * float(np.abs(np.diff(steps)).max(initial=0.0)), float(rng.uniform(0, 4))):
                expected = _scan_array_pass(times[: i + 1], theta[: i + 1], np.pi, margin)
                start, width, before = analysis._scan(times[: i + 1], theta[: i + 1], np.pi, margin)
                assert np.array(start).tobytes() == np.array(expected[0]).tobytes()
                assert np.array(width).tobytes() == np.array(expected[1]).tobytes()
                assert before == expected[2]
                checked += 1
        assert checked > 400

    def test_no_crossing(self):
        times = np.linspace(0, 1.0, 11)
        theta = lambda t: -0.5 * t
        with pytest.raises(NoCrossing, match=r"theta_end=-0\.500000 rad"):
            self.gate_time((times, theta(times)), theta, lambda t: -0.5)


class TestCorrectionPhases:
    def test_zero_input(self):
        assert correction_phases(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0, 0.0)

    def test_symbolic_pattern(self):
        a, b, c = 0.7, -1.3, 2.1
        s1_0, s1_1, s2_0, s2_1 = correction_phases(2 * a, b, c)
        assert s1_0 == pytest.approx(-a)
        assert s1_1 == pytest.approx(-c + a)
        assert s2_0 == pytest.approx(-a)
        assert s2_1 == pytest.approx(-b + a)

    def test_residual_phases_after_correction(self):
        # Applying the corrections to the diagonal evolution leaves |00>,
        # |01>, |10> phase-free and puts the full composite phase on |11>.
        rng = np.random.default_rng(5)
        for _ in range(25):
            phi00, phi01, phi10, phi11 = rng.uniform(-np.pi, np.pi, size=4)
            s1_0, s1_1, s2_0, s2_1 = correction_phases(phi00, phi01, phi10)
            assert phi00 + s1_0 + s2_0 == pytest.approx(0.0, abs=1e-12)
            assert phi01 + s1_0 + s2_1 == pytest.approx(0.0, abs=1e-12)
            assert phi10 + s1_1 + s2_0 == pytest.approx(0.0, abs=1e-12)
            theta = phi11 - phi10 - phi01 + phi00
            assert phi11 + s1_1 + s2_1 == pytest.approx(theta, abs=1e-12)


class TestConcurrence:
    def test_epr_maximal(self):
        assert concurrence(EPR) == pytest.approx(1.0, abs=1e-15)

    def test_basis_state(self):
        assert concurrence(np.array([1, 0, 0, 0], dtype=complex)) == 0.0

    def test_uniform_product_state(self):
        assert concurrence(np.full(4, 0.5)) == 0.0

    def test_random_product_states(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            q1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            q2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert concurrence(np.kron(q1 / np.linalg.norm(q1), q2 / np.linalg.norm(q2))) <= 1e-12

    def test_range_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert 0.0 <= concurrence(psi) <= 1.0 + 1e-12

    def test_state_alone_and_in_an_array_give_the_same_bits(self):
        # The docstring's promise: one state gets the same bits passed alone
        # as in an (n, 4) array, on states of any norm.
        rng = np.random.default_rng(23)
        states = (rng.normal(size=(1001, 4)) + 1j * rng.normal(size=(1001, 4))) * rng.uniform(0.1, 10, (1001, 1))
        alone = np.array([concurrence(psi) for psi in states])
        np.testing.assert_array_equal(alone, concurrence(states))

    def test_spin_flip_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            assert concurrence(spin_flip(psi)) == pytest.approx(
                concurrence(psi), abs=1e-12
            )

    def test_epr_invariant_under_spin_flip(self):
        overlap = abs(np.vdot(EPR, spin_flip(EPR)))
        assert overlap == pytest.approx(1.0, abs=1e-15)

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroState):
            concurrence(np.zeros(4))

    def test_unnormalized_input_handled(self):
        assert concurrence(3.0 * EPR) == pytest.approx(1.0, abs=1e-12)


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert entanglement_of_formation(0.0) == 0.0
        assert entanglement_of_formation(1.0) == 1.0

    def test_reference_value(self):
        # E(0.6) = h(0.9)
        assert entanglement_of_formation(0.6) == pytest.approx(
            0.4689955935892812, rel=1e-12
        )

    def test_monotone_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1000)
        values = [entanglement_of_formation(c) for c in grid]
        assert np.all(np.diff(values) > 0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            entanglement_of_formation(1.5)
        with pytest.raises(OutOfRange):
            entanglement_of_formation(-0.1)

    def test_binary_entropy_symmetry(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), rel=1e-14)


class TestOpsBudget:
    def test_reference_budgets(self):
        assert ops_budget(9.1e-9, 20e-6) == 2197
        assert ops_budget(9.8e-9, 20e-6) == 2040

    def test_single_operation(self):
        assert ops_budget(20e-6, 20e-6) == 1

    def test_nonpositive_tau(self):
        with pytest.raises(OutOfRange):
            ops_budget(0.0, 20e-6)

    def test_budget_beyond_float_range(self):
        with pytest.raises(OutOfRange):
            ops_budget(1e-8, 1.7e308)


def test_theta_weights_cancel_global_phase():
    # +1 -1 -1 +1 weighting: alpha - alpha - alpha + alpha = 0
    assert sum([1, -1, -1, 1]) == 0


def test_spin_flip_matches_sigma_y_construction():
    sy = np.array([[0, -1j], [1j, 0]])
    syy = np.kron(sy, sy)
    rng = np.random.default_rng(23)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    np.testing.assert_allclose(spin_flip(psi), syy @ psi.conj(), atol=1e-15)
