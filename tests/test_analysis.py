import math

import numpy as np
import pytest

from buckygate.analysis import (
    PhaseSeries,
    binary_entropy,
    concurrence,
    correction_phases,
    entanglement_of_formation,
    find_gate_time,
    ops_budget,
    unwrap_phases,
)
from buckygate.config import product_state, state_vector
from buckygate.errors import NoCrossing, OutOfRange, PhaseAliasing, UndefinedPhase, ZeroState
from buckygate.propagator import Trajectory

EPR = state_vector(1, 0, 0, 1) / np.sqrt(2)


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
        phases = unwrap_phases(traj)
        np.testing.assert_array_equal(phases.theta, 0.0)

    def test_theta_offset_rescaled_to_zero(self):
        psi = state_vector(0.5j, 0.5, -0.5, 0.5)
        traj = make_trajectory([psi] * 5)
        assert unwrap_phases(traj).theta[0] == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(3)
        base = [np.exp(1j * 0.1 * k) * np.full(4, 0.5) for k in range(20)]
        traj = make_trajectory(base)
        alpha = rng.uniform(0, 2 * np.pi)
        shifted = make_trajectory([np.exp(1j * alpha) * s for s in base])
        np.testing.assert_allclose(
            unwrap_phases(traj).theta, unwrap_phases(shifted).theta, atol=1e-12
        )

    def test_single_qubit_z_phase_invariance(self):
        # Phases (beta on qubit 1, gamma on qubit 2) shift the arguments by
        # {0, gamma, beta, beta+gamma}, which the +,-,-,+ weighting cancels.
        rng = np.random.default_rng(11)
        base = [np.exp(1j * 0.2 * k) * np.full(4, 0.5) for k in range(20)]
        theta_ref = unwrap_phases(make_trajectory(base)).theta
        for _ in range(10):
            beta, gamma = rng.uniform(-np.pi, np.pi, size=2)
            u = np.exp(1j * np.array([0.0, gamma, beta, beta + gamma]))
            shifted = make_trajectory([u * s for s in base])
            np.testing.assert_allclose(
                unwrap_phases(shifted).theta, theta_ref, atol=1e-12
            )

    def test_unwrap_continuity(self):
        # theta follows a uniformly rotating c1 through several turns without
        # 2 pi jumps.
        times = np.linspace(0, 1, 200)
        states = np.full((len(times), 4), 0.5, dtype=complex)
        states[:, 0] *= np.exp(1j * 20.0 * times)
        phases = unwrap_phases(Trajectory(times=times, states=states))
        assert np.max(np.abs(np.diff(phases.theta))) < np.pi / 2
        np.testing.assert_allclose(phases.theta, 20.0 * times, atol=1e-12)

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
        phases = unwrap_phases(Trajectory(times=times, states=states))
        assert phases.max_step == pytest.approx(20.0 * (1 - times[-2] ** 2), rel=1e-9)

    def test_vanishing_amplitude_rejected(self):
        traj = make_trajectory([state_vector(1, 0, 0, 0)] * 4)
        with pytest.raises(UndefinedPhase):
            unwrap_phases(traj)


class TestFindGateTime:
    def linear_series(self, tau0, t_max=1.0, n=101):
        times = np.linspace(0, t_max, n)
        theta = -(np.pi / tau0) * times
        return PhaseSeries(times=times, theta=theta)

    def test_linear_crossing(self):
        tau = find_gate_time(self.linear_series(0.4))
        assert tau == pytest.approx(0.4, rel=1e-10)

    def test_refinement_with_evaluator(self):
        tau0 = 0.37
        series = self.linear_series(tau0)
        tau = find_gate_time(series, theta_fn=lambda t: -(np.pi / tau0) * t)
        assert tau == pytest.approx(tau0, abs=5e-12)

    def test_positive_crossing_reported_first(self):
        times = np.linspace(0, 1.0, 101)
        theta = (np.pi / 0.25) * times  # rises through +pi at t=0.25
        tau = find_gate_time(PhaseSeries(times, theta))
        assert tau == pytest.approx(0.25, rel=1e-10)

    def test_scan_finds_crossing_between_samples(self):
        # theta dips below -pi around t = 0.3055, between the samples at 0.30
        # and 0.31, and turns back; the sampled series first crosses at 0.71.
        def theta(t):
            dip = 0.003 * np.exp(-(((t - 0.3055) / 0.003) ** 2))
            return -np.pi + 0.002 - dip - 10 * np.maximum(0.0, t - 0.7)

        times = np.linspace(0, 1.0, 101)
        series = PhaseSeries(times, theta(times))
        assert find_gate_time(series, theta_fn=theta) > 0.7
        tau = find_gate_time(series, theta_fn=theta, scan_fn=theta, scan_step=1e-3)
        assert tau == pytest.approx(0.3055 - 0.003 * np.sqrt(np.log(1.5)), abs=1e-9)

    def test_scan_without_earlier_crossing_changes_nothing(self):
        # The scan points are bisection midpoints, so the refined crossing is
        # the same to the bit.
        tau0 = 0.37
        series = self.linear_series(tau0)
        theta = lambda t: -(np.pi / tau0) * t + 1e-3 * np.sin(40 * t)
        plain = find_gate_time(series, theta_fn=theta)
        scanned = find_gate_time(series, theta_fn=theta, scan_fn=theta, scan_step=1e-4)
        assert scanned == plain

    def test_no_crossing(self):
        times = np.linspace(0, 1.0, 11)
        theta = -0.5 * times
        with pytest.raises(NoCrossing) as exc:
            find_gate_time(PhaseSeries(times, theta))
        assert exc.value.theta_end == pytest.approx(-0.5)


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
        assert concurrence(state_vector(1, 0, 0, 0)) == 0.0

    def test_uniform_product_state(self):
        assert concurrence(np.full(4, 0.5)) == 0.0

    def test_random_product_states(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            q1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            q2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert concurrence(product_state(q1, q2)) <= 1e-12

    def test_range_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert 0.0 <= concurrence(psi) <= 1.0 + 1e-12

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


def test_theta_weights_cancel_global_phase():
    # +1 -1 -1 +1 weighting: alpha - alpha - alpha + alpha = 0
    assert sum([1, -1, -1, 1]) == 0


def test_spin_flip_matches_sigma_y_construction():
    sy = np.array([[0, -1j], [1j, 0]])
    syy = np.kron(sy, sy)
    rng = np.random.default_rng(23)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    np.testing.assert_allclose(spin_flip(psi), syy @ psi.conj(), atol=1e-15)
