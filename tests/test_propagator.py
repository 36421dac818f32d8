import re

import numpy as np
import pytest

from buckygate.config import SimulationConfig, state_vector, validate
from buckygate.constants import CONSTANTS
from buckygate.errors import NonHermitianInput, NormDrift, OutOfRange
from buckygate.fields import resonance_frequencies
from buckygate.hamiltonian import build_drive, build_static, static_terms
from buckygate.propagator import (
    MAX_STEPS,
    STEPS_PER_CHUNK,
    SpectralPropagator,
    Trajectory,
    _expm_taylor,
    largest_substep,
    propagate_magnus,
    propagate_numeric,
    propagate_static,
    recommended_step,
    resolve_step,
    rk4_segment,
    time_dependent_hamiltonian,
)


def reference_config(**overrides):
    kwargs = dict(
        r=1.14e-9, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5, t_max=1.2e-8
    )
    kwargs.update(overrides)
    return validate(SimulationConfig(**kwargs))


def resonances_for(cfg):
    return resonance_frequencies(CONSTANTS, cfg.Bz1, cfg.Bg1, cfg.Bz2, cfg.Bg2)


UNIFORM = state_vector(0.5, 0.5, 0.5, 0.5)


def _scalar_rk4_segment(hfun, psi, t0, t1, dt_max):
    """Reference: one classical RK4 step at a time on the state vector."""
    span = t1 - t0
    if span == 0:
        return psi.copy()
    n = max(1, int(np.ceil(span / dt_max)))
    h = span / n
    t = t0
    for _ in range(n):
        k1 = -1j * (hfun(t) @ psi)
        k2 = -1j * (hfun(t + h / 2) @ (psi + h / 2 * k1))
        k3 = -1j * (hfun(t + h / 2) @ (psi + h / 2 * k2))
        k4 = -1j * (hfun(t + h) @ (psi + h * k3))
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return psi


def _scalar_states(cfg, times):
    """Reference trajectory by the scalar loop, and the first sample time whose
    squared norm leaves the tolerance band (None if none does)."""
    res = resonances_for(cfg)
    hfun = time_dependent_hamiltonian(cfg, res)
    dt = resolve_step(cfg, res).dt
    states = [np.asarray(cfg.initial_state, dtype=complex)]
    first_drift = None
    for t0, t1 in zip(times[:-1], times[1:]):
        states.append(_scalar_rk4_segment(hfun, states[-1], t0, t1, dt))
        drift = abs(np.sum(np.abs(states[-1]) ** 2) - 1.0)
        if first_drift is None and drift > cfg.norm_tolerance:
            first_drift = t1
    return np.array(states), first_drift


class TestSpectral:
    def test_zero_hamiltonian_identity(self):
        times = np.linspace(0, 1e-9, 11)
        traj = propagate_static(np.zeros((4, 4), dtype=complex), UNIFORM, times)
        for state in traj.states:
            np.testing.assert_allclose(state, UNIFORM, atol=1e-15)

    @pytest.mark.parametrize("t_max", [1.2e-8, 1.2e-5])
    def test_matches_exp_phases(self, t_max):
        h = build_static(reference_config())
        times = np.linspace(0, t_max, 50001)
        eigenvalues, v = np.linalg.eigh(h)
        reference = (np.exp(-1j * np.outer(times, eigenvalues)) * (v.conj().T @ UNIFORM)) @ v.T
        states = propagate_static(h, UNIFORM, times).states
        assert np.max(np.abs(states - reference)) <= 1e-15

    def test_rabi_closed_form(self):
        # From |00>, the {|00>,|11>} block oscillates with frequency
        # sqrt(m1^2 + 9 g^2) and contrast 9g^2 / (m1^2 + 9g^2).
        cfg = reference_config()
        g, m1, _ = static_terms(cfg)
        h = build_static(cfg)
        times = np.linspace(0, 2e-9, 400)
        traj = propagate_static(h, state_vector(1, 0, 0, 0), times)
        omega = np.hypot(m1, 3 * g)
        expected = 1 - (9 * g**2 / omega**2) * np.sin(omega * times) ** 2
        np.testing.assert_allclose(np.abs(traj.states[:, 0]) ** 2, expected, atol=1e-10)

    def test_norm_conserved(self):
        cfg = reference_config()
        traj = propagate_static(
            build_static(cfg), UNIFORM, np.linspace(0, 1e-8, 500)
        )
        np.testing.assert_allclose(traj.norms, 1.0, atol=1e-12)

    def test_non_hermitian_rejected(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(NonHermitianInput):
            propagate_static(h, UNIFORM, np.linspace(0, 1.0, 5))

    def test_energy_conserved(self):
        cfg = reference_config()
        h = build_static(cfg)
        traj = propagate_static(h, UNIFORM, np.linspace(0, 1e-8, 300))
        energies = np.einsum("ti,ij,tj->t", traj.states.conj(), h, traj.states).real
        scale = max(abs(energies[0]), np.max(np.abs(np.linalg.eigvalsh(h))))
        assert np.max(np.abs(energies - energies[0])) <= 1e-8 * scale

    def test_block_populations_conserved(self):
        cfg = reference_config()
        traj = propagate_static(
            build_static(cfg), UNIFORM, np.linspace(0, 1e-8, 300)
        )
        p_outer = np.abs(traj.states[:, 0]) ** 2 + np.abs(traj.states[:, 3]) ** 2
        p_inner = np.abs(traj.states[:, 1]) ** 2 + np.abs(traj.states[:, 2]) ** 2
        assert np.max(np.abs(p_outer - p_outer[0])) <= 1e-10
        assert np.max(np.abs(p_inner - p_inner[0])) <= 1e-10


class TestNumeric:
    def test_matches_spectral_oracle(self):
        cfg = reference_config(dt=5e-13, t_max=1e-8)
        times = np.linspace(0, 1e-8, 401)
        numeric = propagate_numeric(cfg, resonances_for(cfg), times)
        exact = propagate_static(build_static(cfg), cfg.initial_state, times)
        assert np.max(np.abs(numeric.states - exact.states)) <= 1e-8

    def test_drive_free_driven_mode_reduces_to_static(self):
        cfg = reference_config(mode="driven", Bl1=0.0, Bl2=0.0, dt=5e-13, t_max=4e-9)
        times = np.linspace(0, 4e-9, 201)
        numeric = propagate_numeric(cfg, resonances_for(cfg), times)
        exact = propagate_static(build_static(cfg), cfg.initial_state, times)
        # dominated by RK4 truncation error, same bound as the oracle check
        assert np.max(np.abs(numeric.states - exact.states)) <= 1e-8

    def test_norm_drift_detected(self):
        cfg = reference_config(dt=1.1e-10, t_max=1.2e-8)  # ~2 rad per step
        times = np.linspace(0, 1.2e-8, 109)
        with pytest.raises(NormDrift):
            propagate_numeric(cfg, resonances_for(cfg), times)

    def test_convergence_order(self):
        # Classical RK4: halving dt must shrink the one-shot error ~16x.
        cfg = reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4)
        hfun = time_dependent_hamiltonian(cfg, resonances_for(cfg))
        horizon = 2e-9
        finals = [
            rk4_segment(hfun, UNIFORM.copy(), 0.0, horizon, dt)
            for dt in (8e-12, 4e-12, 2e-12)
        ]
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        order = np.log2(e1 / e2)
        assert order >= 3.8

    def test_times_validation(self):
        cfg = reference_config()
        with pytest.raises(ValueError):
            propagate_numeric(cfg, resonances_for(cfg), [1e-9, 2e-9])
        with pytest.raises(ValueError):
            propagate_numeric(cfg, resonances_for(cfg), [0.0, 2e-9, 1e-9])


class TestBatchedRK4:
    """The batched step-matrix integrator against the scalar RK4 loop."""

    @staticmethod
    def driven_config(**overrides):
        return reference_config(**{"mode": "driven", "Bl1": 6e-4, "Bl2": 6e-4, **overrides})

    @pytest.mark.parametrize("bz", [0.025, 0.05, 0.1])
    def test_matches_scalar_loop(self, bz):
        cfg = self.driven_config(Bz1=bz, Bz2=bz, t_max=1.5e-8)
        times = np.linspace(0, 1e-9, 101)
        batched = propagate_numeric(cfg, resonances_for(cfg), times)
        reference, _ = _scalar_states(cfg, times)
        assert np.max(np.abs(batched.states - reference)) <= 1e-12

    def test_non_uniform_grid(self):
        # Intervals of 1 to ~50 steps share chunks (identity padding); one
        # interval of more than two chunks' worth of steps is split.
        cfg = self.driven_config(dt=2e-13, t_max=4e-9)
        spans = np.random.default_rng(3).uniform(1e-14, 1e-11, 200)
        spans[57] = (2 * STEPS_PER_CHUNK + 37) * 2e-13
        times = np.concatenate([[0.0], np.cumsum(spans)])
        batched = propagate_numeric(cfg, resonances_for(cfg), times)
        reference, _ = _scalar_states(cfg, times)
        assert np.max(np.abs(batched.states - reference)) <= 1e-12

    def test_segment_longer_than_a_chunk(self):
        cfg = self.driven_config()
        hfun = time_dependent_hamiltonian(cfg, resonances_for(cfg))
        dt = 1e-12
        horizon = (3 * STEPS_PER_CHUNK + 5) * dt
        batched = rk4_segment(hfun, UNIFORM.copy(), 0.0, horizon, dt)
        reference = _scalar_rk4_segment(hfun, UNIFORM.copy(), 0.0, horizon, dt)
        assert np.max(np.abs(batched - reference)) <= 1e-12

    def test_norm_drift_names_first_offending_sample(self):
        # One step per sample: the drift crosses the tolerance past the
        # first chunk of samples.
        cfg = self.driven_config(Bl1=5e-4, Bl2=5e-4, dt=2e-12, t_max=4e-9)
        times = np.linspace(0, 4e-9, 2001)
        _, first_drift = _scalar_states(cfg, times)
        assert first_drift is not None and first_drift > times[STEPS_PER_CHUNK]
        with pytest.raises(NormDrift) as info:
            propagate_numeric(cfg, resonances_for(cfg), times)
        reported = float(re.search(r"at t=(\S+) s", str(info.value)).group(1))
        assert reported == float(f"{first_drift:.6e}")

    @pytest.mark.parametrize("dt", [2e-11, 5e-11])
    def test_norm_drift_names_the_substep_taken(self, dt):
        # No step is longer than the 1e-11 s sample spacing, whatever dt says.
        cfg = self.driven_config(dt=dt, t_max=1.2e-8)
        times = np.linspace(0, 1.2e-8, 1201)
        with pytest.raises(NormDrift, match=r"largest RK4 substep taken was 1\.000e-11 s"):
            propagate_numeric(cfg, resonances_for(cfg), times)

    @pytest.mark.parametrize("dt, taken", [(5e-11, 1e-11), (1e-11, 1e-11), (3e-12, 2.5e-12)])
    def test_largest_substep(self, dt, taken):
        # On the 1201-sample, 1.2e-8 s grid a dt above the 1e-11 s spacing is
        # never taken; a smaller one is rounded down to divide the spacing.
        times = np.linspace(0, 1.2e-8, 1201)
        assert largest_substep(times, dt) == pytest.approx(taken, rel=1e-9)

    def test_recorded_step_reproduces_the_run(self):
        # Rerunning with the step taken as dt gives the same states.
        cfg = self.driven_config(Bz1=0.01, Bz2=0.01, dt=5e-11, t_max=1.2e-8)
        times = np.linspace(0, 1.2e-8, 1201)
        res = resonances_for(cfg)
        first = propagate_numeric(cfg, res, times)
        again = propagate_numeric(cfg.replace(dt=largest_substep(times, cfg.dt)), res, times)
        np.testing.assert_array_equal(first.states, again.states)

    def test_build_drive_array_matches_scalar(self):
        cfg = self.driven_config(Bl2=3e-4)
        res = resonances_for(cfg)
        t = np.random.default_rng(5).uniform(0, 1e-8, (3, 5))
        batched = build_drive(cfg, res, t)
        assert batched.shape == (3, 5, 4, 4)
        for index in np.ndindex(t.shape):
            np.testing.assert_array_equal(batched[index], build_drive(cfg, res, t[index]))

    @pytest.mark.parametrize("mode", ["static", "driven"])
    def test_hamiltonian_callable_is_vectorized(self, mode):
        cfg = self.driven_config(mode=mode)
        hfun = time_dependent_hamiltonian(cfg, resonances_for(cfg))
        t = np.linspace(0, 1e-9, 6).reshape(2, 3)
        batched = hfun(t)
        assert batched.shape == (2, 3, 4, 4)
        for index in np.ndindex(t.shape):
            np.testing.assert_array_equal(batched[index], hfun(t[index]))
        assert hfun(1e-10).shape == (4, 4)


class TestMagnus:
    """The interaction-picture Magnus integrator of driven runs."""

    @staticmethod
    def run(cfg, times, dt_max):
        spectral = SpectralPropagator(build_static(cfg))
        return propagate_magnus(spectral, cfg, resonances_for(cfg), times, dt_max)

    def test_drive_free_reduces_to_static(self):
        # Without a drive H_I vanishes: every step is an exact identity.
        cfg = reference_config(mode="driven", Bl1=0.0, Bl2=0.0, t_max=4e-9)
        times = np.linspace(0, 4e-9, 201)
        magnus = self.run(cfg, times, 1e-12)
        exact = propagate_static(build_static(cfg), cfg.initial_state, times)
        assert np.max(np.abs(magnus.states - exact.states)) <= 1e-13

    def test_convergence_order(self):
        # 4th order: halving the step must shrink the error about 16x.
        cfg = reference_config(mode="driven", Bz1=0.025, Bz2=0.025, Bl1=1e-3, Bl2=1e-3)
        times = np.linspace(0, 2e-9, 3)
        finals = [self.run(cfg, times, dt).states[-1] for dt in (4e-11, 2e-11, 1e-11)]
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        assert np.log2(e1 / e2) >= 3.8

    @pytest.mark.parametrize("size", [0.0, 1e-3, 0.3, 2.0])
    def test_taylor_exponential(self, size):
        # exp of anti-Hermitian matrices against exp(-i w) from eigh of iA.
        rng = np.random.default_rng(11)
        z = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        a = z - z.conj().swapaxes(-1, -2)
        a *= size / np.linalg.norm(a, axis=(-2, -1), keepdims=True)
        w, v = np.linalg.eigh(1j * a)
        exact = (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        assert np.max(np.abs(_expm_taylor(a) - exact)) <= 1e-14 * max(1.0, size)
        if size == 0:
            np.testing.assert_array_equal(_expm_taylor(a), np.broadcast_to(np.eye(4), a.shape))

    def test_norm_drift_names_the_substep_taken(self):
        cfg = reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, norm_tolerance=1e-18)
        times = np.linspace(0, 1.2e-8, 1201)
        with pytest.raises(NormDrift, match=r"largest Magnus substep taken was 2\.500e-12 s"):
            self.run(cfg, times, 3e-12)

    def test_step_limit(self):
        # Refused before any step is taken.
        cfg = reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4)
        times = np.linspace(0, 1.2e-8, 1201)
        with pytest.raises(OutOfRange, match="exceed the limit"):
            self.run(cfg, times, 1.2e-8 / (2 * MAX_STEPS))


class TestRecommendedStep:
    def test_reference_scale(self):
        assert recommended_step(1.76e10) == pytest.approx(2.84e-12, rel=1e-2)

    def test_inverse_proportionality(self):
        assert recommended_step(2e10) == pytest.approx(recommended_step(1e10) / 2)

    def test_unit_case(self):
        assert recommended_step(1.0) == 0.05

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            recommended_step(0.0)


def test_trajectory_shape_guard():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 4), dtype=complex))
