import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from buckygate.config import SimulationConfig, validate
from buckygate.errors import NormDrift, OutOfRange
from buckygate.hamiltonian import build_drive, build_static, static_terms
from buckygate import propagator
from buckygate.engine import sample_times
from buckygate.propagator import (
    DEFAULT_STEP_SAFETY,
    MAGNUS_TOLERANCE,
    MAX_PHASE_PER_STEP,
    MAX_STEPS,
    STEPS_PER_CHUNK,
    BlockPropagator,
    MagnusPass,
    Trajectory,
    _RK4_STEPS_PER_CHUNK,
    _carry,
    _drive_integrals,
    _expm_taylor,
    _generator_bound,
    _real_form,
    _taylor_degree,
    hamiltonian_scale,
    magnus_steps,
    rk4_segment,
    rk4_spans,
    time_dependent_hamiltonian,
)
import rk4_oracle
from magnus_run import propagate_magnus
from rk4_oracle import propagate_numeric
from spectral_oracle import SpectralPropagator, propagate_static


def reference_config(**overrides):
    kwargs = dict(
        r=1.14e-9, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5, t_max=1.2e-8
    )
    kwargs.update(overrides)
    return validate(SimulationConfig(**kwargs))


def automatic_step(cfg):
    """The RK4 step the engine refines a driven run with."""
    scale = hamiltonian_scale(cfg, BlockPropagator(cfg))
    return DEFAULT_STEP_SAFETY * (MAX_PHASE_PER_STEP / scale)


UNIFORM = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)


def blocks_of(cfg):
    """The BlockPropagator of ``cfg``'s static Hamiltonian and initial state."""
    return BlockPropagator(cfg)


def _taylor_exp(a, degree):
    """_expm_taylor of the stack a at ``degree``, in fresh buffers."""
    return _expm_taylor(a, degree, np.empty((3,) + a.shape, dtype=a.dtype))


def _orthogonal(rng, length):
    """``length`` random orthogonal 8x8 matrices: real forms of unitaries."""
    z = rng.normal(size=(length, 4, 4)) + 1j * rng.normal(size=(length, 4, 4))
    a = z - z.conj().swapaxes(-1, -2)
    return _taylor_exp(_real_form(a), _taylor_degree(np.max(np.linalg.norm(a, axis=(-2, -1)))))


def _step_norms(terms, phases):
    """Frobenius norms of sum_q k_q A_q + sum_qr k_q k_r C_qr, with the
    complex 4x4 A_q and C_qr stacked in ``terms``, at each pair of drive
    phases w_i t_m, where k = (cos w1 t_m, cos w2 t_m, sin w1 t_m, sin w2 t_m)."""
    k = np.concatenate([np.cos(phases), np.sin(phases)], axis=1)
    weights = np.concatenate([k, (k[:, :, None] * k[:, None, :]).reshape(-1, 16)], axis=1)
    return np.linalg.norm(weights @ terms.reshape(20, 16), axis=1)


def _scalar_rk4_steps(hfun, psi, t0, t1, n):
    """Reference: n classical RK4 steps from t0 to t1, one at a time on the
    state vector."""
    h = (t1 - t0) / n
    t = t0
    for _ in range(n):
        k1 = -1j * (hfun(t) @ psi)
        k2 = -1j * (hfun(t + h / 2) @ (psi + h / 2 * k1))
        k3 = -1j * (hfun(t + h / 2) @ (psi + h / 2 * k2))
        k4 = -1j * (hfun(t + h) @ (psi + h * k3))
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return psi


def _scalar_rk4_segment(hfun, psi, t0, t1, dt_max):
    """Reference: uniform RK4 steps of at most dt_max from t0 to t1."""
    return _scalar_rk4_steps(hfun, psi, t0, t1, max(1, int(np.ceil((t1 - t0) / dt_max))))


def _scalar_states(cfg, times, dt):
    """Reference trajectory on the uniform grid ``times`` by the scalar loop,
    with the RK4 oracle's ceil(spacing / dt) steps per interval, and the first
    sample time whose squared norm leaves the tolerance band (None if none
    does)."""
    hfun = time_dependent_hamiltonian(cfg, build_static(cfg))
    steps = max(1, int(np.ceil(times[-1] / (len(times) - 1) / dt)))
    states = [np.asarray(cfg.initial_state, dtype=complex)]
    first_drift = None
    for t0, t1 in zip(times[:-1], times[1:]):
        states.append(_scalar_rk4_steps(hfun, states[-1], t0, t1, steps))
        drift = abs(np.sum(np.abs(states[-1]) ** 2) - 1.0)
        if first_drift is None and drift > propagator.NORM_TOLERANCE:
            first_drift = t1
    return np.array(states), first_drift


def _rk4_matrices_two_builds(hfun, nodes, h):
    """Reference: the RK4 step matrices with H built twice, at the nodes and
    at the midpoints, and a step size per step, h[..., k]."""
    identity = np.eye(4, dtype=complex)
    a = -1j * h[..., None, None]
    h_at_nodes = hfun(nodes)
    a_mid = a * hfun(nodes[..., :-1] + h / 2)
    a1 = a * h_at_nodes[..., :-1, :, :]
    a2 = a_mid @ (identity + a1 / 2)
    a3 = a_mid @ (identity + a2 / 2)
    a4 = (a * h_at_nodes[..., 1:, :, :]) @ (identity + a3)
    return identity + (a1 + 2 * a2 + 2 * a3 + a4) / 6


def _expm_taylor_broadcast_identity(omega, degree):
    """Reference: _expm_taylor with each I/(2k)! added to every entry as a
    broadcast identity, and omega/1! formed by a multiply."""
    identity, m = np.eye(omega.shape[-1]), degree // 2
    square, result, product = np.empty((3,) + omega.shape, dtype=omega.dtype)
    np.matmul(omega, omega, out=square)
    for k in range(m, -1, -1):
        if k < m:
            np.matmul(square, result, out=product)
        np.multiply(omega, 1 / math.factorial(2 * k + 1), out=result)
        result += identity / math.factorial(2 * k)
        if k < m:
            result += product
    return result


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestSpectral:
    def test_zero_hamiltonian_identity(self):
        times = np.linspace(0, 1e-9, 11)
        traj = propagate_static(SpectralPropagator(np.zeros((4, 4), dtype=complex)), UNIFORM, times)
        for state in traj.states:
            np.testing.assert_allclose(state, UNIFORM, atol=1e-15)

    @pytest.mark.parametrize("t_max", [1.2e-8, 1.2e-5])
    def test_matches_exp_phases(self, t_max):
        h = build_static(reference_config())
        times = np.linspace(0, t_max, 50001)
        eigenvalues, v = np.linalg.eigh(h)
        reference = (np.exp(-1j * np.outer(times, eigenvalues)) * (v.conj().T @ UNIFORM)) @ v.T
        states = propagate_static(SpectralPropagator(h), UNIFORM, times).states
        assert np.max(np.abs(states - reference)) <= 1e-15

    def test_rabi_closed_form(self):
        # From |00>, the {|00>,|11>} block oscillates with frequency
        # sqrt(m1^2 + 9 g^2) and contrast 9g^2 / (m1^2 + 9g^2).
        cfg = reference_config()
        g, m1, _ = static_terms(cfg)
        h = build_static(cfg)
        times = np.linspace(0, 2e-9, 400)
        traj = propagate_static(SpectralPropagator(h), np.array([1, 0, 0, 0], dtype=complex), times)
        omega = np.hypot(m1, 3 * g)
        expected = 1 - (9 * g**2 / omega**2) * np.sin(omega * times) ** 2
        np.testing.assert_allclose(np.abs(traj.states[:, 0]) ** 2, expected, atol=1e-10)

    def test_norm_conserved(self):
        cfg = reference_config()
        traj = propagate_static(
            SpectralPropagator(build_static(cfg)), UNIFORM, np.linspace(0, 1e-8, 500)
        )
        np.testing.assert_allclose(traj.norms, 1.0, atol=1e-12)

    def test_state_gets_the_same_bits_alone_or_in_a_batch(self):
        spectral = SpectralPropagator(build_static(reference_config()))
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(60, 4)) + 1j * rng.normal(size=(60, 4))
        dtau = rng.uniform(0.0, 1e-10, 60)
        batch = spectral.evolve(psi, dtau)
        assert all(np.array_equal(batch[j], spectral.evolve(psi[j], dtau[j])) for j in range(60))
        assert all(np.array_equal(batch[j], spectral.evolve(psi[j : j + 1], dtau[j : j + 1])[0]) for j in range(60))

    def test_energy_conserved(self):
        cfg = reference_config()
        h = build_static(cfg)
        traj = propagate_static(SpectralPropagator(h), UNIFORM, np.linspace(0, 1e-8, 300))
        energies = np.einsum("ti,ij,tj->t", traj.states.conj(), h, traj.states).real
        scale = max(abs(energies[0]), np.max(np.abs(np.linalg.eigvalsh(h))))
        assert np.max(np.abs(energies - energies[0])) <= 1e-8 * scale

    def test_block_populations_conserved(self):
        cfg = reference_config()
        traj = propagate_static(
            SpectralPropagator(build_static(cfg)), UNIFORM, np.linspace(0, 1e-8, 300)
        )
        p_outer = np.abs(traj.states[:, 0]) ** 2 + np.abs(traj.states[:, 3]) ** 2
        p_inner = np.abs(traj.states[:, 1]) ** 2 + np.abs(traj.states[:, 2]) ** 2
        assert np.max(np.abs(p_outer - p_outer[0])) <= 1e-10
        assert np.max(np.abs(p_inner - p_inner[0])) <= 1e-10


class TestBlockEigenbasis:
    """H0's spectrum and real eigenvectors from its two 2x2 blocks, which
    the static output and the Magnus pass read."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(r=12e-9),
            dict(Bz1=0.05, Bz2=0.025, J0=2e8),
            # {|01>,|10>} a multiple of the identity: rho_B = 0.
            dict(Bg1=0.0, Bg2=0.0, J0=0.5 * static_terms(reference_config())[0]),
        ],
        ids=["reference", "12nm", "unequal-J0", "degenerate"],
    )
    def test_blocks_diagonalize_h0(self, overrides):
        psi0 = np.array([0.6, 0.2 + 0.5j, -0.3j, 0.4 - 0.3j])
        cfg = reference_config(initial_state=psi0 / np.linalg.norm(psi0), **overrides)
        h = build_static(cfg)
        blocks = BlockPropagator(cfg)
        v, lam, b = blocks.eigenvectors, blocks.eigenvalues, np.array(blocks._coefficients)
        scale = np.abs(h).max()
        assert v.dtype == float
        np.testing.assert_allclose(v.T @ v, np.eye(4), rtol=0, atol=1e-15)
        assert np.max(np.abs((v * lam) @ v.T - h)) <= 1e-15 * scale
        np.testing.assert_allclose(np.sort(lam), np.linalg.eigvalsh(h), rtol=0, atol=1e-15 * scale)
        np.testing.assert_allclose(b, v.T @ cfg.initial_state, rtol=0, atol=1e-15)
        assert np.array_equal(blocks.components, v.T * b[:, None])
        assert blocks.components.flags.c_contiguous


# sigma1 . sigma2, the exchange term per unit J0, from the Pauli matrices.
_PAULI = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
EXCHANGE = sum(np.kron(p, p) for p in _PAULI).astype(complex)


def static_matrix_with_exchange_operator(cfg):
    """H0 as a complex matrix with J0 sigma1 . sigma2 added in complex
    arithmetic: the blocks' entries must be its entries bit for bit."""
    g, m1, m2 = static_terms(cfg)
    h = np.array(
        [[g + m1, 0, 0, -3 * g], [0, -g + m2, -g, 0], [0, -g, -g - m2, 0], [-3 * g, 0, 0, g - m1]],
        dtype=complex,
    )
    return h + cfg.J0 * EXCHANGE if cfg.J0 != 0 else h


class TestBlockEntries:
    """The blocks' entries come from the config in Python floats, and they,
    build_static's matrix and the blocks' scale are those of H0 built with
    the exchange operator, bit for bit."""

    @pytest.mark.parametrize(
        "overrides, rho_b",
        [
            (dict(), None),
            (dict(J0=3e7), None),
            (dict(J0=-4.5e8), None),
            (dict(Bg1=0.0, Bg2=0.0), None),  # equal fields: m2 = 0
            (dict(r=12e-9, Bz1=0.3, Bz2=0.05, Bg1=-2e-4, Bg2=1e-4, J0=-1.25e3), None),
            # {|01>,|10>} a multiple of the identity: rho_B = 0.
            (dict(Bg1=0.0, Bg2=0.0, J0=0.5 * static_terms(reference_config())[0]), 0.0),
        ],
        ids=["reference", "J0-positive", "J0-negative", "equal-fields", "12nm-unequal", "degenerate"],
    )
    def test_entries_and_scale_are_h0s(self, overrides, rho_b):
        cfg = reference_config(**overrides)
        h = static_matrix_with_exchange_operator(cfg)
        assert build_static(cfg).tobytes() == h.tobytes()
        assert not h.imag.any()
        blocks = BlockPropagator(cfg)
        places = [(0, 0), (0, 3), (3, 3), (1, 1), (1, 2), (2, 2)]
        assert all(type(x) is float for x in blocks.entries)
        assert blocks.entries == [h[m, n].real for m, n in places]
        rebuilt = np.zeros((4, 4))
        for (m, n), x in zip(places, blocks.entries):
            rebuilt[m, n] = rebuilt[n, m] = x
        assert np.array_equal(rebuilt, h.real)
        assert blocks.scale == np.abs(h).max()
        res = cfg.resonances
        assert hamiltonian_scale(cfg, blocks) == max(np.abs(h).max(), abs(res.omega1), abs(res.omega2))
        assert blocks.s == (h[0, 0].real + h[3, 3].real) - (h[1, 1].real + h[2, 2].real)
        if rho_b is not None:
            assert blocks.rho[1] == rho_b

class TestNumeric:
    def test_matches_spectral_oracle(self):
        cfg = reference_config(t_max=1e-8)
        times = np.linspace(0, 1e-8, 401)
        numeric = propagate_numeric(cfg, times, 5e-13)
        exact = propagate_static(SpectralPropagator(build_static(cfg)), cfg.initial_state, times)
        assert np.max(np.abs(numeric.states - exact.states)) <= 1e-8

    def test_drive_free_driven_mode_reduces_to_static(self):
        cfg = reference_config(mode="driven", Bl1=0.0, Bl2=0.0, t_max=4e-9)
        times = np.linspace(0, 4e-9, 201)
        numeric = propagate_numeric(cfg, times, 5e-13)
        exact = propagate_static(SpectralPropagator(build_static(cfg)), cfg.initial_state, times)
        # dominated by RK4 truncation error, same bound as the oracle check
        assert np.max(np.abs(numeric.states - exact.states)) <= 1e-8

    def test_norm_drift_detected(self):
        cfg = reference_config(t_max=1.2e-8)
        times = np.linspace(0, 1.2e-8, 109)
        with pytest.raises(NormDrift):
            propagate_numeric(cfg, times, 1.1e-10)  # ~2 rad per step

    def test_convergence_order(self):
        # Classical RK4: halving dt must shrink the one-shot error ~16x.
        cfg = reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4)
        hfun = time_dependent_hamiltonian(cfg, build_static(cfg))
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
            propagate_numeric(cfg, [1e-9, 2e-9], 5e-13)
        with pytest.raises(ValueError):
            propagate_numeric(cfg, [0.0, 2e-9, 1e-9], 5e-13)


class TestBatchedRK4:
    """The step-matrix RK4 integrator against the scalar RK4 loop."""

    @staticmethod
    def driven_config(**overrides):
        return reference_config(**{"mode": "driven", "Bl1": 6e-4, "Bl2": 6e-4, **overrides})

    @pytest.mark.parametrize("bz", [0.025, 0.05, 0.1])
    def test_matches_scalar_loop(self, bz):
        cfg = self.driven_config(Bz1=bz, Bz2=bz, t_max=1.5e-8)
        times = np.linspace(0, 1e-9, 101)
        dt = automatic_step(cfg)
        batched = propagate_numeric(cfg, times, dt)
        reference, _ = _scalar_states(cfg, times, dt)
        assert np.max(np.abs(batched.states - reference)) <= 1e-12

    def test_spans_match_scalar_loop(self):
        # One call over spans of 0 to more than two chunks' worth of steps at
        # dt, from their own states and start times: every span takes its own
        # ceil(span / dt) steps, at least one.
        cfg = self.driven_config(t_max=4e-9)
        hfun = time_dependent_hamiltonian(cfg, build_static(cfg))
        rng = np.random.default_rng(3)
        dt = 2e-13
        spans = np.array([0.0, 0.6, 1.0, 7.3, _RK4_STEPS_PER_CHUNK + 0.5, 2 * _RK4_STEPS_PER_CHUNK + 37]) * dt
        t0 = rng.uniform(0, 2e-9, len(spans))
        z = rng.normal(size=(len(spans), 4)) + 1j * rng.normal(size=(len(spans), 4))
        psi = z / np.linalg.norm(z, axis=1, keepdims=True)
        batched = rk4_spans(hfun, psi, t0, t0 + spans, dt)
        for j, span in enumerate(spans):
            reference = _scalar_rk4_segment(hfun, psi[j], t0[j], t0[j] + span, dt)
            assert np.max(np.abs(batched[j] - reference)) <= 1e-12
        np.testing.assert_array_equal(batched[0], psi[0])

    def test_span_step_limit(self, monkeypatch):
        # Each span alone is within MAX_STEPS, both together are not: refused
        # before any step matrix is built.
        cfg = self.driven_config()
        hfun = time_dependent_hamiltonian(cfg, build_static(cfg))
        built = []
        monkeypatch.setattr(propagator, "_rk4_matrices", lambda *args: built.append(args))
        t1 = np.array([3e-6, 8e-6])
        assert np.all(np.ceil(t1 / 1e-12) <= MAX_STEPS) and np.sum(np.ceil(t1 / 1e-12)) > MAX_STEPS
        with pytest.raises(OutOfRange, match="exceed the limit"):
            rk4_spans(hfun, np.array([UNIFORM, UNIFORM]), np.zeros(2), t1, 1e-12)
        assert built == []

    @pytest.mark.parametrize("count", [0, 1, 7, 129])
    def test_step_matrices_equal_the_two_build_formula(self, count):
        # H built once, at the nodes and midpoints together, with one step
        # size: the same bits as two builds with a size per step.
        cfg = self.driven_config()
        hfun = time_dependent_hamiltonian(cfg, build_static(cfg))
        rng = np.random.default_rng(count)
        for h in rng.uniform(1e-14, 1e-12, 5).tolist():
            nodes = np.cumsum(np.concatenate([[rng.uniform(0, 1e-8)], np.full(count, h)]))
            expected = _rk4_matrices_two_builds(hfun, nodes, np.full(count, h))
            assert_same_bits(propagator._rk4_matrices(hfun, nodes, h), expected)

    @pytest.mark.parametrize("end", [np.inf, np.nan])
    def test_infinite_or_nan_span_is_refused(self, monkeypatch, end):
        # Refused by the step count, before any step matrix is built.
        cfg = self.driven_config()
        hfun = time_dependent_hamiltonian(cfg, build_static(cfg))
        built = []
        monkeypatch.setattr(propagator, "_rk4_matrices", lambda *args: built.append(args))
        with pytest.raises(OutOfRange, match="exceed the limit"):
            rk4_segment(hfun, UNIFORM, 1e-9, end, 1e-12)
        with pytest.raises(OutOfRange, match="exceed the limit"):
            rk4_segment(hfun, UNIFORM, -end, 1e-9, 1e-12)
        with pytest.raises(OutOfRange, match="exceed the limit"):
            rk4_spans(hfun, np.array([UNIFORM, UNIFORM]), np.full(2, 1e-9), np.array([2e-9, end]), 1e-12)
        assert built == []

    def test_segment_longer_than_a_chunk(self):
        cfg = self.driven_config()
        hfun = time_dependent_hamiltonian(cfg, build_static(cfg))
        dt = 1e-12
        horizon = (3 * _RK4_STEPS_PER_CHUNK + 5) * dt
        batched = rk4_segment(hfun, UNIFORM.copy(), 0.0, horizon, dt)
        reference = _scalar_rk4_segment(hfun, UNIFORM.copy(), 0.0, horizon, dt)
        assert np.max(np.abs(batched - reference)) <= 1e-12

    def test_norm_drift_names_first_offending_sample(self):
        # One step per sample: the drift crosses the tolerance well into the
        # run, past the first _RK4_STEPS_PER_CHUNK samples.
        cfg = self.driven_config(Bl1=5e-4, Bl2=5e-4, t_max=4e-9)
        times = np.linspace(0, 4e-9, 2001)
        _, first_drift = _scalar_states(cfg, times, 2e-12)
        assert first_drift is not None and first_drift > times[_RK4_STEPS_PER_CHUNK]
        with pytest.raises(NormDrift) as info:
            propagate_numeric(cfg, times, 2e-12)
        reported = float(re.search(r"at t=(\S+) s", str(info.value)).group(1))
        assert reported == float(f"{first_drift:.6e}")

    @pytest.mark.parametrize("dt", [2e-11, 5e-11])
    def test_norm_drift_names_the_substep_taken(self, dt):
        # No step is longer than the 1e-11 s sample spacing, whatever dt says.
        cfg = self.driven_config(t_max=1.2e-8)
        times = np.linspace(0, 1.2e-8, 1201)
        with pytest.raises(NormDrift, match=r"largest RK4 substep taken was 1\.000e-11 s"):
            propagate_numeric(cfg, times, dt)

    def test_build_drive_array_matches_scalar(self):
        cfg = self.driven_config(Bl2=3e-4)
        t = np.random.default_rng(5).uniform(0, 1e-8, (3, 5))
        batched = build_drive(cfg, t)
        assert batched.shape == (3, 5, 4, 4)
        for index in np.ndindex(t.shape):
            np.testing.assert_array_equal(batched[index], build_drive(cfg, t[index]))

    @pytest.mark.parametrize("mode", ["static", "driven"])
    def test_hamiltonian_callable_is_vectorized(self, mode):
        cfg = self.driven_config(mode=mode)
        hfun = time_dependent_hamiltonian(cfg, build_static(cfg))
        t = np.linspace(0, 1e-9, 6).reshape(2, 3)
        batched = hfun(t)
        assert batched.shape == (2, 3, 4, 4)
        for index in np.ndindex(t.shape):
            np.testing.assert_array_equal(batched[index], hfun(t[index]))
        assert hfun(1e-10).shape == (4, 4)


def _interaction_picture(cfg, frame_time=0.0):
    """H_I(s) = P(s) V^dag D(frame_time + s) V P(s)^dag with P(s) = exp(i L s),
    from build_drive, as a callable of an array of s."""
    lam, v = np.linalg.eigh(build_static(cfg))

    def interaction(s):
        p = np.exp(1j * np.multiply.outer(s, lam))
        drive = v.conj().T @ build_drive(cfg, frame_time + s) @ v
        return p[..., :, None] * drive * p.conj()[..., None, :]

    return interaction


def _exact_magnus_terms(terms, t0, h, nodes=48):
    """Omega1[q] = -i int X_q and Omega2[q, r] = 1/2 int int_{s2 < s1}
    [-i X_q(s1), -i X_r(s2)] over t0 < s2 < s1 < t0 + h for the matrices
    X_q(s) = terms(s)[..., q, :, :], by nested Gauss-Legendre rules: for each
    outer node s1, an inner rule of ``nodes`` nodes on [t0, s1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    outer_s, outer_w = t0 + h / 2 * (1 + x), h / 2 * w
    outer = -1j * terms(outer_s)
    inner_s = t0 + np.multiply.outer(outer_s - t0, (1 + x) / 2)
    inner_w = np.multiply.outer(outer_s - t0, w / 2)
    inner = np.einsum("ak,akqij->aqij", inner_w, -1j * terms(inner_s))
    omega1 = np.einsum("a,aqij->qij", outer_w, outer)
    omega2 = 0.5 * np.einsum("a,aqrij->qrij", outer_w,
                             outer[:, :, None] @ inner[:, None] - inner[:, None] @ outer[:, :, None])
    return omega1, omega2


class TestMagnus:
    """The interaction-picture Magnus integrator of driven runs."""

    @staticmethod
    def run(cfg, times, steps):
        return propagate_magnus(blocks_of(cfg), cfg, times, steps)

    def test_drive_free_reduces_to_static(self):
        # Without a drive H_I vanishes: every step is an exact identity.
        cfg = reference_config(mode="driven", Bl1=0.0, Bl2=0.0, t_max=4e-9)
        times = np.linspace(0, 4e-9, 201)
        magnus = self.run(cfg, times, 20)
        exact = propagate_static(SpectralPropagator(build_static(cfg)), cfg.initial_state, times)
        assert np.max(np.abs(magnus.states - exact.states)) <= 1e-13

    def test_convergence_order(self):
        # 4th order: halving the step must shrink the error about 16x.
        cfg = reference_config(mode="driven", Bz1=0.025, Bz2=0.025, Bl1=1e-3, Bl2=1e-3)
        times = np.linspace(0, 2e-9, 3)
        finals = [self.run(cfg, times, steps).states[-1] for steps in (25, 50, 100)]
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        assert np.log2(e1 / e2) >= 3.8

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(Bl1=1e-3, Bl2=2e-4),
            dict(Bz1=0.05, Bz2=0.025, Bl1=3e-4, Bl2=8e-4, J0=2e8),
        ],
    )
    def test_matches_a_direct_interaction_picture_step(self, overrides):
        # The textbook step, from the one drive definition: H_I(t) =
        # exp(i L t) V^dag (H(t) - H0) V exp(-i L t), Omega = Omega1 + Omega2
        # by a fine nested quadrature, exp(Omega) by eigh.  12 steps of
        # 2.5e-11 s carry the drive phases over 1.3 to 5.3 rad; the spins
        # differ in field and drive, and the state is not symmetric in them.
        psi0 = np.array([0.6, 0.2 + 0.5j, -0.3j, 0.4 - 0.3j])
        cfg = reference_config(mode="driven", initial_state=psi0 / np.linalg.norm(psi0), **overrides)
        lam, v = np.linalg.eigh(build_static(cfg))
        interaction = _interaction_picture(cfg)
        times = np.linspace(0, 3e-10, 4)
        h = 2.5e-11
        phi, expected = v.conj().T @ cfg.initial_state, [cfg.initial_state]
        for k in range(12):
            t = k * h
            omega1, omega2 = _exact_magnus_terms(lambda s: interaction(s)[..., None, :, :], t, h, nodes=16)
            omega = omega1[0] + omega2[0, 0]
            w, u = np.linalg.eigh(1j * omega)
            phi = (u * np.exp(-1j * w)) @ u.conj().T @ phi
            if k % 4 == 3:
                expected.append(v @ (np.exp(-1j * lam * (t + h)) * phi))
        magnus = self.run(cfg, times, 4)
        assert np.max(np.abs(magnus.states - expected)) <= 1e-14

    @pytest.mark.parametrize("phase", [1e-8, 1e-4, 0.1, 1.0, 5.0, 30.0])
    def test_drive_integrals_match_a_fine_quadrature(self, phase):
        # The A_q and C_qr of a step whose largest frequency times the step is
        # ``phase``, against their definitions with F_q(s) =
        # c_q(s) P(s) V^dag a_i D_i V P(s)^dag, c_q = cos(w_i s) or
        # -sin(w_i s).  C is compared on the scale of (|D| h)^2, not of its
        # own size: the F_q nearly commute, so C is about ``phase`` times
        # smaller, and a formula that divides by a small frequency loses
        # exactly those digits.
        cfg = reference_config(mode="driven", Bz1=0.05, Bz2=0.025, Bl1=3e-4, Bl2=8e-4, J0=2e8)
        res = cfg.resonances
        blocks = blocks_of(cfg)
        lam, v = blocks.eigenvalues, blocks.eigenvectors
        h = phase / (np.ptp(lam) + max(abs(res.omega1), abs(res.omega2)))
        # a_i(0) V^dag D_i V, from build_drive with the other spin undriven.
        drives = [v.conj().T @ build_drive(replace(cfg, **{other: 0.0}), 0.0) @ v for other in ("Bl2", "Bl1")]

        def terms(s):
            p = np.exp(1j * np.multiply.outer(s, lam))
            c = [np.cos(res.omega1 * s), np.cos(res.omega2 * s), -np.sin(res.omega1 * s), -np.sin(res.omega2 * s)]
            f = np.stack([c_q[..., None, None] * d for c_q, d in zip(c, drives * 2)], axis=-3)
            return p[..., None, :, None] * f * p.conj()[..., None, None, :]

        a, c = _drive_integrals(blocks, cfg, h)
        omega1, omega2 = _exact_magnus_terms(terms, -h / 2, h)
        scale = h * np.max(np.abs(build_drive(cfg, 0.0)))
        assert np.max(np.abs(a - omega1)) <= 1e-14 * scale
        assert np.max(np.abs(c - omega2)) <= 1e-14 * scale**2

    @pytest.mark.parametrize(
        "bz, bl, t_max",
        [(0.1, 1e-3, 1.5e-8), (0.025, 1e-3, 1.5e-8), (0.1, 1e-6, 4e-6), (0.5, 1e-3, 1.5e-8), (1.0, 1e-3, 1.5e-8)],
    )
    def test_step_rule_meets_its_tolerance(self, bz, bl, t_max):
        # Against the same run at 8 times as many steps.  The third point is
        # on the 50 001-sample cap with a weak drive: one step per interval
        # advances 1.4 rad at the Hamiltonian scale, beyond the 0.5 rad of the
        # points the error model was fitted on.  At 0.5 and 1 T the
        # quarter-step RK4 oracle cannot see an error below about 3e-10;
        # there two steps per interval read 7.9e-11 and 2.0e-11, one step
        # fewer 1.2e-9 and 3.1e-10.
        cfg = reference_config(mode="driven", Bz1=bz, Bz2=bz, Bl1=bl, Bl2=bl, t_max=t_max)
        scale = hamiltonian_scale(cfg, BlockPropagator(cfg))
        times = sample_times(t_max, scale)
        steps = magnus_steps(cfg, scale, times)
        fine = self.run(cfg, times, 8 * steps)
        assert np.max(np.abs(self.run(cfg, times, steps).states - fine.states)) <= MAGNUS_TOLERANCE

    @pytest.mark.parametrize(
        "bl, t_max, phase",
        [(1e-3, 2e-5, propagator.MAX_PHASE_PER_STEP), (0.0, 1e-3, propagator.MAX_MAGNUS_PHASE)],
        ids=["strong-drive-long-run", "drive-free"],
    )
    def test_step_rule_bounds(self, bl, t_max, phase):
        # On the 50 001-sample cap at 0.1 T.  A long, strongly driven run
        # takes no more steps than resolve the Zeeman precession at 0.05 rad
        # per step, where the fitted error alone would ask for more; a
        # drive-free run needs no step for accuracy, and only the phase per
        # step bounds its count.
        cfg = reference_config(mode="driven", Bl1=bl, Bl2=bl, t_max=t_max)
        scale = hamiltonian_scale(cfg, BlockPropagator(cfg))
        times = sample_times(t_max, scale)
        spacing = times[-1] / (len(times) - 1)
        assert magnus_steps(cfg, scale, times) == np.ceil(scale * spacing / phase) > 1

    @pytest.mark.parametrize("steps_per_chunk", [4, 5, 100])
    def test_chunk_size_that_does_not_divide_an_interval(self, monkeypatch, steps_per_chunk):
        # Chunks of 4, 5 or 100 steps against intervals of 3, 6 or 7 steps:
        # the samples fall at every offset inside a chunk, and where an
        # interval is longer than a chunk some chunks hold no sample at all.
        cfg = reference_config(mode="driven", Bl1=6e-4, Bl2=2e-4)
        times = np.linspace(0, 3e-9, 201)
        for steps in (3, 6, 7):
            default = self.run(cfg, times, steps)
            with monkeypatch.context() as patch:
                patch.setattr(propagator, "STEPS_PER_CHUNK", steps_per_chunk)
                chunked = self.run(cfg, times, steps)
            assert np.max(np.abs(chunked.states - default.states)) <= 1e-13, steps

    def test_non_uniform_grid_is_refused(self):
        cfg = reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4)
        times = np.linspace(0, 1e-9, 11)
        times[3] += 1e-12
        with pytest.raises(ValueError, match="uniform grid"):
            self.run(cfg, times, 100)

    @pytest.mark.parametrize("size", [0.0, 1e-3, 0.3, 2.0])
    def test_taylor_exponential(self, size):
        # exp of anti-Hermitian matrices against exp(-i w) from eigh of iA.
        rng = np.random.default_rng(11)
        z = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        a = z - z.conj().swapaxes(-1, -2)
        a *= size / np.linalg.norm(a, axis=(-2, -1), keepdims=True)
        w, v = np.linalg.eigh(1j * a)
        exact = (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        result = _taylor_exp(a, _taylor_degree(size))
        assert np.max(np.abs(result - exact)) <= 1e-14 * max(1.0, size)
        if size == 0:
            np.testing.assert_array_equal(result, np.broadcast_to(np.eye(4), a.shape))

    @pytest.mark.parametrize("size", [0.0, 1e-3, 0.3, 2.0])
    def test_taylor_exponential_of_the_real_form(self, size):
        # The inputs of test_taylor_exponential, in the real form the Magnus
        # pass carries: the same exponential at the same degree.
        rng = np.random.default_rng(11)
        z = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        a = z - z.conj().swapaxes(-1, -2)
        a *= size / np.linalg.norm(a, axis=(-2, -1), keepdims=True)
        real = _taylor_exp(_real_form(a), _taylor_degree(size))
        assert real.dtype == float and real.shape == (6, 8, 8)
        assert np.max(np.abs(real - _real_form(_taylor_exp(a, _taylor_degree(size))))) <= 1e-15

    @pytest.mark.parametrize("degree", [1, 3, 5, 7])
    def test_taylor_exponential_equals_the_broadcast_identity_formula(self, degree):
        # The identity terms added on the diagonal alone: the same bits as a
        # broadcast identity, on real forms of random anti-Hermitian matrices.
        rng = np.random.default_rng(degree)
        z = rng.normal(size=(9, 4, 4)) + 1j * rng.normal(size=(9, 4, 4))
        a = z - z.conj().swapaxes(-1, -2)
        a *= rng.uniform(0.01, 1.5, (9, 1, 1)) / np.linalg.norm(a, axis=(-2, -1), keepdims=True)
        real = _real_form(a)
        assert_same_bits(_taylor_exp(real, degree), _expm_taylor_broadcast_identity(real, degree))

    @pytest.mark.parametrize("a_size", [0.0, 1.0])
    def test_generator_bound_holds_for_any_phases(self, a_size):
        # Random A and C of like size, or C alone, against Omega at random
        # midpoint phases: on the driven grids above C is too small to show.
        rng = np.random.default_rng(7)
        z = rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4))
        z[:4] *= a_size
        norms = _step_norms(z, rng.uniform(0, 2 * np.pi, size=(20000, 2)))
        assert _generator_bound(_real_form(z).reshape(20, 64)) >= np.max(norms) > 0

    @pytest.mark.parametrize(
        "overrides",
        [dict(Bz1=bz, Bz2=bz, Bl1=bl, Bl2=bl) for bz in (0.025, 0.05, 0.1) for bl in (2e-4, 6e-4, 1e-3)]
        + [dict(Bl1=1e-3, Bl2=0.0), dict(Bz1=0.05, Bz2=0.025, Bl1=3e-4, Bl2=8e-4, J0=2e8)],
    )
    def test_taylor_degree_holds_for_every_step(self, overrides):
        # The per-run bound of _generator_bound against the Frobenius norm
        # of every step's Omega on the engine's grid over 15 ns, and its
        # degree against the degree of each chunk's largest step.
        cfg = reference_config(mode="driven", t_max=1.5e-8, **overrides)
        res = cfg.resonances
        blocks = blocks_of(cfg)
        scale = hamiltonian_scale(cfg, BlockPropagator(cfg))
        times = sample_times(cfg.t_max, scale)
        steps = magnus_steps(cfg, scale, times)
        h = times[-1] / (steps * (len(times) - 1))
        a, c = _drive_integrals(blocks, cfg, h)
        terms = np.concatenate([a, c.reshape(16, 4, 4)])
        phases = np.multiply.outer((np.arange(steps * (len(times) - 1)) + 0.5) * h, [res.omega1, res.omega2])
        norms = _step_norms(terms, phases)
        bound = _generator_bound(_real_form(terms).reshape(20, 64))
        assert bound >= np.max(norms)
        degrees = {
            _taylor_degree(np.max(norms[j : j + STEPS_PER_CHUNK])) for j in range(0, len(norms), STEPS_PER_CHUNK)
        }
        assert degrees == {_taylor_degree(bound)}

    def test_real_form_keeps_products_and_adjoints(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(_real_form(a @ b), _real_form(a) @ _real_form(b), atol=1e-14)
        np.testing.assert_array_equal(_real_form(a.conj().swapaxes(-1, -2)), _real_form(a).swapaxes(-1, -2))
        image = _real_form(a) @ np.concatenate([psi.real, psi.imag])
        np.testing.assert_allclose(image[:, :4] + 1j * image[:, 4:], a @ psi, atol=1e-14)

    def test_norm_drift_names_the_substep_taken(self, monkeypatch):
        monkeypatch.setattr(propagator, "NORM_TOLERANCE", 1e-18)
        cfg = reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4)
        times = np.linspace(0, 1.2e-8, 1201)
        with pytest.raises(NormDrift, match=r"largest Magnus substep taken was 2\.500e-12 s"):
            self.run(cfg, times, 4)

    def test_step_limit(self):
        # Refused before any step is taken.
        cfg = reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4)
        times = np.linspace(0, 1.2e-8, 1201)
        with pytest.raises(OutOfRange, match="exceed the limit"):
            self.run(cfg, times, MAX_STEPS // 1200 + 1)


class TestChunks:
    """How the Magnus pass groups its steps and the RK4 oracle its sample
    intervals, and how they advance the state."""

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 7, 8, 9, 64, 104, 128, 337, 513, STEPS_PER_CHUNK])
    @pytest.mark.parametrize("form", ["real", "complex"])
    def test_carry_matches_a_loop(self, length, form):
        rng = np.random.default_rng(length)
        m = _orthogonal(rng, length)
        psi = rng.normal(size=8)
        if form == "complex":
            # The unitaries whose real forms m holds.
            m, psi = m[:, :4, :4] + 1j * m[:, 4:, :4], psi[:4] + 1j * psi[4:]
        states = _carry(m, psi, np.empty_like(m))
        expected = []
        for u in m:
            psi = u @ psi
            expected.append(psi)
        assert states.dtype == m.dtype
        assert np.max(np.abs(states - expected)) <= 1e-14

    @pytest.mark.parametrize("form", ["real", "complex"])
    def test_carry_prefix_does_not_depend_on_the_chunk_length(self, form):
        # The first k states of a chunk are the same bits however many steps
        # follow them in it: where a pass stops does not change them.
        rng = np.random.default_rng(3)
        m = _orthogonal(rng, STEPS_PER_CHUNK)
        psi = rng.normal(size=8)
        if form == "complex":
            m, psi = m[:, :4, :4] + 1j * m[:, 4:, :4], psi[:4] + 1j * psi[4:]
        whole = _carry(m, psi, np.empty_like(m))
        for length in (1, 2, 3, 7, 8, 64, 100, 337, STEPS_PER_CHUNK - 1):
            np.testing.assert_array_equal(_carry(m[:length], psi, np.empty_like(m)), whole[:length])

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 9, 337, STEPS_PER_CHUNK])
    def test_carry_keeps_m_and_reads_no_more_than_its_work(self, length):
        # len(m) - 1 matrices of work, the most _carry may use, filled with
        # NaN, which no product reads before writing.
        rng = np.random.default_rng(length)
        m = _orthogonal(rng, length)
        before = m.copy()
        psi = rng.normal(size=8)
        states = _carry(m, psi, np.full((length - 1, 8, 8), np.nan))
        np.testing.assert_array_equal(m, before)
        np.testing.assert_array_equal(states, _carry(m, psi, np.empty_like(m)))
        assert np.all(np.isfinite(states))

    @pytest.mark.parametrize("count", [1, 6, 128, 263, STEPS_PER_CHUNK, 2 * STEPS_PER_CHUNK + 7])
    def test_chunks_carry_every_step_once_in_order(self, monkeypatch, count):
        # The run's 30 * count steps are built STEPS_PER_CHUNK at a time,
        # in order, the last build holding the rest, whether a chunk holds
        # many intervals or part of one; each build goes to _carry as built.
        # _carry's recursive calls on its pair products also go through the
        # patched name, so only the calls whose m is a build are counted.
        builds, carried = [], []
        magnus_steps_of = propagator._magnus_steps
        carry = propagator._carry

        def build(blocks, config, h, rotation, buffers):
            step_matrices = magnus_steps_of(blocks, config, h, rotation, buffers)

            def record(j, n):
                assert n <= len(buffers[0])
                m = step_matrices(j, n)
                builds.append((j, n, m))
                return m

            return record

        def record_carry(m, psi, work):
            carried.append(m)
            return carry(m, psi, work)

        monkeypatch.setattr(propagator, "_magnus_steps", build)
        monkeypatch.setattr(propagator, "_carry", record_carry)
        cfg = reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4)
        times = np.linspace(0, 1e-10, 31)
        norms = TestMagnus.run(cfg, times, count).norms
        total = 30 * count
        expected = [(j, min(STEPS_PER_CHUNK, total - j)) for j in range(0, total, STEPS_PER_CHUNK)]
        assert [(j, n) for j, n, _ in builds] == expected
        carried = [c for c in carried if any(c is m for _, _, m in builds)]
        assert len(carried) == len(builds) and all(c is m for c, (_, _, m) in zip(carried, builds))
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    @pytest.mark.parametrize("count", [1, 6, 128, 263])
    def test_oracle_chunks_hold_whole_intervals(self, monkeypatch, count):
        # The RK4 oracle carries one whole sample interval per rk4_segment
        # call, in order, each in ``count`` steps, and matches the scalar loop.
        spans = []
        segment = rk4_oracle.rk4_segment

        def record(hfun, psi, t0, t1, dt_max):
            spans.append((t0, t1, max(1, int(np.ceil((t1 - t0) / dt_max)))))
            return segment(hfun, psi, t0, t1, dt_max)

        monkeypatch.setattr(rk4_oracle, "rk4_segment", record)
        cfg = reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4)
        times = np.linspace(0, 1e-10, 31)
        dt = 1e-10 / 30 / (count - 0.5)
        numeric = propagate_numeric(cfg, times, dt)
        assert spans == [(t0, t1, count) for t0, t1 in zip(times[:-1], times[1:])]
        reference, _ = _scalar_states(cfg, times, dt)
        assert np.max(np.abs(numeric.states - reference)) <= 1e-12
        np.testing.assert_allclose(numeric.norms, 1.0, atol=1e-12)


class TestMagnusPass:
    """A Magnus pass taken in several calls, as the engine takes a driven run
    to its gate and completes it later."""

    # 300 intervals of 3 steps: chunks of 7, 100 and 512 steps begin and end
    # inside intervals.
    CFG = reference_config(mode="driven", Bl1=6e-4, Bl2=2e-4)
    TIMES = np.linspace(0, 3e-9, 301)
    STEPS = 3

    def start(self):
        """A pass advanced by 7 and then 100 steps."""
        run = MagnusPass(blocks_of(self.CFG), self.CFG, self.TIMES, self.STEPS)
        run.advance(7)
        run.advance(100)
        return run

    def test_uneven_advances_match_one_pass(self):
        whole = TestMagnus.run(self.CFG, self.TIMES, self.STEPS)
        run = MagnusPass(blocks_of(self.CFG), self.CFG, self.TIMES, self.STEPS)
        assert (run.taken, run.count, run.done) == (0, 1, False)
        for n, taken in [(7, 7), (100, 107), (512, 619), (10**6, 900)]:
            run.advance(n)
            traj = run.trajectory
            assert run.taken == taken and run.count == taken // self.STEPS + 1
            np.testing.assert_array_equal(traj.times, self.TIMES[: run.count])
            assert np.max(np.abs(traj.states - whole.states[: run.count])) <= 1e-13
        assert run.done

    def test_resumed_pass_matches_one_not_interrupted(self):
        # Between the calls, another run fills this thread's workspace, or
        # the rest is taken in another thread, on that thread's workspace.
        plain = self.start()
        plain.advance(plain.total)
        other = reference_config(mode="driven", Bz1=0.05, Bz2=0.05, Bl1=1e-3, Bl2=1e-3)
        run = self.start()
        TestMagnus.run(other, np.linspace(0, 2e-9, 101), 7)
        run.advance(run.total)
        np.testing.assert_array_equal(run.trajectory.states, plain.trajectory.states)
        run = self.start()
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(run.advance, run.total).result(timeout=60)
        np.testing.assert_array_equal(run.trajectory.states, plain.trajectory.states)

    def test_norm_drift_leaves_the_pass_as_it_was(self, monkeypatch):
        plain = self.start()
        plain.advance(plain.total)
        run = self.start()
        with monkeypatch.context() as patch:
            patch.setattr(propagator, "NORM_TOLERANCE", 1e-18)
            for _ in range(2):
                with pytest.raises(NormDrift):
                    run.advance(run.total)
                assert (run.taken, run.count) == (107, 36)
        run.advance(run.total)
        np.testing.assert_array_equal(run.trajectory.states, plain.trajectory.states)


    @pytest.mark.parametrize("steps", [1, 2])
    def test_stored_states_equal_the_complex_formula(self, monkeypatch, steps):
        # Each stored sample is psi = V (exp(-i L h/2) xi) of the carried row
        # [Re xi, Im xi], by the complex formula in numpy, for W = 1 and 2;
        # at W = 2 the second chunk of 7 steps starts mid-interval.
        stored = []
        store = MagnusPass._store

        def record(run, i, xi):
            stored.append((i, xi.copy()))
            store(run, i, xi)

        monkeypatch.setattr(MagnusPass, "_store", record)
        psi0 = np.array([0.6, 0.2 + 0.5j, -0.3j, 0.4 - 0.3j])
        cfg = reference_config(mode="driven", Bl1=6e-4, Bl2=2e-4, initial_state=psi0 / np.linalg.norm(psi0))
        blocks = blocks_of(cfg)
        run = MagnusPass(blocks, cfg, self.TIMES, steps)
        for n in (7, 7, 100, run.total):
            run.advance(n)
        lengths = [len(xi) for _, xi in stored]
        assert [i for i, _ in stored] == np.cumsum([0] + lengths[:-1]).tolist()
        assert sum(lengths) == len(self.TIMES) and len(stored) == 5
        v, lam = blocks.eigenvectors, blocks.eigenvalues
        states = run.trajectory.states
        for i, xi in stored:
            psi = (np.exp(-0.5j * lam * run.h) * (xi[:, :4] + 1j * xi[:, 4:])) @ v.T
            assert np.max(np.abs(states[i : i + len(xi)] - psi)) <= 1e-15
        xi0 = np.exp(0.5j * lam * run.h) * (v.T @ cfg.initial_state)
        np.testing.assert_allclose(stored[0][1][0], np.concatenate([xi0.real, xi0.imag]), rtol=0, atol=1e-15)

    @staticmethod
    def complex_norm_message(times, states):
        """The NormDrift message from the squared norms of complex states,
        |c|^2 summed, or None where every norm is within NORM_TOLERANCE."""
        drift = np.abs((np.abs(states) ** 2).sum(axis=1) - 1.0)
        within = drift <= propagator.NORM_TOLERANCE
        if within.all():
            return None
        i = within.argmin()
        return (
            f"squared norm drifted by {drift[i]:.3e} at t={times[i]:.6e} s "
            f"(tolerance {propagator.NORM_TOLERANCE:.1e}); the largest Magnus substep taken was 1.000e-11 s"
        )

    @pytest.mark.parametrize(
        "plants",
        [[(37, 1 + 3e-8)], [(37, 1 - 3e-8), (90, math.nan)], [(12, math.nan), (40, 1 + 1e-3)], [(5, 1 + 4e-9)]],
    )
    def test_planted_drift_is_found_at_the_same_sample(self, plants):
        # A drift or NaN planted in unit states: NormDrift names the first
        # sample past NORM_TOLERANCE with the message the squared moduli of
        # the complex states give; a drift within the tolerance passes.
        rng = np.random.default_rng(len(plants))
        z = rng.normal(size=(128, 4)) + 1j * rng.normal(size=(128, 4))
        states = z / np.linalg.norm(z, axis=1, keepdims=True)
        for k, factor in plants:
            states[k] *= factor
        times = np.linspace(0, 1.27e-9, 128)
        expected = self.complex_norm_message(times, states)
        if expected is None:
            propagator._check_norms(times, states, "Magnus", 1e-11)
            return
        with pytest.raises(NormDrift) as failure:
            propagator._check_norms(times, states, "Magnus", 1e-11)
        assert str(failure.value) == expected

    def test_planted_nan_in_the_pass_is_found_at_its_sample(self, monkeypatch):
        # A NaN planted in the carried rows of the second chunk fails at its
        # sample, the first stored from it.
        carry = propagator._carry

        def planted(m, psi, work):
            states = carry(m, psi, work)
            if len(m) == 100:
                states[30:] = math.nan
            return states

        monkeypatch.setattr(propagator, "_carry", planted)
        run = MagnusPass(blocks_of(self.CFG), self.CFG, self.TIMES, self.STEPS)
        run.advance(7)
        # Steps 7 to 106; step 37 ends the interval of sample 13.
        with pytest.raises(NormDrift, match=rf"drifted by nan at t={self.TIMES[13]:.6e} s"):
            run.advance(100)

    @pytest.mark.parametrize("t_end, n", [(3e-9, 301), (1.5e-8, 1001), (1.5e-8, 1389), (7.1e-9, 2), (1e-300, 7)])
    def test_only_the_linspace_grid_is_taken(self, t_end, n):
        # np.linspace(0, t_end, n), and sample_times, are taken; the same grid
        # with one inner time moved by one ulp is refused, as is a grid of
        # equal steps summed.
        blocks = blocks_of(self.CFG)
        grid = np.linspace(0.0, t_end, n)
        MagnusPass(blocks, self.CFG, grid, 1)
        MagnusPass(blocks, self.CFG, list(grid), 1)
        if t_end > 1e-100:
            MagnusPass(blocks, self.CFG, sample_times(t_end, 0.5 * (n - 1) / t_end), 1)
        for k in {1, n // 2, n - 2} - {0, n - 1}:
            for direction in (-np.inf, np.inf):
                moved = grid.copy()
                moved[k] = np.nextafter(moved[k], direction)
                with pytest.raises(ValueError, match="uniform grid"):
                    MagnusPass(blocks, self.CFG, moved, 1)
        summed = np.concatenate([[0.0], np.cumsum(np.full(n - 1, t_end / (n - 1)))])
        if not np.array_equal(summed, grid):
            with pytest.raises(ValueError, match="uniform grid"):
                MagnusPass(blocks, self.CFG, summed, 1)


def test_trajectory_shape_guard():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 4), dtype=complex))
