import json
import math
import os
import pickle
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import buckygate
from buckygate import analysis, engine, propagator
from buckygate.analysis import PHASE_TOL, composite_angle, find_gate_time, unwrap_angles, unwrap_phases
from buckygate.config import SimulationConfig, validate
from buckygate.engine import (
    TrajectoryEvaluator,
    run_simulation,
    run_trajectory,
    sample_times,
)
from buckygate.errors import ConfigError, NoCrossing, OutOfRange, PhaseAliasing, UndefinedPhase
from buckygate.fields import resonance_frequencies
from buckygate.hamiltonian import build_static, dipole_coupling, static_terms
from buckygate.propagator import (
    DEFAULT_STEP_SAFETY,
    BlockPropagator,
    MAX_PHASE_PER_STEP,
    hamiltonian_scale,
)
from rk4_oracle import propagate_numeric
from spectral_oracle import SpectralPropagator, propagate_static


def automatic_step(run):
    """DEFAULT_STEP_SAFETY times MAX_PHASE_PER_STEP rad at the run's
    Hamiltonian scale, computed afresh from its config."""
    scale = hamiltonian_scale(run.config, BlockPropagator(run.config))
    return DEFAULT_STEP_SAFETY * (MAX_PHASE_PER_STEP / scale)


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from buckygate import *", namespace)
    assert len(set(buckygate.__all__)) == len(buckygate.__all__)
    for name in buckygate.__all__:
        assert namespace[name] is getattr(buckygate, name)


def reference_config(**overrides):
    kwargs = dict(
        r=1.14e-9, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5, t_max=1.2e-8
    )
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


@pytest.fixture(scope="module")
def static_result():
    return run_simulation(reference_config())


class TestStaticRun:
    def test_gate_time_scale(self, static_result):
        assert 8e-9 < static_result.gate.tau < 11e-9

    def test_theta_at_tau_is_minus_pi(self, static_result):
        assert static_result.gate.theta_at_tau == pytest.approx(-np.pi, abs=1e-6)

    def test_trajectory_invariants(self, static_result):
        traj = static_result.trajectory
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.2e-8)
        np.testing.assert_allclose(traj.norms, 1.0, atol=1e-8)

    def test_correction_phases_consistent_with_composite_phase(self, static_result):
        # Applying the four single-qubit corrections to psi(tau) returns every
        # basis amplitude to its initial phase except |11>, which keeps the
        # composite phase: diag(1, 1, 1, e^{i theta(tau)}) psi(0).  The
        # dipolar mixing moves populations, so the phases are compared.
        ev = run_trajectory(reference_config())
        gate = static_result.gate
        s1_0, s1_1, s2_0, s2_1 = gate.correction_phases
        local = np.exp(1j * np.array([s1_0 + s2_0, s1_0 + s2_1, s1_1 + s2_0, s1_1 + s2_1]))
        corrected = local * ev.states_at([gate.tau])[0]
        target = np.array([1, 1, 1, np.exp(1j * gate.theta_at_tau)])
        target = target * static_result.trajectory.states[0]
        np.testing.assert_allclose(
            corrected / np.abs(corrected), target / np.abs(target), rtol=0, atol=1e-9
        )


class TestEvaluator:
    def test_matches_samples(self, static_result):
        ev = run_trajectory(reference_config())
        for i in [1, 100, 500]:
            t = static_result.trajectory.times[i]
            assert ev.theta_at(np.array([t]))[0][0] == pytest.approx(
                static_result.theta[i], abs=1e-9
            )
            np.testing.assert_allclose(
                ev.states_at([t])[0], static_result.trajectory.states[i], atol=1e-12
            )
        # A driven time on a sample is a zero-span rk4_segment, one identity
        # step, so it returns the stored state bit for bit.
        run = run_trajectory(reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4))
        i = [1, 100, 500]
        assert np.array_equal(run.states_at(run.trajectory.times[i]), run.trajectory.states[i])
        for k in i:
            assert run.theta_at(run.trajectory.times[[k]])[0][0] == pytest.approx(run.theta[k], abs=1e-9)

    def test_between_samples_continuity(self, static_result):
        ev = run_trajectory(reference_config())
        times = static_result.trajectory.times
        t_mid = 0.5 * (times[10] + times[11])
        lo, hi = sorted([static_result.theta[10], static_result.theta[11]])
        assert lo - 0.1 <= ev.theta_at(np.array([t_mid]))[0][0] <= hi + 0.1

    def test_theta_at_batch_matches_one_time_at_a_time(self, static_result):
        # A state gets the same bits alone or in a batch, so a Newton step,
        # theta_at at one time, agrees with a scan batch.
        ev = run_trajectory(reference_config())
        samples = ev.trajectory.times
        times = np.random.default_rng(7).uniform(samples[40], samples[46], 60)
        theta, rate = ev.theta_at(times)
        expected = np.array([np.concatenate(ev.theta_at(np.array([t]))) for t in times])
        assert np.array_equal(theta, expected[:, 0])
        assert np.array_equal(rate, expected[:, 1])


class TestDrivenRun:
    def test_driven_gate(self):
        result = run_simulation(
            reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4)
        )
        assert 8e-9 < result.gate.tau < 11.5e-9
        assert result.gate.theta_at_tau == pytest.approx(-np.pi, abs=1e-6)
        np.testing.assert_allclose(result.trajectory.norms, 1.0, atol=1e-8)

    def test_theta_at_batch_matches_one_time_at_a_time(self):
        # Times over six sample intervals, sample times among them, in one
        # batch: each is carried from its own sample in its own span's RK4
        # step count, as theta_at at that time alone carries it.
        run = run_trajectory(reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4))
        samples = run.trajectory.times
        times = np.sort(np.concatenate([
            np.random.default_rng(7).uniform(samples[40], samples[46], 60), samples[41:46]
        ]))
        expected = np.array([np.concatenate(run.theta_at(np.array([t]))) for t in times])
        theta, rate = run.theta_at(times)
        assert np.array_equal(theta, expected[:, 0])
        assert np.array_equal(rate, expected[:, 1])

    def test_drive_free_long_run_matches_static(self):
        # Rounding grows with the Magnus step count: 5 293 steps over 150 ns
        # at 0.1 T, one per sample interval, as the drive needs none.
        run = run_trajectory(reference_config(mode="driven", Bl1=0.0, Bl2=0.0, t_max=1.5e-7))
        exact = propagate_static(
            SpectralPropagator(build_static(run.config)), run.config.initial_state, run.trajectory.times
        )
        assert np.max(np.abs(run.trajectory.states - exact.states)) <= 5e-13

    def test_drive_free_horizon_beyond_the_step_limit_is_refused(self):
        # 50 001 samples over 1 s are 2e-5 s apart, 3.5e5 rad at the
        # Hamiltonian scale: the phase per Magnus step, not the drive, sets
        # the count, and the run is refused before any step is built.
        with pytest.raises(OutOfRange, match="exceed the limit"):
            run_trajectory(reference_config(mode="driven", Bl1=0.0, Bl2=0.0, t_max=1.0))

    @pytest.mark.xfail(
        strict=True,
        raises=PhaseAliasing,
        reason="the driven grid follows the Hamiltonian scale, not theta's rate where an amplitude passes near 0",
    )
    def test_strong_drive_output_unwraps(self):
        # The gate is found at 5.2874 ns, but past it an amplitude falls to
        # 0.0026 and theta steps by 1.635 rad between the output samples at
        # 28.17 and 28.20 ns, above the unwrap bound: reading theta raises
        # PhaseAliasing, which `simulate` reports as exit 3.  This passes
        # once the driven grid bounds theta's per-sample step.
        config = reference_config(
            mode="driven", Bz1=0.025, Bz2=0.025, Bg1=2e-4, Bg2=-2e-4, Bl1=1.5e-3, Bl2=1.5e-3, t_max=3e-8
        )
        result = run_simulation(config)
        assert result.gate.tau == pytest.approx(5.2874e-9, rel=1e-4)
        assert np.max(np.abs(np.diff(result.theta))) <= np.pi / 2


# The driven reference points: the benchmark's three base fields and the
# ends and middle of its drive range, over a 15 ns horizon; and one point at
# 1 T, where the grid's own spacing is short, over 1.5 ns.
DRIVEN_POINTS = [(bz, bl, 1.5e-8) for bz in (0.025, 0.05, 0.1) for bl in (2e-4, 6e-4, 1e-3)]
DRIVEN_POINTS.append((1.0, 1e-3, 1.5e-9))
DRIVEN_IDS = [
    f"Bz={bz}-Bl={bl}" + ("" if t_max == 1.5e-8 else f"-t_max={t_max}") for bz, bl, t_max in DRIVEN_POINTS
]


@pytest.mark.parametrize("bz, bl, t_max", DRIVEN_POINTS, ids=DRIVEN_IDS)
def test_driven_trajectory_matches_rk4_oracle(bz, bl, t_max):
    # RK4 at a quarter of the automatic step is within about 4e-11 of RK4 at
    # 2e-14 s on the 15 ns points.
    config = reference_config(mode="driven", Bz1=bz, Bz2=bz, Bl1=bl, Bl2=bl, t_max=t_max)
    run = run_trajectory(config)
    oracle = propagate_numeric(run.config, run.trajectory.times, automatic_step(run) / 4)
    assert np.max(np.abs(run.trajectory.states - oracle.states)) <= 1e-9
    assert np.max(np.abs(run.trajectory.norms - 1.0)) <= 1e-12


def count_magnus_steps(monkeypatch):
    """A list whose one entry counts the Magnus steps built from here on, by
    wrapping ``_magnus_steps``."""
    built = [0]
    magnus_steps_of = propagator._magnus_steps

    def counting(blocks, config, h, rotation, buffers):
        step_matrices = magnus_steps_of(blocks, config, h, rotation, buffers)

        def count(j, n):
            built[0] += n
            return step_matrices(j, n)

        return count

    monkeypatch.setattr(propagator, "_magnus_steps", counting)
    return built


# The 15 ns driven reference points, whose gates lie at 47 to 63 % of t_max.
GATE_POINTS, GATE_IDS = DRIVEN_POINTS[:9], DRIVEN_IDS[:9]


@pytest.mark.parametrize("bz, bl, t_max", GATE_POINTS, ids=GATE_IDS)
def test_gate_only_solve_builds_few_magnus_steps(bz, bl, t_max, monkeypatch):
    built = count_magnus_steps(monkeypatch)
    result = run_simulation(reference_config(mode="driven", Bz1=bz, Bz2=bz, Bl1=bl, Bl2=bl, t_max=t_max))
    gate_only = built[0]
    result.trajectory
    assert gate_only <= 0.75 * built[0], (gate_only, built[0])
    # The completed run builds every step once.
    assert built[0] == propagator.magnus_steps(
        result.config, hamiltonian_scale(result.config, BlockPropagator(result.config)), result.trajectory.times
    ) * (len(result.trajectory.times) - 1)


@pytest.mark.parametrize("bz, bl, t_max", GATE_POINTS, ids=GATE_IDS)
def test_driven_gate_does_not_depend_on_the_trajectory_read(bz, bl, t_max):
    # The same gate whether the trajectory is read before it, after it or
    # never, and from the samples of the completed run: the scan reads no
    # sample past the one after the first sampled crossing.
    config = reference_config(mode="driven", Bz1=bz, Bz2=bz, Bl1=bl, Bl2=bl, t_max=t_max)
    gate = run_simulation(config).gate
    before = run_simulation(config)
    before.trajectory
    assert before.gate == gate
    after = run_simulation(config)
    assert after.gate == gate
    after.trajectory
    assert after.gate == gate
    run = run_trajectory(config)
    tau = find_gate_time(run.trajectory.times, run.theta, run.theta_at, run.scan_step, run.window)
    assert tau == gate.tau


def test_completed_trajectory_extends_the_samples_the_gate_used(monkeypatch):
    used = []
    find = engine.find_gate_time

    def recording(times, theta, *args):
        used.append((times, theta))
        return find(times, theta, *args)

    monkeypatch.setattr(engine, "find_gate_time", recording)
    config = reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8)
    result = run_simulation(config)
    (times, theta), = used
    n = len(times)
    assert n < len(result.trajectory.times)
    np.testing.assert_array_equal(result.trajectory.times[:n], times)
    np.testing.assert_array_equal(result.theta[:n], theta)
    np.testing.assert_array_equal(result.theta, unwrap_phases(result.trajectory))
    run = run_trajectory(config)
    states = run.states_at(run._times)  # a driven time on a sample is its stored state
    assert len(states) == n
    np.testing.assert_array_equal(run.trajectory.states[:n], states)


@pytest.mark.parametrize("overrides", [{}, dict(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8)])
def test_result_pickles_with_its_whole_trajectory(overrides):
    # Pickled before its trajectory is read: the copy holds the output grid,
    # at least MIN_SAMPLES samples, not the gate's.
    result = run_simulation(reference_config(**overrides))
    copy = pickle.loads(pickle.dumps(result))
    assert len(copy.trajectory.times) >= engine.MIN_SAMPLES > len(result._run._times)
    assert copy.config == result.config
    assert pickle.dumps(copy.config) == pickle.dumps(result.config)
    assert copy.gate == result.gate
    np.testing.assert_array_equal(copy.trajectory.times, result.trajectory.times)
    np.testing.assert_array_equal(copy.trajectory.states, result.trajectory.states)
    np.testing.assert_array_equal(copy.theta, result.theta)


def test_pickled_result_keeps_its_resonances_and_gate():
    # The drive frequencies are computed once per config and read by the
    # driven solve; a copy holds the same, and the same gate.
    result = run_simulation(reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8))
    config = result.config
    copy = pickle.loads(pickle.dumps(result))
    assert copy.config.resonances == config.resonances
    assert copy.config.resonances == resonance_frequencies(config.Bz1, config.Bg1, config.Bz2, config.Bg2)
    assert copy.gate == result.gate


def recording_eigh(monkeypatch):
    """The arguments of every np.linalg.eigh call from here on."""
    calls, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return calls


def test_static_gate_propagates_no_output_grid_until_it_is_read(monkeypatch):
    # A static run reads H0 only through the closed form of its two 2x2
    # blocks, and its gate samples nothing: no eigh at all.  The output
    # grid's states are taken from the blocks on the first read of the
    # trajectory, once.
    eighs = recording_eigh(monkeypatch)
    calls, states = [], BlockPropagator.states

    def recording_states(self, times):
        calls.append(len(times))
        return states(self, times)

    monkeypatch.setattr(BlockPropagator, "states", recording_states)
    result = run_simulation(reference_config())
    assert calls == [1]  # the state at tau
    assert result._run._theta is None
    result.trajectory
    result.theta
    assert calls == [1, engine.MIN_SAMPLES]
    assert eighs == []


def test_driven_solve_calls_no_eigh_of_the_hamiltonian(monkeypatch):
    # A driven run takes its Magnus eigenbasis from the blocks too.  The
    # only eigh calls left are the Gauss-Legendre rule's, of a real Jacobi
    # matrix (_legendre_rule), none with a complex argument.
    eighs = recording_eigh(monkeypatch)
    propagator._legendre_rule.cache_clear()
    result = run_simulation(reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8))
    result.trajectory
    result.theta
    assert eighs and not any(np.iscomplexobj(a) for a in eighs)


def test_static_output_does_not_depend_on_the_gate_grid():
    # README's example: the trajectory read is the blocks' closed form on
    # the MIN_SAMPLES grid at theta's rate, with theta unwrapped from the
    # blocks' angles, bit for bit, though the gate sampled nothing; and it
    # is the spectral oracle's solution to 1e-12 (2.8e-14 in psi and 6.1e-14
    # rad in theta measured).
    run = run_trajectory(reference_config())
    times = np.linspace(0.0, 1.2e-8, engine.MIN_SAMPLES)
    blocks = BlockPropagator(run.config)
    assert run._theta is None
    np.testing.assert_array_equal(run.trajectory.times, times)
    np.testing.assert_array_equal(run.trajectory.states, blocks.states(times))
    np.testing.assert_array_equal(run.theta, unwrap_angles(times, blocks.angles(times)))
    expected = propagate_static(SpectralPropagator(build_static(run.config)), run.config.initial_state, times)
    np.testing.assert_allclose(run.trajectory.states, expected.states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(run.theta, unwrap_phases(expected), rtol=0, atol=1e-12)


def test_static_output_checks_its_states_where_an_amplitude_may_vanish(monkeypatch):
    # With the blocks' bound taken as too weak to rule a vanishing amplitude
    # out, and the floor between the least amplitude at the gate and on the
    # output grid, the gate, which reads theta in closed form and no
    # sampled state, is found, and the output read raises UndefinedPhase,
    # at every read.
    psi0 = np.array([0.6, 0.2 + 0.5j, -0.3j, 0.4 - 0.3j])
    config = reference_config(initial_state=psi0 / np.linalg.norm(psi0), t_max=4e-8)
    run = run_trajectory(config)
    head = np.abs(run.states_at([run_simulation(config).gate.tau])).min()
    tail = np.abs(run.trajectory.states).min()
    assert tail < head
    monkeypatch.setattr(engine, "AMP_FLOOR", 1.0)
    monkeypatch.setattr(analysis, "AMP_FLOOR", (head + tail) / 2)
    result = run_simulation(config)
    for _ in range(2):
        with pytest.raises(UndefinedPhase):
            result.trajectory


@pytest.mark.parametrize(
    "config",
    [reference_config(), reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8)],
    ids=["static", "driven"],
)
def test_theta_at_does_not_change_when_the_trajectory_is_read(config):
    # theta_at reads the gate's samples before and after the output is
    # computed, so it gives the same bits, here around the gate.
    run = run_trajectory(config)
    tau = run_simulation(config).gate.tau
    times = tau * np.linspace(0.5, 1.0, 17)
    before = run.theta_at(times)
    run.trajectory
    after = run.theta_at(times)
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_driven_evaluator_refuses_a_time_past_its_gate_samples():
    # The gate samples end at 10.23 ns of 30: at t_max theta_at read
    # -6.0446 rad, on a branch 2 pi off the completed output's -12.3278.  A
    # time past the last gate sample is refused, before or after the output
    # is read; the last sample itself is not.
    run = run_trajectory(reference_config(mode="driven", Bz1=0.05, Bz2=0.05, Bl1=6e-4, Bl2=6e-4, t_max=3e-8))
    last = run._times[-1]
    assert 1.0e-8 < last < 1.1e-8
    for _ in range(2):
        for times in ([run.config.t_max], [last, np.nextafter(last, 1.0)]):
            named = re.escape(f"t={max(times):.6e} s is past the last gate sample")
            with pytest.raises(ValueError, match=named):
                run.theta_at(np.array(times))
            with pytest.raises(ValueError, match=named):
                run.states_at(times)
        assert np.array_equal(run.states_at([last])[0], run.trajectory.states[len(run._times) - 1])
        assert run.theta[-1] == pytest.approx(-12.3278, abs=1e-4)


_FAULTS_PER_SOLVE = """
import json, resource, sys
from buckygate import SimulationConfig, run_simulation
bz, bl = map(float, sys.argv[1:])
config = SimulationConfig(r=1.14e-9, Bz1=bz, Bz2=bz, Bg1=6.08e-5, Bg2=-6.08e-5,
                          t_max=1.5e-8, mode="driven", Bl1=bl, Bl2=bl)
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_simulation(config)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""

_FAULTS_PER_MAGNUS_PASS = """
import json, resource, sys
import numpy as np
from buckygate import SimulationConfig
from buckygate.config import validate
from buckygate.propagator import BlockPropagator, MagnusPass
steps = int(sys.argv[1])
config = validate(SimulationConfig(r=1.14e-9, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5,
                                   t_max=1e-10, mode="driven", Bl1=6e-4, Bl2=6e-4))
blocks = BlockPropagator(config)
times = np.linspace(0, 1e-10, 31)
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run = MagnusPass(blocks, config, times, steps)
    run.advance(run.total)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def _minor_faults(script, *args):
    """Minor page faults of each run that ``script`` makes in a fresh
    interpreter, as it prints them."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(engine.__file__))
    run = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(run.stdout)


def test_driven_solves_take_few_page_faults():
    # Minor page faults of each of 6 driven solves in a fresh process, at
    # Bz 0.1 T, Bl 1 mT (2 Magnus steps per sample interval) and at Bz
    # 0.05 T, Bl 0.6 mT (1 step, so a chunk holds the most intervals).
    # After the first solve, which allocates the Magnus pass's workspace,
    # they read 0.  A chunk-sized array mapped anew on every run costs 32 or
    # more: the pass's buffers allocated per run took 64 to 320 per solve.
    for bz, bl in [(0.1, 1e-3), (0.05, 6e-4)]:
        faults = _minor_faults(_FAULTS_PER_SOLVE, bz, bl)
        assert len(faults) == 6 and max(faults[1:]) <= 5, (bz, bl, faults)


def test_magnus_pass_with_intervals_longer_than_a_chunk_takes_few_page_faults():
    # 1 031 Magnus steps per sample interval, more than STEPS_PER_CHUNK: an
    # interval spans chunks, and its steps stay in the workspace like any
    # other.  Composing each interval's steps in a new array instead took
    # 1 980 faults per run after the first.
    faults = _minor_faults(_FAULTS_PER_MAGNUS_PASS, 2 * propagator.STEPS_PER_CHUNK + 7)
    assert len(faults) == 6 and max(faults[1:]) <= 5, faults


# Driven runs at 1 to 5 Magnus steps per sample interval, over 1 001, 1 586
# and 1 413 samples.
WORKSPACE_CONFIGS = [
    reference_config(mode="driven", Bz1=bz, Bz2=bz, Bl1=bl, Bl2=bl, t_max=t_max)
    for bz, bl, t_max in [
        (0.05, 6e-4, 1.5e-8), (0.1, 1e-3, 1.5e-8), (0.3, 1e-3, 1.5e-8), (0.05, 2e-3, 2e-8), (0.1, 1e-3, 4e-8)
    ]
]


def _solve(config):
    result = run_simulation(config)
    return result.trajectory.states, result.gate.tau


def _alone(config):
    """The solve of ``config`` in a thread of its own, whose Magnus workspace
    is new."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(_solve, config).result()


def test_magnus_workspace_keeps_no_state_between_runs():
    # The same states and tau, bit for bit, whether each run has the
    # workspace to itself, follows runs of other sizes in one thread, or
    # shares the process with another thread's runs.
    alone = [_alone(config) for config in WORKSPACE_CONFIGS]
    interleaved = [_solve(config) for config in WORKSPACE_CONFIGS * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the pass too
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = list(pool.map(_solve, WORKSPACE_CONFIGS[::-1] * 2, timeout=60))[::-1]
    finally:
        sys.setswitchinterval(interval)
    for results in (interleaved, concurrent):
        for (states, tau), (states0, tau0) in zip(results, alone * 2):
            np.testing.assert_array_equal(states, states0)
            assert tau == tau0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(r=1e-300), "r=1e-300 gives g(r)=inf, not a finite positive float"),
        (dict(r=2.68e-253), "r=2.68e-253 gives g(r)=inf, not a finite positive float"),
        (dict(r=np.float64(2.68e-253)), "r=2.68e-253 gives g(r)=inf, not a finite positive float"),
        (dict(r=1e300), "r=1e+300 gives g(r)=0.0, not a finite positive float"),
        (
            dict(Bz1=1e300, Bz2=1e300),
            "Bz1=1e+300, Bg1=6.08e-05, Bz2=1e+300, Bg2=-6.08e-05 give the Zeeman "
            "frequencies m1=-inf, m2=-0.0 rad/s, not finite floats",
        ),
        (
            dict(Bg1=np.float64(1e300), Bg2=-1e300),
            "Bz1=0.1, Bg1=1e+300, Bz2=0.1, Bg2=-1e+300 give the Zeeman "
            "frequencies m1=-0.0, m2=-inf rad/s, not finite floats",
        ),
    ],
    ids=["r-1e-300", "r-2.68e-253", "r-2.68e-253-numpy", "r-1e300", "Bz-1e300", "Bg-1e300-numpy"],
)
def test_inputs_beyond_the_floats_raise_config_error(overrides, message):
    # g(r) and the Zeeman frequencies overflow or underflow on the way to
    # the error, with no exception of their own and no warning.
    with pytest.raises(ConfigError) as exc:
        run_simulation(reference_config(**overrides))
    assert str(exc.value) == message


def test_static_solve_builds_no_4x4_hamiltonian(monkeypatch):
    # A static run reads H0 through its two blocks, formed from the config:
    # neither the solve nor its output builds the matrix.
    def refused(config):
        raise AssertionError("a static run built the 4x4 H0")

    monkeypatch.setattr(engine, "build_static", refused)
    monkeypatch.setattr(buckygate.hamiltonian, "build_static", refused)
    result = run_simulation(reference_config())
    assert len(result.trajectory.times) == len(result.theta) > 1


def test_driven_solve_builds_h0_once(monkeypatch):
    calls = []
    build_static = engine.build_static

    def counting(config):
        calls.append(config)
        return build_static(config)

    monkeypatch.setattr(engine, "build_static", counting)
    run_simulation(reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8))
    assert len(calls) == 1


class TestNoCrossing:
    def test_short_horizon(self):
        with pytest.raises(NoCrossing, match=r"theta_end=\S+ rad") as exc:
            run_simulation(reference_config(t_max=1e-9))
        theta_end = float(re.search(r"theta_end=(\S+) rad", str(exc.value))[1])
        assert -np.pi < theta_end < 0

    def test_driven_short_horizon(self):
        # With no crossing the pass runs to the end: theta_end is theta at
        # the final sample of the whole run.
        config = reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=3e-9)
        with pytest.raises(NoCrossing) as exc:
            run_simulation(config)
        run = run_trajectory(config)
        assert len(run._times) == len(run.trajectory.times)
        assert f"(theta_end={run.theta[-1]:.6f} rad)" in str(exc.value)
        assert -np.pi < run.theta[-1] < 0


class TestInitialStateDependence:
    def test_identically_prepared_spins_share_gate_time(self):
        # Preparing both spins in the same (random) single-qubit state keeps
        # the {|01>,|10>} amplitudes symmetric, and the gate time is stable.
        rng = np.random.default_rng(29)
        taus = []
        for _ in range(5):
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            qn = q / np.linalg.norm(q)
            result = run_simulation(reference_config(initial_state=np.kron(qn, qn), t_max=1.5e-8))
            taus.append(result.gate.tau)
        taus = np.array(taus)
        assert (taus.max() - taus.min()) / taus.mean() <= 0.02

    def test_independent_spins_do_not_share_gate_time(self):
        # With independently random spin states the phase accumulation rate
        # genuinely depends on the initial state: the spread is large.  This
        # freezes the observed behavior so it is not mistaken for a bug.
        rng = np.random.default_rng(31)
        taus = []
        for _ in range(6):
            q1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            q2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            try:
                product = np.kron(q1 / np.linalg.norm(q1), q2 / np.linalg.norm(q2))
                result = run_simulation(reference_config(initial_state=product, t_max=6e-8))
                taus.append(result.gate.tau)
            except (NoCrossing, UndefinedPhase):
                continue
        taus = np.array(taus)
        assert len(taus) >= 4
        assert (taus.max() - taus.min()) / taus.mean() > 0.05


def test_sample_times_bounds():
    times = sample_times(1e-8, 1.76e10)
    assert times[0] == 0.0 and times[-1] == 1e-8
    assert len(times) >= 1001


@pytest.mark.parametrize("n", [2, 3, 1001, engine.MAX_SAMPLES])
@pytest.mark.parametrize("t_max", [sys.float_info.min, 1e-300, 3.7e-17, 1.2e-8, 0.1, 1.0])
def test_sample_times_is_linspace_bit_for_bit(n, t_max):
    # A rate of 0 takes the MIN_SAMPLES floor, and so does a pace that asks
    # for n = 2 or 3 samples: no grid has fewer.
    pace = (n - 1) * engine.MAX_PHASE_PER_SAMPLE / t_max
    rate = pace if n < engine.MIN_SAMPLES else 0.0 if n < engine.MAX_SAMPLES else math.inf
    times = sample_times(t_max, rate)
    assert len(times) == max(n, engine.MIN_SAMPLES)
    assert times.tobytes() == np.linspace(0.0, t_max, len(times)).tobytes()


def test_sample_times_is_linspace_on_random_draws():
    # Horizons from 1e-300 to 1 s at rates that ask for 2 to about 60 000
    # samples, below the MIN_SAMPLES floor and beyond the MAX_SAMPLES cap.
    rng = np.random.default_rng(7)
    for t_max, steps in zip(10.0 ** rng.uniform(-300, 0, 2000), 10.0 ** rng.uniform(0, 4.8, 2000)):
        t_max = float(t_max)
        times = sample_times(t_max, float(steps) * engine.MAX_PHASE_PER_SAMPLE / t_max)
        assert engine.MIN_SAMPLES <= len(times) <= engine.MAX_SAMPLES
        assert times.tobytes() == np.linspace(0.0, t_max, len(times)).tobytes()


def exact_theta(config, times):
    """Composite phase from exact eigen-evolution: unwrapped argument of
    c1 c4 conj(c2 c3), shifted to start at 0."""
    eigenvalues, v = np.linalg.eigh(build_static(config))
    coef = v.conj().T @ config.initial_state
    c = (np.exp(-1j * np.outer(times, eigenvalues)) * coef) @ v.T
    theta = np.unwrap(np.angle(c[:, 0] * c[:, 3] * np.conj(c[:, 1] * c[:, 2])))
    return theta - theta[0]


# Static inputs on which theta reaches -pi between two samples and turns back
# before the sampled series first shows a crossing.
GRAZING_INPUTS = {
    "far": dict(
        r=3.9841508631763415e-09,
        Bz1=0.06999492784419133,
        Bz2=0.06999492784419133,
        Bg1=7.293781678187397e-05,
        Bg2=-7.293781678187397e-05,
        t_max=1.0180782381492176e-06,
        initial_state=np.array(
            [
                -0.7385168178793574 - 0.017725786642797416j,
                0.355761747336612 - 0.25776306682157696j,
                0.355761747336612 - 0.2577630668215769j,
                -0.07540855839776854 + 0.25015158713684826j,
            ]
        ),
    ),
    "near": dict(
        r=1.0007584556643935e-09,
        Bz1=0.1011185947910775,
        Bz2=0.1011185947910775,
        Bg1=0.00011881894927169781,
        Bg2=-0.00011881894927169781,
        t_max=1.2907781974852246e-08,
        initial_state=np.array(
            [
                0.12046220092563976 - 0.07463275615953877j,
                -0.16745060678254217 + 0.3059202839905553j,
                -0.16745060678254217 + 0.3059202839905553j,
                -0.01243166051237492 - 0.8582018480146029j,
            ]
        ),
    ),
    # static-far seed 2, input 130: theta passes -pi by up to 6.3e-5 rad
    # from 2.81453 to 2.81466 us and turns back.  On the 34 samples theta's
    # rate alone asks for, a margin estimated from the sampled second
    # differences misses that and gives 2.8147 us; the bound h^2 m2 / 8
    # does not.
    "far-sampled-margin": dict(
        r=6.64092994189384e-09,
        Bz1=0.0705203621610508,
        Bz2=0.0705203621610508,
        Bg1=0.00010424895111771364,
        Bg2=-0.00010424895111771364,
        t_max=4.714770152010997e-06,
        initial_state=np.array(
            [
                0.35724526304823767 + 0.25760741435640344j,
                -0.15425349914133477 + 0.47186676425223667j,
                -0.15425349914133477 + 0.47186676425223667j,
                -0.5595475272512506 - 0.004004552256040968j,
            ]
        ),
    ),
}
GRAZING_IDS = [f"grazing-{name}" for name in GRAZING_INPUTS]


# A static input on which the exact theta passes -pi by 2.45e-5 rad for
# 2.2 ps, from 5.0934 to 5.0956 ns, less than the 4.59 ps scan_step: a scan
# of points alone misses it and returns tau = 5.2788 ns.
SHORT_EXCURSION = dict(
    r=9.418893731597024e-10,
    Bz1=0.06137074334382504,
    Bz2=0.06137074334382504,
    Bg1=6.459835700521751e-05,
    Bg2=-6.459835700521751e-05,
    t_max=8.609015592000644e-09,
    initial_state=np.array(
        [
            0.03581987242515923 + 0.13952575501527284j,
            0.3317100814275406 + 0.11518793013294368j,
            0.3317100814275406 + 0.11518793013294369j,
            0.6808668961479009 - 0.518719669396517j,
        ]
    ),
)


@pytest.mark.parametrize(
    "config",
    [reference_config(r=8e-9, t_max=1.2e-5)]
    + [SimulationConfig(**fields) for fields in GRAZING_INPUTS.values()]
    + [SimulationConfig(**SHORT_EXCURSION)],
    ids=["r=8nm"] + GRAZING_IDS + ["short-excursion"],
)
def test_gate_time_is_first_exact_crossing(config):
    # tau meets analysis.PHASE_TOL on the exact theta, and the exact theta
    # does not reach pi anywhere before tau.
    result = run_simulation(config)
    theta = exact_theta(result.config, np.linspace(0.0, result.gate.tau, 200_001))
    assert abs(theta[-1] + np.pi) <= 1e-7 + 1e-9
    assert np.max(np.abs(theta[:-1])) < np.pi


# Static gate time at 12 nm, from the reference tau by the r^3 scaling.
TAU_12NM = 9.54e-9 * (12 / 1.14) ** 3


def count_scan_points(monkeypatch):
    """Record the number of times passed to each call the first-crossing
    scan makes of its theta evaluator: the calls under ``_search``, the cell
    search that both the scan of sampled theta and the slow-phase window
    take."""
    counts = []
    search = analysis._search

    def counting_search(start, width, step, level, theta_fn, *args):
        def counting(points):
            counts.append(len(points))
            return theta_fn(points)

        return search(start, width, step, level, counting, *args)

    monkeypatch.setattr(analysis, "_search", counting_search)
    return counts


def exact_log_derivatives(config, times, n):
    """Im (log c_j)^(n) at ``times`` for each amplitude j, shape (4, len(times)),
    for n = 1 or 4, from the exponential sums of the amplitudes and the
    exact derivatives of c, to rounding: (log c)' = c'/c, and (log c)''''
    by Faa di Bruno's formula.  theta = Im log(c1 c4 conj(c2 c3)) sums them
    with the signs +, -, -, +."""
    eigenvalues, v = np.linalg.eigh(build_static(config))
    coef = v.conj().T @ config.initial_state
    rows = []
    for j in range(4):
        terms = np.exp(-1j * np.outer(times, eigenvalues)) * (v[j] * coef)
        c = [terms @ (-1j * eigenvalues) ** k for k in range(n + 1)]
        if n == 1:
            rows.append((c[1] / c[0]).imag)
        else:
            c0, c1, c2, c3, c4 = c
            rows.append((c4 / c0 - (4 * c1 * c3 + 3 * c2**2) / c0**2 + 12 * c1**2 * c2 / c0**3 - 6 * (c1 / c0) ** 4).imag)
    return np.array(rows)


def benchmark_like_configs(seed, r_lo, r_hi, n=2):
    """n static inputs drawn as the benchmark draws them: r log-uniform in
    [r_lo, r_hi), Bz1 = Bz2 in 0.05-0.15 T, Bg1 = -Bg2 in 3e-5-1.2e-4 T,
    both spins in one random state with min |q_i| >= 0.35, over 2.5 times
    the gate time scaled from the reference by r^3."""
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < n:
        q = rng.normal(size=2) + 1j * rng.normal(size=2)
        q /= np.linalg.norm(q)
        if min(abs(q)) < 0.35:
            continue
        r = float(np.exp(rng.uniform(np.log(r_lo), np.log(r_hi))))
        bz, bg = rng.uniform(0.05, 0.15), rng.uniform(3e-5, 1.2e-4)
        t_max = 2.5 * 9.54e-9 * (r / 1.14e-9) ** 3
        configs.append(SimulationConfig(r=r, Bz1=bz, Bz2=bz, Bg1=bg, Bg2=-bg, t_max=t_max, initial_state=np.kron(q, q)))
    return configs


BOUND_INPUTS = (
    [reference_config(), reference_config(r=12e-9, t_max=2.5 * TAU_12NM)]
    + [SimulationConfig(**fields) for fields in GRAZING_INPUTS.values()]
    + [c for seed in (1, 2, 3) for c in benchmark_like_configs(seed, 0.9e-9, 1.5e-9)]
    + [c for seed in (1, 2, 3) for c in benchmark_like_configs(seed, 3e-9, 12e-9)]
)
BOUND_IDS = ["reference", "12nm"] + GRAZING_IDS + [
    f"{kind}-{seed}-{k}" for kind in ("near", "far") for seed in (1, 2, 3) for k in range(2)
]


@pytest.mark.parametrize("config", BOUND_INPUTS, ids=BOUND_IDS)
def test_fourth_derivative_bound_holds(config):
    # The blocks' bound on |theta''''| holds everywhere; on a dense grid of
    # 16 points per period of the largest eigenvalue gap, over two periods
    # of the slow beat, the exact theta'''' reaches at least a quarter of
    # it, so the bound sizes the scan's cells without waste.
    run = run_trajectory(config)
    m4 = run.window[2]
    eigenvalues = np.linalg.eigvalsh(build_static(run.config))
    period = 2 * np.pi / np.ptp(eigenvalues)
    g, _, m2 = static_terms(run.config)
    beat = 2 * np.pi / (2 * np.hypot(m2, g - 2 * run.config.J0))
    times = np.arange(0.0, min(2 * beat, run.config.t_max), period / 16)
    d = exact_log_derivatives(run.config, times, 4)
    peak = np.max(np.abs(d[0] - d[1] - d[2] + d[3]))
    assert np.isfinite(m4)
    assert peak <= m4 <= 4 * peak


def exact_rates(config, times):
    """(theta', S') at ``times``: theta' = Im sum_j +/- c_j' / c_j, and with
    S = -s t - Arg E_B, s = 2 (mu_A - mu_B) and Arg E_B = Arg(c2 c3) +
    2 mu_B t, S' = -2 mu_A - Im(c2' / c2 + c3' / c3), 2 mu_A = h00 + h33."""
    h = build_static(config).real
    d = exact_log_derivatives(config, times, 1)
    return d[0] - d[1] - d[2] + d[3], -(h[0, 0] + h[3, 3]) - d[1] - d[2]


def independent_spin_configs():
    """The six draws of test_independent_spins_do_not_share_gate_time."""
    rng = np.random.default_rng(31)
    configs = []
    for _ in range(6):
        q1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        q2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        product = np.kron(q1 / np.linalg.norm(q1), q2 / np.linalg.norm(q2))
        configs.append(reference_config(initial_state=product, t_max=6e-8))
    return configs


@pytest.mark.parametrize(
    "config",
    independent_spin_configs() + [reference_config()] + [SimulationConfig(**fields) for fields in GRAZING_INPUTS.values()],
    ids=[f"independent-{k}" for k in range(6)] + ["reference"] + GRAZING_IDS,
)
def test_rate_bounds_theta_rate(config):
    # The blocks' rate bounds hold on |theta'| and on |S'| over the whole
    # horizon, taken exactly on a dense grid of 16 points per period of the
    # largest eigenvalue gap: the static gate grid, with no MIN_SAMPLES
    # floor, relies on S's to keep the step of its samples within the
    # unwrap bound, and the output grid on theta's.  Where block B's ellipse
    # may pass through 0 (the sixth draw) both are infinite.
    config = validate(config)
    bounds = BlockPropagator(config).bounds()
    period = 2 * np.pi / np.ptp(np.linalg.eigvalsh(build_static(config)))
    times = np.arange(0.0, config.t_max, period / 16)
    theta_rate, slow_rate = exact_rates(config, times)
    assert np.max(np.abs(theta_rate)) <= bounds.rate
    assert np.max(np.abs(slow_rate)) <= bounds.slow_rate


def exact_fast_part(config, times):
    """F = Arg(E_A / K_A) at ``times``: E_A = c1 c4 exp(2 i mu_A t), block
    A's ellipse from the eigen-evolution, and K_A its centre, the mean of
    E_A over 64 points of one turn."""
    h = build_static(config).real
    eigenvalues, v = np.linalg.eigh(build_static(config))
    coef = v.conj().T @ config.initial_state
    turn = np.pi / np.hypot((h[0, 0] - h[3, 3]) / 2, h[0, 3])

    def ellipse(t):
        c = (np.exp(-1j * np.outer(t, eigenvalues)) * coef) @ v.T
        return c[:, 0] * c[:, 3] * np.exp(1j * (h[0, 0] + h[3, 3]) * t)

    centre = np.mean(ellipse(np.arange(64) * (turn / 64)))
    return np.angle(ellipse(times) / centre), turn


@pytest.mark.parametrize("config", BOUND_INPUTS, ids=BOUND_IDS)
def test_fast_part_bound_holds(config):
    # |F| = |theta - S| stays within the blocks' bound over two turns of
    # block A's ellipse, 4 096 points each, up to the rounding of the exact
    # phases, about eps |lambda| t (the bound is exact where the ellipse is
    # a circle, as at 12 nm, where the two meet within 1e-16 rad).
    config = validate(config)
    fast = BlockPropagator(config).bounds().fast
    turn = exact_fast_part(config, np.zeros(1))[1]
    slack = 8 * np.finfo(float).eps * np.max(np.abs(np.linalg.eigvalsh(build_static(config)))) * 2 * turn
    assert np.max(np.abs(exact_fast_part(config, np.linspace(0.0, 2 * turn, 8193))[0])) <= fast + slack


def test_fast_part_bound_is_tight_at_the_reference():
    # At the reference point the bound is the exact largest |F|, 9.39e-3
    # rad, to 1e-3 relative, so the window the gate scans is as narrow as
    # F allows.
    config = validate(reference_config())
    fast = BlockPropagator(config).bounds().fast
    turn = exact_fast_part(config, np.zeros(1))[1]
    peak = np.max(np.abs(exact_fast_part(config, np.linspace(0.0, turn, 100_001))[0]))
    assert peak <= fast <= peak * (1 + 1e-3)
    assert peak == pytest.approx(9.39e-3, rel=1e-3)


def spectral_theta_fn(config, times, theta):
    """theta_at of a static run as the 4x4 evolution gives it: the states
    from SpectralPropagator.evolve, theta from composite_angle on the branch
    of the sampled ``theta`` at ``times``, its rate from the H psi ratio."""
    h0 = build_static(config)
    spectral = SpectralPropagator(h0)
    theta0 = composite_angle(config.initial_state)

    def theta_fn(t):
        states = spectral.evolve(config.initial_state, t)
        raw = composite_angle(states) - theta0
        ref = np.interp(t, times, theta)
        ratio = ((states @ h0.T) / states).real
        return raw + 2 * np.pi * np.rint((ref - raw) / (2 * np.pi)), ratio[:, 1] - ratio[:, 0] + ratio[:, 2] - ratio[:, 3]

    return theta_fn


CLOSED_FORM_INPUTS = [reference_config()] + [c for seed in (1, 2, 3) for c in benchmark_like_configs(seed, 0.9e-9, 1.5e-9)]
CLOSED_FORM_IDS = ["reference"] + [f"near-{seed}-{k}" for seed in (1, 2, 3) for k in range(2)]


@pytest.mark.parametrize("config", CLOSED_FORM_INPUTS, ids=CLOSED_FORM_IDS)
def test_closed_form_theta_matches_the_spectral_path(config):
    # On 201 points over the horizon, theta from the blocks' ellipses, on
    # its own branch, matches theta unwrapped from the 4x4 evolution within
    # 1e-11 rad, and its rate the H psi ratio within 1e-11 rad over the
    # horizon (|d theta'| t_max).  Beyond 3 nm the 4x4 evolution's own
    # rounding reaches 1e-10 rad (tests/test_accuracy.py).
    run = run_trajectory(config)
    times = np.linspace(0.0, run.config.t_max, 201)
    expected = unwrap_phases(propagate_static(SpectralPropagator(build_static(run.config)), run.config.initial_state, times))
    theta, rate = run.theta_at(times)
    np.testing.assert_allclose(theta, expected, rtol=0, atol=1e-11)
    # The slow part S, on its own branch, is within fast of theta.
    blocks = BlockPropagator(run.config)
    slow = np.array([blocks.slow(t)[0] for t in times.tolist()])
    assert np.max(np.abs(slow - expected)) <= blocks.bounds().fast
    spectral_theta, spectral_rate = spectral_theta_fn(run.config, times, expected)(times)
    np.testing.assert_allclose(theta, spectral_theta, rtol=0, atol=1e-11)
    assert np.max(np.abs(rate - spectral_rate)) * run.config.t_max <= 1e-11


def test_degenerate_block_gate_time_matches_the_spectral_path():
    # Equal fields, no gradient and J0 = g/2: the {|01>,|10>} block is a
    # multiple of the identity, rho_B = 0, and E_B stands still.  The closed
    # form divides by no rho; its tau is the one the spectral path refines
    # in the same window, on the branches the closed form gives at 1 001
    # points, within the phase tolerance at theta's rate.
    r = 1.14e-9
    config = validate(reference_config(Bg1=0.0, Bg2=0.0, J0=dipole_coupling(r) / 2))
    assert BlockPropagator(config).rho[1] == 0.0
    run = run_trajectory(config)
    gate = run_simulation(config).gate
    times = np.linspace(0.0, config.t_max, 1001)
    theta_fn = spectral_theta_fn(config, times, run.theta_at(times)[0])
    tau = find_gate_time(run._times, run._theta, theta_fn, run.scan_step, run.window)
    (theta,), (rate,) = theta_fn(np.array([tau]))
    assert abs(theta + np.pi) <= PHASE_TOL
    assert abs(gate.tau - tau) <= 2 * PHASE_TOL / abs(rate)
    assert abs(gate.theta_at_tau + np.pi) <= PHASE_TOL


@pytest.mark.parametrize("j", range(4))
def test_vanishing_initial_amplitude_raises_undefined_phase(j):
    # The closed form's bound on the amplitudes' moduli is 0 here, so the
    # gate's samples are checked; c_j is 0 at the first.
    state = np.full(4, 0.5, dtype=complex)
    state[j] = 0.0
    with pytest.raises(UndefinedPhase, match=rf"\|c{j + 1}\| = .* at t=0\.0"):
        run_simulation(reference_config(initial_state=state))


def test_scan_at_12nm_takes_few_points_and_calls(monkeypatch):
    # 2.5 tau at 12 nm: the scan at a uniform 0.05 rad of the Zeeman scale
    # took 2 150 points; the Hermite cells take at most 100 in at most 3
    # calls of theta_at.
    counts = count_scan_points(monkeypatch)
    run_simulation(reference_config(r=12e-9, t_max=2.5 * TAU_12NM))
    assert len(counts) <= 3
    assert sum(counts) <= 100


@pytest.mark.parametrize(
    "config",
    [reference_config(), reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8)],
    ids=["static", "driven"],
)
def test_refinement_takes_few_evaluations(config, monkeypatch):
    # Only the Newton steps count: the theta_at calls the scan did not make.
    calls = []
    theta_at = TrajectoryEvaluator.theta_at

    def counting(self, times):
        calls.append(len(times))
        return theta_at(self, times)

    monkeypatch.setattr(TrajectoryEvaluator, "theta_at", counting)
    scanned = count_scan_points(monkeypatch)
    result = run_simulation(config)
    assert abs(result.gate.theta_at_tau + np.pi) <= PHASE_TOL
    assert 0 < len(calls) - len(scanned) <= 2


@pytest.mark.parametrize(
    "config",
    [reference_config(), reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8)],
    ids=["static", "driven"],
)
def test_state_at_tau_comes_from_the_last_refinement(config, monkeypatch):
    # tau is the last time the refinement evaluated.  A driven run's state
    # at tau is the one that evaluation carried: nothing is propagated after
    # find_gate_time returns.  A static run's theta_at evaluates no state,
    # so psi(tau) is one states_at([tau]) after it.  Either has the same
    # bits as states_at([tau]) gives.
    events, states = [], []
    find_gate_time, states_at, concurrence = engine.find_gate_time, TrajectoryEvaluator.states_at, engine.concurrence
    rk4_spans = engine.rk4_spans

    def recording_find_gate_time(*args):
        tau = find_gate_time(*args)
        events.append(("find_gate_time", tau))
        return tau

    def recording_states_at(self, times):
        events.append(("states_at", np.asarray(times)))
        return states_at(self, times)

    def recording_rk4_spans(hfun, psi, t0, t1, dt_max):
        events.append(("rk4_spans", np.asarray(t1)))
        return rk4_spans(hfun, psi, t0, t1, dt_max)

    def recording_concurrence(psi):
        states.append(psi)
        return concurrence(psi)

    monkeypatch.setattr(engine, "find_gate_time", recording_find_gate_time)
    monkeypatch.setattr(TrajectoryEvaluator, "states_at", recording_states_at)
    monkeypatch.setattr(engine, "rk4_spans", recording_rk4_spans)
    monkeypatch.setattr(engine, "concurrence", recording_concurrence)
    tau = run_simulation(config).gate.tau
    names = [name for name, _ in events]
    assert names.count("find_gate_time") == 1
    end = names.index("find_gate_time")
    if config.mode == "driven":
        assert end == len(names) - 1
        assert names[end - 1] == "rk4_spans" and events[end - 1][1][-1] == tau
    else:
        assert names[:end] == [] and names[end + 1 :] == ["states_at"]
        assert events[-1][1].tolist() == [tau]
    assert np.array_equal(states[0], run_trajectory(config).states_at([tau])[0])


# static-near seed 1 input 72: theta at tau evaluated from the one state
# alone, not as a 1-element array, reads 1 ulp off the value the refinement
# accepted (on x86-64 with numpy 2.4).
ONE_ULP_INPUT = dict(
    r=1.0551873123170203e-09,
    Bz1=0.1436646985702538,
    Bz2=0.1436646985702538,
    Bg1=5.45065049607112e-05,
    Bg2=-5.45065049607112e-05,
    t_max=1.5130472761871483e-08,
    initial_state=np.array(
        [
            -0.11141021758778262 - 0.09781499637529777j,
            -0.23760395614971064 - 0.2642364819774953j,
            -0.23760395614971064 - 0.26423648197749533j,
            -0.49105223953101823 - 0.6959414998267034j,
        ]
    ),
)
BIT_INPUTS = (
    [reference_config(), reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8)]
    + [SimulationConfig(**fields) for fields in GRAZING_INPUTS.values()]
    + [SimulationConfig(**SHORT_EXCURSION), SimulationConfig(**ONE_ULP_INPUT)]
)
BIT_IDS = ["static", "driven"] + GRAZING_IDS + ["short-excursion", "one-ulp"]


@pytest.mark.parametrize("config", BIT_INPUTS, ids=BIT_IDS)
def test_theta_at_tau_is_the_evaluators_theta_at_tau(config):
    # theta_at_tau is the value the refinement accepted: bit for bit the
    # evaluator's theta at the 1-D array [tau], as a fresh run gives it.
    gate = run_simulation(config).gate
    assert gate.theta_at_tau == run_trajectory(config).theta_at(np.array([gate.tau]))[0][0]


@pytest.mark.parametrize("config", BIT_INPUTS, ids=BIT_IDS)
def test_tau_is_a_time_the_refinement_evaluated(config, monkeypatch):
    # tau is one of the times find_gate_time passed to theta_at, so the
    # state and theta reported at tau are the ones the refinement accepted.
    evaluated, seen = [], []
    theta_at, find_gate_time = TrajectoryEvaluator.theta_at, engine.find_gate_time

    def recording_theta_at(self, times):
        evaluated.extend(np.asarray(times).tolist())
        return theta_at(self, times)

    def recording_find_gate_time(*args):
        tau = find_gate_time(*args)
        seen.extend(evaluated)
        return tau

    monkeypatch.setattr(TrajectoryEvaluator, "theta_at", recording_theta_at)
    monkeypatch.setattr(engine, "find_gate_time", recording_find_gate_time)
    assert run_simulation(config).gate.tau in seen


@pytest.mark.parametrize(
    "config",
    [reference_config()]
    + [
        reference_config(mode="driven", Bz1=bz, Bz2=bz, Bl1=bl, Bl2=bl, t_max=t_max)
        for bz, bl, t_max in (DRIVEN_POINTS[0], DRIVEN_POINTS[4], DRIVEN_POINTS[8])
    ],
    ids=["static"] + [DRIVEN_IDS[0], DRIVEN_IDS[4], DRIVEN_IDS[8]],
)
def test_theta_rate_matches_a_central_difference(config):
    # At the gate time and in the middle of its sample interval.  The step,
    # 5e-4 rad at the Hamiltonian scale (about 1e-14 s), keeps the central
    # difference's h^2 error of theta's Zeeman-scale wiggle below 1e-7.  A
    # static run's slow part S, whose closed form the gate's window comes
    # from, is checked the same way, on its own branch: nothing unwraps it.
    run = run_trajectory(config)
    tau = run_simulation(config).gate.tau
    samples = run.trajectory.times
    i = int(samples.searchsorted(tau)) - 1
    h = run.scan_step / 100
    blocks = BlockPropagator(run.config)
    for t in (tau, (samples[i] + samples[i + 1]) / 2):
        (theta_lo, _, theta_hi), (_, rate, _) = run.theta_at(np.array([t - h, t, t + h]))
        central = (theta_hi - theta_lo) / (2 * h)
        assert abs(central / rate - 1) <= 1e-6
        if config.mode == "static":
            (slow_lo, _), (_, slow_rate), (slow_hi, _) = (blocks.slow(float(x)) for x in (t - h, t, t + h))
            assert abs((slow_hi - slow_lo) / (2 * h) / slow_rate - 1) <= 1e-6


class TestThetaRateGrid:
    def test_far_static_grid_follows_theta(self):
        # At 12 nm theta turns at about 2 sqrt(m2^2 + g^2), some 1e-3 of the
        # Zeeman rate, so the grid stays near MIN_SAMPLES instead of the cap.
        run = run_trajectory(reference_config(r=12e-9, t_max=2.5 * TAU_12NM))
        assert len(run.trajectory.times) <= 2200
        assert np.max(np.abs(np.diff(run.theta))) <= 0.5
        scale = hamiltonian_scale(run.config, BlockPropagator(run.config))
        assert run.scan_step * scale == pytest.approx(0.05)

    def test_scan_points_do_not_grow_with_t_max(self, monkeypatch):
        counts = count_scan_points(monkeypatch)
        points, taus = [], []
        for factor in (2.5, 5.0, 10.0):
            counts.clear()
            result = run_simulation(reference_config(r=12e-9, t_max=factor * TAU_12NM))
            points.append(sum(counts))
            taus.append(result.gate.tau)
        # The window and its search do not depend on the horizon past tau.
        assert 0 < points[0] == points[1] == points[2]
        assert taus[0] == taus[1] == taus[2]

    def test_long_horizon_gate_equals_the_short_horizon_gate(self):
        # A bounded static gate reads no grid: at 1 ms, where 50 001 samples
        # would be 20 ns apart against a gate time of 9.5 ns, it is the gate
        # at 20 ns, bit for bit.  Only the output grid raises PhaseAliasing.
        long = run_simulation(reference_config(t_max=1e-3))
        assert long.gate == run_simulation(reference_config(t_max=2e-8)).gate
        with pytest.raises(PhaseAliasing, match="shorten t_max"):
            long.trajectory


class TestRefinementStep:
    """The RK4 step bound that refines a driven run between its samples is
    DEFAULT_STEP_SAFETY * (MAX_PHASE_PER_STEP / scale); no step taken is longer
    than the sample spacing."""

    @staticmethod
    def record_steps(monkeypatch):
        """Record the step bound of every RK4 refinement the engine makes."""
        steps = []

        def recording(*args, _original=engine.rk4_spans):
            steps.append(args[-1])
            return _original(*args)

        monkeypatch.setattr(engine, "rk4_spans", recording)
        return steps

    def test_driven_solve_refines_at_the_automatic_step(self, monkeypatch):
        config = reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4)
        run = run_trajectory(config)
        spacing = float(np.max(np.diff(run.trajectory.times)))
        assert automatic_step(run) < spacing
        steps = self.record_steps(monkeypatch)
        run_simulation(config)
        assert steps and set(steps) == {automatic_step(run)}

    @staticmethod
    def record_builds(monkeypatch):
        """Record (step count, step size) of every RK4 step matrix build."""
        builds = []

        def recording(hfun, nodes, h, _original=propagator._rk4_matrices):
            builds.append((len(nodes) - 1, h))
            return _original(hfun, nodes, h)

        monkeypatch.setattr(propagator, "_rk4_matrices", recording)
        return builds

    def test_spacing_bounds_the_step(self, monkeypatch):
        # 0.1 ns at Bz = 0.1 T is under 10 rad at the Hamiltonian scale, so
        # MIN_SAMPLES samples lie closer than the automatic step.  One build
        # per refined time.
        run = run_trajectory(reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4, t_max=1e-10))
        spacing = float(np.max(np.diff(run.trajectory.times)))
        assert spacing < automatic_step(run)
        builds = self.record_builds(monkeypatch)
        run.states_at([run.trajectory.times[1] / 2])
        run.theta_at(run.trajectory.times[1:3] - run.trajectory.times[1] / 2)
        taken = [h for _, h in builds]
        assert len(taken) == 3 and max(taken) <= spacing

    def test_theta_at_takes_each_time_in_its_own_step_count(self, monkeypatch):
        # Times at different depths in their sample intervals, one of them on
        # a sample: each is carried from its own sample in
        # max(1, ceil(depth / automatic_step(run))) steps, not in the longest
        # one's.
        run = run_trajectory(reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4))
        samples = run.trajectory.times
        starts = samples[[3, 5, 7, 9]]
        times = starts + np.array([0.1, 0.9, 0.0, 0.5]) * samples[1]
        builds = self.record_builds(monkeypatch)
        run.theta_at(times)
        counts = [max(1, int(np.ceil(depth / automatic_step(run)))) for depth in times - starts]
        assert [n for n, _ in builds] == counts
        assert len(set(counts)) == 4

    @pytest.mark.parametrize(
        "bz, bl, t_max",
        [DRIVEN_POINTS[0], DRIVEN_POINTS[4], DRIVEN_POINTS[8]],
        ids=[DRIVEN_IDS[0], DRIVEN_IDS[4], DRIVEN_IDS[8]],
    )
    def test_rk4_steps_built_are_the_segment_counts(self, monkeypatch, bz, bl, t_max):
        # Every RK4 step of a driven solve is built inside an rk4_segment
        # call, which takes max(1, ceil((t1 - t0) / dt_max)) of them, so a
        # wrapper of rk4_segment in the propagator, where rk4_spans finds
        # it, counts all the refinement's steps.
        counted = []

        def counting(hfun, psi, t0, t1, dt_max, _original=propagator.rk4_segment):
            counted.append(max(1, int(np.ceil((t1 - t0) / dt_max))))
            return _original(hfun, psi, t0, t1, dt_max)

        spans = []

        def spanning(hfun, psi, t0, t1, dt_max, _original=engine.rk4_spans):
            spans.append(len(t1))
            return _original(hfun, psi, t0, t1, dt_max)

        monkeypatch.setattr(propagator, "rk4_segment", counting)
        monkeypatch.setattr(engine, "rk4_spans", spanning)
        builds = self.record_builds(monkeypatch)
        run_simulation(reference_config(mode="driven", Bz1=bz, Bz2=bz, Bl1=bl, Bl2=bl, t_max=t_max))
        assert spans and sum(n for n, _ in builds) == sum(counted)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_driven_theta_at_builds_one_h_per_span(self, monkeypatch, k):
        # Each time is one RK4 span of at most one sample interval, whose H(t)
        # is built once, at its nodes and midpoints together, and theta's
        # rate takes one H(t) for all k times: k + 1 drive builds.
        run = run_trajectory(reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4, t_max=1.5e-8))
        samples = run._times
        times = samples[2 : 2 + k] + np.linspace(0.1, 0.9, k) * samples[1]
        builds = []

        def counting(config, t, _original=propagator.build_drive):
            builds.append(t)
            return _original(config, t)

        monkeypatch.setattr(propagator, "build_drive", counting)
        run.theta_at(times)
        assert len(builds) == k + 1

    def test_static_solve_takes_no_rk4_step(self, monkeypatch):
        steps = self.record_steps(monkeypatch)
        run_simulation(reference_config())
        assert steps == []


# Static inputs away from the benchmark's ranges: small c1 (large
# off-resonant weight), weak bias field, exchange coupling, unequal fields,
# no gradient at 6 nm.
EDGE_INPUTS = {
    "small-c1": dict(
        initial_state=np.array([0.05, 0.577, 0.577, 0.577]) / np.linalg.norm([0.05, 0.577, 0.577, 0.577]),
        t_max=4e-8,
    ),
    "weak-Bz": dict(Bz1=0.002, Bz2=0.002),
    "exchange": dict(J0=-3e7, t_max=3e-8),
    "unequal-Bz": dict(Bz1=0.1, Bz2=0.12, t_max=3e-8),
    "no-gradient-6nm": dict(r=6e-9, Bg1=0.0, Bg2=0.0, t_max=3e-6),
}


@pytest.mark.parametrize("overrides", list(EDGE_INPUTS.values()), ids=list(EDGE_INPUTS))
def test_edge_inputs_find_first_exact_crossing(overrides):
    result = run_simulation(reference_config(**overrides))
    theta = exact_theta(result.config, np.linspace(0.0, result.gate.tau, 200_001))
    assert abs(theta[-1] + np.pi) <= 1e-7 + 1e-9
    assert np.max(np.abs(theta[:-1])) < np.pi


@pytest.mark.parametrize(
    "config",
    [reference_config(), reference_config(r=8e-9, t_max=1.2e-5)]
    + [SimulationConfig(**fields) for fields in GRAZING_INPUTS.values()]
    + [reference_config(**fields) for fields in EDGE_INPUTS.values()],
    ids=["reference", "r=8nm"] + GRAZING_IDS + list(EDGE_INPUTS),
)
def test_scan_margin_bounds_theta_between_samples(config):
    # The gate scans theta only in its window, which comes from the slow
    # part S alone: outside the window's bands, up to the end of the last,
    # the exact theta stays below the level, and at that end it is past it.
    run = run_trajectory(config)
    assert run.window is not None
    start, width, _ = run.window
    dense = np.linspace(0.0, start[-1] + width[-1], 400_001)
    exact = exact_theta(run.config, dense)
    outside = np.ones(dense.size, dtype=bool)
    for a, w in zip(start, width):
        outside &= (dense < a) | (dense > a + w)
    assert np.max(np.abs(exact[outside])) < np.pi
    assert abs(exact[-1]) >= np.pi
