import numpy as np
import pytest

from buckygate import engine, propagator
from buckygate.analysis import PHASE_TOL, _scan_margin
from buckygate.config import SimulationConfig, product_state, validate
from buckygate.engine import (
    TrajectoryEvaluator,
    run_simulation,
    run_trajectory,
    sample_times,
)
from buckygate.errors import NoCrossing, PhaseAliasing, UndefinedPhase
from buckygate.hamiltonian import build_static
from buckygate.propagator import hamiltonian_scale, propagate_numeric, resolve_step


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

    def test_step_resolved(self, static_result):
        assert static_result.config.dt is not None
        assert static_result.config.dt > 0

    def test_correction_phases_consistent_with_composite_phase(self, static_result):
        # Applying the four single-qubit corrections to psi(tau) returns every
        # basis amplitude to its initial phase except |11>, which keeps the
        # composite phase: diag(1, 1, 1, e^{i theta(tau)}) psi(0).  The
        # dipolar mixing moves populations, so the phases are compared.
        ev = run_trajectory(reference_config())
        gate = static_result.gate
        s1_0, s1_1, s2_0, s2_1 = gate.correction_phases
        local = np.exp(1j * np.array([s1_0 + s2_0, s1_0 + s2_1, s1_1 + s2_0, s1_1 + s2_1]))
        corrected = local * ev.state_at(gate.tau)
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
            assert ev.theta_at(t) == pytest.approx(
                static_result.phases.theta[i], abs=1e-9
            )
            np.testing.assert_allclose(
                ev.state_at(t), static_result.trajectory.states[i], atol=1e-12
            )

    def test_between_samples_continuity(self, static_result):
        ev = run_trajectory(reference_config())
        times = static_result.trajectory.times
        t_mid = 0.5 * (times[10] + times[11])
        lo, hi = sorted([static_result.phases.theta[10], static_result.phases.theta[11]])
        assert lo - 0.1 <= ev.theta_at(t_mid) <= hi + 0.1


class TestDrivenRun:
    def test_driven_gate(self):
        result = run_simulation(
            reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4)
        )
        assert 8e-9 < result.gate.tau < 11.5e-9
        assert result.gate.theta_at_tau == pytest.approx(-np.pi, abs=1e-6)
        np.testing.assert_allclose(result.trajectory.norms, 1.0, atol=1e-8)


# The driven reference points: the benchmark's three base fields and the
# ends and middle of its drive range, over a 15 ns horizon.
DRIVEN_POINTS = [(bz, bl) for bz in (0.025, 0.05, 0.1) for bl in (2e-4, 6e-4, 1e-3)]


@pytest.mark.parametrize("bz, bl", DRIVEN_POINTS, ids=[f"Bz={bz}-Bl={bl}" for bz, bl in DRIVEN_POINTS])
def test_driven_trajectory_matches_rk4_oracle(bz, bl):
    # RK4 at a quarter of the automatic step is within about 4e-11 of RK4 at
    # 2e-14 s on these points.
    config = reference_config(mode="driven", Bz1=bz, Bz2=bz, Bl1=bl, Bl2=bl, t_max=1.5e-8)
    run = run_trajectory(config)
    auto = resolve_step(validate(config), run.resonances).dt
    oracle = propagate_numeric(run.config.replace(dt=auto / 4), run.resonances, run.trajectory.times)
    assert np.max(np.abs(run.trajectory.states - oracle.states)) <= 1e-9
    assert np.max(np.abs(run.trajectory.norms - 1.0)) <= 1e-12


def test_driven_solve_builds_h0_once(monkeypatch):
    calls = []
    build_static = engine.build_static

    def counting(config):
        calls.append(config)
        return build_static(config)

    monkeypatch.setattr(engine, "build_static", counting)
    monkeypatch.setattr(propagator, "build_static", counting)
    run_simulation(reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8))
    assert len(calls) == 1


class TestNoCrossing:
    def test_short_horizon(self):
        with pytest.raises(NoCrossing) as exc:
            run_simulation(reference_config(t_max=1e-9))
        assert exc.value.theta_end is not None
        assert -np.pi < exc.value.theta_end < 0


class TestInitialStateDependence:
    def test_identically_prepared_spins_share_gate_time(self):
        # Preparing both spins in the same (random) single-qubit state keeps
        # the {|01>,|10>} amplitudes symmetric, and the gate time is stable.
        rng = np.random.default_rng(29)
        taus = []
        for _ in range(5):
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            result = run_simulation(
                reference_config(initial_state=product_state(q, q), t_max=1.5e-8)
            )
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
                result = run_simulation(
                    reference_config(initial_state=product_state(q1, q2), t_max=6e-8)
                )
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
}


@pytest.mark.parametrize(
    "config",
    [reference_config(r=8e-9, t_max=1.2e-5)]
    + [SimulationConfig(**fields) for fields in GRAZING_INPUTS.values()],
    ids=["r=8nm", "grazing-far", "grazing-near"],
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
    """Record the number of times passed to each TrajectoryEvaluator.theta_on."""
    counts = []
    theta_on = TrajectoryEvaluator.theta_on

    def counting(self, times):
        counts.append(len(times))
        return theta_on(self, times)

    monkeypatch.setattr(TrajectoryEvaluator, "theta_on", counting)
    return counts


@pytest.mark.parametrize(
    "config",
    [reference_config(), reference_config(mode="driven", Bl1=6e-4, Bl2=6e-4, t_max=1.5e-8)],
    ids=["static", "driven"],
)
def test_refinement_takes_few_evaluations(config, monkeypatch):
    calls = []
    theta_at = TrajectoryEvaluator.theta_at

    def counting(self, t):
        calls.append(t)
        return theta_at(self, t)

    monkeypatch.setattr(TrajectoryEvaluator, "theta_at", counting)
    result = run_simulation(config)
    assert abs(result.gate.theta_at_tau + np.pi) <= PHASE_TOL
    assert 0 < len(calls) <= 6


class TestThetaRateGrid:
    def test_far_static_grid_follows_theta(self):
        # At 12 nm theta turns at about 2 sqrt(m2^2 + g^2), some 1e-3 of the
        # Zeeman rate, so the grid stays near MIN_SAMPLES instead of the cap.
        run = run_trajectory(reference_config(r=12e-9, t_max=2.5 * TAU_12NM))
        assert len(run.trajectory.times) <= 2200
        assert run.phases.max_step <= 0.5 + 2 * run.unresolved
        scale = hamiltonian_scale(run.config, run.resonances)
        assert run.scan_step * scale == pytest.approx(0.05)

    def test_scan_points_do_not_grow_with_t_max(self, monkeypatch):
        counts = count_scan_points(monkeypatch)
        points, taus = [], []
        for factor in (2.5, 5.0, 10.0):
            counts.clear()
            result = run_simulation(reference_config(r=12e-9, t_max=factor * TAU_12NM))
            points.append(sum(counts))
            taus.append(result.gate.tau)
        assert 0 < points[-1] <= 1.1 * points[0]
        # Each tau meets analysis.PHASE_TOL (1e-10 rad), with theta near
        # pi t / tau; the bound allows 1e-7 rad.
        assert max(taus) - min(taus) <= 2e-7 / np.pi * taus[0]

    def test_long_horizon_raises_instead_of_aliasing(self):
        # 50 001 samples over 1 ms are 20 ns apart, against a gate time of
        # 9.5 ns: the unwrap would alias, so no tau is returned.
        with pytest.raises(PhaseAliasing, match="shorten t_max"):
            run_simulation(reference_config(t_max=1e-3))


class TestRecordedStep:
    def test_step_above_spacing_records_spacing(self):
        # A weak bias field keeps RK4 norm drift small at one step per sample.
        run = run_trajectory(
            reference_config(mode="driven", Bz1=0.01, Bz2=0.01, Bl1=5e-4, Bl2=5e-4, dt=5e-11)
        )
        assert run.config.dt == pytest.approx(run.trajectory.times[1], rel=1e-12)

    def test_automatic_step_is_kept(self, static_result):
        assert static_result.config.dt < static_result.trajectory.times[1]


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
    ids=["reference", "r=8nm", "grazing-far", "grazing-near"] + list(EDGE_INPUTS),
)
def test_scan_margin_bounds_theta_between_samples(config):
    # The first-crossing scan skips the times where the linear interpolation
    # of the sampled theta stays further than the scan margin from the level;
    # the exact theta must not leave that band around the interpolation.
    run = run_trajectory(config)
    times, theta = run.phases.times, run.phases.theta
    margin = _scan_margin(theta, run.unresolved)
    dense = np.linspace(0.0, times[-1], 400_001)
    exact = exact_theta(run.config, dense)
    assert np.max(np.abs(exact - np.interp(dense, times, theta))) <= margin
