import concurrent.futures
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import buckygate
from buckygate import analysis, cli, errors, propagator
from buckygate.cli import (
    EXIT_CONFIG,
    EXIT_NO_CROSSING,
    EXIT_NUMERICAL,
    EXIT_OK,
    SWEEP_HEADER,
    TRAJECTORY_HEADER,
    apply_sweep_param,
    main,
    trajectory_csv,
)
from buckygate.config import ConfigErrorItem, SimulationConfig, load_config
from buckygate.engine import run_simulation, run_trajectory

STATIC_CONFIG = """\
# reference static setup
r_m=1.14e-9
Bz1_T=0.1
Bz2_T=0.1
Bg1_T=6.08e-5
Bg2_T=-6.08e-5
t_max_s=1.2e-8
mode=static
"""

DRIVEN_CONFIG = """\
r_m=1.14e-9
Bz1_T=0.09320200422795753
Bz2_T=0.09320200422795753
Bg1_T=6.08e-5
Bg2_T=-6.08e-5
Bl1_T=0.0004524571004753451
Bl2_T=0.0004524571004753451
t_max_s=1.3447780637678332e-08
mode=driven
"""

WIRES_CONFIG = """\
I_A=0.6
d_m=1e-6
rho_m=1e-6
"""


def with_lines(text, *lines):
    """``text`` with each ``key=value`` of ``lines`` in place of the line that
    sets the same key, or appended where none does: a file sets a key once."""
    out = text.splitlines()
    for line in lines:
        key = line.split("=", 1)[0]
        same = [i for i, old in enumerate(out) if old.split("=", 1)[0] == key]
        if same:
            out[same[0]] = line
        else:
            out.append(line)
    return "\n".join(out) + "\n"


@pytest.fixture
def static_config_path(tmp_path):
    path = tmp_path / "static.cfg"
    path.write_text(STATIC_CONFIG)
    return str(path)


class TestSimulate:
    def test_outputs_and_exit_code(self, static_config_path, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        assert main(["simulate", static_config_path, "--outdir", outdir]) == EXIT_OK
        captured = capsys.readouterr()
        assert "tau_s=" in captured.out

        traj = open(os.path.join(outdir, "trajectory.csv")).read()
        assert traj.splitlines()[0] == TRAJECTORY_HEADER
        summary = open(os.path.join(outdir, "summary.txt")).read()
        assert summary == captured.out
        assert os.path.exists(os.path.join(outdir, "run_manifest.json"))

        tau = float(
            [l for l in summary.splitlines() if l.startswith("tau_s=")][0].split("=")[1]
        )
        assert 8e-9 < tau < 11e-9

    def test_deterministic_reruns(self, static_config_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", static_config_path, "--outdir", out1]) == EXIT_OK
        assert main(["simulate", static_config_path, "--outdir", out2]) == EXIT_OK
        csv1 = open(os.path.join(out1, "trajectory.csv"), "rb").read()
        csv2 = open(os.path.join(out2, "trajectory.csv"), "rb").read()
        assert csv1 == csv2

    def test_short_horizon_exit_2(self, tmp_path, capsys):
        path = tmp_path / "short.cfg"
        path.write_text(STATIC_CONFIG.replace("t_max_s=1.2e-8", "t_max_s=1e-9"))
        assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_NO_CROSSING
        assert "theta_end" in capsys.readouterr().err

    def test_bad_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(STATIC_CONFIG.replace("r_m=1.14e-9", "r_m=0"))
        assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_manifest_records_grid_and_step_taken(self, static_config_path, tmp_path):
        outdir = str(tmp_path / "out")
        assert main(["simulate", static_config_path, "--outdir", outdir]) == EXIT_OK
        with open(os.path.join(outdir, "run_manifest.json")) as fh:
            manifest = json.load(fh)
        result = run_simulation(SimulationConfig(
            r=1.14e-9, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5, t_max=1.2e-8
        ))
        assert manifest["samples"] == len(result.trajectory.times) == 1001
        assert manifest["max_theta_step_rad"] == float(np.max(np.abs(np.diff(result.theta))))
        assert 0 < manifest["max_theta_step_rad"] < np.pi / 2

    def test_recorded_config_reproduces_the_outputs(self, tmp_path):
        # A driven run, which refines its gate time by RK4 between samples.
        path = tmp_path / "driven.cfg"
        path.write_text(DRIVEN_CONFIG)
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["simulate", str(path), "--outdir", str(first)]) == EXIT_OK
        with open(first / "run_manifest.json") as fh:
            snapshot = "\n".join(json.load(fh)["config_snapshot"]) + "\n"
        recorded = tmp_path / "recorded.cfg"
        recorded.write_text(snapshot)
        assert main(["simulate", str(recorded), "--outdir", str(again)]) == EXIT_OK
        for name in ("trajectory.csv", "summary.txt"):
            assert (first / name).read_bytes() == (again / name).read_bytes(), name

    def test_long_horizon_exit_3(self, tmp_path, capsys):
        path = tmp_path / "long.cfg"
        path.write_text(STATIC_CONFIG.replace("t_max_s=1.2e-8", "t_max_s=1e-3"))
        assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: PhaseAliasing: ") and "Traceback" not in err

    def test_long_horizon_gate_time_exit_0(self, tmp_path, capsys):
        # A static gate with bounds reads no grid: gate-time prints at 1 ms
        # the summary it prints at 12 ns, which simulate's output grid at
        # 1 ms cannot hold (test_long_horizon_exit_3).
        short, long = tmp_path / "short.cfg", tmp_path / "long.cfg"
        short.write_text(STATIC_CONFIG)
        long.write_text(STATIC_CONFIG.replace("t_max_s=1.2e-8", "t_max_s=1e-3"))
        assert main(["gate-time", str(short)]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["gate-time", str(long)]) == EXIT_OK
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "error",
    [
        errors.ZeroState,
        errors.OutOfRange,
        errors.PhaseAliasing,
        errors.NormDrift,
        errors.UndefinedPhase,
        errors.SingularPosition,
    ],
)
def test_simulation_errors_exit_3_without_traceback(error, static_config_path, monkeypatch, capsys):
    def failing(config):
        raise error("detail")

    monkeypatch.setattr(cli, "run_simulation", failing)
    assert main(["gate-time", static_config_path]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error.__name__}: detail\n"


# Driven runs whose pass stops at the gate, well before t_max.  The first
# fails the unwrap bound only after it, at 28 ns; on the second a bound set
# between its extremes over the samples the gate reads and over the rest
# does the same.
TAIL_ALIASING = with_lines(
    DRIVEN_CONFIG, "Bz1_T=0.025", "Bz2_T=0.025", "Bg1_T=2e-4", "Bg2_T=-2e-4",
    "Bl1_T=1.5e-3", "Bl2_T=1.5e-3", "t_max_s=3e-8",
)
TAIL_BOUND = with_lines(DRIVEN_CONFIG, "Bz1_T=0.1", "Bz2_T=0.1", "Bl1_T=2e-4", "Bl2_T=2e-4", "t_max_s=1.5e-8")


def _bound_failing_after_the_gate(config, error, monkeypatch):
    """Set the bound whose breach raises ``error`` halfway between its
    extremes over the samples the gate reads and over the rest of the run."""
    run = run_trajectory(config)
    n = len(run._times)
    traj = run.trajectory
    if error == "NormDrift":
        drift = np.abs(traj.norms - 1.0)
        head, tail = drift[:n].max(), drift[n:].max()
        monkeypatch.setattr(propagator, "NORM_TOLERANCE", (head + tail) / 2)
    else:
        amps = np.abs(traj.states)
        head, tail = -amps[:n].min(), -amps[n:].min()
        monkeypatch.setattr(analysis, "AMP_FLOOR", -(head + tail) / 2)
    assert head < tail


@pytest.mark.parametrize("error", ["NormDrift", "UndefinedPhase", "PhaseAliasing"])
def test_failure_after_the_gate_fails_only_the_trajectory(error, tmp_path, monkeypatch, capsys):
    # gate-time and sweep read only the gate, which the samples up to just
    # past the first sampled crossing give; the rest of the run is computed,
    # and fails, when the trajectory is read, as simulate does.
    text = TAIL_ALIASING if error == "PhaseAliasing" else TAIL_BOUND
    path = tmp_path / "driven.cfg"
    path.write_text(text)
    config = load_config(str(path))
    if error != "PhaseAliasing":
        _bound_failing_after_the_gate(config, error, monkeypatch)
    result = run_simulation(config)
    for _ in range(2):  # at every read
        with pytest.raises(getattr(errors, error)):
            result.trajectory
    assert main(["gate-time", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == cli.summary_text(result)
    spec = tmp_path / "sweep.cfg"
    bl = config.Bl1
    spec.write_text(text + f"param=Bl\nvalues={bl!r},{bl!r}\n")
    assert main(["sweep", str(spec), "--output", str(tmp_path / "sweep.csv")]) == EXIT_OK
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",ok") for row in rows), rows
    outdir = tmp_path / "out"
    assert main(["simulate", str(path), "--outdir", str(outdir)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(f"error: {error}: ")
    assert not outdir.exists()


# One non-finite value for each float field and for each initial-state
# amplitude: (config line, field named in the error).
NON_FINITE = [
    ("r_m=nan", "r"),
    ("Bz1_T=nan", "Bz1"),
    ("Bz2_T=inf", "Bz2"),
    ("Bg1_T=-inf", "Bg1"),
    ("Bg2_T=nan", "Bg2"),
    ("Bl1_T=inf", "Bl1"),
    ("Bl2_T=nan", "Bl2"),
    ("J0_rad_s=inf", "J0"),
    ("t_max_s=inf", "t_max"),
    ("T2_s=nan", "T2"),
    ("initial_state=nan,0,0.5,0,0.5,0,0.5,0", "initial_state amplitude c1"),
    ("initial_state=0.5,0,0.5,inf,0.5,0,0.5,0", "initial_state amplitude c2"),
    ("initial_state=0.5,0,0.5,0,-inf,0,0.5,0", "initial_state amplitude c3"),
    ("initial_state=0.5,0,0.5,0,0.5,0,0.5,nan", "initial_state amplitude c4"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line, field", NON_FINITE, ids=[line for line, _ in NON_FINITE])
def test_non_finite_value_exit_1(line, field, tmp_path, capsys):
    path = tmp_path / "nonfinite.cfg"
    path.write_text(with_lines(STATIC_CONFIG.replace("mode=static", "mode=driven"), line))
    assert main(["gate-time", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"{field} must be finite" in lines[0]


@pytest.mark.parametrize("line", ["t_max_s=1e300", "J0_rad_s=1e300"])
def test_phase_aliasing_message_stays_short(line, tmp_path, capsys):
    # A step of 1e288 rad or more is printed in exponent form.  At t_max =
    # 1e300 s the gate is found, and the output grid raises.
    path = tmp_path / "long.cfg"
    path.write_text(with_lines(STATIC_CONFIG, line))
    assert main(["simulate", str(path), "--outdir", str(tmp_path / "out")]) == EXIT_NUMERICAL
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: PhaseAliasing: ")
    assert len(lines[0]) <= 200


# Inputs that overflow numpy on their way to an exit-3 error: (mode, line).
EXTREME_INPUTS = [
    ("driven", "Bl1_T=1e300"),
    ("driven", "J0_rad_s=1e300"),
    ("driven", "t_max_s=1e300"),
    # Finite Zeeman terms whose block A half-gap overflows: theta would be
    # NaN at every sample after 0.
    ("static", "Bz1_T=1e297 Bz2_T=1e297"),
]


def _gate_time_in_subprocess(mode, line, tmp_path):
    """``buckygate gate-time`` on the reference config in ``mode`` plus
    ``line``, one or more ``key=value`` split by spaces, in a separate
    interpreter, so that no warning filter of the test run can hide a
    RuntimeWarning printed before the error line."""
    path = tmp_path / "extreme.cfg"
    path.write_text(with_lines(STATIC_CONFIG.replace("mode=static", f"mode={mode}"), *line.split()))
    src = os.path.dirname(os.path.dirname(buckygate.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "buckygate.cli", "gate-time", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("mode, line", EXTREME_INPUTS, ids=[f"{m}-{line}" for m, line in EXTREME_INPUTS])
def test_extreme_input_prints_one_stderr_line(mode, line, tmp_path):
    run = _gate_time_in_subprocess(mode, line, tmp_path)
    assert run.returncode == EXIT_NUMERICAL and run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), run.stderr


@pytest.mark.parametrize("mode", ["static", "driven"])
def test_zeeman_frequency_beyond_the_floats_is_a_config_error(mode, tmp_path):
    # muB * 1e300 T / hbar overflows: the field is refused by name before any
    # Hamiltonian is built.
    run = _gate_time_in_subprocess(mode, "Bz1_T=1e300", tmp_path)
    assert run.returncode == EXIT_CONFIG and run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Bz1" in lines[0], run.stderr


# Keys that earlier releases accepted; the engine now picks every step and
# fixes the norm-drift bound itself.
@pytest.mark.parametrize("line", ["T1_s=1e-3", "dt_s=1e-12", "norm_tolerance=-1"])
def test_removed_key_is_unknown(line, static_config_path, capsys):
    with open(static_config_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert main(["gate-time", static_config_path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    key = line.split("=")[0]
    assert captured.err == f"error: unknown config key {key!r}\n"


@pytest.mark.filterwarnings("error")
def test_huge_initial_amplitudes_renormalize(tmp_path, capsys):
    # |c|^2 of 1e200 overflows; the state is the uniform one all the same.
    summaries = []
    for scale in ("0.5", "1e200"):
        path = tmp_path / f"state-{scale}.cfg"
        path.write_text(STATIC_CONFIG + f"initial_state={scale},0,{scale},0,{scale},0,{scale},0\n")
        assert main(["gate-time", str(path)]) == EXIT_OK
        summaries.append(capsys.readouterr().out)
    assert summaries[1] == summaries[0]


def _trajectory_csv_per_row(result):
    """Reference formatter: one row at a time, concurrence per state."""

    def concurrence(c):
        nrm2 = float(np.sum(np.abs(c) ** 2))
        return float(2 * abs(c[1] * c[2] - c[0] * c[3]) / nrm2)

    rows = [TRAJECTORY_HEADER]
    traj = result.trajectory
    norms = traj.norms
    for i, t in enumerate(traj.times):
        c = traj.states[i]
        fields = [repr(float(t))]
        for j in range(4):
            fields.append(repr(float(c[j].real)))
            fields.append(repr(float(c[j].imag)))
        fields.append(repr(float(result.theta[i])))
        fields.append(repr(concurrence(c)))
        fields.append(repr(float(norms[i])))
        rows.append(",".join(fields))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "overrides",
    [{}, {"mode": "driven", "Bl1": 6e-4, "Bl2": 6e-4, "t_max": 1.05e-8}],
    ids=["static", "driven"],
)
def test_trajectory_csv_matches_per_row_formatting(overrides):
    fields = dict(r=1.14e-9, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5, t_max=1.2e-8)
    result = run_simulation(SimulationConfig(**{**fields, **overrides}))
    assert trajectory_csv(result) == _trajectory_csv_per_row(result)


class TestGateTime:
    def test_prints_summary(self, static_config_path, capsys):
        assert main(["gate-time", static_config_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tau_s=" in out and "ops_budget=" in out


class TestFieldProfile:
    def test_antisymmetric_profile(self, tmp_path, capsys):
        wires = tmp_path / "wires.cfg"
        wires.write_text(WIRES_CONFIG)
        code = main(
            ["field-profile", str(wires), "--from=-1e-6", "--to", "1e-6", "--points", "41"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x_m,Bg_T"
        values = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        np.testing.assert_allclose(values[:, 1] + values[::-1, 1], 0.0, atol=1e-14)

    def test_wire_position_exit_3(self, tmp_path):
        wires = tmp_path / "wires.cfg"
        wires.write_text(WIRES_CONFIG)
        code = main(
            ["field-profile", str(wires), "--from=-1.5e-6", "--to", "1.5e-6", "--points", "3"]
        )
        assert code == EXIT_NUMERICAL


SWEEP_BASE = """\
r_m=1.14e-9
Bz1_T=0.1
Bz2_T=0.1
Bg1_T=6.08e-5
Bg2_T=-6.08e-5
t_max_s=4e-8
"""


class TestSweep:
    BASE = SimulationConfig(r=1.14e-9, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5, t_max=1.2e-8)

    def run_sweep(self, tmp_path, spec_text, *extra):
        spec = tmp_path / "sweep.cfg"
        spec.write_text(spec_text)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(spec), "--output", str(out), *extra])
        return code, out.read_text() if out.exists() else None

    def test_distance_sweep_monotone(self, tmp_path):
        spec = SWEEP_BASE + "param=r\nvalues=1.0e-9,1.14e-9,1.3e-9\n"
        code, text = self.run_sweep(tmp_path, spec)
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        taus = [float(l.split(",")[1]) for l in lines[1:]]
        assert taus[0] < taus[1] < taus[2]  # weaker coupling, slower gate

    def test_single_point_rejected(self, tmp_path):
        spec = SWEEP_BASE + "param=r\nvalues=1.14e-9\n"
        code, _ = self.run_sweep(tmp_path, spec)
        assert code == EXIT_CONFIG

    def test_unknown_param_rejected(self, tmp_path):
        spec = SWEEP_BASE + "param=bogus\nvalues=1,2\n"
        code, _ = self.run_sweep(tmp_path, spec)
        assert code == EXIT_CONFIG

    def test_drive_free_point_matches_static(self, tmp_path, capsys):
        spec = SWEEP_BASE.replace("t_max_s=4e-8", "t_max_s=1.2e-8")
        spec += "param=Bl\nvalues=0,5e-4\n"
        code, text = self.run_sweep(tmp_path, spec)
        assert code == EXIT_OK
        rows = text.strip().splitlines()[1:]
        tau_bl0 = float(rows[0].split(",")[1])

        cfg = tmp_path / "static.cfg"
        cfg.write_text(STATIC_CONFIG)
        main(["gate-time", str(cfg)])
        out = capsys.readouterr().out
        tau_static = float(
            [l for l in out.splitlines() if l.startswith("tau_s=")][0].split("=")[1]
        )
        assert tau_bl0 == pytest.approx(tau_static, rel=1e-9)

    def test_parallel_matches_serial(self, tmp_path):
        spec = SWEEP_BASE + "param=r\nvalues=1.0e-9,1.2e-9\n"
        _, serial = self.run_sweep(tmp_path, spec)
        _, parallel = self.run_sweep(tmp_path, spec, "--jobs", "2")
        assert serial == parallel

    def test_failed_point_recorded_not_fatal(self, tmp_path):
        spec = SWEEP_BASE + "param=r\nvalues=-1e-9,1.14e-9\n"
        code, text = self.run_sweep(tmp_path, spec)
        assert code == EXIT_OK
        rows = text.strip().splitlines()[1:]
        assert rows[0].endswith("ConfigError")
        assert rows[1].endswith("ok")

    def test_range_spec(self, tmp_path):
        spec = SWEEP_BASE + "param=r\nrange=1.0e-9,1.3e-9,3\n"
        code, text = self.run_sweep(tmp_path, spec)
        assert code == EXIT_OK
        assert len(text.strip().splitlines()) == 4

    def test_wire_current_sweep(self, tmp_path):
        spec = SWEEP_BASE + (
            "param=I\nvalues=0.3,0.6\nd_m=1e-6\nrho_m=1e-6\nx1_m=5e-7\nx2_m=-5e-7\n"
        )
        code, text = self.run_sweep(tmp_path, spec)
        assert code == EXIT_OK
        rows = text.strip().splitlines()[1:]
        assert all(r.endswith("ok") for r in rows)

    def test_invalid_current_point_recorded_not_fatal(self, tmp_path):
        spec = SWEEP_BASE + (
            "param=I\nvalues=0.3,0,0.5\nd_m=1e-6\nrho_m=1e-6\nx1_m=5e-7\nx2_m=-5e-7\n"
        )
        for jobs in ("1", "2"):
            code, text = self.run_sweep(tmp_path, spec, "--jobs", jobs)
            assert code == EXIT_OK
            statuses = [row.split(",")[-1] for row in text.strip().splitlines()[1:]]
            assert statuses == ["ok", "ConfigErrorItem", "ok"]

    @pytest.mark.parametrize(
        "cores, jobs, workers",
        [(8, "100000", 3), (2, "100000", 2), (None, "100000", None), (8, "1", None)],
    )
    def test_jobs_bounded_by_points_and_cores(self, tmp_path, monkeypatch, cores, jobs, workers):
        # No real process is started: the pool is replaced by one that records
        # its size and maps in this process.
        created = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        spec = SWEEP_BASE + "param=r\nvalues=1.0e-9,1.14e-9,1.3e-9\n"
        code, text = self.run_sweep(tmp_path, spec, "--jobs", jobs)
        assert code == EXIT_OK
        assert len(text.strip().splitlines()) == 4
        assert created == ([] if workers is None else [workers])

    def test_current_sweep_without_wires_rejected(self, tmp_path):
        spec = SWEEP_BASE + "param=I\nvalues=0.3,0.6\nd_m=1e-6\n"
        code, _ = self.run_sweep(tmp_path, spec)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "param, value, fields",
        [
            ("r", 1.2e-9, {"r": 1.2e-9}),
            ("Bz", 0.2, {"Bz1": 0.2, "Bz2": 0.2}),
            ("Bg1", 1e-4, {"Bg1": 1e-4, "Bg2": -6.08e-5}),
            ("Bg2", 1e-4, {"Bg1": 6.08e-5, "Bg2": 1e-4}),
            ("Bl", 5e-4, {"Bl1": 5e-4, "Bl2": 5e-4, "mode": "driven"}),
            ("Bl", 0.0, {"Bl1": 0.0, "Bl2": 0.0, "mode": "static"}),
            ("J0", -3e7, {"J0": -3e7}),
        ],
    )
    def test_swept_value_sets_its_fields(self, param, value, fields):
        swept = apply_sweep_param(self.BASE, param, value, {})
        assert {name: getattr(swept, name) for name in fields} == fields

    def test_unknown_param_is_a_config_error(self):
        with pytest.raises(ConfigErrorItem, match="unknown sweep parameter"):
            apply_sweep_param(self.BASE, "bogus", 1.0, {})


def test_value_error_in_the_pipeline_is_not_an_input_error(static_config_path, tmp_path, monkeypatch):
    # A ValueError from the code, not from reading a file, is a bug: it is
    # neither reported as a config error nor recorded as a sweep row.
    def buggy(config):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "run_simulation", buggy)
    with pytest.raises(ValueError, match="a bug"):
        main(["gate-time", static_config_path])
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SWEEP_BASE + "param=r\nvalues=1.0e-9,1.2e-9\n")
    with pytest.raises(ValueError, match="a bug"):
        main(["sweep", str(spec), "--output", str(tmp_path / "sweep.csv")])


SWEEP_R = SWEEP_BASE + "param=r\n"

# Inputs that ended in a traceback, in exit 1 only because cli.main caught
# every ValueError, (equal-huge-fields) in a scan of 1.8e12 points: with the
# default state the slow-phase search now solves that input
# (test_equal_huge_fields_gate_meets_phase_tol), but a state on which block
# B's ellipse has no bound still asks the scan of sampled theta for 1.9e6,
# (jobs-zero, jobs-negative) in a serial sweep with exit 0, (jobs-not-an-int,
# from-without-equals) in argparse's usage block with exit 2, or
# (wire-unknown-key) in a profile that ignored the key with exit 0:
# (id, command, file text, extra arguments, exit code, text of the error
# line).  ``with_lines`` sets a key of the base file anew.  An error met
# while reading a file names the file.
BAD_INPUTS = [
    ("r-underflow", "gate-time", with_lines(STATIC_CONFIG, "r_m=1e-120"), [], EXIT_CONFIG, "r=1e-120"),
    ("r-overflow", "gate-time", with_lines(STATIC_CONFIG, "r_m=1e103"), [], EXIT_CONFIG, "r=1e+103"),
    ("T2-huge", "gate-time", STATIC_CONFIG + "T2_s=1.7e308\n", [], EXIT_NUMERICAL, "OutOfRange: T2/tau"),
    ("T2-negative", "gate-time", STATIC_CONFIG + "T2_s=-1\n", [], EXIT_CONFIG, "T2 must be > 0"),
    ("equal-huge-fields", "gate-time",
     with_lines(STATIC_CONFIG, "Bz1_T=3.16e10", "Bz2_T=3.16e10", "initial_state=0.5,0,0.5,0,0,0.5,0.5,0"), [],
     EXIT_NUMERICAL, "OutOfRange: the first-crossing scan"),
    ("t_max-subnormal", "gate-time", with_lines(STATIC_CONFIG, "t_max_s=5e-324"), [], EXIT_CONFIG, "t_max must be >="),
    ("not-a-number", "gate-time", with_lines(STATIC_CONFIG, "Bz1_T=abc"), [], EXIT_CONFIG, "input.cfg: could not convert"),
    ("not-utf8", "gate-time", b"\xff" + STATIC_CONFIG.encode(), [], EXIT_CONFIG, "input.cfg: 'utf-8' codec can't decode byte 0xff"),
    ("empty-values", "sweep", SWEEP_R + "values=\n", [], EXIT_CONFIG, "input.cfg: could not convert"),
    ("range-count-negative", "sweep", SWEEP_R + "range=1e-9,2e-9,-1\n", [], EXIT_CONFIG, "range count"),
    ("range-count-huge", "sweep", SWEEP_R + "range=1e-9,2e-9,100000000000000\n", [], EXIT_CONFIG, "range count"),
    ("logrange-zero", "sweep", SWEEP_R + "logrange=0,1e-9,3\n", [], EXIT_CONFIG, "input.cfg: Geometric sequence cannot include zero"),
    # A spec with two ways to give its values is refused with the keys given.
    ("values-and-range", "sweep", SWEEP_R + "values=1.0e-9,1.2e-9\nrange=1e-9,2e-9,3\n", [], EXIT_CONFIG,
     "a sweep spec takes one of values=, range=, logrange=; got ['values', 'range']"),
    ("range-and-logrange", "sweep", SWEEP_R + "range=1e-9,2e-9,3\nlogrange=1e-9,2e-9,3\n", [], EXIT_CONFIG,
     "a sweep spec takes one of values=, range=, logrange=; got ['range', 'logrange']"),
    ("wire-current-not-a-number", "field-profile", with_lines(WIRES_CONFIG, "I_A=abc"), ["--from=-1e-7", "--to=1e-7"],
     EXIT_CONFIG, "input.cfg: could not convert"),
    ("points-negative", "field-profile", WIRES_CONFIG, ["--from=-1e-7", "--to=1e-7", "--points=-3"],
     EXIT_CONFIG, "--points"),
    ("points-huge", "field-profile", WIRES_CONFIG, ["--from=-1e-7", "--to=1e-7", "--points=10000000000000"],
     EXIT_CONFIG, "--points"),
    ("jobs-zero", "sweep", SWEEP_R + "values=1.0e-9,1.2e-9\n", ["--jobs=0"], EXIT_CONFIG, "--jobs"),
    ("jobs-negative", "sweep", SWEEP_R + "values=1.0e-9,1.2e-9\n", ["--jobs=-5"], EXIT_CONFIG, "--jobs"),
    ("jobs-not-an-int", "sweep", SWEEP_R + "values=1.0e-9,1.2e-9\n", ["--jobs", "x"], EXIT_CONFIG,
     "buckygate sweep: argument --jobs: invalid int value: 'x'"),
    # argparse's negative-number pattern has no exponent form: -1e-6 reads
    # as an option, so --from needs the --from=-1e-6 form.
    ("from-without-equals", "field-profile", WIRES_CONFIG, ["--from", "-1e-6", "--to", "1e-6", "--points", "3"],
     EXIT_CONFIG, "buckygate field-profile: argument --from: expected one argument"),
    ("wire-unknown-key", "field-profile", WIRES_CONFIG + "I_a=5\nrho=2\n",
     ["--from=-1e-6", "--to=1e-6", "--points=3"], EXIT_CONFIG, "unknown config key 'I_a'"),
    # A repeated key is refused wherever it is, not read as its last line.
    ("config-key-twice", "gate-time", STATIC_CONFIG + "r_m=5e-9\n", [], EXIT_CONFIG,
     "lines 2 and 9: key 'r_m' is set twice"),
    ("sweep-key-twice", "sweep", SWEEP_R + "values=1.0e-9,1.2e-9\nparam=Bz\n", [], EXIT_CONFIG,
     "lines 7 and 9: key 'param' is set twice"),
    ("wire-key-twice", "field-profile", WIRES_CONFIG + "d_m=2e-6\n", ["--from=-1e-7", "--to=1e-7"],
     EXIT_CONFIG, "lines 2 and 4: key 'd_m' is set twice"),
    # NaN and infinity in a wire file, which WirePair's sign checks let pass.
    ("wire-current-infinite", "field-profile", with_lines(WIRES_CONFIG, "I_A=inf"), ["--from=-1e-7", "--to=1e-7"],
     EXIT_CONFIG, "wire current must be finite, got inf"),
    ("wire-separation-nan", "field-profile", with_lines(WIRES_CONFIG, "d_m=nan"), ["--from=-1e-7", "--to=1e-7"],
     EXIT_CONFIG, "wire separation must be finite, got nan"),
    ("wire-radius-infinite", "field-profile", with_lines(WIRES_CONFIG, "rho_m=inf"), ["--from=-1e-7", "--to=1e-7"],
     EXIT_CONFIG, "wire radius must be finite, got inf"),
    # NaN and infinity as the ends of a field profile.
    ("profile-from-nan", "field-profile", WIRES_CONFIG, ["--from=nan", "--to=1e-7", "--points=3"],
     EXIT_CONFIG, "--from must be finite, got nan"),
    ("profile-from-minus-inf", "field-profile", WIRES_CONFIG, ["--from=-inf", "--to=1e-7", "--points=3"],
     EXIT_CONFIG, "--from must be finite, got -inf"),
    ("profile-to-inf", "field-profile", WIRES_CONFIG, ["--from=-1e-7", "--to=inf", "--points=3"],
     EXIT_CONFIG, "--to must be finite, got inf"),
]


@pytest.mark.parametrize(
    "command, text, extra, code, message",
    [case[1:] for case in BAD_INPUTS],
    ids=[case[0] for case in BAD_INPUTS],
)
def test_bad_input_ends_in_one_error_line(command, text, extra, code, message, tmp_path, capsys):
    path = tmp_path / "input.cfg"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main([command, str(path), *extra]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def test_equal_huge_fields_gate_meets_phase_tol(tmp_path, capsys):
    # Equal fields of 3.16e10 T with the default state: the fast part's
    # amplitude is 3e-14 rad, so the gate evaluates theta in one cell next to
    # pi, where the scan of sampled theta needed 1.8e12 points.  theta(tau)
    # from the printed gate meets PHASE_TOL (40 digits give 4.8e-14 rad).
    path = tmp_path / "input.cfg"
    path.write_text(with_lines(STATIC_CONFIG, "Bz1_T=3.16e10", "Bz2_T=3.16e10"))
    assert main(["gate-time", str(path)]) == EXIT_OK
    values = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line)
    assert abs(float(values["theta_at_tau_rad"]) + np.pi) <= analysis.PHASE_TOL


def test_missing_subcommand_ends_in_one_error_line(capsys):
    assert main([]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: buckygate: the following arguments are required: command\n"


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([flag])
    assert exit_info.value.code == EXIT_OK
    assert capsys.readouterr().out


def test_repeated_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    # The parser is built once per process, yet each call dispatches afresh:
    # two calls give the same bytes, and a replaced cmd_sweep is the one run.
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SWEEP_BASE.replace("t_max_s=4e-8", "t_max_s=1.2e-8") + "param=Bl\nvalues=0,5e-4\n")
    outputs = []
    for name in ("first.csv", "second.csv"):
        assert main(["sweep", str(spec), "--output", str(tmp_path / name)]) == EXIT_OK
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    assert cli._main_parser() is cli._main_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: calls.append(args.spec) or EXIT_NO_CROSSING)
    assert main(["sweep", str(spec)]) == EXIT_NO_CROSSING
    assert calls == [str(spec)]
    assert capsys.readouterr().out == ""
