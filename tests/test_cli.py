import json
import os
import subprocess
import sys

import numpy as np
import pytest

import buckygate
from buckygate import cli, errors
from buckygate.cli import (
    EXIT_CONFIG,
    EXIT_NO_CROSSING,
    EXIT_NUMERICAL,
    EXIT_OK,
    SWEEP_HEADER,
    TRAJECTORY_HEADER,
    main,
    trajectory_csv,
)
from buckygate.config import SimulationConfig
from buckygate.engine import run_simulation

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

    def test_manifest_records_grid_and_step_taken(self, tmp_path):
        # dt_s above the 1.2e-11 s sample spacing: the spacing is recorded.
        path = tmp_path / "dt.cfg"
        path.write_text(STATIC_CONFIG + "dt_s=5e-11\n")
        outdir = str(tmp_path / "out")
        assert main(["simulate", str(path), "--outdir", outdir]) == EXIT_OK
        with open(os.path.join(outdir, "run_manifest.json")) as fh:
            manifest = json.load(fh)
        result = run_simulation(SimulationConfig(
            r=1.14e-9, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5, t_max=1.2e-8, dt=5e-11
        ))
        assert manifest["samples"] == len(result.trajectory.times) == 1001
        assert manifest["max_theta_step_rad"] == result.phases.max_step
        assert 0 < manifest["max_theta_step_rad"] < np.pi / 2
        assert f"dt_s={result.config.dt!r}" in manifest["config_snapshot"]
        assert result.config.dt == pytest.approx(1.2e-11, rel=1e-12)

    def test_recorded_config_reproduces_the_outputs(self, tmp_path):
        # A driven run whose automatic dt is below the sample spacing: the
        # recorded dt_s must be the step RK4 was given.
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


@pytest.mark.parametrize(
    "error",
    [
        errors.NonHermitianInput,
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
    ("dt_s=nan", "dt"),
    ("T2_s=nan", "T2"),
    ("norm_tolerance=nan", "norm_tolerance"),
    ("initial_state=nan,0,0.5,0,0.5,0,0.5,0", "initial_state amplitude c1"),
    ("initial_state=0.5,0,0.5,inf,0.5,0,0.5,0", "initial_state amplitude c2"),
    ("initial_state=0.5,0,0.5,0,-inf,0,0.5,0", "initial_state amplitude c3"),
    ("initial_state=0.5,0,0.5,0,0.5,0,0.5,nan", "initial_state amplitude c4"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line, field", NON_FINITE, ids=[line for line, _ in NON_FINITE])
def test_non_finite_value_exit_1(line, field, tmp_path, capsys):
    path = tmp_path / "nonfinite.cfg"
    path.write_text(STATIC_CONFIG.replace("mode=static", "mode=driven") + line + "\n")
    assert main(["gate-time", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"{field} must be finite" in lines[0]


@pytest.mark.parametrize("line", ["t_max_s=1e300", "J0_rad_s=1e300"])
def test_phase_aliasing_message_stays_short(line, tmp_path, capsys):
    # A step of 1e288 rad or more is printed in exponent form.
    path = tmp_path / "long.cfg"
    path.write_text(STATIC_CONFIG + line + "\n")
    assert main(["gate-time", str(path)]) == EXIT_NUMERICAL
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: PhaseAliasing: ")
    assert len(lines[0]) <= 200


# Inputs that overflow numpy on their way to an exit-3 error: (mode, line).
EXTREME_INPUTS = [
    ("static", "Bz1_T=1e300"),
    ("driven", "Bz1_T=1e300"),
    ("driven", "Bl1_T=1e300"),
    ("driven", "J0_rad_s=1e300"),
    ("driven", "t_max_s=1e300"),
]


@pytest.mark.parametrize("mode, line", EXTREME_INPUTS, ids=[f"{m}-{line}" for m, line in EXTREME_INPUTS])
def test_extreme_input_prints_one_stderr_line(mode, line, tmp_path):
    # A separate interpreter, so that no warning filter of the test run can
    # hide a RuntimeWarning printed before the error line.
    path = tmp_path / "extreme.cfg"
    path.write_text(STATIC_CONFIG.replace("mode=static", f"mode={mode}") + line + "\n")
    src = os.path.dirname(os.path.dirname(buckygate.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-m", "buckygate.cli", "gate-time", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == EXIT_NUMERICAL and run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), run.stderr


def test_t1_is_an_unknown_key(static_config_path, capsys):
    with open(static_config_path, "a", encoding="utf-8") as fh:
        fh.write("T1_s=1e-3\n")
    assert main(["gate-time", static_config_path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown config key 'T1_s'" in captured.err


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
    traj, phases = result.trajectory, result.phases
    norms = traj.norms
    for i, t in enumerate(traj.times):
        c = traj.states[i]
        fields = [repr(float(t))]
        for j in range(4):
            fields.append(repr(float(c[j].real)))
            fields.append(repr(float(c[j].imag)))
        fields.append(repr(float(phases.theta[i])))
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

    def test_current_sweep_without_wires_rejected(self, tmp_path):
        spec = SWEEP_BASE + "param=I\nvalues=0.3,0.6\nd_m=1e-6\n"
        code, _ = self.run_sweep(tmp_path, spec)
        assert code == EXIT_CONFIG


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
# every ValueError, or (equal-huge-fields) in a scan of 1.8e12 points:
# (id, command, file text, extra arguments, exit code, text of the error
# line).  A later key=value line overrides an earlier one.  An error met
# while reading a file names the file.
BAD_INPUTS = [
    ("r-underflow", "gate-time", STATIC_CONFIG + "r_m=1e-120\n", [], EXIT_CONFIG, "r=1e-120"),
    ("r-overflow", "gate-time", STATIC_CONFIG + "r_m=1e103\n", [], EXIT_CONFIG, "r=1e+103"),
    ("T2-huge", "gate-time", STATIC_CONFIG + "T2_s=1.7e308\n", [], EXIT_NUMERICAL, "OutOfRange: T2/tau"),
    ("T2-negative", "gate-time", STATIC_CONFIG + "T2_s=-1\n", [], EXIT_CONFIG, "T2 must be > 0"),
    ("equal-huge-fields", "gate-time", STATIC_CONFIG + "Bz1_T=3.16e10\nBz2_T=3.16e10\n", [], EXIT_NUMERICAL,
     "OutOfRange: the first-crossing scan"),
    ("t_max-subnormal", "gate-time", STATIC_CONFIG + "t_max_s=5e-324\n", [], EXIT_CONFIG, "t_max must be >="),
    ("not-a-number", "gate-time", STATIC_CONFIG + "Bz1_T=abc\n", [], EXIT_CONFIG, "input.cfg: could not convert"),
    ("not-utf8", "gate-time", b"\xff" + STATIC_CONFIG.encode(), [], EXIT_CONFIG, "input.cfg: 'utf-8' codec can't decode byte 0xff"),
    ("empty-values", "sweep", SWEEP_R + "values=\n", [], EXIT_CONFIG, "input.cfg: could not convert"),
    ("range-count-negative", "sweep", SWEEP_R + "range=1e-9,2e-9,-1\n", [], EXIT_CONFIG, "range count"),
    ("range-count-huge", "sweep", SWEEP_R + "range=1e-9,2e-9,100000000000000\n", [], EXIT_CONFIG, "range count"),
    ("logrange-zero", "sweep", SWEEP_R + "logrange=0,1e-9,3\n", [], EXIT_CONFIG, "input.cfg: Geometric sequence cannot include zero"),
    ("wire-current-not-a-number", "field-profile", WIRES_CONFIG + "I_A=abc\n", ["--from=-1e-7", "--to=1e-7"],
     EXIT_CONFIG, "input.cfg: could not convert"),
    ("points-negative", "field-profile", WIRES_CONFIG, ["--from=-1e-7", "--to=1e-7", "--points=-3"],
     EXIT_CONFIG, "--points"),
    ("points-huge", "field-profile", WIRES_CONFIG, ["--from=-1e-7", "--to=1e-7", "--points=10000000000000"],
     EXIT_CONFIG, "--points"),
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
