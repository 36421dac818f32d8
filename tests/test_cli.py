import json
import os

import numpy as np
import pytest

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
            assert statuses == ["ok", "ValueError", "ok"]

    def test_current_sweep_without_wires_rejected(self, tmp_path):
        spec = SWEEP_BASE + "param=I\nvalues=0.3,0.6\nd_m=1e-6\n"
        code, _ = self.run_sweep(tmp_path, spec)
        assert code == EXIT_CONFIG
