"""Command-line front end.

Subcommands:
  simulate <config>        trajectory CSV + gate summary
  gate-time <config>       gate summary only
  sweep <spec>             one-parameter sweep, results CSV
  field-profile <wires>    wire-pair field profile CSV

Exit codes: 0 success, 1 configuration error (including a file that cannot
be decoded or parsed), 2 no gate-time crossing,
3 any other SimulationError (numerical failure: norm drift, undefined or
aliased phase, non-Hermitian Hamiltonian, zero state, value out of range,
field evaluated on a wire).  Every error is reported on one stderr line.

All numeric output uses repr formatting, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import concurrence
from .config import config_from_mapping, format_config, load_config, read_key_values
from .engine import run_simulation
from .errors import ConfigError, ConfigErrorItem, NoCrossing, SimulationError, SweepSpecError
from .fields import WirePair, gradient_field

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CROSSING = 2
EXIT_NUMERICAL = 3

TRAJECTORY_HEADER = (
    "t_s,re_c1,im_c1,re_c2,im_c2,re_c3,im_c3,re_c4,im_c4,theta_rad,concurrence,norm"
)
SWEEP_HEADER = "param_value,tau_s,concurrence_at_tau,eof_at_tau,ops_budget,status"

SWEEP_PARAMS = ("r", "Bz", "Bg1", "Bg2", "Bl", "I", "J0")
WIRE_KEYS = ("d_m", "rho_m", "x1_m", "x2_m")

# Far more points than a sweep or a profile needs; a count near numpy's
# allocation limit would exhaust memory instead of failing.
MAX_POINTS = 1_000_000


def _fmt(x) -> str:
    return repr(float(x))


def _point_count(name: str, count: int) -> int:
    if not 0 <= count <= MAX_POINTS:
        raise ConfigErrorItem(f"{name} must be a point count in [0, {MAX_POINTS}], got {count}")
    return count


def _write(path, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def trajectory_csv(result) -> str:
    traj = result.trajectory
    n = len(traj.times)
    re_im = np.stack([traj.states.real, traj.states.imag], axis=-1).reshape(n, 8)
    table = np.column_stack(
        [traj.times, re_im, result.phases.theta, concurrence(traj.states), traj.norms]
    )
    rows = [TRAJECTORY_HEADER]
    rows.extend(",".join(map(repr, row)) for row in table.tolist())
    return "\n".join(rows) + "\n"


def summary_text(result) -> str:
    g = result.gate
    s1_0, s1_1, s2_0, s2_1 = g.correction_phases
    lines = [
        f"mode={result.config.mode}",
        f"omega1_rad_s={_fmt(result.resonances.omega1)}",
        f"omega2_rad_s={_fmt(result.resonances.omega2)}",
        f"tau_s={_fmt(g.tau)}",
        f"theta_at_tau_rad={_fmt(g.theta_at_tau)}",
        f"concurrence_at_tau={_fmt(g.concurrence_at_tau)}",
        f"entanglement_of_formation={_fmt(g.eof_at_tau)}",
        f"ops_budget={g.ops_budget}",
        f"s1_0_rad={_fmt(s1_0)}",
        f"s1_1_rad={_fmt(s1_1)}",
        f"s2_0_rad={_fmt(s2_0)}",
        f"s2_1_rad={_fmt(s2_1)}",
    ]
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    """Write trajectory.csv, summary.txt and run_manifest.json to the outdir.

    The manifest pairs the outputs with the exact config that produced them:
    ``config_snapshot`` records as ``dt_s`` the step RK4 was given, so
    rerunning it reproduces the outputs; ``samples`` and
    ``max_theta_step_rad`` (the largest per-sample |delta theta|, the unwrap
    margin) describe the sample grid.
    """
    config = load_config(args.config)
    start = time.monotonic()
    result = run_simulation(config)
    os.makedirs(args.outdir, exist_ok=True)
    traj_path = os.path.join(args.outdir, "trajectory.csv")
    summary_path = os.path.join(args.outdir, "summary.txt")
    manifest_path = os.path.join(args.outdir, "run_manifest.json")
    _write(traj_path, trajectory_csv(result))
    text = summary_text(result)
    _write(summary_path, text)
    manifest = {
        "engine_version": __version__,
        "mode": result.config.mode,
        "outputs": [traj_path, summary_path],
        "duration_s": time.monotonic() - start,
        "samples": len(result.trajectory.times),
        "max_theta_step_rad": result.phases.max_step,
        "config_snapshot": format_config(result.config).splitlines(),
    }
    _write(manifest_path, json.dumps(manifest, indent=2) + "\n")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_gate_time(args) -> int:
    result = run_simulation(load_config(args.config))
    sys.stdout.write(summary_text(result))
    return EXIT_OK


# --- sweep -------------------------------------------------------------------


def parse_sweep_spec(kv: dict):
    """Split a sweep file's mapping into (param name, values, base config, wire mapping)."""
    param = kv.pop("param", None)
    if param not in SWEEP_PARAMS:
        raise SweepSpecError(f"param must be one of {SWEEP_PARAMS}, got {param!r}")
    values = None
    if "values" in kv:
        values = [float(v) for v in kv.pop("values").split(",")]
    elif "range" in kv or "logrange" in kv:
        key = "range" if "range" in kv else "logrange"
        parts = kv.pop(key).split(",")
        if len(parts) != 3:
            raise SweepSpecError(f"{key} needs start,stop,count")
        start, stop = float(parts[0]), float(parts[1])
        count = _point_count(f"{key} count", int(parts[2]))
        if key == "range":
            values = list(np.linspace(start, stop, count))
        else:
            values = list(np.geomspace(start, stop, count))
    else:
        raise SweepSpecError("sweep spec needs `values=` or `range=`/`logrange=`")
    if len(values) < 2:
        raise SweepSpecError(f"a sweep needs at least 2 points, got {len(values)}")

    wires = {}
    for key in WIRE_KEYS:
        if key in kv:
            wires[key] = float(kv.pop(key))
    missing = [k for k in WIRE_KEYS if k not in wires]
    if param == "I" and missing:
        raise SweepSpecError(f"sweeping I needs wire keys {missing}")
    return param, values, config_from_mapping(kv), wires


def apply_sweep_param(base_config, param: str, value: float, wires: dict):
    if param == "r":
        return base_config.replace(r=value)
    if param == "Bz":
        return base_config.replace(Bz1=value, Bz2=value)
    if param == "Bg1":
        return base_config.replace(Bg1=value)
    if param == "Bg2":
        return base_config.replace(Bg2=value)
    if param == "J0":
        return base_config.replace(J0=value)
    if param == "Bl":
        mode = "driven" if value != 0 else "static"
        return base_config.replace(Bl1=value, Bl2=value, mode=mode)
    if param == "I":
        pair = WirePair(
            current=value, separation=wires["d_m"], radius=wires["rho_m"]
        )
        return base_config.replace(
            Bg1=gradient_field(pair, wires["x1_m"]),
            Bg2=gradient_field(pair, wires["x2_m"]),
        )
    raise SweepSpecError(f"unknown sweep parameter {param!r}")


def _sweep_point(base_config, param, wires, value) -> str:
    """Worker for one sweep point; returns a finished CSV row.

    A point that fails, including one whose parameter value yields an
    invalid configuration (such as a zero wire current), is recorded with
    the name of its package error.
    """
    try:
        g = run_simulation(apply_sweep_param(base_config, param, value, wires)).gate
    except SimulationError as exc:
        return ",".join([_fmt(value), "", "", "", "", type(exc).__name__])
    return ",".join(
        [
            _fmt(value),
            _fmt(g.tau),
            _fmt(g.concurrence_at_tau),
            _fmt(g.eof_at_tau),
            str(g.ops_budget),
            "ok",
        ]
    )


def cmd_sweep(args) -> int:
    param, values, base_config, wires = read_key_values(args.spec, parse_sweep_spec)
    point = functools.partial(_sweep_point, base_config, param, wires)
    with contextlib.ExitStack() as stack:
        ordered_map = map  # Executor.map, like map, yields results in input order
        if args.jobs > 1:
            # Workers keep main's silence on floating-point warnings also
            # when they are spawned rather than forked.
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=args.jobs, initializer=np.seterr, initargs=("ignore",)
            )
            ordered_map = stack.enter_context(pool).map
        rows = list(ordered_map(point, values))
    _write(args.output, SWEEP_HEADER + "\n" + "\n".join(rows) + "\n")
    return EXIT_OK


# --- field profile -----------------------------------------------------------


def parse_wires(kv: dict) -> WirePair:
    try:
        return WirePair(
            current=float(kv["I_A"]),
            separation=float(kv["d_m"]),
            radius=float(kv["rho_m"]),
        )
    except KeyError as exc:
        raise ConfigErrorItem(f"wire config missing key {exc}") from exc


def cmd_field_profile(args) -> int:
    wires = read_key_values(args.wires, parse_wires)
    xs = np.linspace(args.x_from, args.x_to, _point_count("--points", args.points))
    bg = gradient_field(wires, xs)
    lines = ["x_m,Bg_T"]
    lines.extend(f"{_fmt(x)},{_fmt(b)}" for x, b in zip(xs, bg))
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buckygate",
        description="Two-qubit phase gate simulation for dipole-coupled spins.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation, write CSV + summary")
    p.add_argument("config")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gate-time", help="print the gate summary only")
    p.add_argument("config")
    p.set_defaults(func=cmd_gate_time)

    p = sub.add_parser("sweep", help="run a one-parameter sweep")
    p.add_argument("spec")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("field-profile", help="wire-pair field profile CSV")
    p.add_argument("wires")
    p.add_argument("--from", dest="x_from", type=float, required=True)
    p.add_argument("--to", dest="x_to", type=float, required=True)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_field_profile)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Extreme inputs overflow on their way to an error; that error's one line
    # is the report, so numpy's floating-point RuntimeWarnings stay silent.
    with np.errstate(all="ignore"):
        try:
            return args.func(args)
        except (ConfigError, ConfigErrorItem, SweepSpecError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except NoCrossing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_CROSSING
        except SimulationError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
