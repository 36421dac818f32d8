"""Seeded inputs, the timed operation and the output check of each workload.

A workload holds a fixed number of inputs drawn from ``--seed``; one pass over
them is a round.  ``op(i)`` is the timed call into the package's public entry
points, ``check(i, output)`` the untimed check of its result.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

import buckygate
from buckygate import cli
from buckygate.analysis import entanglement_of_formation
from buckygate.config import SimulationConfig, format_config

from oracle import StaticOracle

# Reference parameter set and its static gate time (r^3 scaling sets t_max).
REF_R = 1.14e-9
REF_BZ = 0.1
REF_BG = 6.08e-5
REF_TAU = 9.54e-9

# The engine's sample cap at the time the benchmark was written.
SAMPLE_CAP = 50_001
# Documented column prefixes of the two CSV outputs; later columns are allowed.
TRAJECTORY_COLUMNS = (
    "t_s,re_c1,im_c1,re_c2,im_c2,re_c3,im_c3,re_c4,im_c4,theta_rad,concurrence,norm"
).split(",")
SWEEP_COLUMNS = ("param_value", "tau_s", "concurrence_at_tau", "eof_at_tau", "ops_budget", "status")
PSI_TOL = 1e-10
EOF_TOL = 1e-12


@dataclass
class Outcome:
    """Check result of one operation.

    ``failed`` counts points that raised, got a status other than ok, or
    missed a check.  ``malformed`` lists output-contract violations: output
    that is unreadable or inconsistent with itself or the inputs.
    """

    points: int
    failed: int = 0
    malformed: list = field(default_factory=list)
    residual: float = 0.0  # max |theta_oracle(tau) + pi| over checked points
    tau_dev: float = 0.0  # max relative distance of tau from the oracle crossing
    psi_dev: float = 0.0  # max |psi - psi_oracle| over checked amplitudes
    samples: tuple = ()  # trajectory samples per solve, where the output shows them
    csv_rows: int = 0
    csv_bytes: int = 0


def low_discrepancy(rng, n, d) -> np.ndarray:
    """n points of the R_d sequence (Roberts, 2018) in [0, 1)^d, shifted by a
    random offset.  The points fill the cube evenly, so every seed covers the
    parameter ranges alike and the seeds differ little in their mix."""
    phi = 2.0
    for _ in range(50):  # root of x^(d+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1)
    return (rng.random(d) + np.outer(np.arange(1, n + 1), alpha)) % 1.0


def identical_product_state(rng) -> np.ndarray:
    """Both spins in the same random state with min |q_i| >= 0.35 (criterion 5)."""
    while True:
        q = rng.normal(size=2) + 1j * rng.normal(size=2)
        q = q / np.linalg.norm(q)
        if min(abs(q)) >= 0.35:
            return np.kron(q, q)


def horizon(r, t_factor) -> float:
    """t_factor times the static gate time scaled from the reference by r^3."""
    return t_factor * REF_TAU * (r / REF_R) ** 3


def static_configs(rng, n, r_lo, r_hi, t_factor):
    """r log-uniform in [r_lo, r_hi), Bz1 = Bz2 uniform in 0.05-0.15 T,
    Bg1 = -Bg2 uniform in 3e-5-1.2e-4 T, identically prepared spins."""
    u = low_discrepancy(rng, n, 3)
    rs = np.exp(math.log(r_lo) + u[:, 0] * math.log(r_hi / r_lo))
    bzs = 0.05 + 0.1 * u[:, 1]
    bgs = 3e-5 + 9e-5 * u[:, 2]
    return [
        SimulationConfig(
            r=float(r),
            Bz1=float(bz),
            Bz2=float(bz),
            Bg1=float(bg),
            Bg2=-float(bg),
            initial_state=identical_product_state(rng),
            t_max=horizon(float(r), t_factor),
        )
        for r, bz, bg in zip(rs, bzs, bgs)
    ]


def reference_config(r, t_max, **changes) -> SimulationConfig:
    """Reference fields and the default state at distance r."""
    fields = dict(r=r, Bz1=REF_BZ, Bz2=REF_BZ, Bg1=REF_BG, Bg2=-REF_BG, t_max=t_max)
    fields.update(changes)
    return SimulationConfig(**fields)


def write_config(path, config) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(config))
    return path


def config_fields(config: SimulationConfig) -> dict:
    """JSON-ready keyword arguments that rebuild ``config``."""
    psi = np.asarray(config.initial_state, dtype=complex)
    return {
        "r": config.r,
        "Bz1": config.Bz1,
        "Bz2": config.Bz2,
        "Bg1": config.Bg1,
        "Bg2": config.Bg2,
        "t_max": config.t_max,
        "initial_state": [[v.real, v.imag] for v in psi],
    }


class StaticLibrary:
    """One ``buckygate.run_simulation`` per operation, static mode."""

    points_per_op = 1

    def __init__(self, seed, n, r_lo, r_hi, t_factor, calibration):
        self.calibration = calibration  # kernel kind, see calibrate.py
        self.inputs = static_configs(np.random.default_rng(seed), n, r_lo, r_hi, t_factor)
        # The set-up probe's warm-up input is the same for every seed, so that
        # set-up time does not vary with the draw.
        r = math.sqrt(r_lo * r_hi)
        self.warm_up = reference_config(r, horizon(r, t_factor))
        self._checked = {}

    def op(self, i):
        return buckygate.run_simulation(self.inputs[i])

    def probe(self, workdir):
        return {"kind": "library", "config": config_fields(self.warm_up)}

    def check(self, i, result) -> Outcome:
        key = (result.gate, len(result.trajectory.times))
        cached = self._checked.get(i)
        if cached is not None and cached[0] == key:
            return cached[1]
        config = self.inputs[i]
        oracle = StaticOracle(config)
        tau = result.gate.tau
        passed, residual, tau_dev = oracle.check_tau(tau)
        out = Outcome(points=1, residual=residual, tau_dev=tau_dev)
        out.samples = (len(result.trajectory.times),)
        out.psi_dev = float(
            np.max(np.abs(result.trajectory.states - oracle.psi(result.trajectory.times)))
        )
        if not 0 < tau <= config.t_max:
            out.malformed.append(f"tau={tau!r} outside (0, t_max={config.t_max!r}]")
        out.failed = int(not passed or bool(out.malformed))
        self._checked[i] = (key, out)
        return out


class SimulateCsv:
    """``buckygate simulate <cfg> --outdir <dir>`` through ``cli.main``."""

    points_per_op = 1
    calibration = "calls"

    r_lo, r_hi, t_factor = 0.9e-9, 1.3e-9, 1.6

    def __init__(self, seed, n, workdir):
        rng = np.random.default_rng(seed)
        self.configs = static_configs(rng, n, self.r_lo, self.r_hi, self.t_factor)
        self.outdir = os.path.join(workdir, "simulate")
        self.inputs = [
            write_config(os.path.join(workdir, f"simulate-{i}.cfg"), config)
            for i, config in enumerate(self.configs)
        ]
        self._checked = {}

    def op(self, i):
        return cli.main(["simulate", self.inputs[i], "--outdir", self.outdir])

    def probe(self, workdir):
        r = math.sqrt(self.r_lo * self.r_hi)
        warm_up = reference_config(r, horizon(r, self.t_factor))
        path = write_config(os.path.join(workdir, "probe.cfg"), warm_up)
        return {"kind": "cli", "argv": ["simulate", path, "--outdir", os.path.join(workdir, "probe")]}

    def check(self, i, code) -> Outcome:
        if code != cli.EXIT_OK:
            return Outcome(points=1, failed=1)
        with open(os.path.join(self.outdir, "summary.txt"), encoding="utf-8") as fh:
            summary = fh.read()
        with open(os.path.join(self.outdir, "trajectory.csv"), encoding="utf-8") as fh:
            csv = fh.read()
        key = hashlib.sha256((summary + "\0" + csv).encode()).digest()
        cached = self._checked.get(i)
        if cached is not None and cached[0] == key:
            return cached[1]
        out = self._check_files(self.configs[i], summary, csv)
        self._checked[i] = (key, out)
        return out

    def _check_files(self, config, summary, csv) -> Outcome:
        out = Outcome(points=1, csv_bytes=len(csv.encode()))
        values = dict(line.split("=", 1) for line in summary.splitlines() if "=" in line)
        try:
            tau = float(values["tau_s"])
        except (KeyError, ValueError):
            out.malformed.append("summary.txt has no numeric tau_s")
            out.failed = 1
            return out
        oracle = StaticOracle(config)
        passed, out.residual, out.tau_dev = oracle.check_tau(tau)

        lines = csv.splitlines()
        header = lines[0].split(",")
        out.csv_rows = len(lines) - 1
        expected = buckygate.run_simulation(config).trajectory.times
        out.samples = (out.csv_rows,)
        if header[: len(TRAJECTORY_COLUMNS)] != TRAJECTORY_COLUMNS:
            out.malformed.append(f"trajectory.csv header {lines[0]!r}")
        elif out.csv_rows != len(expected):
            out.malformed.append(f"trajectory.csv has {out.csv_rows} rows, expected {len(expected)}")
        else:
            table = np.array([row.split(",")[:9] for row in lines[1:]], dtype=float)
            if not np.array_equal(table[:, 0], expected):
                out.malformed.append("trajectory.csv times differ from the sample grid")
            psi = table[:, 1:9:2] + 1j * table[:, 2:9:2]
            out.psi_dev = float(np.max(np.abs(psi - oracle.psi(table[:, 0]))))
            if not out.psi_dev <= PSI_TOL:
                out.malformed.append(f"amplitudes deviate from the oracle by {out.psi_dev:.3e}")
        if not 0 < tau <= config.t_max:
            out.malformed.append(f"tau={tau!r} outside (0, t_max={config.t_max!r}]")
        out.failed = int(not passed or bool(out.malformed))
        return out


class DrivenSweep:
    """``buckygate sweep <spec> --output <csv>`` over the drive amplitude Bl."""

    base_fields = (0.025, 0.05, 0.1)
    points_per_file = 4
    points_per_op = points_per_file
    t_max = 1.5e-8
    calibration = "calls"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.output = os.path.join(workdir, "sweep.csv")
        self.bases, self.values, self.inputs = [], [], []
        for k, bz in enumerate(self.base_fields):
            base = reference_config(REF_R, self.t_max, Bz1=bz, Bz2=bz)
            u = low_discrepancy(rng, self.points_per_file, 1)[:, 0]
            values = [float(v) for v in 2e-4 + 8e-4 * u]
            path = os.path.join(workdir, f"sweep-{k}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_config(base))
                fh.write("param=Bl\nvalues=" + ",".join(map(repr, values)) + "\n")
            self.bases.append(base)
            self.values.append(values)
            self.inputs.append(path)

    def op(self, i):
        return cli.main(["sweep", self.inputs[i], "--output", self.output])

    def probe(self, workdir):
        bz = self.base_fields[0]
        warm_up = reference_config(REF_R, self.t_max, Bz1=bz, Bz2=bz, mode="driven", Bl1=6e-4, Bl2=6e-4)
        path = write_config(os.path.join(workdir, "probe.cfg"), warm_up)
        return {"kind": "cli", "argv": ["gate-time", path]}

    def check(self, i, code) -> Outcome:
        n = self.points_per_file
        if code != cli.EXIT_OK:
            return Outcome(points=n, failed=n)
        with open(self.output, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        out = Outcome(points=n)
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if not set(SWEEP_COLUMNS) <= set(header) or len(rows) != n:
            out.malformed.append(f"sweep CSV: header {lines[0]!r}, {len(rows)} rows for {n} values")
            out.failed = n
            return out
        T2 = self.bases[i].T2
        for value, row in zip(self.values[i], rows):
            problems = []
            if float(row["param_value"]) != value:
                problems.append(f"param_value {row['param_value']} != {value!r}")
            if row["status"] != "ok":
                out.malformed.extend(problems)
                out.failed += 1
                continue
            tau, c, eof = float(row["tau_s"]), float(row["concurrence_at_tau"]), float(row["eof_at_tau"])
            if not 0 < tau <= self.t_max:
                problems.append(f"tau={tau!r} outside (0, {self.t_max!r}]")
            if not 0 <= c <= 1:
                problems.append(f"concurrence {c!r} outside [0, 1]")
            elif abs(eof - entanglement_of_formation(c)) > EOF_TOL:
                problems.append(f"eof {eof!r} != E({c!r})")
            if tau > 0 and int(row["ops_budget"]) != math.floor(T2 / tau):
                problems.append(f"ops_budget {row['ops_budget']} != floor(T2/tau)")
            out.malformed.extend(problems)
            out.failed += bool(problems)
        return out


def make_workload(name, seed, workdir):
    """The named workload with its full input set."""
    if name == "static-near":
        return StaticLibrary(seed, 256, 0.9e-9, 1.5e-9, 2.0, "calls")
    if name == "static-far":
        return StaticLibrary(seed, 256, 3e-9, 12e-9, 2.5, "arrays")
    if name == "driven-sweep":
        return DrivenSweep(seed, workdir)
    if name == "simulate-csv":
        return SimulateCsv(seed, 128, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("static-near", "static-far", "driven-sweep", "simulate-csv")
