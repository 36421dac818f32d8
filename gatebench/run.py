"""Benchmark of the gate-time pipeline.

Run from the repository root:

    python3 gatebench/run.py --workload static-near --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout.  One process runs
a closed loop, one operation in flight: each operation is a call into a public
entry point (``run_simulation`` or ``buckygate.cli.main``), timed from outside
and checked afterwards, outside the timed region.  Operations repeat whole
rounds over the workload's seeded inputs until ``--seconds`` of timed work are
done.  Times are scaled to nominal host speed by calibration kernels
run between operations (calibrate.py); the text lines also give them as
measured.

``--trace 0`` prints the end-to-end metrics:

* points_per_s: gate solutions that pass their check per second of timed work;
* op_ms_p50, op_ms_p90: percentiles over the inputs of each input's median
  operation time (one run_simulation, simulate or sweep);
* ok_frac: share of the workload's points that pass.  A point fails if it
  raises, gets a sweep status other than ok, or fails its check in any round;
  ``failed`` in the result counts them;
* setup_s: median over fresh processes of ``import buckygate`` plus one
  warm-up solve of the workload's kind;
* peak_rss_mb: ru_maxrss of this process after the timed loop.

``--trace 1`` instead runs an untraced pass and then a traced pass of half
its length (tracing.py), and prints the per-layer metrics, given per round of
inputs, plus the tracing overhead.  Human-readable lines come first; the last
line of standard output is the JSON result.  ``correct`` is false if any
output breaks its format or is inconsistent with itself or its inputs, or if
the trace has orphan spans; points that only miss the oracle's tolerance are
counted in ``failed``.  ``attempted`` and ``failed`` count each of the
workload's points once, however many rounds repeat it, so that they are the
same on every run with one seed.  Scratch files go to ``.gatebench/`` in the checkout:
the work directory is removed at the end, the last traced run's spans per
workload stay in ``.gatebench/trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

# Modules of this directory that import buckygate (workloads, tracing,
# oracle) are imported inside functions, after import_program() has put this
# checkout's src/ first on the path.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".gatebench"

SETUP_REPEATS = 7
# Kernel kind (see calibrate.py) the set-up probes calibrate with.
SETUP_CALIBRATION = "calls"
PROBE_TIMEOUT_S = 60
# A calibration kernel runs after the first operation that ends at least this
# much timed work after the previous one; after long operations, up to
# CALIBRATION_MAX_RUNS kernels run back to back.
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_MAX_RUNS = 5


def import_program():
    """Import buckygate from this checkout's src/, or exit with an error."""
    package = SRC / "buckygate"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no package at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import buckygate

    if Path(buckygate.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported buckygate from {buckygate.__file__}, not {package}")


def setup_seconds(spec) -> list:
    """Set-up time of SETUP_REPEATS fresh processes, run one after another,
    each scaled to nominal speed by the calibration the process made."""
    from calibrate import speed_factor

    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), SETUP_CALIBRATION, json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        elapsed, calibration = map(float, proc.stdout.splitlines()[-1].split())
        times.append(elapsed * speed_factor(SETUP_CALIBRATION, [calibration]))
    return times


class Pass:
    """Operation times and check outcomes of whole rounds over the inputs.

    ``op_s`` holds each operation's wall time scaled to nominal host speed by
    the calibration kernels of its round (see calibrate.py); ``raw_s`` the
    wall time as measured.
    """

    def __init__(self, workload, seconds, tracer=None):
        from calibrate import kernel_seconds, speed_factor
        from workloads import Outcome

        self.op_s, self.raw_s, self.factors, self.outcomes = [], [], [], []
        self.rounds = self.raised = 0
        sink = io.StringIO()
        n = len(workload.inputs)
        timed = since_calibration = 0.0
        while self.rounds == 0 or timed < seconds:
            calibration, raw = [], []
            for i in range(n):
                with contextlib.redirect_stdout(sink):
                    start = time.perf_counter()
                    try:
                        output = tracer.op(workload.op, i) if tracer else workload.op(i)
                    except Exception:  # a raising operation is a failed point
                        output = None
                        if not self.raised:
                            traceback.print_exc()
                        self.raised += 1
                    elapsed = time.perf_counter() - start
                sink.seek(0)
                sink.truncate()
                raw.append(elapsed)
                if output is None:
                    p = workload.points_per_op
                    self.outcomes.append(Outcome(points=p, failed=p))
                else:
                    self.outcomes.append(workload.check(i, output))
                since_calibration += elapsed
                if since_calibration >= CALIBRATION_INTERVAL_S or (i == n - 1 and not calibration):
                    runs = min(CALIBRATION_MAX_RUNS, max(1, int(since_calibration / CALIBRATION_INTERVAL_S)))
                    calibration.extend(kernel_seconds(workload.calibration) for _ in range(runs))
                    since_calibration = 0.0
            factor = speed_factor(workload.calibration, calibration)
            self.factors.append(factor)
            self.raw_s.extend(raw)
            self.op_s.extend(t * factor for t in raw)
            timed += math.fsum(raw)
            self.rounds += 1

    @property
    def timed_s(self) -> float:
        return math.fsum(self.op_s)

    @property
    def points(self) -> int:
        return sum(o.points for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def malformed(self) -> list:
        return [m for o in self.outcomes for m in o.malformed]


def input_outcomes(runs) -> list:
    """One outcome per input: the one with the most failed points the input
    got in any round of the runs.

    Every round repeats the same inputs, so counting points per input, not per
    operation, keeps the counts independent of how many rounds fit in the run.
    """
    worst = {}
    for run in runs:
        n = len(run.outcomes) // run.rounds
        for k, outcome in enumerate(run.outcomes):
            i = k % n
            if i not in worst or outcome.failed > worst[i].failed:
                worst[i] = outcome
    return [worst[i] for i in sorted(worst)]


def input_ms(run: Pass) -> np.ndarray:
    """Each input's median operation time over the run's rounds, in ms.

    Percentiles are taken over these medians: across inputs they show the
    slow inputs, while single operations slowed by the shared host would
    otherwise move the tail from run to run.
    """
    return np.median(np.reshape(run.op_s, (run.rounds, -1)), axis=0) * 1e3


def end_to_end(run: Pass, setup: list) -> dict:
    ms = input_ms(run)
    inputs = input_outcomes([run])
    points = sum(o.points for o in inputs)
    return {
        "points_per_s": ((run.points - run.failed) / run.timed_s, "1/s"),
        "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "ok_frac": ((points - sum(o.failed for o in inputs)) / points, "1"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced: Pass, untraced: Pass, tracer) -> dict:
    from workloads import SAMPLE_CAP

    totals = tracer.totals()
    rounds = traced.rounds
    factor = statistics.median(traced.factors)

    def self_ms(name):
        return (totals.get(name, (0, 0.0))[1] * factor * 1e3 / rounds, "ms")

    def calls(name):
        return (totals.get(name, (0, 0.0))[0] / rounds, "count")

    samples = tracer.samples
    outcomes = traced.outcomes + untraced.outcomes
    return {
        "config.validate.self_ms": self_ms("config.validate"),
        "config.load_config.self_ms": self_ms("config.load_config"),
        "hamiltonian.build_static.calls": calls("hamiltonian.build_static"),
        "hamiltonian.build_drive.calls": calls("hamiltonian.build_drive"),
        "hamiltonian.build_drive.self_ms": self_ms("hamiltonian.build_drive"),
        "propagator.propagate_static.self_ms": self_ms("propagator.propagate_static"),
        "propagator.propagate_numeric.self_ms": self_ms("propagator.propagate_numeric"),
        "propagator.rk4_segment.calls": calls("propagator.rk4_segment"),
        "propagator.rk4_steps": (tracer.rk4_steps / rounds, "count"),
        "analysis.unwrap_phases.self_ms": self_ms("analysis.unwrap_phases"),
        "analysis.find_gate_time.self_ms": self_ms("analysis.find_gate_time"),
        "engine.TrajectoryEvaluator.theta_at.calls": calls("engine.TrajectoryEvaluator.theta_at"),
        "engine.TrajectoryEvaluator.theta_at.self_ms": self_ms("engine.TrajectoryEvaluator.theta_at"),
        "engine.samples_per_solve": (statistics.fmean(samples) if samples else 0.0, "count"),
        "engine.sample_cap_share": (
            sum(n >= SAMPLE_CAP for n in samples) / len(samples) if samples else 0.0,
            "1",
        ),
        "engine.run_trajectory.self_ms": self_ms("engine.run_trajectory"),
        "engine.run_simulation.self_ms": self_ms("engine.run_simulation"),
        "cli.trajectory_csv.self_ms": self_ms("cli.trajectory_csv"),
        "cli.trajectory_csv.bytes": (tracer.csv_bytes / rounds, "B"),
        "cli.cmd_simulate.self_ms": self_ms("cli.cmd_simulate"),
        "cli.cmd_sweep.self_ms": self_ms("cli.cmd_sweep"),
        "analysis.theta_residual_max": (max(o.residual for o in outcomes), "rad"),
        "analysis.tau_oracle_dev_max": (max(o.tau_dev for o in outcomes), "1"),
        "propagator.psi_oracle_dev_max": (max(o.psi_dev for o in outcomes), "1"),
        "trace.overhead_frac": (
            (traced.timed_s / traced.rounds) / (untraced.timed_s / untraced.rounds) - 1,
            "1",
        ),
    }


def input_properties(run: Pass, tracer=None) -> list:
    """Counted (not timed) properties of the inputs, one text line each."""
    from workloads import SAMPLE_CAP

    samples = [n for o in run.outcomes for n in o.samples]
    if tracer is not None:
        samples = tracer.samples
    lines = []
    if samples:
        cap = sum(n >= SAMPLE_CAP for n in samples) / len(samples)
        lines.append(f"share of solves at the {SAMPLE_CAP}-sample cap: {cap:.4f}")
        lines.append(f"samples per solve: mean {statistics.fmean(samples):.1f}, "
                     f"min {min(samples)}, max {max(samples)}")
    if tracer is not None and tracer.rk4_steps:
        lines.append(f"RK4 steps per driven point: {tracer.rk4_steps / run.points:.1f}")
    csv = [o for o in run.outcomes if o.csv_rows]
    if csv:
        lines.append(f"CSV rows per simulate op: {statistics.fmean(o.csv_rows for o in csv):.1f}, "
                     f"bytes: {statistics.fmean(o.csv_bytes for o in csv):.0f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from tracing import Tracer
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {WORKLOADS}")
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=SCRATCH)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        setup = [] if args.trace else setup_seconds(workload.probe(workdir))
        with contextlib.redirect_stdout(io.StringIO()):
            workload.op(0)  # warm-up, untimed
        run = Pass(workload, args.seconds)
        tracer = traced = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = Pass(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            trace_dir = SCRATCH / "trace"
            trace_dir.mkdir(exist_ok=True)
            tracer.save(trace_dir / f"{args.workload}.npz")
            metrics = per_layer(traced, run, tracer)
        else:
            metrics = end_to_end(run, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [run] + ([traced] if traced else [])
    malformed = [m for r in runs for m in r.malformed()]
    orphans = len(tracer.orphans()) if tracer else 0
    inputs = input_outcomes(runs)
    attempted = sum(o.points for o in inputs)
    failed = sum(o.failed for o in inputs)
    print(f"workload {args.workload}, seed {args.seed}: {run.rounds} rounds of "
          f"{len(workload.inputs)} ops, {run.points} points, {run.failed} failed; "
          f"{attempted} distinct points, {failed} failed")
    if traced:
        print(f"traced pass: {traced.rounds} rounds, {len(tracer.start)} spans, {orphans} orphan spans")
    raw_ms = np.asarray(run.raw_s) * 1e3
    print(f"  host speed factor per round: median {statistics.median(run.factors):.4f}, "
          f"min {min(run.factors):.4f}, max {max(run.factors):.4f}; single operations as "
          f"measured: p50 {np.percentile(raw_ms, 50):.6g} ms, p90 {np.percentile(raw_ms, 90):.6g} ms")
    for line in input_properties(traced or run, tracer):
        print("  " + line)
    for message in sorted(set(malformed))[:10]:
        print("  malformed output: " + message)
    if setup:
        print("  setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))
    for name, (value, unit) in metrics.items():
        note = ""
        if name.startswith("op_ms"):
            note = f" (over n={len(run.op_s) // run.rounds} inputs x {run.rounds} rounds)"
        print(f"  {name:45s} {value:.6g} {unit}{note}")
    result = {
        "correct": not malformed and orphans == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
