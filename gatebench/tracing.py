"""Spans around the package's functions, installed from outside the package.

Each wrapper is set on every namespace that looks its name up at call time,
so the package's own calls go through it.  A span records its name, start,
end, parent span and solve id (the index of the enclosing ``run_simulation``
call, -1 outside one).  The benchmark opens one root span per operation;
wrapped functions called outside an operation (by the checks) are not
recorded.  Spans are kept in flat arrays until the run ends.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

import buckygate
from buckygate import cli, engine, propagator

ROOT = "op"
SOLVE = "engine.run_simulation"


def _targets():
    """(span name, [namespaces holding the name], attribute)."""
    return [
        ("config.validate", [engine], "validate"),
        ("config.load_config", [cli], "load_config"),
        ("hamiltonian.build_static", [engine, propagator], "build_static"),
        ("hamiltonian.build_drive", [propagator], "build_drive"),
        ("propagator.propagate_static", [engine], "propagate_static"),
        ("propagator.propagate_numeric", [engine], "propagate_numeric"),
        ("propagator.rk4_segment", [engine, propagator], "rk4_segment"),
        ("analysis.unwrap_phases", [engine], "unwrap_phases"),
        ("analysis.find_gate_time", [engine], "find_gate_time"),
        ("engine.sample_times", [engine], "sample_times"),
        ("engine.run_trajectory", [engine], "run_trajectory"),
        (SOLVE, [buckygate, cli], "run_simulation"),
        ("engine.TrajectoryEvaluator.theta_at", [engine.TrajectoryEvaluator], "theta_at"),
        ("cli.trajectory_csv", [cli], "trajectory_csv"),
        ("cli.cmd_simulate", [cli], "cmd_simulate"),
        ("cli.cmd_sweep", [cli], "cmd_sweep"),
    ]


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.name_ids = {ROOT: 0}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve = array("i")
        self._stack = []
        self._solve = -1
        self._solves = 0
        self._patches = []
        self.rk4_steps = 0
        self.samples = []
        self.csv_bytes = 0

    # --- recording ---------------------------------------------------------

    def _open(self, name_id):
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self._solve)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark operation under a root span."""
        index = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        record = getattr(self, "_record_" + name.rsplit(".", 1)[-1], None)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            outer_solve = tracer._solve
            if name == SOLVE:
                tracer._solve = tracer._solves
                tracer._solves += 1
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                tracer._solve = outer_solve
            if record is not None:
                record(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _record_rk4_segment(self, args, result):
        t0, t1, dt_max = args[2], args[3], args[4]
        self.rk4_steps += math.ceil((t1 - t0) / dt_max)

    def _record_sample_times(self, args, result):
        self.samples.append(len(result))

    def _record_trajectory_csv(self, args, result):
        self.csv_bytes += len(result.encode())

    # --- installation ------------------------------------------------------

    def install(self):
        """Patch every target namespace; names a namespace lacks are skipped."""
        wrapped = {}
        for name, owners, attr in _targets():
            for owner in owners:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------

    def orphans(self) -> np.ndarray:
        """Indices of unclosed spans, parentless spans other than operation
        roots, and spans whose parent does not enclose them or belongs to
        another solve."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        solve = np.frombuffer(self.solve, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        index = np.arange(len(start))
        p = np.where(parent >= 0, parent, index)
        ok = np.where(
            parent >= 0,
            (p < index)
            & (start[p] <= start)
            & (end <= end[p])
            & ((solve == solve[p]) | (names == self.name_ids.get(SOLVE, -1))),
            names == 0,
        )
        return np.flatnonzero(~ok | np.isnan(end))

    def totals(self) -> dict:
        """name -> (calls, self seconds); self time excludes child spans."""
        start = np.frombuffer(self.start, dtype=float)
        duration = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[k]), float(self_s[k])) for k, n in enumerate(self.names)}

    def save(self, path):
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            solve=np.frombuffer(self.solve, dtype=np.int32),
        )
