"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest gatebench
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import buckygate  # noqa: E402
from buckygate import cli, engine  # noqa: E402
from buckygate.config import format_config  # noqa: E402
from oracle import StaticOracle  # noqa: E402
from run import input_outcomes  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    REF_R,
    WORKLOADS,
    DrivenSweep,
    SimulateCsv,
    StaticLibrary,
    Outcome,
    make_workload,
    reference_config,
)


def fingerprint(workload):
    """Text of every input: config files as written, configs as formatted."""
    texts = []
    for item in workload.inputs:
        if isinstance(item, str):
            texts.append(Path(item).read_text())
        else:
            texts.append(format_config(item))
    return texts


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_with_a_fixed_size(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = fingerprint(make_workload(name, 7, str(tmp_path / "a")))
    assert first == fingerprint(make_workload(name, 7, str(tmp_path / "b")))
    for seed in (1, 2, 3):
        other = fingerprint(make_workload(name, seed, str(tmp_path)))
        assert len(other) == len(first)
        assert other != first


@pytest.fixture(scope="module")
def reference_tau():
    return buckygate.run_simulation(reference_config(REF_R, 1.3e-8)).gate.tau


def test_oracle_passes_the_reference_config(reference_tau):
    passed, residual, tau_dev = StaticOracle(reference_config(REF_R, 1.3e-8)).check_tau(reference_tau)
    assert passed
    assert residual <= 1e-7 and tau_dev < 1e-6


@pytest.mark.parametrize("shift", [1e-3, -1e-3])
def test_oracle_fails_a_moved_tau(reference_tau, shift):
    oracle = StaticOracle(reference_config(REF_R, 1.3e-8))
    passed, residual, tau_dev = oracle.check_tau(reference_tau * (1 + shift))
    assert not passed
    assert tau_dev == pytest.approx(1e-3, rel=0.1)  # first-order estimate


def test_traced_run_has_no_orphan_spans(tmp_path):
    workloads = [
        StaticLibrary(3, 2, 0.9e-9, 1.5e-9, 2.0, "calls"),
        SimulateCsv(3, 1, str(tmp_path)),
        DrivenSweep(3, str(tmp_path)),
    ]
    original = buckygate.run_simulation
    original_theta_at = engine.TrajectoryEvaluator.__dict__["theta_at"]
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            results = [tracer.op(w.op, 0) for w in workloads]
        # Calls outside an operation, as the checks make, are not recorded.
        buckygate.run_simulation(reference_config(REF_R, 1.3e-8))
    finally:
        tracer.uninstall()
    assert buckygate.run_simulation is original and cli.run_simulation is original
    assert engine.TrajectoryEvaluator.__dict__["theta_at"] is original_theta_at
    assert results[1:] == [cli.EXIT_OK, cli.EXIT_OK]
    assert len(tracer.orphans()) == 0
    totals = tracer.totals()
    assert totals["op"][0] == 3
    assert totals["engine.run_simulation"][0] == 1 + 1 + DrivenSweep.points_per_file
    assert totals["hamiltonian.build_drive"][0] > 0 and tracer.rk4_steps > 0
    assert all(seconds > -1e-9 for _, seconds in totals.values())

    tracer.parent[len(tracer.parent) - 1] = -1
    assert len(tracer.orphans()) == 1


def test_counts_do_not_depend_on_the_number_of_rounds():
    class Run:
        def __init__(self, rounds, failing_round=None):
            self.rounds = rounds
            self.outcomes = [
                Outcome(points=4, failed=int(i == 1) + 2 * (r == failing_round and i == 2))
                for r in range(rounds)
                for i in range(3)
            ]

    short, long_ = input_outcomes([Run(2)]), input_outcomes([Run(9)])
    assert [o.failed for o in short] == [o.failed for o in long_] == [0, 1, 0]
    mixed = input_outcomes([Run(5), Run(3, failing_round=1)])
    assert sum(o.points for o in mixed) == 12 and sum(o.failed for o in mixed) == 3
