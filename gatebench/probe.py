"""Set-up time of a fresh process: ``import buckygate`` plus one warm-up solve.

Usage: python3 probe.py <src dir> <kernel kind> <json spec>.  The spec is either
{"kind": "library", "config": {...}} for one ``run_simulation`` or
{"kind": "cli", "argv": [...]} for one ``buckygate`` command.  The last line
of standard output holds the elapsed seconds and, after a space, the median
time of CALIBRATION_RUNS calibration kernels of the given kind run afterwards.
"""

import json
import statistics
import sys
import time

CALIBRATION_RUNS = 7


def main():
    src, kind, spec = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import buckygate

    if spec["kind"] == "library":
        import numpy as np

        fields = dict(spec["config"])
        fields["initial_state"] = np.array([complex(re, im) for re, im in fields["initial_state"]])
        buckygate.run_simulation(buckygate.SimulationConfig(**fields))
    else:
        from buckygate import cli

        code = cli.main(spec["argv"])
        if code != cli.EXIT_OK:
            sys.exit(f"warm-up command exited with {code}")
    elapsed = time.perf_counter() - start
    from calibrate import kernel_seconds

    calibration = statistics.median(kernel_seconds(kind) for _ in range(CALIBRATION_RUNS))
    print(repr(elapsed), repr(calibration))


if __name__ == "__main__":
    main()
