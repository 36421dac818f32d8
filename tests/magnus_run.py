"""A driven run's whole Magnus pass in one call, for the tests."""

from buckygate.propagator import MagnusPass


def propagate_magnus(blocks, config, times, steps: int):
    """Driven trajectory by ``steps`` uniform 4th-order Magnus steps per
    sample interval: a ``MagnusPass`` taken to its end in one call, which
    raises as the pass does (ValueError, OutOfRange or NormDrift)."""
    run = MagnusPass(blocks, config, times, steps)
    run.advance(run.total)
    return run.trajectory
