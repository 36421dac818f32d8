"""Classical RK4 over a whole trajectory: the tests' oracle for driven runs.

Built from the package's own RK4 kernel, ``rk4_segment``, so it takes the
uniform sample grids the package's Magnus pass serves.
"""

import math

import numpy as np

from buckygate.hamiltonian import build_static
from buckygate.propagator import (
    Trajectory,
    _check_norms,
    _check_times,
    rk4_segment,
    time_dependent_hamiltonian,
)


def propagate_numeric(config, times, dt_max: float) -> Trajectory:
    """RK4 trajectory on the uniform grid ``times`` = np.linspace(0, t_end, n)
    by ceil(spacing / dt_max) uniform steps per sample interval, at least one.

    Raises ValueError for any other grid, and NormDrift at the first sample
    whose squared norm departs from 1 by more than NORM_TOLERANCE, naming
    the largest substep taken, which a smaller ``dt_max`` must undercut to
    help; integration stops at that sample.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    if not np.array_equal(times, np.linspace(0.0, times[-1], len(times))):
        raise ValueError("the RK4 oracle needs a uniform grid, np.linspace(0, t_end, n)")
    spacing = times[-1] / (len(times) - 1)
    count = max(1, math.ceil(spacing / dt_max))
    hfun = time_dependent_hamiltonian(config, build_static(config))
    states = np.empty((len(times), 4), dtype=complex)
    states[0] = config.initial_state
    for k in range(1, len(times)):
        # A bound of span / (count - 1/2) gives every interval exactly
        # ``count`` steps, which the span's own rounding cannot move.
        span = times[k] - times[k - 1]
        states[k] = rk4_segment(hfun, states[k - 1], times[k - 1], times[k], span / (count - 0.5))
        _check_norms(times[k : k + 1], states[k : k + 1], "RK4", spacing / count)
    return Trajectory(times=times, states=states)
