"""Classical RK4 over a whole trajectory: the tests' oracle for driven runs.

Built from the package's own RK4 step matrices, so it takes the uniform
sample grids the package's Magnus pass serves.
"""

import math
from functools import partial

import numpy as np

from buckygate.hamiltonian import build_static
from buckygate.propagator import (
    _RK4_STEPS_PER_CHUNK,
    Trajectory,
    _carry,
    _check_norms,
    _check_times,
    _interval_products,
    _rk4_matrices,
    time_dependent_hamiltonian,
)


def propagate_numeric(config, resonances, times, dt_max: float) -> Trajectory:
    """RK4 trajectory on the uniform grid ``times`` = np.linspace(0, t_end, n)
    by ceil(spacing / dt_max) uniform steps per sample interval, at least one.

    Raises ValueError for any other grid, and NormDrift naming the first
    sample whose squared norm departs from 1 by more than NORM_TOLERANCE and
    the largest substep taken, which a smaller ``dt_max`` must undercut to
    help; the check runs after each chunk of steps, so integration stops at
    most one chunk past that sample.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    if not np.array_equal(times, np.linspace(0.0, times[-1], len(times))):
        raise ValueError("the RK4 oracle needs a uniform grid, np.linspace(0, t_end, n)")
    spacing = times[-1] / (len(times) - 1)
    count = max(1, math.ceil(spacing / dt_max))
    hfun = time_dependent_hamiltonian(config, resonances, build_static(config))
    states = np.empty((len(times), 4), dtype=complex)
    states[0] = config.initial_state
    taken = f"RK4 substep taken was {spacing / count:.3e} s"
    for first, block in _chunks(partial(_rk4_matrices, hfun), states[0], times, count):
        states[first : first + len(block)] = block
        _check_norms(times[first:], block, taken)
    return Trajectory(times=times, states=states)


def _chunks(step_matrices, psi: np.ndarray, times: np.ndarray, count: int):
    """psi carried from ``times[0]`` through each later time of the uniform
    grid ``times`` by ``count`` steps per interval, whose matrices
    ``step_matrices(nodes, h)`` returns.

    A chunk holds _RK4_STEPS_PER_CHUNK // count whole intervals, or one interval
    if it takes more steps.  Yields (first, states) per chunk, where
    states[j] is psi at times[first + j].
    """
    intervals = len(times) - 1
    sizes = np.full(intervals, (times[-1] - times[0]) / (count * intervals))
    per = max(1, _RK4_STEPS_PER_CHUNK // count)
    for first in range(0, intervals, per):
        rows = slice(first, min(first + per, intervals))
        products = _interval_products(step_matrices, times[rows], count, sizes[rows])
        states = _carry(products, psi, np.empty_like(products))
        psi = states[-1]
        yield first + 1, states
