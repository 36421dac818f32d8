"""Host-speed calibration: fixed kernels timed next to the operations.

The shared host this benchmark was built on changes speed by up to a factor of
two within seconds (other tenants on the same cores and memory), which moves
every timing together.  A kernel does the same kind of work as a workload
without calling the package, so its time tracks the host's speed for that
kind of work, and times are reported scaled to the speed at which the kernel
takes its nominal time.  Two kinds are needed because the host's slow phases
hit interpreted code and memory-bound array code by different factors:

* ``calls``: an interpreted loop, small numpy calls and float formatting, like
  short solves, RK4 steps and CSV output;
* ``arrays``: one spectral evolution and unwrap on a grid larger than the
  core's caches, like the long static trajectories.

Nominal times are typical fast-phase values on a 2-vCPU Intel Xeon at 2.1 GHz.
"""

import time

import numpy as np

_rng = np.random.default_rng(0)
_H = _rng.normal(size=(4, 4))
_H = _H + _H.T
_T_SMALL = np.linspace(0.0, 1.0, 500)
_T_LARGE = np.linspace(0.0, 1.0, 20_000)


def _spectral(times):
    lam, vec = np.linalg.eigh(_H)
    z = np.exp(-1j * np.outer(times, lam)) @ vec.T
    np.unwrap(np.angle(z), axis=0)


def _calls():
    total = 0
    for i in range(2000):
        total += i * i
    for _ in range(10):
        _spectral(_T_SMALL)
    return total + len(",".join(repr(x) for x in _T_SMALL[:200].tolist()))


def _arrays():
    _spectral(_T_LARGE)


KERNELS = {"calls": (_calls, 2.0e-3), "arrays": (_arrays, 6.0e-3)}


def kernel_seconds(kind) -> float:
    """Wall time of one run of the named kernel."""
    kernel = KERNELS[kind][0]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(kind, samples) -> float:
    """Factor that scales times measured next to these kernel samples to
    nominal speed."""
    return KERNELS[kind][1] / float(np.median(samples))
