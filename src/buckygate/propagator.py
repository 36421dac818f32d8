"""Schrodinger propagation of the four basis amplitudes.

Three routes are provided:

* ``propagate_static`` solves the time-independent problem exactly through an
  eigendecomposition and serves as the oracle for everything else;
* ``propagate_magnus`` integrates driven runs in the interaction picture of
  the static Hamiltonian H0 with the 4th-order Magnus step, whose step is set
  by the drive instead of by the Zeeman precession;
* ``propagate_numeric`` integrates the (possibly time-dependent) equations
  with fixed-step classical RK4, the oracle for driven runs.

For a linear equation one step of either integrator is a 4x4 matrix, so they
build the step matrices of many steps in one batched pass over a vectorized
generator, compose the steps of each sample interval with a pairwise product
tree and advance the state with one matrix-vector product per stored sample.
Steps are processed in bounded chunks, so memory does not grow with the
horizon.  The RK4 arithmetic is that of the classical scalar loop,
reassociated.

The state is never renormalized during integration: norm drift is the
step-size diagnostic, hiding it would defeat the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import SimulationConfig
from .errors import NonHermitianInput, NormDrift, OutOfRange
from .fields import ResonancePair
from .hamiltonian import (
    DRIVE_OPERATORS,
    build_drive,
    build_static,
    drive_amplitudes,
    drive_peak_amplitude,
    is_hermitian,
)

# Phase advanced per integration step at the fastest Hamiltonian scale.
MAX_PHASE_PER_STEP = 0.05

# The engine integrates a factor below the bound above so that RK4 norm drift
# stays well inside the default 1e-8 tolerance over ~10 ns horizons.
DEFAULT_STEP_SAFETY = 0.2

# Upper bound on the steps whose matrices are built and composed at once; it
# keeps the temporary arrays to a few hundred kB whatever the horizon.
STEPS_PER_CHUNK = 512

# Upper bound on the steps of one integration, checked before any is taken:
# about a minute of work.  The benchmark's driven runs take at most 6 000.
MAX_STEPS = 10**7

_IDENTITY_4 = np.eye(4, dtype=complex)

# Gauss-Legendre nodes of the 4th-order Magnus step, as fractions of the step.
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3) / 6

# A Taylor polynomial of exp(Omega) stops once its remainder bound is below
# double-precision rounding.
_TAYLOR_TOL = 2.0**-53


@dataclass(frozen=True)
class Trajectory:
    """Sampled time evolution: times (s) and the 4 amplitudes per sample."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if self.states.shape != (len(self.times), 4):
            raise ValueError("states must have shape (len(times), 4)")

    @property
    def norms(self) -> np.ndarray:
        """Squared norm at each sample."""
        return np.sum(np.abs(self.states) ** 2, axis=1)


def recommended_step(h_scale: float) -> float:
    """Step dt such that h_scale * dt <= 0.05 rad per step.

    ``h_scale`` is the largest absolute Hamiltonian entry, drive peak and
    resonance frequency included.  This is an upper bound on a usable step;
    long integrations should stay a factor of a few below it.
    """
    if h_scale <= 0:
        raise ValueError(f"h_scale must be > 0, got {h_scale}")
    return MAX_PHASE_PER_STEP / h_scale


def hamiltonian_scale(
    config: SimulationConfig, resonances: ResonancePair, h0: np.ndarray | None = None
) -> float:
    """Fastest angular-frequency scale of the full (static + drive) problem.

    ``h0`` is the config's static Hamiltonian, for callers that have already
    built it.
    """
    if h0 is None:
        h0 = build_static(config)
    return max(
        float(np.max(np.abs(h0))),
        drive_peak_amplitude(config),
        abs(resonances.omega1),
        abs(resonances.omega2),
    )


def resolve_step(
    config: SimulationConfig, resonances: ResonancePair, scale: float | None = None
) -> SimulationConfig:
    """Fill in the integration step when the config leaves it automatic.

    ``scale`` is the config's ``hamiltonian_scale``, for callers that have
    already computed it.
    """
    if config.dt is not None:
        return config
    if scale is None:
        scale = hamiltonian_scale(config, resonances)
    return config.replace(dt=DEFAULT_STEP_SAFETY * recommended_step(scale))


class SpectralPropagator:
    """Exact evolution under a constant Hermitian matrix via eigendecomposition."""

    def __init__(self, h: np.ndarray):
        if not is_hermitian(h):
            raise NonHermitianInput("static Hamiltonian is not Hermitian")
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(h)
        self._rates = -self.eigenvalues
        self._to_eigen = self.eigenvectors.conj()
        self._from_eigen = self.eigenvectors.T

    def evolve(self, psi: np.ndarray, dtau) -> np.ndarray:
        """psi(t0 + dtau) from psi(t0).

        ``dtau`` may be an array of n steps; ``psi`` is then one state or n
        states, one per step, and the result has shape (n, 4).
        """
        return self.from_eigen(psi @ self._to_eigen, dtau)

    def from_eigen(self, coefficients: np.ndarray, dtau) -> np.ndarray:
        """V exp(-i L dtau) c: the state whose eigenbasis coefficients are c
        at time 0, evolved by ``dtau`` (shapes as in ``evolve``)."""
        phases = _unit_phases(np.multiply.outer(dtau, self._rates))
        phases *= coefficients
        return phases @ self._from_eigen


def _unit_phases(x) -> np.ndarray:
    """exp(i x), filled from cos and sin: cheaper than np.exp of an imaginary
    array, and equal to it to rounding."""
    phases = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=phases.real)
    np.sin(x, out=phases.imag)
    return phases


def propagate_static(h, psi0: np.ndarray, times) -> Trajectory:
    """Exact static-Hamiltonian trajectory psi(t) = V exp(-i L t) V^dag psi0.

    ``h`` is the Hamiltonian or a SpectralPropagator already built from it.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    prop = h if isinstance(h, SpectralPropagator) else SpectralPropagator(h)
    states = prop.evolve(np.asarray(psi0, dtype=complex), times)
    return Trajectory(times=times, states=states)


def rk4_segment(hfun, psi: np.ndarray, t0: float, t1: float, dt_max: float) -> np.ndarray:
    """Integrate i dpsi/dt = H(t) psi from t0 to t1 with uniform steps <= dt_max."""
    if t1 == t0:
        return psi.copy()
    _, states = next(_rk4_chunks(hfun, psi, np.array([t0, t1]), dt_max))
    return states[0]


def _rk4_chunks(hfun, psi: np.ndarray, times: np.ndarray, dt_max: float):
    """Classical RK4 from ``times[0]`` through each later sample time, in the
    chunks of ``_chunks``."""
    return _chunks(partial(_rk4_matrices, hfun), psi, times, dt_max)


def _chunks(step_matrices, psi: np.ndarray, times: np.ndarray, dt_max: float):
    """psi carried from ``times[0]`` through each later sample time by the
    steps whose matrices ``step_matrices(nodes, h)`` returns.

    Interval i takes n_i = ceil(span_i / dt_max) uniform steps.  Whole
    intervals are grouped into chunks of at most STEPS_PER_CHUNK steps, the
    shorter intervals of a chunk padded with identity steps (h = 0) up to its
    longest; an interval longer than a chunk forms a chunk of its own.
    Yields (first, states) per chunk, where states[j] is psi at
    times[first + j].
    """
    counts, sizes = _substeps(times, dt_max)
    n = counts.tolist()
    first = 0
    while first < len(n):
        last, width = first + 1, n[first]
        while last < len(n) and max(width, n[last]) * (last + 1 - first) <= STEPS_PER_CHUNK:
            width = max(width, n[last])
            last += 1
        rows = slice(first, last)
        products = _interval_products(step_matrices, times[rows], counts[rows], sizes[rows], width)
        states = np.empty((last - first, 4), dtype=complex)
        for j, u in enumerate(products):
            psi = u @ psi
            states[j] = psi
        yield first + 1, states
        first = last


def largest_substep(times: np.ndarray, dt_max: float) -> float:
    """Largest step taken through the sample grid ``times`` with steps of
    at most ``dt_max``: min(dt_max, spacing) on a uniform grid."""
    return float(np.max(_substeps(times, dt_max)[1]))


def _substeps(times: np.ndarray, dt_max: float):
    """Step count and uniform step size of each sample interval.

    No step is longer than its interval, so a ``dt_max`` above the sample
    spacing is never taken.  Raises OutOfRange when the steps would number
    more than MAX_STEPS.
    """
    spans = np.diff(times)
    counts = np.maximum(1, np.ceil(spans / dt_max))
    total = float(np.sum(counts))
    if not total <= MAX_STEPS:
        raise OutOfRange(
            f"{total:.4g} steps of at most {dt_max:.4g} s over {times[-1] - times[0]:.4g} s "
            f"exceed the limit of {MAX_STEPS:.0e}"
        )
    counts = counts.astype(np.int64)
    return counts, spans / counts


def _interval_products(step_matrices, starts, counts, sizes, width):
    """Product of the step matrices of each interval, later steps left.

    Step times accumulate as ``t += h`` from each interval's start, the way
    a scalar loop takes them; steps past an interval's count have h = 0 and
    so are exact identities.
    """
    t = starts
    product = None
    for c in range(0, width, STEPS_PER_CHUNK):
        steps = np.arange(c, min(c + STEPS_PER_CHUNK, width))
        h = np.where(steps < counts[:, None], sizes[:, None], 0.0)
        nodes = np.cumsum(np.column_stack([t, h]), axis=1)
        block = _compose(step_matrices(nodes, h))
        product = block if product is None else block @ product
        t = nodes[:, -1]
    return product


def _rk4_matrices(hfun, nodes, h):
    """RK4 step matrices M = I + (A1 + 2 A2 + 2 A3 + A4) / 6.

    Step k runs from nodes[..., k] to nodes[..., k + 1] = nodes[..., k] + h[..., k].
    With A(s) = -i h H(s): A1 = A(t), A2 = A(t + h/2)(I + A1/2),
    A3 = A(t + h/2)(I + A2/2), A4 = A(t + h)(I + A3); in exact arithmetic
    M psi is one classical RK4 step of psi.
    """
    a = -1j * h[..., None, None]
    h_at_nodes = hfun(nodes)
    a_mid = a * hfun(nodes[..., :-1] + h / 2)
    a1 = a * h_at_nodes[..., :-1, :, :]
    a2 = a_mid @ (_IDENTITY_4 + a1 / 2)
    a3 = a_mid @ (_IDENTITY_4 + a2 / 2)
    a4 = (a * h_at_nodes[..., 1:, :, :]) @ (_IDENTITY_4 + a3)
    return _IDENTITY_4 + (a1 + 2 * a2 + 2 * a3 + a4) / 6


def _magnus_matrices(generator, nodes, h):
    """4th-order Magnus step matrices exp(Omega) for i dphi/dt = G(t) phi,
    where ``generator(t, c)`` returns c G(t) for a Hermitian G.

    Steps run as in ``_rk4_matrices``.  With B_j = -i h G(t + c_j h) at the
    two Gauss-Legendre nodes c_j, Omega = (B1 + B2) / 2 + sqrt(3)/12 [B2, B1];
    B_j is anti-Hermitian, so B1 B2 = (B2 B1)^dag and the commutator takes
    one product.  A step with h = 0 gives Omega = 0 and an exact identity.
    """
    # b_j = B_j / 2, so Omega = b1 + b2 + sqrt(3)/3 [b2, b1].
    b = generator(nodes[..., :-1, None] + h[..., None] * _GAUSS_NODES, -0.5j * h[..., None])
    b1, b2 = b[..., 0, :, :], b[..., 1, :, :]
    omega = b2 @ b1
    omega -= omega.conj().swapaxes(-1, -2)
    omega *= np.sqrt(3) / 3
    omega += b1
    omega += b2
    return _expm_taylor(omega)


def _expm_taylor(omega):
    """exp(omega) of small matrices by their Taylor polynomial.

    The odd degree 2m + 1 is the lowest whose remainder bound
    nu^(2m+2) / (2m+2)!, with nu the largest Frobenius norm in the batch, is
    below _TAYLOR_TOL.  The polynomial is evaluated by Horner's rule in
    omega^2 over the pairs I/(2k)! + omega/(2k+1)!: m + 1 matrix products.
    """
    nu2 = float(np.max(np.sum(omega.real**2 + omega.imag**2, axis=(-2, -1)), initial=0.0))
    m, bound = 0, nu2 / 2
    while _TAYLOR_TOL < bound < math.inf:
        m += 1
        bound *= nu2 / ((2 * m + 1) * (2 * m + 2))
    square = omega @ omega
    result = None
    for k in range(m, -1, -1):
        pair = omega / math.factorial(2 * k + 1)
        # Every 5th of a 4x4 matrix's 16 entries is on its diagonal.
        pair.reshape(pair.shape[:-2] + (16,))[..., ::5] += 1 / math.factorial(2 * k)
        result = pair if result is None else square @ result + pair
    return result


def _compose(m):
    """Pairwise product tree over axis 1: m[:, -1] @ ... @ m[:, 1] @ m[:, 0]."""
    while m.shape[1] > 1:
        pairs = m[:, 1::2] @ m[:, 0 : m.shape[1] - 1 : 2]
        if m.shape[1] % 2:
            pairs = np.concatenate([pairs, m[:, -1:]], axis=1)
        m = pairs
    return m[:, 0]


def time_dependent_hamiltonian(
    config: SimulationConfig, resonances: ResonancePair, h0: np.ndarray | None = None
):
    """Return H(t) for the configured mode as a callable of time.

    ``t`` may be an array; H(t) then has shape ``t.shape + (4, 4)``.  ``h0``
    is the config's static Hamiltonian, for callers that have already built it.
    """
    if h0 is None:
        h0 = build_static(config)
    if config.mode != "driven" or (config.Bl1 == 0 and config.Bl2 == 0):
        return lambda t: np.broadcast_to(h0, np.shape(t) + (4, 4))
    return lambda t: h0 + build_drive(config, resonances, t)


def propagate_magnus(
    spectral: SpectralPropagator,
    config: SimulationConfig,
    resonances: ResonancePair,
    times,
    dt_max: float,
) -> Trajectory:
    """Driven trajectory by 4th-order Magnus steps of at most ``dt_max``.

    ``spectral`` holds H0 = V L V^dag, the config's static Hamiltonian.  With
    psi(t) = V exp(-i L t) phi(t), phi obeys i dphi/dt = H_I(t) phi where
    H_I(t) = exp(i L t) V^dag D(t) V exp(-i L t) and D(t) is the drive term:
    its entries are those of V^dag D(t) V times exp(i (l_j - l_k) t), so the
    drive operators are mapped into the eigenbasis once.  H_I is as large as
    the drive; the Zeeman precession enters only through the phase factors,
    which steps of at most ``dt_max`` resolve.  Raises NormDrift, like
    ``propagate_numeric``, at the first stored state whose squared norm
    departs from 1 by more than the configured tolerance.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    v = spectral.eigenvectors
    operators = (v.conj().T @ DRIVE_OPERATORS @ v).reshape(2, 16)
    rates = spectral.eigenvalues

    def generator(t, c):
        """c H_I(t), with c broadcast against t."""
        p = _unit_phases(np.multiply.outer(t, rates))
        a = np.stack(drive_amplitudes(config, resonances, t), axis=-1) * c[..., None]
        drive = (a.reshape(-1, 2) @ operators).reshape(t.shape + (4, 4))  # one matrix product
        return drive * p[..., :, None] * p.conj()[..., None, :]

    phi = np.empty((len(times), 4), dtype=complex)
    phi[0] = np.asarray(config.initial_state, dtype=complex) @ v.conj()
    for first, block in _chunks(partial(_magnus_matrices, generator), phi[0], times, dt_max):
        phi[first : first + len(block)] = block
    states = spectral.from_eigen(phi, times)
    substep = largest_substep(times, dt_max)
    _check_norms(config, times, states, f"Magnus substep taken was {substep:.3e} s")
    return Trajectory(times=times, states=states)


def propagate_numeric(config: SimulationConfig, resonances: ResonancePair, times) -> Trajectory:
    """Fixed-step RK4 trajectory recorded at the requested sample times.

    Integrates at the configured base step (or an automatically chosen one)
    and raises NormDrift, naming the first sample whose squared norm departs
    from 1 by more than the configured tolerance and the largest substep
    taken, which a smaller dt must undercut to help; the check runs after each
    chunk of steps, so integration stops at most one chunk past that sample.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    hfun = time_dependent_hamiltonian(config, resonances)
    dt = resolve_step(config, resonances).dt
    states = np.empty((len(times), 4), dtype=complex)
    states[0] = config.initial_state
    taken = f"RK4 substep taken was {largest_substep(times, dt):.3e} s, set dt below it"
    for first, block in _rk4_chunks(hfun, states[0], times, dt):
        states[first : first + len(block)] = block
        _check_norms(config, times[first:], block, taken)
    return Trajectory(times=times, states=states)


def _check_norms(config: SimulationConfig, times, states, taken: str):
    """Raise NormDrift at the first of ``states`` (at ``times``) whose squared
    norm departs from 1 by more than the tolerance or is not a number;
    ``taken`` names the largest substep in the message."""
    drift = np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)
    bad = np.flatnonzero(~(drift <= config.norm_tolerance))
    if bad.size:
        i = bad[0]
        raise NormDrift(
            f"squared norm drifted by {drift[i]:.3e} at t={times[i]:.6e} s "
            f"(tolerance {config.norm_tolerance:.1e}); the largest {taken}"
        )


def _check_times(times: np.ndarray):
    if len(times) < 2 or times[0] != 0:
        raise ValueError("times must start at 0 and contain at least two samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
