"""Schrodinger propagation of the four basis amplitudes.

Three routes are provided:

* ``propagate_static`` solves the time-independent problem exactly through an
  eigendecomposition and serves as the oracle for everything else;
* ``propagate_magnus`` integrates driven runs in the interaction picture of
  the static Hamiltonian H0 with the 4th-order Magnus step, whose step is set
  by the drive instead of by the Zeeman precession;
* ``propagate_numeric`` integrates the (possibly time-dependent) equations
  with classical RK4 at the step it is given, the oracle for driven runs.

For a linear equation one step of either integrator is a 4x4 matrix, so they
build the step matrices of many steps in one batched pass, compose the steps
of each sample interval with a pairwise product tree, take the running
products of a chunk's intervals by prefix doubling and apply them to the
chunk's starting state at once.  The RK4 arithmetic is that of the classical
scalar loop, reassociated.  The Magnus pass forms each step in the frame of
its midpoint, where a chunk's generators are one matrix product (see
``_midpoint_steps``), and carries its matrices in the real form
R(M) = [[Re M, -Im M], [Im M, Re M]]: numpy multiplies stacked 8x8 real
matrices about five times faster than 4x4 complex ones.

Steps are processed in chunks of at most STEPS_PER_CHUNK, so memory does not
grow with the horizon and a chunk's temporaries come from the heap instead of
being mapped and page-faulted in anew on every allocation.

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

# The engine refines driven runs by RK4 steps a factor below the bound above,
# so that RK4 norm drift stays well inside NORM_TOLERANCE over ~10 ns horizons.
DEFAULT_STEP_SAFETY = 0.2

# Largest departure of a stored state's squared norm from 1 before a run
# fails with NormDrift.
NORM_TOLERANCE = 1e-8

# Upper bound on the steps whose matrices are built and composed at once.  It
# is set by page faults.  At 128 the largest temporaries of a Magnus chunk, its
# (steps, 8, 8) generators and Taylor terms, are 64 kB and come from the heap:
# a driven solve at Bz = 0.1 T takes 0 to 2 minor faults, alone or inside a
# sweep.  At 192 to 512 steps it takes 2 000 to 3 300, as temporaries are
# mapped, or the heap top trimmed, and faulted in anew, and was no faster in a
# fresh process.  At 64 the per-chunk overhead made driven solves about 1.3x
# slower.
STEPS_PER_CHUNK = 128

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


def hamiltonian_scale(config: SimulationConfig, resonances: ResonancePair, h0: np.ndarray) -> float:
    """Fastest angular-frequency scale of the full (static + drive) problem,
    whose static Hamiltonian is ``h0``."""
    return max(
        float(np.max(np.abs(h0))),
        drive_peak_amplitude(config),
        abs(resonances.omega1),
        abs(resonances.omega2),
    )


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
    return _chunks(partial(_rk4_matrices, hfun), psi, times, *_substeps(times, dt_max))


def _chunks(step_matrices, psi: np.ndarray, times: np.ndarray, counts, sizes):
    """psi carried from ``times[0]`` through each later sample time by the
    steps whose matrices ``step_matrices(nodes, h)`` returns.

    Interval i takes counts[i] steps of sizes[i].  Whole intervals are
    grouped into chunks of at most STEPS_PER_CHUNK steps, the shorter
    intervals of a chunk padded with identity steps (h = 0) up to its
    longest; an interval longer than a chunk forms a chunk of its own.
    Yields (first, states) per chunk, where states[j] is psi at
    times[first + j].  ``psi`` and the matrices may be complex or real.
    """
    first = 0
    while first < len(counts):
        # Padded steps of the chunk that ends after each of the next intervals:
        # increasing, so the chunks that fit are a prefix.
        widths = np.maximum.accumulate(counts[first : first + STEPS_PER_CHUNK])
        padded = widths * np.arange(1, len(widths) + 1)
        last = first + max(1, int(np.count_nonzero(padded <= STEPS_PER_CHUNK)))
        width = int(widths[last - first - 1])
        rows = slice(first, last)
        products = _interval_products(step_matrices, times[rows], counts[rows], sizes[rows], width)
        states = _prefix_products(products) @ psi
        psi = states[-1]
        yield first + 1, states
        first = last


def _prefix_products(m):
    """Running products m[j] @ ... @ m[1] @ m[0] of every j, in place, by
    Hillis-Steele doubling: ceil(log2(len(m))) batched products."""
    k = 1
    while k < len(m):
        m[k:] = m[k:] @ m[:-k]
        k *= 2
    return m


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


def _midpoint_steps(spectral: SpectralPropagator, config, resonances, h: float):
    """``step_matrices`` of Magnus steps of length h for the drive of
    ``config``, on xi = exp(i L h/2) V^dag psi (see ``propagate_magnus``).

    With P(t) = exp(i L t), the Magnus step over [t_m - h/2, t_m + h/2] is
    P(t_m) exp(Omega) P(t_m)^dag, where Omega is the step at t_m = 0 for
    Ht(s) = P(s) V^dag D(t_m + s) V P(s)^dag: with b_j = -i h Ht(s_j) / 2 at
    the Gauss-Legendre offsets s_j = -+ sqrt(3) h / 6,
    Omega = b1 + b2 + sqrt(3)/3 [b2, b1].  On xi the step is therefore
    exp(Omega) exp(-i L h).  As a_i(t) = a_i(0) cos(w_i t)
    (``drive_amplitudes``) and cos(w (t_m + s)) = cos(w t_m) cos(w s) -
    sin(w t_m) sin(w s), Ht(s) = sum_q k_q F_q(s) with
    k = (cos w1 t_m, cos w2 t_m, sin w1 t_m, sin w2 t_m), so
    Omega = sum_q k_q A_q + sum_qr k_q k_r C_qr with A_q = b_q1 + b_q2,
    C_qr = sqrt(3)/3 (b_q2 b_r1 - b_q1 b_r2) and b_qj = -i h F_q(s_j) / 2:
    20 real-form matrices, built here once per run.
    """
    v, rates = spectral.eigenvectors, spectral.eigenvalues
    operators = np.tile(v.conj().T @ DRIVE_OPERATORS @ v, (2, 1, 1))  # D_i of each k_q
    omegas = np.array([resonances.omega1, resonances.omega2])
    offsets = (_GAUSS_NODES - 0.5) * h
    phases = np.multiply.outer(offsets, omegas)  # (node, spin)
    weights = np.concatenate([np.cos(phases), -np.sin(phases)], axis=-1)
    weights = weights * (-0.5j * h * np.tile(drive_amplitudes(config, resonances, 0.0), 2))
    p = _unit_phases(np.multiply.outer(offsets, rates))
    frames = p[:, None, :, None] * p.conj()[:, None, None, :]  # P(s_j) . P(s_j)^dag
    b1, b2 = _real_form(weights[..., None, None] * operators * frames)
    commutators = b2[:, None] @ b1[None, :] - b1[:, None] @ b2[None, :]
    basis = np.concatenate([(b1 + b2).reshape(4, 64), np.sqrt(3) / 3 * commutators.reshape(16, 64)])
    rotation = _real_form(np.diag(_unit_phases(-h * rates)))
    return partial(_midpoint_matrices, basis, rotation, omegas)


def _midpoint_matrices(basis, rotation, omegas, nodes, h):
    """Real forms of the step matrices exp(Omega) exp(-i L h) of
    ``_midpoint_steps`` for the steps run as in ``_rk4_matrices``, all of the
    length ``rotation`` was built for (``propagate_magnus`` pads none)."""
    midpoints = nodes[..., :-1] + h / 2
    phases = np.multiply.outer(midpoints, omegas)
    # Row 0 holds k, row 1 + q holds k_q k: the weights of the basis rows.
    k = np.empty(midpoints.shape + (5, 4))
    np.cos(phases, out=k[..., 0, :2])
    np.sin(phases, out=k[..., 0, 2:])
    np.einsum("...q,...r->...qr", k[..., 0, :], k[..., 0, :], out=k[..., 1:, :])
    generators = (k.reshape(-1, 20) @ basis).reshape(midpoints.shape + (8, 8))
    # One 2-D product with the constant rotation, not a stack of 8x8 ones.
    return (_expm_taylor(generators).reshape(-1, 8) @ rotation).reshape(generators.shape)


def _expm_taylor(omega):
    """exp(omega) of small matrices by their Taylor polynomial.

    ``omega`` holds complex matrices W, or their real forms R(W) (see
    ``_real_form``); the result is then R(exp W).  The degree 2m + 1 is
    ``_taylor_degree(omega)``.  The polynomial is evaluated by Horner's rule
    in omega^2 over the pairs I/(2k)! + omega/(2k+1)!: m + 1 matrix products.
    """
    n = omega.shape[-1]
    square = omega @ omega
    result = None
    for k in range(_taylor_degree(omega) // 2, -1, -1):
        pair = omega * (1 / math.factorial(2 * k + 1))
        # Every (n + 1)th of an n x n matrix's entries is on its diagonal.
        pair.reshape(pair.shape[:-2] + (n * n,))[..., :: n + 1] += 1 / math.factorial(2 * k)
        if result is not None:
            pair += square @ result
        result = pair
    return result


def _taylor_degree(omega) -> int:
    """Lowest odd degree 2m + 1 whose Taylor remainder bound for exp(W),
    nu^(2m+2) / (2m+2)! with nu the largest Frobenius norm of a W in the
    batch, is below _TAYLOR_TOL.  ``omega`` holds the W or their real forms
    R(W), whose squared Frobenius norm is twice that of W."""
    flat = omega.reshape(omega.shape[:-2] + (omega.shape[-1] ** 2,))
    nu2 = float(np.max(np.einsum("...i,...i->...", flat, flat.conj()).real, initial=0.0))
    if not np.iscomplexobj(omega):
        nu2 /= 2
    m, bound = 0, nu2 / 2
    while _TAYLOR_TOL < bound < math.inf:
        m += 1
        bound *= nu2 / ((2 * m + 1) * (2 * m + 2))
    return 2 * m + 1


def _real_form(m):
    """R(m) = [[Re m, -Im m], [Im m, Re m]] of complex n x n matrices: a real
    2n x 2n matrix with R(a b) = R(a) R(b) and R(a^dag) = R(a)^T, acting on
    [Re psi, Im psi] as m acts on psi."""
    n = m.shape[-1]
    out = np.empty(m.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = out[..., n:, n:] = m.real
    out[..., n:, :n] = m.imag
    np.negative(m.imag, out=out[..., :n, n:])
    return out


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

    ``times`` must be the uniform grid np.linspace(0, t_end, n); raises
    ValueError otherwise.  Every interval takes the same number of steps,
    the most that any interval needs.  ``spectral`` holds H0 = V L V^dag, the
    config's static Hamiltonian.  With psi(t) = V exp(-i L t) phi(t), phi
    obeys i dphi/dt = H_I(t) phi where H_I(t) = exp(i L t) V^dag D(t) V
    exp(-i L t) and D(t) is the drive term.  H_I is as large as the drive;
    the Zeeman precession enters only through the phase factors, which steps
    of at most ``dt_max`` resolve.  Raises NormDrift, like
    ``propagate_numeric``, at the first stored state whose squared norm
    departs from 1 by more than NORM_TOLERANCE.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    if not np.array_equal(times, np.linspace(0.0, times[-1], len(times))):
        raise ValueError("Magnus steps need a uniform grid, np.linspace(0, t_end, n)")
    counts, _ = _substeps(times, dt_max)
    counts[:] = np.max(counts)
    h = times[-1] / np.sum(counts)
    # xi = exp(i L h/2) V^dag psi as the real 8-vector [Re xi, Im xi].
    xi0 = spectral.evolve(config.initial_state, -h / 2) @ spectral.eigenvectors.conj()
    xi = np.empty((len(times), 8))
    xi[0] = np.concatenate([xi0.real, xi0.imag])
    steps = _midpoint_steps(spectral, config, resonances, h)
    for first, block in _chunks(steps, xi[0], times, counts, np.full(len(counts), h)):
        xi[first : first + len(block)] = block
    states = spectral.from_eigen(xi[:, :4] + 1j * xi[:, 4:], np.full(len(times), h / 2))
    _check_norms(times, states, f"Magnus substep taken was {h:.3e} s")
    return Trajectory(times=times, states=states)


def propagate_numeric(
    config: SimulationConfig, resonances: ResonancePair, times, dt_max: float
) -> Trajectory:
    """RK4 trajectory by uniform steps of at most ``dt_max`` per sample
    interval, recorded at the requested sample times.

    Raises NormDrift, naming the first sample whose squared norm departs
    from 1 by more than NORM_TOLERANCE and the largest substep taken, which
    a smaller ``dt_max`` must undercut to help; the check runs after each
    chunk of steps, so integration stops at most one chunk past that sample.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    hfun = time_dependent_hamiltonian(config, resonances)
    states = np.empty((len(times), 4), dtype=complex)
    states[0] = config.initial_state
    taken = f"RK4 substep taken was {largest_substep(times, dt_max):.3e} s"
    for first, block in _rk4_chunks(hfun, states[0], times, dt_max):
        states[first : first + len(block)] = block
        _check_norms(times[first:], block, taken)
    return Trajectory(times=times, states=states)


def _check_norms(times, states, taken: str):
    """Raise NormDrift at the first of ``states`` (at ``times``) whose squared
    norm departs from 1 by more than NORM_TOLERANCE or is not a number;
    ``taken`` names the largest substep in the message."""
    drift = np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)
    bad = np.flatnonzero(~(drift <= NORM_TOLERANCE))
    if bad.size:
        i = bad[0]
        raise NormDrift(
            f"squared norm drifted by {drift[i]:.3e} at t={times[i]:.6e} s "
            f"(tolerance {NORM_TOLERANCE:.1e}); the largest {taken}"
        )


def _check_times(times: np.ndarray):
    if len(times) < 2 or times[0] != 0:
        raise ValueError("times must start at 0 and contain at least two samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
