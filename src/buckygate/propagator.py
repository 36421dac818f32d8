"""Schrodinger propagation of the four basis amplitudes.

Two routes are provided, a closed form and one refinement:

* ``BlockPropagator`` solves the time-independent problem exactly, in closed
  form from the static Hamiltonian's two 2x2 blocks, formed from the config
  with no 4x4 matrix: its spectrum and real
  eigenvectors, the states, the composite phase theta, its slow part and
  their rates, and closed-form bounds on them (``PhaseBounds``).  It is the
  one place that diagonalizes H0: the static gate and output read it, and
  the driven Magnus pass takes its eigenbasis;
* ``MagnusPass`` integrates driven runs in the interaction picture of
  the static Hamiltonian H0 with the 4th-order Magnus step, whose generator
  integrates the oscillating phase factors of the interaction picture
  exactly, so that its step follows the drive, not the Zeeman precession
  (see ``_drive_integrals``, ``magnus_steps``);
* ``rk4_segment`` carries a state from a stored sample to a nearby time with
  classical RK4, which is how the engine refines driven runs between samples.

For a linear equation one step of either integrator is a 4x4 matrix, so they
build the step matrices of many steps in one batched pass.  RK4 applies its
steps to the state one by one, as the classical scalar loop does.  The
Magnus pass treats a run as one sequence of steps and
carries the state through each chunk of them step by step, by recursive
doubling (see ``_carry``), keeping the state after every interval's last
step.  It forms each step in the frame of its midpoint, where a chunk's
generators are one matrix product at one Taylor degree for the whole run
(see ``_magnus_steps``), and carries its matrices in the real form
R(M) = [[Re M, -Im M], [Im M, Re M]]: numpy multiplies stacked 8x8 real
matrices about five times faster than 4x4 complex ones.  The carried state
is the real row [Re xi, Im xi], and a chunk's samples are stored from those
rows by one real product into the float view of the complex samples, whose
squared norms are checked from that view (``MagnusPass._store``).

Steps are processed in chunks of at most STEPS_PER_CHUNK (Magnus) or
_RK4_STEPS_PER_CHUNK (RK4), so memory does not grow with the horizon.  A
Magnus pass (``MagnusPass``) can stop after any chunk and be resumed later,
so that a driven run is taken only as far as its reader needs.  The
Magnus pass keeps its chunk-sized arrays in four (STEPS_PER_CHUNK, 8, 8)
buffers per thread, 4 x STEPS_PER_CHUNK x 512 B allocated at the thread's
first driven run and reused by every later one (see ``_workspace``), so that
a run maps and page-faults in no memory anew.

The state is never renormalized during integration: norm drift is the
step-size diagnostic, hiding it would defeat the check.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import SimulationConfig
from .errors import NormDrift, OutOfRange
from .hamiltonian import DRIVE_OPERATORS, build_drive, drive_amplitudes, drive_peak_amplitude, static_blocks

# Phase advanced per integration step at the fastest Hamiltonian scale.
MAX_PHASE_PER_STEP = 0.05

# The engine refines driven runs by RK4 steps a factor below the bound above:
# carried over nearly one sample interval, the most a refined time is, theta
# departs from its value at 10 times shorter steps by 3.0e-12 rad at most on
# the 9 driven reference points, well inside the gate's 1e-10 rad, and by up
# to 1.3e-9 rad at the bound itself.
DEFAULT_STEP_SAFETY = 0.2

# Largest departure of a stored state's squared norm from 1 before a run
# fails with NormDrift.
NORM_TOLERANCE = 1e-8

# Upper bound on the steps whose matrices are built and carried at once.  A
# chunk costs a fixed count of numpy calls whatever its size, and the Magnus
# pass keeps its chunk-sized arrays between runs (``_workspace``), so that no
# size takes page faults after a thread's first run.  CPU time per Magnus pass
# on the 9 driven reference points, median over 10 fresh processes of 20
# rounds each (2-core shared host, where one process's figure varies by up
# to 1 ms), and minor faults per driven solve after the first round:
#     steps     128   256   384   512   768
#     ms       3.12  2.49  2.71  2.55  2.38
#     faults      0     0     0     0     0
# 768 was faster than 512 in 7 of the 10 processes, by less than the spread
# between 512's quartiles (0.62 ms).
STEPS_PER_CHUNK = 512

# The same bound for RK4 steps, whose arrays are allocated on every call: one
# rk4_segment of 389 steps took 2.2 to 2.4 ms at 128 and at 512, but 138
# minor faults per call at 512 against none at 128.
_RK4_STEPS_PER_CHUNK = 128

# Upper bound on the steps of one integration, checked before any is taken:
# about a minute of work.  The benchmark's driven runs take at most 2 000.
MAX_STEPS = 10**7

# The truncation error of a driven run's Magnus steps, max |dpsi| over the
# run against the same run at 1/16 of the step, was measured as 0.011 to
# 0.016 times (a h)^3 (S h)^2 N for N steps of h, with a the drive peak and
# S the Hamiltonian scale: Bz 0.01 to 1 T, Bl 0.2 to 10 mT on both spins,
# 1 000 to 3 500 samples, W = 1 and 2; less where the spins' drives differ.
# ``magnus_steps`` keeps MAGNUS_ERROR (a h)^3 (S h)^2 N at most
# MAGNUS_TOLERANCE.
MAGNUS_ERROR = 0.016
MAGNUS_TOLERANCE = 2e-10

# Largest phase a Magnus step advances at the Hamiltonian scale.  It binds
# only where MAX_SAMPLES spreads a driven grid beyond it and the drive is
# weak, and bounds the node count of the step's Legendre rule.
MAX_MAGNUS_PHASE = 4.0

_IDENTITY_4 = np.eye(4, dtype=complex)

# A Taylor polynomial of exp(Omega) stops once its remainder bound is below
# double-precision rounding.
_TAYLOR_TOL = 2.0**-53

_EPS = 2.0**-52


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


def hamiltonian_scale(config: SimulationConfig, blocks: BlockPropagator) -> float:
    """Fastest angular-frequency scale of the full (static + drive) problem,
    whose static Hamiltonian has the ``blocks``: the largest of their
    ``scale``, the drive peak and the resonances."""
    resonances = config.resonances
    return max(
        blocks.scale,
        drive_peak_amplitude(config),
        abs(resonances.omega1),
        abs(resonances.omega2),
    )


class BlockPropagator:
    """Exact evolution of the validated ``config``'s initial state ``psi0``
    under its static Hamiltonian H, in closed form from H's two real 2x2
    blocks, A on {|00>,|11>} and B on {|01>,|10>}: no eigh and no 4x4
    matrix.  The blocks' ``entries`` are ``static_blocks``, from which
    ``build_static`` lays out its matrix, and ``scale`` is their largest
    |entry|.

    A block [[h_ii, h_ij], [h_ij, h_jj]] has the eigenvalues mu +/- rho, with
    its mean mu = (h_ii + h_jj) / 2 and half-gap rho = hypot(d, h_ij),
    d = (h_ii - h_jj) / 2, and the eigenvectors (cos, sin) and (-sin, cos) of
    phi / 2, phi = atan2(h_ij, d).  Nothing divides by rho: where it is 0,
    phi is 0.  With b+ and b- the components of psi0 on the two, the product
    of the block's amplitudes is exp(-2 i mu t) E(t), E the ellipse
        E(t) = K + P exp(-2 i rho t) + Q exp(2 i rho t),
        K = b+ b- cos(phi),  P = b+^2 sin(phi) / 2,  Q = -b-^2 sin(phi) / 2.
    So theta = Arg(c1 c4 conj(c2 c3)), less its value at 0, is
    -s t + Arg E_A - Arg E_B less theirs, with s = 2 (mu_A - mu_B) summed
    from the float matrix, (h00 + h33) - (h11 + h22) = 4 (g + J0), in which
    the Zeeman terms cancel exactly.  A Zeeman-scale phase enters theta only
    through cos and sin of 2 rho_A t, as the turn of E_A about K_A, not as
    the difference of two large rounded phases as in the 4x4 evolution.
    theta' = -s + Im(E_A' / E_A) - Im(E_B' / E_B).

    ``eigenvalues`` lam_k are H's spectrum, mu +/- rho of block A then B,
    and column k of the real ``eigenvectors`` V the k-th eigenvector, each
    an array built on its first read (a driven run's) from the floats
    ``_lam`` and ``_vectors``; ``_coefficients`` are b = V^T psi0, b+ and
    b- of each block; row k of ``components`` is
    b_k V[:, k], so that psi(t) = sum_k exp(-i lam_k t) components[k];
    ``s`` and ``rho`` (rho_A, rho_B) are the terms above.
    ``least_modulus`` is a lower bound on every |c_j(t)|: the squared
    moduli of a block's amplitudes are M -/+ sin(phi)
    Re(b+ conj(b-) exp(-2 i rho t)), with their means M = |b+|^2 cos^2 +
    |b-|^2 sin^2 of phi / 2 and the other way round, so at least
    M - |b+ b- sin(phi)|.

    theta splits into a slow part S and a fast part F,
        S(t) = -s t - Arg E_B(t) + Arg K_A,  F(t) = Arg(E_A(t) / K_A),
    with block A's ellipse turned by -theta(0), as ``theta`` takes it, so
    that S(0) = -F(0).  S turns at the dipolar rate and beats at 2 rho_B
    (``slow``, ``beat``); F is the Zeeman-scale turn of E_A about K_A, small
    where K_A dominates (``bounds``).  Where E_B stays off 0, its term D of
    largest modulus, K_B or the larger of P_B exp(-2 i rho_B t) and
    Q_B exp(2 i rho_B t), turns by 2 pi w a period pi / rho_B (``winding``
    w, 0 or +-1), and E_B / D has a positive real part.  So S has its branch
    at any t, -(s + 2 rho_B w) t - Arg(E_B / D) plus a constant, and so has
    theta = S + F where |K_A| > |P_A| + |Q_A|.  Raises OutOfRange where
    |mu| + 2 rho of a block is beyond the floats, before any array holds it:
    theta would be NaN.
    """

    def __init__(self, config: SimulationConfig):
        self.entries = entries = static_blocks(config)
        self.scale = max(map(abs, entries))
        self.psi0 = psi0 = np.asarray(config.initial_state, dtype=complex)
        a = psi0.tolist()
        self.s = (entries[0] + entries[2]) - (entries[3] + entries[5])
        lam, coefficients, rho, ellipses, moduli = [], [], [], [], []
        vectors = [[0.0] * 4 for _ in range(4)]
        least = math.inf
        for k, (i, j) in enumerate(((0, 3), (1, 2))):
            hii, hij, hjj = entries[3 * k : 3 * k + 3]
            half = (hii - hjj) / 2
            mu, r = (hii + hjj) / 2, math.hypot(half, hij)
            if not math.isfinite(abs(mu) + 2 * r):
                raise OutOfRange(
                    f"block {'AB'[k]} of H has mean mu = {mu:.3g} and half-gap "
                    f"rho = {r:.3g} rad/s: |mu| + 2 rho is beyond the floats"
                )
            phi = math.atan2(hij, half)
            ch, sh, cos, sin = math.cos(phi / 2), math.sin(phi / 2), math.cos(phi), math.sin(phi)
            plus, minus = ch * a[i] + sh * a[j], ch * a[j] - sh * a[i]
            lam += [mu + r, mu - r]
            coefficients += [plus, minus]
            vectors[i][2 * k], vectors[j][2 * k] = ch, sh
            vectors[i][2 * k + 1], vectors[j][2 * k + 1] = -sh, ch
            # E = K + C cos + S sin of 2 rho t, C = P + Q and S = i (Q - P).
            p, q = plus * plus * sin / 2, -minus * minus * sin / 2
            ellipses.append((plus * minus * cos, p + q, 1j * (q - p)))
            centre, axis = abs(plus * minus * cos), abs(p) + abs(q)
            # |E| >= u (``bounds``), 0 where it is within the rounding of the
            # moduli, about eps (|K| + |P| + |Q|): there E may pass through 0.
            u = max(centre - axis, abs(abs(p) - abs(q)) - centre)
            moduli.append((centre, axis, u if u > 8 * _EPS * (centre + axis) else 0.0))
            rho.append(r)
            mean = min(abs(plus * ch) ** 2 + abs(minus * sh) ** 2, abs(plus * sh) ** 2 + abs(minus * ch) ** 2)
            least = min(least, mean - abs(plus * minus * sin))
        self.rho = tuple(rho)
        self._lam, self._vectors, self._coefficients = lam, vectors, coefficients
        self._moduli = moduli  # (|K|, |P| + |Q|, u) of each block
        # Less 8 eps for the rounding of squares of at most 1 (psi0 is normalized).
        self.least_modulus = math.sqrt(max(least - 8 * _EPS, 0.0))
        # Row k is b_k V[:, k], C-contiguous, so that a state gets the same
        # bits alone or in a batch.
        self.components = np.array(
            [row[k] * b for k, b in enumerate(coefficients) for row in vectors], dtype=complex
        ).reshape(4, 4)
        self._rates = np.array([-x for x in lam])
        # Block A's ellipse turned by -theta(0), so that Arg E_A - Arg E_B
        # starts at 0 (atan2(0, 0) = 0 where an amplitude vanishes).
        (ka, ca, sa), (kb, cb, sb) = ellipses
        z0 = (ka + ca) * (kb + cb).conjugate()
        turn = cmath.exp(-1j * math.atan2(z0.imag, z0.real))
        ta, tb = 2 * rho[0], 2 * rho[1]
        ka, ca, sa = ka * turn, ca * turn, sa * turn
        self._two_rho = np.array([ta, tb])
        # dE/dt = dS cos - dC sin of 2 rho t, dC = 2 rho C and dS = 2 rho S.
        self._k, self._c, self._s, self._dc, self._ds = np.array(
            [[ka, kb], [ca, cb], [sa, sb], [ta * ca, tb * cb], [ta * sa, tb * sb]], dtype=complex
        )
        self._kpq_b = kb, p, q  # the loop's last p and q are block B's
        (k_a, d_a, _), (k, d, u) = moduli
        self.winding = None if d_a >= k_a or not u else 0 if k > d else 1 if abs(q) > abs(p) else -1
        if self.winding is not None:
            self._conj_ka, self.drift = ka.conjugate(), -(self.s + tb * self.winding)
            # S(0) = -F(0), as theta(0) = 0; D(0) is K_B, Q_B or P_B.
            f, z = (ka + ca) * self._conj_ka, (kb, q, p)[self.winding] * (kb + cb).conjugate()
            self._offset = -math.atan2(f.imag, f.real) - math.atan2(z.imag, z.real)

    eigenvalues = cached_property(lambda self: np.array(self._lam))
    eigenvectors = cached_property(lambda self: np.array(self._vectors))

    def states(self, times: np.ndarray) -> np.ndarray:
        """psi at each of ``times``, shape (len(times), 4)."""
        return _unit_phases(np.multiply.outer(times, self._rates)) @ self.components

    def angles(self, times: np.ndarray) -> np.ndarray:
        """theta at each of ``times``, up to a multiple of 2 pi."""
        e = self._ellipses(times)[0]
        z = e[:, 0] * e[:, 1].conj()
        return np.arctan2(z.imag, z.real) - self.s * times

    def theta(self, times: np.ndarray):
        """(theta, theta') at each of ``times``: theta = S + F on its branch
        where ``winding`` is not None (one angle, as each part lies in
        (-pi/2, pi/2)), else up to a multiple of 2 pi."""
        e, cos, sin = self._ellipses(times)
        if self.winding is None:
            z, phase = e[:, 0] * e[:, 1].conj(), -self.s * times
        else:
            d = self._dominant(cos[:, 1] + 1j * sin[:, 1])
            z, phase = e[:, 0] * self._conj_ka * d * e[:, 1].conj(), self.drift * times + self._offset
        ratio = ((self._ds * cos - self._dc * sin) / e).imag
        return np.arctan2(z.imag, z.real) + phase, ratio[:, 0] - ratio[:, 1] - self.s

    def slow(self, t: float):
        """(S, S') at the time ``t`` in Python floats, S on its branch
        (``winding`` is not None): S' = -s - Im(E_B' / E_B)."""
        x, (k, p, q) = 2 * self.rho[1] * t, self._kpq_b
        z = complex(math.cos(x), math.sin(x))
        e, rate = k + p * z.conjugate() + q * z, 2j * self.rho[1] * (q * z - p * z.conjugate())
        a = self._dominant(z) * e.conjugate()
        return self.drift * t + self._offset + math.atan2(a.imag, a.real), -self.s - (rate / e).imag

    def _dominant(self, z):
        """D of E_B, a number or an array, at z = exp(2 i rho_B t)."""
        k, p, q = self._kpq_b
        return k if not self.winding else q * z if self.winding > 0 else p * z.conjugate()

    def beat(self):
        """(T, shift, cuts) of S where ``winding`` is not None and rho_B > 0:
        its period T = pi / rho_B, over which it moves by shift =
        -s T - 2 pi w, and the times from 0 to T between which it is
        monotone.  S' = 0 where Im(E_B' conj E_B) + s |E_B|^2 = 0, which
        times z^2, z = exp(2 i rho_B t), is the quartic in z below.  Every
        root's angle cuts: a cut where S is monotone does no harm, and
        rounding may move a root off the unit circle."""
        (k, p, q), r, s = self._kpq_b, self.rho[1], self.s
        kk, pp, qq = (abs(x) ** 2 for x in (k, p, q))
        a4 = s * q * p.conjugate()
        a3 = s * (k * p.conjugate() + q * k.conjugate()) + r * (q * k.conjugate() - k * p.conjugate())
        a2 = s * (kk + pp + qq) + 2 * r * (qq - pp)
        period = math.pi / r
        roots = np.roots([a4, a3, a2, a3.conjugate(), a4.conjugate()]).tolist()
        return period, self.drift * period, sorted({0.0, period, *(cmath.phase(z) % (2 * math.pi) / (2 * r) for z in roots)})

    def bounds(self) -> PhaseBounds:
        """Bounds on S and theta over all times, each infinite where it does
        not exist.

        An ellipse E = K + P exp(-2 i rho t) + Q exp(2 i rho t) turns about K
        with semi-axes |P| + |Q| and ||P| - |Q||, so |E^(n)| <= (2 rho)^n
        (|P| + |Q|) for n >= 1 and |E| >= u = max(|K| - |P| - |Q|,
        ||P| - |Q|| - |K|).  With q_n = (2 rho)^n (|P| + |Q|) / u,
        |(Arg E)'| <= q_1, and Faa di Bruno's formula for log E,
            (log E)'''' = E''''/E - (4 E' E''' + 3 E''^2)/E^2 + 12 E'^2 E''/E^3 - 6 (E'/E)^4,
        bounds |(Arg E)''''| by q_4 + 4 q_1 q_3 + 3 q_2^2 + 12 q_1^2 q_2 + 6 q_1^4.
        Where u <= 0 the ellipse may pass through 0 and there is no bound.
        |S'| <= |s| + q_1 of block B, and theta takes both blocks' bounds.
        E_A / K_A = 1 + eps with |eps| <= (|P_A| + |Q_A|) / |K_A|, so
        |F| <= ``fast``, the arcsine of that where it is below 1.
        """
        (q1_a, m4_a), (q1_b, m4_b) = (_arg_bounds(2 * r, d, u) for r, (_, d, u) in zip(self.rho, self._moduli))
        k, d, _ = self._moduli[0]
        dipolar = abs(self.s)
        fast = math.asin(d / k) if d < k else math.inf
        return PhaseBounds(dipolar + q1_b, fast, dipolar + q1_a + q1_b, m4_a + m4_b)

    def _ellipses(self, times):
        """(E, cos, sin): E of both blocks at each of ``times``, and cos and
        sin of 2 rho t."""
        x = np.multiply.outer(times, self._two_rho)
        cos, sin = np.cos(x), np.sin(x)
        return self._k + self._c * cos + self._s * sin, cos, sin


class PhaseBounds(NamedTuple):
    """``BlockPropagator.bounds``: each infinite where there is none."""

    slow_rate: float  # |S'|, rad/s
    fast: float  # |F| = |theta - S|, rad
    rate: float  # |theta'|, rad/s
    m4: float  # |theta''''|, rad/s^4


def _arg_bounds(w, d, u):
    """(bound on |(Arg E)'|, bound on |(Arg E)''''|) of an ellipse E with
    |P| + |Q| = d and |E| >= u, turning at w = 2 rho
    (``BlockPropagator.bounds``); infinite where u is 0: E may pass through 0."""
    if not u > 0:
        return math.inf, math.inf
    # Products, not powers: a float product beyond the floats reads inf.
    q1 = w * d / u
    return q1, q1 * (w * w * w + q1 * (7 * w * w + q1 * (12 * w + 6 * q1)))


def _unit_phases(x) -> np.ndarray:
    """exp(i x), filled from cos and sin: cheaper than np.exp of an imaginary
    array, and equal to it to rounding."""
    phases = np.empty(x.shape, dtype=complex)
    np.cos(x, out=phases.real)
    np.sin(x, out=phases.imag)
    return phases


def rk4_segment(hfun, psi: np.ndarray, t0: float, t1: float, dt_max: float) -> np.ndarray:
    """psi carried from t0 to t1 by classical RK4 in ceil((t1 - t0) / dt_max)
    uniform steps, at least one, whose matrices are built at most
    _RK4_STEPS_PER_CHUNK at a time and applied in order, step times
    accumulating as ``t += h`` as in a scalar loop.  Raises OutOfRange, before
    any step is taken, for more than MAX_STEPS steps, or for an infinite or
    NaN count.
    """
    steps = (t1 - t0) / dt_max
    _check_step_count(steps, dt_max, t1 - t0)
    count = math.ceil(steps) if steps > 1 else 1
    h = (t1 - t0) / count
    for first in range(0, count, _RK4_STEPS_PER_CHUNK):
        nodes = np.full(min(_RK4_STEPS_PER_CHUNK, count - first) + 1, h)
        nodes[0] = t0
        np.cumsum(nodes, out=nodes)
        for m in _rk4_matrices(hfun, nodes, h):
            psi = m @ psi
        t0 = nodes[-1]
    return psi


def rk4_spans(hfun, psi: np.ndarray, t0: np.ndarray, t1: np.ndarray, dt_max: float) -> np.ndarray:
    """psi[j] carried by ``rk4_segment`` from t0[j] to t1[j], for every j,
    each span in its own count of steps.  Raises OutOfRange, before any step
    is taken, when the steps of all spans number more than MAX_STEPS.
    """
    steps = np.maximum(1.0, np.ceil((t1 - t0) / dt_max))
    _check_step_count(steps.sum(), dt_max, t1 - t0)
    states = [rk4_segment(hfun, *span, dt_max) for span in zip(psi, t0.tolist(), t1.tolist())]
    return np.array(states, dtype=complex).reshape(np.shape(psi))


def _carry(m, psi, work):
    """States m[j] @ ... @ m[0] @ psi of every j, for complex or real m.

    By recursive doubling: the products of adjacent pairs of steps, in the
    head of ``work``, are carried by the same function, in the rest of
    ``work``, to the state after every pair, and one batched matrix-vector
    product fills in the steps between.  ``work`` holds at least
    len(m) - 1 matrices of m's dtype that m does not share; m is left as it
    is.
    """
    states = np.empty((len(m),) + psi.shape, dtype=np.result_type(m, psi))
    states[0] = m[0] @ psi
    if len(m) > 1:
        half = len(m) // 2
        pairs = np.matmul(m[1 : 2 * half : 2], m[: 2 * half : 2], out=work[:half])
        states[1::2] = _carry(pairs, psi, work[half:])
        states[2::2] = (m[2::2] @ states[1:-1:2, :, None])[..., 0]
    return states


def _check_step_count(total, step: float, horizon):
    """Raise OutOfRange when ``total`` steps of at most ``step`` over
    ``horizon``, a time or the spans whose sum the message gives, are more
    than MAX_STEPS."""
    if not total <= MAX_STEPS:
        raise OutOfRange(
            f"{total:.4g} steps of at most {step:.4g} s over {np.sum(horizon):.4g} s "
            f"exceed the limit of {MAX_STEPS:.0e}"
        )


def _rk4_matrices(hfun, nodes, h: float):
    """RK4 step matrices M = I + (A1 + 2 A2 + 2 A3 + A4) / 6.

    Step k runs from nodes[k] to nodes[k + 1] = nodes[k] + h.  With
    A(s) = -i h H(s): A1 = A(t), A2 = A(t + h/2)(I + A1/2),
    A3 = A(t + h/2)(I + A2/2), A4 = A(t + h)(I + A3); in exact arithmetic
    M psi is one classical RK4 step of psi.  H is built once, at the nodes
    and the midpoints together.
    """
    n = len(nodes) - 1
    a = -1j * h * hfun(np.concatenate([nodes, nodes[:-1] + h / 2]))
    a1, a_mid = a[:n], a[n + 1 :]
    a2 = a_mid @ (_IDENTITY_4 + a1 / 2)
    a3 = a_mid @ (_IDENTITY_4 + a2 / 2)
    a4 = a[1 : n + 1] @ (_IDENTITY_4 + a3)
    return _IDENTITY_4 + (a1 + 2 * a2 + 2 * a3 + a4) / 6


def _magnus_steps(blocks: BlockPropagator, config, h: float, rotation, buffers):
    """``step_matrices(j, n)``: the real forms of the Magnus step matrices of
    steps j to j + n - 1, n <= len(buffers[0]), of length h for the drive of
    ``config``, on xi = exp(i L h/2) V^T psi (see ``MagnusPass``);
    ``rotation`` is R(exp(-i L h)) (``MagnusPass``).
    ``buffers`` are four (size, 8, 8) arrays (``_workspace``): each call
    returns its matrices in buffers[0] and runs Horner's rule in the other
    three, of which only buffers[1] serves between calls, as ``_carry``'s work
    (n - 1 matrices of it).

    With H0 = V L V^T (``BlockPropagator``'s real eigenvectors V and
    eigenvalues L) and P(t) = exp(i L t), the Magnus step over
    [t_m - h/2, t_m + h/2] is P(t_m) exp(Omega) P(t_m)^dag, where
    Omega = Omega1 + Omega2 is the step at t_m = 0 for
    Ht(s) = P(s) V^T D(t_m + s) V P(s)^dag.  On xi the step
    is therefore exp(Omega) exp(-i L h).  As a_i(t) = a_i(0) cos(w_i t)
    (``drive_amplitudes``) and cos(w (t_m + s)) = cos(w t_m) cos(w s) -
    sin(w t_m) sin(w s), Ht(s) = sum_q k_q F_q(s) with
    k = (cos w1 t_m, cos w2 t_m, sin w1 t_m, sin w2 t_m), so
    Omega = sum_q k_q A_q + sum_qr k_q k_r C_qr with the A_q and C_qr of
    ``_drive_integrals``: 20 real-form matrices, built here once per run,
    as is the Taylor degree of exp(Omega), from ``_generator_bound``.  Step j
    has its midpoint at t_m = (j + 1/2) h.
    """
    a, c = _drive_integrals(blocks, config, h)
    basis = _real_form(np.concatenate([a, c.reshape(16, 4, 4)])).reshape(20, 64)
    resonances = config.resonances
    omegas = np.array([resonances.omega1, resonances.omega2])
    degree = _taylor_degree(_generator_bound(basis))
    matrices, *work = buffers
    # The weights of the basis rows, step index last: row 0 holds k, row 1 + q
    # holds k_q k.
    k = np.empty((5, 4, len(matrices)))
    weights = k.reshape(20, -1)

    def step_matrices(j: int, n: int):
        phases = np.multiply.outer(omegas, (np.arange(j, j + n) + 0.5) * h)
        np.cos(phases, out=k[0, :2, :n])
        np.sin(phases, out=k[0, 2:, :n])
        np.multiply(k[0, :, None, :n], k[0, None, :, :n], out=k[1:, :, :n])
        # The generators, whose exponentials take the place of their matrices.
        np.matmul(weights[:, :n].T, basis, out=matrices[:n].reshape(n, 64))
        exponentials = _expm_taylor(matrices[:n], degree, [w[:n] for w in work])
        # One 2-D product with the constant rotation, not a stack of 8x8 ones.
        np.matmul(exponentials.reshape(-1, 8), rotation, out=matrices[:n].reshape(-1, 8))
        return matrices[:n]

    return step_matrices


_thread = threading.local()


def _workspace(size: int):
    """Four (size, 8, 8) buffers of this thread for the Magnus pass (see
    ``MagnusPass``), size <= STEPS_PER_CHUNK.  They are slices of one
    array that the thread allocates at its first driven run, or when
    STEPS_PER_CHUNK has grown, and keeps for every later run, so that a run
    maps and faults in no memory anew.
    """
    buffers = getattr(_thread, "buffers", None)
    if buffers is None or buffers.shape[1] < size:
        buffers = _thread.buffers = np.empty((4, STEPS_PER_CHUNK, 8, 8))
    return buffers[:, :size]


def _generator_bound(basis) -> float:
    """Bound on the Frobenius norm of every step's Omega = sum_q k_q A_q +
    sum_qr k_q k_r C_qr (see ``_magnus_steps``) from ``basis``, the real
    forms of the A_q and C_qr as rows.  As |k|^2 = 2 and the k_q k_r have
    norm |k|^2, it is sqrt(2 lmax(G_A)) + 2 sqrt(lmax(G_C)) with G the Gram
    matrices of the A and the C; a real form doubles squared norms.
    """
    gram = basis @ basis.T / 2
    a, c = (max(0.0, float(np.linalg.eigvalsh(g)[-1])) for g in (gram[:4, :4], gram[4:, 4:]))
    return math.sqrt(2 * a) + 2 * math.sqrt(c)


def _drive_integrals(blocks: BlockPropagator, config, h: float):
    """(A, C) of the Magnus step of length h: A[q] = -i int F_q and
    C[q, r] = 1/2 int int_{s2 < s1} [-i F_q(s1), -i F_r(s2)] over
    -h/2 < s2 < s1 < h/2, with F_q(s) = c_q(s) P(s) V^T a_i D_i V P(s)^dag,
    c_q(s) = cos(w_i s) for q = i and -sin(w_i s) for q = 2 + i (see
    ``_magnus_steps``).  Shapes (4, 4, 4) and (4, 4, 4, 4).

    Entry (j, l) of F_q(s) is a sum of two exp(i nu s), nu = L_j - L_l +- w_i,
    an entire function of s.  With s = h u / 2, F_q(u) = sum_m f_qm P_m(u) in
    Legendre polynomials, whose coefficients come from the Gauss-Legendre rule
    of ``_legendre_rule``; A[q] = -i h f_q0 and, as the double integrals
    Q_mn of P_m(u1) P_n(u2) over u2 < u1 vanish unless |m - n| = 1 or
    m = n = 0, C[q, r] = -(h^2 / 8) sum_mn Q_mn [f_qm, f_rn].  The node
    count follows the largest |nu| h / 2, so the sums are exact to rounding
    for any step, and no term divides by a small nu.
    """
    v, rates = blocks.eigenvectors, blocks.eigenvalues
    resonances = config.resonances
    amplitudes = np.array(drive_amplitudes(config, 0.0))
    drives = amplitudes[:, None, None] * (v.T @ DRIVE_OPERATORS @ v)  # a_i V^T D_i V
    omegas = np.array([resonances.omega1, resonances.omega2])
    top = h / 2 * (max(blocks._lam) - min(blocks._lam) + max(abs(resonances.omega1), abs(resonances.omega2)))
    nodes, projections = _legendre_rule(_legendre_node_count(top))
    n = len(nodes)
    s = h / 2 * nodes
    spins = _unit_phases(np.multiply.outer(omegas, s))
    weights = np.array([spins.real, -spins.imag])  # c_q(s_k) as (cos/sin, spin, k)
    frames = _unit_phases(np.multiply.outer(s, np.subtract.outer(rates, rates)))
    f = weights[..., None, None] * frames * drives[:, None]  # F_q(s_k), q = 2 (cos/sin) + spin
    # f_qm and sum_n Q_mn f_qn, as x[q, 0 or 1, m, j, l].
    x = (projections @ f.reshape(4, n, 16)).reshape(4, 2, n, 4, 4)
    # Both sums over m of [f_qm, sum_n Q_mn f_rn] from one 2-D product over
    # the pairs (m, l): rows (0 or 1, q, j) times columns (0 or 1, r, k).
    rows = x.transpose(1, 0, 3, 2, 4).reshape(32, 4 * n)
    columns = x.transpose(2, 3, 1, 0, 4).reshape(4 * n, 32)
    products = (rows @ columns).reshape(2, 4, 4, 2, 4, 4)
    commutators = products[0, :, :, 1].transpose(0, 2, 1, 3) - products[1, :, :, 0].transpose(2, 0, 1, 3)
    return -1j * h * x[:, 0, 0], -(h * h / 8) * commutators


@lru_cache(maxsize=32)
def _legendre_rule(n: int):
    """(nodes, projections) of the n-node Gauss-Legendre rule on [-1, 1].

    For F at the nodes, projections @ F stacks the first n Legendre
    coefficients f_m of F and sum_n Q_mn f_n, where
    Q_mn = int_{-1}^{1} P_m(u1) int_{-1}^{u1} P_n(u2) du2 du1 is 2 at
    m = n = 0, +-2 / ((2k + 1) (2k + 3)) at (k + 1, k) and (k, k + 1) and 0
    elsewhere.  The nodes are the eigenvalues of the Jacobi matrix of the
    orthonormal Legendre polynomials, whose eigenvectors q_j hold
    sqrt(w_j / 2) sqrt(2m + 1) P_m(x_j) up to sign (Golub and Welsch), so
    f_m = sqrt(2m + 1) sum_j q_mj q_0j F(x_j).  The arrays are shared and
    read-only.
    """
    k = np.arange(1.0, n)
    nodes, q = np.linalg.eigh(np.diag(k / np.sqrt(4 * k * k - 1), -1))
    moments = np.sqrt(2 * np.arange(n) + 1.0)[:, None] * q * q[0]
    band = np.diag(2 / ((2 * k - 1) * (2 * k + 1)), -1)
    band -= band.T
    band[0, 0] = 2.0
    projections = np.concatenate([moments, band @ moments])
    nodes.setflags(write=False)
    projections.setflags(write=False)
    return nodes, projections


def _legendre_node_count(top: float) -> int:
    """Fewest Gauss-Legendre nodes n for functions of u in [-1, 1] whose
    frequencies are at most ``top``.

    exp(i nu u) has Legendre coefficients (2m + 1) i^m j_m(nu), of modulus
    at most b_m = |nu|^m / (2m - 1)!!.  With n nodes the omitted terms of
    ``_drive_integrals`` are products of a coefficient of degree n or more
    and one of degree n - 1 or more, and the rule's aliasing is smaller
    still, so n is the first count with b_n b_(n-1) below rounding.
    """
    n, previous, bound = 1, 1.0, top
    while _TAYLOR_TOL < previous * bound < math.inf:
        n += 1
        previous, bound = bound, bound * top / (2 * n - 1)
    return n


def _expm_taylor(omega, degree: int, work):
    """exp(omega) of small matrices by their Taylor polynomial of odd degree
    ``degree`` = 2m + 1, in one of the three arrays ``work`` of omega's shape,
    which it returns.

    ``omega`` holds complex matrices W, or their real forms R(W) (see
    ``_real_form``); the result is then R(exp W).  The polynomial is
    evaluated by Horner's rule in omega^2 over the pairs
    I/(2k)! + omega/(2k+1)!: m + 1 matrix products.  Each I/(2k)! is added
    on the diagonal only, through a strided view of the result.
    """
    m = degree // 2
    square, result, product = work
    diagonal = np.einsum("...ii->...i", result)
    np.matmul(omega, omega, out=square)
    for k in range(m, -1, -1):
        if k < m:
            np.matmul(square, result, out=product)
        if k:
            np.multiply(omega, 1 / math.factorial(2 * k + 1), out=result)
            diagonal += 1 / math.factorial(2 * k)
        else:
            np.add(omega, np.eye(omega.shape[-1]), out=result)
        if k < m:
            result += product
    return result


def _taylor_degree(nu: float) -> int:
    """Lowest odd degree 2m + 1 whose Taylor remainder bound for exp(W),
    nu^(2m+2) / (2m+2)! with nu a bound on the Frobenius norm of W, is below
    _TAYLOR_TOL."""
    nu2 = nu * nu
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


def time_dependent_hamiltonian(config: SimulationConfig, h0: np.ndarray):
    """Return H(t) = h0 + ``build_drive(config, t)`` as a callable of time,
    where ``h0`` is the config's static Hamiltonian: the H(t) of a driven
    run's RK4 refinement and of theta's rate (``engine.run_trajectory``).

    ``t`` may be an array; H(t) then has shape ``t.shape + (4, 4)``.
    """
    return lambda t: h0 + build_drive(config, t)


def magnus_steps(config: SimulationConfig, scale: float, times) -> int:
    """Magnus steps W per interval of the uniform grid ``times`` for a driven
    run of ``config`` whose Hamiltonian scale is ``scale``.

    The fewest W that keep the fitted error MAGNUS_ERROR (a h)^3 (S h)^2 N
    of N = W (len(times) - 1) steps of h = spacing / W at most
    MAGNUS_TOLERANCE, where a is the drive peak and S the Hamiltonian scale;
    the error falls as W^-4.  Two bounds apply: W never exceeds the count
    that advances MAX_PHASE_PER_STEP at S per step, which resolves the
    Zeeman precession itself and which long, strongly driven runs would
    otherwise exceed, and no step advances more than MAX_MAGNUS_PHASE at S.
    More than MAX_STEPS steps come back as a count that ``MagnusPass``
    refuses.
    """
    spacing = times[-1] / (len(times) - 1)
    zeeman = scale * spacing / MAX_PHASE_PER_STEP
    drive = drive_peak_amplitude(config) * spacing
    error = MAGNUS_ERROR * drive**3 * (scale * spacing) ** 2 * (len(times) - 1) if drive else 0.0
    steps = max(min(zeeman, (error / MAGNUS_TOLERANCE) ** 0.25), scale * spacing / MAX_MAGNUS_PHASE)
    return max(1, math.ceil(min(steps, MAX_STEPS + 1)))


class MagnusPass:
    """A driven run's pass of ``steps`` uniform 4th-order Magnus steps per
    sample interval, taken in as many calls of ``advance`` as its caller
    makes; it is ``done`` once it has taken all ``total`` steps of length
    ``h``.  With H0 = V L V^T from ``blocks`` and psi = V exp(-i L t) phi,
    i dphi/dt = exp(i L t) V^T D(t) V exp(-i L t) phi for the drive D(t) at
    ``config.resonances``: as large as the drive, the Zeeman precession in
    phase factors that each step integrates exactly (``_drive_integrals``),
    so the step need only follow the drive (``magnus_steps``).

    ``times`` must be the uniform grid np.linspace(0, t_end, n); raises
    ValueError otherwise, and OutOfRange, before any step is taken, for more
    than MAX_STEPS steps over the whole run.  ``trajectory`` holds the
    samples stored so far, ``count`` of them: the first, and the state after
    every interval whose last step has been taken.
    """

    def __init__(self, blocks: BlockPropagator, config: SimulationConfig, times, steps: int):
        times = np.asarray(times, dtype=float)
        _check_times(times)
        n = len(times)
        # np.linspace(0, t_end, n) by the operations of engine.sample_times,
        # bit for bit.
        if not (times[:-1] == np.arange(n - 1) * (times[-1] / (n - 1))).all():
            raise ValueError("Magnus steps need a uniform grid, np.linspace(0, t_end, n)")
        self.times, self.steps = times, steps
        self.total = steps * (n - 1)
        self.h = h = float(times[-1]) / self.total
        _check_step_count(self.total, h, times[-1])
        self._blocks, self._config = blocks, config
        self.taken, self.count = 0, 1
        # From the blocks' floats, with c and s the cos and sin of L_k h/2:
        # xi = exp(i L h/2) V^T psi as the real 8-vector [Re xi, Im xi],
        # after the steps taken, from V^T psi0, the blocks' coefficients; the
        # real map of such rows to the interleaved (Re psi_j, Im psi_j) of
        # the stored state psi = V exp(-i L h/2) xi, row k (c, -s) V[j, k]
        # and row 4 + k (s, c) V[j, k]; and R(exp(-i L h)), the rotation of
        # every step (``_magnus_steps``).
        xi, top, bottom, cos, sin = [], [], [], [], []
        for k, (x, b) in enumerate(zip(blocks._lam, blocks._coefficients)):
            c, s = math.cos(x * h / 2), math.sin(x * h / 2)
            xi.append(complex(c, s) * b)
            for row in blocks._vectors:
                top += (row[k] * c, -row[k] * s)
                bottom += (row[k] * s, row[k] * c)
            cos.append(math.cos(x * h))
            sin.append(math.sin(x * h))
        rotation = [0.0] * 64
        rotation[::9], rotation[4:32:9], rotation[32::9] = cos + cos, sin, [-v for v in sin]
        self._map = np.array(top + bottom).reshape(8, 8)
        self._rotation = np.array(rotation).reshape(8, 8)
        self._state = np.array([z.real for z in xi] + [z.imag for z in xi])
        self._states = np.empty((n, 4), dtype=complex)
        self._store(0, self._state[None])
        # The workspace the step kernel was built on, and the kernel.
        self._kernel = None, None

    @property
    def done(self) -> bool:
        return self.taken == self.total

    @property
    def trajectory(self) -> Trajectory:
        return self.samples(0)

    def samples(self, start: int) -> Trajectory:
        """The samples stored so far from sample ``start`` on."""
        return Trajectory(times=self.times[start : self.count], states=self._states[start : self.count])

    def advance(self, n: int):
        """Take the next n steps, or the rest of the run if fewer, built and
        carried STEPS_PER_CHUNK at a time from the step after the last one
        taken (``_carry``), and store the state after every interval's last
        step.  The chunks use the workspace of the thread that takes them
        (``_workspace``): a pass resumed in another thread builds its step
        kernel again there.  Raises NormDrift at the first sample stored here
        whose squared norm departs from 1 by more than NORM_TOLERANCE; the
        pass is then left as it was before the call.
        """
        end = min(self.taken + n, self.total)
        buffers = _workspace(min(self.total, STEPS_PER_CHUNK))
        if self._kernel[0] is not buffers.base:
            kernel = _magnus_steps(self._blocks, self._config, self.h, self._rotation, buffers)
            self._kernel = buffers.base, kernel
        step_matrices, state = self._kernel[1], self._state
        for first in range(self.taken, end, STEPS_PER_CHUNK):
            states = _carry(step_matrices(first, min(STEPS_PER_CHUNK, end - first)), state, buffers[1])
            state = states[-1]
            # states[k] follows step first + k, which ends an interval when
            # first + k + 1 is a multiple of steps: a chunk need not begin or
            # end on a sample, nor hold one.
            lead = -(first + 1) % self.steps
            self._store((first + lead + 1) // self.steps, states[lead :: self.steps])
        self.taken, self.count, self._state = end, end // self.steps + 1, state

    def _store(self, i: int, xi):
        """Store psi = V exp(-i L h/2) xi as the samples from i on, by one
        real product of the carried rows [Re xi, Im xi] with the pass's map
        into the float view of the complex samples, and check their norms."""
        states = self._states[i : i + len(xi)]
        np.matmul(xi, self._map, out=states.view(float))
        _check_norms(self.times[i : i + len(xi)], states, "Magnus", self.h)


def _check_norms(times, states, method: str, substep: float):
    """Raise NormDrift at the first of ``states`` (at ``times``), complex
    rows, whose squared norm departs from 1 by more than NORM_TOLERANCE or is
    not a number; the message names the ``method`` and the largest
    ``substep`` taken.  The squared norms are the sums of squares of the
    rows' float view."""
    x = states.view(float)
    drift = np.abs(np.einsum("ij,ij->i", x, x) - 1.0)
    within = drift <= NORM_TOLERANCE
    if not within.all():
        i = within.argmin()
        raise NormDrift(
            f"squared norm drifted by {drift[i]:.3e} at t={times[i]:.6e} s "
            f"(tolerance {NORM_TOLERANCE:.1e}); the largest {method} substep taken was {substep:.3e} s"
        )


def _check_times(times: np.ndarray):
    if len(times) < 2 or times[0] != 0:
        raise ValueError("times must start at 0 and contain at least two samples")
    if ((times[1:] - times[:-1]) <= 0).any():
        raise ValueError("times must be strictly increasing")
