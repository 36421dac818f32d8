"""Assembly of the 4x4 two-spin Hamiltonian in angular-frequency units.

Basis order {|00>, |01>, |10>, |11>} with sigma_z |0> = +|0>.  The static part
consists of the dipole-dipole term (spin separation axis along x), an optional
isotropic exchange term, and the Zeeman terms; the driven part adds a linear
oscillating field in the x-y plane rotating nothing away (no rotating-wave
approximation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .constants import CONSTANTS, PhysicalConstants
from .errors import NonPositiveDistance
from .fields import ResonancePair

if TYPE_CHECKING:  # config imports this module to validate r
    from .config import SimulationConfig

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def dipole_coupling(constants: PhysicalConstants, r: float) -> float:
    """Dipole-dipole coupling strength g(r) = mu0 muB^2 / (4 pi r^3 hbar), rad/s.

    The 1/(4 pi) prefactor is the one that reproduces the nanosecond-scale
    gate times of the reference parameter set (see README for the unit and
    prefactor conventions).  Strictly decreasing in r, diverges as r -> 0.
    """
    if r <= 0:
        raise NonPositiveDistance(f"spin separation must be > 0, got {r}")
    return constants.mu0 * constants.muB**2 / (4 * np.pi * r**3 * constants.hbar)


def static_terms(config: SimulationConfig):
    """Return (g, m1, m2) in rad/s.

    m1 = -muB (B1 + B2) / hbar and m2 = -muB (B1 - B2) / hbar, where
    B_i = Bz_i + Bg_i is the total static field at spin i.
    """
    g = dipole_coupling(CONSTANTS, config.r)
    b1 = config.Bz1 + config.Bg1
    b2 = config.Bz2 + config.Bg2
    m1 = -CONSTANTS.muB * (b1 + b2) / CONSTANTS.hbar
    m2 = -CONSTANTS.muB * (b1 - b2) / CONSTANTS.hbar
    return g, m1, m2


def build_static(config: SimulationConfig) -> np.ndarray:
    """Static Hamiltonian matrix (rad/s).

    Block {|00>,|11>}: [[g+m1, -3g], [-3g, g-m1]]
    Block {|01>,|10>}: [[-g+m2, -g], [-g, -g-m2]]
    plus J0 (sigma1 . sigma2) when the exchange coupling is enabled.
    """
    g, m1, m2 = static_terms(config)
    h = np.array(
        [
            [g + m1, 0, 0, -3 * g],
            [0, -g + m2, -g, 0],
            [0, -g, -g - m2, 0],
            [-3 * g, 0, 0, g - m1],
        ],
        dtype=complex,
    )
    if config.J0 != 0:
        h = h + config.J0 * _exchange_operator()
    return h


def _exchange_operator() -> np.ndarray:
    return (
        np.kron(SIGMA_X, SIGMA_X)
        + np.kron(SIGMA_Y, SIGMA_Y)
        + np.kron(SIGMA_Z, SIGMA_Z)
    )


# Drive operators, one per spin: a linear field at 45 degrees in the x-y
# plane couples through sigma_x + sigma_y on each spin.
DRIVE_OPERATORS = np.array(
    [np.kron(SIGMA_X + SIGMA_Y, IDENTITY_2), np.kron(IDENTITY_2, SIGMA_X + SIGMA_Y)]
)


def drive_amplitudes(config: SimulationConfig, resonances: ResonancePair, t):
    """(a1(t), a2(t)) in rad/s, the coefficients of the DRIVE_OPERATORS.

    Spin i is driven at its own resonance frequency with amplitude
    a_i(t) = -muB Bl_i cos(omega_i t) / hbar on both sigma_x and sigma_y
    (a linearly polarized field, both components share the same cosine).
    """
    a1 = -CONSTANTS.muB * config.Bl1 * np.cos(resonances.omega1 * t) / CONSTANTS.hbar
    a2 = -CONSTANTS.muB * config.Bl2 * np.cos(resonances.omega2 * t) / CONSTANTS.hbar
    return a1, a2


def build_drive(config: SimulationConfig, resonances: ResonancePair, t) -> np.ndarray:
    """Time-dependent drive term only (rad/s); add to the static matrix.

    ``t`` may be a scalar or an array; the result has shape
    ``np.shape(t) + (4, 4)``.
    """
    a1, a2 = drive_amplitudes(config, resonances, t)
    return np.multiply.outer(a1, DRIVE_OPERATORS[0]) + np.multiply.outer(a2, DRIVE_OPERATORS[1])


def drive_peak_amplitude(config: SimulationConfig) -> float:
    """Largest per-spin drive amplitude |muB Bl / hbar| (rad/s)."""
    return CONSTANTS.muB * max(abs(config.Bl1), abs(config.Bl2)) / CONSTANTS.hbar


def is_hermitian(h: np.ndarray) -> bool:
    """Whether h - h^dag vanishes to within 1e-12 times h's largest entry."""
    scale = np.max(np.abs(h))
    if scale == 0:
        return True
    return np.max(np.abs(h - h.conj().T)) <= 1e-12 * scale
