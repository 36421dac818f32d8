"""Assembly of the 4x4 two-spin Hamiltonian in angular-frequency units.

Basis order {|00>, |01>, |10>, |11>} with sigma_z |0> = +|0>.  The static part
consists of the dipole-dipole term (spin separation axis along x), an optional
isotropic exchange term, and the Zeeman terms; the driven part adds a linear
oscillating field in the x-y plane rotating nothing away (no rotating-wave
approximation).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigErrorItem

if TYPE_CHECKING:  # config imports this module to validate r
    from .config import SimulationConfig

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def dipole_coupling(r: float) -> float:
    """Dipole-dipole coupling strength g(r) = mu0 muB^2 / (4 pi r^3 hbar), rad/s.

    The 1/(4 pi) prefactor is the one that reproduces the nanosecond-scale
    gate times of the reference parameter set (see README for the unit and
    prefactor conventions).  Strictly decreasing in r, diverges as r -> 0.
    A Python float, 0.0 where r^3 is beyond the floats and inf where the
    denominator underflows to 0, with no exception and no warning.
    """
    if r <= 0:
        raise ConfigErrorItem(f"spin separation must be > 0, got {r}")
    r = float(r)
    try:
        denominator = 4 * math.pi * r**3 * CONSTANTS.hbar
    except OverflowError:  # float ** raises where * and / give inf
        return 0.0
    return CONSTANTS.mu0 * CONSTANTS.muB**2 / denominator if denominator else math.inf


def static_terms(config: SimulationConfig):
    """Return (g, m1, m2) in rad/s, g the dipole coupling and (m1, m2) the
    ``zeeman_terms``."""
    return (dipole_coupling(config.r), *zeeman_terms(config))


def zeeman_terms(config: SimulationConfig):
    """Return (m1, m2) in rad/s, Python floats, inf where they overflow.

    m1 = -muB (B1 + B2) / hbar and m2 = -muB (B1 - B2) / hbar, where
    B_i = Bz_i + Bg_i is the total static field at spin i.
    """
    b1 = float(config.Bz1) + float(config.Bg1)
    b2 = float(config.Bz2) + float(config.Bg2)
    m1 = -CONSTANTS.muB * (b1 + b2) / CONSTANTS.hbar
    m2 = -CONSTANTS.muB * (b1 - b2) / CONSTANTS.hbar
    return m1, m2


def static_blocks(config: SimulationConfig) -> list:
    """[h00, h03, h33, h11, h12, h22]: the static Hamiltonian's entries
    (rad/s) on its two real 2x2 blocks, A on {|00>,|11>} and B on
    {|01>,|10>}, in Python floats.

    Block A: [[g+m1, -3g], [-3g, g-m1]], block B: [[-g+m2, -g], [-g, -g-m2]],
    plus J0 (sigma1 . sigma2) when the exchange coupling is enabled: J0 on
    the diagonal of A, -J0 on that of B and 2 J0 on B's off-diagonal.
    """
    g, m1, m2 = static_terms(config)
    j0 = config.J0
    if j0 == 0:
        return [g + m1, -3 * g, g - m1, -g + m2, -g, -g - m2]
    return [(g + m1) + j0, -3 * g, (g - m1) + j0, (-g + m2) - j0, -g + 2 * j0, (-g - m2) - j0]


def build_static(config: SimulationConfig) -> np.ndarray:
    """Static Hamiltonian matrix (rad/s), the ``static_blocks`` in place."""
    h00, h03, h33, h11, h12, h22 = static_blocks(config)
    return np.array(
        [[h00, 0, 0, h03], [0, h11, h12, 0], [0, h12, h22, 0], [h03, 0, 0, h33]], dtype=complex
    )


# Drive operators, one per spin: a linear field at 45 degrees in the x-y
# plane couples through sigma_x + sigma_y on each spin.
DRIVE_OPERATORS = np.array(
    [np.kron(SIGMA_X + SIGMA_Y, IDENTITY_2), np.kron(IDENTITY_2, SIGMA_X + SIGMA_Y)]
)


def drive_amplitudes(config: SimulationConfig, t):
    """(a1(t), a2(t)) in rad/s, the coefficients of the DRIVE_OPERATORS.

    Spin i is driven at its resonance omega_i (``config.resonances``) with
    amplitude a_i(t) = -muB Bl_i cos(omega_i t) / hbar on both sigma_x and
    sigma_y (a linearly polarized field, both components share the cosine).
    """
    resonances = config.resonances
    a1 = -CONSTANTS.muB * config.Bl1 * np.cos(resonances.omega1 * t) / CONSTANTS.hbar
    a2 = -CONSTANTS.muB * config.Bl2 * np.cos(resonances.omega2 * t) / CONSTANTS.hbar
    return a1, a2


def build_drive(config: SimulationConfig, t) -> np.ndarray:
    """Drive term only at ``config.resonances`` (rad/s); add to the static matrix.

    ``t`` may be a scalar or an array; the result has shape
    ``np.shape(t) + (4, 4)``.
    """
    a1, a2 = drive_amplitudes(config, t)
    return np.multiply.outer(a1, DRIVE_OPERATORS[0]) + np.multiply.outer(a2, DRIVE_OPERATORS[1])


def drive_peak_amplitude(config: SimulationConfig) -> float:
    """Largest per-spin drive amplitude |muB Bl / hbar| (rad/s)."""
    return CONSTANTS.muB * max(abs(config.Bl1), abs(config.Bl2)) / CONSTANTS.hbar
