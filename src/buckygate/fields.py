"""Wire-generated addressing field and per-qubit resonance frequencies.

Two parallel wires at +/-(rho + d/2) produce a field that is odd in the
position x, so two spins placed symmetrically about the midpoint see
opposite-sign field contributions and acquire distinct resonance frequencies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigErrorItem, SingularPosition

# Feasibility window for the wire current: outside it either the frequency
# splitting is too small to resolve or the wire overheats.
CURRENT_WINDOW = (0.1, 0.6)

# Positions closer than this to a wire axis are treated as singular.
SINGULAR_GUARD = 1e-12


@dataclass(frozen=True)
class WirePair:
    """Two parallel wires carrying current ``current`` (A).

    separation: gap d between the wires (m)
    radius:     wire radius rho (m)
    """

    current: float
    separation: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ConfigErrorItem(f"wire radius must be > 0, got {self.radius}")
        if self.separation <= 0:
            raise ConfigErrorItem(f"wire separation must be > 0, got {self.separation}")
        if self.current == 0:
            raise ConfigErrorItem("wire current must be nonzero")
        for name in ("current", "separation", "radius"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigErrorItem(f"wire {name} must be finite, got {getattr(self, name)}")
        lo, hi = CURRENT_WINDOW
        if not lo <= abs(self.current) <= hi:
            warnings.warn(
                f"|I|={abs(self.current)} A outside the feasible window [{lo}, {hi}] A",
                stacklevel=2,
            )

    @property
    def half_span(self) -> float:
        """Distance from the midpoint to each wire axis: rho + d/2."""
        return self.radius + self.separation / 2


@dataclass(frozen=True)
class ResonancePair:
    """Per-qubit resonance angular frequencies (rad/s)."""

    omega1: float
    omega2: float


def gradient_field(wires: WirePair, x):
    """Field (T) at position x (m) between the wire pair.

    B(x) = (mu0 / 2 pi) I [1/(x + a) + 1/(x - a)] with a = rho + d/2.
    Odd in x, zero at the midpoint, singular on the wire axes.
    Accepts a scalar or an array of positions.
    """
    a = wires.half_span
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa - a) < SINGULAR_GUARD) or np.any(np.abs(xa + a) < SINGULAR_GUARD):
        raise SingularPosition(f"position hits a wire axis at x=+/-{a}")
    b = CONSTANTS.mu0 / (2 * np.pi) * wires.current * (1.0 / (xa + a) + 1.0 / (xa - a))
    return float(b) if np.isscalar(x) else b


def resonance_frequencies(Bz1, Bg1, Bz2, Bg2) -> ResonancePair:
    """Zeeman resonance frequencies omega_i = gamma muB (Bz_i + Bg_i) / hbar."""
    scale = CONSTANTS.gamma * CONSTANTS.muB / CONSTANTS.hbar
    return ResonancePair(omega1=scale * (Bz1 + Bg1), omega2=scale * (Bz2 + Bg2))
