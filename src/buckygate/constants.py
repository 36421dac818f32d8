"""Physical constants and the unit policy.

All Hamiltonian matrix elements produced by this package are angular
frequencies in rad/s (energy divided by hbar), while magnetic fields stay in
tesla and distances in metres.  Gate times therefore come out directly in
seconds.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA constants; the whole package reads the module's CONSTANTS.

    mu0:   vacuum permeability (T*m/A)
    muB:   Bohr magneton (J/T)
    hbar:  reduced Planck constant (J*s)
    gamma: electron gyromagnetic factor (dimensionless, ~2 for a free electron)
    """

    mu0: float = 1.25663706212e-6
    muB: float = 9.2740100783e-24
    hbar: float = 1.054571817e-34
    gamma: float = 2.0


CONSTANTS = PhysicalConstants()
