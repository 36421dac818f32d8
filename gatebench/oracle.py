"""Exact reference for static runs, independent of the engine's phase handling.

The oracle diagonalizes the package's static Hamiltonian itself, evolves the
initial state exactly and forms the composite phase from the gauge-invariant
product c1 c4 conj(c2) conj(c3).  The Zeeman terms cancel in that product, so
it turns at the dipole rate and ORACLE_GRID points resolve it at any distance,
unlike the per-basis arguments the engine unwraps.
"""

from __future__ import annotations

import math

import numpy as np

from buckygate.config import validate
from buckygate.hamiltonian import build_static

# find_gate_time's default phase_tol: the accuracy the engine promises.
PHASE_TOL = 1e-7
# Rounding allowance for the oracle's own evaluation of theta(tau).
PHASE_SLACK = 1e-9
ORACLE_GRID = 20_001


class StaticOracle:
    """psi(t) and theta(t) of one static configuration, evaluated exactly."""

    def __init__(self, config):
        cfg = validate(config)
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(build_static(cfg))
        self.coef = self.eigenvectors.conj().T @ cfg.initial_state

    def psi(self, times) -> np.ndarray:
        """States at the given times, shape (len(times), 4)."""
        phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), self.eigenvalues))
        return (phases * self.coef) @ self.eigenvectors.T

    def theta(self, tau: float) -> np.ndarray:
        """Unwrapped composite phase on ORACLE_GRID points from 0 to tau."""
        c = self.psi(np.linspace(0.0, tau, ORACLE_GRID))
        z = c[:, 0] * c[:, 3] * np.conj(c[:, 1] * c[:, 2])
        theta = np.unwrap(np.angle(z))
        return theta - theta[0]

    def theta_rate(self, t: float) -> float:
        """d theta / dt at t, from the exact derivative of each amplitude."""
        phases = np.exp(-1j * self.eigenvalues * t) * self.coef
        c = self.eigenvectors @ phases
        dc = self.eigenvectors @ (-1j * self.eigenvalues * phases)
        ratio = (dc / c).imag
        return float(ratio[0] - ratio[1] - ratio[2] + ratio[3])

    def check_tau(self, tau: float):
        """Judge a reported gate time.

        Returns (passed, residual, tau_dev): residual is |theta(tau) + pi| in
        rad, tau_dev the first-order distance of tau from the exact crossing
        relative to tau.  tau passes iff the residual is within
        PHASE_TOL + PHASE_SLACK and |theta| does not reach pi earlier.
        """
        theta = self.theta(tau)
        residual = abs(float(theta[-1]) + math.pi)
        early = bool(np.any(np.abs(theta[:-1]) >= math.pi))
        tau_dev = residual / (abs(self.theta_rate(tau)) * tau)
        return residual <= PHASE_TOL + PHASE_SLACK and not early, residual, tau_dev
