"""Exact static evolution by an eigendecomposition: the tests' oracle for
static runs and for drive-free driven ones.

The package diagonalizes the static Hamiltonian in closed form from its two
2x2 blocks (``BlockPropagator``); this oracle takes ``np.linalg.eigh`` of
the whole 4x4 matrix instead, so the two share no code.
"""

import numpy as np

from buckygate.propagator import Trajectory, _check_times, _unit_phases


class SpectralPropagator:
    """Exact evolution under a constant Hermitian matrix via eigendecomposition."""

    def __init__(self, h: np.ndarray):
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(h)
        self._rates = -self.eigenvalues
        # Both C-contiguous, so that a state gets the same bits alone or in a batch.
        self._to_eigen = self.eigenvectors.conj()
        self._from_eigen = np.ascontiguousarray(self.eigenvectors.T)

    def evolve(self, psi: np.ndarray, dtau) -> np.ndarray:
        """psi(t0 + dtau) = V exp(-i L dtau) V^dag psi(t0).

        ``dtau`` may be an array of n steps; ``psi`` is then one state or n
        states, one per step, and the result has shape (n, 4).
        """
        phases = _unit_phases(np.asarray(dtau)[..., None] * self._rates)
        phases *= psi @ self._to_eigen
        return phases @ self._from_eigen


def propagate_static(spectral: SpectralPropagator, psi0: np.ndarray, times) -> Trajectory:
    """Exact static-Hamiltonian trajectory psi(t) = V exp(-i L t) V^dag psi0."""
    times = np.asarray(times, dtype=float)
    _check_times(times)
    states = spectral.evolve(np.asarray(psi0, dtype=complex), times)
    return Trajectory(times=times, states=states)
