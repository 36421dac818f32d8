import numpy as np
import pytest

from buckygate.config import SimulationConfig, validate
from buckygate.constants import CONSTANTS
from buckygate.errors import ConfigErrorItem
from buckygate.fields import resonance_frequencies
from buckygate.hamiltonian import (
    build_drive,
    build_static,
    dipole_coupling,
    drive_peak_amplitude,
    static_terms,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def is_hermitian(h: np.ndarray) -> bool:
    """Whether h - h^dag vanishes to within 1e-12 times h's largest entry."""
    scale = np.abs(h).max()
    if scale == 0:
        return True
    return np.abs(h - h.conj().T).max() <= 1e-12 * scale


def build_static_kron(config):
    """The static Hamiltonian via the explicit tensor-product construction.

    Independent route kept as a guard against transcription errors in the
    closed-form matrix: g (sz sz + sy sy - 2 sx sx) + Zeeman + exchange.
    """
    g = dipole_coupling(config.r)
    dipole = g * (
        np.kron(SIGMA_Z, SIGMA_Z)
        + np.kron(SIGMA_Y, SIGMA_Y)
        - 2 * np.kron(SIGMA_X, SIGMA_X)
    )
    zeeman = -CONSTANTS.muB / CONSTANTS.hbar * (
        (config.Bz1 + config.Bg1) * np.kron(SIGMA_Z, IDENTITY_2)
        + (config.Bz2 + config.Bg2) * np.kron(IDENTITY_2, SIGMA_Z)
    )
    exchange = config.J0 * (
        np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
    )
    return dipole + zeeman + exchange


def reference_config(**overrides):
    kwargs = dict(
        r=1.14e-9, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5, t_max=1.2e-8
    )
    kwargs.update(overrides)
    return validate(SimulationConfig(**kwargs))


class TestDipoleCoupling:
    def test_reference_distance(self):
        # mu0 muB^2 / (4 pi r^3 hbar) at r = 1.14 nm, frozen from direct
        # constant arithmetic.
        assert dipole_coupling(1.14e-9) == pytest.approx(
            55048363.47952259, rel=1e-12
        )

    def test_cubic_scaling(self):
        g1 = dipole_coupling(1e-9)
        g2 = dipole_coupling(2e-9)
        assert g2 == pytest.approx(g1 / 8, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, -1e-9])
    def test_nonpositive_distance(self, r):
        with pytest.raises(ConfigErrorItem, match="spin separation must be > 0"):
            dipole_coupling(r)


class TestStaticTerms:
    def test_reference_values(self):
        g, m1, m2 = static_terms(reference_config())
        assert m1 == pytest.approx(-1.7588e10, rel=1e-3)
        assert m2 == pytest.approx(-1.0694e7, rel=1e-3)
        assert g > 0

    def test_gradient_free_m2_zero(self):
        _, _, m2 = static_terms(reference_config(Bg1=0.0, Bg2=0.0))
        assert m2 == 0.0


class TestBuildStatic:
    def test_unit_matrix_structure(self):
        # In units of g, with m1=m2=0 for no fields.
        cfg = validate(SimulationConfig(r=1.0, Bz1=0.0, Bz2=0.0, t_max=1.0))
        h = build_static(cfg) / dipole_coupling(cfg.r)
        expected = np.array(
            [
                [1, 0, 0, -3],
                [0, -1, -1, 0],
                [0, -1, -1, 0],
                [-3, 0, 0, 1],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_hermitian(self):
        assert is_hermitian(build_static(reference_config()))
        assert is_hermitian(build_static(reference_config(J0=1e7)))

    def test_block_decoupling(self):
        h = build_static(reference_config())
        for i, j in [(0, 1), (0, 2), (3, 1), (3, 2)]:
            assert h[i, j] == 0
            assert h[j, i] == 0

    def test_traceless_without_exchange(self):
        h = build_static(reference_config())
        assert abs(np.trace(h)) <= 1e-6 * np.max(np.abs(h))

    def test_matches_kron_construction(self):
        for cfg in [reference_config(), reference_config(J0=3e6), reference_config(Bg1=0, Bg2=0)]:
            np.testing.assert_allclose(
                build_static(cfg), build_static_kron(cfg), rtol=1e-14, atol=1e-6
            )

    def test_block_eigenvalues_closed_form(self):
        cfg = reference_config()
        g, m1, m2 = static_terms(cfg)
        expected = np.sort(
            [
                g + np.hypot(m1, 3 * g),
                g - np.hypot(m1, 3 * g),
                -g + np.hypot(m2, g),
                -g - np.hypot(m2, g),
            ]
        )
        eigs = np.linalg.eigvalsh(build_static(cfg))
        np.testing.assert_allclose(eigs, expected, rtol=1e-12)


class TestBuildDrive:
    def setup_method(self):
        self.cfg = reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4)

    def test_zero_without_amplitude(self):
        cfg = reference_config(mode="driven")
        np.testing.assert_array_equal(
            build_drive(cfg, 1e-9), np.zeros((4, 4))
        )

    def test_zero_at_cosine_node(self):
        cfg = self.cfg.replace(Bl2=0.0)
        t_node = np.pi / (2 * cfg.resonances.omega1)
        h = build_drive(cfg, t_node)
        assert np.max(np.abs(h)) <= 1e-8 * drive_peak_amplitude(cfg)

    def test_amplitude_at_t0(self):
        h = build_drive(self.cfg, 0.0)
        a = -CONSTANTS.muB * 5e-4 / CONSTANTS.hbar
        assert abs(a) == pytest.approx(4.397e7, rel=1e-3)
        # spin-1 coupling enters as a*(sigma_x + sigma_y) on the first factor
        assert h[0, 2] == pytest.approx(a * (1 - 1j), rel=1e-12)
        assert h[0, 1] == pytest.approx(a * (1 - 1j), rel=1e-12)

    def test_total_hamiltonian_hermitian(self):
        h0 = build_static(self.cfg)
        for t in np.linspace(0, 2e-9, 7):
            assert is_hermitian(h0 + build_drive(self.cfg, t))

    def test_each_spin_driven_at_own_resonance(self):
        # Static fields at which the spins resonate at 1e10 and 2e10 rad/s.
        scale = CONSTANTS.gamma * CONSTANTS.muB / CONSTANTS.hbar
        cfg = self.cfg.replace(Bz1=1e10 / scale, Bz2=2e10 / scale, Bg1=0.0, Bg2=0.0)
        assert cfg.resonances.omega1 == pytest.approx(1e10, rel=1e-15)
        assert cfg.resonances.omega2 == pytest.approx(2e10, rel=1e-15)
        t = np.pi / 1e10  # cos(w1 t) = -1, cos(w2 t) = +1
        h = build_drive(cfg, t)
        a = -CONSTANTS.muB * 5e-4 / CONSTANTS.hbar
        assert h[0, 2] == pytest.approx(-a * (1 - 1j), rel=1e-12)
        assert h[0, 1] == pytest.approx(a * (1 - 1j), rel=1e-12)

    def test_resonances_follow_the_config(self):
        cfg = self.cfg
        assert cfg.resonances == resonance_frequencies(cfg.Bz1, cfg.Bg1, cfg.Bz2, cfg.Bg2)
        # Doubling Bz1 moves spin 1's drive frequency and leaves spin 2's.
        moved = cfg.replace(Bz1=2 * cfg.Bz1)
        assert moved.resonances == resonance_frequencies(moved.Bz1, moved.Bg1, moved.Bz2, moved.Bg2)
        assert moved.resonances.omega1 != cfg.resonances.omega1
        assert moved.resonances.omega2 == cfg.resonances.omega2
        t = np.linspace(0.0, 1e-9, 7)
        a = -CONSTANTS.muB * 5e-4 / CONSTANTS.hbar
        drive = np.kron(SIGMA_X + SIGMA_Y, IDENTITY_2), np.kron(IDENTITY_2, SIGMA_X + SIGMA_Y)
        for c in (cfg, moved):
            w = c.resonances
            expected = np.multiply.outer(a * np.cos(w.omega1 * t), drive[0]) + np.multiply.outer(
                a * np.cos(w.omega2 * t), drive[1]
            )
            np.testing.assert_allclose(build_drive(c, t), expected, rtol=0, atol=1e-12 * abs(a))
        assert np.max(np.abs(build_drive(moved, t) - build_drive(cfg, t))) > abs(a)
