import numpy as np
import pytest

from buckygate.errors import ConfigErrorItem, SingularPosition
from buckygate.fields import (
    ResonancePair,
    WirePair,
    gradient_field,
    resonance_frequencies,
)

REFERENCE_WIRES = dict(current=0.6, separation=1e-6, radius=1e-6)


def test_midpoint_field_is_zero():
    assert gradient_field(WirePair(**REFERENCE_WIRES), 0.0) == 0.0


def test_antisymmetry():
    wires = WirePair(**REFERENCE_WIRES)
    a = wires.half_span
    xs = np.linspace(-0.9 * a, 0.9 * a, 101)
    b_plus = gradient_field(wires, xs)
    b_minus = gradient_field(wires, -xs)
    np.testing.assert_allclose(b_plus + b_minus, 0.0, atol=1e-20)


def test_profile_monotone_between_wires():
    # Positive current: field falls monotonically from +inf near the left
    # wire to -inf near the right wire, crossing zero at the midpoint.
    wires = WirePair(**REFERENCE_WIRES)
    a = wires.half_span
    xs = np.linspace(-0.99 * a, 0.99 * a, 400)
    b = gradient_field(wires, xs)
    assert np.all(np.diff(b) < 0)
    assert b[0] > 0 > b[-1]


def test_singular_positions_rejected():
    wires = WirePair(**REFERENCE_WIRES)
    with pytest.raises(SingularPosition):
        gradient_field(wires, wires.half_span)
    with pytest.raises(SingularPosition):
        gradient_field(wires, np.array([0.0, -wires.half_span]))


def test_current_window_warns_but_accepts():
    with pytest.warns(UserWarning):
        WirePair(current=0.05, separation=1e-6, radius=1e-6)
    with pytest.warns(UserWarning):
        WirePair(current=1.5, separation=1e-6, radius=1e-6)


def test_degenerate_wires_rejected():
    with pytest.raises(ConfigErrorItem):
        WirePair(current=0.0, separation=1e-6, radius=1e-6)
    with pytest.raises(ConfigErrorItem):
        WirePair(current=0.6, separation=-1e-6, radius=1e-6)
    with pytest.raises(ConfigErrorItem):
        WirePair(current=0.6, separation=1e-6, radius=0.0)


@pytest.mark.filterwarnings("error")  # refused before the current-window warning
@pytest.mark.parametrize("field", ["current", "separation", "radius"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_wires_rejected(field, value):
    with pytest.raises(ConfigErrorItem, match=f"wire {field} must be finite, got {value}"):
        WirePair(**{**REFERENCE_WIRES, field: value})


class TestResonanceFrequencies:
    def test_reference_values(self):
        # omega_i = 2 muB (Bz_i + Bg_i) / hbar for g-factor 2
        res = resonance_frequencies(0.1, 6.08e-5, 0.1, -6.08e-5)
        assert abs(res.omega1 - 1.7599e10) / 1.7599e10 <= 1e-3
        assert abs(res.omega2 - 1.7577e10) / 1.7577e10 <= 1e-3

    def test_zero_field_degenerate(self):
        res = resonance_frequencies(0.0, 0.0, 0.0, 0.0)
        assert res == ResonancePair(0.0, 0.0)

    def test_linear_in_field(self):
        one = resonance_frequencies(0.05, 1e-5, 0.02, 0.0)
        two = resonance_frequencies(0.10, 2e-5, 0.04, 0.0)
        assert np.isclose(two.omega1, 2 * one.omega1, rtol=1e-14)
        assert np.isclose(two.omega2, 2 * one.omega2, rtol=1e-14)

    def test_addressability(self):
        res = resonance_frequencies(0.1, 6.08e-5, 0.1, -6.08e-5)
        assert res.omega1 != res.omega2
