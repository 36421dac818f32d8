import numpy as np
import pytest

from buckygate.analysis import concurrence
from buckygate.config import (
    ConfigErrorItem,
    SimulationConfig,
    config_from_mapping,
    default_initial_state,
    format_config,
    parse_key_values,
    validate,
)
from buckygate.errors import ConfigError
from buckygate.fields import resonance_frequencies


def reference_config(**overrides):
    kwargs = dict(
        r=1.14e-9, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5, t_max=1.2e-8
    )
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


class TestDefaultInitialState:
    def test_uniform_amplitudes(self):
        np.testing.assert_array_equal(default_initial_state(), np.full(4, 0.5 + 0j))

    def test_unit_norm(self):
        assert np.linalg.norm(default_initial_state()) == 1.0

    def test_zero_concurrence(self):
        assert concurrence(default_initial_state()) == 0.0


class TestValidate:
    def test_valid_reference_config(self):
        cfg = validate(reference_config())
        assert cfg.r == 1.14e-9
        assert np.isclose(np.linalg.norm(cfg.initial_state), 1.0, atol=1e-12)

    def test_renormalizes_initial_state(self):
        cfg = validate(reference_config(initial_state=np.array([2, 0, 0, 0], dtype=complex)))
        np.testing.assert_allclose(cfg.initial_state, [1, 0, 0, 0], atol=1e-15)

    def test_zero_distance_rejected(self):
        with pytest.raises(ConfigError) as exc:
            validate(reference_config(r=0.0))
        assert any(
            isinstance(v, ConfigErrorItem) and "r must be > 0" in str(v) for v in exc.value.violations
        )

    def test_near_zero_state_rejected(self):
        with pytest.raises(ConfigError) as exc:
            validate(reference_config(initial_state=np.array([1e-8, 0, 0, 0], dtype=complex)))
        assert any(
            isinstance(v, ConfigErrorItem) and "too small to renormalize" in str(v)
            for v in exc.value.violations
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fields, named",
        [
            (dict(Bz1=1e300), "Bz1=1e+300"),
            (dict(Bg2=np.float64(-1e300)), "Bg2=-1e+300"),
            (dict(Bz1=1.5e297, Bz2=1.5e297), "Bz2=1.5e+297"),  # only their sum overflows
        ],
    )
    def test_zeeman_frequencies_beyond_the_floats_rejected(self, fields, named):
        with pytest.raises(ConfigError) as exc:
            validate(reference_config(**fields))
        assert [type(v) for v in exc.value.violations] == [ConfigErrorItem]
        assert named in str(exc.value) and "Zeeman" in str(exc.value)

    def test_largest_zeeman_frequencies_accepted(self):
        # muB * 1e297 T / hbar is about 8.8e307 rad/s, still a float.
        assert validate(reference_config(Bz1=1e297)).Bz1 == 1e297

    def test_all_violations_collected(self):
        with pytest.raises(ConfigError) as exc:
            validate(reference_config(r=-1, t_max=-1, initial_state=np.zeros(4)))
        assert len(exc.value.violations) >= 3

    def test_static_mode_zeroes_drive(self):
        cfg = validate(reference_config(Bl1=5e-4, Bl2=5e-4, mode="static"))
        assert cfg.Bl1 == 0.0 and cfg.Bl2 == 0.0

    def test_driven_mode_keeps_drive(self):
        cfg = validate(reference_config(Bl1=5e-4, Bl2=5e-4, mode="driven"))
        assert cfg.Bl1 == 5e-4

    def test_idempotent(self):
        once = validate(reference_config(initial_state=np.array([2, 0, 0, 0], dtype=complex)))
        twice = validate(once)
        assert once == twice
        np.testing.assert_array_equal(once.initial_state, twice.initial_state)


class TestEquality:
    def test_equal_configs_hash_equal(self):
        # The state compares by its amplitudes, however it is held.
        state = [0.6, 0.2 + 0.5j, -0.3j, 0.4 - 0.3j]
        a = reference_config(mode="driven", Bl1=5e-4, initial_state=np.array(state))
        b = reference_config(mode="driven", Bl1=5e-4, initial_state=np.array(state, dtype=complex))
        c = reference_config(mode="driven", Bl1=5e-4, initial_state=list(state))
        a.resonances  # a kept field compares no differently
        assert a == b == c and not a != b
        assert hash(a) == hash(b) == hash(c)
        assert validate(a) == validate(b) and hash(validate(a)) == hash(validate(b))
        assert len({a, b, c, validate(a), validate(b)}) == 2

    @pytest.mark.parametrize("k", range(4))
    def test_a_changed_amplitude_compares_unequal(self, k):
        cfg = validate(reference_config())
        state = cfg.initial_state.copy()
        state[k] *= 1j
        assert cfg != cfg.replace(initial_state=state)
        assert cfg != cfg.replace(initial_state=state[:3])
        assert cfg != cfg.replace(Bl2=1e-4) and cfg != cfg.replace(mode="driven")
        assert cfg.__eq__(cfg.initial_state) is NotImplemented


class TestResonances:
    @pytest.mark.parametrize("change", [dict(Bz1=0.2), dict(Bg2=-1.2e-4)])
    def test_cached_resonances_follow_their_own_config(self, change):
        # The drive frequencies are computed on a config's first read and kept:
        # a config made from it by replace or validate computes its own.
        cfg = reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4)
        before = cfg.resonances
        moved = cfg.replace(**change)
        for c in (moved, validate(moved), validate(cfg)):
            assert c.resonances == resonance_frequencies(c.Bz1, c.Bg1, c.Bz2, c.Bg2)
        assert moved.resonances != before
        assert validate(cfg).resonances == before == cfg.resonances


class TestConfigFiles:
    def test_round_trip(self):
        cfg = validate(reference_config(mode="driven", Bl1=5e-4, Bl2=5e-4))
        parsed = config_from_mapping(parse_key_values(format_config(cfg)))
        assert parsed.r == cfg.r
        assert parsed.mode == cfg.mode
        assert parsed.Bl1 == cfg.Bl1
        np.testing.assert_array_equal(parsed.initial_state, cfg.initial_state)

    def test_comments_and_blank_lines(self):
        kv = parse_key_values("# comment\n\nr_m=1e-9  # trailing\nBz1_T=0.1\nBz2_T=0.1\n")
        cfg = config_from_mapping(kv)
        assert cfg.r == 1e-9

    def test_repeated_key_rejected(self):
        # Read as its last line, the second r_m would run at 5 nm.
        with pytest.raises(ConfigErrorItem, match="lines 1 and 4: key 'r_m' is set twice"):
            parse_key_values("r_m=1.14e-9\nBz1_T=0.1\nBz2_T=0.1\nr_m = 5e-9  # again\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigErrorItem):
            config_from_mapping({"r_m": "1e-9", "Bz1_T": "0.1", "Bz2_T": "0.1", "bogus": "1"})

    def test_missing_required_keys(self):
        with pytest.raises(ConfigErrorItem):
            config_from_mapping({"r_m": "1e-9"})

    def test_initial_state_needs_eight_reals(self):
        with pytest.raises(ConfigErrorItem):
            config_from_mapping(
                {"r_m": "1e-9", "Bz1_T": "0.1", "Bz2_T": "0.1", "initial_state": "1,0,0"}
            )

    def test_initial_state_parsing(self):
        kv = {
            "r_m": "1e-9",
            "Bz1_T": "0.1",
            "Bz2_T": "0.1",
            "initial_state": "1,0, 0,1, 0.5,-0.5, 0,0",
        }
        cfg = config_from_mapping(kv)
        np.testing.assert_array_equal(
            cfg.initial_state, [1, 1j, 0.5 - 0.5j, 0]
        )
