"""Simulation configuration: the validated parameter set shared by all modules.

State vectors are plain length-4 complex numpy arrays with amplitudes ordered
as the computational basis {|00>, |01>, |10>, |11>}.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConfigErrorItem
from .fields import ResonancePair, resonance_frequencies
from .hamiltonian import dipole_coupling, zeeman_terms

MODES = ("static", "driven")

# Below this squared-norm threshold an initial state cannot be meaningfully
# renormalized and is rejected instead.
RENORMALIZABLE_TOL = 1e-6


def default_initial_state() -> np.ndarray:
    """Uniform product state (|0>+|1>)(x)(|0>+|1>)/2: all amplitudes 1/2.

    It is a product state (zero concurrence) and excites all four basis
    phases, so the composite gate phase is well defined from t=0.
    """
    return np.full(4, 0.5, dtype=complex)


@dataclass(frozen=True)
class SimulationConfig:
    """All physical parameters of a run.

    Distances in metres, fields in tesla, J0 in rad/s, times in seconds.
    There are no numerical controls: the engine picks every step from the
    spectral scale of the Hamiltonian.  Configs compare and hash by their
    fields, the initial state by its amplitudes.
    """

    r: float
    Bz1: float
    Bz2: float
    Bg1: float = 0.0
    Bg2: float = 0.0
    Bl1: float = 0.0
    Bl2: float = 0.0
    J0: float = 0.0
    initial_state: np.ndarray = field(default_factory=default_initial_state, compare=False)
    t_max: float = 2e-8
    mode: str = "static"
    T2: float = 20e-6
    _resonances: ResonancePair | None = field(default=None, init=False, repr=False, compare=False)

    def replace(self, **changes) -> "SimulationConfig":
        return dataclasses.replace(self, **changes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        """The compared fields, the initial state as its shape and its
        amplitudes in Python numbers, which compare and hash by value."""
        state = np.asarray(self.initial_state)
        fields = (getattr(self, f.name) for f in dataclasses.fields(self) if f.compare)
        return (*fields, state.shape, tuple(state.ravel().tolist()))

    @property
    def resonances(self) -> ResonancePair:
        """The drive frequencies, each spin's resonance in its static field,
        computed on a config's first read and kept in a field: a
        functools.cached_property's __dict__ makes every later field read
        about 5 times slower on Python 3.11."""
        if self._resonances is None:
            object.__setattr__(self, "_resonances", resonance_frequencies(self.Bz1, self.Bg1, self.Bz2, self.Bg2))
        return self._resonances


def validate(config: SimulationConfig) -> SimulationConfig:
    """Return a normalized copy of ``config`` or raise ConfigError.

    Normalization makes every float field a Python float, renormalizes the
    initial state and zeroes the drive amplitudes in static mode.  NaN and
    infinity are rejected in every float field and amplitude, and in g(r)
    and the Zeeman frequencies of the static fields, which are Python
    floats: they overflow to inf or 0 with no warning.  Every violated
    invariant is collected before raising, so the error lists all of them.
    Idempotent.
    """
    violations, values = [], {}
    for name in CONFIG_KEYS.values():  # every float field
        value = getattr(config, name)
        if not math.isfinite(value):
            violations.append(ConfigErrorItem(f"{name} must be finite, got {value}"))
        values[name] = float(value)
    if config.r <= 0:
        violations.append(ConfigErrorItem(f"r must be > 0, got {config.r}"))
    elif config.r < math.inf:
        g = dipole_coupling(config.r)
        if not 0 < g < math.inf:
            violations.append(
                ConfigErrorItem(f"r={config.r} gives g(r)={g}, not a finite positive float")
            )
    m1, m2 = zeeman_terms(config)
    fields = ("Bz1", "Bg1", "Bz2", "Bg2")
    if not (math.isfinite(m1) and math.isfinite(m2)) and all(
        math.isfinite(values[name]) for name in fields
    ):
        listed = ", ".join(f"{name}={getattr(config, name)}" for name in fields)
        violations.append(
            ConfigErrorItem(
                f"{listed} give the Zeeman frequencies m1={m1}, m2={m2} rad/s, not finite floats"
            )
        )
    # A subnormal horizon cannot hold a strictly increasing sample grid.
    if config.t_max < sys.float_info.min:
        violations.append(
            ConfigErrorItem(f"t_max must be >= {sys.float_info.min} s, got {config.t_max}")
        )
    if config.T2 <= 0:
        violations.append(ConfigErrorItem(f"T2 must be > 0, got {config.T2}"))
    if config.mode not in MODES:
        violations.append(ConfigErrorItem(f"mode must be one of {MODES}, got {config.mode!r}"))

    psi = np.asarray(config.initial_state, dtype=complex)
    amplitudes = psi.tolist()
    if psi.shape != (4,):
        violations.append(ConfigErrorItem(f"initial_state must have 4 amplitudes, got shape {psi.shape}"))
        psi = default_initial_state()
    elif not all(map(cmath.isfinite, amplitudes)):
        for k, c in enumerate(amplitudes):
            if not cmath.isfinite(c):
                violations.append(
                    ConfigErrorItem(f"initial_state amplitude c{k + 1} must be finite, got {psi[k]}")
                )
    else:
        # Python's sum of the |c|^2 cannot overflow unseen; with a margin of
        # 16 for the order of summation, np.linalg.norm's does not either.
        if not sum(c.real * c.real + c.imag * c.imag for c in amplitudes) < 2.0**1020:
            psi = psi / np.abs(psi).max()  # scale by the largest |c| first
        nrm = np.linalg.norm(psi)
        if nrm < RENORMALIZABLE_TOL:
            violations.append(
                ConfigErrorItem(f"initial_state norm {nrm:.3e} too small to renormalize")
            )
        else:
            psi = psi / nrm

    if violations:
        raise ConfigError(violations)
    if config.mode == "static":
        values["Bl1"] = values["Bl2"] = 0.0
    return SimulationConfig(initial_state=psi, mode=config.mode, **values)


# --- plain-text config files -------------------------------------------------
#
# One `key=value` per line, `#` starts a comment.  The initial state is eight
# comma-separated reals interpreted as re,im pairs for c1..c4.

CONFIG_KEYS = {
    "r_m": "r",
    "Bz1_T": "Bz1",
    "Bz2_T": "Bz2",
    "Bg1_T": "Bg1",
    "Bg2_T": "Bg2",
    "Bl1_T": "Bl1",
    "Bl2_T": "Bl2",
    "J0_rad_s": "J0",
    "t_max_s": "t_max",
    "T2_s": "T2",
}


def parse_key_values(text: str) -> dict:
    """Parse `key=value` lines with `#` comments into a string dict; a key
    may appear on one line only."""
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigErrorItem(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ConfigErrorItem(f"lines {lines[key]} and {lineno}: key {key!r} is set twice")
        out[key], lines[key] = value, lineno
    return out


def parse_initial_state(value: str) -> np.ndarray:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 8:
        raise ConfigErrorItem(
            f"initial_state needs 8 comma-separated reals (re,im quadruples), got {len(parts)}"
        )
    reals = [float(p) for p in parts]
    return np.array(
        [complex(reals[2 * i], reals[2 * i + 1]) for i in range(4)], dtype=complex
    )


def config_from_mapping(kv: dict) -> SimulationConfig:
    kwargs = {}
    for file_key, value in kv.items():
        if file_key in CONFIG_KEYS:
            kwargs[CONFIG_KEYS[file_key]] = float(value)
        elif file_key == "mode":
            kwargs["mode"] = value
        elif file_key == "initial_state":
            kwargs["initial_state"] = parse_initial_state(value)
        else:
            raise ConfigErrorItem(f"unknown config key {file_key!r}")
    missing = [k for k in ("r", "Bz1", "Bz2") if k not in kwargs]
    if missing:
        raise ConfigErrorItem(f"missing required config keys: {missing}")
    return SimulationConfig(**kwargs)


def read_key_values(path, parse):
    """Return ``parse(mapping)`` for the UTF-8 `key=value` file at ``path``.

    This is where input files meet the package: a ValueError raised while
    decoding or parsing the file (bad UTF-8, a non-number, a range numpy
    rejects) is the file's fault and becomes a ConfigErrorItem naming it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(parse_key_values(fh.read()))
    except ValueError as exc:
        raise ConfigErrorItem(f"{path}: {exc}") from exc


def load_config(path) -> SimulationConfig:
    return read_key_values(path, config_from_mapping)


def format_config(config: SimulationConfig) -> str:
    """Serialize a config back to the key=value file format."""
    lines = []
    for file_key, attr in CONFIG_KEYS.items():
        lines.append(f"{file_key}={float(getattr(config, attr))!r}")
    lines.append(f"mode={config.mode}")
    psi = np.asarray(config.initial_state, dtype=complex)
    flat = ",".join(f"{float(v)!r}" for c in psi for v in (c.real, c.imag))
    lines.append(f"initial_state={flat}")
    return "\n".join(lines) + "\n"
