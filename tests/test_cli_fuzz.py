"""Property test of the command line over generated config files and sweep specs.

Whatever a static config file or a sweep spec holds, ``main`` returns one of
the documented exit codes, a failure writes exactly one stderr line, and no
exception escapes.  Runs are kept short on purpose, because a long valid run
is not a defect: no ``mode=driven`` (and no ``Bl`` sweep, which switches to
it), at most 3 sweep points and no ``--jobs``.  Every defect this test can
reach has its own explicit test in test_cli.py, so these bounds hide none of
them.  pytest captures warnings, so the stderr check sees only what the
package prints; numpy's RuntimeWarnings on extreme inputs (see CHANGES.md)
are outside it.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from buckygate.cli import main
from buckygate.config import CONFIG_KEYS

# Hypothesis caches constants and Unicode tables in its storage directory even
# without an example database, from the moment strategies are built; keep that
# out of the working tree.
HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)

EXIT_CODES = {0, 1, 2, 3}

# A valid static base: the reference point with a horizon that holds tau.
BASE = {
    "r_m": "1.14e-9",
    "Bz1_T": "0.1",
    "Bz2_T": "0.1",
    "Bg1_T": "6.08e-5",
    "Bg2_T": "-6.08e-5",
    "t_max_s": "1.2e-8",
}
WIRES = {"d_m": "1e-6", "rho_m": "1e-6", "x1_m": "5e-7", "x2_m": "-5e-7"}
SWEEP_PARAMS = ("r", "Bz", "Bg1", "Bg2", "I", "J0")  # no Bl: it drives
FORMS = ("values", "range", "logrange")

NUMBER = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(repr)
SHORT_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
MALFORMED = st.one_of(
    st.sampled_from(["", "abc", "1e", "0x10", "--1", "1,2", "nan nan", "1_0", "+-1"]),
    SHORT_TEXT,
)
TOKEN = st.one_of(NUMBER, MALFORMED)
STATE = st.lists(NUMBER, min_size=8, max_size=8).map(",".join)

# The values of up to 3 keys are drawn over the base.  A numeric file holds
# numbers only, so it reaches validation and the physics; any other file may
# also hold malformed text, an unknown key or a stray line, or lack a key.
NUMERIC = {**{key: NUMBER for key in CONFIG_KEYS}, "initial_state": STATE}
ANY = {key: TOKEN for key in CONFIG_KEYS}
ANY["initial_state"] = st.one_of(STATE, st.lists(TOKEN, min_size=7, max_size=9).map(",".join))
ANY["mode"] = st.one_of(st.just("static"), MALFORMED).filter(lambda m: m.strip() != "driven")
ANY["bogus_key"] = TOKEN


@st.composite
def config_lines(draw, numeric):
    values = NUMERIC if numeric else ANY
    kv = dict(BASE)
    if not numeric:
        for key in draw(st.lists(st.sampled_from(sorted(BASE)), max_size=1)):
            del kv[key]
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True)):
        kv[key] = draw(values[key])
    lines = [f"{key}={value}" for key, value in kv.items()]
    return lines if numeric else lines + draw(st.lists(SHORT_TEXT, max_size=1))


@st.composite
def sweep_lines(draw, numeric):
    """A numeric spec sweeps a known parameter over 2 or 3 numbers; any other
    spec may also name no parameter or no values, or hold malformed text."""
    if numeric:
        token, params, forms, counts = NUMBER, SWEEP_PARAMS, FORMS, st.integers(2, 3)
    else:
        token, params, forms = TOKEN, SWEEP_PARAMS + ("bogus",), FORMS + ("none",)
        counts = st.one_of(st.integers(-2, 3), TOKEN)
    lines = draw(config_lines(numeric))
    lines.append(f"param={draw(st.sampled_from(params))}")
    form = draw(st.sampled_from(forms))
    if form == "values":
        points = draw(st.lists(token, min_size=2 if numeric else 0, max_size=3))
        lines.append("values=" + ",".join(points))
    elif form != "none":
        lines.append(f"{form}={draw(token)},{draw(token)},{draw(counts)}")
    for key in draw(st.sets(st.sampled_from(sorted(WIRES)))):
        lines.append(f"{key}={draw(st.one_of(st.just(WIRES[key]), token))}")
    return lines


def check_main(tmp_path, capsys, argv_head, lines):
    path = tmp_path / "input.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main([*argv_head, str(path)])
    err = capsys.readouterr().err
    assert code in EXIT_CODES
    if code != 0:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# Fixed examples and no example database keep the test deterministic.
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=250,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.mark.filterwarnings("ignore")
@FUZZ
@given(lines=st.booleans().flatmap(config_lines))
def test_config_file_ends_in_an_exit_code(lines, tmp_path, capsys):
    check_main(tmp_path, capsys, ["gate-time"], lines)


@pytest.mark.filterwarnings("ignore")
@FUZZ
@given(lines=st.booleans().flatmap(sweep_lines))
def test_sweep_spec_ends_in_an_exit_code(lines, tmp_path, capsys):
    check_main(tmp_path, capsys, ["sweep", "--output", str(tmp_path / "sweep.csv")], lines)
