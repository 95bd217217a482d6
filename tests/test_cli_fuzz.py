"""Every argv the CLI accepts ends in one of two ways.

Either the command exits 0 with a complete, parseable file of finite numbers,
or it exits 1 with one `error:` line (2 with one usage `Error:` line), and no
exception or warning escapes. Hypothesis draws each option from typical values,
and up to two options at a time from the float boundaries 0, +/-subnormal,
+/-1e308, nan and +/-inf (counts and Z from 0, -1 and a huge value).
"""

import json
import math
import warnings

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bohmatom import make_atom
from bohmatom.cli import main

FLOATS = ["0", "5e-324", "-5e-324", "1e308", "-1e308", "nan", "inf", "-inf"]
COUNTS = ["0", "-1"]

# (flag, typical values with None for the default, boundary values)
ATOM = [
    ("--Z", [None, "1", "2", "92", "137"], ["0", "-1", "1000000"]),
    ("--alpha-scale", [None, "0.5", "1e-3"], FLOATS),
    ("--mass", [None, "207.0", "1e-3"], FLOATS),
]
POINT = [
    ("--r", [None, "1.0", "1e4"], FLOATS),
    ("--theta", [None, "1.0", "3.141592653589793"], FLOATS),
    ("--phi", [None, "2.0", "6.283185307179586"], FLOATS),
]
FORMAT = [("--format", [None, "json"], [])]
FIELD = ATOM + FORMAT + [
    ("--r-min", [None, "1.0", "100.0"], FLOATS),
    ("--r-max", [None, "500.0", "1e4"], FLOATS),
    ("--r-count", ["1", "3"], COUNTS),
    ("--theta-count", ["1", "3"], COUNTS),
    ("--phi-count", ["1", "2"], COUNTS),
]
TRAJECTORY = ATOM + POINT + FORMAT + [("--dt", [None, "1e3"], FLOATS), ("--steps", ["0", "1", "3"], ["-1"])]
STATE = ATOM + POINT
DILATE = ATOM + [("--rest-lifetime", ["2.196981e-6"], FLOATS)]
MODELS = [
    [], ["--model", "dirac", "--spin", "down"], ["--model", "schrodinger"],
    ["--model", "schrodinger", "--n", "2", "--l", "1", "--m", "1"],
    ["--model", "schrodinger", "--n", "3", "--l", "2", "--m", "-1"],
    ["--model", "schrodinger", "--n", "1", "--l", "1"],
]


@st.composite
def argv(draw, specs, models=MODELS):
    """Typical values for every option but at most two, which take boundary values."""
    extreme = draw(st.sets(st.sampled_from([i for i, spec in enumerate(specs) if spec[2]]), max_size=2))
    tokens = list(draw(st.sampled_from(models)))
    for i, (flag, typical, boundary) in enumerate(specs):
        value = draw(st.sampled_from(boundary if i in extreme else typical))
        if value is not None:
            tokens += [flag, value]
    return tokens


def reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def finite_json(text):
    return json.loads(text, parse_constant=reject_constant)


def finite_csv(text):
    lines = text.split("\n")
    assert lines[0].startswith("# bohmatom ") and lines[-1] == ""
    width = len(lines[1].split(","))
    rows = [[float(tok) for tok in line.split(",")] for line in lines[2:-1]]
    assert all(len(row) == width and all(math.isfinite(v) for v in row) for row in rows)
    return rows


def check(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning from any module becomes the escaping exception
        result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output and "Warning" not in result.output, result.output
    if result.exit_code == 0:
        assert result.stderr == "", result.stderr
        return result
    assert result.exit_code in (1, 2), result.output
    lines = result.stderr.splitlines()
    marker = "error: " if result.exit_code == 1 else "Error: "
    assert sum(line.startswith(marker) for line in lines) == 1, result.stderr
    if result.exit_code == 1:
        assert len(lines) == 1, result.stderr
    return result


FUZZ = settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(args=argv(FIELD))
def test_field(tmp_path, args):
    out = tmp_path / "field.out"
    out.unlink(missing_ok=True)
    result = check(["field", *args, "--out", str(out)])
    if result.exit_code != 0:
        assert not out.exists()
        return
    text = out.read_text(encoding="utf-8")
    if "json" in args:
        doc = finite_json(text)
        rows = doc["rows"]
    else:
        rows = finite_csv(text)
    counts = {"--r-count": 5, "--theta-count": 7, "--phi-count": 8}  # the defaults
    for flag in counts:
        if flag in args:
            counts[flag] = int(args[args.index(flag) + 1])
    assert len(rows) == math.prod(counts.values())


@FUZZ
@given(args=argv(TRAJECTORY))
def test_trajectory(tmp_path, args):
    out = tmp_path / "orbit.out"
    summary_path = tmp_path / "orbit.out.summary.json"
    out.unlink(missing_ok=True)
    summary_path.unlink(missing_ok=True)
    result = check(["trajectory", *args, "--out", str(out)])
    if not out.exists():
        assert result.exit_code != 0
        return
    assert result.exit_code == 0 or "guard radius" in result.stderr  # a partial trajectory is written
    text = out.read_text(encoding="utf-8")
    if "json" in args:
        doc = finite_json(text)
        rows, summary = doc["rows"], doc["summary"]
    else:
        rows, summary = finite_csv(text), finite_json(summary_path.read_text(encoding="utf-8"))
    assert len(rows) == summary["steps_completed"] + 1 or (summary["aborted"] and not rows)


@FUZZ
@given(args=argv(STATE))
def test_state(args):
    result = check(["state", *args])
    if result.exit_code == 0:
        finite_json(result.stdout)


@FUZZ
@given(args=argv(DILATE, models=[[], ["--spin", "down"]]))
def test_dilate(tmp_path, args):
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    result = check(["dilate", *args, "--out", str(out)])
    if result.exit_code == 0:
        finite_json(out.read_text(encoding="utf-8"))
    else:
        assert not out.exists()


@pytest.mark.parametrize(
    "args, exit_code",
    [
        # A(r)'s prefactor c^1.5 overflowed with a traceback; A(r) itself exceeds the float range here.
        (["state", "--mass", "1e300"], 1),
        (["field", "--mass", "1e300"], 1),
        # Squaring the guard radius (about 1e296) overflowed with a traceback.
        (["trajectory", "--mass", "1e-300", "--steps", "5"], 0),
        # x*x + y*y + z*z underflowed to 0 and divided by zero.
        (["trajectory", "--mass", "1e300", "--steps", "2"], 0),
        # The Bohr radius 1/(mass*Z*alpha) divided by zero.
        (["state", "--mass", "5e-324"], 2),
        # m/(r sin theta) overflowed to a NaN speed.
        (["state", "--model", "schrodinger", "--n", "2", "--l", "1", "--m", "1", "--r", "0.01", "--theta", "1e-320"], 1),
        # P_l^m overflowed where its norm underflowed, and nan was written.
        (["field", "--model", "schrodinger", "--n", "200", "--l", "199", "--m", "199",
          "--r-count", "1", "--theta-count", "3", "--phi-count", "1"], 1),
        # The end time dt * steps overflows.
        (["trajectory", "--dt", "1e308", "--steps", "3"], 1),
        # numpy refuses these sizes outright.
        (["trajectory", "--steps", str(10**20)], 1),
        (["field", "--r-count", str(10**20)], 1),
        (["field", "--r-min", "nan"], 2),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_out_of_range_reproducers(tmp_path, args, exit_code):
    out = [] if args[0] == "state" else ["--out", str(tmp_path / "x.out")]
    result = check(args + out)
    assert result.exit_code == exit_code, result.output
    if exit_code:
        assert not (tmp_path / "x.out").exists()
    elif out:
        finite_csv((tmp_path / "x.out").read_text(encoding="utf-8"))


def test_far_dirac_trajectory_agrees_with_state(tmp_path):
    # At r = 1e200 the flow's sum of squares overflowed, and every velocity was written as 0.
    out = tmp_path / "far.csv"
    assert check(["trajectory", "--r", "1e200", "--steps", "2", "--out", str(out)]).exit_code == 0
    rows = finite_csv(out.read_text(encoding="utf-8"))
    summary = finite_json((tmp_path / "far.csv.summary.json").read_text(encoding="utf-8"))
    speed = finite_json(check(["state", "--r", "1e200"]).stdout)["speed"]
    za = make_atom().za
    assert speed == za
    assert [math.hypot(*row[4:7]) for row in rows] == pytest.approx([za] * 3, rel=1e-15)
    assert summary["period"] == pytest.approx(2.0 * math.pi * 1e200 / za, rel=1e-15)
    assert summary["max_deviation"] <= 1e-8 * 1e200


SCHRODINGER_211 = ["--model", "schrodinger", "--n", "2", "--l", "1", "--m", "1"]


def test_far_schrodinger_speed_keeps_an_underflowing_velocity():
    # The velocity is about 1.19e-200 here; its sum of squares underflowed, and the speed read 0.
    doc = finite_json(check(["state", *SCHRODINGER_211, "--r", "1e200", "--theta", "1.0"]).stdout)
    assert doc["velocity"][1] > 0.0
    assert doc["speed"] == math.hypot(*doc["velocity"])


def test_far_schrodinger_deviation_keeps_an_underflowing_offset(tmp_path):
    # The position drifts about 1.19e-200 off the reference per step; the deviation read 0.
    out = tmp_path / "far.csv"
    args = ["trajectory", *SCHRODINGER_211, "--r", "1e200", "--theta", "1", "--steps", "2", "--out", str(out)]
    assert check(args).exit_code == 0
    rows = finite_csv(out.read_text(encoding="utf-8"))
    assert rows[-1][10] > 0.0
    for row in rows:
        assert row[10] == math.hypot(*(a - b for a, b in zip(row[1:4], row[7:10])))


def test_schrodinger_trajectory_runs_where_rho_leaves_the_float_range(tmp_path):
    # rho = 2r/(n a0) overflows at r = 1e308; the node test ended the run naming its argument x.
    out = tmp_path / "far.csv"
    args = ["trajectory", *SCHRODINGER_211, "--r", "1e308", "--theta", "1", "--steps", "1", "--out", str(out)]
    assert check(args).exit_code == 0
    assert len(finite_csv(out.read_text(encoding="utf-8"))) == 2


@pytest.mark.parametrize(
    "command, radius",
    [("state", ["--r", "1e308"]), ("field", ["--r-min", "1e307", "--r-max", "1e308", "--r-count", "2"])],
    ids=("state", "field"),
)
def test_a_radial_factor_where_rho_leaves_the_float_range_names_the_radius(tmp_path, command, radius):
    # R_nl at rho = inf is inf * 0; the error named the Laguerre argument x instead of the radius.
    out = [] if command == "state" else ["--out", str(tmp_path / "far.out")]
    result = check([command, *SCHRODINGER_211, *radius, *out])
    assert result.exit_code == 1
    assert result.stderr == "error: R_nl(r) leaves the float range at r = 1e+308: a factor overflows\n"


@pytest.mark.parametrize(
    "state, point, phase",
    [
        # psi's imaginary part is -3.3e-21 here (sin(pi) is not exactly 0), and atan2 gave -pi.
        (["--n", "2", "--l", "1", "--m", "-1"], ["--phi", "3.141592653589793"], "3.141592653589793"),
        # psi's imaginary part is -0.0 here, and atan2 gave -0.0.
        (["--n", "3", "--l", "1", "--m", "0"], ["--r", "1644", "--theta", "2.5"], "0.0"),
    ],
    ids=("minus-pi", "signed-zero"),
)
def test_state_phase_stays_in_its_range(state, point, phase):
    text = check(["state", "--model", "schrodinger", *state, *point]).stdout
    assert f'"phase": {phase},' in text
    assert finite_json(text)["psi"][1] <= 0.0
