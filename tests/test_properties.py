"""Property tests over random atoms, states and points.

The node test at a point must equal the grid's node flags, the Dirac current
must be physical (j0 >= 0, timelike up to rounding, |v| < 1), the two spins
must be mirror images, and the field command's CSV text must parse back to
exactly the values the library computes. The table writer must produce the
same bytes as the row-wise repr join and json.dumps(indent=2) it replaces,
from lists, float arrays and memoryviews alike, the JSON writer the bytes of
json.dumps(indent=2) for any document, and the trajectory command's
float reference circle and deviation must equal their numpy formulas.
"""

import json
import math
import os
import tempfile
from array import array
from functools import partial
from types import SimpleNamespace

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmatom import (
    FINE_STRUCTURE,
    PhaseSingularityError,
    QuantumNumbers,
    DiracGroundState,
    SchrodingerEigenstate,
    SphericalPoint,
    SpinOrientation,
    bohm_momentum,
    bohm_velocity,
    four_current_at,
    make_atom,
)
from bohmatom import cli, writer
from bohmatom.cli import main
from bohmatom.dirac_states import azimuthal_speed
from bohmatom.schrodinger_states import is_node, radial_axis
from bohmatom.special_functions import assoc_legendre
from oracles import circular_orbit_xyz, vector_norm, vector_to_cartesian

UP, DOWN = SpinOrientation.UP, SpinOrientation.DOWN

atoms = st.builds(
    lambda z, scale, mass: make_atom(z, FINE_STRUCTURE * scale, mass),
    st.integers(1, 137),
    st.floats(1e-3, 1.0),
    st.floats(0.1, 10.0),
)
spins = st.sampled_from([UP, DOWN])
quantum_numbers = st.integers(1, 6).flatmap(
    lambda n: st.integers(0, n - 1).flatmap(
        lambda l: st.integers(-l, l).map(lambda m: QuantumNumbers(n, l, m))
    )
)
# Radii in Bohr radii; angles span the closed theta range, the axis included.
points = st.lists(
    st.tuples(st.floats(0.01, 60.0), st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
    min_size=1,
    max_size=12,
)


def batch(atom, raw):
    """The sampled points, radii scaled by the Bohr radius."""
    a0 = atom.bohr_radius
    return [SphericalPoint(r * a0, theta, phi) for r, theta, phi in raw]


def same(a, b) -> bool:
    """Bit-for-bit equality, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    atom=atoms,
    q=quantum_numbers,
    raw=st.lists(
        st.tuples(
            # r in units of n a0; 1 and 2 put rho = 2r/(n a0) exactly at 2 and 4, the radial nodes
            # of (2, 0, 0) and (3, 1, m); cos theta = 0 is a node wherever l - |m| is odd.
            st.floats(0.01, 60.0) | st.sampled_from([1.0, 2.0]),
            st.floats(-1.0, 1.0) | st.sampled_from([0.0]),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_float_node_test_equals_the_array_path(atom, q, raw):
    """is_node at each point gives, as a bool, the grid's node flags there: the radial flag of
    schrodinger_states.radial_axis over all the radii (the Laguerre recurrence once per distinct
    rho), or a zero of P_l^|m| / sin^|m|."""
    a0 = atom.bohr_radius
    r = [f * (q.n * a0) for f, _ in raw]
    cos_theta = [c for _, c in raw]
    _, radial_nodes = radial_axis(q, atom, r)
    for x, c, radial_node in zip(r, cos_theta, radial_nodes):
        node = is_node(q, atom, x, c)
        assert type(node) is bool and node == (radial_node or assoc_legendre(q.l, abs(q.m), c, 1.0) == 0.0)
    # Exact nodes: the equator of (3, 2, +/-1), and rho = 4 for (3, 1, 1), a radial one.
    for node_q, node_r, node_cos, radial in ((QuantumNumbers(3, 2, 1), a0, 0.0, False),
                                             (QuantumNumbers(3, 2, -1), a0, 0.0, False),
                                             (QuantumNumbers(3, 1, 1), 2.0 * (3 * a0), 0.5, True)):
        assert is_node(node_q, atom, node_r, node_cos) is True
        assert radial_axis(node_q, atom, [node_r])[1] == [radial]


@settings(max_examples=150, deadline=None)
@given(
    atom=atoms,
    q=quantum_numbers.filter(lambda q: q.m != 0),
    raw=st.lists(
        st.tuples(
            st.floats(0.01, 60.0),
            st.floats(1e-3, math.pi - 1e-3) | st.sampled_from([0.0, math.pi]),
            st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_cartesian_schrodinger_field_matches_bohm_momentum(atom, q, raw):
    """The trajectory field evaluates bohm_momentum / mass in Cartesian form."""
    field = SchrodingerEigenstate(q, atom).velocity_field()
    for p in batch(atom, raw):
        if p.theta in (0.0, math.pi):
            with pytest.raises(PhaseSingularityError):
                field(*p.xyz())
            continue
        try:
            want = vector_to_cartesian(p, np.array(bohm_momentum(q, atom, p)) / atom.mass)
        except PhaseSingularityError:  # a node: rounded coordinates may miss it on the other side
            continue
        np.testing.assert_allclose(field(*p.xyz()), want, rtol=0.0, atol=1e-13 * np.linalg.norm(want))


@settings(max_examples=150, deadline=None)
@given(atom=atoms, raw=points)
def test_dirac_current_is_physical_and_the_spins_mirror(atom, raw):
    singles = batch(atom, raw)
    up = np.array([four_current_at(UP, atom, p) for p in singles])
    down = np.array([four_current_at(DOWN, atom, p) for p in singles])
    for current in (up, down):
        j0, j1, j2, j3 = current.T
        assert np.all(j0 >= 0.0)
        assert np.all(j0 * j0 - (j1 * j1 + j2 * j2 + j3 * j3) >= -1e-15 * j0**2)
        assert np.all(j3 == 0.0)
    np.testing.assert_allclose(down[:, 0], up[:, 0], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(down[:, 1:], -up[:, 1:], rtol=1e-13, atol=0.0)
    v_up = np.array([bohm_velocity(UP, atom, p) for p in singles])
    v_down = np.array([bohm_velocity(DOWN, atom, p) for p in singles])
    np.testing.assert_array_equal(v_down, -v_up)
    assert np.all(np.linalg.norm(v_up, axis=1) < 1.0)
    # Where j0 is representable the closed-form velocity is the ratio j / j0.
    positive = up[:, 0] > 0.0
    ratio = up[positive, 1:] / up[positive, :1]
    assert np.all(np.abs(ratio - v_up[positive]) <= 4e-15 * atom.za)


@settings(max_examples=25, deadline=None)
@given(
    z=st.integers(1, 137),
    scale=st.floats(1e-3, 1.0),
    mass=st.floats(0.1, 10.0),
    spin=st.sampled_from(["up", "down"]),
    counts=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
)
def test_field_csv_round_trips_exactly(tmp_path_factory, z, scale, mass, spin, counts):
    out = tmp_path_factory.mktemp("field") / "field.csv"
    args = ["field", "--spin", spin, "--Z", str(z), "--alpha-scale", repr(scale), "--mass", repr(mass),
            "--r-count", str(counts[0]), "--theta-count", str(counts[1]), "--phi-count", str(counts[2]),
            "--out", str(out)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    lines = out.read_text(encoding="utf-8").splitlines()[2:]
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines])
    assert rows.shape == (counts[0] * counts[1] * counts[2], 11)
    atom = make_atom(z, FINE_STRUCTURE * scale, mass)
    singles = [SphericalPoint(*row) for row in rows[:, :3].tolist()]
    spin_o = SpinOrientation(spin)
    current = np.array([four_current_at(spin_o, atom, p) for p in singles])
    velocity = np.array([bohm_velocity(spin_o, atom, p) for p in singles])
    assert same(rows[:, 3], current[:, 0])
    assert same(rows[:, 4:7], current[:, 1:])
    assert same(rows[:, 7:10], velocity)
    # The speed is the absolute azimuthal rate, the same at every phi.
    assert same(rows[:, 10], np.abs([azimuthal_speed(spin_o, atom, p.theta) for p in singles]))


B = writer._BLOCK_ROWS
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1.5e-320, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1, -1e16, 123456789.0]
# A few distinct values per table, so cells repeat within a block and across block boundaries.
value_pools = st.lists(
    st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=6
)


def pooled_table(pool, seed, n_rows, n_cols):
    """An (n_rows, n_cols) table drawn from the pool, with -0.0 beside 0.0 and a row repeated across the first block edge."""
    table = np.asarray(pool)[np.random.default_rng(seed).integers(len(pool), size=(n_rows, n_cols))]
    if n_rows >= 2:
        table[:2, 0] = -0.0, 0.0
    if n_rows > B:
        table[B] = table[B - 1]
    return table


def reference_csv(comment, columns, table):
    lines = [f"# bohmatom {comment}", ",".join(columns)]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    return "\n".join(lines + [""])


def document(columns, rows):
    return {"command": "trajectory", "columns": columns, "rows": rows, "summary": {"period": None, "dt": 0.5}}


def file_text(parts):
    """The text cli._write_files writes for the parts, read back from a file in a new directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table")
        cli._write_files(path, {path: parts})
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


@pytest.mark.parametrize("n_rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
@settings(max_examples=20, deadline=None)
@given(pool=value_pools, seed=st.integers(0, 2**32 - 1), n_cols=st.integers(1, 4))
def test_table_writer_equals_the_reference_serializers(n_rows, pool, seed, n_cols):
    table = pooled_table(pool, seed, n_rows, n_cols)
    data = as_columns(table, ["array"] * n_cols)
    # Compared line by line: equal lists are equal texts, and a mismatch reports its first line quickly.
    csv_text = file_text(cli._csv_text("table", data))
    assert csv_text.split("\n") == reference_csv("table", data.names, table).split("\n")
    expected = json.dumps(document(data.names, table.tolist()), indent=2) + "\n"
    assert file_text(cli._json_text(document(data.names, data))).split("\n") == expected.split("\n")


def as_columns(table, kinds):
    """The table as writer.Rows takes it, in blocks of B rows, its fill doing nothing: its columns, one value
    per row, each as the kind drawn for it, a list, array('d') or a memoryview of floats, named c0, c1, ..."""
    make = {"list": lambda c: c.tolist(), "array": lambda c: array("d", c.tolist()),
            "memoryview": lambda c: memoryview(c.copy())}
    columns = [make[kind](column) for column, kind in zip(table.T, kinds)]
    names = [f"c{k}" for k in range(len(columns))]
    return SimpleNamespace(
        names=names, rows=len(table), piece_rows=B, columns=columns, spans=(1,) * len(columns), fill=lambda i: None
    )


@pytest.mark.parametrize("n_rows", [0, 1, B - 1, B, B + 1])
@settings(max_examples=20, deadline=None)
@given(
    pool=value_pools,
    seed=st.integers(0, 2**32 - 1),
    n_cols=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(["list", "array", "memoryview"]), min_size=5, max_size=5),
)
def test_both_dedup_forms_write_the_same_text(n_rows, pool, seed, n_cols, kinds):
    # A last column cycles through every float edge: signed zeros side by side, subnormals and +/-max.
    table = np.column_stack([pooled_table(pool, seed, n_rows, n_cols), np.resize(FLOAT_EDGES, n_rows)])
    # Compared line by line with the row-wise repr join, as above.
    for columns in (as_columns(table, kinds), as_columns(table, ["array"] * 5)):
        for cell_sep, row_sep in [(",", "\n"), (",\n      ", "\n    ],\n    [\n      ")]:
            text = file_text([writer.Rows(columns, cell_sep, row_sep)])
            assert text.split("\n") == row_sep.join(cell_sep.join(map(repr, row)) for row in table.tolist()).split("\n")


@pytest.mark.parametrize("form", ["csv", "json", "buffers"])
@settings(max_examples=20, deadline=None)
@given(
    pool=value_pools,
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.sampled_from([1, B, B + 1]),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    where=st.floats(0.0, 1.0, exclude_max=True),
)
def test_table_writer_rejects_a_non_finite_cell(form, pool, seed, n_rows, bad, where):
    table = pooled_table(pool, seed, n_rows, 3)
    table.flat[int(where * table.size)] = bad

    def rows(kind):
        return as_columns(table, [kind] * 3)

    parts = {
        "csv": lambda: cli._csv_text("t", rows("list")),
        "json": lambda: cli._json_text(document(["c0", "c1", "c2"], rows("memoryview"))),
        "buffers": lambda: cli._csv_text("t", rows("array")),
    }[form]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table")
        # The command runner reports the failure, as for any command.
        write = click.Command("write", callback=lambda: cli._run(lambda: cli._write_files(path, {path: parts()}), {}))
        result = CliRunner().invoke(write)
        assert os.listdir(tmp) == []  # no output, temp or sibling file
    assert result.exit_code == 1
    assert (result.stdout, result.stderr) == ("", f"error: {cli._NOT_FINITE}\n")


# Every kind of value a JSON document may hold: any text (lone surrogates too), ints of any size, bools,
# None and finite floats with their edges, in lists, tuples and dicts with str keys, nested.
any_text = st.text(st.characters(exclude_categories=()))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400) | any_text
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([*FLOAT_EDGES, 1.7e308, -1.7e308]),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(any_text, inner),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(value=json_values)
def test_json_writer_equals_json_dumps(value):
    expected = json.dumps(value, indent=2, allow_nan=False) + "\n"
    assert "".join(cli._json_text(value)) == expected
    if isinstance(value, dict):  # and with each value deferred until its part is written
        deferred = {key: partial(lambda v: v, item) for key, item in value.items()}
        assert file_text(cli._json_text(deferred)) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_fails_on_a_value_that_is_not_finite(capsys, tmp_path, bad):
    # Where json.dumps(allow_nan=False) raises, the command runner fails with the not-finite error: before any
    # file is opened for a value of the document, and leaving no file for a deferred one.
    doc = {"a": [1.0, {"b": bad}]}
    with pytest.raises(ValueError):
        json.dumps(doc, allow_nan=False)
    with pytest.raises(SystemExit) as now:
        cli._run(cli._json_text, {"doc": doc})
    out = str(tmp_path / "doc.json")
    with pytest.raises(SystemExit) as later:
        cli._run(cli._write_files, {"out": out, "texts": {out: cli._json_text({"a": 1.0, "b": lambda: bad})}})
    assert now.value.code == later.value.code == 1
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr().err == f"error: {cli._NOT_FINITE}\n" * 2


def array_circle(start, rate, t):
    """The exact circle as circular_orbit_xyz computed it on numpy arrays, before its float version."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi = (start.phi + rate * np.asarray(t, dtype=float)) % (2.0 * math.pi)
    phi[phi >= 2.0 * math.pi] = 0.0
    rho = start.r * math.sin(start.theta)
    xyz = np.empty((len(phi), 3))
    xyz[:, 0] = [rho * math.cos(p) for p in phi.tolist()]
    xyz[:, 1] = [rho * math.sin(p) for p in phi.tolist()]
    xyz[:, 2] = start.r * math.cos(start.theta)
    return xyz


@settings(max_examples=60, deadline=None)
@given(
    # The mass scales the Bohr radius from about 1e-288 to 1e292, so the distance to the circle
    # runs through vector_norm's underflow and overflow rescaling as well as its plain sum.
    exponent=st.integers(-290, 290),
    radius=st.floats(0.5, 5.0),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    spin=spins,
    steps_per_period=st.sampled_from([7, 100, 10_000]),
    steps=st.integers(0, 40),
)
def test_trajectory_reference_and_deviation_equal_the_array_formulas(
    tmp_path_factory, exponent, radius, theta, phi, spin, steps_per_period, steps
):
    atom = make_atom(1, FINE_STRUCTURE, 10.0**-exponent)
    start = SphericalPoint(radius * atom.bohr_radius, theta, phi)
    rate = DiracGroundState(spin, atom).angular_rate(start)
    out = tmp_path_factory.mktemp("orbit") / "orbit.csv"
    args = ["trajectory", "--spin", spin.value, "--mass", repr(atom.mass), "--r", repr(start.r),
            "--theta", repr(theta), "--phi", repr(phi), "--steps", str(steps), "--out", str(out)]
    if rate:
        args += ["--dt", repr(2.0 * math.pi / abs(rate) / steps_per_period)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    lines = out.read_text(encoding="utf-8").splitlines()[2:]
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines])
    reference = array_circle(start, rate, rows[:, 0])
    assert same(rows[:, 7:10], reference)
    assert same(circular_orbit_xyz(start, rate, rows[:, 0]), reference)
    assert same(rows[:, 10], vector_norm(rows[:, 1:4] - reference))
