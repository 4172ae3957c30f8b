"""Command-line interface: formats, golden text output, exit codes."""
import ast
import hashlib
import importlib.util
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import citaylor
from citaylor import (
    GF,
    QQ,
    Report,
    cli,
    complete_intersection,
    homotopy_system,
    lift_matrix,
    monomial_ideal,
    shamash_resolution,
    taylor_complex,
)
from citaylor.cli import main, poly_tex, resolution_from_json
from citaylor.poly import ParseError, PolyRing

from conftest import (
    build_codim2,
    build_poly_c1,
    build_three_squares,
    random_instance,
    seeded_rng,
)

GOLDEN = Path(__file__).parent / "golden"
BAD_TERM_LIFT = Path(__file__).parent / "data" / "lift_bad_term.json"
SUM_TERM_LIFT = Path(__file__).parent / "data" / "lift_sum_term.json"
ROOT = Path(__file__).parents[1]

THREE_SQUARES_ARGS = [
    "--vars", "x,y,z",
    "--ideal", "x^2,y^2,z^2",
    "--ci", "x^2*z+x*y^2",
    "--lift", "first",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- golden text ------------------------------------------------------------


def test_taylor_text_golden(capsys):
    code, out, _ = run(capsys, "taylor", "--vars", "x,y,z", "--ideal", "x*y,x*z,y*z")
    assert code == 0
    assert out == (GOLDEN / "taylor_squarefree.txt").read_text()


def test_resolve_text_golden(capsys):
    code, out, _ = run(capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "6")
    assert code == 0
    assert out == (GOLDEN / "resolve_three_squares.txt").read_text()


def test_resolve_max_step_zero(capsys):
    code, out, _ = run(capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "0")
    assert code == 0
    assert "F_0 = R" in out
    assert "phi_1" not in out


# ---- json -------------------------------------------------------------------


def test_resolve_json_schema(capsys):
    code, out, _ = run(capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"ring", "ideal", "ci", "lift", "modules", "differentials", "reports"}
    assert doc["ring"] == {"vars": ["x", "y", "z"], "char": 0}
    assert doc["ideal"] == ["x^2", "y^2", "z^2"]
    assert doc["ci"] == ["x^2*z + x*y^2"]  # grlex is the default print order
    assert doc["lift"] == [["z", "x", "0"]]
    assert doc["modules"][2][0] == {"u": [1], "S": [], "twist": 3}
    first = doc["differentials"][0]
    assert first["from"] == 1 and first["to"] == 0
    assert first["entries"][0] == {"row": 0, "col": 0, "poly": "x^2"}
    assert doc["reports"]["periodicity"] == {"status": "periodic", "start": 3}
    assert doc["reports"]["minimality"]["minimal"] is True


def test_resolve_json_bytes_unchanged(capsys):
    """Byte guard on a larger resolution than the golden files cover (rank F_6 = 32)."""
    code, out, _ = run(
        capsys, "resolve", "--vars", "a,b,c,d,e,f", "--ideal", "a^2,b^2,c^2,d^2,e^2,f^2",
        "--ci", "a^3+b^3", "--max-step", "6", "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2088c183f88d22177736d92ccf1dac3893a195c09a5f6005ed77a52f1c265631"
    )


def test_resolve_json_round_trip(capsys):
    code, out, _ = run(capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    res = resolution_from_json(doc)
    from citaylor.cli import resolution_json

    assert resolution_json(res) == doc


def assert_round_trip_exact(res):
    """The document of res loads back to res itself and dumps to the same bytes."""
    text = cli._dump(cli.resolution_json(res))
    back = resolution_from_json(json.loads(text))
    assert back.system.ring == res.system.ring
    assert back.bases == res.bases
    assert list(back.differentials) == list(res.differentials)
    assert cli._dump(cli.resolution_json(back)) == text


def test_worked_examples_round_trip_exactly():
    for build in (build_three_squares, build_poly_c1, build_codim2):
        assert_round_trip_exact(build())


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_every_json_round_trip_is_exact(field):
    rng = seeded_rng()
    for _ in range(8):
        _, ci = random_instance(rng, max_codim=2, field=field)
        assert_round_trip_exact(shamash_resolution(homotopy_system(ci, "first"), 4))


def test_round_trip_rejects_tampered_data(capsys):
    code, out, _ = run(capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "3", "--format", "json")
    doc = json.loads(out)
    doc["differentials"][1]["entries"][0]["poly"] = "y^2"
    with pytest.raises(ValueError, match="does not match"):
        resolution_from_json(doc)
    doc2 = json.loads(out)
    doc2["modules"][2][0]["twist"] = 5
    with pytest.raises(ValueError, match="does not match"):
        resolution_from_json(doc2)


def test_round_trip_rejects_an_ungraded_lift_row(capsys):
    """(z + y^2, x - x^2, 0) still sums to the sequence element, but is not graded."""
    code, out, _ = run(capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "3", "--format", "json")
    doc = json.loads(out)
    doc["lift"][0] = ["z + y^2", "x - x^2", "0"]
    with pytest.raises(ValueError, match=r"^lift entry f\[1,1\] = y\^2 \+ z is not homogeneous of degree 1$"):
        resolution_from_json(doc)


def test_round_trip_parses_each_text_once(capsys, monkeypatch):
    """Canonical entry texts are compared, never parsed; any other text is parsed once."""
    from citaylor import PolyRing

    code, out, _ = run(capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "4", "--format", "json")
    doc = json.loads(out)
    entries = [e for d in doc["differentials"] for e in d["entries"]]
    lift_texts = {s for row in doc["lift"] for s in row}
    calls = []
    parse = PolyRing.parse
    monkeypatch.setattr(PolyRing, "parse", lambda ring, src: calls.append(src) or parse(ring, src))
    resolution_from_json(doc)
    head = [*doc["ideal"], *doc["ci"]]
    assert calls[: len(head)] == head
    assert sorted(calls[len(head) :]) == sorted(lift_texts)

    # an equal entry in a non-canonical form still loads, and is the one entry text parsed
    squares = [e for e in entries if e["poly"] == "x^2"]
    assert len(squares) > 2
    squares[0]["poly"] = squares[1]["poly"] = "2*x^2 - x^2"
    calls.clear()
    resolution_from_json(doc)
    assert calls.count("2*x^2 - x^2") == 1
    assert len(calls) == len(doc["ideal"]) + len(doc["ci"]) + len(lift_texts) + 1
    # a wrong entry whose text another entry already uses still fails
    squares[2]["poly"] = "y^2"
    with pytest.raises(ValueError, match="does not match"):
        resolution_from_json(doc)


def _resolution_doc(capsys):
    code, out, _ = run(capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "3", "--format", "json")
    assert code == 0
    return json.loads(out)


def _drop_entry(doc):
    del doc["differentials"][1]["entries"][0]


def _add_entry_at_an_empty_cell(doc):
    entries = doc["differentials"][1]["entries"]
    filled = {(e["row"], e["col"]) for e in entries}
    row, col = next(
        (i, j) for i in range(len(doc["modules"][1])) for j in range(len(doc["modules"][2]))
        if (i, j) not in filled
    )
    entries.append({"row": row, "col": col, "poly": "x^2"})


def _garble_entry(doc):
    doc["differentials"][1]["entries"][0]["poly"] = "x^^2"


def _list_a_cell_twice(doc):
    """A second record for cell (0, 0) of phi_1, before the real one: a dict keyed by cell
    would keep only the last."""
    entries = doc["differentials"][0]["entries"]
    first = next(x for x, e in enumerate(entries) if (e["row"], e["col"]) == (0, 0))
    entries.insert(first, {"row": 0, "col": 0, "poly": "x^7 + 3"})


def _drop_differential(doc):
    del doc["differentials"][-1]


def _retarget_differential(doc):
    doc["differentials"][0]["to"] = 7


def _start_at_true(doc):
    doc["differentials"][0]["from"] = True  # equals 1, but is not an int


def _map_to_false(doc):
    doc["differentials"][0]["to"] = False


def _flip_minimality(doc):
    report = doc["reports"]["minimality"]
    report["minimal"] = not report["minimal"]


def _add_a_minimality_witness(doc):
    doc["reports"]["minimality"]["witnesses"].append("tau_1 entry ({} <- 1) = 1 is a unit")


def _claim_a_periodic_tail(doc):
    # three squares: r = 3 and max_step = 3 < r + 2, so no tail shows in the window
    assert doc["reports"]["periodicity"] == {"status": "none", "start": None}
    doc["reports"]["periodicity"] = {"status": "periodic", "start": 3}


@pytest.mark.parametrize(
    "tamper, error",
    [
        (_drop_entry, "does not match"),
        (_add_entry_at_an_empty_cell, "does not match"),
        pytest.param(_garble_entry, "expected an integer", id="_garble_entry-expected int"),
        (_list_a_cell_twice, r"^differentials\[0\] lists cell \(0, 0\) more than once$"),
        (_drop_differential, "do not run from 1"),
        (_retarget_differential, "^stored differential 1 maps to step 7$"),
        (_flip_minimality, "^stored minimality report does not match"),
        (_add_a_minimality_witness, "^stored minimality report does not match"),
        (_claim_a_periodic_tail, "^stored periodicity report does not match"),
        (_start_at_true, "do not run from 1"),
        (_map_to_false, "^stored differential 1 maps to step False$"),
    ],
)
def test_round_trip_rejects_entries_that_differ_from_the_data(capsys, tamper, error):
    doc = _resolution_doc(capsys)
    resolution_from_json(doc)
    tamper(doc)
    with pytest.raises(ValueError, match=error):
        resolution_from_json(doc)


@pytest.mark.parametrize(
    "key, value",
    [
        ("vars", "xyz"),
        ("vars", ["x", "y", 3]),
        ("char", 0.0),
        ("char", False),
        ("char", True),
        ("char", "0"),
        ("char", 32003.0),
    ],
    ids=repr,
)
def test_round_trip_rejects_a_ring_of_the_wrong_type(capsys, key, value):
    """A string is not a list of names, and a bool or float is not a characteristic."""
    doc = _resolution_doc(capsys)
    doc["ring"][key] = value
    pattern = rf"^ring\.{key} must be .*, got {re.escape(json.dumps(value))}$"
    with pytest.raises(ValueError, match=pattern):
        resolution_from_json(doc)


def _set(*path_and_value):
    """An edit that stores the value at the path of keys; _MISSING deletes the key."""
    *path, key, value = path_and_value

    def edit(doc):
        for k in path:
            doc = doc[k]
        if value is _MISSING:
            del doc[key]
        else:
            doc[key] = value

    return edit


_MISSING = object()


@pytest.mark.parametrize(
    "edit, field, shown",
    [
        pytest.param(_set("ring", _MISSING), "ring", None, id="no-ring"),
        pytest.param(_set("reports", _MISSING), "reports", None, id="no-reports"),
        pytest.param(_set("ring", ["x"]), "ring", ["x"], id="ring-list"),
        pytest.param(_set("ideal", [3, "y^2", "z^2"]), "ideal", [3, "y^2", "z^2"], id="ideal-int"),
        pytest.param(_set("ci", "x^2*z+x*y^2"), "ci", "x^2*z+x*y^2", id="ci-string"),
        pytest.param(_set("lift", None), "lift", None, id="lift-null"),
        pytest.param(_set("lift", [[3]]), "lift rows", [3], id="lift-row-int"),
        pytest.param(_set("modules", 3), "modules", 3, id="modules-int"),
        pytest.param(
            lambda doc: {**doc, "modules": [], "differentials": []}, "modules", [], id="no-modules"
        ),
        pytest.param(_set("modules", 1, 0, "u", 1), "modules[1]", "module", id="u-int"),
        pytest.param(_set("differentials", 3), "differentials", 3, id="differentials-int"),
        pytest.param(
            _set("differentials", 0, "entries", 0, "row", _MISSING),
            "differentials[0]", "matrix", id="entry-without-row",
        ),
        pytest.param(
            _set("differentials", 0, "entries", _MISSING), "differentials[0]", "matrix", id="no-entries"
        ),
        pytest.param(
            _set("differentials", 0, "entries", 0, "poly", 5), "differentials[0]", "matrix", id="poly-int"
        ),
        pytest.param(lambda doc: [doc], "document", "document", id="document-list"),
        # JSON's true, false and 2.0 compare equal to the ints the format holds
        pytest.param(_set("modules", 0, 0, "twist", False), "modules[0]", "module", id="twist-bool"),
        pytest.param(_set("modules", 1, 0, "twist", 2.0), "modules[1]", "module", id="twist-float"),
        pytest.param(_set("modules", 1, 0, "u", [False]), "modules[1]", "module", id="u-bool"),
        pytest.param(_set("modules", 1, 0, "S", [True]), "modules[1]", "module", id="S-bool"),
        pytest.param(
            _set("differentials", 0, "entries", 1, "col", True), "differentials[0]", "matrix",
            id="col-bool",
        ),
        pytest.param(
            _set("differentials", 1, "entries", 0, "row", 0.0), "differentials[1]", "matrix",
            id="row-float",
        ),
    ],
)
def test_round_trip_rejects_a_field_of_the_wrong_type(capsys, edit, field, shown):
    """Each field's JSON type is checked before use, and the ValueError names the field
    and shows what it held ("module" and "matrix": the whole module or matrix the field
    names, "document": the document an edit returned in place of the one it was given)."""
    doc = _resolution_doc(capsys)
    doc = edit(doc) or doc
    if shown in ("module", "matrix"):
        section, index = re.fullmatch(r"(\w+)\[(\d+)\]", field).groups()
        shown = doc[section][int(index)]
    elif shown == "document":
        shown = doc
    pattern = rf"^{re.escape(field)} must be [^,]+, got {re.escape(json.dumps(shown))}$"
    with pytest.raises(ValueError, match=pattern):
        resolution_from_json(doc)


@pytest.mark.parametrize(
    "edit, error, message",
    [
        pytest.param(
            _set("ideal", 1, "y^"),
            ParseError,
            "ideal[1]: expected an integer, found end of input (at position 2)",
            id="ideal",
        ),
        pytest.param(
            _set("ci", 0, "x^2*z+"),
            ParseError,
            "ci[0]: expected a term, found end of input (at position 6)",
            id="ci",
        ),
        pytest.param(
            _set("lift", 0, 2, "0+"),
            ParseError,
            "lift[0][2]: expected a term, found end of input (at position 2)",
            id="lift",
        ),
        # the entry at row 0, col 1
        pytest.param(
            _set("differentials", 0, "entries", 1, "poly", "x^"),
            ParseError,
            "differentials[0] entry (0, 1): expected an integer, found end of input (at position 2)",
            id="entry",
        ),
        # texts that parse but cannot stand in their field
        pytest.param(
            _set("ideal", 1, "x+y"), ValueError, "ideal[1]: 'x+y' is not a monomial", id="ideal-sum"
        ),
        pytest.param(
            _set("ci", 0, "x^2*z+x*y^2+z"),
            ValueError,
            "ci[0]: x^2*z + x*y^2 + z is not homogeneous",
            id="ci-inhomogeneous",
        ),
    ],
)
def test_round_trip_names_the_field_of_a_parse_error(capsys, edit, error, message):
    """A polynomial that does not parse, or does not fit its field, names the field; a
    parse error's position counts in its own text."""
    doc = _resolution_doc(capsys)
    edit(doc)
    with pytest.raises(ValueError) as err:
        resolution_from_json(doc)
    assert type(err.value) is error
    assert str(err.value) == message


def test_round_trip_loads_a_verify_document(capsys):
    """verify --format json stores its reports next to minimality and periodicity."""
    code, out, _ = run(capsys, "verify", *THREE_SQUARES_ARGS, "--max-step", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reports"]) > 2
    res = resolution_from_json(doc)
    assert [len(m) for m in doc["modules"]] == [res.rank(n) for n in range(4)]


def test_taylor_json(capsys):
    code, out, _ = run(
        capsys, "taylor", "--vars", "x,y,z", "--ideal", "x*y,x*z,y*z", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ci"] == []
    assert [len(m) for m in doc["modules"]] == [1, 3, 3, 1]
    assert doc["modules"][1][0] == {"u": [], "S": [1], "twist": 2}


# ---- tex and dot ---------------------------------------------------------------


def test_resolve_tex_smoke(capsys):
    code, out, _ = run(capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "3", "--format", "tex")
    assert code == 0
    assert "\\varphi_{1}" in out
    assert "\\begin{array}" in out
    assert "\\emptyset & x^{2} & y^{2} & z^{2}" in out
    assert "x^{2}" in out


def test_taylor_tex_smoke(capsys):
    code, out, _ = run(
        capsys, "taylor", "--vars", "x,y,z", "--ideal", "x*y,x*z,y*z", "--format", "tex"
    )
    assert code == 0
    assert "\\tau_{2}" in out


def test_taylor_tex_subscripts_underscored_names(capsys):
    code, out, _ = run(
        capsys, "taylor", "--vars", "x_1,x_2", "--ideal", "x_1^2,x_2", "--format", "tex"
    )
    assert code == 0
    assert r"\emptyset & x_{1}^{2} & x_{2} \\" in out
    assert "__" not in out
    # only the underscore before trailing digits starts a subscript; every other one is escaped
    code, out, _ = run(
        capsys, "taylor", "--vars", "a_b1,a_b_c,x_,_x", "--ideal", "a_b1,a_b_c^2,x_*_x",
        "--format", "tex",
    )
    assert code == 0
    assert r"\emptyset & a\_b_{1} & a\_b\_c^{2} & x\_\_x \\" in out


def test_poly_tex_follows_the_text_term_walk():
    R = PolyRing(("x", "y", "z1"))
    cases = {
        "-1/2*x^2 + 3*y*z1 - 1/3": r"-\tfrac{1}{2}x^{2} + 3yz_{1} - \tfrac{1}{3}",
        "x - y": "x - y",
        "-x*z1^3 + 5/4": r"-xz_{1}^{3} + \tfrac{5}{4}",
        "0": "0",
        "-1": "-1",
    }
    for text, tex in cases.items():
        poly = R.parse(text)
        assert str(poly) == text
        assert poly_tex(poly) == tex


def test_dot_counts_three_squares(capsys):
    code, out, _ = run(capsys, "export-dot", *THREE_SQUARES_ARGS)
    assert code == 0
    assert out.count("color=blue") == 12  # tau entries: 3 + 6 + 3
    assert out.count("color=red") == 8  # sigma entries for the (z, x, 0) lift
    assert out.count("rank=same") == 2


def test_dot_single_generator(capsys):
    code, out, _ = run(
        capsys, "export-dot", "--vars", "x", "--ideal", "x^2", "--ci", "x^3", "--lift", "first"
    )
    assert code == 0
    assert out.count("->") == 2  # one tau edge, one homotopy edge
    assert out.count("color=blue") == 1
    assert out.count("color=red") == 1


def test_dot_without_sequence(capsys):
    code, out, _ = run(capsys, "export-dot", "--vars", "x,y,z", "--ideal", "x*y,x*z,y*z")
    assert code == 0
    assert out.count("color=blue") == 12
    assert "color=red" not in out


def test_dot_distinguishes_sequence_elements(capsys):
    code, out, _ = run(
        capsys,
        "export-dot",
        "--vars", "x,y,z,w",
        "--ideal", "x^2,y^2,z^2,w^2",
        "--ci", "x^3+y^3,z^3+w^3",
        "--lift", "first",
    )
    assert code == 0
    assert "color=red" in out and "color=orange" in out


# ---- verify and check-exactness ---------------------------------------------------


def test_verify_passes_three_squares(capsys):
    code, out, _ = run(capsys, "verify", *THREE_SQUARES_ARGS, "--max-step", "4", "--max-degree", "6")
    assert code == 0
    assert "overall: PASS" in out
    assert "[PASS] taylor complex" in out
    assert "[PASS] homotopy system" in out
    assert "[PASS] exactness at step 3 over GF(32003)" in out


def test_verify_without_exactness(capsys):
    code, out, _ = run(capsys, "verify", *THREE_SQUARES_ARGS, "--max-step", "3")
    assert code == 0
    assert "exactness" not in out


def test_verify_builds_the_taylor_complex_once(capsys, monkeypatch):
    import citaylor.homotopy as homotopy_mod
    import citaylor.taylor as taylor_mod

    builds = []
    build = taylor_mod.taylor_complex

    def counted(ideal):
        builds.append(ideal)
        return build(ideal)

    monkeypatch.setattr(taylor_mod, "taylor_complex", counted)
    monkeypatch.setattr(homotopy_mod, "taylor_complex", counted)
    code, out, _ = run(capsys, "verify", *THREE_SQUARES_ARGS, "--max-step", "3")
    assert code == 0 and "[PASS] taylor complex" in out
    assert len(builds) == 1


def test_taylor_dot_builds_the_taylor_complex_once(capsys, monkeypatch):
    import citaylor.cli as cli_mod

    builds = []
    build = cli_mod.taylor_complex
    monkeypatch.setattr(cli_mod, "taylor_complex", lambda ideal: builds.append(ideal) or build(ideal))
    code, out, _ = run(capsys, "export-dot", "--vars", "x,y,z", "--ideal", "x*y,x*z,y*z")
    assert code == 0 and out.startswith("digraph resolution {")
    assert len(builds) == 1


def test_resolve_dot_assembles_no_differential(capsys, monkeypatch):
    import citaylor.shamash as shamash_mod

    calls = []
    assemble = shamash_mod.shamash_differential
    monkeypatch.setattr(
        shamash_mod, "shamash_differential", lambda *args: calls.append(args) or assemble(*args)
    )
    code, out, _ = run(capsys, "export-dot", *THREE_SQUARES_ARGS)
    assert code == 0 and "color=red" in out
    assert calls == []


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    bad = Report("homotopy system")
    bad.fail("(b) forced failure for the exit-code path")
    import citaylor.cli as cli_mod

    monkeypatch.setattr(cli_mod, "verify_homotopy_system", lambda system: bad)
    code, out, _ = run(capsys, "verify", *THREE_SQUARES_ARGS, "--max-step", "3")
    assert code == 1
    assert "overall: FAIL" in out


def test_check_exactness_command(capsys):
    code, out, _ = run(
        capsys, "check-exactness", *THREE_SQUARES_ARGS, "--max-step", "3", "--max-degree", "6"
    )
    assert code == 0
    assert "overall: PASS" in out


def test_check_exactness_cap_exit(capsys):
    code, _, err = run(
        capsys,
        "check-exactness",
        "--vars", "x,y",
        "--ideal", "x,y",
        "--ci", "x^21*y,x*y^21",
        "--lift", "first",
        "--max-step", "2",
        "--max-degree", "3",
    )
    assert code == 3
    assert "max_degree" in err


def test_out_of_memory_exits_three_with_one_line(capsys, monkeypatch):
    def resolve(*args):
        raise MemoryError

    monkeypatch.setattr(citaylor.cli, "shamash_resolution", resolve)
    code, out, err = run(capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "3")
    assert (code, out) == (3, "")
    assert err == "error: out of memory\n"


def test_a_run_out_of_memory_while_writing_leaves_no_file(capsys, monkeypatch, tmp_path):
    """phi_n is assembled as the writer reaches it, after --out is opened: a run that runs out
    of memory there exits 3 and removes what it wrote."""
    assemble = citaylor.shamash.shamash_differential

    def resolve(system, n):
        if n == 3:
            raise MemoryError
        return assemble(system, n)

    monkeypatch.setattr(citaylor.shamash, "shamash_differential", resolve)
    target = tmp_path / "out.json"
    code, out, err = run(
        capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "3", "--format", "json",
        "--out", str(target),
    )
    assert (code, out, err) == (3, "", "error: out of memory\n")
    assert not target.exists()


@pytest.mark.parametrize("kind", ["link", "fifo"])
def test_a_run_out_of_memory_while_writing_keeps_what_is_not_a_regular_file(
    capsys, monkeypatch, tmp_path, kind
):
    """Only a regular file that --out names itself is removed after a failed write: a link to
    /dev/null and a named pipe stay, and the run still exits 3 for the out-of-memory error."""
    def resolve(system, n):
        raise MemoryError

    monkeypatch.setattr(citaylor.shamash, "shamash_differential", resolve)
    target = tmp_path / "out"
    if kind == "link":
        target.symlink_to(os.devnull)
    else:
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        os.mkfifo(target)
        reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        code, out, err = run(
            capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "3", "--format", "json",
            "--out", str(target),
        )
    finally:
        if kind == "fifo":
            os.close(reader)
    assert (code, out, err) == (3, "", "error: out of memory\n")
    assert os.path.lexists(target)
    if kind == "link":
        assert os.readlink(target) == os.devnull


def test_a_file_that_cannot_be_removed_does_not_hide_the_error(capsys, monkeypatch, tmp_path):
    def resolve(system, n):
        raise MemoryError

    def remove(path):
        raise PermissionError(f"cannot remove {path}")

    monkeypatch.setattr(citaylor.shamash, "shamash_differential", resolve)
    monkeypatch.setattr(citaylor.cli.os, "remove", remove)
    code, out, err = run(
        capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "3", "--format", "json",
        "--out", str(tmp_path / "out.json"),
    )
    assert (code, out, err) == (3, "", "error: out of memory\n")


SQUARES_CODIM2_SYSTEM_ARGS = [
    "--vars", "x,y,z,w",
    "--ideal", "x^2,y^2,z^2,w^2",
    "--ci", "x^3+y^3,z^3+w^3",
]
SQUARES_CODIM2_RESOLVE_ARGS = [*SQUARES_CODIM2_SYSTEM_ARGS, "--max-step", "4"]
SQUARES_CODIM2_ARGS = [*SQUARES_CODIM2_RESOLVE_ARGS, "--max-degree", "8"]


def test_verify_multiplies_each_operand_pair_once(capsys, monkeypatch):
    """verify shares each identity's product between its reports and the phi.phi
    certificate, and multiplies no phi matrix on a passing run."""
    from citaylor import homotopy, matrix

    pairs = []  # the operands stay alive, so their ids stay unique
    kernel = matrix.defects

    def recording(identities):
        identities = [(list(operands), corrections) for operands, corrections in identities]
        for operands, _ in identities:
            pairs.extend(operands)
        return kernel(identities)

    for module in (matrix, homotopy):  # shamash's defect calls matrix.defects
        monkeypatch.setattr(module, "defects", recording)
    code, out, _ = run(capsys, "verify", *SQUARES_CODIM2_RESOLVE_ARGS)
    assert code == 0 and out.endswith("overall: PASS\n")
    keys = [(id(left), id(right)) for left, right in pairs]
    assert keys and len(set(keys)) == len(keys)
    # every operand is a map of the Taylor complex (u = ()), never a phi
    assert all(m.cols[0].u == () for pair in pairs for m in pair)


@pytest.mark.parametrize(
    "command, fmt, digest",
    [
        ("check-exactness", "text", "5f5d4ccc55d4aacceb8179187c23235e806ef359f220610a7b6b2d76c8359950"),
        ("verify", "text", "12ab2f0bf56f24b006e2580e8e1fcecb715596b10e08104b2959afdefa0fbab7"),
        ("check-exactness", "json", "795baaef1d8df29a6073e5d97b57a76a9358c1af7073fcbeb2561296a62eb4b7"),
        ("verify", "json", "cb0c6d8f13d74744673856274683ba10b31fb5132098e65f11085a3338947de9"),
    ],
)
def test_exactness_output_bytes_unchanged(capsys, command, fmt, digest):
    """Byte guard on the codim-2 squares case: ranks of 4 steps up to degree 8."""
    code, out, _ = run(capsys, command, *SQUARES_CODIM2_ARGS, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "char, digest",
    [
        ("0", "ce497f4a87649e3f7f1b6c6af3b39120744658e67ce8f5403d5e57b01be78763"),
        ("7", "06f34e9ec06f9145d90776e5a6bce75182e8f5906e011be970ad51df3a31c051"),
    ],
)
def test_exactness_runs_over_the_input_field(capsys, char, digest):
    """Byte guard on the three-squares case: over QQ the checks run over GF(32003),
    over GF(7) over GF(7) itself."""
    argv = ["--vars", "x,y,z", "--ideal", "x^2,y^2,z^2", "--ci", "x^2*z+x*y^2"]
    code, out, _ = run(
        capsys, "check-exactness", *argv, "--max-step", "4", "--max-degree", "6", "--char", char
    )
    assert code == 0
    assert f"over GF({int(char) or 32003})" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "7aa751e3accfd2084336018fa355fb7d1d1c506623d1e175013c8be34ead20cd"),
        ("tex", "301950fa6dcfffa697530aa6bd698181d2a2bdbdbaac29c37b8cdb22b564aaa1"),
        ("dot", "ae3ed47454deae47f74446a20b1fd0927bd08ec22795a2b6c45b2170b2f1453d"),
    ],
)
def test_codim2_resolve_output_bytes_unchanged(capsys, fmt, digest):
    """Byte guard on y(u)*S labels and u-block dividers: the codim-2 squares case to F_4.

    DOT output comes from export-dot, which draws the Taylor complex and its homotopies.
    """
    if fmt == "dot":
        argv = ["export-dot", *SQUARES_CODIM2_SYSTEM_ARGS]
    else:
        argv = ["resolve", *SQUARES_CODIM2_RESOLVE_ARGS, "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


AVERAGE_LIFT_ARGS = [
    "--vars", "x,y,z",
    "--ideal", "x^2,y^2,z^2,x*y",
    "--ci", "x^2*y^2+x*y*z^2,y^2*z^2",
    "--lift", "average",
    "--max-step", "4",
]


@pytest.mark.parametrize(
    "char, fmt, digest",
    [
        ("0", "json", "cbd28514c27cbdd5b79fd7dfee342822079f391ff8b170380bd84313087fed81"),
        ("0", "text", "d6374d020f3cc4a7b3ab1b18d0f1f0275254c303c20c92261bdc1a7fbdd43195"),
        ("0", "tex", "8a6d489b3f3b964dc14be324ee2f3e9bdc6ae824dea30ebce365c5f72c7a66a0"),
        ("7", "json", "c5064e6b3649f032b9a7e3116ded5492089f202e24be29596de3527aebd91e25"),
        ("7", "text", "92a012cffcfbb7dc2f92743d91ca7b83f68c99f8ac28af7c42add0a934b6ba17"),
        ("7", "tex", "54f090870333e800526dd1bf04e3c93ea944574a15239c4668e6eb5eecd12888"),
    ],
)
def test_average_lift_output_bytes_unchanged(capsys, char, fmt, digest):
    """Byte guard on averaged lifts: fractional entries over QQ and their images over GF(7)."""
    code, out, _ = run(capsys, "resolve", *AVERAGE_LIFT_ARGS, "--char", char, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("tex", "2d216c86a870d2d92f873d025b13ff2f191dda58a81347d79f4f0182dc7c7a81"),
        ("dot", "1039580043d3c1a07019abc833983853eb5bfac24e3c89e3f9a1f1429a2ffe61"),
        ("json", "2761087630f2d2448a0fcb96e9558a9d00742347b16629e0ba366d449d7077b1"),
    ],
)
def test_taylor_output_bytes_unchanged(capsys, fmt, digest):
    """Byte guard on the squarefree Taylor complex in the formats the golden text leaves out."""
    ideal = ["--vars", "x,y,z", "--ideal", "x*y,x*z,y*z"]
    argv = ["export-dot", *ideal] if fmt == "dot" else ["taylor", *ideal, "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["check-exactness", "verify"])
def test_negative_max_degree_exits_two(capsys, command):
    code, out, err = run(
        capsys, command, "--vars", "x,y", "--ideal", "x^2,y^2", "--ci", "x^3+y^3",
        "--max-step", "3", "--max-degree", "-3",
    )
    assert code == 2
    assert out == ""
    assert "--max-degree" in err


# ---- lift files ----------------------------------------------------------------


def lift_doc():
    return {"assignments": [{"term": "x*y*z", "gen": 2}]}


def test_lift_from_file(capsys, tmp_path):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(lift_doc()))
    code, out, _ = run(
        capsys,
        "resolve",
        "--vars", "x,y,z",
        "--ideal", "x*y,x*z,y*z",
        "--ci", "x*y*z",
        "--lift", f"file:{path}",
        "--max-step", "2",
    )
    assert code == 0
    assert "f[1] = [0, y, 0]" in out


def test_lift_file_list_form(capsys, tmp_path):
    docs = [
        {"assignments": [{"term": "x^3", "gen": 1}, {"term": "y^3", "gen": 2}]},
        {"assignments": [{"term": "z^3", "gen": 3}, {"term": "w^3", "gen": 4}]},
    ]
    path = tmp_path / "lift2.json"
    path.write_text(json.dumps(docs))
    code, out, _ = run(
        capsys,
        "resolve",
        "--vars", "x,y,z,w",
        "--ideal", "x^2,y^2,z^2,w^2",
        "--ci", "x^3+y^3,z^3+w^3",
        "--lift", f"file:{path}",
        "--max-step", "2",
    )
    assert code == 0
    assert "f[1] = [x, y, 0, 0]" in out
    assert "f[2] = [0, 0, z, w]" in out


def test_lift_file_row_count_mismatch(capsys, tmp_path):
    path = tmp_path / "lift3.json"
    path.write_text(json.dumps([lift_doc(), lift_doc()]))
    code, _, err = run(
        capsys,
        "resolve",
        "--vars", "x,y,z",
        "--ideal", "x*y,x*z,y*z",
        "--ci", "x*y*z",
        "--lift", f"file:{path}",
        "--max-step", "2",
    )
    assert code == 2
    assert "assignment rows" in err


@pytest.mark.parametrize(
    "text, problem",
    [
        *(
            pytest.param(json.dumps(doc), None, id=name)
            for name, doc in [
                ("x", "x"),
                ("None", None),
                ("doc2", {"assignments": 5}),
                ("doc3", {"assignments": [5]}),
                ("doc4", {"assignments": [{"term": 5, "gen": 1}]}),
                ("doc5", {"assignments": [{"term": "x*y*z", "gen": True}]}),
                ("doc6", {"assignments": [{"term": "x*y*z"}]}),
                ("doc7", [[lift_doc()]]),
            ]
        ),
        pytest.param("", "is not valid JSON: Expecting value: line 1 column 1 (char 0)", id="empty"),
        pytest.param("{", "is not valid JSON: Expecting property name", id="truncated"),
    ],
)
def test_malformed_lift_file_exits_two(capsys, tmp_path, text, problem):
    path = tmp_path / "lift.json"
    path.write_text(text)
    code, out, err = run(
        capsys,
        "resolve",
        "--vars", "x,y,z",
        "--ideal", "x*y,x*z,y*z",
        "--ci", "x*y*z",
        "--lift", f"file:{path}",
        "--max-step", "2",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    if problem:
        assert err.startswith(f"error: lift file {path} {problem}")


def test_lift_file_missing(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "resolve",
        "--vars", "x,y,z",
        "--ideal", "x*y,x*z,y*z",
        "--ci", "x*y*z",
        "--lift", f"file:{tmp_path}/nope.json",
        "--max-step", "2",
    )
    assert code == 2


# ---- input errors ----------------------------------------------------------------


# argv -> the text naming the bad value in its error message
NEGATIVE_MAX_STEP = "argument --max-step: must be at least 0 (got -1)"
BAD_VALUE_INPUT = {
    ("betti", "--gens", "3", "--codim", "0"): "c=0",
    ("betti", "--gens", "-2", "--codim", "1"): "r=-2",
    ("betti", "--gens", "3", "--codim", "1", "--max-step", "-1"): NEGATIVE_MAX_STEP,
    ("resolve", *THREE_SQUARES_ARGS, "--max-step", "-1"): NEGATIVE_MAX_STEP,
    ("verify", *THREE_SQUARES_ARGS, "--max-step", "-1"): NEGATIVE_MAX_STEP,
    ("check-exactness", *THREE_SQUARES_ARGS, "--max-step", "-1"): NEGATIVE_MAX_STEP,
}
# values that parse but cannot be used
UNUSABLE_INPUT = {
    # export-dot reads --lift only with --ci
    **{
        ("export-dot", "--vars", "x,y", "--ideal", "x^2,y^2", "--lift", lift): "--lift needs --ci"
        for lift in ("bogus", "file:/nonexistent.json")
    },
    ("check-exactness", *THREE_SQUARES_ARGS, "--max-step", "1"): "--max-step must be at least 2",
    ("resolve", "--vars", "x,y,z", "--ideal", "x^2,y^2,z^2", "--ci", ",", "--max-step", "2"): (
        "--ci needs at least one element"
    ),
}
# malformed text and a QQ input that GF(32003) cannot hold
MALFORMED_INPUT = {
    ("resolve", "--vars", "x,y,z", "--ideal", "x^2,y^2,z^2", "--ci", "x^2+", "--max-step", "2"): (
        "error: --ci: expected a term, found end of input (at position 4)"
    ),
    ("taylor", "--vars", "x,1y", "--ideal", "x^2"): "error: bad variable name '1y'",
    ("resolve", "--vars", "x,y,z", "--ideal", "x^2,y^2,z^2", "--ci", "1/0*x^2", "--max-step", "2"): (
        "error: --ci: zero denominator (at position 2)"
    ),
    ("resolve", "--vars", "x,y,z", "--ideal", "x^2,y^2,z^2", "--ci", "x^2 y", "--max-step", "2"): (
        "error: --ci: expected '+' or '-', found 'y' (at position 4)"
    ),
    (
        "check-exactness",
        "--vars", "x,y,z",
        "--ideal", "x^2,y^2,z^2",
        "--ci", "1/32003*x^2*z+x*y^2",
        "--max-step", "3",
        "--max-degree", "4",
    ): "error: 32003 divides a denominator of 1/32003*x^2*z + x*y^2",
    # a position counts from the start of the option's value, not of the element
    ("taylor", "--vars", "x,y", "--ideal", "x^2,y^"): (
        "error: --ideal: expected an integer, found end of input (at position 6)"
    ),
    ("resolve", "--vars", "x,y,z", "--ideal", "x^2,y^2,z^2", "--ci", "x^2,y^2+", "--max-step", "2"): (
        "error: --ci: expected a term, found end of input (at position 8)"
    ),
    ("taylor", "--vars", "x,y", "--ideal", "x^2, y^2, x*q"): (
        "error: --ideal: unknown variable 'q' (at position 12)"
    ),
    # a parse error in a lift file names the file and the term; the position counts in the term
    (
        "verify",
        "--vars", "x,y,z",
        "--ideal", "x^2,y^2,z^2",
        "--ci", "x^2*z+x*y^2",
        "--lift", f"file:{BAD_TERM_LIFT}",
    ): (
        f"error: lift file {BAD_TERM_LIFT}: term 'x^': expected an integer, found end of input"
        " (at position 2)"
    ),
    # a term that parses but is no bare monomial, and a generator or sequence element that
    # parses but does not fit, also name the file and term or the option
    (
        "verify",
        "--vars", "x,y,z",
        "--ideal", "x^2,y^2,z^2",
        "--ci", "x^2*z+x*y^2",
        "--lift", f"file:{SUM_TERM_LIFT}",
    ): f"error: lift file {SUM_TERM_LIFT}: term 'x*y+z': not a single monomial",
    ("taylor", "--vars", "x,y", "--ideal", "x^2,x+y"): "error: --ideal: 'x+y' is not a monomial",
    ("resolve", "--vars", "x,y", "--ideal", "x^2", "--ci", "x^2+y", "--max-step", "2"): (
        "error: --ci: x^2 + y is not homogeneous"
    ),
}


# Each case's id is pinned, so that a new case renames no other.  This closed list keeps
# argv0..argv30, the ids its positions gave it; a new case goes into NAMED_INPUT_ERRORS.
POSITIONAL_INPUT_ERRORS = [
    ["resolve", "--vars", "x,y", "--ideal", "x+y", "--ci", "x^2", "--lift", "first", "--max-step", "2"],
    ["resolve", "--vars", "x,y", "--ideal", "x^2", "--ci", "x^2+y", "--lift", "first", "--max-step", "2"],
    ["resolve", "--vars", "x,y", "--ideal", "x^2", "--ci", "y^2", "--lift", "first", "--max-step", "2"],
    ["resolve", "--vars", "x,y", "--ideal", "x^2", "--ci", "x^2", "--lift", "slowest", "--max-step", "2"],
    ["resolve", "--vars", "x,y", "--ideal", "w^2", "--ci", "x^2", "--lift", "first", "--max-step", "2"],
    ["taylor", "--vars", "x,y", "--ideal", ""],
    ["resolve", "--vars", "x,y", "--char", "6", "--ideal", "x^2", "--ci", "x^3", "--lift", "first", "--max-step", "2"],
    *BAD_VALUE_INPUT,
    # DOT output has one command, export-dot
    ["taylor", "--vars", "x,y", "--ideal", "x^2", "--format", "dot"],
    ["resolve", *THREE_SQUARES_ARGS, "--max-step", "3", "--format", "dot"],
    *UNUSABLE_INPUT,
    *MALFORMED_INPUT,
]
# id -> (argv, the text naming the bad value in its error message)
NAMED_INPUT_ERRORS = {
    # an empty --ci is a sequence with no element, not a missing one
    "export-dot-empty-ci": (
        ["export-dot", "--vars", "x,y", "--ideal", "x^2,y^2", "--ci", ""],
        "--ci needs at least one element",
    ),
    "export-dot-empty-ci-with-lift": (
        ["export-dot", "--vars", "x,y", "--ideal", "x^2,y^2", "--ci", "", "--lift", "average"],
        "--ci needs at least one element",
    ),
}
INPUT_ERRORS = {
    **dict(zip((f"argv{n}" for n in range(31)), POSITIONAL_INPUT_ERRORS, strict=True)),
    **{name: argv for name, (argv, _) in NAMED_INPUT_ERRORS.items()},
}


@pytest.mark.parametrize("argv", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
def test_input_errors_exit_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    # argparse rejects an option's value after the usage line, naming the command
    message = err.splitlines()[-1]
    assert message.startswith(("error:", f"citaylor {argv[0]}: error:"))
    named = {tuple(argv): text for argv, text in NAMED_INPUT_ERRORS.values()}
    bad_value = {**BAD_VALUE_INPUT, **UNUSABLE_INPUT, **MALFORMED_INPUT, **named}.get(tuple(argv))
    if bad_value is not None:
        assert bad_value in message


@pytest.mark.parametrize("command", ["check-exactness", "verify"])
def test_an_exactness_check_without_a_window_exits_two_before_resolving(
    capsys, monkeypatch, command
):
    def resolve(*args):
        raise AssertionError("the window is refused before anything is resolved")

    monkeypatch.setattr(citaylor.cli, "shamash_resolution", resolve)
    code, out, err = run(capsys, command, *THREE_SQUARES_ARGS, "--max-step", "1", "--max-degree", "5")
    assert (code, out) == (2, "")
    assert err == "error: --max-step must be at least 2 so one window exists\n"


def test_verify_without_an_exactness_check_takes_one_step(capsys):
    code, out, _ = run(capsys, "verify", *THREE_SQUARES_ARGS, "--max-step", "1")
    assert code == 0
    assert out.endswith("overall: PASS\n") and "exactness" not in out


def test_average_lift_in_bad_characteristic_exits_two(capsys):
    code, _, err = run(
        capsys,
        "resolve",
        "--vars", "x,y,z",
        "--char", "3",
        "--ideal", "x*y,x*z,y*z",
        "--ci", "x*y*z",
        "--lift", "average",
        "--max-step", "2",
    )
    assert code == 2
    assert "characteristic 3" in err


def test_unknown_subcommand_exits_two(capsys):
    assert run(capsys, "frobnicate")[0] == 2


# ---- betti ------------------------------------------------------------------------


def test_betti_table(capsys):
    code, out, _ = run(capsys, "betti", "--gens", "4", "--codim", "2", "--max-step", "5")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [(int(n), int(b)) for n, b in rows] == [
        (0, 1), (1, 4), (2, 8), (3, 12), (4, 16), (5, 20)
    ]


def test_betti_json(capsys):
    code, out, _ = run(
        capsys, "betti", "--gens", "3", "--codim", "1", "--max-step", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"r": 3, "c": 1, "bounds": [1, 3, 4, 4, 4]}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "108ba38a504fe590b3954dedc426d00a28e34424c2eebea8e1746ca147812a95"
    )


# ---- misc plumbing ------------------------------------------------------------------


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "resolve", *THREE_SQUARES_ARGS, "--max-step", "2", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["lift"] == [["z", "x", "0"]]


# ---- streamed output and the dense-output cap ---------------------------------------

TAYLOR_ARGS = ["--vars", "x,y,z", "--ideal", "x*y,x*z,y*z"]


def _taylor():
    return taylor_complex(monomial_ideal(PolyRing(("x", "y", "z")), ["x*y", "x*z", "y*z"]))


def _three_squares(max_step):
    ideal = monomial_ideal(PolyRing(("x", "y", "z")), ["x^2", "y^2", "z^2"])
    ci = complete_intersection(ideal, ["x^2*z+x*y^2"])
    return shamash_resolution(homotopy_system(ci, lift_matrix(ci, "first")), max_step)


def _three_squares_dot():
    system = _three_squares(0).system
    return "".join(cli.dot_text(system.complex, system))


RESOLVE_4 = ["resolve", *THREE_SQUARES_ARGS, "--max-step", "4"]
REPORTS_3 = [*THREE_SQUARES_ARGS, "--max-step", "3"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["taylor", *TAYLOR_ARGS], lambda: "".join(cli.taylor_text(_taylor())), id="taylor-text"),
        pytest.param(
            ["taylor", *TAYLOR_ARGS, "--format", "tex"],
            lambda: "".join(cli.taylor_tex(_taylor())),
            id="taylor-tex",
        ),
        pytest.param(
            ["taylor", *TAYLOR_ARGS, "--format", "json"],
            lambda: cli._dump(cli.taylor_json(_taylor())),
            id="taylor-json",
        ),
        pytest.param(RESOLVE_4, lambda: cli.resolution_text(_three_squares(4)), id="resolve-text"),
        pytest.param(
            [*RESOLVE_4, "--format", "tex"],
            lambda: "".join(cli.resolution_tex(_three_squares(4))),
            id="resolve-tex",
        ),
        pytest.param(
            [*RESOLVE_4, "--format", "json"],
            lambda: cli._dump(cli.resolution_json(_three_squares(4))),
            id="resolve-json",
        ),
        pytest.param(
            ["export-dot", *THREE_SQUARES_ARGS],
            _three_squares_dot,
            id="export-dot",
        ),
        pytest.param(["verify", *REPORTS_3, "--max-degree", "5"], None, id="verify-text"),
        pytest.param(["verify", *REPORTS_3, "--format", "json"], None, id="verify-json"),
        pytest.param(["check-exactness", *REPORTS_3, "--max-degree", "5"], None, id="exactness-text"),
        pytest.param(["check-exactness", *REPORTS_3, "--format", "json"], None, id="exactness-json"),
        pytest.param(["betti", "--gens", "4", "--codim", "2"], None, id="betti-text"),
        pytest.param(["betti", "--gens", "4", "--codim", "2", "--format", "json"], None, id="betti-json"),
    ],
)
def test_stdout_and_out_file_carry_the_string_writers_bytes(capsys, tmp_path, argv, expected):
    """Every command and format writes the same bytes to stdout and to --out.

    Where a writer has a string form, those bytes are that string.
    """
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(target))[:2] == (0, "")
    assert target.read_bytes() == out.encode()
    if expected is not None:
        assert out == expected()


class WriteSizes(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def _matrix_texts(fmt, out):
    """The text of each differential in a resolve document of the given format."""
    if fmt == "text":
        return [block + "\n" for block in out.split("\n\n") if block.startswith("phi_")]
    if fmt == "tex":
        return re.findall(r"% \\varphi_\{\d+\}\n.*?\\\]\n", out, re.S)
    # each differential sits two levels deep in the document
    return [
        json.dumps(d, indent=2).replace("\n", "\n    ") for d in json.loads(out)["differentials"]
    ]


@pytest.mark.parametrize("fmt", ["text", "tex", "json"])
def test_resolve_streams_no_write_larger_than_one_matrix(monkeypatch, fmt):
    stream = WriteSizes()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["resolve", *SQUARES_CODIM2_RESOLVE_ARGS, "--format", fmt]) == 0
    out = stream.getvalue()
    matrices = _matrix_texts(fmt, out)
    assert len(matrices) == 4
    assert max(stream.sizes) <= max(map(len, matrices))
    if fmt != "json":  # text and TeX go out one line at a time
        assert max(stream.sizes) <= max(map(len, out.splitlines(keepends=True)))


def test_bad_input_with_out_leaves_no_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, _, err = run(
        capsys, "resolve", "--vars", "x,y", "--ideal", "x+y", "--ci", "x^2", "--max-step", "2",
        "--out", str(target),
    )
    assert code == 2 and err.startswith("error:")
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["text", "tex"])
@pytest.mark.parametrize(
    "argv, cells",
    [
        # ranks 1, 3, 4, 4, 4: 1*3 + 3*4 + 4*4 + 4*4
        (["resolve", *THREE_SQUARES_ARGS, "--max-step", "4"], 47),
        # ranks 1, 3, 3, 1: 1*3 + 3*3 + 3*1
        (["taylor", *TAYLOR_ARGS], 15),
    ],
    ids=["resolve", "taylor"],
)
def test_dense_output_cap(capsys, monkeypatch, tmp_path, argv, cells, fmt):
    """Above the cap, text and TeX exit 3 naming both numbers and leave no file; JSON has no cap."""
    monkeypatch.setattr(cli, "MAX_DENSE_CELLS", cells - 1)
    target = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--format", fmt, "--out", str(target))
    assert (code, out) == (3, "")
    assert err == (
        f"error: dense output would have {cells} matrix cells, above the cap of {cells - 1}"
        " (--format json writes only the nonzero entries)\n"
    )
    assert not target.exists()
    assert run(capsys, *argv, "--format", "json")[0] == 0
    monkeypatch.setattr(cli, "MAX_DENSE_CELLS", cells)
    assert run(capsys, *argv, "--format", fmt)[0] == 0


@pytest.mark.parametrize(
    "command, names, extra, cells",
    [
        ("resolve", "abcdefghijklmn", ["--ci", "a^3+b^3", "--max-step", "14"], 464066712),
        ("taylor", "abcdefghijklmnop", ["--format", "tex"], 565722720),
    ],
    ids=["resolve", "taylor"],
)
def test_default_cap_refuses_before_building(capsys, monkeypatch, command, names, extra, cells):
    """r = 14, N = 14 text and the r = 16 Taylor TeX are refused before any Taylor complex is built."""
    import citaylor.homotopy as homotopy_mod

    def refuse(ideal):
        raise AssertionError("the Taylor complex was built")

    monkeypatch.setattr(cli, "taylor_complex", refuse)
    monkeypatch.setattr(homotopy_mod, "taylor_complex", refuse)
    ideal = ",".join(f"{v}^2" for v in names)
    code, _, err = run(capsys, command, "--vars", ",".join(names), "--ideal", ideal, *extra)
    assert code == 3
    assert f" {cells} matrix cells" in err and f"cap of {cli.MAX_DENSE_CELLS}" in err
    assert cli.MAX_DENSE_CELLS == 10**8


def test_seed_env_controls_rng(monkeypatch):
    monkeypatch.setenv("CITAYLOR_SEED", "12345")
    first = seeded_rng().random()
    monkeypatch.setenv("CITAYLOR_SEED", "12345")
    assert seeded_rng().random() == first
    monkeypatch.setenv("CITAYLOR_SEED", "54321")
    assert seeded_rng().random() != first


def test_package_imports_without_site_packages():
    """Every module imports under python -S: the package needs the standard library only."""
    src = Path(citaylor.__file__).parents[1]
    names = [m.name for m in pkgutil.walk_packages(citaylor.__path__, "citaylor.")]
    assert "citaylor.quotient" in names
    script = "import importlib, sys\nfor name in sys.argv[1:]:\n    importlib.import_module(name)\n"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *names], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """They cost start-up time that every run pays. Only the modules the import adds
    count, so a module the interpreter loads before it, from a .pth file say, does not."""
    script = (
        "import sys\nbefore = set(sys.modules)\nimport citaylor, citaylor.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(citaylor.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "citaylor.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added)


def unused_imports(source):
    """(line, name) of each name the module imports and then never reads, or also
    binds by ``def``, assignment or argument, which hides the import where the
    new name is read; __future__ is exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
    read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    rebound = {node.id for node in names if isinstance(node.ctx, ast.Store)}
    rebound |= {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    rebound |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in read or name in rebound
    )


def test_modules_use_every_name_they_import():
    """``__init__`` re-exports its imports; every other module reads each one it imports."""
    source = "from __future__ import annotations\nimport os, sys\nfrom json import dumps as d\n"
    assert unused_imports(source + "sys.exit()\n") == [(2, "os"), (3, "d")]
    hidden = "def f(x, d=1):\n    def sys(): pass\n    return d(x) + sys()\n"
    assert unused_imports(source + "os.sep\n" + hidden) == [(2, "sys"), (3, "d")]
    assert unused_imports(source + "os, sys = d(1), 2\n") == [(2, "os"), (2, "sys")]
    src = Path(citaylor.__file__).parent
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: dead for name, dead in found.items() if dead} == {}


def test_benchmark_trace_targets_exist():
    """Every function perfbench's tracer wraps in the package still exists under that name."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(owner, attr) for _, owner, attr, _, _ in tracer.TARGETS if owner != "workloads"]
    assert len(targets) >= 30
    missing = []
    for owner, attr in targets:
        module, _, cls = owner.partition(":")
        holder = importlib.import_module(module)
        if not hasattr(getattr(holder, cls, None) if cls else holder, attr):
            missing.append(f"{owner}.{attr}")
    assert missing == []


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(citaylor.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "citaylor", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: citaylor")


def test_closed_stdout_pipe_exits_141_quietly():
    """A reader that stops after one line ends the run as SIGPIPE would, not as bad input."""
    env = dict(os.environ, PYTHONPATH=str(Path(citaylor.__file__).parents[1]))
    names = "abcdefgh"
    argv = [
        "resolve", "--vars", ",".join(names), "--ideal", ",".join(f"{v}^2" for v in names),
        "--ci", "a^3+b^3", "--max-step", "8",
    ]  # about 460 KB of text, far more than a pipe buffer holds
    with subprocess.Popen(
        [sys.executable, "-m", "citaylor", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        assert proc.stdout.readline().startswith("resolution over QQ[a,b,c,d,e,f,g,h]")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == ""
