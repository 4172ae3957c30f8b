"""The streamed JSON writers: the same bytes as the documents they never build."""
import io
import re
import sys
from bisect import bisect
from types import SimpleNamespace

import pytest

from citaylor import GF, QQ, LabeledGradedMatrix, cli, homotopy_system, jsondoc
from citaylor.homotopy import complete_intersection
from citaylor.jsondoc import (
    dump,
    iterdump_resolution,
    iterdump_sections,
    iterdump_taylor,
    resolution_json,
    sections_json,
    taylor_json,
)
from citaylor.shamash import shamash_resolution

from conftest import build_three_squares, random_ideal, random_sequence, seeded_rng

THREE_SQUARES = ["--vars", "x,y,z", "--ideal", "x^2,y^2,z^2", "--ci", "x^2*z+x*y^2"]
SQUARES_CODIM2 = [
    "--vars", "a,b,c,d",
    "--ideal", "a^2,b^2,c^2,d^2",
    "--ci", "a^3+b^3,c^3+d^3",
    "--max-step", "4",
]


def random_resolutions(field, codim, lift):
    rng = seeded_rng()
    for _ in range(4):
        ideal = random_ideal(rng, max_vars=4, max_gens=4, field=field)
        ci = complete_intersection(ideal, random_sequence(rng, ideal, codim))
        yield shamash_resolution(homotopy_system(ci, lift), 4)


@pytest.mark.parametrize("lift", ["first", "average"])
@pytest.mark.parametrize("codim", [1, 2, 3])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_streamed_text_is_the_documents_text(field, codim, lift):
    for res in random_resolutions(field, codim, lift):
        assert "".join(iterdump_resolution(res)) == dump(resolution_json(res))
        cx = res.system.complex
        assert "".join(iterdump_taylor(cx)) == dump(taylor_json(cx))


def test_streamed_text_of_empty_modules_and_matrices():
    res = build_three_squares(max_step=0)
    assert res.differentials == ()
    assert "".join(iterdump_resolution(res)) == dump(resolution_json(res))
    ring = res.system.ring
    bases = build_three_squares(max_step=1).bases
    empty = LabeledGradedMatrix(ring, bases[0], bases[1], {})
    head, reports = {"ring": {"vars": ["x"], "char": 0}}, {"a": {"b": [1, None]}}
    for cx in (
        SimpleNamespace(bases=bases, differentials=(empty,)),
        SimpleNamespace(bases=((), ()), differentials=()),
        SimpleNamespace(bases=(), differentials=()),
    ):
        expected = dump({**head, **sections_json(cx), "reports": reports})
        assert "".join(iterdump_sections(head, cx, reports)) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", *SQUARES_CODIM2, "--format", "json"],
        ["verify", *THREE_SQUARES, "--max-step", "3", "--max-degree", "5", "--format", "json"],
        ["check-exactness", *THREE_SQUARES, "--max-step", "3", "--format", "json"],
    ],
)
def test_report_documents_stream_their_extra_reports(capsys, monkeypatch, argv):
    calls = []

    def recorded(res, extra_reports=None):
        calls.append((res, extra_reports))
        return iterdump_resolution(res, extra_reports)

    monkeypatch.setattr(cli, "iterdump_resolution", recorded)
    assert cli.main(argv) == 0
    ((res, extra),) = calls
    assert len(extra) > 1
    assert capsys.readouterr().out == dump(resolution_json(res, extra))


class Pieces(io.StringIO):
    """A stdout that keeps every piece written to it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


def refuse(*args, **kwargs):
    raise AssertionError("a JSON document was built")


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", *SQUARES_CODIM2, "--format", "json"],
        ["verify", *SQUARES_CODIM2, "--format", "json"],
        ["check-exactness", *SQUARES_CODIM2, "--format", "json"],
        ["taylor", "--vars", "x,y,z", "--ideal", "x*y,x*z,y*z,x^2", "--format", "json"],
    ],
)
def test_cli_json_builds_no_document_and_writes_one_matrix_at_a_time(monkeypatch, argv):
    expected = Pieces()
    monkeypatch.setattr(sys, "stdout", expected)
    assert cli.main(argv) == 0
    for owner, name in [
        (jsondoc, "resolution_json"),
        (jsondoc, "taylor_json"),
        (jsondoc, "sections_json"),
        (cli, "resolution_json"),
        (cli, "taylor_json"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    stream = Pieces()
    monkeypatch.setattr(sys, "stdout", stream)
    assert cli.main(argv) == 0
    text = stream.getvalue()
    assert text == expected.getvalue()
    # where each matrix's entries begin; no piece holds records of two of them
    starts = [m.start() for m in re.finditer('"entries": ', text)]
    assert len(starts) >= 3
    offset = 0
    for piece in stream.pieces:
        records = [offset + m.start() for m in re.finditer('"row": ', piece)]
        assert len({bisect(starts, at) for at in records}) <= 1
        offset += len(piece)
