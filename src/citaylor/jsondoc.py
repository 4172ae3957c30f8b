"""JSON documents of complexes and resolutions, and the writer that prints them.

The documents are plain dicts and lists; ``iterdump`` writes any of them exactly
as ``json.dumps(doc, indent=2)`` would, plus a final newline, one member or
list item at a time, and ``dump`` is the same text as one string.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii


def ring_json(ring):
    return {"vars": list(ring.variables), "char": ring.field.characteristic}


def sections_json(cx):
    """The modules, each element as its u, S and twist, then the differentials."""
    return {
        "modules": [
            [{"u": list(b.u), "S": list(b.indices), "twist": b.twist} for b in basis]
            for basis in cx.bases
        ],
        "differentials": [
            {
                "from": k,
                "to": k - 1,
                "entries": [
                    {"row": i, "col": j, "poly": str(mat.entries[(i, j)])}
                    for i, j in sorted(mat.entries)
                ],
            }
            for k, mat in enumerate(cx.differentials, start=1)
        ],
    }


def report_json(report):
    return {"passed": report.passed, "details": report.details, "failure": report.failure}


def own_reports_json(res):
    """The reports a resolution carries with it: minimality and periodicity."""
    return {
        "minimality": {
            "minimal": res.minimality.minimal,
            "witnesses": res.minimality.describe() if not res.minimality.minimal else [],
        },
        "periodicity": {"status": res.periodicity.status, "start": res.periodicity.start},
    }


def resolution_json(res, extra_reports=None):
    system = res.system
    ci = system.ci
    reports = own_reports_json(res)
    if extra_reports:
        reports.update(extra_reports)
    return {
        "ring": ring_json(system.ring),
        "ideal": [system.ring.format_monomial(m) for m in ci.ideal.generators],
        "ci": [str(a) for a in ci.sequence],
        "lift": [[str(p) for p in row] for row in system.lift.rows],
        **sections_json(res),
        "reports": reports,
    }


def taylor_json(cx):
    ideal = cx.ideal
    return {
        "ring": ring_json(ideal.ring),
        "ideal": [ideal.ring.format_monomial(m) for m in ideal.generators],
        "ci": [],
        **sections_json(cx),
        "reports": {},
    }


_ENTRY_KEYS = ("row", "col", "poly")


def iterdump(doc):
    """The text of ``json.dumps(doc, indent=2) + "\\n"`` in pieces, without json's Python encoder.

    The document and the containers it holds are written member by member;
    each value nested two deep is one piece, so in "modules" and
    "differentials" each module and each matrix is one piece.

    json.dumps encodes in pure Python whenever indent is set.  Here strings
    go through the C ``encode_basestring_ascii`` and ints through
    ``int.__repr__``; each {"row", "col", "poly"} entry record with int, int
    and str values is one f-string, and a list of ints is one join.  Values
    may be str, int, bool, None, lists and dicts with str keys, which is all
    a document holds.
    """
    yield from _pieces(doc, "\n", 2)
    yield "\n"


def dump(doc):
    """The text of ``iterdump(doc)`` as one string."""
    return "".join(iterdump(doc))


def _pieces(value, nl, depth):
    """Pieces of value's JSON; containers less than depth deep are split into members."""
    if not (depth and value and isinstance(value, (list, dict))):
        out = []
        _encode(value, nl, out)
        yield "".join(out)
        return
    inner = nl + "  "
    if isinstance(value, dict):
        members = ((encode_basestring_ascii(key) + ": ", item) for key, item in value.items())
        sep, close = "{" + inner, nl + "}"
    else:
        members = (("", item) for item in value)
        sep, close = "[" + inner, nl + "]"
    for key, item in members:
        yield sep + key
        sep = "," + inner
        yield from _pieces(item, inner, depth - 1)
    yield close


def _encode(value, nl, out):
    """Append value's JSON to out; nl is a newline and the indent of value's own line."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(item) is int for item in value):
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{nl}]")
            return
        field = inner + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            if type(item) is dict and tuple(item) == _ENTRY_KEYS:
                row, col, poly = item.values()
                if type(row) is int and type(col) is int and type(poly) is str:
                    out.append(
                        f'{{{field}"row": {row},{field}"col": {col},'
                        f'{field}"poly": {encode_basestring_ascii(poly)}{inner}}}'
                    )
                    continue
            _encode(item, inner, out)
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _encode(item, inner, out)
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
