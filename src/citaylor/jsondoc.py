"""JSON documents of complexes and resolutions, and the writers that print them.

The documents are plain dicts and lists; ``iterdump`` writes any of them exactly
as ``json.dumps(doc, indent=2)`` would, plus a final newline, one member or
list item at a time, and ``dump`` is the same text as one string.
``iterdump_resolution`` and ``iterdump_taylor`` write the same text as the
document of a resolution or a Taylor complex without building it: the modules
and differentials are read from the complex one record at a time.
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


def _resolution_head(res):
    """The members of a resolution's document before its modules: ring, ideal, ci and lift."""
    system = res.system
    ci = system.ci
    return {
        "ring": ring_json(system.ring),
        "ideal": [system.ring.format_monomial(m) for m in ci.ideal.generators],
        "ci": [str(a) for a in ci.sequence],
        "lift": [[str(p) for p in row] for row in system.lift.rows],
    }


def _resolution_reports(res, extra_reports):
    reports = own_reports_json(res)
    if extra_reports:
        reports.update(extra_reports)
    return reports


def _taylor_head(cx):
    ideal = cx.ideal
    return {
        "ring": ring_json(ideal.ring),
        "ideal": [ideal.ring.format_monomial(m) for m in ideal.generators],
        "ci": [],
    }


def resolution_json(res, extra_reports=None):
    return {
        **_resolution_head(res),
        **sections_json(res),
        "reports": _resolution_reports(res, extra_reports),
    }


def taylor_json(cx):
    return {**_taylor_head(cx), **sections_json(cx), "reports": {}}


def iterdump_resolution(res, extra_reports=None):
    """The text of ``dump(resolution_json(res, extra_reports))``, from ``iterdump_sections``."""
    return iterdump_sections(_resolution_head(res), res, _resolution_reports(res, extra_reports))


def iterdump_taylor(cx):
    """The text of ``dump(taylor_json(cx))``, from ``iterdump_sections``."""
    return iterdump_sections(_taylor_head(cx), cx, {})


def iterdump_sections(head, cx, reports):
    """The text of ``dump({**head, **sections_json(cx), "reports": reports})``, built from cx.

    cx is anything with bases and differentials, sequences that it holds
    while the text is read.  head and reports are small documents and go
    through ``iterdump``'s pieces.  The modules and differentials are read
    from cx itself: each basis element and each entry record is one f-string
    and one piece, so no document of cx is built and no piece holds more than
    one record.  An entry object that fills many cells is encoded once; its
    text is kept under its id, which no other object takes while cx holds it.
    """
    sep = "{\n  "
    for key, value in head.items():
        yield sep + encode_basestring_ascii(key) + ": "
        yield from _pieces(value, "\n  ", 1)
        sep = ",\n  "
    yield sep + '"modules": '
    ints = {}
    yield from _list_pieces((_module_pieces(basis, ints) for basis in cx.bases), "\n  ")
    yield ',\n  "differentials": '
    texts = {}
    yield from _list_pieces(
        (_matrix_pieces(k, mat, texts) for k, mat in enumerate(cx.differentials, start=1)),
        "\n  ",
    )
    yield ',\n  "reports": '
    yield from _pieces(reports, "\n  ", 1)
    yield "\n}\n"


def _list_pieces(items, nl):
    """A JSON list whose items come as pieces of their own; nl is the newline and indent of
    the list's own line."""
    inner = nl + "  "
    sep = "[" + inner
    for pieces in items:
        yield sep
        yield from pieces
        sep = "," + inner
    yield "[]" if sep[0] == "[" else nl + "]"


def _module_pieces(basis, ints):
    """The basis as a list of records; ints maps a tuple of ints to its text, filled as
    tuples are met."""
    nl = "\n        "
    sep = "[\n      "
    for b in basis:
        u = ints.get(b.u)
        if u is None:
            u = ints[b.u] = "".join(_pieces(list(b.u), nl, 0))
        s = ints.get(b.indices)
        if s is None:
            s = ints[b.indices] = "".join(_pieces(list(b.indices), nl, 0))
        yield f'{sep}{{{nl}"u": {u},{nl}"S": {s},{nl}"twist": {int.__repr__(b.twist)}\n      }}'
        sep = ",\n      "
    yield "[]" if sep[0] == "[" else "\n    ]"


def _matrix_pieces(k, mat, texts):
    """Differential k's record; texts maps id(entry) to its encoded text, filled as entries
    are met."""
    nl = "\n      "
    yield f'{{{nl}"from": {k},{nl}"to": {k - 1},{nl}"entries": '
    field = "\n          "
    sep = "[\n        "
    entries = mat.entries
    for cell in sorted(entries):
        p = entries[cell]
        text = texts.get(id(p))
        if text is None:
            text = texts[id(p)] = encode_basestring_ascii(str(p))
        yield (
            f'{sep}{{{field}"row": {cell[0]},{field}"col": {cell[1]},'
            f'{field}"poly": {text}\n        }}'
        )
        sep = ",\n        "
    yield ("[]" if sep[0] == "[" else nl + "]") + "\n    }"


def iterdump(doc):
    """The text of ``json.dumps(doc, indent=2) + "\\n"`` in pieces, without json's Python encoder.

    The document and the containers it holds are written member by member,
    and each value nested two deep is one piece: in a document of
    ``sections_json``, a whole module or a whole matrix.

    json.dumps encodes in pure Python whenever indent is set.  Here strings
    go through the C ``encode_basestring_ascii`` and ints through
    ``int.__repr__``, and a list of ints is one join.  Values may be str,
    int, bool, None, lists and dicts with str keys, which is all a document
    holds.
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
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
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
