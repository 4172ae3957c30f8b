"""The JSON format of complexes and resolutions: its documents, writers and reader.

A document is plain dicts and lists, and ``dump`` writes it as
``json.dumps(doc, indent=2)`` does, plus a final newline.
``iterdump_resolution`` and ``iterdump_taylor`` write the same text as the
document of a resolution or a Taylor complex without building it: the modules
and differentials are read from the complex one record at a time.
A ring is its variables and its field, all that a document stores, so
``resolution_from_json`` rebuilds the resolution a document was written from,
and checks the document against it.  ``parse_assignments`` reads a lift file.
"""
from __future__ import annotations

import json
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .homotopy import HomotopySystem, complete_intersection, lift_matrix_from_rows
from .poly import QQ, PolyRing, PrimeField
from .shamash import shamash_resolution
from .taylor import monomial_ideal


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
    return {**own_reports_json(res), **(extra_reports or {})}


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
    while the text is read.  Each member of head, and reports, is one
    ``json.dumps`` piece.  The modules and differentials are read from cx
    itself: each basis element and each entry record is one f-string and one
    piece, so no document of cx is built and no piece holds more than one
    record.  An entry object that fills many cells is encoded once; its text
    is kept under its id, which no other object takes while cx holds it.
    """
    sep = "{\n  "
    for key, value in head.items():
        yield f"{sep}{json.dumps(key)}: {_nested(value)}"
        sep = ",\n  "
    yield sep + '"modules": '
    int_list = cache(_int_list)
    yield from _list_pieces((_module_pieces(basis, int_list) for basis in cx.bases), "\n  ")
    yield ',\n  "differentials": '
    texts = {}
    yield from _list_pieces(
        (_matrix_pieces(k, mat, texts) for k, mat in enumerate(cx.differentials, start=1)),
        "\n  ",
    )
    yield f',\n  "reports": {_nested(reports)}\n}}\n'


def _nested(value):
    """value's JSON, indented as a member of the document."""
    # json.dumps writes a newline inside a string as the escape \n, so every newline of the
    # text is one that indent put there, and each line moves in by the member's two spaces
    return json.dumps(value, indent=2).replace("\n", "\n  ")


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


def _module_pieces(basis, int_list):
    """The basis as a list of records; int_list gives the text of a u or an S."""
    nl = "\n        "
    sep = "[\n      "
    for b in basis:
        u, s = int_list(b.u), int_list(b.indices)
        yield f'{sep}{{{nl}"u": {u},{nl}"S": {s},{nl}"twist": {int.__repr__(b.twist)}\n      }}'
        sep = ",\n      "
    yield "[]" if sep[0] == "[" else "\n    ]"


def _int_list(ints):
    """The JSON of a u or an S, a member of a basis element's record."""
    inner = "\n          "
    return f"[{inner}{(',' + inner).join(map(int.__repr__, ints))}\n        ]" if ints else "[]"


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


def dump(doc):
    """The text of a whole document: ``json.dumps(doc, indent=2)`` and a final newline."""
    return json.dumps(doc, indent=2) + "\n"


def _list_of(kind):
    return lambda value: isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _field(value, field, what, ok=_list_of(str)):
    """value when ok accepts it, else a ValueError naming the field."""
    if not ok(value):
        raise ValueError(f"{field} must be {what}, got {json.dumps(value)}")
    return value


def _ints(values):
    """Whether every value is an int: JSON's true, false and 2.0 compare equal to ints."""
    return set(map(type, values)) <= {int}


def resolution_from_json(doc):
    """Rebuild the resolution and cross-check it, each field against its JSON type first."""
    _field(doc, "document", "an object", lambda v: isinstance(v, dict))
    ring_doc = _field(doc.get("ring"), "ring", "an object", lambda v: isinstance(v, dict))
    names = _field(ring_doc.get("vars"), "ring.vars", "a list of variable names")
    char = _field(ring_doc.get("char"), "ring.char", "an integer", lambda v: type(v) is int)
    ring = PolyRing(tuple(names), QQ if char == 0 else PrimeField(char))
    ideal = monomial_ideal(ring, _field(doc.get("ideal"), "ideal", "a list of monomials"))
    ci = complete_intersection(ideal, _field(doc.get("ci"), "ci", "a list of polynomials"))
    lift = _field(doc.get("lift"), "lift", "a list of rows", _list_of(list))
    modules = _field(doc.get("modules"), "modules", "a list of modules", _list_of(list))
    dmats = _field(doc.get("differentials"), "differentials", "a list of matrices", _list_of(dict))
    reports = _field(doc.get("reports"), "reports", "an object", lambda v: isinstance(v, dict))
    parse = cache(ring.parse)  # each distinct string is parsed once
    rows = [[parse(s) for s in _field(row, "lift rows", "lists of polynomials")] for row in lift]
    res = shamash_resolution(HomotopySystem(lift_matrix_from_rows(ci, rows)), len(modules) - 1)
    for n, module in enumerate(modules):
        try:  # checked as it is read: basis elements are the bulk of a document
            stored = [(tuple(e["u"]), tuple(e["S"]), e["twist"]) for e in module]
            labels = chain.from_iterable(map(itemgetter(0, 1), stored))
            if not _ints(chain(map(itemgetter(2), stored), *labels)):
                raise TypeError("a basis element holds a non-int")
        except (KeyError, TypeError):
            raise ValueError(
                f"modules[{n}] must be a list of basis elements, got {json.dumps(module)}"
            ) from None
        if stored != [(b.u, b.indices, b.twist) for b in res.basis(n)]:
            raise ValueError(f"stored basis at step {n} does not match the data")
    steps = [d.get("from") for d in dmats]
    if steps != list(range(1, res.max_step + 1)) or not _ints(steps):
        raise ValueError("stored differentials do not run from 1 to the last module")
    for m, dmat in enumerate(dmats):
        if dmat.get("to") != dmat["from"] - 1 or type(dmat["to"]) is not int:
            raise ValueError(f"stored differential {dmat['from']} maps to step {dmat.get('to')}")
        entries = res.differential(dmat["from"]).entries
        try:  # checked as it is read, like the modules
            stored = {(e["row"], e["col"]): e["poly"] for e in dmat["entries"]}
            if not _ints(chain.from_iterable(stored)):
                raise TypeError("an entry's row or col is not an int")
            # a text equal to the canonical one needs no parse; any other must parse to the entry
            matches = stored.keys() == entries.keys() and all(
                text == str(entries[cell]) or parse(text) == entries[cell]
                for cell, text in stored.items()
            )
        except (KeyError, TypeError):
            raise ValueError(
                f"differentials[{m}] must be a matrix of row/col/poly entries, got {json.dumps(dmat)}"
            ) from None
        if not matches:
            raise ValueError(f"stored differential {dmat['from']} does not match the data")
    # verify --format json stores more reports; only the resolution's own are rebuilt
    for name, report in own_reports_json(res).items():
        if reports.get(name) != report:
            raise ValueError(f"stored {name} report does not match the data")
    return res


def parse_assignments(ring, doc):
    """Decode {"assignments": [{"term": "x^2*z", "gen": 1}, ...]} into a term -> generator map."""
    items = doc.get("assignments") if isinstance(doc, dict) else None
    if not isinstance(items, list):
        raise ValueError(f'expected {{"assignments": [...]}}, got {json.dumps(doc)}')
    out = {}
    for item in items:
        if not isinstance(item, dict) or not isinstance(item.get("term"), str):
            raise ValueError(f'assignment {json.dumps(item)} needs a "term" string')
        p = ring.parse(item["term"])
        if len(p.terms) != 1:
            raise ValueError(f"term pattern {item['term']!r} is not a single monomial")
        (e, c), = p.terms.items()
        if c != ring.field.one:
            raise ValueError(f"term pattern {item['term']!r} must be a bare monomial")
        gen = item.get("gen")
        if not isinstance(gen, int) or isinstance(gen, bool):
            raise ValueError(
                f"assignment 'gen' must be a 1-based integer index (got {json.dumps(gen)})"
            )
        if e in out:
            raise ValueError(f"term pattern {item['term']!r} assigned twice")
        out[e] = gen
    return out
