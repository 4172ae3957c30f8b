"""Command line front end.

Subcommands: taylor, resolve, verify, betti, export-dot, check-exactness.
Exit codes: 0 success, 1 a verification reported failure, 2 bad input,
3 a computation cap was exceeded, 141 (128 + SIGPIPE) the reader of stdout
closed the pipe.

Polynomials print in grlex (degree, then lex); ``jsondoc`` reads and writes
the JSON format.

Every writer is a generator of text pieces: a line, one matrix row, or
for JSON one record read straight from the complex.  ``emit`` writes them
as they come, so neither the text nor a JSON document of the whole complex
is ever held.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import partial
from math import comb
from operator import mul

from .homotopy import (
    HomotopySystem,
    complete_intersection,
    lift_matrix,
    verify_homotopy_system,
)
from . import jsondoc
from .jsondoc import dump, iterdump_resolution, iterdump_taylor, parse_assignments, report_json
from .poly import QQ, ParseError, PolyRing, PrimeField, render_terms
from .quotient import BadPrime, CapExceeded, GradedExactness, check_exactness
from .shamash import phi_squared_check, rank_formula, shamash_resolution
from .taylor import MonomialIdeal, monomial_generator, taylor_complex, verify_taylor

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_PIPE = 141

EDGE_COLORS = ("red", "orange", "purple", "brown", "cyan4", "magenta")

# Text and TeX print every cell of every matrix.  Above this many cells,
# sum_n rank F_{n-1} * rank F_n, the request is refused before anything is built.
MAX_DENSE_CELLS = 10**8

# The JSON format lives in jsondoc.  These names stay in cli for library callers and for the
# benchmark: it calls cli.resolution_json and cli.resolution_from_json, and its tracer patches
# them, cli._dump and cli.lift_matrix_from_rows.
resolution_json, taylor_json, _dump = jsondoc.resolution_json, jsondoc.taylor_json, dump
resolution_from_json = jsondoc.resolution_from_json
lift_matrix_from_rows = jsondoc.lift_matrix_from_rows


# ---- text rendering ------------------------------------------------------


def u_dividers(labels):
    """Positions where the divided-power index u changes; Taylor elements all have u = ()."""
    return {i for i in range(1, len(labels)) if labels[i].u != labels[i - 1].u}


def _axes(cx, render):
    """(label texts, u-block dividers) of each basis, so each label renders once per document.

    The columns of differential k are the rows of differential k + 1.
    """
    return [([render(b) for b in basis], u_dividers(basis)) for basis in cx.bases]


def _entry_texts(mat, render):
    """row -> [(column, text)] of the row's entries."""
    by_row = {}
    for (i, j), p in mat.entries.items():
        by_row.setdefault(i, []).append((j, render(p)))
    return by_row


def _dense_rows(row_texts, by_row, ncols):
    """Each row as its label and ncols cells, "0" where it has no entry, built one at a time."""
    zeros = ["0"] * ncols
    for i, label in enumerate(row_texts):
        values = [label, *zeros]
        for j, text in by_row.get(i, ()):
            values[j + 1] = text
        yield values


def matrix_text(mat, name, rows, cols):
    """Right-aligned columns, each as wide as its label or its widest entry; one line per row.

    rows and cols are the (label texts, dividers) pairs of ``_axes``.  No label
    is shorter than the "0" of an absent entry, so the labels start the widths.
    """
    (row_texts, row_dividers), (col_texts, col_dividers) = rows, cols
    by_row = _entry_texts(mat, str)
    widths = [len(c) for c in col_texts]
    for cells in by_row.values():
        for j, text in cells:
            if len(text) > widths[j]:
                widths[j] = len(text)
    fields = []
    for j, width in enumerate(widths):
        if j in col_dividers:
            fields.append("|")
        fields.append(f"{{:>{width}}}")
    template = "  ".join(fields)
    row_width = max(map(len, row_texts), default=0)
    line = f"  {{:>{row_width}}} [ {template} ]\n"
    yield f"{name}:\n"
    yield " " * (row_width + 5) + template.format(*col_texts) + "\n"
    for i, values in enumerate(_dense_rows(row_texts, by_row, len(col_texts))):
        text = line.format(*values)
        if i in row_dividers:
            yield "  " + "-" * (len(text) - 3) + "\n"
        yield text


def module_text(basis):
    runs = []
    for b in basis:
        if runs and runs[-1][0] == b.twist:
            runs[-1][1] += 1
        else:
            runs.append([b.twist, 1])
    parts = []
    for twist, count in runs:
        base = "R" if twist == 0 else f"R(-{twist})"
        parts.append(base if count == 1 else f"{base}^{count}")
    return " (+) ".join(parts)


def ring_text(ring):
    return f"{ring.field}[{','.join(ring.variables)}]"


def minimality_text(report):
    if report.minimal:
        return ["minimality: minimal (every entry lies in the maximal ideal)"]
    return ["minimality: NOT minimal"] + [f"  {line}" for line in report.describe()]


def periodicity_text(info):
    if info.status == "periodic":
        return f"periodicity: tail repeats with period 2 from step {info.start}"
    if info.status == "none":
        return "periodicity: no shift-stable tail inside the computed window"
    return "periodicity: not applicable (sequence length != 1)"


def sections_text(cx, module, name):
    """Each module, then each differential, of anything with bases and differentials."""
    for k, basis in enumerate(cx.bases):
        yield f"{module}_{k} = {module_text(basis)}\n"
    axes = _axes(cx, str)
    for k, mat in enumerate(cx.differentials, start=1):
        yield "\n"
        yield from matrix_text(mat, f"{name}_{k}", axes[k - 1], axes[k])


def taylor_text(cx):
    ideal = cx.ideal
    gens = ", ".join(ideal.ring.format_monomial(m) for m in ideal.generators)
    yield f"taylor complex of <{gens}> over {ring_text(ideal.ring)}\n"
    yield "\n"
    yield from sections_text(cx, "T", "tau")


def resolution_lines(res):
    system = res.system
    ci = system.ci
    ring = system.ring
    gens = ", ".join(ring.format_monomial(m) for m in ci.ideal.generators)
    yield f"resolution over {ring_text(ring)} / ({', '.join(str(a) for a in ci.sequence)})\n"
    yield f"ideal: {gens}\n"
    yield f"sequence degrees: {', '.join(str(d) for d in ci.degrees)}\n"
    yield "lift rows (columns follow the generators):\n"
    for i, row in enumerate(system.lift.rows, start=1):
        yield f"  f[{i}] = [{', '.join(str(p) for p in row)}]\n"
    yield "\n"
    yield from sections_text(res, "F", "phi")
    yield "\n"
    for line in minimality_text(res.minimality):
        yield line + "\n"
    yield periodicity_text(res.periodicity) + "\n"


def resolution_text(res):
    """The text of ``resolution_lines(res)`` as one string, for library callers."""
    return "".join(resolution_lines(res))


# ---- latex ---------------------------------------------------------------


def _name_tex(name):
    r"""Trailing digits become a subscript: x1 and x_1 both render as x_{1}.

    Every other underscore is escaped, so a_b1 renders as a\_b_{1} and x_ as x\_.
    """
    head = name.rstrip("0123456789")
    base = head[:-1] if head.endswith("_") else head
    if head != name and base:
        return base.replace("_", r"\_") + f"_{{{name[len(head):]}}}"
    return name.replace("_", r"\_")


def _coeff_tex(mag):
    if isinstance(mag, Fraction) and mag.denominator != 1:
        return rf"\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
    return str(mag)


def poly_tex(poly):
    names = [_name_tex(v) for v in poly.ring.variables]

    def mono_tex(e):
        return "".join(v + (f"^{{{k}}}" if k > 1 else "") for v, k in zip(names, e) if k)

    return render_terms(poly, _coeff_tex, mono_tex, "")


def label_tex(label):
    text = str(label)
    if text == "{}":
        return r"\emptyset"
    return text.replace("*", r" \cdot ").replace("y(", "y^{(").replace(")", ")}")


def matrix_tex(mat, name, rows, cols, texts):
    """A LaTeX array, one line per row; texts maps id(entry) to its TeX, filled as entries appear.

    The document's matrices hold every entry for as long as texts is used, so
    no id is reused while it is a key.
    """
    (row_texts, row_dividers), (col_texts, col_dividers) = rows, cols

    def render(p):
        text = texts.get(id(p))
        if text is None:
            text = texts[id(p)] = poly_tex(p)
        return text

    by_row = _entry_texts(mat, render)
    colspec = []
    for j in range(len(col_texts)):
        if j in col_dividers:
            colspec.append("|")
        colspec.append("r")
    yield f"% {name}\n"
    yield "\\[\n"
    yield f"{name} = \n"
    yield r"\begin{array}{c|" + "".join(colspec) + "}\n"
    yield " & ".join(["", *col_texts]) + r" \\ \hline" + "\n"
    for i, values in enumerate(_dense_rows(row_texts, by_row, len(col_texts))):
        if i in row_dividers:
            yield "\\hline\n"
        yield " & ".join(values) + r" \\" + "\n"
    yield "\\end{array}\n"
    yield "\\]\n"


def sections_tex(cx, module, name):
    """Each module as a comment, then each differential as an array."""
    for k, basis in enumerate(cx.bases):
        yield f"% {module}_{k} = {module_text(basis)}\n"
    axes = _axes(cx, label_tex)
    texts = {}
    for k, mat in enumerate(cx.differentials, start=1):
        yield from matrix_tex(mat, f"{name}_{{{k}}}", axes[k - 1], axes[k], texts)


def resolution_tex(res):
    mods = " \\to ".join(f"F_{{{n}}}" for n in range(res.max_step, -1, -1))
    yield f"% {mods}\n"
    yield from sections_tex(res, "F", r"\varphi")


def taylor_tex(cx):
    return sections_tex(cx, "T", r"\tau")


# ---- dot -----------------------------------------------------------------


def dot_text(cx, system=None):
    """Divisibility graph of the Taylor complex, plus sigma edges when system is given."""
    yield "digraph resolution {\n"
    yield "  rankdir=LR;\n"
    for parity in (0, 1):
        names = "; ".join(f'"{b}"' for basis in cx.bases[parity::2] for b in basis)
        yield f"  {{ rank=same; {names}; }}\n"
    maps = [("blue", tau) for tau in cx.differentials]
    if system is not None:
        for i in range(1, system.ci.codim + 1):
            color = EDGE_COLORS[(i - 1) % len(EDGE_COLORS)]
            maps += [(color, system.sigma_e(i, k)) for k in range(cx.ideal.ngens)]
    for color, mat in maps:
        for (i, j), p in sorted(mat.entries.items(), key=lambda kv: kv[0][::-1]):
            yield f'  "{mat.cols[j]}" -> "{mat.rows[i]}" [color={color}, label="{p}"];\n'
    yield "}\n"


# ---- argument plumbing ---------------------------------------------------


def build_ring(args):
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if args.char == 0:
        field = QQ
    else:
        try:
            field = PrimeField(args.char)
        except ValueError as exc:
            raise ValueError(f"--char: {exc}") from None
    return PolyRing(names, field)


def _elements(option, value, build, what):
    """build(text) of each comma-separated element of an option's value, blanks stripped.

    A ParseError names the option and counts its position from the start of the value.
    """
    out = []
    for m in re.finditer(r"[^,\s](?:[^,]*[^,\s])?", value):
        try:
            out.append(build(m[0]))
        except ParseError as exc:
            raise ParseError(f"{option}: {exc.message}", m.start() + exc.position) from None
    if not out:
        raise ValueError(f"{option} needs at least one {what}")
    return out


def build_ideal(args, ring):
    gens = _elements("--ideal", args.ideal, partial(monomial_generator, ring), "generator")
    return MonomialIdeal(ring, tuple(gens))


def build_ci(args, ideal):
    return complete_intersection(ideal, _elements("--ci", args.ci, ideal.ring.parse, "element"))


def build_lift(args, ci):
    spec = "first" if args.lift is None else args.lift
    if spec in ("first", "average"):
        return lift_matrix(ci, spec)
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"lift file {path} is not valid JSON: {exc}") from None
        docs = doc if isinstance(doc, list) else [doc]
        return lift_matrix(ci, [parse_assignments(ci.ring, d) for d in docs])
    raise ValueError(f"--lift must be first, average, or file:PATH (got {spec!r})")


def _check_dense_cells(ranks):
    """Refuse dense output of maps between modules of these ranks when it has too many cells."""
    cells = sum(map(mul, ranks, ranks[1:]))
    if cells > MAX_DENSE_CELLS:
        raise CapExceeded(
            f"dense output would have {cells} matrix cells, above the cap of {MAX_DENSE_CELLS}"
            " (--format json writes only the nonzero entries)"
        )


def emit(args, pieces):
    """Write the text pieces as they come, to --out or to stdout.

    The file is opened here, once the object to print is built, so input that
    fails to build leaves no file behind.
    """
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# ---- commands ------------------------------------------------------------


def _write(args, obj, text, tex, json_pieces):
    """Emit obj through the writer that args.format names."""
    if args.format == "json":
        emit(args, json_pieces(obj))
    elif args.format == "tex":
        emit(args, tex(obj))
    else:
        emit(args, text(obj))
    return EXIT_OK


def cmd_taylor(args):
    ideal = build_ideal(args, build_ring(args))
    if args.format != "json":
        _check_dense_cells([comb(ideal.ngens, k) for k in range(ideal.ngens + 1)])
    cx = taylor_complex(ideal)
    return _write(args, cx, taylor_text, taylor_tex, iterdump_taylor)


def _build_ci(args):
    return build_ci(args, build_ideal(args, build_ring(args)))


def _build_system(args, ci):
    return HomotopySystem(build_lift(args, ci))


def _build_resolution(args):
    return shamash_resolution(_build_system(args, _build_ci(args)), args.max_step)


def cmd_resolve(args):
    ci = _build_ci(args)
    if args.format != "json":
        r, c = ci.ideal.ngens, ci.codim
        _check_dense_cells([rank_formula(r, c, n) for n in range(args.max_step + 1)])
    res = shamash_resolution(_build_system(args, ci), args.max_step)
    return _write(args, res, resolution_lines, resolution_tex, iterdump_resolution)


def _exactness_reports(res, args):
    """check_exactness at steps 1..N-1, all sharing one engine."""
    engine = GradedExactness(res)
    return [check_exactness(engine, n, args.max_degree) for n in range(1, res.max_step)]


def _emit_reports(args, res, reports):
    passed = all(r.passed for r in reports)
    if args.format == "json":
        emit(args, iterdump_resolution(res, {r.title: report_json(r) for r in reports}))
    else:
        out = [r.summary() + "\n" for r in reports]
        out.append("overall: " + ("PASS" if passed else "FAIL") + "\n")
        emit(args, out)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_verify(args):
    res = _build_resolution(args)
    system = res.system
    reports = [
        verify_taylor(system.complex),
        verify_homotopy_system(system),
        phi_squared_check(res),
    ]
    if args.max_degree is not None:
        reports.extend(_exactness_reports(res, args))
    return _emit_reports(args, res, reports)


def cmd_betti(args):
    bounds = [rank_formula(args.gens, args.codim, n) for n in range(args.max_step + 1)]
    if args.format == "json":
        emit(args, [dump({"r": args.gens, "c": args.codim, "bounds": bounds})])
    else:
        lines = [
            f"betti number bounds: r={args.gens} generators, sequence length c={args.codim}\n",
            "  n  bound\n",
        ]
        for n, b in enumerate(bounds):
            lines.append(f"{n:>3}  {b}\n")
        emit(args, lines)
    return EXIT_OK


def cmd_export_dot(args):
    if args.ci:
        system = _build_system(args, _build_ci(args))
        emit(args, dot_text(system.complex, system))
    elif args.lift is not None:
        raise ValueError("--lift needs --ci: there is no sequence to lift without it")
    else:
        emit(args, dot_text(taylor_complex(build_ideal(args, build_ring(args)))))
    return EXIT_OK


def cmd_check_exactness(args):
    res = _build_resolution(args)
    if res.max_step < 2:
        raise ValueError("--max-step must be at least 2 so one window exists")
    return _emit_reports(args, res, _exactness_reports(res, args))


# ---- parser --------------------------------------------------------------


def _add_ring_arguments(sp):
    sp.add_argument("--vars", required=True, help="comma-separated variable names")
    sp.add_argument(
        "--char", type=int, default=0, help="coefficient characteristic: 0 (default) or a prime"
    )
    sp.add_argument(
        "--ideal", required=True, help="comma-separated monomial generators, e.g. 'x*y,x*z'"
    )


def degree(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0 (got {value})")
    return value


def _add_format_argument(sp, choices=("text", "json", "tex")):
    sp.add_argument("--format", choices=choices, default="text")
    sp.add_argument("--out", help="write output to this file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="citaylor",
        description=(
            "Taylor resolutions of monomial ideals, explicit homotopies for a "
            "regular sequence, and resolutions over the quotient."
        ),
        epilog=(
            "Lift files for --lift file:PATH contain "
            '{"assignments": [{"term": "x^2*z", "gen": 1}, ...]} '
            "(a JSON list of such objects when the sequence has length > 1)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("taylor", help="build and print the Taylor complex")
    _add_ring_arguments(sp)
    _add_format_argument(sp)
    sp.set_defaults(func=cmd_taylor)

    sp = sub.add_parser("resolve", help="assemble the resolution over the quotient")
    _add_ring_arguments(sp)
    sp.add_argument("--ci", required=True, help="comma-separated sequence elements")
    sp.add_argument("--lift", default="first", help="first | average | file:PATH")
    sp.add_argument("--max-step", type=degree, required=True, help="resolve up to F_N")
    _add_format_argument(sp)
    sp.set_defaults(func=cmd_resolve)

    sp = sub.add_parser("verify", help="check every defining identity exactly")
    _add_ring_arguments(sp)
    sp.add_argument("--ci", required=True)
    sp.add_argument("--lift", default="first")
    sp.add_argument("--max-step", type=degree, default=6)
    sp.add_argument(
        "--max-degree",
        type=degree,
        default=None,
        help="also check graded exactness up to this internal degree",
    )
    _add_format_argument(sp, choices=("text", "json"))
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("betti", help="rank bounds from the closed formula")
    sp.add_argument("--gens", type=int, required=True, help="number of ideal generators r")
    sp.add_argument("--codim", type=int, required=True, help="sequence length c")
    sp.add_argument("--max-step", type=degree, default=10)
    _add_format_argument(sp, choices=("text", "json"))
    sp.set_defaults(func=cmd_betti)

    sp = sub.add_parser("export-dot", help="divisibility graph with homotopy edges")
    _add_ring_arguments(sp)
    sp.add_argument("--ci", default=None, help="optional sequence: adds homotopy edges")
    sp.add_argument("--lift", default=None, help="first (default) | average | file:PATH; needs --ci")
    sp.add_argument("--out", help="write output to this file instead of stdout")
    sp.set_defaults(func=cmd_export_dot)

    sp = sub.add_parser("check-exactness", help="graded homology vanishing over GF(p)")
    _add_ring_arguments(sp)
    sp.add_argument("--ci", required=True)
    sp.add_argument("--lift", default="first")
    sp.add_argument("--max-step", type=degree, required=True)
    sp.add_argument("--max-degree", type=degree, default=10)
    _add_format_argument(sp, choices=("text", "json"))
    sp.set_defaults(func=cmd_check_exactness)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        code = args.func(args)
        sys.stdout.flush()  # a pipe closed before the last buffered piece fails here
        return code
    except BrokenPipeError:
        # the reader went away: end quietly, as a producer killed by SIGPIPE does,
        # with stdout on devnull so the flush at shutdown has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, BadPrime, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
