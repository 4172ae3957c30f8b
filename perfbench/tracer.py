"""Spans and work counts around the calls into each layer of citaylor.

Nothing under ``src/`` knows about this module.  ``install`` replaces public
functions and methods, at the module or class where callers look them up,
with wrappers that record a span per call and add work counts computed from
the call's arguments and return value.  Spans (name, start, end, parent,
operation) stay in memory in flat arrays and are written once, by ``write``.

A span's self time is its duration minus the time its child spans cover.
The cost of a wrapper's own bookkeeping is charged to neither the child nor
the parent, so it shows only as the gap between a traced and an untraced run.
"""
from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter_ns


def _compose_products(counts, args, result):
    left, right = args[0], args[1]
    per_col = {}
    for _, j in left.entries:
        per_col[j] = per_col.get(j, 0) + 1
    counts["matrix.compose_calls"] += 1
    counts["matrix.compose_products"] += sum(per_col.get(j, 0) for j, _ in right.entries)


def _mul_pairs(counts, args, result):
    left, right = args[0], args[1]
    counts["poly.mul_calls"] += 1
    other = len(right.terms) if hasattr(right, "terms") else 1
    counts["poly.mul_term_pairs"] += len(left.terms) * other


def _calls(metric):
    def count(counts, args, result):
        counts[metric] += 1

    return count


def _subsets(counts, args, result):
    counts["taylor.subsets"] += sum(len(b) for b in result.bases)


def _sigma_build(counts, args):
    system, i, k = args[0], args[1], args[2]
    if (i, k) not in getattr(system, "_sigma", ()):
        counts["homotopy.sigma_builds"] += 1


def _basis_elements(counts, args, result):
    counts["shamash.basis_elements"] += len(result)


def _nnz(counts, args, result):
    counts["shamash.nnz"] += len(result.entries)


def _buchberger(counts, args, result):
    counts["quotient.buchberger_calls"] += 1
    counts["quotient.gb_size"] += len(result.polys)


def _graded_dim(counts, args, result):
    counts["quotient.graded_dim_total"] += len(result.monomials)


def _rank_cells(counts, args, result):
    rows = args[0]
    counts["quotient.rank_calls"] += 1
    counts["quotient.rank_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _output_bytes(counts, args, result):
    counts["cli.output_bytes"] += len(result.encode())


# (span name, owner, attribute, count after the call, count before the call).
# The owner is "module" or "module:Class"; the same function is patched at
# every module that imported it by name.
TARGETS = [
    ("matrix.compose", "citaylor.matrix:LabeledGradedMatrix", "compose", _compose_products, None),
    ("poly.mul", "citaylor.poly:Polynomial", "__mul__", _mul_pairs, None),
    ("poly.parse", "citaylor.poly:PolyRing", "parse", _calls("poly.parse_calls"), None),
    ("taylor.complex", "citaylor.taylor", "taylor_complex", _subsets, None),
    ("taylor.complex", "citaylor.homotopy", "taylor_complex", _subsets, None),
    ("taylor.complex", "citaylor.cli", "taylor_complex", _subsets, None),
    ("taylor.verify", "citaylor.taylor", "verify_taylor", None, None),
    ("taylor.verify", "citaylor.cli", "verify_taylor", None, None),
    ("homotopy.lift", "citaylor.homotopy", "lift_matrix", None, None),
    ("homotopy.lift", "citaylor.homotopy", "lift_matrix_from_rows", None, None),
    ("homotopy.lift", "citaylor.cli", "lift_matrix", None, None),
    ("homotopy.lift", "citaylor.cli", "lift_matrix_from_rows", None, None),
    ("homotopy.sigma", "citaylor.homotopy:HomotopySystem", "sigma_e", None, _sigma_build),
    ("homotopy.verify", "citaylor.homotopy", "verify_homotopy_system", None, None),
    ("homotopy.verify", "citaylor.cli", "verify_homotopy_system", None, None),
    ("shamash.basis", "citaylor.shamash", "shamash_basis", _basis_elements, None),
    ("shamash.differential", "citaylor.shamash", "shamash_differential", _nnz, None),
    ("shamash.resolution", "citaylor.shamash", "shamash_resolution", None, None),
    ("shamash.resolution", "citaylor.cli", "shamash_resolution", None, None),
    ("shamash.phi_check", "citaylor.shamash", "phi_squared_check", None, None),
    ("shamash.phi_check", "citaylor.cli", "phi_squared_check", None, None),
    ("quotient.exactness", "citaylor.quotient", "check_exactness", None, None),
    ("quotient.exactness", "citaylor.cli", "check_exactness", None, None),
    ("quotient.buchberger", "citaylor.quotient", "buchberger", _buchberger, None),
    ("quotient.normal_form", "citaylor.quotient", "normal_form", _calls("quotient.normal_form_calls"), None),
    ("quotient.graded_piece", "citaylor.quotient", "graded_piece_basis", _graded_dim, None),
    ("quotient.rank", "citaylor.quotient", "rank_mod_p", _rank_cells, None),
    ("cli.json_emit", "citaylor.cli", "resolution_json", None, None),
    ("cli.json_emit", "citaylor.cli", "_dump", _output_bytes, None),
    ("cli.json_emit", "workloads", "dump_json", _output_bytes, None),
    ("cli.json_load", "citaylor.cli", "resolution_from_json", None, None),
    ("cli.json_load", "workloads", "load_json", None, None),
    ("cli.text_render", "citaylor.cli", "resolution_text", _output_bytes, None),
]

# Per-layer metrics of the traced run: self times of the spans above, then
# the work counts.  Every one is reported on every workload, zero when the
# workload does not reach that layer.
SELF_TIMES = {
    "matrix.compose_s": "matrix.compose",
    "poly.mul_s": "poly.mul",
    "poly.parse_s": "poly.parse",
    "taylor.complex_s": "taylor.complex",
    "taylor.verify_s": "taylor.verify",
    "homotopy.lift_s": "homotopy.lift",
    "homotopy.sigma_s": "homotopy.sigma",
    "homotopy.verify_s": "homotopy.verify",
    "shamash.basis_s": "shamash.basis",
    "shamash.differential_s": "shamash.differential",
    "shamash.phi_check_s": "shamash.phi_check",
    "quotient.exactness_s": "quotient.exactness",
    "quotient.buchberger_s": "quotient.buchberger",
    "quotient.normal_form_s": "quotient.normal_form",
    "quotient.graded_piece_s": "quotient.graded_piece",
    "quotient.rank_s": "quotient.rank",
    "cli.json_emit_s": "cli.json_emit",
    "cli.json_load_s": "cli.json_load",
    "cli.text_render_s": "cli.text_render",
}
COUNTS = (
    "matrix.compose_calls",
    "matrix.compose_products",
    "poly.mul_calls",
    "poly.mul_term_pairs",
    "poly.parse_calls",
    "taylor.subsets",
    "homotopy.sigma_builds",
    "shamash.basis_elements",
    "shamash.nnz",
    "quotient.buchberger_calls",
    "quotient.gb_size",
    "quotient.normal_form_calls",
    "quotient.graded_dim_total",
    "quotient.rank_calls",
    "quotient.rank_cells",
    "cli.output_bytes",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.ops = []
        self.op = -1
        self._op_frame = None
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.span_op = array("i")
        self.self_ns = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing = []
        # open spans: [span index, name, start, ns covered by children]
        self._stack = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.setdefault(name, 0)
        return self._name_ids[name]

    def push(self, nid, name):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.end.append(0)
        frame = [idx, name, 0, 0]
        self._stack.append(frame)
        frame[2] = perf_counter_ns()
        self.start.append(frame[2])
        return frame

    def pop(self, frame):
        now = perf_counter_ns()
        idx, name, start, covered = frame
        self.end[idx] = now
        self.self_ns[name] += now - start - covered
        self._stack.pop()

    def cover(self, ns):
        if self._stack:
            self._stack[-1][3] += ns

    def begin_op(self, stage):
        self.op = len(self.ops)
        self.ops.append(stage)
        nid = self.name_id(f"op.{stage}")
        self._op_frame = self.push(nid, f"op.{stage}")

    def end_op(self):
        self.pop(self._op_frame)
        self.op = -1

    def wrap(self, name, fn, after=None, before=None):
        nid = self.name_id(name)
        counts = self.counts
        push, pop, cover = self.push, self.pop, self.cover

        def traced(*args, **kwargs):
            enter = perf_counter_ns()
            if before is not None:
                before(counts, args)
            frame = push(nid, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(frame)
            if after is not None:
                after(counts, args, result)
            cover(perf_counter_ns() - enter)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every target that exists; names that are gone are listed in ``missing``."""
        for name, owner, attr, after, before in TARGETS:
            module_name, _, cls_name = owner.partition(":")
            try:
                holder = importlib.import_module(module_name)
                if cls_name:
                    holder = getattr(holder, cls_name)
                fn = getattr(holder, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner}.{attr}")
                continue
            setattr(holder, attr, self.wrap(name, fn, after, before))

    def metrics(self):
        out = {m: self.self_ns.get(span, 0) / 1e9 for m, span in SELF_TIMES.items()}
        out.update(self.counts)
        return out

    def write(self, path):
        """All spans as columns; times in ns from the first span's start."""
        t0 = self.start[0] if self.start else 0
        doc = {
            "names": self.names,
            "operations": self.ops,
            "columns": ["name", "start_ns", "end_ns", "parent", "operation"],
            "name": self.name.tolist(),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "parent": self.parent.tolist(),
            "operation": self.span_op.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
