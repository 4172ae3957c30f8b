"""The three benchmark workloads: their inputs, one timed pass, and the output checks.

Every call into the program goes through a module attribute
(``cli.main``, ``homotopy.lift_matrix``, ...) so that the wrappers the traced
run installs on those attributes see it.  The workloads never use
``citaylor.instances``: ``random-sweep`` has its own generator below.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
from fractions import Fraction
from time import perf_counter

from citaylor import cli, homotopy, poly, shamash, taylor

PRIME = 32003
SWEEP_STEP = 6

WIDE_VARS = "a,b,c,d,e,f,g,h,i,j"
WIDE_ARGS = [
    "--vars", WIDE_VARS,
    "--ideal", ",".join(f"{v}^2" for v in WIDE_VARS.split(",")),
    "--ci", "a^3+b^3",
    "--max-step", "10",
    "--lift", "first",
]
WIDE_GENS, WIDE_CODIM = 10, 1

EXACTNESS_ARGS = [
    "check-exactness",
    "--vars", "x,y,z,w",
    "--ideal", "x^2,y^2,z^2,w^2",
    "--ci", "x^3+y^3,z^3+w^3",
    "--max-step", "6",
    "--max-degree", "14",
]

# Every (variables, generators, codim) shape appears equally often in a sweep,
# so the sweep's total cost hardly depends on the seed.
SWEEP_SHAPES = [(v, g, c) for v in range(1, 5) for g in range(1, 7) for c in range(1, 4)]
SWEEP_INSTANCES = 3 * len(SWEEP_SHAPES)
SWEEP_VARIABLES = ("x", "y", "z", "w")

_EXACTNESS_HEADER = re.compile(r"^\[(?:PASS|FAIL)\] exactness at step (\d+)")
_EXACTNESS_LINE = re.compile(
    r"degree (\d+): dim (\d+), rank phi_\d+ = (\d+), rank phi_\d+ = (\d+)"
)


def dump_json(doc):
    """Serialise a resolution document the way ``citaylor resolve --format json`` does."""
    return json.dumps(doc, indent=2) + "\n"


def load_json(text):
    return json.loads(text)


def run_cli(argv):
    """``citaylor.cli.main`` with stdout captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _digest(*texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


def _ends_with_pass(text):
    lines = text.strip().splitlines()
    return bool(lines) and lines[-1] == "overall: PASS"


def _rank_mismatch(res, r, c):
    for n in range(res.max_step + 1):
        if res.rank(n) != shamash.rank_formula(r, c, n):
            return f"rank F_{n} = {res.rank(n)}, formula gives {shamash.rank_formula(r, c, n)}"
    return None


def exactness_values(text):
    """[(step, degree, dim, rank phi_n, rank phi_{n+1})] parsed from the report text."""
    out = []
    step = None
    for line in text.splitlines():
        header = _EXACTNESS_HEADER.match(line)
        if header:
            step = int(header.group(1))
            continue
        m = _EXACTNESS_LINE.search(line)
        if m and step is not None:
            out.append([step, *(int(g) for g in m.groups())])
    return out


class Recorder:
    """Times operations and counts the attempted and failed ones.

    An operation fails when it raises or when its check returns a message
    (wrong exit code or wrong output).  Only the operation itself is timed,
    never its check.  With a ``speed.SpeedProbe`` every time is at reference
    speed and ``factor`` is the last operation's reference-speed time over
    its own seconds; without one, times are seconds and ``factor`` is 1.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.times = {}  # stage -> time of each operation
        self.breakdown = {}  # stage -> time per pass, for operations split into stages
        self.total = 0.0  # sum of the times above
        self.wall = 0.0  # the same in seconds, less the probe's own runs
        self.factor = 1.0

    def op(self, stage, fn, check):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(stage)
        start = perf_counter()
        try:
            result = fn()
            end = perf_counter()
            problem = check(result)
        except Exception as exc:  # a raising operation counts as failed, the run goes on
            end = perf_counter()
            problem = f"raised {type(exc).__name__}: {exc}"
            result = None
        finally:
            if self.tracer is not None:
                self.tracer.end_op()
        if self.probe is None:
            elapsed = scaled = end - start
        else:
            elapsed, scaled = self.probe.rescale(start, end)
        self.factor = scaled / elapsed if elapsed > 0 else 1.0
        self.times.setdefault(stage, []).append(scaled)
        self.total += scaled
        self.wall += elapsed
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{stage}: {problem}")
        return result


class WideHypersurface:
    """resolve to JSON, load it back, then verify: r = 10 squares, a^3+b^3, N = 10."""

    def __init__(self, seed, expected, tmpdir):
        self.expected = expected["json_sha256"]
        self.out = str(tmpdir / "wide-hypersurface.json")
        self.resolve_argv = ["resolve", *WIDE_ARGS, "--format", "json", "--out", self.out]
        self.verify_argv = ["verify", *WIDE_ARGS]

    def run_pass(self, rec):
        rec.op("resolve", lambda: cli.main(self.resolve_argv), self._check_resolve)
        rec.op("roundtrip", self._roundtrip, self._check_roundtrip)
        rec.op("verify", lambda: run_cli(self.verify_argv), self._check_verify)

    def _check_resolve(self, code):
        if code != 0:
            return f"exit code {code}"
        with open(self.out, encoding="utf-8") as fh:
            digest = _digest(fh.read())
        if digest != self.expected:
            return f"JSON sha256 {digest} differs from the recorded {self.expected}"
        return None

    def _roundtrip(self):
        with open(self.out, encoding="utf-8") as fh:
            doc = load_json(fh.read())
        return cli.resolution_from_json(doc)

    def _check_roundtrip(self, res):
        return _rank_mismatch(res, WIDE_GENS, WIDE_CODIM)

    def _check_verify(self, result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if not _ends_with_pass(text):
            return "report does not end with 'overall: PASS'"
        return None


class ExactnessCodim2:
    """check-exactness on the codim-2 squares case up to internal degree 14."""

    def __init__(self, seed, expected, tmpdir):
        self.expected = expected["values"]

    def run_pass(self, rec):
        rec.op("exactness", lambda: run_cli(EXACTNESS_ARGS), self._check)

    def _check(self, result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if not _ends_with_pass(text):
            return "report does not end with 'overall: PASS'"
        values = exactness_values(text)
        if values != self.expected:
            got, want = next(
                (g, w) for g, w in itertools.zip_longest(values, self.expected) if g != w
            )
            return f"(step, degree, dim, rank, rank) {got} differs from the recorded {want}"
        return None


def _random_exponents(rng, nvars, degree):
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _format_term(coeff, exps):
    mono = "*".join(
        v if e == 1 else f"{v}^{e}" for v, e in zip(SWEEP_VARIABLES, exps) if e
    )
    if not mono:
        return str(coeff)
    return mono if coeff == 1 else f"{coeff}*{mono}"


def sweep_instances(seed, count=SWEEP_INSTANCES):
    """Small instances as the strings a user would type.

    Shapes cycle through SWEEP_SHAPES; the seed picks generators, sequence
    elements and coefficients.  Fields alternate QQ / GF(32003) on every
    instance, lifts alternate first / average on every second one, so all
    four combinations occur.
    """
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        nvars, ngens, codim = SWEEP_SHAPES[idx % len(SWEEP_SHAPES)]
        char = 0 if idx % 2 == 0 else PRIME
        top = 3 if nvars > 1 else 6
        gens = set()
        while len(gens) < ngens:
            gens.add(_random_exponents(rng, nvars, rng.randint(1, top)))
        gens = sorted(gens)
        coeffs = [-3, -2, -1, 1, 2, 3]
        if char == 0:
            coeffs += [Fraction(1, 2), Fraction(-2, 3)]
        sequence = []
        while len(sequence) < codim:
            # the number of generator multiples per element cycles rather than
            # being drawn, which keeps the sweep's cost nearly seed-independent
            size = min(ngens, 1 + (idx // len(SWEEP_SHAPES) + len(sequence)) % 3)
            picks = sorted(rng.sample(range(ngens), size))
            degree = max(sum(gens[t]) for t in picks) + rng.randint(0, 2)
            terms = {}
            for t in picks:
                pad = _random_exponents(rng, nvars, degree - sum(gens[t]))
                e = tuple(a + b for a, b in zip(gens[t], pad))
                terms[e] = terms.get(e, 0) + rng.choice(coeffs)
            terms = {e: c for e, c in sorted(terms.items(), reverse=True) if c}
            if terms:
                text = " + ".join(_format_term(c, e) for e, c in terms.items())
                sequence.append(text.replace("+ -", "- "))
        out.append({
            "vars": SWEEP_VARIABLES[:nvars],
            "char": char,
            "ideal": [_format_term(1, g) for g in gens],
            "ci": sequence,
            "lift": "first" if (idx // 2) % 2 == 0 else "average",
        })
    return out


class RandomSweep:
    """Small random instances through the library API, one operation each."""

    def __init__(self, seed, expected, tmpdir):
        self.instances = sweep_instances(seed)
        self.digests = expected["digests"] if seed == expected["seed"] else None
        self.split = {}  # stage -> seconds, of the last instance

    def run_pass(self, rec):
        sums = {}
        for idx, inst in enumerate(self.instances):
            self.split = {}
            rec.op("instance", lambda: self._instance(inst), lambda out: self._check(idx, inst, out))
            for stage, seconds in self.split.items():
                sums[stage] = sums.get(stage, 0.0) + seconds * rec.factor
        for stage, total in sums.items():
            rec.breakdown.setdefault(stage, []).append(total)

    def _instance(self, inst):
        t0 = perf_counter()
        field = poly.QQ if inst["char"] == 0 else poly.PrimeField(inst["char"])
        ring = poly.PolyRing(inst["vars"], field)
        ideal = taylor.monomial_ideal(ring, inst["ideal"])
        ci = homotopy.complete_intersection(ideal, inst["ci"])
        lift = homotopy.lift_matrix(ci, inst["lift"])
        system = homotopy.homotopy_system(ci, lift)
        res = shamash.shamash_resolution(system, SWEEP_STEP)
        text = cli.resolution_text(res)
        blob = dump_json(cli.resolution_json(res))
        t1 = perf_counter()
        reports = (homotopy.verify_homotopy_system(system), shamash.phi_squared_check(res))
        t2 = perf_counter()
        back = cli.resolution_from_json(load_json(blob))
        t3 = perf_counter()
        self.split = {"resolve": t1 - t0, "verify": t2 - t1, "roundtrip": t3 - t2}
        return res, reports, back, text, blob

    def _check(self, idx, inst, out):
        res, reports, back, text, blob = out
        for report in reports:
            if not report.passed:
                return f"{report.title}: {report.failure}"
        r, c = len(inst["ideal"]), len(inst["ci"])
        problem = _rank_mismatch(res, r, c) or _rank_mismatch(back, r, c)
        if problem:
            return problem
        if self.digests is not None:
            digest = _digest(text, blob)[:16]
            if digest != self.digests[idx]:
                return f"instance {idx} output digest {digest} differs from the recorded one"
        return None


WORKLOADS = {
    "wide-hypersurface": WideHypersurface,
    "exactness-codim2": ExactnessCodim2,
    "random-sweep": RandomSweep,
}
