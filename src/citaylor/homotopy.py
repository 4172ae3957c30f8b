"""Higher homotopies on the Taylor complex for a regular sequence in the ideal.

Given generators m_1..m_r and a homogeneous sequence a_1..a_c with every
a_i in <m_1..m_r>, a lift is a c x r matrix f with sum_j f_ij * m_j = a_i,
exactly.  Row i induces the degree +1 map

    sigma_i(e_S) = sum_{t not in S} (-1)^(k - p - 1) * f_it * (m_t lcm(S) / lcm(S+t)) * e_{S+t}

where k = |S| and p is the 1-based position of t inside S + {t}.  Together
with sigma_0 = tau these satisfy the homotopy conditions checked by
verify_homotopy_system; all higher sigma_u (|u| >= 2) vanish for this family.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .matrix import LabeledGradedMatrix, defect
from .poly import Polynomial
from .report import Report
from .taylor import MonomialIdeal, taylor_complex

LIFT_STRATEGIES = ("first", "fixed-assignment", "average")


class NotInIdeal(ValueError):
    """A term of the sequence is divisible by no ideal generator."""


class NonHomogeneous(ValueError):
    """Sequence elements must be homogeneous and nonzero."""


@dataclass(frozen=True)
class CompleteIntersectionData:
    ring: object
    ideal: MonomialIdeal
    sequence: tuple[Polynomial, ...]
    degrees: tuple[int, ...]

    @property
    def codim(self):
        return len(self.sequence)


def complete_intersection(ideal, sequence):
    """Bundle an ideal with a homogeneous sequence (strings are parsed)."""
    ring = ideal.ring
    polys = []
    for a in sequence:
        p = ring.parse(a) if isinstance(a, str) else a
        if p.is_zero():
            raise NonHomogeneous("sequence elements must be nonzero")
        if not p.is_homogeneous():
            raise NonHomogeneous(f"{p} is not homogeneous")
        polys.append(p)
    if not polys:
        raise ValueError("sequence must have length >= 1")
    return CompleteIntersectionData(
        ring, ideal, tuple(polys), tuple(p.total_degree() for p in polys)
    )


@dataclass(frozen=True)
class LiftMatrix:
    """c x r matrix f with sum_j f[i][j] * m_j = a_i for every row i."""

    ci: CompleteIntersectionData
    rows: tuple[tuple[Polynomial, ...], ...]

    def entry(self, i, t):
        """f_{i,t} with both indices 1-based."""
        return self.rows[i - 1][t - 1]


def check_lift(ci, rows):
    """sum_t f[i,t] * m_t = a_i, and each nonzero f[i,t] is homogeneous of
    degree deg a_i - deg m_t, so that every sigma entry is graded."""
    gens = ci.ideal.generator_polys()
    for i, (row, a) in enumerate(zip(rows, ci.sequence), start=1):
        total = ci.ring.zero
        for f, m in zip(row, gens):
            total = total + f * m
        if total != a:
            raise ValueError(f"row {i} is not a lift: sum f*m = {total}, expected {a}")
        for t, (f, m) in enumerate(zip(row, ci.ideal.generators), start=1):
            degree = ci.degrees[i - 1] - sum(m)
            if f and (not f.is_homogeneous() or f.total_degree() != degree):
                raise ValueError(
                    f"lift entry f[{i},{t}] = {f} is not homogeneous of degree {degree}"
                )


def compute_lift(a, ideal, strategy="first", assignments=None):
    """One lift row for a single polynomial a = sum_j f_j * m_j.

    ``first`` routes each term of a to its smallest dividing generator,
    ``average`` spreads it uniformly over all dividing generators, and
    ``fixed-assignment`` follows an explicit term -> generator map
    (exponent tuple -> 1-based generator index).
    """
    if strategy not in LIFT_STRATEGIES:
        raise ValueError(f"unknown lift strategy {strategy!r}")
    ring = ideal.ring
    row = [dict() for _ in range(ideal.ngens)]

    def add(t, exponents, coeff):
        acc = row[t - 1]
        prev = acc.get(exponents)
        acc[exponents] = coeff if prev is None else prev + coeff

    for e, c in a.terms.items():
        divisors = {}  # 1-based index of each generator dividing the term -> term / generator
        for t, m in enumerate(ideal.generators, start=1):
            quot = tuple(map(sub, e, m))
            if min(quot) >= 0:
                divisors[t] = quot
        if not divisors:
            raise NotInIdeal(f"term {ring.term(e, c)} lies outside the ideal")
        if strategy == "first":
            t = next(iter(divisors))
            add(t, divisors[t], c)
        elif strategy == "average":
            try:
                share = ring.field.coerce(Fraction(1, len(divisors)))
            except ZeroDivisionError:
                raise ValueError(
                    f"cannot average over {len(divisors)} divisors in "
                    f"characteristic {ring.field.characteristic}"
                ) from None
            for t, quot in divisors.items():
                add(t, quot, c * share)
        else:
            if assignments is None:
                raise ValueError("fixed-assignment strategy needs an assignment map")
            t = assignments.get(e)
            if t is None:
                raise ValueError(f"no assignment for term {ring.format_exponents(e) or '1'}")
            if not 1 <= t <= ideal.ngens:
                raise ValueError(f"assignment index {t} out of range 1..{ideal.ngens}")
            if t not in divisors:
                raise ValueError(
                    f"generator {t} does not divide term {ring.format_exponents(e) or '1'}"
                )
            add(t, divisors[t], c)
    return tuple(Polynomial(ring, terms) for terms in row)


def lift_matrix(ci, strategy="first", assignments=None):
    """Lift every sequence element; assignments is one map per row when fixed."""
    rows = []
    for i, a in enumerate(ci.sequence):
        amap = None
        if strategy == "fixed-assignment":
            if assignments is None or len(assignments) != len(ci.sequence):
                raise ValueError("fixed-assignment needs one assignment map per row")
            amap = assignments[i]
        rows.append(compute_lift(a, ci.ideal, strategy, amap))
    rows = tuple(rows)
    check_lift(ci, rows)
    return LiftMatrix(ci, rows)


def lift_matrix_from_rows(ci, rows):
    rows = tuple(tuple(row) for row in rows)
    if len(rows) != len(ci.sequence) or any(len(r) != ci.ideal.ngens for r in rows):
        raise ValueError("lift matrix must be c x r")
    check_lift(ci, rows)
    return LiftMatrix(ci, rows)


def parse_assignments(ring, doc):
    """Decode {"assignments": [{"term": "x^2*z", "gen": 1}, ...]}."""
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


def average_lifts(lifts, weights):
    """Entrywise convex combination of lift matrices for the same data."""
    if len(lifts) != len(weights) or not lifts:
        raise ValueError("need one weight per lift")
    ci = lifts[0].ci
    if any(lift.ci != ci for lift in lifts):
        raise ValueError("lifts belong to different sequences")
    weights = [Fraction(w) for w in weights]
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if sum(weights) != 1:
        raise ValueError(f"weights sum to {sum(weights)}, expected 1")
    field = ci.ring.field
    try:
        coerced = [field.coerce(w) for w in weights]
    except ZeroDivisionError as exc:
        raise ValueError(f"weight unusable in characteristic {field.characteristic}: {exc}") from None
    rows = []
    for i in range(len(ci.sequence)):
        row = []
        for j in range(ci.ideal.ngens):
            total = ci.ring.zero
            for lift, w in zip(lifts, coerced):
                total = total + lift.rows[i][j].scale(w)
            row.append(total)
        rows.append(tuple(row))
    return lift_matrix_from_rows(ci, rows)


class HomotopySystem:
    """Taylor differential plus one homotopy per sequence element."""

    __slots__ = ("ci", "lift", "complex", "_sigma")

    def __init__(self, ci, lift):
        if lift.ci != ci:
            raise ValueError("lift was computed for different data")
        self.ci = ci
        self.lift = lift
        self.complex = taylor_complex(ci.ideal)
        self._sigma = {}

    @property
    def ring(self):
        return self.ci.ring

    @property
    def ideal(self):
        return self.ci.ideal

    def sigma_zero(self, k):
        """tau_k: T_k -> T_{k-1}."""
        return self.complex.differential(k)

    def sigma_e(self, i, k):
        """The homotopy for sequence element i on T_k, landing in T_{k+1}.

        Valid for 0 <= k <= r; at k = r the target module is zero.
        """
        if not 1 <= i <= self.ci.codim:
            raise ValueError(f"sequence index {i} out of range 1..{self.ci.codim}")
        r = self.ideal.ngens
        if not 0 <= k <= r:
            raise ValueError(f"homological degree {k} out of range 0..{r}")
        cached = self._sigma.get((i, k))
        if cached is not None:
            return cached
        gens = self.ideal.generators
        cols = self.complex.basis(k)
        rows = self.complex.basis(k + 1)
        row_index = {lab.indices: idx for idx, lab in enumerate(rows)}
        signs = (self.ring.field.one, -self.ring.field.one)
        shared = {}  # (t, quotient exponents, sign) -> the one entry they all refer to
        entries = {}
        for j, col in enumerate(cols):
            present = set(col.indices)
            for t in range(1, r + 1):
                if t in present:
                    continue
                f = self.lift.entry(i, t)
                if f.is_zero():
                    continue
                union = tuple(sorted(col.indices + (t,)))
                target = rows[row_index[union]]
                # m_t * lcm(S) / lcm(S + t), a monomial since lcm(S + t) divides m_t * lcm(S)
                quot = tuple(map(sub, map(add, gens[t - 1], col.lcm), target.lcm))
                pos = union.index(t) + 1
                odd = (k - pos - 1) % 2
                key = (t, quot, odd)
                poly = shared.get(key)
                if poly is None:
                    poly = shared[key] = f.mul_term(quot, signs[odd])
                entries[(row_index[union], j)] = poly
        built = LabeledGradedMatrix(self.ring, rows, cols, entries)
        self._sigma[(i, k)] = built
        return built


def homotopy_system(ci, lift=None, strategy="first", assignments=None):
    if lift is None:
        lift = lift_matrix(ci, strategy, assignments)
    return HomotopySystem(ci, lift)


def verify_homotopy_system(system):
    """Exact check of the identities that involve the homotopies.

    (b) tau.sigma_i + sigma_i.tau = a_i on every T_k;
    (c) sigma_i.sigma_j + sigma_j.sigma_i = 0 for i < j, and sigma_i^2 = 0.
    Missing maps at the boundary (k = 0 and k = r) are zero.  tau.tau = 0 is
    the Taylor complex's own identity, and verify_taylor checks it.
    """
    report = Report("homotopy system")
    r = system.ideal.ngens
    c = system.ci.codim

    for i in range(1, c + 1):
        a = system.ci.sequence[i - 1]
        for k in range(0, r + 1):
            pairs = []
            if k < r:
                pairs.append((system.sigma_zero(k + 1), system.sigma_e(i, k)))
            if k >= 1:
                pairs.append((system.sigma_e(i, k - 1), system.sigma_zero(k)))
            diagonal = (((d, d), a) for d in range(len(system.complex.basis(k))))
            report.check(
                defect(pairs, diagonal),
                f"(b) tau.sigma_{i} + sigma_{i}.tau = a_{i} on T_{k}",
                f"(b) fails for a_{i} on T_{k} at ({{row}}, {{col}}): defect {{entry}}",
            )

    for i in range(1, c + 1):
        for j in range(i, c + 1):
            for k in range(0, r - 1):
                left, right = system.sigma_e(i, k + 1), system.sigma_e(j, k)
                if i == j:  # sigma_i^2 = 0 is a single composition
                    residual = left.compose(right)
                else:
                    pairs = [(left, right), (system.sigma_e(j, k + 1), system.sigma_e(i, k))]
                    residual = defect(pairs)
                report.check(
                    residual,
                    f"(c) sigma_{i}, sigma_{j} anticommute on T_{k}",
                    f"(c) fails for sigma_{i}, sigma_{j} on T_{k} at ({{row}}, {{col}}): {{entry}}",
                )
    return report
