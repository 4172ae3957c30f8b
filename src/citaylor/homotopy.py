"""Higher homotopies on the Taylor complex for a regular sequence in the ideal.

Given generators m_1..m_r and a homogeneous sequence a_1..a_c with every
a_i in <m_1..m_r>, a lift is a c x r matrix f with sum_j f_ij * m_j = a_i,
exactly.  Row i induces the degree +1 map

    sigma_i(e_S) = sum_{t not in S} (-1)^(k - p - 1) * f_it * (m_t lcm(S) / lcm(S+t)) * e_{S+t}

where k = |S| and p is the 1-based position of t inside S + {t}.  This is
tau_{k+1} transposed: tau_{k+1} has the entry (-1)^(k + 1 - p) * x^q at
(S, S+t), with x^q = lcm(S+t) / lcm(S), and k + 1 - p has the parity of
k - p - 1, so sigma_i has f_it * x^(m_t - q) times that same sign at
(S+t, S).  sigma_e reads each entry, and t, off tau's face order.  Together
with sigma_0 = tau these satisfy the homotopy conditions checked by
verify_homotopy_system; all higher sigma_u (|u| >= 2) vanish for this family.

The lift is the one free choice, and a HomotopySystem is built from it alone.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import sub

from .matrix import LabeledGradedMatrix, defects
from .poly import Polynomial
from .report import Report
from .taylor import taylor_complex

LIFT_STRATEGIES = ("first", "average")


class NotInIdeal(ValueError):
    """A term of the sequence is divisible by no ideal generator."""


class NonHomogeneous(ValueError):
    """Sequence elements must be homogeneous and nonzero."""


class CompleteIntersectionData(namedtuple("CompleteIntersectionData", "ring ideal sequence degrees")):
    __slots__ = ()

    @property
    def codim(self):
        return len(self.sequence)


def sequence_element(ring, a):
    """a, parsed when it is a string, once it is checked nonzero and homogeneous."""
    p = ring.parse(a) if isinstance(a, str) else a
    if p.is_zero():
        raise NonHomogeneous("sequence elements must be nonzero")
    if not p.is_homogeneous():
        raise NonHomogeneous(f"{p} is not homogeneous")
    return p


def complete_intersection(ideal, sequence):
    """Bundle an ideal with a homogeneous sequence (strings are parsed)."""
    ring = ideal.ring
    polys = [sequence_element(ring, a) for a in sequence]
    if not polys:
        raise ValueError("sequence must have length >= 1")
    return CompleteIntersectionData(
        ring, ideal, tuple(polys), tuple(p.total_degree() for p in polys)
    )


class LiftMatrix(namedtuple("LiftMatrix", "ci rows")):
    """c x r matrix f with sum_j f[i][j] * m_j = a_i for every row i."""

    __slots__ = ()

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


def compute_lift(a, ideal, rule="first"):
    """One lift row for a single polynomial a = sum_j f_j * m_j.

    ``"first"`` routes each term of a to its smallest dividing generator,
    ``"average"`` spreads it uniformly over all dividing generators, and a
    dict (exponent tuple -> 1-based generator index) routes it explicitly.
    """
    if rule not in LIFT_STRATEGIES and not isinstance(rule, dict):
        raise ValueError(f"unknown lift strategy {rule!r}")
    ring = ideal.ring
    row = [dict() for _ in range(ideal.ngens)]  # term / m_t -> coefficient, one key per term
    for e, c in a.terms.items():
        divisors = {}  # 1-based index of each generator dividing the term -> term / generator
        for t, m in enumerate(ideal.generators, start=1):
            quot = tuple(map(sub, e, m))
            if min(quot) >= 0:
                divisors[t] = quot
        if not divisors:
            raise NotInIdeal(f"term {ring.term(e, c)} lies outside the ideal")
        if rule == "first":
            t = next(iter(divisors))
            row[t - 1][divisors[t]] = c
        elif rule == "average":
            try:
                share = ring.field.coerce(Fraction(1, len(divisors)))
            except ZeroDivisionError:
                raise ValueError(
                    f"cannot average over {len(divisors)} divisors in "
                    f"characteristic {ring.field.characteristic}"
                ) from None
            for t, quot in divisors.items():
                row[t - 1][quot] = c * share
        else:
            t = rule.get(e)
            if t is None:
                raise ValueError(f"no assignment for term {ring.format_exponents(e) or '1'}")
            if not 1 <= t <= ideal.ngens:
                raise ValueError(f"assignment index {t} out of range 1..{ideal.ngens}")
            if t not in divisors:
                raise ValueError(
                    f"generator {t} does not divide term {ring.format_exponents(e) or '1'}"
                )
            row[t - 1][divisors[t]] = c
    return tuple(Polynomial(ring, terms) for terms in row)


def lift_matrix(ci, rule="first"):
    """Lift every sequence element by one compute_lift rule, or by a list of one per element."""
    rules = list(rule) if isinstance(rule, (list, tuple)) else [rule] * ci.codim
    if len(rules) != ci.codim:
        raise ValueError(f"lift has {len(rules)} assignment rows, sequence has {ci.codim}")
    rows = tuple(compute_lift(a, ci.ideal, r) for a, r in zip(ci.sequence, rules))
    check_lift(ci, rows)
    return LiftMatrix(ci, rows)


def lift_matrix_from_rows(ci, rows):
    rows = tuple(tuple(row) for row in rows)
    if len(rows) != len(ci.sequence) or any(len(r) != ci.ideal.ngens for r in rows):
        raise ValueError("lift matrix must be c x r")
    check_lift(ci, rows)
    return LiftMatrix(ci, rows)


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
    """Taylor differential plus one homotopy per sequence element, read off the lift."""

    __slots__ = ("ci", "lift", "complex", "identities", "_sigma", "_residuals")

    def __init__(self, lift):
        self.ci = lift.ci
        self.lift = lift
        self.complex = taylor_complex(lift.ci.ideal)
        r, c = self.ideal.ngens, self.ci.codim
        # (i, None, k) for (b) on T_k, then (i, j, k) for (c) on T_k, in report order
        self.identities = (
            *((i, None, k) for i in range(1, c + 1) for k in range(r + 1)),
            *((i, j, k) for i in range(1, c + 1) for j in range(i, c + 1) for k in range(r - 1)),
        )
        self._sigma = {}
        self._residuals = {}  # operand ids -> (operands, residual); held operands keep ids unique

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

        Valid for 0 <= k <= r; at k = r the target module is zero.  tau_{k+1}
        lists column S + t's entries in face order, so the p-th is at (S, S + t)
        for the t at position p; an entry is built only where f_it is nonzero.
        """
        if not 1 <= i <= self.ci.codim:
            raise ValueError(f"sequence index {i} out of range 1..{self.ci.codim}")
        r = self.ideal.ngens
        if not 0 <= k <= r:
            raise ValueError(f"homological degree {k} out of range 0..{r}")
        cached = self._sigma.get((i, k))
        if cached is not None:
            return cached
        rows, cols = self.complex.basis(k + 1), self.complex.basis(k)
        gens = self.ideal.generators
        lift = self.lift.rows[i - 1]
        nonzero = {t for t, f in enumerate(lift, start=1) if f}
        tau = self.complex.differential(k + 1).entries if k < r else {}
        ts = chain.from_iterable(label.indices for label in rows)  # each tau entry's t, in order
        entries = {}
        shared = {}  # (t, tau entry) -> the one sigma entry they all refer to
        for ((s, st), p), t in zip(tau.items(), ts):  # sign * x^q at (S, S + t)
            if t in nonzero:
                poly = shared.get((t, id(p)))
                if poly is None:
                    (q, sign), = p.terms.items()
                    m_over_q = tuple(map(sub, gens[t - 1], q))
                    poly = shared[(t, id(p))] = lift[t - 1].mul_term(m_over_q, sign)
                entries[(st, s)] = poly
        built = LabeledGradedMatrix(self.ring, rows, cols, entries)
        self._sigma[(i, k)] = built
        return built

    def _identity(self, i, j, k):
        """(operands, pairs, corrections) of (b) for a_i on T_k if j is None, else
        of (c) for sigma_i, sigma_j on T_k.  The operands key the residual memo."""
        if j is None:
            pairs = [(self.sigma_zero(k + 1), self.sigma_e(i, k))] if k < self.ideal.ngens else []
            if k >= 1:
                pairs.append((self.sigma_e(i, k - 1), self.sigma_zero(k)))
            a = self.ci.sequence[i - 1]
            diagonal = (((d, d), a) for d in range(len(self.complex.basis(k))))
            return (*chain(*pairs), a), pairs, diagonal
        pairs = [(self.sigma_e(i, k + 1), self.sigma_e(j, k))]
        if i != j:  # sigma_i^2 = 0 is a single composition
            pairs.append((self.sigma_e(j, k + 1), self.sigma_e(i, k)))
        return (*chain(*pairs),), pairs, ()

    def residuals(self):
        """The residual of each identity of ``identities``, in order, kept per operand
        matrices: verify_homotopy_system and the phi.phi certificate share them, and a
        replaced sigma is checked afresh.  The missing ones take one defects call.
        """
        found = [self._identity(*key) for key in self.identities]
        order = [tuple(map(id, operands)) for operands, _, _ in found]
        missing = {ids: f for ids, f in zip(order, found) if ids not in self._residuals}
        for ids, result in zip(missing, defects([f[1:] for f in missing.values()])):
            self._residuals[ids] = (missing[ids][0], result)
        return [self._residuals[ids][1] for ids in order]


def homotopy_system(ci, lift="first"):
    """The system of a LiftMatrix for ci, or of the lift that lift_matrix(ci, lift) builds."""
    if not isinstance(lift, LiftMatrix):
        lift = lift_matrix(ci, lift)
    elif lift.ci != ci:
        raise ValueError("lift was computed for different data")
    return HomotopySystem(lift)


def verify_homotopy_system(system):
    """Exact check of the identities that involve the homotopies.

    (b) tau.sigma_i + sigma_i.tau = a_i on every T_k;
    (c) sigma_i.sigma_j + sigma_j.sigma_i = 0 for i < j, and sigma_i^2 = 0.
    Missing maps at the boundary (k = 0 and k = r) are zero.  Every identity
    not yet computed is computed in one defects call.  tau.tau = 0 is the
    Taylor complex's own identity, and verify_taylor checks it.
    """
    report = Report("homotopy system")
    for (i, j, k), residual in zip(system.identities, system.residuals()):
        if j is None:
            ok = f"(b) tau.sigma_{i} + sigma_{i}.tau = a_{i} on T_{k}"
            failure = f"(b) fails for a_{i} on T_{k} at ({{row}}, {{col}}): defect {{entry}}"
        else:
            ok = f"(c) sigma_{i}, sigma_{j} anticommute on T_{k}"
            failure = f"(c) fails for sigma_{i}, sigma_{j} on T_{k} at ({{row}}, {{col}}): {{entry}}"
        report.check(residual, ok, failure)
    return report
