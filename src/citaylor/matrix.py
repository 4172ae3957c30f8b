"""Sparse polynomial matrices whose rows and columns carry graded labels.

Labels are arbitrary hashable objects exposing a ``twist`` attribute (internal
degree of the corresponding free summand).  Entries live in a PolyRing; zero
entries are never stored.  Divider positions record block boundaries for
rendering and carry no algebraic meaning.

``compose`` lowers each operand's coefficients to ``int``s once per call
(each distinct entry object once): over GF(p) the representatives, over QQ
the numerators scaled to the operand's common denominator D.  Each output
entry accumulates plain integer products in one ``{exponents: int}`` dict,
and each nonzero output coefficient is built once, as ``ModP(n, p)``,
``Fraction(n)`` or ``Fraction(n, D1 * D2)``.

``defect`` is the one shape every identity check takes: it sums product
matrices with the same labels and subtracts the expected polynomial at each
listed cell, in place, so a check passes exactly when the result is zero.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, attrgetter

from .poly import ModP, Polynomial


def _lowering(matrix):
    """(lower, D): lower(p) lists p's terms as (exponents, n) with coefficient n / D.

    Over GF(p), D = 1 and n is the representative; over QQ, D is the lcm of
    the matrix's denominators and n the numerator scaled to D.  Each distinct
    entry object is lowered once per call.
    """
    if matrix.ring.field.characteristic:
        den = 1
        to_int = attrgetter("value")
    else:
        den = lcm(*{c.denominator for p in matrix.entries.values() for c in p.terms.values()})

        def to_int(c):
            return c.numerator * (den // c.denominator)

    memo = {}

    def lower(p):
        terms = memo.get(id(p))
        if terms is None:
            terms = memo[id(p)] = [(e, to_int(c)) for e, c in p.terms.items()]
        return terms

    return lower, den


class LabeledGradedMatrix:
    __slots__ = ("ring", "rows", "cols", "entries", "row_dividers", "col_dividers")

    def __init__(self, ring, rows, cols, entries, row_dividers=(), col_dividers=()):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "entries", {k: p for k, p in entries.items() if p})
        object.__setattr__(self, "row_dividers", tuple(row_dividers))
        object.__setattr__(self, "col_dividers", tuple(col_dividers))

    def __setattr__(self, name, value):
        raise AttributeError("LabeledGradedMatrix is immutable")

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    def entry(self, i, j):
        p = self.entries.get((i, j))
        return self.ring.zero if p is None else p

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, LabeledGradedMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    __hash__ = None

    def compose(self, other):
        """Matrix of self∘other; requires self.cols == other.rows and one ring."""
        if self.cols != other.rows:
            raise ValueError("inner labels do not match")
        if self.ring != other.ring:
            raise ValueError("matrices from different rings")
        lower_left, d1 = _lowering(self)
        lower_right, d2 = _lowering(other)
        by_col = {}
        for (i, j), p in self.entries.items():
            by_col.setdefault(j, []).append((i, lower_left(p)))
        acc = {}
        for (j, k), q in other.entries.items():
            right_terms = lower_right(q)
            for i, left_terms in by_col.get(j, ()):
                terms = acc.get((i, k))
                if terms is None:
                    terms = acc[(i, k)] = {}
                for e1, c1 in left_terms:
                    for e2, c2 in right_terms:
                        e = tuple(map(add, e1, e2))
                        terms[e] = terms.get(e, 0) + c1 * c2
        ring = self.ring
        p, den = ring.field.characteristic, d1 * d2
        entries = {}
        for ik, terms in acc.items():
            if p:
                cell = {e: ModP(n, p) for e, n in terms.items() if n % p}
            elif den == 1:
                cell = {e: Fraction(n) for e, n in terms.items() if n}
            else:
                cell = {e: Fraction(n, den) for e, n in terms.items() if n}
            if cell:
                entries[ik] = Polynomial(ring, cell)
        return LabeledGradedMatrix(ring, self.rows, other.cols, entries)

    def first_failure(self):
        """(row label, col label, entry) of the first nonzero entry in column order."""
        if not self.entries:
            return None
        i, j = min(self.entries, key=lambda k: (k[1], k[0]))
        return self.rows[i], self.cols[j], self.entries[(i, j)]

    def homogeneity_violations(self):
        """Entries that are inhomogeneous or of degree != col.twist - row.twist."""
        bad = []
        for (i, j), p in sorted(self.entries.items()):
            expected = self.cols[j].twist - self.rows[i].twist
            if not p.is_homogeneous() or p.total_degree() != expected:
                bad.append((self.rows[i], self.cols[j], p))
        return bad


def defect(products, corrections=()):
    """Entrywise sum of the products, minus poly at (row, col) for each ((row, col), poly).

    The products must share row and column labels; the result carries them
    and drops zero entries.
    """
    first, *rest = products
    entries = dict(first.entries)
    for other in rest:
        if other.rows != first.rows or other.cols != first.cols:
            raise ValueError("labels do not match")
        for k, p in other.entries.items():
            q = entries.get(k)
            entries[k] = p if q is None else q + p
    for k, p in corrections:
        q = entries.get(k)
        entries[k] = -p if q is None else q - p
    return LabeledGradedMatrix(first.ring, first.rows, first.cols, entries)
