"""Sparse polynomial matrices whose rows and columns carry graded labels.

Labels are arbitrary hashable objects exposing a ``twist`` attribute (internal
degree of the corresponding free summand).  Entries live in a PolyRing; zero
entries are never stored.  Divider positions record block boundaries for
rendering and carry no algebraic meaning.

``compose`` works on the entries' term dicts: each output entry accumulates
the products of its left and right terms in one ``{exponents: coeff}`` dict,
and one Polynomial is built per nonzero result entry.
"""
from __future__ import annotations

from operator import add

from .poly import Polynomial


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

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("labels do not match")
        acc = dict(self.entries)
        for k, p in other.entries.items():
            q = acc.get(k)
            acc[k] = p if q is None else q + p
        return LabeledGradedMatrix(
            self.ring, self.rows, self.cols, acc, self.row_dividers, self.col_dividers
        )

    def __neg__(self):
        return LabeledGradedMatrix(
            self.ring,
            self.rows,
            self.cols,
            {k: -p for k, p in self.entries.items()},
            self.row_dividers,
            self.col_dividers,
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly):
        return LabeledGradedMatrix(
            self.ring,
            self.rows,
            self.cols,
            {k: poly * p for k, p in self.entries.items()},
            self.row_dividers,
            self.col_dividers,
        )

    def compose(self, other):
        """Matrix of self∘other; requires self.cols == other.rows and one ring."""
        if self.cols != other.rows:
            raise ValueError("inner labels do not match")
        if self.ring != other.ring:
            raise ValueError("matrices from different rings")
        by_col = {}
        for (i, j), p in self.entries.items():
            by_col.setdefault(j, []).append((i, p.terms.items()))
        acc = {}
        for (j, k), q in other.entries.items():
            right = q.terms.items()
            for i, left in by_col.get(j, ()):
                terms = acc.get((i, k))
                if terms is None:
                    terms = acc[(i, k)] = {}
                for e1, c1 in left:
                    for e2, c2 in right:
                        e = tuple(map(add, e1, e2))
                        s = terms.get(e)
                        terms[e] = c1 * c2 if s is None else s + c1 * c2
        ring = self.ring
        entries = {ik: Polynomial(ring, t) for ik, t in acc.items() if any(t.values())}
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


def scalar_matrix(ring, labels, poly):
    """poly times the identity on the given labels."""
    labels = tuple(labels)
    return LabeledGradedMatrix(
        ring, labels, labels, {(i, i): poly for i in range(len(labels))}
    )
