"""Sparse polynomial matrices whose rows and columns carry graded labels.

Labels are arbitrary hashable objects exposing a ``twist`` attribute (internal
degree of the corresponding free summand).  Entries live in a PolyRing; zero
entries are never stored.  The matrix holds no rendering metadata: block
boundaries in printed output come from the labels themselves.  The public
constructor copies its entries and drops zeros; a matrix the library builds
itself (tau_k, sigma, phi and each ``defects`` result) is wrapped around its
fresh dict of nonzero entries and tuple labels by ``_trusted``, without a
copy, and the homotopy system builds each step basis, layout and sigma
product once.  They are graded by construction, sigma and phi because their
``LiftMatrix`` checked the lift; ``verify_taylor`` checks a hand-built complex.

``defects`` is the one kernel behind every product of matrices: it returns,
for each identity of a list, the sum of its products minus its expected
polynomial at each listed cell, so an identity holds exactly when its
result is zero.  ``defect`` is one identity and ``compose`` one pair; the
homotopy system checks all of its identities in one call.  It works on
integers only:

- Exponent tuples are packed into one ``int`` by ``poly.MonomialPacking``,
  so multiplying two monomials is one addition.  Its fields hold twice the
  call's largest entry exponent (or its largest correction exponent, if
  larger), so no sum carries into the next field.
- Coefficients become ``int``s: over GF(p) the representatives, over QQ the
  numerators over the call's common denominator ``den``, so every product
  and correction is over ``den**2``.  Each distinct entry object is lowered
  once per call, and each left matrix grouped by column once.
- One ``{key: int}`` dict per identity accumulates its products and
  corrections: a key is a term's packed exponents plus its cell's index
  ``row * ncols + col`` shifted above the exponent fields.  A
  ``Polynomial``, ``Fraction`` or ``ModP`` is built only for a key whose
  sum is nonzero, so a passing check builds none.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter

from .poly import ModP, MonomialPacking, Polynomial


class LabeledGradedMatrix:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows, cols, entries):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "cols", tuple(cols))
        entries = dict(entries)  # the caller's dict stays the caller's
        if not all(map(attrgetter("terms"), entries.values())):
            entries = {k: p for k, p in entries.items() if p.terms}
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, ring, rows, cols, entries):
        """The matrix of a dict the caller built for it alone, nonzero entries and tuple labels."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        return self

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
        return defect([(self, other)])

    def first_failure(self):
        """(row label, col label, entry) of the first nonzero entry in column order."""
        if not self.entries:
            return None
        i, j = min(self.entries, key=lambda k: (k[1], k[0]))
        return self.rows[i], self.cols[j], self.entries[(i, j)]

    def homogeneity_violations(self):
        """(row label, col label, entry) of each entry that is inhomogeneous or of
        degree != col.twist - row.twist, in (row, col) order.

        Matrices share a few entry objects across many cells, so each distinct
        entry's degree (None if inhomogeneous) is found once.
        """
        rows, cols = self.rows, self.cols
        degrees = {}
        bad = []
        for (i, j), p in self.entries.items():
            degree = degrees.get(id(p), False)
            if degree is False:
                degree = degrees[id(p)] = p.total_degree() if p.is_homogeneous() else None
            if degree != cols[j].twist - rows[i].twist:
                bad.append((i, j))
        bad.sort()
        return [(rows[i], cols[j], self.entries[(i, j)]) for i, j in bad]


def _top(polys):
    """Largest exponent among the polynomials' terms, 0 if there is none."""
    return max((max(map(max, p.terms), default=0) for p in polys.values()), default=0)


def _denominator(polys):
    return lcm(*(c.denominator for p in polys.values() for c in p.terms.values()))


def _lowered(polys, pack, to_int):
    """id -> [(pack(exponents), to_int(coefficient))] for each polynomial."""
    return {key: [(pack(e), to_int(c)) for e, c in p.terms.items()] for key, p in polys.items()}


def _scaled_to(den):
    """c -> the numerator of Fraction c written over den (c.denominator divides den)."""
    return lambda c: c.numerator * (den // c.denominator)


def defect(pairs, corrections=()):
    """Sum of left∘right over the (left, right) pairs, minus poly at (row, col)
    for each ((row, col), poly) in corrections.

    Every pair needs left.cols == right.rows, the same left rows and right
    columns, and one ring; every correction needs a cell inside the result.
    The result carries those labels and drops zero entries.
    """
    return defects([(pairs, corrections)])[0]


def defects(identities):
    """[defect(pairs, corrections) for each (pairs, corrections) of identities], all in one ring."""
    identities = [(list(pairs), list(corrections)) for pairs, corrections in identities]
    if not identities:
        return []
    ring = identities[0][0][0][0].ring
    matrices, fixes = {}, {}
    for pairs, corrections in identities:
        rows, cols = pairs[0][0].rows, pairs[0][1].cols
        for left, right in pairs:
            if left.ring != ring or right.ring != ring:
                raise ValueError("matrices from different rings")
            if left.cols != right.rows:
                raise ValueError("inner labels do not match")
            if left.rows != rows or right.cols != cols:
                raise ValueError("labels do not match")
            matrices[id(left)], matrices[id(right)] = left, right
        if any(poly.ring != ring for _, poly in corrections):
            raise ValueError("correction from a different ring")
        for (i, k), poly in corrections:
            if not (0 <= i < len(rows) and 0 <= k < len(cols)):
                raise ValueError(f"correction at ({i}, {k}) outside a {len(rows)}x{len(cols)} matrix")
            fixes[id(poly)] = poly
    polys = {id(p): p for m in matrices.values() for p in m.entries.values()}

    packing = MonomialPacking(ring.nvars, max(2 * _top(polys), _top(fixes)))
    cell_shift = packing.size
    p = ring.field.characteristic
    if p:
        to_int = to_fix = attrgetter("value")
    else:
        # a product of two entries over den is over den**2, and so is each correction
        den = lcm(_denominator(polys), _denominator(fixes))
        to_int, to_fix = _scaled_to(den), _scaled_to(den**2)
    lowered = _lowered(polys, packing.pack, to_int)
    lower_fix = _lowered(fixes, packing.pack, to_fix)

    grouped = {}  # (left id, ncols) -> {column: [(row key, left terms)]}
    results = []
    for pairs, corrections in identities:
        rows, cols = pairs[0][0].rows, pairs[0][1].cols
        ncols = len(cols)
        acc = {}
        get = acc.get
        for left, right in pairs:
            by_col = grouped.get((id(left), ncols))
            if by_col is None:
                by_col = grouped[(id(left), ncols)] = {}
                for (i, j), poly in left.entries.items():
                    by_col.setdefault(j, []).append((i * ncols << cell_shift, lowered[id(poly)]))
            for (j, k), poly in right.entries.items():
                right_terms = lowered[id(poly)]
                col_key = k << cell_shift
                for row_key, left_terms in by_col.get(j, ()):
                    cell_key = row_key + col_key
                    for e1, c1 in left_terms:
                        e1 += cell_key
                        for e2, c2 in right_terms:
                            e = e1 + e2
                            acc[e] = get(e, 0) + c1 * c2
        for (i, k), poly in corrections:
            cell_key = (i * ncols + k) << cell_shift
            for e, n in lower_fix[id(poly)]:
                e += cell_key
                acc[e] = get(e, 0) - n

        if p:
            residual = ((key, ModP(n, p)) for key, n in acc.items() if n % p)
        else:
            residual = ((key, Fraction(n, den**2)) for key, n in acc.items() if n)
        cells = {}
        for key, c in residual:
            cells.setdefault(key >> cell_shift, {})[packing.unpack(key)] = c
        entries = {divmod(cell, ncols): Polynomial(ring, terms) for cell, terms in cells.items()}
        results.append(LabeledGradedMatrix._trusted(ring, rows, cols, entries))
    return results
