"""Sparse polynomial matrices whose rows and columns carry graded labels.

Labels are arbitrary hashable objects exposing a ``twist`` attribute (internal
degree of the corresponding free summand).  Entries live in a PolyRing; zero
entries are never stored.  The matrix holds no rendering metadata: block
boundaries in printed output come from the labels themselves.

``defect`` is the one kernel behind every product of matrices: ``compose``
is ``defect`` of one pair, and every identity check sums its products and
subtracts the expected polynomial at each listed cell in one call, so a
check passes exactly when the result is zero.  It works on integers only:

- Exponent tuples are packed into one ``int``, exponent i in bits
  ``[i * w, (i + 1) * w)``, so multiplying two monomials is one addition.
  The field width ``w`` is the bit length of ``top_left + top_right`` (or of
  the largest correction exponent, if that is larger), where each top is the
  largest exponent among that side's entries.  No exponent of a product
  reaches ``2**w``, so no sum carries into the next field.  This needs every
  exponent to be a nonnegative ``int``: ``PolyRing.term``,
  ``PolyRing.polynomial`` and the parser reject anything else, and
  products and sums of such polynomials keep it.
- Coefficients become ``int``s: over GF(p) the representatives, over QQ the
  numerators scaled to one common denominator for every product and every
  correction.  Each distinct entry object is lowered once per call and side.
- One ``{key: int}`` dict accumulates every product and every correction
  of the call: a key is a term's packed exponents plus its cell's index
  ``row * ncols + col`` shifted above the exponent fields.  A
  ``Polynomial``, ``Fraction`` or ``ModP`` is built only for a key whose
  sum is nonzero, so a passing check builds none.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter, lshift

from .poly import ModP, Polynomial


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


def memo(cache, operands, compute):
    """compute(), run once per tuple of operand objects.

    cache maps the operands' ids to (operands, result).  Holding the operands
    keeps their ids from being reused while the entry lives, so a new matrix
    put in an old one's place is always computed afresh.
    """
    key = tuple(map(id, operands))
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = (operands, compute())
    return hit[1]


def _distinct(matrices):
    """id -> entry for each distinct entry object of the matrices."""
    return {id(p): p for m in matrices for p in m.entries.values()}


def _top(polys):
    """Largest exponent among the polynomials' terms, 0 if there is none."""
    return max((max(map(max, p.terms), default=0) for p in polys.values()), default=0)


def _denominator(polys):
    return lcm(*(c.denominator for p in polys.values() for c in p.terms.values()))


def _lowered(polys, shifts, to_int):
    """id -> [(packed exponents, to_int(coefficient))] for each polynomial."""
    return {
        key: [(sum(map(lshift, e, shifts)), to_int(c)) for e, c in p.terms.items()]
        for key, p in polys.items()
    }


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
    pairs = list(pairs)
    corrections = list(corrections)
    first_left, first_right = pairs[0]
    ring, rows, cols = first_left.ring, first_left.rows, first_right.cols
    for left, right in pairs:
        if left.ring != ring or right.ring != ring:
            raise ValueError("matrices from different rings")
        if left.cols != right.rows:
            raise ValueError("inner labels do not match")
        if left.rows != rows or right.cols != cols:
            raise ValueError("labels do not match")
    lefts = _distinct(left for left, _ in pairs)
    rights = _distinct(right for _, right in pairs)
    fixes = {id(poly): poly for _, poly in corrections}
    if any(poly.ring != ring for poly in fixes.values()):
        raise ValueError("correction from a different ring")

    width = max(_top(lefts) + _top(rights), _top(fixes)).bit_length()
    shifts = [width * i for i in range(ring.nvars)]
    cell_shift = width * ring.nvars
    p = ring.field.characteristic
    if p:
        to_left = to_right = to_fix = attrgetter("value")
    else:
        # a product's coefficient is over (den // den_right) * den_right = den
        den_right = _denominator(rights)
        den = lcm(_denominator(lefts) * den_right, _denominator(fixes))
        to_left, to_right, to_fix = map(_scaled_to, (den // den_right, den_right, den))
    lower_left = _lowered(lefts, shifts, to_left)
    lower_right = _lowered(rights, shifts, to_right)
    lower_fix = _lowered(fixes, shifts, to_fix)

    ncols = len(cols)
    acc = {}
    get = acc.get
    for left, right in pairs:
        by_col = {}
        for (i, j), poly in left.entries.items():
            by_col.setdefault(j, []).append((i * ncols << cell_shift, lower_left[id(poly)]))
        for (j, k), poly in right.entries.items():
            right_terms = lower_right[id(poly)]
            col_key = k << cell_shift
            for row_key, left_terms in by_col.get(j, ()):
                cell_key = row_key + col_key
                for e1, c1 in left_terms:
                    e1 += cell_key
                    for e2, c2 in right_terms:
                        e = e1 + e2
                        acc[e] = get(e, 0) + c1 * c2
    nrows = len(rows)
    for (i, k), poly in corrections:
        if not (0 <= i < nrows and 0 <= k < ncols):
            raise ValueError(f"correction at ({i}, {k}) outside a {nrows}x{ncols} matrix")
        cell_key = (i * ncols + k) << cell_shift
        for e, n in lower_fix[id(poly)]:
            e += cell_key
            acc[e] = get(e, 0) - n

    if p:
        residual = ((key, ModP(n, p)) for key, n in acc.items() if n % p)
    else:
        residual = ((key, Fraction(n, den)) for key, n in acc.items() if n)
    mask = (1 << width) - 1
    cells = {}
    for key, c in residual:
        cells.setdefault(key >> cell_shift, {})[tuple(key >> s & mask for s in shifts)] = c
    entries = {divmod(cell, ncols): Polynomial(ring, terms) for cell, terms in cells.items()}
    return LabeledGradedMatrix(ring, rows, cols, entries)
