"""Groebner bases for the sequence ideal and graded exactness checks.

The exactness check works one internal degree at a time over GF(p): each
graded piece of the quotient ring has the standard monomials as a basis, so
the assembled maps become finite matrices and homology vanishing is a rank
condition.  A row of such a matrix is addressed by the offset of its block
plus the position of its standard monomial; a standard monomial is its own
normal form, so only the monomials that a leading term divides are divided,
each once.  The resolution fixes p: its own characteristic over GF(p), and
``DEFAULT_PRIME`` over QQ.  A ``GradedExactness`` engine holds what the
checks of one resolution share, so each piece of that work is done once per run.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import add, ge

from .poly import Polynomial, PolyRing, PrimeField, exponents_of_degree
from .report import Report

DEFAULT_PRIME = 32003  # the field of the exactness checks when the input is over QQ

# Buchberger stops with CapExceeded past this many S-pairs or this lcm degree.
MAX_PAIRS = 10000
MAX_DEGREE = 40


def grevlex(exponents):
    """Sort key of every Groebner basis here, total degree then reverse lex."""
    return (sum(exponents), tuple(-x for x in reversed(exponents)))


class CapExceeded(RuntimeError):
    """A Buchberger cap (pair count or lcm degree) was hit."""


class BadPrime(ValueError):
    """DEFAULT_PRIME divides a coefficient denominator of a QQ input."""


class GroebnerBasis(namedtuple("GroebnerBasis", "ring polys leading_exponents")):
    """Reduced basis under grevlex, ascending by leading term, with those leading exponents."""

    __slots__ = ()


def _reduce_full(terms, leads, polys):
    """Remainder of the full division algorithm by polys, whose leading exponents are leads."""
    divisors = [(le, g.terms[le], g.terms) for le, g in zip(leads, polys)]
    work = dict(terms)
    remainder = {}
    while work:
        e = max(work, key=grevlex)
        c = work.pop(e)
        for le, lc, gterms in divisors:
            if all(a >= b for a, b in zip(e, le)):
                shift = tuple(a - b for a, b in zip(e, le))
                factor = c / lc
                for g_e, gc in gterms.items():
                    if g_e == le:
                        continue
                    ee = tuple(a + b for a, b in zip(g_e, shift))
                    prev = work.get(ee)
                    value = -factor * gc if prev is None else prev - factor * gc
                    if value:
                        work[ee] = value
                    elif prev is not None:
                        del work[ee]
                break
        else:
            remainder[e] = c
    return remainder


def buchberger(generators):
    """Reduced grevlex Groebner basis with normal pair selection (lowest lcm degree first).

    Deterministic; raises CapExceeded past MAX_PAIRS S-pairs or an lcm of
    degree above MAX_DEGREE.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    ring = gens[0].ring
    one = ring.field.one

    # monic members and, next to them, their leading exponents
    basis, leads = [], []

    def append(g):
        le, lc = g.leading(grevlex)
        basis.append(g if lc == one else g * (one / lc))
        leads.append(le)

    for g in gens:
        append(g)
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed = 0

    def pair_key(idx):
        i, j = idx
        lcm = tuple(map(max, leads[i], leads[j]))
        return (sum(lcm), grevlex(lcm), i, j)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        li, lj = leads[i], leads[j]
        lcm = tuple(map(max, li, lj))
        if tuple(map(add, li, lj)) == lcm:
            continue  # coprime leading terms: S-polynomial reduces to zero
        if sum(lcm) > MAX_DEGREE:
            raise CapExceeded(
                f"S-pair lcm degree {sum(lcm)} exceeds max_degree={MAX_DEGREE}"
            )
        processed += 1
        if processed > MAX_PAIRS:
            raise CapExceeded(f"more than max_pairs={MAX_PAIRS} S-pairs processed")

        fi, fj = basis[i], basis[j]
        spoly = fi.mul_term(tuple(a - b for a, b in zip(lcm, li))) - fj.mul_term(
            tuple(a - b for a, b in zip(lcm, lj))
        )
        rem = _reduce_full(spoly.terms, leads, basis)
        if rem:
            append(Polynomial(ring, rem))
            new = len(basis) - 1
            pairs.update((t, new) for t in range(new))

    # minimalize: keep ascending by leading term, drop anything an earlier
    # member's leading term divides (a proper divisor is always smaller)
    keep = []
    for i in sorted(range(len(basis)), key=lambda t: grevlex(leads[t])):
        if not any(all(a >= b for a, b in zip(leads[i], leads[j])) for j in keep):
            keep.append(i)

    # inter-reduce tails; leading terms survive, so the order stays ascending
    reduced = []
    for i in keep:
        others = [t for t in keep if t != i]
        rem = _reduce_full(basis[i].terms, [leads[t] for t in others], [basis[t] for t in others])
        reduced.append(Polynomial(ring, rem))
    return GroebnerBasis(ring, tuple(reduced), tuple(leads[i] for i in keep))


def normal_form(poly, gb):
    """The unique remainder of poly modulo the reduced basis."""
    return Polynomial(gb.ring, _reduce_full(poly.terms, gb.leading_exponents, gb.polys))


GradedPieceBasis = namedtuple("GradedPieceBasis", "degree monomials")


def graded_piece_basis(gb, degree):
    """Standard monomials of the given degree (not divisible by any leading term)."""
    if degree < 0:
        return GradedPieceBasis(degree, ())
    leads = gb.leading_exponents
    out = []
    for e in exponents_of_degree(gb.ring.nvars, degree):
        for lead in leads:
            if all(map(ge, e, lead)):
                break
        else:
            out.append(e)
    return GradedPieceBasis(degree, tuple(out))


def rank_mod_p(rows, p):
    """Rank over GF(p) of a sparse integer matrix given as a list of {column: value} rows.

    Each row is reduced against the pivot rows found so far, which are keyed
    by their leading (smallest) column, as in the sparse elimination of F4
    (Faugere-Lachartre 2010); a row left nonzero becomes a new pivot.  A pivot
    is kept as its tail: the row without its lead, scaled so that the lead is
    1, so a reduction step pops the row's lead and never visits that cell.
    """
    pivots = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            factor = row.pop(lead)
            tail = pivots.get(lead)
            if tail is None:
                inv = pow(factor, -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            for c, v in tail.items():
                value = (row.get(c, 0) - factor * v) % p
                if value:
                    row[c] = value
                else:
                    del row[c]
    return len(pivots)


class GradedExactness:
    """What the exactness checks of one resolution share, each computed once.

    They run over GF(p), p the resolution's characteristic, or DEFAULT_PRIME
    when that is 0.  NF(w * f) is linear in the normal forms of the monomials
    of w * f, so one table of monomial normal forms serves every map; steps n
    and n + 1 share the (dim, rank) of (phi_{n + 1})_d.  The Groebner basis is
    built on first use.
    """

    def __init__(self, resolution):
        self.resolution = resolution
        ring = resolution.system.ring
        self.p = ring.field.characteristic or DEFAULT_PRIME
        self.ring = PolyRing(ring.variables, PrimeField(self.p))
        self._columns = {}  # k -> {column j: [(row i, [(exponents, int)])]} of phi_k
        self._normal_forms = {}  # exponents -> [(position in its degree, int)], [] when zero
        self._standard = {}  # degree -> {standard monomial: position}, in basis order
        self._ranks = {}  # (k, d) -> (dim (F_k)_d, rank (phi_k)_d)

    def _over_field(self, poly):
        coerce = self.ring.field.coerce
        try:
            return Polynomial(self.ring, {e: coerce(c) for e, c in poly.terms.items()})
        except ZeroDivisionError:
            raise BadPrime(f"{self.p} divides a denominator of {poly}") from None

    @cached_property
    def gb(self):
        sequence = [self._over_field(a) for a in self.resolution.system.ci.sequence]
        return buchberger(sequence)

    def _entries_by_column(self, k):
        if k not in self._columns:
            phi = self.resolution.differential(k)
            bad = phi.homogeneity_violations()
            if bad:
                row, col, entry = bad[0]
                raise ValueError(
                    f"phi_{k} entry ({row}, {col}) = {entry} is not homogeneous "
                    f"of degree {col.twist - row.twist}"
                )
            by_col = {}
            for (i, j), poly in phi.entries.items():
                terms = [(e, c.value) for e, c in self._over_field(poly).terms.items()]
                by_col.setdefault(j, []).append((i, terms))
            self._columns[k] = by_col
        return self._columns[k]

    def _monomials(self, degree):
        if degree not in self._standard:
            monomials = graded_piece_basis(self.gb, degree).monomials
            self._standard[degree] = {e: x for x, e in enumerate(monomials)}
        return self._standard[degree]

    def _normal_form(self, exponents):
        """NF(x^exponents) as [(position among the standard monomials of its degree, int)],
        kept in the table; a standard monomial is its own normal form and is not divided.
        """
        index = self._monomials(sum(exponents))
        if exponents in index:
            nf = [(index[exponents], 1)]
        else:
            terms = normal_form(self.ring.term(exponents), self.gb).terms
            nf = [(index[e], c.value) for e, c in terms.items()]
        self._normal_forms[exponents] = nf
        return nf

    def rank(self, k, d):
        """(dim (F_k)_d, rank (phi_k)_d).  Each basis vector of (F_k)_d gives
        one sparse row, its image: a column of (phi_k)_d, as rank(A^T) = rank(A).

        Row block i of (F_{k-1})_d starts at offset_i, the running sum of the
        dimensions of the blocks before it, and an image cell is offset_i plus
        the position that the normal-form table stores for its standard
        monomial.  Only the non-standard monomials of w * entry are divided.
        """
        if (k, d) not in self._ranks:
            res = self.resolution
            offsets, start = [], 0
            for b in res.basis(k - 1):
                offsets.append(start)
                start += len(self._monomials(d - b.twist))
            by_col = self._entries_by_column(k)
            table = self._normal_forms
            images = []
            for j, b in enumerate(res.basis(k)):
                entries = [(offsets[i], terms) for i, terms in by_col.get(j, ())]
                for w in self._monomials(d - b.twist):
                    image = {}
                    for offset, terms in entries:
                        for e, c in terms:
                            m = tuple(map(add, e, w))
                            nf = table.get(m)
                            if nf is None:
                                nf = self._normal_form(m)
                            for x, v in nf:
                                pos = offset + x
                                image[pos] = image.get(pos, 0) + c * v
                    images.append(image)
            self._ranks[(k, d)] = (len(images), rank_mod_p(images, self.p))
        return self._ranks[(k, d)]


def check_exactness(engine, n, max_internal_degree):
    """Verify zero homology at F_n of engine.resolution in all internal degrees
    <= the cap, over GF(engine.p).

    For each degree d the check is
    dim (F_n)_d - rank (phi_n)_d == rank (phi_{n+1})_d.
    Checks of several steps share the engine's Groebner basis, normal forms
    and ranks.
    """
    top = engine.resolution.max_step - 1
    if not 1 <= n <= top:
        raise ValueError(f"need 1 <= n <= {top} so that phi_{n + 1} exists")
    if max_internal_degree < 0:
        raise ValueError(f"max_internal_degree must be >= 0, got {max_internal_degree}")

    report = Report(f"exactness at step {n} over GF({engine.p})")
    for d in range(max_internal_degree + 1):
        dim_n, rank_n = engine.rank(n, d)
        _, rank_next = engine.rank(n + 1, d)
        kernel = dim_n - rank_n
        if kernel == rank_next:
            report.note(
                f"degree {d}: dim {dim_n}, rank phi_{n} = {rank_n}, "
                f"rank phi_{n + 1} = {rank_next}, homology 0"
            )
        else:
            report.fail(
                f"degree {d}: kernel {kernel} != image {rank_next} "
                f"(dim {dim_n}, rank phi_{n} = {rank_n})"
            )
    return report
