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

The engine packs each monomial into one int with ``poly.MonomialPacking``, as
``matrix.defects`` does, so a product of monomials is one addition; its
fields are sized once, for every exponent its degree window can reach.
Matrix values stay plain ints: ``rank_mod_p`` reduces a value mod p, to its
signed residue, only when it becomes a row's lead or joins a pivot.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import add, ge

from .poly import MonomialPacking, Polynomial, PolyRing, PrimeField, exponents_of_degree
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


def _signed_residue(value, p):
    """The residue of value mod p nearest 0, in [-(p // 2), p // 2]."""
    value %= p
    return value - p if value > p // 2 else value


def rank_mod_p(rows, p):
    """Rank over GF(p) of a sparse integer matrix given as a list of {column: value} rows.

    Each row is reduced against the pivot rows found so far, which are keyed
    by their leading (smallest) column, as in the sparse elimination of F4
    (Faugere-Lachartre 2010); a row left nonzero becomes a new pivot.  A pivot
    is kept as its tail: the row without its lead, scaled so that the lead is
    1, so a reduction step pops the row's lead and never visits that cell.

    A row is worked on as a plain copy of its integers.  A value is reduced
    mod p, to its signed residue, only when it becomes the row's lead, where a
    lead that is 0 mod p is dropped, or when it joins a pivot tail, which keeps
    no value that is 0 mod p.  Signed residues keep -1 as -1, so over entries
    of +-1, as the exactness engine's mostly are, a cancellation is an exact
    0 and leaves the row at once.
    """
    half = p // 2
    pivots = {}
    for row in rows:
        row = dict(row)
        get = row.get
        while row:
            lead = min(row)
            factor = row.pop(lead) % p
            if not factor:
                continue
            if factor > half:
                factor -= p
            tail = pivots.get(lead)
            if tail is None:
                inv = pow(factor, -1, p)
                tail = pivots[lead] = {}
                for c, v in row.items():
                    r = v * inv % p
                    if r:
                        tail[c] = r - p if r > half else r
                break
            for c, v in tail.items():
                value = get(c, 0) - factor * v
                if value:
                    row[c] = value
                else:
                    del row[c]
    return len(pivots)


class GradedExactness:
    """What the exactness checks of one resolution share, each computed once,
    in every internal degree up to max_internal_degree.

    They run over GF(p), p the resolution's characteristic, or DEFAULT_PRIME
    when that is 0.  NF(w * f) is linear in the normal forms of the monomials
    of w * f, so one table of monomial normal forms serves every map; steps n
    and n + 1 share the (dim, rank) of (phi_{n + 1})_d.  The Groebner basis is
    built on first use.

    The tables hold each monomial packed into one int, so the product of a
    standard monomial and an entry term is one addition and its normal form
    one dict lookup.  The packing is sized once, for every ``rank(k, d)``
    with d <= D = max_internal_degree: F_0 has twist 0 and no twist is
    negative, so a standard monomial or a product in a block of twist t has
    degree d - t <= D.  An entry of phi_k is homogeneous of degree
    col.twist - row.twist <= T, the largest twist of the resolution, by
    construction: a tau entry x^(lcm S - lcm face) has the degree of its lcm
    difference, and a sigma entry f_it * x^(m_t - q) has it because its
    ``LiftMatrix`` checked that f_it is graded.  Fields hold 2 * max(D, T), so
    no exponent ever wraps.  Coefficients are kept as signed residues mod p.
    """

    def __init__(self, resolution, max_internal_degree):
        if max_internal_degree < 0:
            raise ValueError(f"max_internal_degree must be >= 0, got {max_internal_degree}")
        self.resolution = resolution
        self.max_internal_degree = max_internal_degree
        ring = resolution.system.ring
        self.p = ring.field.characteristic or DEFAULT_PRIME
        self.ring = PolyRing(ring.variables, PrimeField(self.p))
        twist = max(b.twist for k in range(resolution.max_step + 1) for b in resolution.basis(k))
        self._packing = MonomialPacking(ring.nvars, 2 * max(max_internal_degree, twist))
        self._columns = {}  # k -> {column j: [(row i, [(packed exponents, residue)])]} of phi_k
        self._normal_forms = {}  # packed exponents -> [(position in its degree, residue)], [] if 0
        self._standard = {}  # degree -> {packed standard monomial: position}, in basis order
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
            by_col = {}
            for (i, j), poly in self.resolution.differential(k).entries.items():
                terms = [
                    (self._packing.pack(e), _signed_residue(c.value, self.p))
                    for e, c in self._over_field(poly).terms.items()
                ]
                by_col.setdefault(j, []).append((i, terms))
            self._columns[k] = by_col
        return self._columns[k]

    def _monomials(self, degree):
        if degree not in self._standard:
            monomials = graded_piece_basis(self.gb, degree).monomials
            self._standard[degree] = {self._packing.pack(e): x for x, e in enumerate(monomials)}
        return self._standard[degree]

    def _normal_form(self, m):
        """NF of the monomial packed as m, as [(position among the standard monomials of its
        degree, signed residue)], kept in the table; a standard monomial is its own normal
        form and is not divided.
        """
        exponents = self._packing.unpack(m)
        index = self._monomials(sum(exponents))
        if m in index:
            nf = [(index[m], 1)]
        else:
            terms = normal_form(self.ring.term(exponents), self.gb).terms
            pack = self._packing.pack
            nf = [(index[pack(e)], _signed_residue(c.value, self.p)) for e, c in terms.items()]
        self._normal_forms[m] = nf
        return nf

    def rank(self, k, d):
        """(dim (F_k)_d, rank (phi_k)_d).  Each basis vector of (F_k)_d gives
        one sparse row, its image: a column of (phi_k)_d, as rank(A^T) = rank(A).

        Row block i of (F_{k-1})_d starts at offset_i, the running sum of the
        dimensions of the blocks before it, and an image cell is offset_i plus
        the position that the normal-form table stores for its standard
        monomial.  The product of w and an entry term is of degree d minus the
        row block's twist.  Only the non-standard monomials of w * entry are
        divided.
        """
        if d > self.max_internal_degree:
            raise ValueError(
                f"degree {d} is past the engine's max_internal_degree={self.max_internal_degree}"
            )
        if (k, d) not in self._ranks:
            res = self.resolution
            rows, cols = res.basis(k - 1), res.basis(k)
            offsets, start = [], 0
            for b in rows:
                offsets.append(start)
                start += len(self._monomials(d - b.twist))
            by_col = self._entries_by_column(k)
            table = self._normal_forms
            images = []
            for j, b in enumerate(cols):
                entries = [(offsets[i], terms) for i, terms in by_col.get(j, ())]
                for w in self._monomials(d - b.twist):
                    image = {}
                    get = image.get
                    for offset, terms in entries:
                        for e, c in terms:
                            m = e + w
                            nf = table.get(m)
                            if nf is None:
                                nf = self._normal_form(m)
                            for x, v in nf:
                                pos = offset + x
                                image[pos] = get(pos, 0) + c * v
                    images.append(image)
            self._ranks[(k, d)] = (len(images), rank_mod_p(images, self.p))
        return self._ranks[(k, d)]


def check_exactness(engine, n):
    """Verify zero homology at F_n of engine.resolution in all internal degrees
    <= engine.max_internal_degree, over GF(engine.p).

    For each degree d the check is
    dim (F_n)_d - rank (phi_n)_d == rank (phi_{n+1})_d.
    Checks of several steps share the engine's Groebner basis, normal forms
    and ranks.
    """
    top = engine.resolution.max_step - 1
    if not 1 <= n <= top:
        raise ValueError(f"need 1 <= n <= {top} so that phi_{n + 1} exists")

    report = Report(f"exactness at step {n} over GF({engine.p})")
    for d in range(engine.max_internal_degree + 1):
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
