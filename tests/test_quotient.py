"""Groebner bases, normal forms, and the graded exactness check."""
import random
from fractions import Fraction
from math import comb
from operator import sub

import pytest

from citaylor import (
    BadPrime,
    CapExceeded,
    GF,
    QQ,
    LabeledGradedMatrix,
    buchberger,
    check_exactness,
    complete_intersection,
    graded_piece_basis,
    homotopy_system,
    monomial_ideal,
    normal_form,
    shamash_resolution,
)
from citaylor.quotient import DEFAULT_PRIME, GradedExactness, grevlex, rank_mod_p

from conftest import (
    build_poly_c1,
    build_three_squares,
    random_ideal,
    random_sequence,
    regular_instance,
    ring,
    seeded_rng,
)


# ---- Groebner bases ----------------------------------------------------------


def test_gb_of_principal_ideal_is_itself(ring_xyz):
    a = ring_xyz.parse("x^2*z + x*y^2")
    gb = buchberger([a])
    assert gb.polys == (a,)


def test_gb_classic_example():
    R = ring("x,y")
    gb = buchberger([R.parse("x^2 + y^2"), R.parse("x*y")])
    assert [str(p) for p in gb.polys] == ["x*y", "x^2 + y^2", "y^3"]


def test_gb_normalizes_leading_coefficients():
    R = ring("x,y")
    gb = buchberger([R.parse("3*x^2 + 3*y^2")])
    assert [str(p) for p in gb.polys] == ["x^2 + y^2"]


def test_gb_drops_redundant_generators():
    R = ring("x,y")
    gb = buchberger([R.parse("x"), R.parse("x^2"), R.parse("x*y + x")])
    assert [str(p) for p in gb.polys] == ["x"]


def test_gb_rejects_empty_input(ring_xyz):
    with pytest.raises(ValueError):
        buchberger([ring_xyz.zero])


def test_gb_prime_field():
    R = ring("x,y", GF(7))
    gb = buchberger([R.parse("x^2 + y^2"), R.parse("x*y")])
    assert [str(p) for p in gb.polys] == ["x*y", "x^2 + y^2", "y^3"]


def test_caps_raise(monkeypatch):
    import citaylor.quotient as quotient

    R = ring("x,y")
    with pytest.raises(CapExceeded, match=r"^S-pair lcm degree 42 exceeds max_degree=40$"):
        buchberger([R.parse("x^21*y"), R.parse("x*y^21")])
    monkeypatch.setattr(quotient, "MAX_PAIRS", 0)
    with pytest.raises(CapExceeded, match=r"^more than max_pairs=0 S-pairs processed$"):
        buchberger([R.parse("x^2 + y^2"), R.parse("x*y")])


def test_cap_spares_coprime_pairs(monkeypatch):
    # leading terms are coprime, so the lone S-pair is skipped before any cap
    import citaylor.quotient as quotient

    monkeypatch.setattr(quotient, "MAX_DEGREE", 40)
    monkeypatch.setattr(quotient, "MAX_PAIRS", 0)
    R = ring("x,y")
    gb = buchberger([R.parse("x^30"), R.parse("y^30")])
    assert len(gb.polys) == 2


def test_gb_matches_sympy_groebner():
    """buchberger's reduced basis, as a set of polynomials, is sympy's reduced grevlex
    basis over QQ, GF(32003) and GF(7), on the classic example and on seeded draws, both
    regular and of codim 1-3 with no such guarantee.  Polynomials cross over as
    {exponents: coefficient} dicts, coefficients as plain ints or Fractions."""
    sympy = pytest.importorskip("sympy")
    rng = seeded_rng()
    for field in (QQ, GF(32003), GF(7)):
        p = field.characteristic
        R = ring("x,y", field)
        cases = [[R.parse("x^2 + y^2"), R.parse("x*y")]]
        cases += [regular_instance(rng, field)[1].sequence for _ in range(2)]
        for codim in (1, 2, 3, 3):
            ideal = random_ideal(rng, max_vars=3, max_gens=4, field=field)
            cases.append(random_sequence(rng, ideal, codim))
        for sequence in cases:
            gens = sympy.symbols(sequence[0].ring.variables)
            polys = [
                sympy.Poly.from_dict(
                    {e: c.value if p else sympy.Rational(c.numerator, c.denominator)
                     for e, c in a.terms.items()},
                    *gens,
                )
                for a in sequence
            ]
            over = {"modulus": p} if p else {"domain": sympy.QQ}  # over ZZ sympy clears denominators
            theirs = sympy.groebner(polys, *gens, order="grevlex", **over)
            expected = {
                frozenset(
                    (e, int(c) % p if p else Fraction(int(c.p), int(c.q)))
                    for e, c in sympy.Poly(g, *gens).as_dict().items()
                )
                for g in theirs.exprs
            }
            got = {
                frozenset((e, c.value if p else c) for e, c in g.terms.items())
                for g in buchberger(sequence).polys
            }
            assert got == expected, (field, [str(a) for a in sequence])


# ---- normal forms --------------------------------------------------------------


def test_normal_form_membership(ring_xyz):
    a = ring_xyz.parse("x^2*z + x*y^2")
    gb = buchberger([a])
    assert normal_form(a, gb).is_zero()
    assert normal_form(a * ring_xyz.parse("x + 7*z"), gb).is_zero()
    assert normal_form(ring_xyz.parse("x"), gb) == ring_xyz.parse("x")


def test_normal_form_is_linear_and_idempotent():
    R = ring("x,y")
    gb = buchberger([R.parse("x^2 + y^2"), R.parse("x*y")])
    rng = random.Random(3)
    for _ in range(25):
        terms = {
            tuple(rng.randint(0, 3) for _ in range(2)): rng.randint(-5, 5)
            for _ in range(rng.randint(1, 5))
        }
        p = R.polynomial(terms)
        q = R.parse("x^3 - 2*y")
        nf = normal_form
        assert nf(nf(p, gb), gb) == nf(p, gb)
        assert nf(p + q, gb) == nf(p, gb) + nf(q, gb)
        assert nf(p - nf(p, gb), gb).is_zero()


def test_phi_composite_entries_vanish_in_quotient(ring_xyz):
    # entries of phi_n.phi_{n+1} are multiples of a, so their normal form is 0
    res = build_three_squares(max_step=4)
    gb = buchberger(list(res.system.ci.sequence))
    for n in (1, 2, 3):
        product = res.differential(n).compose(res.differential(n + 1))
        for poly in product.entries.values():
            assert normal_form(poly, gb).is_zero()


# ---- graded pieces ---------------------------------------------------------------


def test_graded_pieces_of_hypersurface(ring_xyz):
    gb = buchberger([ring_xyz.parse("x^2*z + x*y^2")])
    # Hilbert function of a degree-3 hypersurface in 3 variables
    for d in range(8):
        expected = (d + 2) * (d + 1) // 2 - (max(d - 1, 0) * max(d - 2, 0)) // 2
        assert len(graded_piece_basis(gb, d).monomials) == expected


def test_graded_pieces_artinian_example():
    R = ring("x,y")
    gb = buchberger([R.parse("x^2 + y^2"), R.parse("x*y")])
    dims = [len(graded_piece_basis(gb, d).monomials) for d in range(5)]
    assert dims == [1, 2, 1, 0, 0]
    assert len(graded_piece_basis(gb, -1).monomials) == 0


def test_graded_piece_monomials_are_standard():
    R = ring("x,y")
    gb = buchberger([R.parse("x^2 + y^2"), R.parse("x*y")])
    piece = graded_piece_basis(gb, 2)
    assert list(piece.monomials) == [(0, 2)]


# ---- linear algebra mod p ----------------------------------------------------------


def test_rank_mod_p():
    assert rank_mod_p([], 5) == 0
    assert rank_mod_p([{0: 1}, {1: 1}], 5) == 2
    assert rank_mod_p([{0: 1, 1: 2}, {0: 2, 1: 4}], 5) == 1
    assert rank_mod_p([{0: 5}], 5) == 0
    assert rank_mod_p([{0: 2, 2: 1}, {1: 3}], 7) == 2


def dense_rank(rows, ncols, p):
    """Reference: Gaussian elimination on dense lists."""
    mat = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col] * inv % p
            if factor:
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [5, 7, 32003])
def test_sparse_rank_matches_dense_reference(p):
    rng = random.Random(p)
    for _ in range(60):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.random()
        rows = []
        for _ in range(nrows):
            # explicit zeros, multiples of p and negative values all mean "reduce mod p"
            row = {c: rng.randint(-2 * p, 2 * p) for c in range(ncols) if rng.random() < density}
            if rows and rng.random() < 0.2:
                row = dict(rng.choice(rows))  # duplicate row
            elif rng.random() < 0.15:
                row = {}  # zero row
            rows.append(row)
        if rows and ncols and rng.random() < 0.3:
            # a combination of earlier rows, so the rank is short of full
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append({c: 3 * a.get(c, 0) - b.get(c, 0) for c in range(ncols)})
        assert rank_mod_p(rows, p) == dense_rank(rows, ncols, p)
        assert rank_mod_p(list(reversed(rows)), p) == dense_rank(rows, ncols, p)


def test_sparse_rank_leaves_its_input_alone():
    rows = [{0: 2, 3: 1}, {0: 4, 3: 2, 5: 6}]
    copy = [dict(r) for r in rows]
    assert rank_mod_p(rows, 7) == 2
    assert rows == copy


# ---- exactness -----------------------------------------------------------------------


def test_exactness_three_squares():
    engine = GradedExactness(build_three_squares(max_step=3), 8)
    for n in (1, 2):
        report = check_exactness(engine, n)
        assert report.passed, report.failure
        assert all("homology 0" in line for line in report.details)


def test_exactness_poly_example():
    report = check_exactness(GradedExactness(build_poly_c1(max_step=3), 8), 1)
    assert report.passed, report.failure


def test_exactness_window_validation():
    engine = GradedExactness(build_three_squares(max_step=3), 5)
    with pytest.raises(ValueError):
        check_exactness(engine, 0)
    with pytest.raises(ValueError):
        check_exactness(engine, 3)


def test_exactness_prime_dividing_denominator_rejected():
    R = ring("x,y,z")
    I = monomial_ideal(R, ["x^2", "y^2", "z^2"])
    ci = complete_intersection(I, ["1/32003*x^2*z + x*y^2"])
    res = shamash_resolution(homotopy_system(ci, "first"), 3)
    with pytest.raises(BadPrime, match=r"^32003 divides a denominator of 1/32003\*x\^2\*z \+ x\*y\^2$"):
        check_exactness(GradedExactness(res, 5), 1)
    # the average lift (entries 1/3*z etc.) is checked over its own GF(5)
    I = monomial_ideal(ring("x,y,z", GF(5)), ["x*y", "x*z", "y*z"])
    ci = complete_intersection(I, ["x*y*z"])
    res = shamash_resolution(homotopy_system(ci, "average"), 3)
    report = check_exactness(GradedExactness(res, 6), 1)
    assert report.passed, report.failure


def test_exactness_over_the_resolutions_own_prime_field():
    res = build_three_squares(max_step=4, field=GF(7))
    engine = GradedExactness(res, 6)
    for n in (1, 2, 3):
        report = check_exactness(engine, n)
        assert report.passed, report.failure
        assert report.title == f"exactness at step {n} over GF(7)"


def set_sigma_on_t_0(res, cell, text):
    """Put text at cell of sigma_1 on T_0 into res's system; phi_2 holds that block at the
    same cells, since F_1 is T_1 and column 0 of F_2 is y^(1) * e_{}."""
    system = res.system
    sigma = system.sigma_e(1, 0)
    entries = {**sigma.entries, cell: system.ring.parse(text)}
    system._sigma[(1, 0)] = LabeledGradedMatrix(sigma.ring, sigma.rows, sigma.cols, entries)
    assert res.differential(2).entries[cell] is entries[cell]


def test_exactness_detects_a_broken_map():
    # resolve, then corrupt one differential entry and watch degree-wise ranks clash
    res = build_three_squares(max_step=3)
    assert res.differential(2).entry(2, 0).is_zero()
    set_sigma_on_t_0(res, (2, 0), "y")
    report = check_exactness(GradedExactness(res, 8), 1)
    assert not report.passed


def test_exactness_rejects_a_negative_degree_cap():
    res = build_three_squares(max_step=3)
    with pytest.raises(ValueError, match="max_internal_degree"):
        GradedExactness(res, -1)


def random_route(rng, ideal, a):
    """A term -> generator map for a: each term goes to a random generator dividing it."""
    gens = list(enumerate(ideal.generators, start=1))
    return {e: rng.choice([t for t, m in gens if min(map(sub, e, m)) >= 0]) for e in a.terms}


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)], ids=["QQ", "GF(32003)"])
def test_every_assembled_phi_is_graded(field):
    """The engine packs phi's entries without checking their degrees: each cell is a tau
    entry or a sigma entry of a checked lift, so every phi_n is graded by construction,
    for every lift rule and sequence length."""
    rng = seeded_rng()
    for codim in (1, 2, 3):
        for _ in range(4):
            ideal = random_ideal(rng, max_vars=3, max_gens=4, field=field)
            ci = complete_intersection(ideal, random_sequence(rng, ideal, codim))
            routes = [random_route(rng, ideal, a) for a in ci.sequence]
            for lift in ("first", "average", routes):
                res = shamash_resolution(homotopy_system(ci, lift), ideal.ngens + 2)
                for n, phi in enumerate(res.differentials, start=1):
                    assert phi.homogeneity_violations() == [], (ci.sequence, lift, n)


def test_shared_engine_matches_fresh_checks(monkeypatch):
    import citaylor.quotient as quotient

    calls = []
    rank = quotient.rank_mod_p
    monkeypatch.setattr(quotient, "rank_mod_p", lambda rows, p: calls.append(p) or rank(rows, p))
    res = build_three_squares(max_step=5)
    engine = GradedExactness(res, 9)
    shared = [check_exactness(engine, n) for n in range(1, 5)]
    assert len(calls) == 5 * 10  # each (phi_k, d), k = 1..5, ranked once
    fresh = [check_exactness(GradedExactness(res, 9), n) for n in range(1, 5)]
    assert len(calls) == 50 + 4 * 2 * 10
    assert [(r.title, r.passed, r.details) for r in shared] == [
        (r.title, r.passed, r.details) for r in fresh
    ]


def test_engine_divides_only_nonstandard_monomials_each_once(monkeypatch):
    """A standard monomial is its own normal form; any other is divided once, also when
    its normal form is 0, as every multiple of a = x^2 is here."""
    import citaylor.quotient as quotient

    divided = []
    real = quotient.normal_form
    monkeypatch.setattr(
        quotient, "normal_form", lambda poly, gb: divided.extend(poly.terms) or real(poly, gb)
    )
    R = ring("x,y,z", GF(32003))
    ci = complete_intersection(monomial_ideal(R, ["x^2", "y^2", "z^2"]), ["x^2"])
    engine = GradedExactness(shamash_resolution(homotopy_system(ci, "first"), 4), 7)
    for n in range(1, 4):
        assert check_exactness(engine, n).passed
    assert divided and len(set(divided)) == len(divided)
    assert all(e[0] >= 2 for e in divided)  # x^2 is the one leading term


def dense_graded_rank(res, gb, k, d):
    """Reference: (dim, rank) of (phi_k)_d over the field of gb.  Column (j, w) holds the
    normal form of w times each entry (i, j) at the rows (i, e), e a standard monomial,
    and the matrix is ranked by dense elimination."""
    def std(degree):
        return graded_piece_basis(gb, degree).monomials

    rows = [(i, e) for i, b in enumerate(res.basis(k - 1)) for e in std(d - b.twist)]
    at = {cell: r for r, cell in enumerate(rows)}
    entries = {}
    for (i, j), poly in res.differential(k).entries.items():
        entries.setdefault(j, []).append((i, gb.ring.polynomial(poly.terms)))
    matrix = [{} for _ in rows]
    ncols = 0
    for j, b in enumerate(res.basis(k)):
        for w in std(d - b.twist):
            for i, entry in entries.get(j, ()):
                for e, c in normal_form(entry.mul_term(w), gb).terms.items():
                    matrix[at[(i, e)]][ncols] = c.value
            ncols += 1
    return ncols, dense_rank(matrix, ncols, gb.ring.field.characteristic)


def reference_instances():
    """Complete intersections over GF(5), GF(32003) and QQ: the fixed one, whose lift
    puts two terms into one entry (x + y) so that images need summing; three squares
    with a = x^2, so that every multiple of a has normal form 0; and seeded draws,
    regular and of codim 1-3 with no such guarantee, whose Groebner bases can be
    larger than the sequence."""
    rng = seeded_rng()
    out = []
    for field in (GF(5), GF(32003), QQ):
        R = ring("x,y,z", field)
        squares = monomial_ideal(R, ["x^2", "y^2", "z^2"])
        out.append(complete_intersection(squares, ["x^3 + x^2*y + x*y^2 + y^2*z"]))
        out.append(complete_intersection(squares, ["x^2"]))
        out.append(regular_instance(rng, field)[1])
        for codim in (1, 2, 3):
            ideal = random_ideal(rng, max_vars=3, max_gens=4, field=field)
            out.append(complete_intersection(ideal, random_sequence(rng, ideal, codim)))
    return out


@pytest.mark.parametrize("lift", ["first", "average"])
def test_engine_ranks_match_dense_reference(lift):
    for ci in reference_instances():
        res = shamash_resolution(homotopy_system(ci, lift), 4)
        engine = GradedExactness(res, 7)
        assert engine.p == (ci.ring.field.characteristic or DEFAULT_PRIME)
        gb = buchberger([engine.ring.polynomial(a.terms) for a in ci.sequence])
        for k in range(1, 5):
            for d in range(8):
                expected = dense_graded_rank(res, gb, k, d)
                assert engine.rank(k, d) == expected, ([str(a) for a in ci.sequence], k, d)


@pytest.mark.parametrize(
    "sequence, steps, degrees",
    [
        # Q = k[x, y]/(y^2): x^d and x^(d-1)*y are standard, so exponents grow with d
        (["y^2"], 4, (3, 4, 300, 1100, 5000)),
        # Q = k[x, y]/(x^257, y^2): phi_k has entries of degree 257 at every k
        (["x^257", "y^2"], 6, (3, 4, 300, 515, 517, 1028)),
    ],
    ids=["growing-exponents", "large-entries"],
)
def test_packed_exponents_never_carry_into_the_next_field(sequence, steps, degrees):
    """Exponents of 257 and more: the engine, sized once for its largest degree, ranks at
    d = 3 first, then at degrees of 300 and more, and every rank matches the dense
    reference, so the width covers the entries and the whole window, and no exponent
    spills into its neighbour's field."""
    R = ring("x,y", GF(32003))
    ci = complete_intersection(monomial_ideal(R, ["x^257", "y^2"]), sequence)
    res = shamash_resolution(homotopy_system(ci, "first"), steps)
    engine = GradedExactness(res, max(degrees))
    gb = buchberger([engine.ring.polynomial(a.terms) for a in ci.sequence])
    ranked = set()
    for d in degrees:
        for k in range(1, steps + 1):
            expected = dense_graded_rank(res, gb, k, d)
            assert engine.rank(k, d) == expected, (k, d)
            if expected[1]:
                ranked.add(d)
    assert ranked == set(degrees)  # each degree has a map of nonzero rank to get wrong


def test_engine_ranks_only_inside_its_window():
    engine = GradedExactness(build_three_squares(max_step=3), 5)
    engine.rank(1, 5)  # the window's last degree
    with pytest.raises(ValueError, match=r"^degree 6 is past the engine's max_internal_degree=5$"):
        engine.rank(1, 6)


def test_engine_belongs_to_one_resolution_and_prime():
    # the engine carries the resolution and takes the prime from it, so a check cannot mix them
    for field, p in ((GF(7), 7), (QQ, 32003)):
        res = build_three_squares(max_step=3, field=field)
        engine = GradedExactness(res, 4)
        report = check_exactness(engine, 1)
        assert engine.p == p
        assert report.title == f"exactness at step 1 over GF({p})"
        assert engine.resolution is res and engine.ring.field.characteristic == p


# ---- regular sequences: the theorem as a seeded property -------------------------


REGULAR_STEPS, REGULAR_DEGREE = 4, 8


def regular_sequences():
    """Six seeded complete intersections whose sequences are regular by construction."""
    rng = seeded_rng()
    return [regular_instance(rng, field)[1] for field in (QQ, GF(32003)) for _ in range(3)]


def test_a_regular_sequence_gives_an_exact_resolution():
    """Over a regular sequence the assembled complex is a resolution: exact at F_1..F_{N-1}
    in every internal degree up to D, for the first and the average lift."""
    for ci in regular_sequences():
        for lift in ("first", "average"):
            res = shamash_resolution(homotopy_system(ci, lift), REGULAR_STEPS)
            engine = GradedExactness(res, REGULAR_DEGREE)
            for n in range(1, REGULAR_STEPS):
                report = check_exactness(engine, n)
                assert report.passed, ([str(a) for a in ci.sequence], lift, report.failure)


def test_a_regular_sequence_has_the_hilbert_function_of_a_complete_intersection():
    """The Groebner basis leads with the sequence's own leading terms, pure powers of
    distinct variables, and dim (Q/(a))_d is the coefficient of t^d in
    prod_i (1 - t^deg a_i) / (1 - t)^nvars."""
    for ci in regular_sequences():
        gb = buchberger(ci.sequence)
        leads = sorted(gb.leading_exponents)
        assert leads == sorted(a.leading(grevlex)[0] for a in ci.sequence)
        supports = {tuple(i for i, e in enumerate(lead) if e) for lead in leads}
        assert all(len(s) == 1 for s in supports) and len(supports) == len(leads)
        nvars = ci.ring.nvars
        series = [comb(d + nvars - 1, nvars - 1) for d in range(REGULAR_DEGREE + 1)]
        for k in ci.degrees:
            series = [c - (series[d - k] if d >= k else 0) for d, c in enumerate(series)]
        dims = [len(graded_piece_basis(gb, d).monomials) for d in range(REGULAR_DEGREE + 1)]
        assert dims == series, [str(a) for a in ci.sequence]
