"""Groebner bases, normal forms, and the graded exactness check."""
import random
from math import comb

import pytest

from citaylor import (
    BadPrime,
    CapExceeded,
    GF,
    QQ,
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
    engine = GradedExactness(build_three_squares(max_step=3))
    for n in (1, 2):
        report = check_exactness(engine, n, 8)
        assert report.passed, report.failure
        assert all("homology 0" in line for line in report.details)


def test_exactness_poly_example():
    report = check_exactness(GradedExactness(build_poly_c1(max_step=3)), 1, 8)
    assert report.passed, report.failure


def test_exactness_window_validation():
    engine = GradedExactness(build_three_squares(max_step=3))
    with pytest.raises(ValueError):
        check_exactness(engine, 0, 5)
    with pytest.raises(ValueError):
        check_exactness(engine, 3, 5)


def test_exactness_prime_dividing_denominator_rejected():
    R = ring("x,y,z")
    I = monomial_ideal(R, ["x^2", "y^2", "z^2"])
    ci = complete_intersection(I, ["1/32003*x^2*z + x*y^2"])
    res = shamash_resolution(homotopy_system(ci, "first"), 3)
    with pytest.raises(BadPrime, match=r"^32003 divides a denominator of 1/32003\*x\^2\*z \+ x\*y\^2$"):
        check_exactness(GradedExactness(res), 1, 5)
    # the average lift (entries 1/3*z etc.) is checked over its own GF(5)
    I = monomial_ideal(ring("x,y,z", GF(5)), ["x*y", "x*z", "y*z"])
    ci = complete_intersection(I, ["x*y*z"])
    res = shamash_resolution(homotopy_system(ci, "average"), 3)
    report = check_exactness(GradedExactness(res), 1, 6)
    assert report.passed, report.failure


def test_exactness_over_the_resolutions_own_prime_field():
    res = build_three_squares(max_step=4, field=GF(7))
    engine = GradedExactness(res)
    for n in (1, 2, 3):
        report = check_exactness(engine, n, 6)
        assert report.passed, report.failure
        assert report.title == f"exactness at step {n} over GF(7)"


def test_exactness_detects_a_broken_map():
    # resolve, then corrupt one differential entry and watch degree-wise ranks clash
    res = build_three_squares(max_step=3)
    phi2 = res.differential(2)
    entries = dict(phi2.entries)
    entries[(2, 0)] = res.system.ring.parse("y")
    from citaylor import LabeledGradedMatrix

    broken = LabeledGradedMatrix(phi2.ring, phi2.rows, phi2.cols, entries)
    corrupted = res._replace(differentials=(res.differentials[0], broken, res.differentials[2]))
    report = check_exactness(GradedExactness(corrupted), 1, 8)
    assert not report.passed


def test_exactness_rejects_a_negative_degree_cap():
    engine = GradedExactness(build_three_squares(max_step=3))
    with pytest.raises(ValueError, match="max_internal_degree"):
        check_exactness(engine, 1, -1)


def test_exactness_names_a_misgraded_entry():
    from citaylor import LabeledGradedMatrix

    res = build_three_squares(max_step=4)
    phi2 = res.differential(2)
    assert str(phi2.entries[(0, 0)]) == "z"
    entries = dict(phi2.entries)
    entries[(0, 0)] = res.system.ring.parse("x^5")
    broken = LabeledGradedMatrix(phi2.ring, phi2.rows, phi2.cols, entries)
    diffs = res.differentials
    corrupted = res._replace(differentials=(diffs[0], broken, *diffs[2:]))
    with pytest.raises(
        ValueError, match=r"^phi_2 entry \(1, \{\}\) = x\^5 is not homogeneous of degree 1$"
    ):
        check_exactness(GradedExactness(corrupted), 1, 6)


def test_shared_engine_matches_fresh_checks(monkeypatch):
    import citaylor.quotient as quotient

    calls = []
    rank = quotient.rank_mod_p
    monkeypatch.setattr(quotient, "rank_mod_p", lambda rows, p: calls.append(p) or rank(rows, p))
    res = build_three_squares(max_step=5)
    engine = GradedExactness(res)
    shared = [check_exactness(engine, n, 9) for n in range(1, 5)]
    assert len(calls) == 5 * 10  # each (phi_k, d), k = 1..5, ranked once
    fresh = [check_exactness(GradedExactness(res), n, 9) for n in range(1, 5)]
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
    engine = GradedExactness(shamash_resolution(homotopy_system(ci, "first"), 4))
    for n in range(1, 4):
        assert check_exactness(engine, n, 7).passed
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
        engine = GradedExactness(res)
        assert engine.p == (ci.ring.field.characteristic or DEFAULT_PRIME)
        gb = buchberger([engine.ring.polynomial(a.terms) for a in ci.sequence])
        for k in range(1, 5):
            for d in range(8):
                expected = dense_graded_rank(res, gb, k, d)
                assert engine.rank(k, d) == expected, ([str(a) for a in ci.sequence], k, d)


def test_engine_belongs_to_one_resolution_and_prime():
    # the engine carries the resolution and takes the prime from it, so a check cannot mix them
    for field, p in ((GF(7), 7), (QQ, 32003)):
        res = build_three_squares(max_step=3, field=field)
        engine = GradedExactness(res)
        report = check_exactness(engine, 1, 4)
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
            engine = GradedExactness(res)
            for n in range(1, REGULAR_STEPS):
                report = check_exactness(engine, n, REGULAR_DEGREE)
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
