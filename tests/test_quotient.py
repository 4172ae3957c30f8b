"""Groebner bases, normal forms, and the graded exactness check."""
import random

import pytest

from citaylor import (
    BadPrime,
    CapExceeded,
    GF,
    PolyRing,
    buchberger,
    check_exactness,
    complete_intersection,
    graded_piece_basis,
    homotopy_system,
    lift_matrix,
    monomial_ideal,
    normal_form,
    shamash_resolution,
)
from citaylor.quotient import GradedExactness, rank_mod_p

from conftest import build_three_squares, build_poly_c1, ring


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


def test_caps_raise():
    R = ring("x,y")
    with pytest.raises(CapExceeded, match="max_degree"):
        buchberger([R.parse("x^21*y"), R.parse("x*y^21")])
    with pytest.raises(CapExceeded, match="max_pairs"):
        buchberger([R.parse("x^2 + y^2"), R.parse("x*y")], max_pairs=0)


def test_cap_spares_coprime_pairs():
    # leading terms are coprime, so the lone S-pair is skipped before any cap
    R = ring("x,y")
    gb = buchberger([R.parse("x^30"), R.parse("y^30")], max_degree=40, max_pairs=0)
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


def test_exactness_composite_prime_rejected():
    res = build_three_squares(max_step=3)
    with pytest.raises(BadPrime, match="not prime"):
        GradedExactness(res, 4)


def test_exactness_prime_dividing_denominator_rejected():
    R = ring("x,y,z")
    I = monomial_ideal(R, ["x*y", "x*z", "y*z"])
    ci = complete_intersection(I, ["x*y*z"])
    lift = lift_matrix(ci, "average")  # entries 1/3*z etc.
    res = shamash_resolution(homotopy_system(ci, lift=lift), 3)
    with pytest.raises(BadPrime, match="denominator"):
        check_exactness(GradedExactness(res, 3), 1, 5)
    report = check_exactness(GradedExactness(res, 5), 1, 6)
    assert report.passed, report.failure


def test_exactness_detects_a_broken_map():
    # resolve, then corrupt one differential entry and watch degree-wise ranks clash
    res = build_three_squares(max_step=3)
    phi2 = res.differential(2)
    entries = dict(phi2.entries)
    entries[(2, 0)] = res.system.ring.parse("y")
    from citaylor import LabeledGradedMatrix
    from dataclasses import replace

    broken = LabeledGradedMatrix(phi2.ring, phi2.rows, phi2.cols, entries)
    corrupted = replace(res, differentials=(res.differentials[0], broken, res.differentials[2]))
    report = check_exactness(GradedExactness(corrupted), 1, 8)
    assert not report.passed


def test_exactness_rejects_a_negative_degree_cap():
    engine = GradedExactness(build_three_squares(max_step=3))
    with pytest.raises(ValueError, match="max_internal_degree"):
        check_exactness(engine, 1, -1)


def test_exactness_names_a_misgraded_entry():
    from dataclasses import replace

    from citaylor import LabeledGradedMatrix

    res = build_three_squares(max_step=4)
    phi2 = res.differential(2)
    assert str(phi2.entries[(0, 0)]) == "z"
    entries = dict(phi2.entries)
    entries[(0, 0)] = res.system.ring.parse("x^5")
    broken = LabeledGradedMatrix(phi2.ring, phi2.rows, phi2.cols, entries)
    diffs = res.differentials
    corrupted = replace(res, differentials=(diffs[0], broken, *diffs[2:]))
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
    engine = GradedExactness(res, 32003)
    shared = [check_exactness(engine, n, 9) for n in range(1, 5)]
    assert len(calls) == 5 * 10  # each (phi_k, d), k = 1..5, ranked once
    fresh = [check_exactness(GradedExactness(res, 32003), n, 9) for n in range(1, 5)]
    assert len(calls) == 50 + 4 * 2 * 10
    assert [(r.title, r.passed, r.details) for r in shared] == [
        (r.title, r.passed, r.details) for r in fresh
    ]


def dense_graded_rank(res, k, d, p):
    """Reference: (dim, rank) of (phi_k)_d from the normal form of every entry
    times every standard monomial, ranked by dense elimination."""
    ring_p = PolyRing(res.system.ring.variables, GF(p))
    gb = buchberger([ring_p.polynomial(a.terms) for a in res.system.ci.sequence])

    def std(degree):
        return list(graded_piece_basis(gb, degree).monomials)

    rows = [(i, e) for i, b in enumerate(res.basis(k - 1)) for e in std(d - b.twist)]
    cols = [(j, w) for j, b in enumerate(res.basis(k)) for w in std(d - b.twist)]
    phi = res.differential(k)
    matrix = [{} for _ in rows]
    for c, (j, w) in enumerate(cols):
        for r, (i, e) in enumerate(rows):
            if (i, j) in phi.entries:
                image = normal_form(ring_p.polynomial(phi.entries[(i, j)].terms).mul_term(w), gb)
                matrix[r][c] = image.terms.get(e, GF(p).zero).value
    return len(cols), dense_rank(matrix, len(cols), p)


@pytest.mark.parametrize("lift", ["first", "average"])
def test_engine_ranks_match_dense_reference(lift):
    # the lift puts two terms into one entry (x + y), so images need summing
    R = ring("x,y,z")
    ci = complete_intersection(
        monomial_ideal(R, ["x^2", "y^2", "z^2"]), ["x^3 + x^2*y + x*y^2 + y^2*z"]
    )
    res = shamash_resolution(homotopy_system(ci, lift), 4)
    for p in (5, 32003):
        engine = GradedExactness(res, p)
        for k in range(1, 5):
            for d in range(8):
                assert engine.rank(k, d) == dense_graded_rank(res, k, d, p), (p, k, d)


def test_engine_belongs_to_one_resolution_and_prime():
    # the engine carries the resolution and the prime, so a check cannot mix them
    res = build_three_squares(max_step=3)
    for p in (7, 32003):
        engine = GradedExactness(res, p)
        report = check_exactness(engine, 1, 4)
        assert report.title == f"exactness at step 1 over GF({p})"
        assert engine.resolution is res and engine.ring.field.characteristic == p
    with pytest.raises(BadPrime, match="not prime"):
        GradedExactness(res, 9)
