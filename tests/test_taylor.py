"""Taylor complex: bases, differentials, and the d^2 = 0 identity."""
import functools
import math
import random
import warnings
from itertools import combinations

import pytest

from citaylor import (
    GF,
    QQ,
    MonomialIdeal,
    buchberger,
    complete_intersection,
    graded_piece_basis,
    homotopy_system,
    lift_matrix,
    monomial_ideal,
    shamash_resolution,
    taylor_complex,
    verify_taylor,
)

from conftest import build_squarefree_taylor, grid, random_ideal, ring


def test_basis_sizes_are_binomial(ring_xyz):
    cx = taylor_complex(monomial_ideal(ring_xyz, ["x^2", "y^2", "z^2"]))
    for k in range(5):
        assert len(cx.basis(k)) == math.comb(3, k)
    assert cx.basis(-1) == ()


def test_labels_sorted_and_one_based(ring_xyz):
    I = monomial_ideal(ring_xyz, ["x*y", "x*z", "y*z"])
    labels = taylor_complex(I).basis(2)
    assert [lab.indices for lab in labels] == [(1, 2), (1, 3), (2, 3)]
    assert [str(lab) for lab in labels] == ["12", "13", "23"]
    assert I.generator(1) == (1, 1, 0)


def test_label_twist_is_lcm_degree(ring_xyz):
    I = monomial_ideal(ring_xyz, ["x*y", "x*z", "y*z"])
    assert I.subset(()).twist == 0
    assert I.subset((1,)).twist == 2
    assert I.subset((1, 2)).lcm == (1, 1, 1)
    assert I.subset((1, 2, 3)).twist == 3


def test_basis_element_is_immutable_and_hashes_by_value(ring_xyz):
    I = monomial_ideal(ring_xyz, ["x*y", "x*z", "y*z"])
    element = I.subset((1, 2))
    assert element == taylor_complex(I).basis(2)[0]
    assert hash(element) == hash(I.subset([1, 2]))
    assert len({element, I.subset((1, 2)), I.subset((1, 3))}) == 2
    with pytest.raises(AttributeError):
        element.twist = 0
    with pytest.raises(TypeError):
        element[0] = (1,)
    assert element.twist == 3


def _ideal(n):
    return monomial_ideal(ring("x,y"), ["x^2", ("y^2", "x*y")[n]])


def _ci(n):
    return complete_intersection(_ideal(n), [("x^2 + y^2", "x^2*y + x*y^2")[n]])


@functools.lru_cache
def _system(n):
    """One system per n: a resolution holds its system, which compares by identity."""
    return homotopy_system(_ci(n))


def _resolution(n):
    return shamash_resolution(_system(n), 3 + n)


# record -> (build from n, whose two builds are equal and differ from the other n's;
#            a field; whether it hashes, which no record holding a matrix does)
RECORDS = {
    "PrimeField": (lambda n: GF((7, 11)[n]), "p", True),
    "PolyRing": (lambda n: ring(("x,y", "x,z")[n]), "variables", True),
    "MonomialIdeal": (_ideal, "generators", True),
    "TaylorComplex": (lambda n: taylor_complex(_ideal(n)), "differentials", False),
    "CompleteIntersectionData": (_ci, "sequence", True),
    "LiftMatrix": (lambda n: lift_matrix(_ci(n)), "rows", True),
    "GroebnerBasis": (lambda n: buchberger(_ci(n).sequence), "polys", True),
    "GradedPieceBasis": (
        lambda n: graded_piece_basis(buchberger(_ci(0).sequence), 3 + n), "monomials", True
    ),
    "MinimalityReport": (lambda n: _resolution(n).minimality, "minimal", True),
    "PeriodicityInfo": (lambda n: _resolution(n).periodicity, "status", True),
    "ShamashResolution": (_resolution, "bases", False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_and_compare_by_value(name):
    build, field, hashable = RECORDS[name]
    record, again, other = build(0), build(0), build(1)
    assert type(record).__name__ == name
    assert record is not again and record == again and record != other
    if hashable:
        assert hash(record) == hash(again)
        assert len({record, again, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(record)
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, getattr(other, field))
    assert record == again


def test_compact_label_widens_past_nine():
    R = ring(",".join(f"v{i}" for i in range(11)))
    gens = [tuple(1 if j == i else 0 for j in range(11)) for i in range(11)]
    I = monomial_ideal(R, gens)
    assert str(I.subset((1, 11))) == "{1,11}"
    assert str(I.subset(())) == "{}"


# ---- golden differentials --------------------------------------------------


def test_squarefree_example_tau1():
    cx = build_squarefree_taylor()
    assert grid(cx.differential(1)) == [["x*y", "x*z", "y*z"]]


def test_squarefree_example_tau2():
    cx = build_squarefree_taylor()
    assert grid(cx.differential(2)) == [
        ["z", "z", "0"],
        ["-y", "0", "y"],
        ["0", "-x", "-x"],
    ]


def test_squarefree_example_tau3():
    cx = build_squarefree_taylor()
    assert grid(cx.differential(3)) == [["1"], ["-1"], ["1"]]


def test_squarefree_example_twists():
    cx = build_squarefree_taylor()
    assert [lab.twist for lab in cx.basis(1)] == [2, 2, 2]
    assert [lab.twist for lab in cx.basis(2)] == [3, 3, 3]
    assert [lab.twist for lab in cx.basis(3)] == [3]


def test_differential_labels_match_bases():
    cx = build_squarefree_taylor()
    for k in (1, 2, 3):
        tau = cx.differential(k)
        assert tau.rows == cx.basis(k - 1)
        assert tau.cols == cx.basis(k)


def test_basis_out_of_range_is_empty():
    cx = build_squarefree_taylor()
    assert cx.basis(4) == ()
    assert cx.basis(-1) == ()


def test_differential_out_of_range(ring_xyz):
    cx = taylor_complex(monomial_ideal(ring_xyz, ["x*y"]))
    for k in (0, 2, -1):
        with pytest.raises(ValueError, match=rf"^no differential at step {k}: steps run 1\.\.1$"):
            cx.differential(k)


# ---- verification ----------------------------------------------------------


def test_verify_squarefree_example(ring_xyz):
    I = monomial_ideal(ring_xyz, ["x*y", "x*z", "y*z"])
    report = verify_taylor(taylor_complex(I))
    assert report.passed
    assert any("tau_1.tau_2" in line for line in report.details)


def test_verify_single_generator(ring_xyz):
    report = verify_taylor(taylor_complex(monomial_ideal(ring_xyz, ["x^2*y"])))
    assert report.passed


def test_differentials_are_homogeneous():
    cx = build_squarefree_taylor()
    for k in (1, 2, 3):
        assert cx.differential(k).homogeneity_violations() == []


def test_verify_taylor_reports_a_corrupted_complex():
    """A negated tau_2 entry breaks tau.tau = 0; an inhomogeneous tau_3 entry is named."""
    from citaylor import LabeledGradedMatrix, TaylorComplex

    cx = build_squarefree_taylor()
    assert verify_taylor(cx).passed  # every square is now kept by cx, and by no copy of it
    tau1, tau2, tau3 = cx.differentials
    negated = dict(tau2.entries)
    negated[(0, 0)] = -negated[(0, 0)]
    ungraded = dict(tau3.entries)
    ungraded[(0, 0)] = tau3.ring.parse("x^2 + y")
    broken = TaylorComplex(
        cx.ideal,
        cx.bases,
        (
            tau1,
            LabeledGradedMatrix(tau2.ring, tau2.rows, tau2.cols, negated),
            LabeledGradedMatrix(tau3.ring, tau3.rows, tau3.cols, ungraded),
        ),
    )
    report = verify_taylor(broken)
    assert not report.passed
    assert report.details == [
        "FAIL: tau_1.tau_2 nonzero at ({}, 12): -2*x*y*z",
        "FAIL: tau_2.tau_3 nonzero at (1, 123): -x^2*z - y*z - z",
        "FAIL: tau_3 entry (12, 123) = x^2 + y is not homogeneous",
    ]
    assert report.failure == "tau_1.tau_2 nonzero at ({}, 12): -2*x*y*z"
    assert verify_taylor(broken) == report != verify_taylor(cx)  # reports compare by value
    with pytest.raises(TypeError):
        hash(report)


def test_homogeneity_checks_a_shared_entry_at_each_cell():
    """One entry object at cells of different expected degree: only the wrong cells
    are named, in (row, col) order, with the witness verify_taylor prints."""
    from citaylor import LabeledGradedMatrix, TaylorComplex

    R = ring("x,y")
    cx = taylor_complex(monomial_ideal(R, ["x^2", "y"]))
    tau1, tau2 = cx.differentials
    square = tau1.entries[(0, 0)]
    assert str(square) == "x^2"
    assert [b.twist for b in tau1.rows] == [0] and [b.twist for b in tau1.cols] == [2, 1]
    shared = LabeledGradedMatrix(R, tau1.rows, tau1.cols, {(0, 1): square, (0, 0): square})
    assert shared.homogeneity_violations() == [(tau1.rows[0], tau1.cols[1], square)]
    report = verify_taylor(TaylorComplex(cx.ideal, cx.bases, (shared, tau2)))
    assert [line for line in report.details if "homogeneous" in line] == [
        "FAIL: tau_1 entry ({}, 2) = x^2 is not homogeneous"
    ]

    # rows and cols T_1 (twists 2, 1): expected degrees 0, -1 / 1, 0
    y, mixed = R.parse("y"), R.parse("x^2 + y")
    cells = {(1, 1): mixed, (1, 0): y, (0, 1): mixed, (0, 0): y}
    m = LabeledGradedMatrix(R, tau1.cols, tau1.cols, cells)
    assert [(r.indices, c.indices, p) for r, c, p in m.homogeneity_violations()] == [
        ((1,), (1,), y),
        ((1,), (2,), mixed),
        ((2,), (2,), mixed),
    ]


def test_verify_random_ideals():
    rng = random.Random(20260816)
    for _ in range(10):
        I = random_ideal(rng)
        report = verify_taylor(taylor_complex(I))
        assert report.passed, report.failure


def test_verify_taylor_reuses_a_built_complex(monkeypatch):
    import citaylor.taylor as taylor

    rng = random.Random(20261018)
    for _ in range(5):
        I = random_ideal(rng)
        fresh = verify_taylor(taylor_complex(I))
        built = taylor_complex(I)
        monkeypatch.setattr(taylor, "taylor_complex", lambda ideal: pytest.fail("rebuilt"))
        monkeypatch.setattr(taylor, "LabeledGradedMatrix", lambda *args: pytest.fail("rebuilt"))
        reused = verify_taylor(built)
        monkeypatch.undo()
        assert (reused.passed, reused.details, reused.failure) == (
            fresh.passed, fresh.details, fresh.failure
        )


def test_equal_taylor_entries_are_one_object():
    # seven squares plus x*y: every entry is +-(one variable or its square)
    R = ring("a,b,c,d,e,f,g")
    cx = taylor_complex(monomial_ideal(R, [f"{v}^2" for v in R.variables] + ["a*b"]))
    by_value = {}
    total = 0
    for k in range(1, cx.ideal.ngens + 1):
        for p in cx.differential(k).entries.values():
            assert by_value.setdefault(p, p) is p, f"tau_{k} entry {p} is a copy"
            total += 1
    assert total > 1000 and len(by_value) < 40


def test_square_is_zero_random():
    rng = random.Random(5)
    for _ in range(6):
        I = random_ideal(rng, max_vars=3, max_gens=5)
        cx = taylor_complex(I)
        for k in range(1, I.ngens):
            assert cx.differential(k).compose(cx.differential(k + 1)).is_zero()


def random_gens(rng, nvars, r):
    """r generators, some repeated and some multiples of earlier ones."""
    gens = []
    while len(gens) < r:
        roll = rng.random()
        if gens and roll < 0.2:
            gens.append(rng.choice(gens))
        elif gens and roll < 0.45:
            bump = rng.randrange(nvars)
            base = rng.choice(gens)
            gens.append(tuple(e + (i == bump) for i, e in enumerate(base)))
        else:
            g = [rng.randint(0, 2) for _ in range(nvars)]
            g[rng.randrange(nvars)] += not any(g)
            gens.append(tuple(g))
    return gens


def assert_matches_standalone_builders(I):
    """Every basis is the lex list of I.subset labels, and every tau_k entry is the
    signed lcm quotient its face calls for, found by searching the basis below."""
    R, r = I.ring, I.ngens
    cx = taylor_complex(I)
    assert len(cx.bases) == r + 1
    for k in range(r + 1):
        labels = [I.subset(c) for c in combinations(range(1, r + 1), k)]
        assert list(cx.basis(k)) == labels
    for k in range(1, r + 1):
        tau = cx.differential(k)
        assert tau.rows == cx.basis(k - 1) and tau.cols == cx.basis(k)
        expected = {}
        for j, col in enumerate(cx.basis(k)):
            for pos, s in enumerate(col.indices, start=1):
                face = I.subset(t for t in col.indices if t != s)
                quot = tuple(a - b for a, b in zip(col.lcm, face.lcm))
                assert min(quot) >= 0
                expected[(cx.basis(k - 1).index(face), j)] = R.term(quot, (-1) ** (k - pos))
        assert tau.entries == expected


BIG = 2**40

# the edges of the packed lcms: one field, one generator, the generator 1 (every exponent
# 0, fields one bit wide), equal labels, and fields 42 bits wide
PACKING_EDGES = [
    ("x", [(2,), (5,), (1,), (3,)]),
    ("x,y,z", [(1, 2, 0)]),
    ("x,y", [(0, 0), (1, 0), (0, 3)]),
    ("x,y", [(0, 0)]),
    ("x,y,z", [(1, 1, 0), (0, 2, 1), (1, 1, 0), (0, 2, 1), (2, 0, 0)]),
    ("x,y,z", [(BIG, 0, 0), (0, 1, 0), (BIG - 1, 3, 1), (1, 0, BIG)]),
    ("x,y", [(BIG, 1), (1, BIG), (BIG, BIG)]),
]


def test_single_pass_complex_matches_standalone_builders():
    rng = random.Random(20261017)
    ideals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for trial in range(24):
            nvars = rng.randint(1, 4)
            R = ring(",".join("xyzw"[:nvars]), GF(32003) if trial % 2 else QQ)
            ideals.append(monomial_ideal(R, random_gens(rng, nvars, rng.randint(1, 7))))
        ideals += [monomial_ideal(ring(names), gens) for names, gens in PACKING_EDGES]
    for I in ideals:
        assert_matches_standalone_builders(I)


# ---- construction edge cases -----------------------------------------------


def test_duplicate_generators_warn(ring_xyz):
    message = "^duplicate generators make every resolution here nonminimal$"
    with pytest.warns(UserWarning, match=message):
        I = monomial_ideal(ring_xyz, ["x*y", "x*y"])
    with pytest.warns(UserWarning, match=message):
        assert I._replace() == I


def test_nonmonomial_generator_rejected(ring_xyz):
    with pytest.raises(ValueError):
        monomial_ideal(ring_xyz, ["x + y"])
    with pytest.raises(ValueError):
        monomial_ideal(ring_xyz, ["2*x"])


def test_empty_ideal_rejected(ring_xyz):
    with pytest.raises(ValueError, match="^ideal needs at least one generator$"):
        monomial_ideal(ring_xyz, [])
    with pytest.raises(ValueError, match="^ideal needs at least one generator$"):
        monomial_ideal(ring_xyz, ["x"])._replace(generators=())


def test_wrong_arity_generator_rejected(ring_xyz):
    with pytest.raises(ValueError):
        monomial_ideal(ring_xyz, [(1, 0)])
    with pytest.raises(ValueError, match="negative exponent"):
        monomial_ideal(ring_xyz, [(1, -1, 0)])
    with pytest.raises(ValueError, match="^generator does not live in the ring$"):
        MonomialIdeal(ring("x,y"), ((1,),))
    with pytest.raises(ValueError, match="^generator does not live in the ring$"):
        monomial_ideal(ring("x,y"), ["x"])._replace(generators=((1,),))
    with pytest.raises(ValueError, match="^generator does not live in the ring$"):
        monomial_ideal(ring("x,y"), ["x"])._replace(ring=ring_xyz)
