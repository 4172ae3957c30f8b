"""End-to-end release checks, one test per numbered criterion.

Every comparison here is exact: matrix entries are compared as canonical
strings, ranks as integers. The only tolerances anywhere are wall-clock
budgets on the three heavier criteria. Run with

    pytest tests/test_acceptance.py -v -s

to see one [PASS]/[FAIL] line per criterion as the suite goes by.
"""
import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

from citaylor import (
    GradedExactness,
    average_lifts,
    check_exactness,
    complete_intersection,
    homotopy_system,
    lift_matrix,
    matrix_factorization,
    monomial_ideal,
    phi_squared_check,
    rank_formula,
    shamash_resolution,
    taylor_complex,
    verify_homotopy_system,
    verify_taylor,
)
from conftest import (
    build_codim2,
    build_three_squares,
    build_monomial_c1,
    build_poly_c1,
    build_tate,
    grid,
    random_instance,
    ring,
    seeded_rng,
    weighted_sum,
)


@contextmanager
def criterion(num, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label} ({time.perf_counter() - started:.2f}s)")


def diagonal_grid(poly, size):
    return [[str(poly) if i == j else "0" for j in range(size)] for i in range(size)]


# ---- golden data -------------------------------------------------------------
# Matrices for the worked examples, frozen as printed grids. Row and column
# order is the library's basis order (subsets lexicographic, then divided
# powers lexicographic), so these pin signs and basis order at once.

THREE_SQUARES_PHI1 = [["x^2", "y^2", "z^2"]]
THREE_SQUARES_PHI2 = [
    ["z", "y^2", "z^2", "0"],
    ["x", "-x^2", "0", "z^2"],
    ["0", "0", "-x^2", "-y^2"],
]
THREE_SQUARES_ODD = [
    ["x^2", "y^2", "z^2", "0"],
    ["x", "-z", "0", "z^2"],
    ["0", "0", "-z", "-y^2"],
    ["0", "0", "-x", "x^2"],
]
THREE_SQUARES_EVEN = [
    ["z", "y^2", "z^2", "0"],
    ["x", "-x^2", "0", "z^2"],
    ["0", "0", "-x^2", "-y^2"],
    ["0", "0", "-x", "z"],
]

TAYLOR_SQ_TAU1 = [["x*y", "x*z", "y*z"]]
TAYLOR_SQ_TAU2 = [["z", "z", "0"], ["-y", "0", "y"], ["0", "-x", "-x"]]
TAYLOR_SQ_TAU3 = [["1"], ["-1"], ["1"]]

# the three single-generator routings of xyz through <xy, xz, yz>
MONOMIAL_VARIANTS = {
    1: {
        2: [["z", "z", "z", "0"], ["0", "-y", "0", "y"], ["0", "0", "-x", "-x"]],
        3: [
            ["x*y", "x*z", "y*z", "0"],
            ["0", "-x*z", "0", "1"],
            ["0", "0", "-y*z", "-1"],
            ["0", "0", "0", "1"],
        ],
        4: [
            ["z", "z", "z", "0"],
            ["0", "-y", "0", "y"],
            ["0", "0", "-x", "-x"],
            ["0", "0", "0", "x*y*z"],
        ],
    },
    2: {
        2: [["0", "z", "z", "0"], ["y", "-y", "0", "y"], ["0", "0", "-x", "-x"]],
        3: [
            ["x*y", "x*z", "y*z", "0"],
            ["x*y", "0", "0", "1"],
            ["0", "0", "0", "-1"],
            ["0", "0", "-y*z", "1"],
        ],
        4: [
            ["0", "z", "z", "0"],
            ["y", "-y", "0", "y"],
            ["0", "0", "-x", "-x"],
            ["0", "0", "-x*y*z", "0"],
        ],
    },
    3: {
        2: [["0", "z", "z", "0"], ["0", "-y", "0", "y"], ["x", "0", "-x", "-x"]],
        3: [
            ["x*y", "x*z", "y*z", "0"],
            ["0", "0", "0", "1"],
            ["x*y", "0", "0", "-1"],
            ["0", "x*z", "0", "1"],
        ],
        4: [
            ["0", "z", "z", "0"],
            ["0", "-y", "0", "y"],
            ["x", "0", "-x", "-x"],
            ["0", "x*y*z", "0", "0"],
        ],
    },
}

POLY_C1_PHI1 = [["x^2", "y^2"]]
POLY_C1_EVEN = [["y", "y^2"], ["x", "-x^2"]]
POLY_C1_ODD = [["x^2", "y^2"], ["x", "-y"]]

CODIM2_SIGMA_1 = {
    0: [["x"], ["y"], ["0"], ["0"]],
    1: [
        ["y", "-x", "0", "0"],
        ["0", "0", "-x", "0"],
        ["0", "0", "0", "-x"],
        ["0", "0", "-y", "0"],
        ["0", "0", "0", "-y"],
        ["0", "0", "0", "0"],
    ],
    2: [
        ["0", "-y", "0", "x", "0", "0"],
        ["0", "0", "-y", "0", "x", "0"],
        ["0", "0", "0", "0", "0", "x"],
        ["0", "0", "0", "0", "0", "y"],
    ],
    3: [["0", "0", "y", "-x"]],
}
CODIM2_SIGMA_2 = {
    0: [["0"], ["0"], ["z"], ["w"]],
    1: [
        ["0", "0", "0", "0"],
        ["z", "0", "0", "0"],
        ["w", "0", "0", "0"],
        ["0", "z", "0", "0"],
        ["0", "w", "0", "0"],
        ["0", "0", "w", "-z"],
    ],
    2: [
        ["z", "0", "0", "0", "0", "0"],
        ["w", "0", "0", "0", "0", "0"],
        ["0", "w", "-z", "0", "0", "0"],
        ["0", "0", "0", "w", "-z", "0"],
    ],
    3: [["w", "-z", "0", "0"]],
}


def squarefree_ci():
    R = ring("x,y,z")
    I = monomial_ideal(R, ["x*y", "x*z", "y*z"])
    return complete_intersection(I, ["x*y*z"])


def last_divisor_assignments(ci):
    """A fixed assignment routing every term to its largest dividing generator."""
    maps = []
    for a in ci.sequence:
        amap = {}
        for e in a.terms:
            divisors = [
                t
                for t in range(1, ci.ideal.ngens + 1)
                if all(g <= x for g, x in zip(ci.ideal.generator(t), e))
            ]
            amap[e] = divisors[-1]
        maps.append(amap)
    return maps


def run_identity_suite(system, max_step=8):
    for report in (verify_taylor(system.complex), verify_homotopy_system(system)):
        assert report.passed, report.summary()
    squared = phi_squared_check(shamash_resolution(system, max_step))
    assert squared.passed, squared.summary()


# ---- the criteria -------------------------------------------------------------


def test_criterion_1_three_squares_periodic_tail():
    with criterion(1, "three-squares example reproduces phi_1, phi_2 and the tail"):
        started = time.perf_counter()
        res = build_three_squares(max_step=6)
        assert grid(res.differential(1)) == THREE_SQUARES_PHI1
        assert grid(res.differential(2)) == THREE_SQUARES_PHI2
        for n in (3, 5):
            assert grid(res.differential(n)) == THREE_SQUARES_ODD
        for n in (4, 6):
            assert grid(res.differential(n)) == THREE_SQUARES_EVEN
        # basis order pinned by the twist sequences of the displayed modules
        assert [b.twist for b in res.basis(2)] == [3, 4, 4, 4]
        assert [b.twist for b in res.basis(3)] == [5, 5, 5, 6]
        assert [b.twist for b in res.basis(4)] == [6, 7, 7, 7]
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget is 1s"


def test_criterion_2_golden_matrices():
    with criterion(2, "golden Taylor, hypersurface, variant, and codim-2 matrices"):
        # Taylor differentials of <xy, xz, yz>
        tay = taylor_complex(monomial_ideal(ring("x,y,z"), ["x*y", "x*z", "y*z"]))
        assert grid(tay.differential(1)) == TAYLOR_SQ_TAU1
        assert grid(tay.differential(2)) == TAYLOR_SQ_TAU2
        assert grid(tay.differential(3)) == TAYLOR_SQ_TAU3

        # hypersurface homotopies
        R = ring("x1,x2")
        hyp = homotopy_system(
            complete_intersection(monomial_ideal(R, ["x1^2", "x2^2"]), ["x1^5"]),
            "first",
        )
        assert grid(hyp.sigma_e(1, 0)) == [["x1^3"], ["0"]]
        assert grid(hyp.sigma_e(1, 1)) == [["0", "-x1^3"]]

        # the three variant resolutions from the three single-generator lifts
        for gen in (1, 2, 3):
            res = build_monomial_c1(gen, max_step=6)
            assert grid(res.differential(1)) == TAYLOR_SQ_TAU1
            for n in (2, 3, 4):
                assert grid(res.differential(n)) == MONOMIAL_VARIANTS[gen][n]
            assert grid(res.differential(5)) == MONOMIAL_VARIANTS[gen][3]
            assert grid(res.differential(6)) == MONOMIAL_VARIANTS[gen][4]

        # the length-one polynomial sequence example
        poly = build_poly_c1(max_step=6)
        assert grid(poly.differential(1)) == POLY_C1_PHI1
        for n in (2, 4, 6):
            assert grid(poly.differential(n)) == POLY_C1_EVEN
        for n in (3, 5):
            assert grid(poly.differential(n)) == POLY_C1_ODD

        # codim-2 homotopies for both sequence elements, k = 0..3
        system = build_codim2(max_step=2).system
        for k in range(4):
            assert grid(system.sigma_e(1, k)) == CODIM2_SIGMA_1[k]
            assert grid(system.sigma_e(2, k)) == CODIM2_SIGMA_2[k]


def test_criterion_3_identity_suite():
    with criterion(3, "identity suite on worked examples and 25 random instances"):
        started = time.perf_counter()
        run_identity_suite(build_three_squares(max_step=8).system)
        run_identity_suite(build_codim2(max_step=8).system)

        rng = seeded_rng()
        for _ in range(25):
            ideal, ci = random_instance(rng, max_vars=4, max_gens=5, max_codim=2)
            for strategy in ("first", "average"):
                run_identity_suite(homotopy_system(ci, strategy))
            fixed = lift_matrix(ci, last_divisor_assignments(ci))
            run_identity_suite(homotopy_system(ci, lift=fixed))
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


def enumerated_rank(r, c, n):
    """Count basis pairs (u, S) with |S| + 2|u| = n by direct enumeration."""
    total = 0
    for q in range(n // 2 + 1):
        size = n - 2 * q
        if size > r:
            continue
        subsets = sum(1 for _ in itertools.combinations(range(r), size))
        powers = sum(1 for u in itertools.product(range(q + 1), repeat=c) if sum(u) == q)
        total += subsets * powers
    return total


def test_criterion_4_rank_formula():
    with criterion(4, "codim-2 rank sequence and closed form vs enumeration"):
        res = build_codim2(max_step=5)
        ranks = [res.rank(n) for n in range(6)]
        assert ranks == [1, 4, 8, 12, 16, 20]
        assert ranks == [rank_formula(4, 2, n) for n in range(6)]
        for r in range(1, 9):
            for c in range(1, 5):
                for n in range(17):
                    assert rank_formula(r, c, n) == enumerated_rank(r, c, n)


def test_criterion_5_matrix_factorizations():
    with criterion(5, "stable pairs AB = BA = a*I and nonminimal tail witnesses"):
        for res in (build_three_squares(max_step=6), build_poly_c1(max_step=6)):
            A, B = matrix_factorization(res)
            a = res.system.ci.sequence[0]
            size = A.shape[0]
            assert A.shape == B.shape == (size, size)
            assert grid(A.compose(B)) == diagonal_grid(a, size)
            start = res.periodicity.start
            following = res.differential(start + 2)
            assert grid(B.compose(following)) == diagonal_grid(a, size)

        for gen in (1, 2, 3):
            report = build_monomial_c1(gen, max_step=6).minimality
            assert not report.minimal
            units = [str(entry) for (_, _, _, entry) in report.unit_taylor_entries]
            assert units and set(units) <= {"1", "-1"}
            assert any("is a unit" in line for line in report.describe())


def test_criterion_6_koszul_special_case():
    with criterion(6, "maximal-ideal example is minimal with binomial-sum ranks"):
        res = build_tate(max_step=6)
        assert res.minimality.minimal
        for n in range(7):
            expected = sum(math.comb(3, n - 2 * j) for j in range(n // 2 + 1))
            assert res.rank(n) == expected == rank_formula(3, 1, n)


def test_criterion_7_exactness_spot_check():
    with criterion(7, "exactness over GF(32003) in degrees 1..4, internal <= 10"):
        started = time.perf_counter()
        for build in (build_three_squares, build_poly_c1):
            engine = GradedExactness(build(max_step=5), 32003)
            for n in range(1, 5):
                report = check_exactness(engine, n, max_internal_degree=10)
                assert report.passed, report.summary()
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"


def test_criterion_8_averaged_lift():
    with criterion(8, "uniform average of the three variant lifts"):
        ci = squarefree_ci()
        lifts = [
            lift_matrix(ci, [{(1, 1, 1): gen}]) for gen in (1, 2, 3)
        ]
        averaged = average_lifts(lifts, [Fraction(1, 3)] * 3)
        assert averaged.rows == lift_matrix(ci, "average").rows

        avg_system = homotopy_system(ci, lift=averaged)
        run_identity_suite(avg_system)

        # sigma of the average is the average of the sigmas, entry for entry
        third = ci.ring.field.coerce(Fraction(1, 3))
        systems = [homotopy_system(ci, lift=lift) for lift in lifts]
        for k in range(ci.ideal.ngens):
            expected = weighted_sum([system.sigma_e(1, k) for system in systems], [third] * 3)
            assert avg_system.sigma_e(1, k) == expected
