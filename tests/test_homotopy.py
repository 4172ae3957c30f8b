"""Lifts and the higher homotopies on the Taylor complex."""
import random
import re
from fractions import Fraction

import pytest

from citaylor import (
    GF,
    QQ,
    HomotopySystem,
    LiftMatrix,
    NonHomogeneous,
    NotInIdeal,
    average_lifts,
    complete_intersection,
    compute_lift,
    homotopy_system,
    lift_matrix,
    lift_matrix_from_rows,
    monomial_ideal,
    verify_homotopy_system,
)
from citaylor.cli import parse_assignments

from conftest import (
    corrupt_sigma_1_on_t_1,
    grid,
    random_ideal,
    random_instance,
    random_sequence,
    reference_sigma,
    ring,
    weighted_sum,
)


def squarefree_ci(field=None):
    R = ring("x,y,z") if field is None else ring("x,y,z", field)
    I = monomial_ideal(R, ["x*y", "x*z", "y*z"])
    return complete_intersection(I, ["x*y*z"])


def codim2_ci():
    R = ring("x,y,z,w")
    I = monomial_ideal(R, ["x^2", "y^2", "z^2", "w^2"])
    return complete_intersection(I, ["x^3 + y^3", "z^3 + w^3"])


# ---- sequence validation ---------------------------------------------------


def test_complete_intersection_records_degrees():
    ci = codim2_ci()
    assert ci.codim == 2
    assert ci.degrees == (3, 3)


def test_sequence_must_be_homogeneous(ring_xyz):
    I = monomial_ideal(ring_xyz, ["x^2", "y^2"])
    with pytest.raises(NonHomogeneous):
        complete_intersection(I, ["x^2 + y"])
    with pytest.raises(NonHomogeneous):
        complete_intersection(I, ["0"])
    with pytest.raises(ValueError):
        complete_intersection(I, [])


# ---- lift strategies ---------------------------------------------------------


def test_first_strategy_examples():
    ci = squarefree_ci()
    row = compute_lift(ci.sequence[0], ci.ideal, "first")
    assert [str(f) for f in row] == ["z", "0", "0"]

    ci2 = codim2_ci()
    lift = lift_matrix(ci2, "first")
    assert [str(f) for f in lift.rows[0]] == ["x", "y", "0", "0"]
    assert [str(f) for f in lift.rows[1]] == ["0", "0", "z", "w"]
    assert str(lift.entry(1, 2)) == "y"


def test_average_strategy_spreads_uniformly():
    ci = squarefree_ci()
    row = compute_lift(ci.sequence[0], ci.ideal, "average")
    assert [str(f) for f in row] == ["1/3*z", "1/3*y", "1/3*x"]
    LiftMatrix(ci, (row,))


def test_average_blocked_in_bad_characteristic():
    ci = squarefree_ci(GF(3))
    with pytest.raises(ValueError, match="characteristic 3"):
        compute_lift(ci.sequence[0], ci.ideal, "average")


def test_average_fine_in_good_characteristic():
    ci = squarefree_ci(GF(7))
    row = compute_lift(ci.sequence[0], ci.ideal, "average")
    LiftMatrix(ci, (row,))


def test_fixed_assignment_routes_terms():
    ci = squarefree_ci()
    for gen, expected in [(1, ["z", "0", "0"]), (2, ["0", "y", "0"]), (3, ["0", "0", "x"])]:
        lift = lift_matrix(ci, [{(1, 1, 1): gen}])
        assert [str(f) for f in lift.rows[0]] == expected


def test_fixed_assignment_validation():
    ci = squarefree_ci()
    I = ci.ideal
    a = ci.sequence[0]
    with pytest.raises(ValueError, match="no assignment"):
        compute_lift(a, I, {})
    with pytest.raises(ValueError, match="out of range"):
        compute_lift(a, I, {(1, 1, 1): 9})
    with pytest.raises(ValueError, match="does not divide"):
        R = ring("x,y,z")
        J = monomial_ideal(R, ["x*y", "z^3"])
        compute_lift(R.parse("x*y*z"), J, {(1, 1, 1): 2})
    with pytest.raises(ValueError, match="unknown lift strategy"):
        compute_lift(a, I, "nearest")
    R = ring("x,y")
    K = monomial_ideal(R, [(0, 0), (1, 0)])  # the constant term prints as 1
    with pytest.raises(ValueError, match="^no assignment for term 1$"):
        compute_lift(R.parse("1"), K, {})
    with pytest.raises(ValueError, match="^generator 2 does not divide term 1$"):
        compute_lift(R.parse("1"), K, {(0, 0): 2})


def test_a_lift_is_one_rule_value():
    """A rule name or a map is one rule for every element; a list gives one per element."""
    ci = squarefree_ci()
    assert lift_matrix(ci, {(1, 1, 1): 2}).rows == lift_matrix(ci, [{(1, 1, 1): 2}]).rows
    with pytest.raises(ValueError, match="unknown lift strategy 'fixed-assignment'"):
        lift_matrix(ci, "fixed-assignment")
    with pytest.raises(ValueError, match="unknown lift strategy None"):
        homotopy_system(ci, None)
    with pytest.raises(ValueError, match="lift has 2 assignment rows, sequence has 1"):
        lift_matrix(ci, [{(1, 1, 1): 1}, {(1, 1, 1): 2}])
    twice = complete_intersection(ci.ideal, ["x*y*z", "x*y*z"])
    mixed = lift_matrix(twice, ["first", "average"])
    assert [[str(f) for f in row] for row in mixed.rows] == [
        ["z", "0", "0"],
        ["1/3*z", "1/3*y", "1/3*x"],
    ]


def test_term_outside_ideal_rejected(ring_xyz):
    I = monomial_ideal(ring_xyz, ["x^2", "y^2"])
    with pytest.raises(NotInIdeal):
        compute_lift(ring_xyz.parse("x*y*z"), I, "first")


def test_parse_assignments():
    R = ring("x,y,z")
    doc = {"assignments": [{"term": "x*y*z", "gen": 2}]}
    assert parse_assignments(R, doc) == {(1, 1, 1): 2}
    for bad in [
        {"assignments": [{"term": "x + y", "gen": 1}]},
        {"assignments": [{"term": "2*x", "gen": 1}]},
        {"assignments": [{"term": "x", "gen": 1}, {"term": "x", "gen": 2}]},
        {"assignments": [{"term": "x", "gen": "one"}]},
        "x",
        None,
        {"assignments": 5},
        {"assignments": [5]},
        {"assignments": [{"term": 5, "gen": 1}]},
        {"assignments": [{"term": "x", "gen": True}]},
        {"assignments": [{"term": "x"}]},
        {},
    ]:
        with pytest.raises(ValueError):
            parse_assignments(R, bad)


def test_lift_rows_are_checked():
    ci = squarefree_ci()
    R = ci.ring
    bad = ((R.parse("z"), R.parse("1"), R.zero),)
    with pytest.raises(ValueError, match="not a lift"):
        lift_matrix_from_rows(ci, bad)
    with pytest.raises(ValueError, match="c x r"):
        lift_matrix_from_rows(ci, ((R.parse("z"),),))
    # the record checks itself: built directly, or by _replace from a checked lift
    with pytest.raises(ValueError, match=r"^row 1 is not a lift: sum f\*m = x\*y\*z \+ x\*z, expected x\*y\*z$"):
        LiftMatrix(ci, bad)
    lift = lift_matrix(ci, "first")
    with pytest.raises(ValueError, match="not a lift"):
        lift._replace(rows=bad)
    with pytest.raises(ValueError, match="c x r"):
        lift._replace(rows=())
    assert lift._replace(rows=[list(row) for row in lift.rows]) == lift


def test_ungraded_lift_rows_are_rejected():
    """(z + y^2, x - x^2, 0) sums to a = x^2*z + x*y^2, but its entries are not graded."""
    R = ring("x,y,z")
    ci = complete_intersection(monomial_ideal(R, ["x^2", "y^2", "z^2"]), ["x^2*z + x*y^2"])
    ungraded = [R.parse("z + y^2"), R.parse("x - x^2"), R.zero]
    with pytest.raises(ValueError, match=r"^lift entry f\[1,1\] = y\^2 \+ z is not homogeneous of degree 1$"):
        lift_matrix_from_rows(ci, [ungraded])
    # homogeneous, but a syzygy of y^2 and z^2 puts degree-2 entries where degree 1 belongs
    ci2 = complete_intersection(ci.ideal, ["x^2*z"])
    with pytest.raises(ValueError, match=r"^lift entry f\[1,2\] = z\^2 is not homogeneous of degree 1$"):
        lift_matrix_from_rows(ci2, [[R.parse("z"), R.parse("z^2"), R.parse("-y^2")]])
    graded = (R.parse("z"), R.parse("x"), R.zero)
    lift = lift_matrix_from_rows(ci, [graded])
    assert lift.rows == (graded,)
    with pytest.raises(ValueError, match=r"^lift entry f\[1,1\] = y\^2 \+ z is not homogeneous of degree 1$"):
        LiftMatrix(ci, [ungraded])
    with pytest.raises(ValueError, match=r"^lift entry f\[1,1\] = y\^2 \+ z is not homogeneous of degree 1$"):
        lift._replace(rows=[ungraded])


# ---- averaging ---------------------------------------------------------------


def variant_lifts():
    ci = squarefree_ci()
    return ci, [
        lift_matrix(ci, [{(1, 1, 1): g}]) for g in (1, 2, 3)
    ]


def test_average_lifts_matches_average_strategy():
    ci, lifts = variant_lifts()
    avg = average_lifts(lifts, [Fraction(1, 3)] * 3)
    assert avg.rows == lift_matrix(ci, "average").rows


def test_average_lifts_takes_a_zero_weight():
    """A weight of 0 is allowed and drops its lift, leaving the first lift exactly."""
    _, (first, other, _) = variant_lifts()
    assert first.rows != other.rows
    assert average_lifts([first, other], [1, 0]).rows == first.rows


def test_average_lifts_validation():
    ci, lifts = variant_lifts()
    with pytest.raises(ValueError, match="one weight per lift"):
        average_lifts(lifts, [1])
    with pytest.raises(ValueError, match="nonnegative"):
        average_lifts(lifts, [-1, 1, 1])
    with pytest.raises(ValueError, match="sum to"):
        average_lifts(lifts, [Fraction(1, 2)] * 3)
    other = lift_matrix(codim2_ci(), "first")
    with pytest.raises(ValueError, match="different sequences"):
        average_lifts([lifts[0], other], [Fraction(1, 2), Fraction(1, 2)])


def test_average_lifts_rejects_a_weight_the_field_cannot_hold():
    ci = squarefree_ci(GF(7))
    lifts = [lift_matrix(ci, [{(1, 1, 1): g}]) for g in (1, 2, 3)]
    with pytest.raises(ValueError, match="^weight unusable in characteristic 7: "):
        average_lifts(lifts, [Fraction(1, 7), Fraction(3, 7), Fraction(3, 7)])


def test_average_lifts_refuses_a_float_weight():
    """0.2 + 0.8 is 1 as floats, but 0.2's binary value is not 1/5: the float is
    named before anything is summed, and the exact weights give the exact average."""
    _, (first, other, _) = variant_lifts()
    for weights, named in (([0.2, 0.8], "0.2"), ([Fraction(1, 5), 0.8], "0.8"), ([1.0, 0], "1.0")):
        message = f"weight {named} is a float: give weights as ints or Fractions"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            average_lifts([first, other], weights)
    exact = average_lifts([first, other], [Fraction(1, 5), Fraction(4, 5)])
    assert exact.rows[0][0] == first.rows[0][0].scale(Fraction(1, 5))


# ---- the homotopies -----------------------------------------------------------


def test_monomial_example_sigma_grids():
    ci = squarefree_ci()
    system = homotopy_system(ci, [{(1, 1, 1): 1}])
    assert grid(system.sigma_e(1, 0)) == [["z"], ["0"], ["0"]]
    assert grid(system.sigma_e(1, 1)) == [
        ["0", "-x*z", "0"],
        ["0", "0", "-y*z"],
        ["0", "0", "0"],
    ]
    assert grid(system.sigma_e(1, 2)) == [["0", "0", "x*y*z"]]


def test_hypersurface_sigma_grids():
    R = ring("x1,x2")
    I = monomial_ideal(R, ["x1^2", "x2^2"])
    ci = complete_intersection(I, ["x1^5"])
    system = homotopy_system(ci, "first")
    assert grid(system.sigma_e(1, 0)) == [["x1^3"], ["0"]]
    assert grid(system.sigma_e(1, 1)) == [["0", "-x1^3"]]


def test_codim2_sigma_grids_first_sequence_element():
    system = homotopy_system(codim2_ci(), "first")
    assert grid(system.sigma_e(1, 0)) == [["x"], ["y"], ["0"], ["0"]]
    assert grid(system.sigma_e(1, 1)) == [
        ["y", "-x", "0", "0"],
        ["0", "0", "-x", "0"],
        ["0", "0", "0", "-x"],
        ["0", "0", "-y", "0"],
        ["0", "0", "0", "-y"],
        ["0", "0", "0", "0"],
    ]
    assert grid(system.sigma_e(1, 2)) == [
        ["0", "-y", "0", "x", "0", "0"],
        ["0", "0", "-y", "0", "x", "0"],
        ["0", "0", "0", "0", "0", "x"],
        ["0", "0", "0", "0", "0", "y"],
    ]
    assert grid(system.sigma_e(1, 3)) == [["0", "0", "y", "-x"]]


def test_codim2_sigma_grids_second_sequence_element():
    system = homotopy_system(codim2_ci(), "first")
    assert grid(system.sigma_e(2, 0)) == [["0"], ["0"], ["z"], ["w"]]
    assert grid(system.sigma_e(2, 1)) == [
        ["0", "0", "0", "0"],
        ["z", "0", "0", "0"],
        ["w", "0", "0", "0"],
        ["0", "z", "0", "0"],
        ["0", "w", "0", "0"],
        ["0", "0", "w", "-z"],
    ]
    assert grid(system.sigma_e(2, 2)) == [
        ["z", "0", "0", "0", "0", "0"],
        ["w", "0", "0", "0", "0", "0"],
        ["0", "w", "-z", "0", "0", "0"],
        ["0", "0", "0", "w", "-z", "0"],
    ]
    assert grid(system.sigma_e(2, 3)) == [["w", "-z", "0", "0"]]


def test_sigma_at_top_degree_is_zero():
    system = homotopy_system(squarefree_ci(), "first")
    top = system.sigma_e(1, 3)
    assert top.shape == (0, 1)
    assert top.is_zero()


def test_sigma_index_bounds():
    system = homotopy_system(squarefree_ci(), "first")
    with pytest.raises(ValueError):
        system.sigma_e(2, 0)
    with pytest.raises(ValueError):
        system.sigma_e(1, 4)
    with pytest.raises(ValueError):
        system.sigma_e(0, 0)


@pytest.mark.parametrize("codim", [1, 2, 3])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_sigma_matches_the_formula_on_every_taylor_module(field, codim):
    """sigma_e, read off tau, equals the paper's formula on T_0..T_r, the empty T_r map included."""
    rng = random.Random(f"sigma {field!r} {codim}")
    for trial in range(8):
        ideal = random_ideal(rng, max_vars=3, max_gens=5, field=field)
        ci = complete_intersection(ideal, random_sequence(rng, ideal, codim))
        system = homotopy_system(ci, "average" if trial % 2 else "first")
        r = ideal.ngens
        for i in range(1, codim + 1):
            for k in range(r + 1):
                assert system.sigma_e(i, k).entries == reference_sigma(system, i, k), (i, k)
            assert system.sigma_e(i, r).entries == {}


SIGMA_RANGE_ERRORS = {
    (0, 0): "sequence index 0 out of range 1..2",
    (3, 0): "sequence index 3 out of range 1..2",
    (1, -1): "homological degree -1 out of range 0..4",
    (1, 5): "homological degree 5 out of range 0..4",
}


@pytest.mark.parametrize("built", [False, True], ids=["fresh", "after-every-sigma"])
def test_sigma_rejects_indices_out_of_range(built):
    """i = 0, i = c + 1, k = -1 and k = r + 1 are refused by name, whether or not
    every valid sigma_e(i, k) has been built and kept."""
    system = homotopy_system(codim2_ci(), "first")
    if built:
        for i in (1, 2):
            for k in range(5):
                system.sigma_e(i, k)
    for (i, k), message in SIGMA_RANGE_ERRORS.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            system.sigma_e(i, k)


def test_sigma_products_are_kept_per_sequence_element():
    """f = ((x, y), (y, y)) differ at generator 1: sigma_1 and sigma_2 read the same tau
    entry there, so on T_0 and on T_1 they hold different entries at one cell."""
    R = ring("x,y")
    ci = complete_intersection(monomial_ideal(R, ["x^2", "y^2"]), ["x^3 + y^3", "x^2*y + y^3"])
    system = homotopy_system(ci, "first")
    assert [[str(f) for f in row] for row in system.lift.rows] == [["x", "y"], ["y", "y"]]
    sigmas = {(i, k): system.sigma_e(i, k) for i in (1, 2) for k in range(3)}
    for (i, k), sigma in sigmas.items():
        assert sigma.entries == reference_sigma(system, i, k), (i, k)
    for k, cell, first, second in [(0, (0, 0), "x", "y"), (1, (0, 1), "-x", "-y")]:
        assert sigmas[(1, k)].entries[cell] == R.parse(first)
        assert sigmas[(2, k)].entries[cell] == R.parse(second)


def test_sigma_entries_homogeneous_of_forced_degree():
    system = homotopy_system(codim2_ci(), "first")
    for i in (1, 2):
        d = system.ci.degrees[i - 1]
        for k in range(0, 4):
            mat = system.sigma_e(i, k)
            for (ri, cj), p in mat.entries.items():
                assert p.is_homogeneous()
                assert p.total_degree() == d + mat.cols[cj].twist - mat.rows[ri].twist


def test_mismatched_lift_rejected():
    ci, lifts = variant_lifts()
    other = lift_matrix(codim2_ci(), "first")
    with pytest.raises(ValueError, match="lift was computed for different data"):
        homotopy_system(ci, other)
    assert homotopy_system(ci, lifts[1]).lift is lifts[1]
    assert HomotopySystem(other).ci is other.ci


# ---- the defining identities ---------------------------------------------------


def test_verify_on_worked_examples():
    for build in (squarefree_ci, codim2_ci):
        report = verify_homotopy_system(homotopy_system(build(), "first"))
        assert report.passed, report.failure


def test_verify_all_strategies_on_monomial_example():
    ci = squarefree_ci()
    for lift in [lift_matrix(ci, "average"), *variant_lifts()[1]]:
        report = verify_homotopy_system(HomotopySystem(lift))
        assert report.passed, report.failure


def test_verify_flags_corrupted_lift():
    ci = squarefree_ci()
    R = ci.ring
    # past the constructor's check, as only a record made without it can be
    bad = tuple.__new__(LiftMatrix, (ci, ((R.parse("z"), R.zero, R.parse("1")),)))
    report = verify_homotopy_system(HomotopySystem(bad))
    assert not report.passed
    assert report.failure == "(b) fails for a_1 on T_0 at ({}, {}): defect y*z"
    assert failures(report) == [
        "(b) fails for a_1 on T_0 at ({}, {}): defect y*z",
        "(b) fails for a_1 on T_1 at (1, 1): defect y*z",
        "(b) fails for a_1 on T_2 at (12, 12): defect y*z",
        "(b) fails for a_1 on T_3 at (123, 123): defect y*z",
    ]


def failures(report):
    return [line[len("FAIL: "):] for line in report.details if line.startswith("FAIL: ")]


CORRUPTED_SIGMA_FAILURES = [
    "(b) fails for a_1 on T_1 at (1, 1): defect x*y^2",
    "(b) fails for a_1 on T_2 at (12, 12): defect x*y^2",
    "(c) fails for sigma_1, sigma_1 on T_0 at (12, {}): x^2",
    "(c) fails for sigma_1, sigma_2 on T_1 at (123, 1): x*z",
]


def test_verify_pins_defects_of_a_corrupted_sigma():
    """One sigma_1 entry on T_1 off by x: (b) on T_1, T_2 and (c) with i = j and i < j fail."""
    system = homotopy_system(codim2_ci(), "first")
    corrupt_sigma_1_on_t_1(system)
    report = verify_homotopy_system(system)
    assert report.failure == "(b) fails for a_1 on T_1 at (1, 1): defect x*y^2"
    assert failures(report) == CORRUPTED_SIGMA_FAILURES


def test_sigma_is_linear_in_the_lift():
    ci, lifts = variant_lifts()
    weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    avg_system = HomotopySystem(average_lifts(lifts, weights))
    systems = [HomotopySystem(lift) for lift in lifts]
    coerced = [ci.ring.field.coerce(w) for w in weights]
    for k in range(0, 4):
        expected = weighted_sum([system.sigma_e(1, k) for system in systems], coerced)
        assert avg_system.sigma_e(1, k) == expected


def test_verify_random_instances():
    rng = random.Random(99)
    for _ in range(8):
        _, ci = random_instance(rng, max_vars=3, max_gens=4, max_codim=2)
        report = verify_homotopy_system(homotopy_system(ci, "first"))
        assert report.passed, report.failure
