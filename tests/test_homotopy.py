"""Lifts and the higher homotopies on the Taylor complex."""
import random
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
from citaylor.homotopy import check_lift

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
    check_lift(ci, (row,))


def test_average_blocked_in_bad_characteristic():
    ci = squarefree_ci(GF(3))
    with pytest.raises(ValueError, match="characteristic 3"):
        compute_lift(ci.sequence[0], ci.ideal, "average")


def test_average_fine_in_good_characteristic():
    ci = squarefree_ci(GF(7))
    row = compute_lift(ci.sequence[0], ci.ideal, "average")
    check_lift(ci, (row,))


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
    # a LiftMatrix built directly skips the sum check, for feeding the verifier bad data
    lift = LiftMatrix(ci, bad)
    assert str(lift.entry(1, 2)) == "1"


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
    assert lift_matrix_from_rows(ci, [graded]).rows == (graded,)


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
    bad = LiftMatrix(ci, ((R.parse("z"), R.zero, R.parse("1")),))
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


def test_verify_checks_a_sigma_replaced_after_a_pass_afresh():
    """The residuals a passing check computed stay with their operands: once sigma_1
    on T_1 is replaced, the identities that use it fail as if never checked."""
    system = homotopy_system(codim2_ci(), "first")
    assert verify_homotopy_system(system).passed
    corrupt_sigma_1_on_t_1(system)
    assert failures(verify_homotopy_system(system)) == CORRUPTED_SIGMA_FAILURES
    residuals = system.residuals()
    assert not residuals[system.identities.index((1, None, 1))].is_zero()
    assert residuals[system.identities.index((2, None, 1))].is_zero()


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
