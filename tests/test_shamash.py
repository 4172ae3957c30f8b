"""Assembly of the quotient-ring resolution from a homotopy system."""
import math
import random

import pytest

from citaylor import (
    GF,
    QQ,
    LabeledGradedMatrix,
    NoStableTail,
    PolyRing,
    homotopy_system,
    lift_matrix,
    matrix_factorization,
    monomial_ideal,
    complete_intersection,
    phi_squared_check,
    rank_formula,
    shamash_basis,
    shamash_differential,
    shamash_resolution,
)
from citaylor import shamash
from citaylor.cli import u_dividers
from citaylor.shamash import _shift_positions

from conftest import (
    build_codim2,
    build_three_squares,
    build_hypersurface,
    build_monomial_c1,
    build_poly_c1,
    build_tate,
    corrupt_sigma_1_on_t_1,
    grid,
    random_ideal,
    random_instance,
    random_sequence,
    reference_sigma,
    ring,
    seeded_rng,
)


# ---- bases ------------------------------------------------------------------


def test_three_squares_basis_order_and_twists(three_squares):
    assert [(b.u, str(b), b.twist) for b in three_squares.basis(2)] == [
        ((1,), "{}", 3),
        ((0,), "12", 4),
        ((0,), "13", 4),
        ((0,), "23", 4),
    ]
    assert [b.twist for b in three_squares.basis(3)] == [5, 5, 5, 6]
    assert [b.twist for b in three_squares.basis(4)] == [6, 7, 7, 7]


def test_codim2_basis_groups_by_subset_then_u(codim2):
    front = [(b.u, b.indices) for b in codim2.basis(2)[:4]]
    assert front == [((0, 1), ()), ((1, 0), ()), ((0, 0), (1, 2)), ((0, 0), (1, 3))]
    assert [b.twist for b in codim2.basis(2)] == [3, 3] + [4] * 6
    # weight-2 divided powers come out lexicographically
    assert [b.u for b in codim2.basis(4)[:3]] == [(0, 2), (1, 1), (2, 0)]


def test_codim2_twist_multisets(codim2):
    assert sorted(b.twist for b in codim2.basis(3)) == [5] * 8 + [6] * 4
    counts = {}
    for b in codim2.basis(4):
        counts[b.twist] = counts.get(b.twist, 0) + 1
    assert counts == {6: 3, 7: 12, 8: 1}


def test_homological_degree_and_twist_formulas(codim2):
    degrees = codim2.system.ci.degrees
    for n in range(6):
        for b in codim2.basis(n):
            assert len(b.indices) + 2 * sum(b.u) == n
            assert b.twist == sum(b.lcm) + sum(
                u * d for u, d in zip(b.u, degrees)
            )


def test_u_zero_part_of_each_step_is_the_taylor_basis():
    rng = seeded_rng()
    for _ in range(12):
        _, ci = random_instance(rng, max_vars=3, max_gens=4, max_codim=3)
        system = homotopy_system(ci, "first")
        res = shamash_resolution(system, 6)
        for k in range(7):
            u_zero = [b for b in res.basis(k) if not any(b.u)]
            assert [(b.indices, b.lcm, b.twist) for b in u_zero] == [
                (t.indices, t.lcm, t.twist) for t in system.complex.basis(k)
            ]


def test_compact_element_names(codim2, three_squares):
    assert str(codim2.basis(2)[0]) == "y(0,1)*{}"
    assert str(codim2.basis(2)[2]) == "12"
    # c = 1 drops the divided-power prefix entirely
    assert str(three_squares.basis(2)[0]) == "{}"


# ---- golden differentials: the c = 1 polynomial sequence example ------------


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


def test_three_squares_initial_maps(three_squares):
    assert grid(three_squares.differential(1)) == THREE_SQUARES_PHI1
    assert grid(three_squares.differential(2)) == THREE_SQUARES_PHI2


def test_three_squares_periodic_tail(three_squares):
    assert grid(three_squares.differential(3)) == THREE_SQUARES_ODD
    assert grid(three_squares.differential(4)) == THREE_SQUARES_EVEN
    assert grid(three_squares.differential(5)) == THREE_SQUARES_ODD
    assert grid(three_squares.differential(6)) == THREE_SQUARES_EVEN


def test_three_squares_ranks(three_squares):
    assert [three_squares.rank(n) for n in range(7)] == [1, 3, 4, 4, 4, 4, 4]


def test_three_squares_block_dividers(three_squares):
    # dividers sit where the divided-power weight changes
    assert u_dividers(three_squares.differential(2).cols) == {1}
    assert u_dividers(three_squares.differential(3).rows) == {1}
    assert u_dividers(three_squares.differential(3).cols) == {3}
    assert u_dividers(three_squares.differential(4).rows) == {3}
    assert u_dividers(three_squares.differential(4).cols) == {1}
    # Taylor elements all have u = (), so tau gets no dividers
    tau = three_squares.system.complex.differential(2)
    assert u_dividers(tau.rows) == set() == u_dividers(tau.cols)


# ---- golden differentials: the c = 1 monomial sequence variants -------------


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


@pytest.mark.parametrize("gen", [1, 2, 3])
def test_monomial_variant_maps(gen):
    res = build_monomial_c1(gen)
    assert grid(res.differential(1)) == [["x*y", "x*z", "y*z"]]
    for n in (2, 3, 4):
        assert grid(res.differential(n)) == MONOMIAL_VARIANTS[gen][n]
    # the tail repeats with period two from step 3 on
    assert grid(res.differential(5)) == MONOMIAL_VARIANTS[gen][3]
    assert grid(res.differential(6)) == MONOMIAL_VARIANTS[gen][4]


def test_monomial_variant_modules():
    res = build_monomial_c1(1)
    assert [b.twist for b in res.basis(2)] == [3, 3, 3, 3]
    assert [b.twist for b in res.basis(3)] == [5, 5, 5, 3]
    assert [b.twist for b in res.basis(4)] == [6, 6, 6, 6]


# ---- golden differentials: remaining worked examples -------------------------


def test_poly_c1_maps(poly_c1):
    assert grid(poly_c1.differential(1)) == [["x^2", "y^2"]]
    for n in (2, 4, 6):
        assert grid(poly_c1.differential(n)) == [["y", "y^2"], ["x", "-x^2"]]
    for n in (3, 5):
        assert grid(poly_c1.differential(n)) == [["x^2", "y^2"], ["x", "-y"]]
    assert [[b.twist for b in poly_c1.basis(n)] for n in range(6)] == [
        [0], [2, 2], [3, 4], [5, 5], [6, 7], [8, 8]
    ]


def test_hypersurface_maps():
    res = build_hypersurface()
    assert grid(res.differential(1)) == [["x1^2", "x2^2"]]
    assert grid(res.differential(2)) == [["x1^3", "x2^2"], ["0", "-x1^2"]]
    assert grid(res.differential(3)) == [["x1^2", "x2^2"], ["0", "-x1^3"]]
    assert sorted(b.twist for b in res.basis(2)) == [4, 5]
    assert [b.twist for b in res.basis(3)] == [7, 7]
    assert res.periodicity.start == 2


# ---- minimality ---------------------------------------------------------------


def test_minimal_examples(three_squares, poly_c1):
    for res in (three_squares, poly_c1, build_hypersurface(), build_tate()):
        report = res.minimality
        assert report.minimal
        assert report.describe() == ["all differential entries lie in the maximal ideal"]


def test_monomial_variants_are_nonminimal():
    for gen in (1, 2, 3):
        report = build_monomial_c1(gen, max_step=4).minimality
        assert not report.minimal
        units = [str(entry) for (_, _, _, entry) in report.unit_taylor_entries]
        assert set(units) <= {"1", "-1"} and units
        assert all(k == 3 for (k, _, _, _) in report.unit_taylor_entries)
        assert any("is a unit" in line for line in report.describe())


def test_minimality_reports_a_shared_unit_at_every_cell():
    """One unit object at two cells of tau_1 is tested once and named at both, by (row, col)."""
    from types import SimpleNamespace

    from citaylor import LabeledGradedMatrix, taylor_complex
    from citaylor.shamash import _minimality

    R = ring("x,y")
    cx = taylor_complex(monomial_ideal(R, ["x^2", "y"]))
    tau1, tau2 = cx.differentials
    one = R.parse("1")
    shared = LabeledGradedMatrix(R, tau1.rows, tau1.cols, {(0, 1): one, (0, 0): one})
    system = SimpleNamespace(
        ideal=cx.ideal, sigma_zero={1: shared, 2: tau2}.get, lift=SimpleNamespace(rows=())
    )
    report = _minimality(system)
    assert not report.minimal
    assert report.unit_taylor_entries == (
        (1, tau1.rows[0], tau1.cols[0], one),
        (1, tau1.rows[0], tau1.cols[1], one),
    )
    assert report.describe() == [
        "tau_1 entry ({} <- 1) = 1 is a unit",
        "tau_1 entry ({} <- 2) = 1 is a unit",
    ]
    system.sigma_zero = {1: tau1, 2: tau2}.get
    assert _minimality(system).minimal


def test_constant_lift_entry_flagged():
    R = ring("x,y")
    I = monomial_ideal(R, ["x", "x*y"])
    ci = complete_intersection(I, ["x"])
    res = shamash_resolution(homotopy_system(ci, "first"), 3)
    report = res.minimality
    assert not report.minimal
    assert report.constant_lift_entries
    assert any("constant term" in line for line in report.describe())


def test_minimality_names_each_constant_lift_entry_by_row_and_column():
    """The lift f[i,t] is 1-based in both indices, as the text output prints its rows."""
    R = ring("x,y,z")
    I = monomial_ideal(R, ["x*y", "y*z", "x*z"])
    res = shamash_resolution(homotopy_system(complete_intersection(I, ["x*y+y*z+x*z"]), "first"), 2)
    assert res.minimality.describe() == [
        "tau_3 entry (12 <- 123) = 1 is a unit",
        "tau_3 entry (13 <- 123) = -1 is a unit",
        "tau_3 entry (23 <- 123) = 1 is a unit",
        "lift entry f[1,1] has constant term 1",
        "lift entry f[1,2] has constant term 1",
        "lift entry f[1,3] has constant term 1",
    ]
    squares = monomial_ideal(R, ["x^2", "y^2", "z^2"])
    ci = complete_intersection(squares, ["x^2*z+x*y^2", "y^2+2*z^2"])
    res = shamash_resolution(homotopy_system(ci, "first"), 2)
    assert res.minimality.describe() == [
        "lift entry f[2,2] has constant term 1",
        "lift entry f[2,3] has constant term 2",
    ]


# ---- periodicity and matrix factorizations -------------------------------------


def test_periodicity_statuses(three_squares, poly_c1, codim2):
    assert three_squares.periodicity.status == "periodic"
    assert three_squares.periodicity.start == 3
    assert poly_c1.periodicity.start == 2
    assert codim2.periodicity.status == "not-applicable"
    assert build_poly_c1(max_step=2).periodicity.status == "none"


def shift_oracle(res):
    """(status, start) by scanning the window: the smallest n0 such that phi_{n+2}
    equals phi_n under (u, S) -> (u + 1, S) for every n0 <= n <= N - 2, comparing
    labels, twists and entries."""
    degree = res.system.ci.degrees[0]

    def shifted(labels):
        return tuple(b._replace(u=(b.u[0] + 1,), twist=b.twist + degree) for b in labels)

    def matches(n):
        a, b = res.differential(n), res.differential(n + 2)
        return (
            shifted(a.rows) == b.rows
            and shifted(a.cols) == b.cols
            and a.entries == b.entries
        )

    start = None
    for n in range(res.max_step - 2, 0, -1):
        if not matches(n):
            break
        start = n
    return ("none", None) if start is None else ("periodic", start)


def c1_instance(rng, r, field):
    """A seeded length-one sequence in a random ideal with exactly r generators."""
    nvars = rng.randint(2, 4)
    gens = set()
    while len(gens) < r:
        exps = [0] * nvars
        for _ in range(rng.randint(1, 3)):
            exps[rng.randrange(nvars)] += 1
        gens.add(tuple(exps))
    R = PolyRing(("x", "y", "z", "w")[:nvars], field)
    ideal = monomial_ideal(R, sorted(gens))
    return complete_intersection(ideal, random_sequence(rng, ideal, 1))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("strategy", ["first", "average"])
def test_periodicity_matches_the_shift_oracle(field, strategy):
    rng = random.Random(20261018)
    for r in range(1, 7):
        for _ in range(2):
            system = homotopy_system(c1_instance(rng, r, field), strategy)
            for max_step in range(r + 5):
                res = shamash_resolution(system, max_step)
                info = res.periodicity
                assert (info.status, info.start) == shift_oracle(res), (r, max_step)
                expected = "periodic" if max_step >= r + 2 else "none"
                assert info.status == expected


def diagonal_grid(poly, size):
    s = str(poly)
    return [[s if i == j else "0" for j in range(size)] for i in range(size)]


def test_matrix_factorization_poly_example(poly_c1):
    A, B = matrix_factorization(poly_c1)
    assert grid(A) == [["y", "y^2"], ["x", "-x^2"]]
    assert grid(B) == [["x^2", "y^2"], ["x", "-y"]]
    a = poly_c1.system.ci.sequence[0]
    assert grid(A.compose(B)) == diagonal_grid(a, 2)
    assert grid(B.compose(poly_c1.differential(4))) == diagonal_grid(a, 2)


def test_matrix_factorization_three_squares(three_squares):
    A, B = matrix_factorization(three_squares)
    assert grid(A) == THREE_SQUARES_ODD
    assert grid(B) == THREE_SQUARES_EVEN
    a = three_squares.system.ci.sequence[0]
    assert grid(A.compose(B)) == diagonal_grid(a, 4)
    assert grid(B.compose(three_squares.differential(5))) == diagonal_grid(a, 4)


@pytest.mark.parametrize("offset", [0, 2])
def test_matrix_factorization_rejects_a_broken_identity(three_squares, offset):
    """A corrupted phi_{n0} breaks AB = a at n0; a corrupted phi_{n0+2} breaks BA at n0 + 1."""
    from citaylor import LabeledGradedMatrix

    n0 = three_squares.periodicity.start
    m = n0 + offset
    phi = three_squares.differential(m)
    entries = dict(phi.entries)
    first = min(entries, key=lambda ij: (ij[1], ij[0]))
    entries[first] = entries[first] + three_squares.system.ring.parse("y")
    diffs = list(three_squares.differentials)
    diffs[m - 1] = LabeledGradedMatrix(phi.ring, phi.rows, phi.cols, entries)
    bad = three_squares._replace(differentials=tuple(diffs))
    step = n0 + offset // 2
    with pytest.raises(AssertionError, match=rf"^factorization identity fails at step {step}$"):
        matrix_factorization(bad)


def test_matrix_factorization_requires_stable_tail(codim2):
    with pytest.raises(NoStableTail):
        matrix_factorization(codim2)
    with pytest.raises(NoStableTail):
        matrix_factorization(build_poly_c1(max_step=2))


# ---- rank formula ---------------------------------------------------------------


def test_codim2_rank_sequence(codim2):
    ranks = [codim2.rank(n) for n in range(6)]
    assert ranks == [1, 4, 8, 12, 16, 20]
    assert ranks == [rank_formula(4, 2, n) for n in range(6)]


def test_rank_formula_against_enumeration_small():
    for r in (1, 2, 3, 4):
        for c in (1, 2):
            R = ring(",".join(f"v{i}" for i in range(1, r + 1)))
            I = monomial_ideal(R, [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)])
            ci = complete_intersection(I, [f"v1^{j + 2}" for j in range(c)])
            system = homotopy_system(ci, "first")
            for n in range(9):
                assert len(shamash_basis(system, n)) == rank_formula(r, c, n)


def test_betti_bound_is_the_closed_form():
    # the betti command prints rank_formula(r, c, n) as the bound at step n = 2m + parity
    assert rank_formula(4, 2, 2 * 2 + 0) == 16
    assert rank_formula(4, 2, 2 * 2 + 1) == 20
    assert rank_formula(3, 1, 2 * 0 + 1) == 3


def test_rank_formula_degenerate_inputs():
    assert rank_formula(3, 1, -1) == 0
    assert rank_formula(3, 1, 0) == 1
    # one generator: a single (u, S) pair survives at every step
    assert all(rank_formula(1, 1, n) == 1 for n in range(8))


def test_rank_formula_rejects_empty_ideal_or_sequence():
    with pytest.raises(ValueError, match=r"r=0, c=1"):
        rank_formula(0, 1, 2)
    with pytest.raises(ValueError, match=r"r=3, c=0"):
        rank_formula(3, 0, 2)


def test_tate_case_ranks():
    res = build_tate()
    for n in range(7):
        expected = sum(math.comb(3, n - 2 * j) for j in range(n // 2 + 1))
        assert res.rank(n) == expected == rank_formula(3, 1, n)


# ---- the composite identity ------------------------------------------------------


def test_lower_shift_matrix_structure(three_squares):
    """The shift_1 cells F_3 -> F_1 that phi_squared_check subtracts a_1 at."""
    cells = set(_shift_positions(three_squares, 2, 1))
    shape = (len(three_squares.basis(1)), len(three_squares.basis(3)))
    assert shape == (3, 4)
    # (u, S) -> (u - 1, S): the three u = 1 columns hit the matching subsets,
    # the u = 0 column dies
    assert [["1" if (i, j) in cells else "0" for j in range(4)] for i in range(3)] == [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
    ]


def test_phi_squared_examples(three_squares, poly_c1, codim2):
    for res in (three_squares, poly_c1, codim2):
        report = phi_squared_check(res)
        assert report.passed, report.failure


def test_phi_squared_short_window():
    report = phi_squared_check(build_poly_c1(max_step=1))
    assert report.passed
    assert any("vacuous" in line for line in report.details)
    # the shortest window with a composite checks it and is not vacuous
    details = phi_squared_check(build_three_squares(max_step=2)).details
    assert details == ["ok: phi_1.phi_2 = sum a_j shift_j"]


def random_resolutions():
    rng = random.Random(424242)
    for _ in range(6):
        _, ci = random_instance(rng, max_vars=3, max_gens=4, max_codim=2)
        yield shamash_resolution(homotopy_system(ci, "first"), 4)


def test_phi_squared_random_instances():
    for res in random_resolutions():
        report = phi_squared_check(res)
        assert report.passed, report.failure


def test_passing_checks_never_multiply_phi(monkeypatch, three_squares, poly_c1, codim2):
    """The certificate proves every step of a correct resolution: no full product runs."""

    def refuse(resolution, n):
        raise AssertionError(f"phi_{n}.phi_{n + 1} was multiplied")

    monkeypatch.setattr(shamash, "_phi_defect", refuse)
    for res in (three_squares, poly_c1, codim2, *random_resolutions()):
        report = phi_squared_check(res)
        assert report.passed, report.failure
    A, B = matrix_factorization(three_squares)
    assert grid(A) == THREE_SQUARES_ODD


def shift_reference_failure(res, n):
    """First failure, in column order, of phi_n.phi_{n+1} - sum_j a_j * shift_j.

    The shift_j cells (u - e_j, S) <- (u, S) are found by searching the bases.
    """
    rows, cols = res.basis(n - 1), res.basis(n + 1)
    entries = dict(res.differential(n).compose(res.differential(n + 1)).entries)
    for jj, col in enumerate(cols):
        for j, a in enumerate(res.system.ci.sequence):
            if col.u[j] < 1:
                continue
            u = col.u[:j] + (col.u[j] - 1,) + col.u[j + 1:]
            (ii,) = [i for i, row in enumerate(rows) if (row.u, row.indices) == (u, col.indices)]
            entries[(ii, jj)] = entries.get((ii, jj), res.system.ring.zero) - a
    nonzero = sorted((jj, ii) for (ii, jj), p in entries.items() if p)
    if not nonzero:
        return None
    jj, ii = nonzero[0]
    return rows[ii], cols[jj], entries[(ii, jj)]


def with_phi(res, n, edit):
    """res with phi_n replaced by a copy whose entries dict edit has changed."""
    phi = res.differential(n)
    entries = dict(phi.entries)
    edit(phi, entries)
    diffs = list(res.differentials)
    diffs[n - 1] = LabeledGradedMatrix(phi.ring, phi.rows, phi.cols, entries)
    return res._replace(differentials=tuple(diffs))


def first_in_column_order(cells):
    return min(cells, key=lambda ij: (ij[1], ij[0]))


def set_first(text):
    def edit(phi, entries):
        first = first_in_column_order(entries)
        if text is None:
            del entries[first]
        else:
            entries[first] = phi.ring.parse(text)

    return edit


def add_extra(phi, entries):
    """y in the first empty cell, in column order."""
    nrows, ncols = phi.shape
    empty = [(i, j) for j in range(ncols) for i in range(nrows) if (i, j) not in entries]
    entries[first_in_column_order(empty)] = phi.ring.parse("y")


def move_to_another_u(phi, entries):
    """Move the first tau cell (u, S') <- (u, S) to row (u'', S') of another u'', same column."""
    for (i, j) in sorted(entries, key=lambda ij: (ij[1], ij[0])):
        row, col = phi.rows[i], phi.cols[j]
        if row.u != col.u:
            continue
        for other, label in enumerate(phi.rows):
            if label.indices == row.indices and label.u != row.u:
                entries[(other, j)] = entries.pop((i, j))
                return
    raise AssertionError("no tau cell has a row of another u")


def flipped_sigma(build):
    """A fresh resolution assembled after one sigma_1 entry on T_1 changed sign."""
    system = build(max_step=4).system
    sigma = system.sigma_e(1, 1)
    entries = dict(sigma.entries)
    first = first_in_column_order(entries)
    entries[first] = -entries[first]
    system._sigma[(1, 1)] = LabeledGradedMatrix(sigma.ring, sigma.rows, sigma.cols, entries)
    return shamash_resolution(system, 4)


def place_off_by_one_row(monkeypatch, build):
    """A fresh resolution assembled while _place puts every cell one row up (row 0 stays)."""
    system = build(max_step=4).system
    place = shamash._place
    with monkeypatch.context() as patch:
        patch.setattr(
            shamash,
            "_place",
            lambda *args: {(max(i - 1, 0), j): p for (i, j), p in place(*args).items()},
        )
        return shamash_resolution(system, 4)


@pytest.mark.parametrize("build", [build_three_squares, build_codim2])
def test_phi_squared_defect_matches_shift_reference(build, monkeypatch):
    """Every mutation fails the certificate at each step whose defect is nonzero, and
    phi_squared_check names the reference's first failing cell."""
    res = build(max_step=4)
    broken = [
        with_phi(res, n, edit)
        for n in (1, 2, 3)
        for edit in (set_first(None), set_first("y"), set_first("-2*x^2"))
    ]
    broken += [with_phi(res, n, add_extra) for n in (2, 3)]  # phi_1 has no empty cell
    if res.system.ci.codim > 1:
        broken.append(with_phi(res, 3, move_to_another_u))
    broken.append(flipped_sigma(build))
    broken.append(place_off_by_one_row(monkeypatch, build))
    for bad in broken:
        failing = [m for m in (1, 2, 3) if shift_reference_failure(bad, m)]
        assert failing
        certificate = shamash._PhiCertificate(bad)
        assert not any(certificate.holds(m) for m in failing)
        report = phi_squared_check(bad)
        assert not report.passed
        row, col, entry = shift_reference_failure(bad, failing[0])
        step = failing[0]
        assert report.failure == f"phi_{step}.phi_{step + 1} defect at ({row}, {col}): {entry}"


def test_certificate_rejects_a_relabelled_basis(three_squares):
    """Swapping two labels of F_2, with phi_2's columns and phi_3's rows swapped alike,
    keeps every cell where its labels call for it; but the shift cells move off the
    positions the full defect subtracts a_j at, so the certificate must refuse the order."""
    res = three_squares
    swap = {0: 1, 1: 0}
    labels = res.basis(2)
    basis = tuple(labels[swap.get(x, x)] for x in range(len(labels)))
    phi2, phi3 = res.differential(2), res.differential(3)
    cols = {(i, swap.get(j, j)): p for (i, j), p in phi2.entries.items()}
    rows = {(swap.get(i, i), j): p for (i, j), p in phi3.entries.items()}
    diffs = list(res.differentials)
    diffs[1] = LabeledGradedMatrix(phi2.ring, phi2.rows, basis, cols)
    diffs[2] = LabeledGradedMatrix(phi3.ring, basis, phi3.cols, rows)
    bases = list(res.bases)
    bases[2] = basis
    bad = res._replace(bases=tuple(bases), differentials=tuple(diffs))
    assert not shamash._PhiCertificate(bad).holds(1)
    row, col, entry = shamash._phi_defect(bad, 1).first_failure()
    assert phi_squared_check(bad).failure == f"phi_1.phi_2 defect at ({row}, {col}): {entry}"


def test_certificate_rejects_a_label_of_the_wrong_weight(three_squares):
    """F_2's first label (u=(1,), S={}) relabelled u=(2,) in the basis, phi_2's columns
    and phi_3's rows: no cell moves, so the full product still passes, but a label of
    weight 2 does not belong to step 2 and the certificate refuses every step it touches.
    So it does for the second label (u=(0,), S={1,2}) with its twist one higher, or with
    the lcm of the third: a basis passes only when it is the step's basis, field for field."""
    res = three_squares
    labels = res.basis(2)
    assert [(b.u, b.indices) for b in labels[:3]] == [((1,), ()), ((0,), (1, 2)), ((0,), (1, 3))]
    second = labels[1]
    relabelled = [
        (0, labels[0]._replace(u=(2,))),
        (1, second._replace(twist=second.twist + 1)),
        (1, second._replace(lcm=labels[2].lcm)),
    ]
    phi2, phi3 = res.differential(2), res.differential(3)
    for at, label in relabelled:
        basis = (*labels[:at], label, *labels[at + 1:])
        diffs = list(res.differentials)
        diffs[1] = LabeledGradedMatrix(phi2.ring, phi2.rows, basis, phi2.entries)
        diffs[2] = LabeledGradedMatrix(phi3.ring, basis, phi3.cols, phi3.entries)
        bases = list(res.bases)
        bases[2] = basis
        bad = res._replace(bases=tuple(bases), differentials=tuple(diffs))
        certificate = shamash._PhiCertificate(bad)
        assert not any(certificate.holds(n) for n in (1, 2, 3)), label
        assert phi_squared_check(bad).details == phi_squared_check(res).details


def test_certificate_compares_each_step_basis_once(monkeypatch, three_squares):
    """F_n is the columns of phi_n and the rows of phi_{n+1}, one object: the certificate
    compares it with shamash_basis once, and again only when another object stands for it."""
    res = three_squares
    real = shamash.shamash_basis
    compared = []
    monkeypatch.setattr(
        shamash, "shamash_basis", lambda system, n: compared.append(n) or real(system, n)
    )
    certificate = shamash._PhiCertificate(res)
    assert all(certificate.holds(n) for n in range(1, res.max_step))
    assert compared == list(range(res.max_step + 1))
    # an equal copy is compared afresh, and so is the original after it
    copy = tuple(list(res.basis(1)))
    assert copy is not res.basis(1)
    blocks = certificate.blocks(copy, 1)
    assert blocks is not None and certificate.blocks(res.basis(1), 1) == blocks
    assert compared[res.max_step + 1:] == [1, 1]


def test_certificate_rejects_a_sigma_on_the_top_taylor_module():
    """sigma_1 on T_r lands in T_{r+1} = 0, so assembly never places it; an entry put
    there makes the certificate refuse the steps whose blocks would need it, while the
    full product, which never sees it, still passes."""
    system = build_three_squares(max_step=6).system
    r = system.ideal.ngens
    sigma = system.sigma_e(1, r)
    assert sigma.is_zero()
    entries = {(0, 0): system.ring.parse("x")}
    system._sigma[(1, r)] = LabeledGradedMatrix(system.ring, sigma.rows, sigma.cols, entries)
    res = shamash_resolution(system, 6)
    certificate = shamash._PhiCertificate(res)
    assert [n for n in range(1, 6) if not certificate.holds(n)] == [4, 5]
    assert phi_squared_check(res).passed


def test_certificate_refuses_every_step_when_any_identity_fails(monkeypatch):
    """With any one identity made to fail, tau.tau, (b) or (c), the certificate refuses
    every step, even where no block of the window uses that identity; the full product
    then passes those steps."""
    from citaylor import HomotopySystem, TaylorComplex

    res = build_codim2(max_step=4)  # no block of F_2..F_4 uses (c) on T_1 or T_2
    system = res.system
    r = system.ideal.ngens
    steps = range(1, res.max_step)
    label = res.basis(0)[0]
    nonzero = LabeledGradedMatrix(system.ring, [label], [label], {(0, 0): system.ring.parse("1")})
    real_square, real_residuals = TaylorComplex.square, HomotopySystem.residuals
    real_defect = shamash._phi_defect
    broken = [("tau", k) for k in range(1, r)]
    broken += [("residual", x) for x in range(len(system.identities))]  # every (b) and (c)
    for kind, at in broken:

        def square(self, k, at=at, kind=kind):
            return nonzero if (kind, k) == ("tau", at) else real_square(self, k)

        def residuals(self, at=at, kind=kind):
            found = real_residuals(self)
            return [*found[:at], nonzero, *found[at + 1:]] if kind == "residual" else found

        with monkeypatch.context() as patch:
            patch.setattr(TaylorComplex, "square", square)
            patch.setattr(HomotopySystem, "residuals", residuals)
            products = []

            def product(res, n, products=products):
                products.append(n)
                return real_defect(res, n)

            patch.setattr(shamash, "_phi_defect", product)
            certificate = shamash._PhiCertificate(res)
            assert not any(certificate.holds(n) for n in steps)
            assert phi_squared_check(res).passed and products == list(steps)
    assert all(shamash._PhiCertificate(res).holds(n) for n in steps)


def test_a_replaced_sigma_is_checked_afresh():
    """Verdicts are kept per operand matrix: a sigma put into the system after a
    passing check is checked again once the resolution is re-assembled."""
    res = build_codim2(max_step=4)
    system = res.system
    assert phi_squared_check(res).passed
    corrupt_sigma_1_on_t_1(system)
    bad = shamash_resolution(system, 4)
    report = phi_squared_check(bad)
    assert not report.passed
    step = next(m for m in (1, 2, 3) if shift_reference_failure(bad, m))
    row, col, entry = shift_reference_failure(bad, step)
    assert report.failure == f"phi_{step}.phi_{step + 1} defect at ({row}, {col}): {entry}"


CORRUPTED_SIGMA_PHI_REPORTS = {
    "codim2": """\
[FAIL] phi.phi identity
  ok: phi_1.phi_2 = sum a_j shift_j
  FAIL: phi_2.phi_3 defect at (1, y(1,0)*1): x*y^2
  FAIL: phi_3.phi_4 defect at (12, y(2,0)*{}): x^2
  FAIL: phi_4.phi_5 defect at (y(0,1)*1, y(1,1)*1): x*y^2
  FAIL: phi_5.phi_6 defect at (y(0,1)*12, y(2,1)*{}): x^2""",
    "three-squares": """\
[FAIL] phi.phi identity
  ok: phi_1.phi_2 = sum a_j shift_j
  FAIL: phi_2.phi_3 defect at (1, 1): x*y^2
  FAIL: phi_3.phi_4 defect at (12, {}): x*z
  FAIL: phi_4.phi_5 defect at (1, 1): x*y^2
  FAIL: phi_5.phi_6 defect at (12, {}): x*z""",
}


@pytest.mark.parametrize(
    "name, build", [("codim2", build_codim2), ("three-squares", build_three_squares)]
)
def test_phi_squared_reports_of_a_corrupted_sigma(name, build):
    """One sigma_1 entry on T_1 off by x: each failing step names the first cell of its
    full product, and the one step the corruption does not reach passes."""
    system = build(max_step=6).system
    corrupt_sigma_1_on_t_1(system)
    report = phi_squared_check(shamash_resolution(system, 6))
    assert report.summary() == CORRUPTED_SIGMA_PHI_REPORTS[name]

def test_equal_entries_are_shared_objects():
    # r = 6 squares: tau entries are +-v^2, sigma entries +-(a or b or c or d*e)
    R = ring("a,b,c,d,e,f")
    I = monomial_ideal(R, [f"{v}^2" for v in R.variables])
    ci = complete_intersection(I, ["a^3 + b^3", "c^3 + d^2*e"])
    res = shamash_resolution(homotopy_system(ci, "first"), 6)
    system = res.system
    taylor_entries = {}
    for k in range(1, 7):
        for p in system.sigma_zero(k).entries.values():
            assert taylor_entries.setdefault(p, p) is p, f"tau_{k} entry {p} is a copy"
    sigma_ids = set()
    for i in (1, 2):
        for k in range(7):
            sigma_entries = {}
            for p in system.sigma_e(i, k).entries.values():
                assert sigma_entries.setdefault(p, p) is p, f"sigma_{i} on T_{k}: {p} is a copy"
            sigma_ids.update(map(id, sigma_entries.values()))
    # phi_n places those very objects, without copying them
    placed = set(map(id, taylor_entries.values())) | sigma_ids
    for n in range(1, 7):
        entries = res.differential(n).entries.values()
        assert entries and all(id(p) in placed for p in entries)


def reference_differential(system, rows, cols):
    """Entries of phi_n: cols -> rows, column by column from the definitions:
    the Taylor differential on S keeping u, and sigma_i on S lowering u_i,
    with whatever lands in one cell summed."""
    ring, ideal = system.ring, system.ideal
    row_index = {(b.u, b.indices): i for i, b in enumerate(rows)}
    entries = {}
    sigmas = {}  # (i, k) -> reference_sigma(system, i, k)

    def add(u, label, j, poly):
        pos = (row_index[(u, label.indices)], j)
        entries[pos] = entries[pos] + poly if pos in entries else poly

    for j, b in enumerate(cols):
        S, k = b.indices, len(b.indices)
        for pos, s in enumerate(S, start=1):
            face = ideal.subset(t for t in S if t != s)
            quot = tuple(x - y for x, y in zip(b.lcm, face.lcm))
            add(b.u, face, j, ring.term(quot, (-1) ** (k - pos)))
        here = system.complex.basis(k).index(ideal.subset(S))
        for i in range(1, system.ci.codim + 1):
            if b.u[i - 1] == 0:
                continue
            lowered = b.u[: i - 1] + (b.u[i - 1] - 1,) + b.u[i:]
            if (i, k) not in sigmas:
                sigmas[(i, k)] = reference_sigma(system, i, k)
            for (row, col), poly in sigmas[(i, k)].items():
                if col == here:
                    add(lowered, system.complex.basis(k + 1)[row], j, poly)
    return {pos: p for pos, p in entries.items() if not p.is_zero()}


def reference_shift_positions(res, n, j):
    """The (u - e_j, S) <- (u, S) cells from F_{n+1} to F_{n-1}, by searching the bases."""
    rows = res.basis(n - 1)
    out = []
    for col, b in enumerate(res.basis(n + 1)):
        if b.u[j - 1] >= 1:
            u = b.u[: j - 1] + (b.u[j - 1] - 1,) + b.u[j:]
            (row,) = [i for i, a in enumerate(rows) if (a.u, a.indices) == (u, b.indices)]
            out.append((row, col))
    return out


# (max generators, window): the window of the original cases, windows shorter
# than r (sigma never reaches T_r), and N >= r + 2 (sigma on T_r, whose
# target T_{r+1} is zero, so block r of F_n has no lowered block in F_{n-1})
WINDOWS = [(4, lambda r: 5), (6, lambda r: 3), (3, lambda r: r + 2)]


def assert_matches_standalone_builders(system, top):
    """Every basis, phi_n and shift position of the window agrees with the reference
    built from the definitions, and phi.phi passes."""
    res = shamash_resolution(system, top)
    for n in range(top + 1):
        assert list(res.basis(n)) == shamash_basis(system, n)
    for n in range(1, top + 1):
        rows, cols = res.basis(n - 1), res.basis(n)
        phi = res.differential(n)
        assert (phi.rows, phi.cols) == (rows, cols)
        assert phi.entries == reference_differential(system, rows, cols)
        for labels in (phi.rows, phi.cols):
            changes = [i for i in range(1, len(labels)) if labels[i].u != labels[i - 1].u]
            assert sorted(u_dividers(labels)) == changes
    for n in range(1, top):
        for j in range(1, system.ci.codim + 1):
            assert list(_shift_positions(res, n, j)) == reference_shift_positions(res, n, j)
    assert phi_squared_check(res).passed


@pytest.mark.parametrize("codim", [1, 2, 3])
def test_resolution_matches_standalone_builders(codim):
    rng = random.Random(20261017 + codim)
    short = tall = 0
    for max_gens, window in WINDOWS:
        if codim < 3 and max_gens == 3:
            continue
        for trial in range(4):
            field = GF(32003) if trial % 2 else QQ
            ideal = random_ideal(rng, max_vars=3, max_gens=max_gens, field=field)
            ci = complete_intersection(ideal, random_sequence(rng, ideal, codim))
            system = homotopy_system(ci, "average" if trial >= 2 else "first")
            top = window(ideal.ngens)
            short += top < ideal.ngens
            tall += top >= ideal.ngens + 2
            assert_matches_standalone_builders(system, top)
    assert short > 0
    assert tall >= (4 if codim == 3 else 1)
    if codim == 3:
        # each term routed to one generator: row 1 of f is zero below t = 3, row 2 is zero
        # after t = 1, row 3 is zero at t = 2 and t = 3; sigma reaches T_r at N = r + 2
        R = ring("x,y,z,w")
        ideal = monomial_ideal(R, ["x^2", "y^2", "z^2", "w^2"])
        ci = complete_intersection(ideal, ["x*z^2 + y*w^2", "x^3", "x^2*y^2 + y^2*w^2"])
        routes = [
            {(1, 0, 2, 0): 3, (0, 1, 0, 2): 4},
            {(3, 0, 0, 0): 1},
            {(2, 2, 0, 0): 1, (0, 2, 0, 2): 4},
        ]
        system = homotopy_system(ci, lift_matrix(ci, routes))
        zeros = [[t for t, f in enumerate(row, start=1) if not f] for row in system.lift.rows]
        assert zeros == [[1, 2], [2, 3, 4], [2, 3]]
        assert_matches_standalone_builders(system, ideal.ngens + 2)


def test_differential_rejects_bases_of_the_wrong_size(three_squares):
    system = three_squares.system
    rows, cols = three_squares.basis(2), three_squares.basis(3)
    assert shamash_differential(system, 3, rows, cols) == three_squares.differential(3)
    for bad_rows, bad_cols in ((rows[:-1], cols), (rows, cols[1:]), (rows + rows, cols)):
        with pytest.raises(ValueError, match=r"^phi_3 needs 4 rows and 4 columns, got \d+ and \d+$"):
            shamash_differential(system, 3, bad_rows, bad_cols)
    with pytest.raises(ValueError, match=r"^phi_3 needs 4 rows"):
        shamash_differential(system, 3, three_squares.basis(1), cols)


def test_accessors_reject_steps_outside_the_window(three_squares):
    with pytest.raises(ValueError, match=r"^no differential at step 0: steps run 1\.\.6$"):
        three_squares.differential(0)
    with pytest.raises(ValueError, match=r"^no differential at step 7: steps run 1\.\.6$"):
        three_squares.differential(7)
    for n in (-1, 7):
        with pytest.raises(ValueError, match=rf"^no module at step {n}: steps run 0\.\.6$"):
            three_squares.basis(n)
        with pytest.raises(ValueError, match=rf"^no module at step {n}"):
            three_squares.rank(n)
    cx = three_squares.system.complex
    for k in (0, 4):
        with pytest.raises(ValueError, match=rf"^no differential at step {k}: steps run 1\.\.3$"):
            cx.differential(k)
    # the Taylor bases stay empty outside 0..r: sigma on T_r maps into T_{r+1} = 0
    assert cx.basis(-1) == () == cx.basis(4)
    assert three_squares.system.sigma_e(1, 3).rows == ()


def test_window_validation(three_squares):
    with pytest.raises(ValueError):
        shamash_resolution(three_squares.system, -1)
    with pytest.raises(ValueError):
        three_squares.differential(0)
    tiny = shamash_resolution(three_squares.system, 0)
    assert tiny.rank(0) == 1 and tiny.differentials == ()
