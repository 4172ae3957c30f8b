"""compose and defect against a reference built from Polynomial arithmetic."""
import random
from fractions import Fraction

import pytest

from citaylor import GF, QQ, LabeledGradedMatrix
from citaylor.matrix import defect, defects

from conftest import ring


def reference_compose(left, right):
    """Entries of left∘right summed with Polynomial.__mul__ / __add__, zeros dropped."""
    acc = {}
    for (i, j), p in left.entries.items():
        for (jj, k), q in right.entries.items():
            if j == jj:
                acc[(i, k)] = acc.get((i, k), left.ring.zero) + p * q
    return {key: p for key, p in acc.items() if p}


def reference_defect(pairs, corrections=()):
    """Entries of sum(left∘right) minus each correction, by Polynomial arithmetic."""
    acc = {}
    for left, right in pairs:
        for key, p in reference_compose(left, right).items():
            acc[key] = acc.get(key, left.ring.zero) + p
    for key, p in corrections:
        acc[key] = acc.get(key, p.ring.zero) - p
    return {key: p for key, p in acc.items() if p}


def random_poly(rng, R, coeffs):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in R.variables)
        terms[e] = rng.choice(coeffs)
    return R.polynomial(terms)


def random_matrix(rng, R, nrows, ncols, density, coeffs):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                entries[(i, j)] = random_poly(rng, R, coeffs)
    return LabeledGradedMatrix(R, range(nrows), range(ncols), entries)


def cancelling_pair(rng, R, n, m, p, density, coeffs):
    """[L | L'] and [B; -B] with L' = L on about half the rows: those rows of the product cancel."""
    L = random_matrix(rng, R, n, m, density, coeffs)
    other = random_matrix(rng, R, n, m, density, coeffs)
    B = random_matrix(rng, R, m, p, density, coeffs)
    same = {i for i in range(n) if rng.random() < 0.5}
    left = dict(L.entries)
    source = {(i, j): q for (i, j), q in L.entries.items() if i in same}
    source.update({(i, j): q for (i, j), q in other.entries.items() if i not in same})
    left.update({(i, m + j): q for (i, j), q in source.items()})
    right = dict(B.entries)
    right.update({(m + j, k): -q for (j, k), q in B.entries.items()})
    return (
        LabeledGradedMatrix(R, range(n), range(2 * m), left),
        LabeledGradedMatrix(R, range(2 * m), range(p), right),
    )


QQ_COEFFS = [1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
GF_COEFFS = [1, -1, 2, 32002, 16001, 12345]


@pytest.mark.parametrize(
    "field, coeffs", [(QQ, QQ_COEFFS), (GF(32003), GF_COEFFS)], ids=["QQ", "GF32003"]
)
def test_compose_matches_polynomial_reference(field, coeffs):
    rng = random.Random(20261017)
    R = ring("x,y", field)
    saw_cancel = False
    for trial in range(60):
        n, m, p = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        density = rng.choice([0.0, 0.3, 0.7, 1.0])
        if trial % 2:
            left, right = cancelling_pair(rng, R, n, m, p, density, coeffs)
        else:
            left = random_matrix(rng, R, n, m, density, coeffs)
            right = random_matrix(rng, R, m, p, density, coeffs)
        product = left.compose(right)
        expected = reference_compose(left, right)
        assert product.rows == left.rows and product.cols == right.cols
        assert product.entries == expected
        assert all(product.entries.values())
        touched = {(i, k) for i, j in left.entries for jj, k in right.entries if j == jj}
        saw_cancel |= bool(touched - set(expected))
    assert saw_cancel, "no random product cancelled; the zero-entry case went untested"


# Over QQ each pair draws its denominators from its own set, so the pairs'
# common denominators differ, and the corrections bring one more.
QQ_PAIR_COEFFS = [
    [1, -1, Fraction(1, 2), Fraction(-3, 4)],
    [2, Fraction(1, 3), Fraction(-5, 9)],
    [Fraction(7, 5), Fraction(-1, 7), 3],
]
QQ_CORRECTION_COEFFS = [Fraction(1, 11), Fraction(-2, 3), Fraction(5, 4), 1]


@pytest.mark.parametrize(
    "field, pair_coeffs, correction_coeffs",
    [
        (QQ, QQ_PAIR_COEFFS, QQ_CORRECTION_COEFFS),
        (GF(7), [[1, -1, 3, 6, 7]] * 3, [1, 2, -3, 5, 14]),
        (GF(32003), [GF_COEFFS] * 3, [1, 32002, 777, -5]),
    ],
    ids=["QQ", "GF7", "GF32003"],
)
def test_defect_matches_polynomial_reference(field, pair_coeffs, correction_coeffs):
    rng = random.Random(20261018)
    R = ring("x,y", field)
    for _ in range(40):
        n, p = rng.randint(1, 4), rng.randint(1, 4)
        density = rng.choice([0.3, 0.7, 1.0])
        pairs = []
        for coeffs in pair_coeffs[: rng.randint(1, 3)]:
            m = rng.randint(0, 4)
            left = random_matrix(rng, R, n, m, density, coeffs)
            pairs.append((left, random_matrix(rng, R, m, p, density, coeffs)))
        corrections = [
            ((rng.randrange(n), rng.randrange(p)), random_poly(rng, R, correction_coeffs))
            for _ in range(rng.randint(0, 4))
        ]
        d = defect(pairs, corrections)
        assert (d.rows, d.cols) == (pairs[0][0].rows, pairs[0][1].cols)
        assert d.entries == reference_defect(pairs, corrections)
        assert all(d.entries.values())


@pytest.mark.parametrize(
    "field, coeffs", [(QQ, QQ_COEFFS), (GF(7), [1, 3, 5]), (GF(32003), GF_COEFFS)],
    ids=["QQ", "GF7", "GF32003"],
)
def test_defect_cancels_to_zero(field, coeffs):
    """Products minus their own sum, and a pair against its negation, leave nothing."""
    rng = random.Random(7)
    R = ring("x,y", field)
    left = random_matrix(rng, R, 3, 4, 1.0, coeffs)
    right = random_matrix(rng, R, 4, 2, 1.0, coeffs)
    negated = LabeledGradedMatrix(R, right.rows, right.cols, {k: -q for k, q in right.entries.items()})
    product = reference_compose(left, right)
    assert product
    assert defect([(left, right)], product.items()).is_zero()
    assert defect([(left, right), (left, negated)]).is_zero()
    # split each expected entry into two corrections; dropping one leaves it
    halves = [(key, q.scale(2)) for key, q in product.items()] + [
        (key, -q) for key, q in product.items()
    ]
    assert defect([(left, right)], halves).is_zero()
    key = next(iter(product))
    missing = [c for c in halves if c[0] != key or c[1] != -product[key]]
    assert defect([(left, right)], missing).entries == {key: -product[key]}


def test_compose_drops_entries_that_cancel(ring_xyz):
    R = ring_xyz
    x, y, z = (R.variable(v) for v in "xyz")
    half = R.term((0, 0, 0), Fraction(1, 2))
    left = LabeledGradedMatrix(R, "ab", "uv", {(0, 0): x + y, (0, 1): half * y, (1, 0): z})
    right = LabeledGradedMatrix(R, "uv", "s", {(0, 0): y, (1, 0): -(x + y) * R.term((0, 0, 0), 2)})
    product = left.compose(right)
    assert (0, 0) not in product.entries
    assert product.entries == {(1, 0): z * y}
    assert product.entries == reference_compose(left, right)


def test_compose_of_empty_matrices(ring_xyz):
    R = ring_xyz
    empty = LabeledGradedMatrix(R, (), (), {})
    assert empty.compose(empty).is_zero()
    wide = LabeledGradedMatrix(R, "ab", "uv", {})
    tall = LabeledGradedMatrix(R, "uv", "st", {(0, 0): R.variable("x")})
    product = wide.compose(tall)
    assert product.is_zero() and product.shape == (2, 2)


def test_matrices_differing_in_one_entry_or_label_are_unequal(ring_xyz):
    R = ring_xyz
    x, y = R.variable("x"), R.variable("y")
    base = LabeledGradedMatrix(R, "ab", "uv", {(0, 0): x, (1, 1): y})
    assert base == LabeledGradedMatrix(R, "ab", "uv", {(1, 1): y, (0, 0): x})
    variants = [
        LabeledGradedMatrix(R, "ab", "uv", {(0, 0): x, (1, 1): x}),
        LabeledGradedMatrix(R, "ac", "uv", base.entries),
        LabeledGradedMatrix(R, "ab", "uw", base.entries),
    ]
    for other in variants:
        assert base != other and other != base
    assert base != base.entries


def test_compose_rejects_mismatched_labels_and_rings():
    R, S = ring("x,y"), ring("x,y", GF(32003))
    a = LabeledGradedMatrix(R, "a", "u", {(0, 0): R.variable("x")})
    b = LabeledGradedMatrix(S, "u", "s", {(0, 0): S.variable("y")})
    with pytest.raises(ValueError):
        a.compose(b)
    with pytest.raises(ValueError):
        LabeledGradedMatrix(R, "a", "u", {}).compose(LabeledGradedMatrix(S, "u", "s", {}))
    with pytest.raises(ValueError):
        a.compose(LabeledGradedMatrix(R, "v", "s", {}))
    right = LabeledGradedMatrix(R, "u", "s", {(0, 0): R.variable("y")})
    with pytest.raises(ValueError, match="correction from a different ring"):
        defect([(a, right)], [((0, 0), S.variable("x"))])


def test_defect_sums_products_and_subtracts_corrections():
    R = ring("x,y")
    x, y = R.variable("x"), R.variable("y")
    a = LabeledGradedMatrix(R, "ab", "uv", {(0, 0): x, (0, 1): y, (1, 1): x})
    b = LabeledGradedMatrix(R, "ab", "uv", {(0, 0): y, (1, 0): x})
    identity = LabeledGradedMatrix(R, "uv", "uv", {(0, 0): R.one, (1, 1): R.one})
    d = defect([(a, identity), (b, identity)], [((0, 0), x + y), ((1, 1), x), ((1, 1), y)])
    assert (d.rows, d.cols) == (a.rows, a.cols)
    # (0, 0) cancels and is dropped; two corrections at (1, 1) both subtract
    assert d.entries == {(0, 1): y, (1, 0): x, (1, 1): -y}
    assert defect([(a, identity)]) == a
    other = LabeledGradedMatrix(R, "ab", "uw", {})
    with pytest.raises(ValueError, match="labels do not match"):
        defect([(a, identity), (other, LabeledGradedMatrix(R, "uw", "uw", {}))])


@pytest.mark.parametrize("cell", [(0, 2), (2, 0), (-1, 0), (0, -1)])
def test_defect_rejects_a_correction_outside_the_matrix(cell):
    R = ring("x,y")
    x = R.variable("x")
    # (0, 2) would otherwise land on cell (1, 0) and cancel its entry
    a = LabeledGradedMatrix(R, "ab", "uv", {(1, 0): x})
    identity = LabeledGradedMatrix(R, "uv", "uv", {(0, 0): R.one, (1, 1): R.one})
    with pytest.raises(ValueError, match=rf"correction at \({cell[0]}, {cell[1]}\) outside a 2x2"):
        defect([(a, identity)], [(cell, x)])


@pytest.mark.parametrize(
    "field, pair_coeffs, correction_coeffs",
    [
        (QQ, QQ_PAIR_COEFFS, QQ_CORRECTION_COEFFS),
        (GF(7), [[1, -1, 3, 6, 7]] * 3, [1, 2, -3, 5, 14]),
        (GF(32003), [GF_COEFFS] * 3, [1, 32002, 777, -5]),
    ],
    ids=["QQ", "GF7", "GF32003"],
)
def test_defects_matches_defect_one_at_a_time(field, pair_coeffs, correction_coeffs):
    """One call over identities of different shapes, some with corrections, and a
    matrix that is the left of identities with different column counts and a right."""
    rng = random.Random(20261020)
    R = ring("x,y", field)
    shared = random_matrix(rng, R, 3, 2, 0.7, pair_coeffs[1])
    identities = []
    for trial in range(30):
        n, p = rng.randint(1, 4), rng.randint(1, 4)
        density = rng.choice([0.3, 0.7, 1.0])
        pairs = []
        if trial % 3 == 0:
            n = 3
            pairs.append((shared, random_matrix(rng, R, 2, p, density, pair_coeffs[0])))
        elif trial % 3 == 1:
            p = 2
            pairs.append((random_matrix(rng, R, n, 3, density, pair_coeffs[2]), shared))
        for coeffs in pair_coeffs[: rng.randint(0 if pairs else 1, 2)]:
            m = rng.randint(0, 4)
            left = random_matrix(rng, R, n, m, density, coeffs)
            pairs.append((left, random_matrix(rng, R, m, p, density, coeffs)))
        corrections = [
            ((rng.randrange(n), rng.randrange(p)), random_poly(rng, R, correction_coeffs))
            for _ in range(rng.randint(1, 4) if trial % 2 else 0)
        ]
        identities.append((pairs, corrections))
    results = defects(identities)
    assert len(results) == len(identities)
    for (pairs, corrections), d in zip(identities, results):
        assert d == defect(pairs, corrections)
        assert d.entries == reference_defect(pairs, corrections)
    assert defects([]) == []


def test_defects_rejects_a_correction_outside_its_matrix():
    R = ring("x,y")
    x = R.variable("x")
    a = LabeledGradedMatrix(R, "ab", "uv", {(1, 0): x})
    identity = LabeledGradedMatrix(R, "uv", "uv", {(0, 0): R.one, (1, 1): R.one})
    column = LabeledGradedMatrix(R, "uv", "s", {(0, 0): x})
    # (0, 1) lies inside the first identity's 2x2 result, not the second's 2x1
    with pytest.raises(ValueError, match=r"correction at \(0, 1\) outside a 2x1"):
        defects([([(a, identity)], [((0, 1), x)]), ([(a, column)], [((0, 1), x)])])
