"""Property: LabeledGradedMatrix.compose agrees with Polynomial.__mul__ / __add__.

Exponents run up to about 2**40, and each operand may take its exponents
from 2**k - 1 down, so both tops sit at a power of two less one and every
product exponent fills its packed field: a field one bit too narrow carries
into the next variable.
"""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from citaylor import GF, QQ, LabeledGradedMatrix  # noqa: E402
from citaylor.poly import ModP  # noqa: E402

from conftest import ring  # noqa: E402
from test_matrix import reference_compose  # noqa: E402

FIELDS = {"QQ": QQ, "GF7": GF(7), "GF32003": GF(32003)}
RINGS = {
    (name, names): ring(names, field) for name, field in FIELDS.items() for names in ("x", "x,y")
}


def coefficients(field_name, denominators):
    if field_name == "QQ":
        return st.builds(Fraction, st.integers(-6, 6), st.sampled_from(denominators))
    return st.integers(-40000, 40000)


@st.composite
def exponent_range(draw):
    """Exponents of one operand: small ones, or any up to 2**40, or near a top 2**k - 1."""
    kind = draw(st.sampled_from(["small", "wide", "top"]))
    if kind == "small":
        return st.integers(0, 2)
    if kind == "wide":
        return st.integers(0, 2**40)
    top = 2 ** draw(st.integers(1, 40)) - 1
    return st.sampled_from([0, 1, top - 1, top])


@st.composite
def matrices(draw, R, nrows, ncols, coeffs, exponents):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if draw(st.booleans()):
                monomials = st.tuples(*[exponents] * R.nvars)
                terms = draw(st.dictionaries(monomials, coeffs, max_size=3))
                entries[(i, j)] = R.polynomial(terms)
    return LabeledGradedMatrix(R, range(nrows), range(ncols), entries)


def stacked(R, top, bottom, nrows, ncols):
    """[top; bottom] as one matrix."""
    entries = dict(top.entries)
    entries.update({(nrows + i, j): p for (i, j), p in bottom.entries.items()})
    return LabeledGradedMatrix(R, range(2 * nrows), range(ncols), entries)


@st.composite
def operands(draw):
    """A composable pair over QQ, GF(7) or GF(32003), in one or two variables.

    Over QQ each operand is integral or draws its denominators from its own
    set, so the two common denominators differ.  Half the pairs are
    [L | L] and [B; C - B], whose product L.C loses the L.B terms.
    """
    name, names = draw(st.sampled_from(sorted(RINGS)))
    R = RINGS[(name, names)]
    n, m, p = (draw(st.integers(0, 3)) for _ in range(3))
    left_coeffs = coefficients(name, draw(st.sampled_from([(1,), (1, 2, 4, 9)])))
    right_coeffs = coefficients(name, draw(st.sampled_from([(1,), (1, 3, 5, 7)])))
    left_exponents, right_exponents = draw(exponent_range()), draw(exponent_range())
    left = draw(matrices(R, n, m, left_coeffs, left_exponents))
    if not draw(st.booleans()):
        return left, draw(matrices(R, m, p, right_coeffs, right_exponents))
    B = draw(matrices(R, m, p, right_coeffs, right_exponents))
    C = draw(matrices(R, m, p, right_coeffs, right_exponents))
    doubled = {(i, m + j): q for (i, j), q in left.entries.items()}
    doubled.update(left.entries)
    cells = sorted(C.entries.keys() | B.entries.keys())
    c_minus_b = {ij: C.entry(*ij) - B.entry(*ij) for ij in cells}
    return (
        LabeledGradedMatrix(R, range(n), range(2 * m), doubled),
        stacked(R, B, LabeledGradedMatrix(R, range(m), range(p), c_minus_b), m, p),
    )


@settings(max_examples=150, deadline=None)
@given(operands())
def test_compose_equals_polynomial_arithmetic(pair):
    left, right = pair
    product = left.compose(right)
    assert product.rows == left.rows and product.cols == right.cols
    assert product.entries == reference_compose(left, right)
    field = left.ring.field
    for poly in product.entries.values():
        assert poly.terms
        for c in poly.terms.values():
            if field == QQ:
                assert type(c) is Fraction
            else:
                assert isinstance(c, ModP) and c.p == field.p and 0 < c.value < field.p
