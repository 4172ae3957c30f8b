"""Exact arithmetic, parsing, and ordering tests for the polynomial layer."""
import random
from fractions import Fraction

import pytest

from citaylor import GF, QQ, ParseError, PolyRing, PrimeField
from citaylor.poly import exponents_of_degree, grlex, is_prime
from citaylor.quotient import grevlex

from conftest import ring


# ---- fields ---------------------------------------------------------------


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 32003, 2**31 - 1}
    composites = {0, 1, 4, 9, 15, 32001, 2**31 - 3}
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in composites)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        GF(10)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        PrimeField(4)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        GF(7)._replace(p=4)


def test_modp_arithmetic():
    F = GF(7)
    a = F.coerce(3)
    b = F.coerce(5)
    assert str(a + b) == "1"
    assert str(a * b) == "1"
    assert str(a - b) == "5"
    assert str(-a) == "4"
    assert str(a / b) == "2"  # 3 * 5^-1 = 3 * 3 = 9 = 2
    assert not F.zero
    assert F.coerce(7) == F.zero
    with pytest.raises(TypeError, match=r"^element of GF\(5\) used in GF\(7\)$"):
        F.coerce(GF(5).one)


def test_modp_coerce_fraction():
    F = GF(7)
    assert F.coerce(Fraction(1, 3)) == F.coerce(5)  # 3 * 5 = 15 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        F.coerce(Fraction(1, 7))


def test_qq_coerce():
    assert QQ.coerce(2) == Fraction(2)
    assert QQ.coerce(Fraction(1, 3)) == Fraction(1, 3)
    assert QQ.characteristic == 0


# ---- parsing and printing -------------------------------------------------


def test_parse_basic_forms(ring_xyz):
    R = ring_xyz
    assert str(R.parse("x")) == "x"
    assert str(R.parse("x^2*y")) == "x^2*y"
    assert str(R.parse("3")) == "3"
    assert str(R.parse("-x + y")) == "-x + y"
    assert str(R.parse("2*x - 3")) == "2*x - 3"
    assert str(R.parse("1/3*x")) == "1/3*x"
    assert str(R.parse("0")) == "0"


def test_parse_collects_like_terms(ring_xyz):
    R = ring_xyz
    assert R.parse("x + x") == R.parse("2*x")
    assert R.parse("x - x") == R.zero
    assert R.parse("2*x*y + y*x") == R.parse("3*x*y")


def test_print_canonical_descending(ring_xyz):
    # grlex: among degree-3 monomials x^2*z beats x*y^2
    assert str(ring_xyz.parse("x*y^2 + x^2*z")) == "x^2*z + x*y^2"
    assert str(ring_xyz.parse("1 + x + x^3")) == "x^3 + x + 1"


def test_text_is_cached_and_polynomial_stays_immutable(ring_xyz):
    p = ring_xyz.parse("x^2*z - 1/2*x*y^2 + 3")
    q = ring_xyz.parse("3 + z*x^2 - 1/2*y^2*x")
    assert p == q and hash(p) == hash(q)  # neither text formatted yet
    text = str(p)
    assert text == "x^2*z - 1/2*x*y^2 + 3"
    assert str(p) is text
    assert repr(p) == f"<{text}>"
    assert p == q and hash(p) == hash(q)  # one text cached, the other not
    assert str(q) == text
    assert p == q and hash(p) == hash(q)
    for name, value in (("x", 1), ("_text", "junk"), ("terms", {})):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    assert str(p) == text


def test_parse_format_round_trip(ring_xyz):
    rng = random.Random(11)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 4) for _ in range(3))
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        p = ring_xyz.polynomial(terms)
        assert ring_xyz.parse(str(p)) == p


def test_parse_errors_carry_position(ring_xyz):
    for src, pos in [("x +", 3), ("x^", 2), ("2.5*x", 1), ("x^-2", 2)]:
        with pytest.raises(ParseError) as err:
            ring_xyz.parse(src)
        assert err.value.position == pos
    for src, message in [
        ("x^2+", "expected a term, found end of input (at position 4)"),
        ("x^", "expected an integer, found end of input (at position 2)"),
        ("x*^2", "expected a variable, found '^' (at position 2)"),
    ]:
        with pytest.raises(ParseError) as err:
            ring_xyz.parse(src)
        assert str(err.value) == message


def test_parse_unknown_variable(ring_xyz):
    with pytest.raises(ParseError):
        ring_xyz.parse("x + w")


def test_parse_empty_string(ring_xyz):
    with pytest.raises(ParseError):
        ring_xyz.parse("")
    with pytest.raises(ParseError):
        ring_xyz.parse("   ")


def test_ring_validation():
    """The same message whether the ring is built or replaced from a valid one."""
    for variables, message in [
        (("x", "x"), "duplicate variable names"),
        ((), "ring needs at least one variable"),
        (("x", "1y"), "bad variable name '1y'"),
        (("x", "y-z"), "bad variable name 'y-z'"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            PolyRing(variables, QQ)
        with pytest.raises(ValueError, match=f"^{message}$"):
            PolyRing(("x",), GF(7))._replace(variables=variables)


# exponent tuple in the ring x,y -> the message naming what is wrong with it
BAD_EXPONENTS = {
    (-1, 0): "exponent tuple (-1, 0): negative exponent",
    (1,): "exponent tuple (1,): expected 2 exponents, got 1",
    (0, 0, 5): "exponent tuple (0, 0, 5): expected 2 exponents, got 3",
    (1.0, 0): "exponent tuple (1.0, 0): exponents must be ints",
    ("1", 0): "exponent tuple ('1', 0): exponents must be ints",
}


@pytest.mark.parametrize("exponents", list(BAD_EXPONENTS), ids=str)
def test_malformed_exponent_tuples_rejected(exponents):
    R = ring("x,y")
    message = BAD_EXPONENTS[exponents]
    with pytest.raises(ValueError) as term_error:
        R.term(exponents, 2)
    with pytest.raises(ValueError) as polynomial_error:
        R.polynomial({(0, 1): 1, exponents: 1})
    assert str(term_error.value) == str(polynomial_error.value) == message
    assert str(R.term((1, 0), 2)) == "2*x"
    assert str(R.polynomial({(0, 1): 1, (0, 0): -1})) == "y - 1"


# ---- arithmetic properties ------------------------------------------------


def _random_poly(rng, R, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, 3) for _ in R.variables)
        terms[e] = Fraction(rng.randint(-6, 6))
    return R.polynomial(terms)


def test_ring_axioms_random(ring_xyz):
    rng = random.Random(7)
    R = ring_xyz
    for _ in range(40):
        p, q, s = (_random_poly(rng, R) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + s == p + (q + s)
        assert p * q == q * p
        assert (p * q) * s == p * (q * s)
        assert p * (q + s) == p * q + p * s
        assert p - p == R.zero
        assert p * R.one == p
        assert p + R.zero == p
        assert -(-p) == p


def test_mixed_ring_arithmetic_rejected(ring_xyz):
    other = ring("x,y")
    with pytest.raises(ValueError):
        ring_xyz.parse("x") + other.parse("x")


def test_scale_and_mul_term(ring_xyz):
    p = ring_xyz.parse("x + y")
    assert p.scale(Fraction(1, 2)) == ring_xyz.parse("1/2*x + 1/2*y")
    assert p.mul_term((1, 0, 1)) == ring_xyz.parse("x^2*z + x*y*z")
    assert p.scale(0).is_zero()


def test_degree_helpers(ring_xyz):
    R = ring_xyz
    assert R.zero.total_degree() is None
    assert R.one.total_degree() == 0
    assert R.parse("x^2*y + z").total_degree() == 3
    assert R.parse("x^2 + y*z").is_homogeneous()
    assert not R.parse("x^2 + z").is_homogeneous()
    assert R.parse("x + 3").constant_term() == Fraction(3)
    assert R.parse("x").constant_term() == Fraction(0)


def test_prime_field_polynomials():
    R = ring("x,y", GF(7))
    p = R.parse("5*x^2 + 9*y")
    assert str(p) == "5*x^2 + 2*y"
    assert str(R.parse("x - 3*y")) == "x + 4*y"
    assert R.parse("7*x").is_zero()


# ---- monomial orders -------------------------------------------------------


def test_orders_disagree_where_expected():
    a, b = (2, 1, 1), (1, 3, 0)  # x^2*y*z vs x*y^3, both degree 4
    for key, winner in [(grevlex, b), (grlex, a)]:
        assert max([a, b], key=key) == winner


def test_order_controls_printing():
    """Polynomials print in grlex, whatever order a Groebner basis uses."""
    terms = "x*y^3 + x^2*y*z"
    assert str(ring("x,y,z").parse(terms)) == "x^2*y*z + x*y^3"


def test_leading_term(ring_xyz):
    p = ring_xyz.parse("x^2*y*z + x*y^3 + 1")
    e, c = p.leading(grevlex)
    assert e == (1, 3, 0) and c == 1
    with pytest.raises(ValueError):
        ring_xyz.zero.leading(grevlex)


def recursive_exponents(nvars, degree):
    """exponents_of_degree by recursion on the first exponent, largest first."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in recursive_exponents(nvars - 1, degree - first):
            yield (first, *rest)


@pytest.mark.parametrize("nvars", range(1, 6))
def test_exponents_of_degree_matches_the_recursive_enumeration(nvars):
    for degree in range(9):
        got = list(exponents_of_degree(nvars, degree))
        assert got == list(recursive_exponents(nvars, degree))
        assert got == sorted(set(got), reverse=True)
