"""Exact sparse multivariate polynomial arithmetic over QQ or GF(p).

Coefficients are ``fractions.Fraction`` in characteristic zero and ModP
elements in characteristic p.  A polynomial is an immutable mapping from
exponent tuples to nonzero coefficients; nothing here ever rounds.  Terms
print descending in grlex: total degree first, then lex.
"""
from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from operator import lshift


class ParseError(ValueError):
    """Malformed polynomial input; carries the source offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


def parse_in(build, text, where, offset=0):
    """build(text); a ValueError from it names where the text came from, and a
    ParseError keeps its type with the position counted from offset.
    """
    try:
        return build(text)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc.message}", offset + exc.position) from None
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


class ModP:
    """Element of GF(p), stored as the canonical representative in 0..p-1."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def __add__(self, other):
        return ModP(self.value + other.value, self.p)

    def __sub__(self, other):
        return ModP(self.value - other.value, self.p)

    def __neg__(self):
        return ModP(-self.value, self.p)

    def __mul__(self, other):
        return ModP(self.value * other.value, self.p)

    def __truediv__(self, other):
        return ModP(self.value * pow(other.value, -1, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, ModP) and self.p == other.p and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"ModP({self.value}, {self.p})"


class RationalField:
    """The rationals; coefficients are Fraction instances."""

    characteristic = 0

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    # deterministic Miller-Rabin, valid far beyond any sensible modulus here
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(namedtuple("PrimeField", "p")):
    """GF(p) for a prime p."""

    __slots__ = ()

    def __new__(cls, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    @property
    def characteristic(self):
        return self.p

    def coerce(self, value):
        if isinstance(value, ModP):
            if value.p != self.p:
                raise TypeError(f"element of GF({value.p}) used in GF({self.p})")
            return value
        if isinstance(value, int):
            return ModP(value, self.p)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator {value.denominator} vanishes in GF({self.p})"
                )
            return ModP(value.numerator * pow(value.denominator, -1, self.p), self.p)
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    @property
    def zero(self):
        return ModP(0, self.p)

    @property
    def one(self):
        return ModP(1, self.p)

    def __repr__(self):
        return f"GF({self.p})"


def GF(p):
    return PrimeField(p)


def exponents_of_degree(nvars, degree):
    """Every nvars-tuple of nonnegative ints summing to degree, lex descending."""
    e = [degree] + [0] * (nvars - 1)
    while True:
        yield tuple(e)
        # one unit of the last nonzero e[i], i < nvars - 1, moves to e[i + 1] with all of e[-1]
        i = nvars - 2
        while i >= 0 and not e[i]:
            i -= 1
        if i < 0:
            return
        e[i] -= 1
        e[-1], e[i + 1] = 0, e[-1] + 1


class MonomialPacking:
    """Nonnegative exponent tuples packed into one int, exponent i in bits
    ``[i * width, (i + 1) * width)``, so a product of monomials is one addition
    (Monagan and Pearce 2007).  ``width`` is the bit length of ``top``, the
    largest value the caller says any field must hold, so a sum that stays
    <= top in every field never carries.  Bits from ``size`` up are the caller's.
    """

    __slots__ = ("shifts", "mask", "size")

    def __init__(self, nvars, top):
        width = top.bit_length()
        self.shifts = [width * i for i in range(nvars)]
        self.mask = (1 << width) - 1
        self.size = width * nvars

    def pack(self, exponents):
        return sum(map(lshift, exponents, self.shifts))

    def unpack(self, m):
        """The exponents packed in m; bits from size up are ignored."""
        mask = self.mask
        return tuple(m >> s & mask for s in self.shifts)


def grlex(exponents):
    """Sort key of the print order, total degree then lex: bigger key = bigger monomial."""
    return (sum(exponents), exponents)


class Polynomial:
    """Immutable sparse polynomial attached to a PolyRing.

    The canonical text is formatted on first use and kept, so an entry that
    a matrix holds in many places is formatted once.
    """

    __slots__ = ("ring", "terms", "_text")

    def __init__(self, ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        self._check_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e)
            acc[e] = c if s is None else s + c
        return Polynomial(self.ring, acc)

    def __sub__(self, other):
        self._check_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e)
            acc[e] = -c if s is None else s - c
        return Polynomial(self.ring, acc)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = acc.get(e)
                acc[e] = c if s is None else s + c
        return Polynomial(self.ring, acc)

    def scale(self, scalar):
        c0 = self.ring.field.coerce(scalar)
        if not c0:
            return self.ring.zero
        return Polynomial(self.ring, {e: c0 * c for e, c in self.terms.items()})

    def mul_term(self, exponents, coeff=None):
        """Multiply by coeff * x^exponents without building a Polynomial."""
        if coeff is None:
            coeff = self.ring.field.one
        acc = {}
        for e, c in self.terms.items():
            acc[tuple(a + b for a, b in zip(e, exponents))] = c * coeff
        return Polynomial(self.ring, acc)

    def total_degree(self):
        """Largest term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def constant_term(self):
        zero = (0,) * len(self.ring.variables)
        return self.terms.get(zero, self.ring.field.zero)

    def leading(self, key):
        """(exponents, coeff) of the largest term under the sort key."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=key)
        return e, self.terms[e]

    def __str__(self):
        text = self._text
        if text is None:
            text = self.ring.format_polynomial(self)
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self):
        return f"<{self}>"


_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^])|(?P<ws>\s+)|(?P<bad>.)")
# each token kind as a parse error names it
_TOKEN_WORDS = {"int": "an integer", "name": "a variable", "op": "an operator"}


def _tokenize(src):
    out = []
    for m in _TOKEN.finditer(src):
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        out.append((m.lastgroup, m.group(), m.start()))
    return out


class PolyRing(namedtuple("PolyRing", "variables field")):
    """Polynomial ring: named variables and a coefficient field."""

    __slots__ = ()

    def __new__(cls, variables, field=QQ):
        variables = tuple(variables)  # a list of names is the same ring, and hashes
        if not variables:
            raise ValueError("ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", v):
                raise ValueError(f"bad variable name {v!r}")
        return super().__new__(cls, variables, field)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    @property
    def nvars(self):
        return len(self.variables)

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def variable(self, name):
        i = self.variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {e: self.field.one})

    def monomial(self, exponents):
        """The exponent tuple of a monomial of this ring, checked.

        Raises ValueError naming the tuple unless it holds one nonnegative
        int per variable, which the matrix kernel's packed exponents need.
        """
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise ValueError(
                f"exponent tuple {exponents}: expected {self.nvars} exponents, got {len(exponents)}"
            )
        if any(type(e) is not int for e in exponents):
            raise ValueError(f"exponent tuple {exponents}: exponents must be ints")
        if any(e < 0 for e in exponents):
            raise ValueError(f"exponent tuple {exponents}: negative exponent")
        return exponents

    def term(self, exponents, coeff=1):
        return Polynomial(self, {self.monomial(exponents): self.field.coerce(coeff)})

    def polynomial(self, mapping):
        return Polynomial(self, {self.monomial(e): self.field.coerce(c) for e, c in mapping.items()})

    # ---- parsing -------------------------------------------------------

    def parse(self, src):
        """Parse ``term (('+'|'-') term)*`` with terms ``coeff('*'factor)*``.

        Factors are ``var('^'uint)?``; coefficients are ``int`` or
        ``int/uint``.  A leading sign is allowed.  Raises ParseError with the
        offending position.
        """
        tokens = _tokenize(src)
        pos = 0

        def peek():
            return tokens[pos] if pos < len(tokens) else (None, None, len(src))

        def unexpected(wanted, tok):
            found = "end of input" if tok[0] is None else repr(tok[1])
            return ParseError(f"expected {wanted}, found {found}", tok[2])

        def take(kind):
            nonlocal pos
            tok = peek()
            if tok[0] != kind:
                raise unexpected(_TOKEN_WORDS[kind], tok)
            pos += 1
            return tok

        def parse_factor(exps):
            name = take("name")
            if name[1] not in self.variables:
                raise ParseError(f"unknown variable {name[1]!r}", name[2])
            power = 1
            if peek()[1] == "^":
                take("op")
                power = int(take("int")[1])
            i = self.variables.index(name[1])
            exps[i] += power

        def parse_term(sign):
            exps = [0] * self.nvars
            tok = peek()
            if tok[0] == "int":
                take("int")
                num = int(tok[1])
                if peek()[1] == "/":
                    take("op")
                    den_tok = take("int")
                    if int(den_tok[1]) == 0:
                        raise ParseError("zero denominator", den_tok[2])
                    coeff = Fraction(num, int(den_tok[1]))
                else:
                    coeff = Fraction(num)
                while peek()[1] == "*":
                    take("op")
                    parse_factor(exps)
            elif tok[0] == "name":
                coeff = Fraction(1)
                parse_factor(exps)
                while peek()[1] == "*":
                    take("op")
                    parse_factor(exps)
            else:
                raise unexpected("a term", tok)
            return tuple(exps), self.field.coerce(coeff * sign)

        acc = {}

        def add_term(sign):
            e, c = parse_term(sign)
            s = acc.get(e)
            acc[e] = c if s is None else s + c

        lead = peek()
        sign = 1
        if lead[1] in ("+", "-"):
            take("op")
            sign = -1 if lead[1] == "-" else 1
        add_term(sign)
        while peek()[0] is not None:
            op = peek()
            if op[1] not in ("+", "-"):
                raise unexpected("'+' or '-'", op)
            take("op")
            add_term(-1 if op[1] == "-" else 1)
        return Polynomial(self, acc)

    # ---- printing ------------------------------------------------------

    def format_exponents(self, exponents):
        parts = []
        for name, e in zip(self.variables, exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def format_monomial(self, exponents):
        return self.format_exponents(exponents) or "1"

    def format_polynomial(self, poly):
        """Canonical text form: terms descending in grlex."""
        return render_terms(poly, str, self.format_exponents, "*")


def render_terms(poly, coeff_text, mono_text, times):
    """The signed term walk behind every rendering of a polynomial.

    Terms run descending in grlex.  A negative rational coefficient
    becomes a minus sign; a unit coefficient is dropped before a nonconstant
    monomial, and any other one is joined to it by times.
    """
    if not poly.terms:
        return "0"
    one = poly.ring.field.one
    out = []
    for e in sorted(poly.terms, key=grlex, reverse=True):
        c = poly.terms[e]
        negative = isinstance(c, Fraction) and c < 0
        mag = -c if negative else c
        mono = mono_text(e)
        if not mono:
            body = coeff_text(mag)
        elif mag == one:
            body = mono
        else:
            body = coeff_text(mag) + times + mono
        if out:
            out.append(f" - {body}" if negative else f" + {body}")
        else:
            out.append(f"-{body}" if negative else body)
    return "".join(out)
