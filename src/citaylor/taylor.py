"""Taylor complex of a monomial ideal.

Free summands in homological degree k are labelled by size-k subsets S of the
generator index set {1..r}; the summand sits in internal degree deg lcm(S).
Generators and lcms are exponent tuples.
The differential sends the basis element of S = {s_1 < ... < s_k} to

    sum_i (-1)^(k-i) * (lcm(S)/lcm(S - s_i)) * e_{S - s_i},

with i the 1-based position of s_i inside S.  ``taylor_complex`` finds each
face's row by position, from the order in which T_k extends T_{k-1}.
"""
from __future__ import annotations

import warnings
from collections import namedtuple
from itertools import chain

from .matrix import LabeledGradedMatrix
from .report import Report


class BasisElement(namedtuple("BasisElement", "u indices lcm twist")):
    """The summand y^(u) * e_S of a free module, in internal degree twist.

    u is the divided-power index over the sequence, () in the Taylor complex;
    indices is S (1-based, strictly increasing) and lcm its lcm exponents.
    """

    __slots__ = ()

    def __str__(self):
        s = self.indices
        if not s:
            text = "{}"
        elif s[-1] < 10:
            text = "".join(map(str, s))
        else:
            text = "{" + ",".join(map(str, s)) + "}"
        if len(self.u) == 1 or not any(self.u):
            return text
        return f"y({','.join(map(str, self.u))})*{text}"


class MonomialIdeal(namedtuple("MonomialIdeal", "ring generators")):
    __slots__ = ()

    def __new__(cls, ring, generators):
        if not generators:
            raise ValueError("ideal needs at least one generator")
        n = ring.nvars
        for m in generators:
            if len(m) != n:
                raise ValueError("generator does not live in the ring")
        if len(set(generators)) != len(generators):
            warnings.warn("duplicate generators make every resolution here nonminimal")
        return super().__new__(cls, ring, generators)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    @property
    def ngens(self):
        return len(self.generators)

    def generator(self, i):
        """1-based access, matching subset labels."""
        return self.generators[i - 1]

    def subset(self, indices):
        indices = tuple(indices)
        lcm = (0,) * self.ring.nvars
        for i in indices:
            lcm = tuple(map(max, lcm, self.generators[i - 1]))
        return BasisElement((), indices, lcm, sum(lcm))

    def generator_polys(self):
        return [self.ring.term(m) for m in self.generators]


def monomial_ideal(ring, generators):
    """Build an ideal from exponent tuples or generator strings."""
    return MonomialIdeal(ring, tuple(monomial_generator(ring, g) for g in generators))


def monomial_generator(ring, g):
    """The exponent tuple of a generator given as one or as the text of a monic monomial."""
    if not isinstance(g, str):
        return ring.monomial(g)
    p = ring.parse(g)
    if len(p.terms) != 1:
        raise ValueError(f"{g!r} is not a monomial")
    (e, c), = p.terms.items()
    if c != ring.field.one:
        raise ValueError(f"{g!r} has a coefficient; generators must be monic")
    return ring.monomial(e)


class TaylorComplex:
    """T_0..T_r and tau_1..tau_r, equal by value; immutable but for its memo
    of squares, which starts empty, so a copy with other differentials
    multiplies its own."""

    __slots__ = ("ideal", "bases", "differentials", "_squares")

    def __init__(self, ideal, bases, differentials):
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "differentials", differentials)
        object.__setattr__(self, "_squares", {})

    def __setattr__(self, name, value):
        raise AttributeError("TaylorComplex is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ideal, self.bases, self.differentials) == (
            other.ideal, other.bases, other.differentials
        )

    def basis(self, k):
        """T_k; empty outside 0..r, so sigma on T_r has an empty target."""
        if 0 <= k < len(self.bases):
            return self.bases[k]
        return ()

    def differential(self, k):
        """tau_k: T_k -> T_{k-1}, 1 <= k <= r."""
        if not 1 <= k <= len(self.differentials):
            raise ValueError(
                f"no differential at step {k}: steps run 1..{len(self.differentials)}"
            )
        return self.differentials[k - 1]

    def square(self, k):
        """tau_k . tau_{k+1}, 1 <= k < r, multiplied once per k."""
        if k not in self._squares:
            self._squares[k] = self.differential(k).compose(self.differential(k + 1))
        return self._squares[k]


def taylor_complex(ideal):
    """T_0..T_r and tau_1..tau_r, every face row found by position.

    T_k lists the children P + t (t past P's last index) of each label P of
    T_{k-1} in turn, P + t at first[P] + t.  S = P + t has the faces Q + t,
    Q a face of P, then P: rows first[Q] + t and P's, one addition each.
    Equal entries are one object, keyed by the packed lcm difference and sign
    bit; fields are one bit wider than the largest generator exponent, and
    lcm(S) >= lcm(face) fieldwise, so no difference borrows.
    """
    ring, gens = ideal.ring, ideal.generators
    width = max(chain.from_iterable(gens), default=0).bit_length() + 1
    shifts = [width * v for v in range(ring.nvars)]
    shared, mask = {}, (1 << width) - 1  # key -> the one entry with that key
    support = [[(v, e, shifts[v]) for v, e in enumerate(m) if e] for m in gens]
    level = (BasisElement((), (), (0,) * ring.nvars, 0),)  # T_{k-1}
    packed, faces = [0], [()]  # per label of T_{k-1}: packed lcm, face rows in T_{k-2}
    first = []  # per label Q of T_{k-2}: Q + t sits at first[Q] + t in T_{k-1}
    bases, diffs = [level], []
    for k in range(1, len(gens) + 1):
        labels, lcms, face_rows, firsts = [], [], [], []
        row = list(range(len(level)))  # one int object per row, shared by its cells
        for p, lab in enumerate(level):
            last = lab.indices[-1] if lab.indices else 0
            firsts.append(len(labels) - last - 1)
            extended = [first[q] for q in faces[p]]
            for t in range(last + 1, len(gens) + 1):
                lcm, twist, top = list(lab.lcm), lab.twist, packed[p]
                for v, e, shift in support[t - 1]:  # lcm(P + t) = max(lcm(P), m_t)
                    if e > lcm[v]:
                        twist += e - lcm[v]
                        top += e - lcm[v] << shift
                        lcm[v] = e
                labels.append(BasisElement((), lab.indices + (t,), tuple(lcm), twist))
                lcms.append(top)
                face_rows.append([row[q + t] for q in extended] + [row[p]])
        bits = [(k - pos) & 1 for pos in range(1, k + 1)]  # face pos has sign (-1)^(k - pos)
        keys = [
            (top - packed[i]) << 1 | bit  # packed lcm(S) - lcm(face), then the sign bit
            for top, rows in zip(lcms, face_rows) for i, bit in zip(rows, bits)
        ]
        for key in set(keys).difference(shared):  # a new entry +-x^exponents
            exponents = tuple(key >> 1 >> s & mask for s in shifts)
            shared[key] = ring.term(exponents, -1 if key & 1 else 1)
        cells = [(i, j) for j, rows in enumerate(face_rows) for i in rows]
        labels = tuple(labels)  # T_k, and the columns of tau_k
        diffs.append(LabeledGradedMatrix(ring, level, labels, zip(cells, map(shared.get, keys))))
        level, packed, faces, first = labels, lcms, face_rows, firsts
        bases.append(level)
    return TaylorComplex(ideal, tuple(bases), tuple(diffs))


def verify_taylor(cx):
    """Check tau_k . tau_{k+1} = 0 for every k and entry homogeneity."""
    report = Report("taylor complex")
    r = cx.ideal.ngens
    for k in range(1, r):
        report.check(
            cx.square(k),
            f"tau_{k}.tau_{k + 1} = 0",
            f"tau_{k}.tau_{k + 1} nonzero at ({{row}}, {{col}}): {{entry}}",
        )
    if r == 1:
        report.note("single generator, d^2 vacuous")
    for k in range(1, r + 1):
        bad = cx.differential(k).homogeneity_violations()
        if bad:
            row, col, entry = bad[0]
            report.fail(f"tau_{k} entry ({row}, {col}) = {entry} is not homogeneous")
    return report
