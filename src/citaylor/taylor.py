"""Taylor complex of a monomial ideal.

Free summands in homological degree k are labelled by size-k subsets S of the
generator index set {1..r}; the summand sits in internal degree deg lcm(S).
Generators and lcms are exponent tuples.
The differential sends the basis element of S = {s_1 < ... < s_k} to

    sum_i (-1)^(k-i) * (lcm(S)/lcm(S - s_i)) * e_{S - s_i},

with i the 1-based position of s_i inside S.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from operator import sub
from typing import NamedTuple

from .matrix import LabeledGradedMatrix, memo
from .poly import Polynomial
from .report import Report


class BasisElement(NamedTuple):
    """The summand y^(u) * e_S of a free module, in internal degree twist.

    u is the divided-power index over the sequence, () in the Taylor complex;
    indices is S (1-based, strictly increasing) and lcm its lcm exponents.
    """

    u: tuple[int, ...]
    indices: tuple[int, ...]
    lcm: tuple[int, ...]
    twist: int

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


@dataclass(frozen=True)
class MonomialIdeal:
    ring: object
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("ideal needs at least one generator")
        n = self.ring.nvars
        for m in self.generators:
            if len(m) != n:
                raise ValueError("generator does not live in the ring")
        if len(set(self.generators)) != len(self.generators):
            warnings.warn("duplicate generators make every resolution here nonminimal")

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
    gens = []
    for g in generators:
        if isinstance(g, str):
            p = ring.parse(g)
            if len(p.terms) != 1:
                raise ValueError(f"{g!r} is not a monomial")
            (e, c), = p.terms.items()
            if c != ring.field.one:
                raise ValueError(f"{g!r} has a coefficient; generators must be monic")
            gens.append(ring.monomial(e))
        else:
            gens.append(ring.monomial(g))
    return MonomialIdeal(ring, tuple(gens))


def _bases(ideal):
    """Basis elements (u = ()) of sizes 0..r, each size in lexicographic order.

    Size k extends every size-(k-1) label by each larger index, so
    lcm(S) = max(lcm(S minus its last index), m_last) entrywise.
    """
    gens = ideal.generators
    level = (BasisElement((), (), (0,) * ideal.ring.nvars, 0),)
    out = [level]
    for _ in gens:
        nxt = []
        for lab in level:
            start = lab.indices[-1] if lab.indices else 0
            for t in range(start + 1, len(gens) + 1):
                lcm = tuple(map(max, lab.lcm, gens[t - 1]))
                nxt.append(BasisElement((), lab.indices + (t,), lcm, sum(lcm)))
        level = tuple(nxt)
        out.append(level)
    return tuple(out)


def _differential(ring, k, rows, cols, shared):
    """tau_k: T_k -> T_{k-1} from the two bases, entries straight from lcm exponents.

    shared maps (exponents, sign) to the one Polynomial that every equal
    entry refers to.
    """
    signs = (ring.field.coerce(1), ring.field.coerce(-1))
    row_index = {lab.indices: i for i, lab in enumerate(rows)}
    row_lcms = [lab.lcm for lab in rows]
    entries = {}
    for j, col in enumerate(cols):
        s, lcm = col.indices, col.lcm
        for pos in range(1, k + 1):
            i = row_index[s[: pos - 1] + s[pos:]]
            key = (tuple(map(sub, lcm, row_lcms[i])), (k - pos) % 2)
            poly = shared.get(key)
            if poly is None:
                poly = shared[key] = Polynomial(ring, {key[0]: signs[key[1]]})
            entries[(i, j)] = poly
    return LabeledGradedMatrix(ring, rows, cols, entries)


@dataclass(frozen=True)
class TaylorComplex:
    ideal: MonomialIdeal
    bases: tuple[tuple[BasisElement, ...], ...]
    differentials: tuple[LabeledGradedMatrix, ...]
    _squares: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """tau_k . tau_{k+1}, 1 <= k < r; each pair of matrices is multiplied once."""
        left, right = self.differential(k), self.differential(k + 1)
        return memo(self._squares, (left, right), lambda: left.compose(right))


def taylor_complex(ideal):
    r = ideal.ngens
    bases = _bases(ideal)
    shared = {}
    diffs = tuple(
        _differential(ideal.ring, k, bases[k - 1], bases[k], shared) for k in range(1, r + 1)
    )
    return TaylorComplex(ideal, bases, diffs)


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
