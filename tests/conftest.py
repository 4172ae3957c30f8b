"""Shared builders for the worked examples and the seeded random instances
used across the test modules.

Every generated sequence element is a sum of generator multiples of one
shared degree, so it is homogeneous and lies in the ideal by construction.
CITAYLOR_SEED overrides the seed used by ``seeded_rng``.
"""
import os
import random

import pytest

from citaylor import (
    GF,
    QQ,
    LabeledGradedMatrix,
    PolyRing,
    complete_intersection,
    homotopy_system,
    lift_matrix,
    monomial_ideal,
    shamash_resolution,
    taylor_complex,
)


def grid(mat):
    """Matrix entries as strings, row-major, zeros included."""
    nrows, ncols = mat.shape
    return [[str(mat.entry(i, j)) for j in range(ncols)] for i in range(nrows)]


def weighted_sum(matrices, weights):
    """sum of weight * matrix, entry by entry with Polynomial.scale and +, zeros dropped."""
    first = matrices[0]
    entries = {}
    for mat, w in zip(matrices, weights):
        assert mat.rows == first.rows and mat.cols == first.cols
        for pos, p in mat.entries.items():
            part = p.scale(w)
            entries[pos] = entries[pos] + part if pos in entries else part
    return LabeledGradedMatrix(first.ring, first.rows, first.cols, entries)


def ring(names, field=QQ):
    return PolyRing(tuple(names.split(",")), field)


# ---- seeded random instances ------------------------------------------------


VARIABLE_POOL = ("x", "y", "z", "w", "v")


def seeded_rng(default=20260816):
    return random.Random(int(os.environ.get("CITAYLOR_SEED", default)))


def _random_exponents(rng, nvars, degree):
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_ideal(rng, max_vars=4, max_gens=5, field=QQ):
    nvars = rng.randint(1, max_vars)
    ring = PolyRing(VARIABLE_POOL[:nvars], field)
    ngens = rng.randint(1, max_gens)
    gens = set()
    tries = 0
    while len(gens) < ngens:
        tries += 1
        degree = rng.randint(1, 3 if tries < 50 else 3 + tries // 50)
        gens.add(_random_exponents(rng, nvars, degree))
    ordered = sorted(gens)
    return monomial_ideal(ring, ordered)


def random_sequence(rng, ideal, codim):
    """Homogeneous elements of the ideal, one shared degree per element."""
    ring = ideal.ring
    out = []
    for _ in range(codim):
        while True:
            picks = [rng.randint(1, ideal.ngens) for _ in range(rng.randint(1, 3))]
            top = max(sum(ideal.generator(t)) for t in picks)
            degree = top + rng.randint(0, 2)
            total = ring.zero
            for t in picks:
                pad = _random_exponents(rng, ring.nvars, degree - sum(ideal.generator(t)))
                coeff = rng.choice([-3, -2, -1, 1, 2, 3])
                total = total + ring.term(
                    tuple(a + b for a, b in zip(ideal.generator(t), pad)), coeff
                )
            if not total.is_zero():
                out.append(total)
                break
    return out


def random_instance(rng, max_vars=4, max_gens=5, max_codim=2, field=QQ):
    """(ideal, complete intersection data) with everything in bounds."""
    ideal = random_ideal(rng, max_vars, max_gens, field)
    codim = rng.randint(1, max_codim)
    sequence = random_sequence(rng, ideal, codim)
    return ideal, complete_intersection(ideal, sequence)


def reference_sigma(system, i, k):
    """Entries of sigma_i: T_k -> T_{k+1} from the paper's formula, each S + t
    found by searching T_{k+1}:

        sigma_i(e_S) = sum_{t not in S} (-1)^(k - p - 1) * f_it * (m_t lcm(S) / lcm(S+t)) * e_{S+t}

    with p the position of t inside S + t.
    """
    ring, ideal = system.ring, system.ideal
    rows = system.complex.basis(k + 1)
    entries = {}
    for j, b in enumerate(system.complex.basis(k)):
        for t in range(1, ideal.ngens + 1):
            if t in b.indices:
                continue
            union = ideal.subset(sorted(b.indices + (t,)))
            quot = tuple(g + x - y for g, x, y in zip(ideal.generator(t), b.lcm, union.lcm))
            pos = union.indices.index(t) + 1
            poly = system.lift.entry(i, t) * ring.term(quot, -1 if (k - pos - 1) % 2 else 1)
            if poly:
                (row,) = [r for r, a in enumerate(rows) if a.indices == union.indices]
                entries[(row, j)] = poly
    return entries


# ---- the worked examples -------------------------------------------------


def build_three_squares(max_step=6):
    """k[x,y,z], I = <x^2,y^2,z^2>, a = x^2*z + x*y^2, lift (z, x, 0)."""
    R = ring("x,y,z")
    I = monomial_ideal(R, ["x^2", "y^2", "z^2"])
    ci = complete_intersection(I, ["x^2*z + x*y^2"])
    return shamash_resolution(homotopy_system(ci, "first"), max_step)


def build_squarefree_taylor():
    """The <xy, xz, yz> Taylor complex."""
    R = ring("x,y,z")
    return taylor_complex(monomial_ideal(R, ["x*y", "x*z", "y*z"]))


def build_monomial_c1(gen=1, max_step=6):
    """I = <xy,xz,yz>, a = xyz routed entirely through generator ``gen``."""
    R = ring("x,y,z")
    I = monomial_ideal(R, ["x*y", "x*z", "y*z"])
    ci = complete_intersection(I, ["x*y*z"])
    exps = (1, 1, 1)
    lift = lift_matrix(ci, [{exps: gen}])
    return shamash_resolution(homotopy_system(ci, lift=lift), max_step)


def build_poly_c1(max_step=6):
    """k[x,y], I = <x^2,y^2>, a = x^2*y + x*y^2, lift (y, x)."""
    R = ring("x,y")
    I = monomial_ideal(R, ["x^2", "y^2"])
    ci = complete_intersection(I, ["x^2*y + x*y^2"])
    return shamash_resolution(homotopy_system(ci, "first"), max_step)


def build_codim2(max_step=5):
    """k[x,y,z,w], I = squares, a = (x^3 + y^3, z^3 + w^3)."""
    R = ring("x,y,z,w")
    I = monomial_ideal(R, ["x^2", "y^2", "z^2", "w^2"])
    ci = complete_intersection(I, ["x^3 + y^3", "z^3 + w^3"])
    return shamash_resolution(homotopy_system(ci, "first"), max_step)


def build_hypersurface(max_step=5):
    """k[x1,x2], I = <x1^2,x2^2>, a = x1^5."""
    R = ring("x1,x2")
    I = monomial_ideal(R, ["x1^2", "x2^2"])
    ci = complete_intersection(I, ["x1^5"])
    return shamash_resolution(homotopy_system(ci, "first"), max_step)


def build_tate(max_step=6):
    """I = <x,y,z>, a = x^2 + y^2 + z^2: the Koszul complex as Taylor complex."""
    R = ring("x,y,z")
    I = monomial_ideal(R, ["x", "y", "z"])
    ci = complete_intersection(I, ["x^2 + y^2 + z^2"])
    return shamash_resolution(homotopy_system(ci, "first"), max_step)


@pytest.fixture(scope="session")
def three_squares():
    return build_three_squares()


@pytest.fixture(scope="session")
def poly_c1():
    return build_poly_c1()


@pytest.fixture(scope="session")
def codim2():
    return build_codim2()


@pytest.fixture(scope="session")
def ring_xyz():
    return ring("x,y,z")
