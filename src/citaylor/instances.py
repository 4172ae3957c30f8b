"""Randomized instances for the property tests.

Every generated sequence element is a sum of generator multiples of one
shared degree, so it is homogeneous and lies in the ideal by construction.
CITAYLOR_SEED overrides the seed used by the test helpers.
"""
from __future__ import annotations

import os
import random

from .homotopy import complete_intersection
from .poly import QQ, PolyRing
from .taylor import monomial_ideal

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
