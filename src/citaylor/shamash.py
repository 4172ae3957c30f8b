"""Free resolution over the quotient by the sequence, assembled step by step.

Homological degree n is spanned by pairs (u, S): a divided-power multi-index
u over the sequence (an exponent tuple, y^(u) = y_1^(u_1) ... y_c^(u_c)) and
a subset S, with |S| + 2|u| = n (a ``BasisElement``).  The summand sits in internal
degree deg lcm(S) + sum_j u_j * deg a_j.  The differential applies the
Taylor differential to S (keeping u) and, for every j with u_j >= 1, the
homotopy sigma_j (lowering u_j by one); no extra signs.  So phi_n holds
each entry of tau_k once for every u of weight (n - k) / 2, and each entry of
sigma_j on T_k once for every such u with u_j >= 1.  No two of them land in
one cell: tau keeps u and shrinks S, while sigma_j lowers u_j and grows S.

The basis order is a block layout, and every position is read from it.  F_n
is a run of blocks, one per |S| = k of the parity of n, k ascending; block k
holds each S of T_k in order, and for each S every u of weight (n - k) / 2
in lex order.  Assembly places tau_k entry (i, j) at
(row offset + i * #u + x, col offset + j * #u + x) for the x-th u, and a
sigma_j entry through the index of u - e_j in the lowered block; the
positions of the phi.phi shifts come from the same offsets.  No cell is
found by looking up a (u, S) pair.

Composing two consecutive differentials gives sum_j a_j * shift_j on the
nose, where shift_j lowers u_j; over the quotient ring the a_j vanish, so
the assembled maps square to zero there.

For a length-one sequence the tail is 2-periodic from step r on (Eisenbud's
matrix factorizations), so the periodicity report follows from r and the
window alone, with no built matrices compared.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import mul

from .matrix import LabeledGradedMatrix, defect
from .poly import exponents_of_degree
from .report import Report
from .taylor import BasisElement


class NoStableTail(RuntimeError):
    """No shift-stable tail was found in the computed window."""


def _lowered(u, j):
    """u - e_j, 1-based; callers check u_j >= 1."""
    return u[: j - 1] + (u[j - 1] - 1,) + u[j:]


@lru_cache(maxsize=256)
def _weights(q, c):
    """Every u of weight q over c sequence elements, lex ascending."""
    return tuple(exponents_of_degree(c, q))[::-1]


def _layout(system, n):
    """The blocks of F_n in basis order, {k: (offset, us)}, and rank F_n.

    Block k holds the pairs (u, S) with |S| = k and u of weight (n - k) / 2,
    S-major: (u, S) sits at offset + (index of S in T_k) * len(us) + (index of u).
    """
    blocks = {}
    offset = 0
    if n >= 0:
        c = system.ci.codim
        for k in range(n % 2, min(n, system.ideal.ngens) + 1, 2):
            us = _weights((n - k) // 2, c)
            blocks[k] = (offset, us)
            offset += len(system.complex.basis(k)) * len(us)
    return blocks, offset


def shamash_basis(system, n):
    """Basis of step n: |S| ascending, then S lexicographic, then u lexicographic."""
    degrees = system.ci.degrees
    out = []
    for k, (_, us) in _layout(system, n)[0].items():
        shifted = [(u, sum(map(mul, u, degrees))) for u in us]
        for e_s in system.complex.basis(k):
            for u, d in shifted:
                out.append(BasisElement(u, e_s.indices, e_s.lcm, e_s.twist + d))
    return out


def _lowered_positions(us, lowered_us, i):
    """(index of u - e_i in lowered_us, index of u in us) for each u with u_i >= 1."""
    at = {u: x for x, u in enumerate(lowered_us)}
    return [(at[_lowered(u, i)], x) for x, u in enumerate(us) if u[i - 1] >= 1]


def shamash_differential(system, n, rows, cols):
    """The assembled map F_n -> F_{n-1}, n >= 1, with rows = shamash_basis(system, n - 1)
    and cols = shamash_basis(system, n).

    Each tau and sigma entry is placed by assignment, once per u, into a cell
    nothing else writes; every cell is found from the block offsets.
    """
    row_blocks, nrows = _layout(system, n - 1)
    col_blocks, ncols = _layout(system, n)
    if (len(rows), len(cols)) != (nrows, ncols):
        raise ValueError(
            f"phi_{n} needs {nrows} rows and {ncols} columns, got {len(rows)} and {len(cols)}"
        )
    entries = {}
    for k, (col_off, us) in col_blocks.items():
        m = len(us)
        if k >= 1:
            row_off = row_blocks[k - 1][0]
            for (i, j), p in system.sigma_zero(k).entries.items():
                row, col = row_off + i * m, col_off + j * m
                for x in range(m):
                    entries[(row + x, col + x)] = p
        if k == n:
            continue
        for i in range(1, system.ci.codim + 1):
            sigma = system.sigma_e(i, k)
            if not sigma.entries:  # T_{k+1} = 0 at k = r: no lowered block
                continue
            row_off, lowered_us = row_blocks[k + 1]
            lm = len(lowered_us)
            shifts = _lowered_positions(us, lowered_us, i)
            for (ri, j), p in sigma.entries.items():
                row, col = row_off + ri * lm, col_off + j * m
                for lx, x in shifts:
                    entries[(row + lx, col + x)] = p
    return LabeledGradedMatrix(system.ring, rows, cols, entries)


@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    unit_taylor_entries: tuple
    constant_lift_entries: tuple

    def describe(self):
        lines = []
        for k, row, col, entry in self.unit_taylor_entries:
            lines.append(f"tau_{k} entry ({row} <- {col}) = {entry} is a unit")
        for i, t, coeff in self.constant_lift_entries:
            lines.append(f"lift entry f[{i},{t}] has constant term {coeff}")
        if not lines:
            lines.append("all differential entries lie in the maximal ideal")
        return lines


@dataclass(frozen=True)
class PeriodicityInfo:
    status: str  # "periodic" | "none" | "not-applicable"
    start: int | None = None


@dataclass(frozen=True)
class ShamashResolution:
    system: object
    bases: tuple
    differentials: tuple
    minimality: MinimalityReport
    periodicity: PeriodicityInfo

    @property
    def max_step(self):
        """N, the last step: F_0..F_N are built."""
        return len(self.bases) - 1

    def basis(self, n):
        """F_n, 0 <= n <= max_step."""
        if not 0 <= n <= self.max_step:
            raise ValueError(f"no module at step {n}: steps run 0..{self.max_step}")
        return self.bases[n]

    def differential(self, n):
        """phi_n: F_n -> F_{n-1}, 1 <= n <= max_step."""
        if not 1 <= n <= self.max_step:
            raise ValueError(f"no differential at step {n}: steps run 1..{self.max_step}")
        return self.differentials[n - 1]

    def rank(self, n):
        return len(self.basis(n))


def _minimality(system):
    """Minimal iff no Taylor entry is a unit and no lift entry has a constant term.

    The tau_k share a few entry objects across many cells, so each distinct
    entry is tested once; cells are sorted only when a unit exists.
    """
    units = []
    r = system.ideal.ngens
    for k in range(1, r + 1):
        tau = system.sigma_zero(k)
        distinct = {id(p): p for p in tau.entries.values()}
        unit_ids = {key for key, p in distinct.items() if p.total_degree() == 0}
        if unit_ids:
            for (i, j), p in sorted(tau.entries.items()):
                if id(p) in unit_ids:
                    units.append((k, tau.rows[i], tau.cols[j], p))
    constants = []
    for i, row in enumerate(system.lift.rows, start=1):
        for t, f in enumerate(row, start=1):
            const = f.constant_term()
            if const:
                constants.append((i, t, const))
    return MinimalityReport(not units and not constants, tuple(units), tuple(constants))


def _periodicity(system, max_step):
    """For a length-one sequence, phi_{n+2} = phi_n under (u, S) -> (u + 1, S) from n = r on.

    Below r, F_{n+1} has C(r, n+1) more summands than F_{n-1}, so no shift
    matches.  From r on, every subset size of the right parity is present in
    both F_n and F_{n+2}, the shift maps each basis onto the next in order,
    and phi places every tau and sigma entry by S alone.  The tail shows in
    the window once phi_{r+2} is computed.
    """
    if system.ci.codim != 1:
        return PeriodicityInfo("not-applicable")
    r = system.ideal.ngens
    if max_step < r + 2:
        return PeriodicityInfo("none")
    return PeriodicityInfo("periodic", r)


def shamash_resolution(system, max_step):
    """Assemble F_0..F_N with differentials phi_1..phi_N."""
    if max_step < 0:
        raise ValueError("max_step must be >= 0")
    bases = tuple(tuple(shamash_basis(system, n)) for n in range(max_step + 1))
    diffs = tuple(
        shamash_differential(system, n, bases[n - 1], bases[n])
        for n in range(1, max_step + 1)
    )
    return ShamashResolution(
        system,
        bases,
        diffs,
        _minimality(system),
        _periodicity(system, max_step),
    )


def _shift_positions(resolution, n, j):
    """(row, col) of each (u - e_j, S) <- (u, S) with u_j >= 1, from F_{n+1} to F_{n-1},
    in column order.
    """
    system = resolution.system
    row_blocks = _layout(system, n - 1)[0]
    for k, (col_off, us) in _layout(system, n + 1)[0].items():
        if k == n + 1:  # u = 0 only, and F_{n-1} has no block n + 1
            continue
        row_off, lowered_us = row_blocks[k]
        m, lm = len(us), len(lowered_us)
        shifts = _lowered_positions(us, lowered_us, j)
        for s in range(len(system.complex.basis(k))):
            row, col = row_off + s * lm, col_off + s * m
            for lx, x in shifts:
                yield row + lx, col + x


def _phi_defect(resolution, n):
    """phi_n . phi_{n+1} with a_j subtracted at each shift_j position."""
    pair = (resolution.differential(n), resolution.differential(n + 1))
    shifts = (
        (pos, a)
        for j, a in enumerate(resolution.system.ci.sequence, start=1)
        for pos in _shift_positions(resolution, n, j)
    )
    return defect([pair], shifts)


def phi_squared_check(resolution):
    """phi_n . phi_{n+1} = sum_j a_j * shift_j, exactly, for every window step."""
    report = Report("phi.phi identity")
    for n in range(1, resolution.max_step):
        report.check(
            _phi_defect(resolution, n),
            f"phi_{n}.phi_{n + 1} = sum a_j shift_j",
            f"phi_{n}.phi_{n + 1} defect at ({{row}}, {{col}}): {{entry}}",
        )
    if resolution.max_step < 2:
        report.note("window too short for composites, vacuous")
    return report


def rank_formula(r, c, n):
    """Closed-form rank of F_n: sum over |S| = n - 2q of C(r,|S|) * #(u of weight q)."""
    if r < 1 or c < 1:
        raise ValueError(
            f"rank formula needs r >= 1 generators and c >= 1 sequence elements (got r={r}, c={c})"
        )
    if n < 0:
        return 0
    m, parity = divmod(n, 2)
    total = 0
    for j in range(m + 1):
        k = 2 * j + parity
        total += comb(r, k) * comb(c + (m - j) - 1, c - 1)
    return total


def matrix_factorization(resolution):
    """The stable pair (A, B) = (phi_n0, phi_n0+1); asserts AB = BA = a * id.

    Each product is checked through the same defect as phi_squared_check.

    Only defined for a length-one sequence with a periodic tail inside the
    computed window.
    """
    system = resolution.system
    if system.ci.codim != 1:
        raise NoStableTail("matrix factorizations need a length-one sequence")
    info = resolution.periodicity
    if info.status != "periodic":
        raise NoStableTail(f"no shift-stable tail through step {resolution.max_step}")
    n0 = info.start
    for n in (n0, n0 + 1):
        if not _phi_defect(resolution, n).is_zero():
            raise AssertionError(f"factorization identity fails at step {n}")
    return resolution.differential(n0), resolution.differential(n0 + 1)
