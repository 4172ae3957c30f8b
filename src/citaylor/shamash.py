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
in lex order.  One rule, ``_place``, puts every block's cells: a map T_k -> T_k'
with entry (i, s) sends column (u, s) of block k of F_n, at
col offset + s * #u + (index of u), to row (u', i) of block k' of F_m, with
u' = u for tau and u' = u - e_j for sigma_j and for the phi.phi shift_j
(the identity on T_k), which skip each u with u_j = 0.  No cell is found by
looking up a (u, S) pair.

Composing two consecutive differentials gives sum_j a_j * shift_j on the
nose, where shift_j lowers u_j; over the quotient ring the a_j vanish, so
the assembled maps square to zero there.

``phi_squared_check`` proves that identity without multiplying phi matrices.
Each block of phi_n . phi_{n+1} is one of three sums: tau.tau (u kept),
tau.sigma_j + sigma_j.tau (u_j lowered; a_j exactly when identity (b)
holds), and sigma_i.sigma_j + sigma_j.sigma_i or sigma_i^2 (two lowerings;
zero when identity (c) holds).  So step n is proved by two checks:

- placement, by labels: the labels of phi_n and phi_{n+1} equal
  ``shamash_basis`` of their step, field for field, so the shift_j cells sit
  where the full defect puts them, and every nonzero cell (u', S') <- (u, S)
  is the tau_k entry its labels call for (u' = u, |S'| = |S| - 1) or the
  sigma_j entry (u' = u - e_j, |S'| = |S| + 1), the very object or an equal
  one, and the cells number exactly as many as those entries;
- every identity of the system: tau.tau = 0 on each step, and every (b) and
  (c) identity.  Together they give the three sums above for every block, at
  every step.  These are the residuals ``verify_taylor`` and
  ``verify_homotopy_system`` report, kept by the complex and the system, so a
  verify run multiplies each pair once, and one verdict serves every step.

The full product (``_phi_defect``) runs only at a step the certificate does
not prove, and reports the first failing cell in column order.  A correct
resolution never gets there.

For a length-one sequence the tail is 2-periodic from step r on (Eisenbud's
matrix factorizations), so the periodicity report follows from r and the
window alone, with no built matrices compared.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import chain
from math import comb
from operator import itemgetter, mul

from .matrix import LabeledGradedMatrix, defect
from .poly import exponents_of_degree
from .report import Report
from .taylor import BasisElement


class NoStableTail(RuntimeError):
    """No shift-stable tail was found in the computed window."""


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


def _place(cells, source, target, j):
    """Put a map T_k -> T_k' into phi: cells are its ((i, s), value) entries,
    source = (offset, us) is block k of F_n and target block k' of F_m.

    Column (u, s) lands in row (u, i) when j = 0, and in row (u - e_j, i)
    when j >= 1 and u_j >= 1.  Returns {(row, col): value} from one dict
    comprehension, u by u in lex order; each position is block arithmetic.
    """
    (col_off, us), (row_off, target_us) = source, target
    if j:
        at = {u: x for x, u in enumerate(target_us)}
        shifts = [
            (at[u[: j - 1] + (u[j - 1] - 1,) + u[j:]], x) for x, u in enumerate(us) if u[j - 1]
        ]
    else:
        shifts = [(x, x) for x in range(len(us))]
    m, lm = len(us), len(target_us)
    return {
        (row_off + lx + i * lm, col_off + x + s * m): value
        for lx, x in shifts
        for (i, s), value in cells
    }


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
    for k, block in col_blocks.items():
        if k - 1 in row_blocks:
            tau = system.sigma_zero(k).entries.items()
            entries.update(_place(tau, block, row_blocks[k - 1], 0))
        if k + 1 in row_blocks:  # none at k = n (u = 0 only) or k = r (T_{r+1} = 0)
            for j in range(1, system.ci.codim + 1):
                sigma = system.sigma_e(j, k).entries.items()
                entries.update(_place(sigma, block, row_blocks[k + 1], j))
    return LabeledGradedMatrix(system.ring, rows, cols, entries)


class MinimalityReport(
    namedtuple("MinimalityReport", "minimal unit_taylor_entries constant_lift_entries")
):
    __slots__ = ()

    def describe(self):
        lines = []
        for k, row, col, entry in self.unit_taylor_entries:
            lines.append(f"tau_{k} entry ({row} <- {col}) = {entry} is a unit")
        for i, t, coeff in self.constant_lift_entries:
            lines.append(f"lift entry f[{i},{t}] has constant term {coeff}")
        if not lines:
            lines.append("all differential entries lie in the maximal ideal")
        return lines


# status is "periodic" (from step start), "none" or "not-applicable"
PeriodicityInfo = namedtuple("PeriodicityInfo", "status start", defaults=(None,))


class ShamashResolution(
    namedtuple("ShamashResolution", "system bases differentials minimality periodicity")
):
    __slots__ = ()

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
    for k, block in _layout(system, n + 1)[0].items():
        if k in row_blocks:  # F_{n-1} has no block n + 1
            identity = [((s, s), None) for s in range(len(system.complex.basis(k)))]
            yield from sorted(_place(identity, block, row_blocks[k], j), key=itemgetter(1))


def _phi_defect(resolution, n):
    """phi_n . phi_{n+1} with a_j subtracted at each shift_j position."""
    pair = (resolution.differential(n), resolution.differential(n + 1))
    shifts = (
        (pos, a)
        for j, a in enumerate(resolution.system.ci.sequence, start=1)
        for pos in _shift_positions(resolution, n, j)
    )
    return defect([pair], shifts)


class _PhiCertificate:
    """Proves phi_n . phi_{n+1} = sum_j a_j * shift_j without multiplying phi matrices.

    ``holds(n)`` is True when both phi_n and phi_{n+1} pass the placement
    certificate and every identity of the system holds; see the module
    docstring.  False proves nothing: the caller then computes _phi_defect.
    """

    def __init__(self, resolution):
        self.resolution = resolution
        self.system = resolution.system
        self._blocks = {}  # n -> (basis of F_n last compared, its blocks or None)
        self._placed = {}  # n -> placement verdict of phi_n

    def blocks(self, basis, n):
        """{(u, k): [position of (u, S) for each S of T_k in order]} read off the labels of F_n.

        None unless basis is shamash_basis(system, n), field for field: the one
        basis of step n, in the order shift_j positions are computed in.  The
        verdict is kept with the basis object it was reached for, so F_n, the
        columns of phi_n and the rows of phi_{n+1}, is compared once; another
        object for step n is compared again.
        """
        kept = self._blocks.get(n)
        if kept is None or kept[0] is not basis:
            blocks = None
            if basis == tuple(shamash_basis(self.system, n)):
                blocks = {}
                for pos, b in enumerate(basis):
                    blocks.setdefault((b.u, len(b.indices)), []).append(pos)
            kept = self._blocks[n] = (basis, blocks)
        return kept[1]

    def placed(self, n):
        """Every nonzero cell of phi_n is the entry its labels call for, and no entry is missing.

        Column (u, S) with |S| = k holds tau_k's entry (S', S) at row (u, S')
        and sigma_j's entry on T_k at row (u - e_j, S') for each u_j >= 1; no
        two of them share a cell, so phi_n is exactly these when each is found
        and the counts agree.
        """
        if n not in self._placed:
            self._placed[n] = self._placement(n)
        return self._placed[n]

    def _placement(self, n):
        system = self.system
        phi = self.resolution.differential(n)
        rows, cols = self.blocks(phi.rows, n - 1), self.blocks(phi.cols, n)
        if rows is None or cols is None or phi.ring != system.ring:
            return False
        get = phi.entries.get
        count = 0
        for (u, k), col_at in cols.items():
            maps = [((u, k - 1), system.sigma_zero(k))] if k else []
            for j, uj in enumerate(u):
                if uj:
                    lowered = u[:j] + (uj - 1,) + u[j + 1:]
                    maps.append(((lowered, k + 1), system.sigma_e(j + 1, k)))
            for block, mat in maps:
                row_at = rows.get(block)
                if row_at is None:
                    if mat.entries:
                        return False
                    continue
                for (i, s), p in mat.entries.items():
                    q = get((row_at[i], col_at[s]))
                    if q is not p and q != p:
                        return False
                count += len(mat.entries)
        return count == len(phi.entries)

    def holds(self, n):
        """phi_n . phi_{n+1} = sum_j a_j * shift_j is proved, 1 <= n < max_step: both maps
        are placed, so they share the one F_n, and every identity of the system holds."""
        return self.placed(n) and self.placed(n + 1) and self._identities_hold

    @cached_property
    def _identities_hold(self):
        """tau_k . tau_{k+1} = 0 for 1 <= k < r and every (b) and (c) residual is zero."""
        system = self.system
        squares = (system.complex.square(k) for k in range(1, system.ideal.ngens))
        return all(m.is_zero() for m in chain(squares, system.residuals()))


def phi_squared_check(resolution):
    """phi_n . phi_{n+1} = sum_j a_j * shift_j, exactly, for every window step.

    A step the certificate proves multiplies no phi matrix; any other step is
    reported from the full product, so a failure names the same first cell.
    """
    report = Report("phi.phi identity")
    certificate = _PhiCertificate(resolution)
    for n in range(1, resolution.max_step):
        ok = f"phi_{n}.phi_{n + 1} = sum a_j shift_j"
        if certificate.holds(n):
            report.note(ok)
        else:
            failure = f"phi_{n}.phi_{n + 1} defect at ({{row}}, {{col}}): {{entry}}"
            report.check(_phi_defect(resolution, n), ok, failure)
    if resolution.max_step < 2:
        report.note("window too short for composites, vacuous")
    return report


def rank_formula(r, c, n):
    """Closed-form rank of F_n: sum over |S| = n - 2q of C(r,|S|) * #(u of weight q)."""
    if r < 1 or c < 1:
        raise ValueError(
            f"rank formula needs r >= 1 generators and c >= 1 sequence elements (got r={r}, c={c})"
        )
    m, parity = divmod(n, 2)
    total = 0
    for j in range(m + 1):
        k = 2 * j + parity
        total += comb(r, k) * comb(c + (m - j) - 1, c - 1)
    return total


def matrix_factorization(resolution):
    """The stable pair (A, B) = (phi_n0, phi_n0+1); asserts AB = BA = a * id.

    Each product is checked as phi_squared_check checks it: by the
    certificate, and by the full defect only when that fails.

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
    certificate = _PhiCertificate(resolution)
    for n in (n0, n0 + 1):
        if not certificate.holds(n) and not _phi_defect(resolution, n).is_zero():
            raise AssertionError(f"factorization identity fails at step {n}")
    return resolution.differential(n0), resolution.differential(n0 + 1)
