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

The basis order is a block layout, and ``_layout`` is the one place that
knows it.  F_n is a run of blocks, one per |S| = k of the parity of n, k
ascending; block k holds each S of T_k in order, and for each S every u of
weight (n - k) / 2 in lex order.  The layout lists, for each (u, k), the
position of (u, S) in F_n for each S of T_k in order.  A map T_k -> T_k' with
entry (i, s) puts it at (rows[i], cols[s]), where cols lists the positions of
(u, k) in F_n and rows those of (u', k') in F_m: u' = u for tau, and
u' = u - e_j for sigma_j and for the phi.phi shift_j (the identity on T_k),
which skip each u with u_j = 0.  No cell is found by looking up a (u, S)
pair.

Composing two consecutive differentials gives sum_j a_j * shift_j on the
nose, where shift_j lowers u_j; over the quotient ring the a_j vanish, so
the assembled maps square to zero there.

A resolution stores no cell.  It is its system and its window: ``basis(n)``
is the layout's basis, and ``differential(n)`` assembles phi_n afresh on every
call, so each of its cells is the tau or sigma entry the layout puts there,
the very object the system holds, and nothing else can be.

``phi_squared_check`` proves that identity without multiplying phi matrices.
Each block of phi_n . phi_{n+1} is one of three sums: tau.tau (u kept),
tau.sigma_j + sigma_j.tau (u_j lowered; a_j exactly when identity (b)
holds), and sigma_i.sigma_j + sigma_j.sigma_i or sigma_i^2 (two lowerings;
zero when identity (c) holds).  Assembly places each entry by construction,
so every step is proved by the identities of the system: tau.tau = 0 on
each step, and every (b) and (c) identity.  These are the residuals
``verify_taylor`` and ``verify_homotopy_system`` report, kept by the complex
and the system, so a verify run multiplies each pair once, assembles no phi,
and one verdict serves every step.

The full product (``_phi_defect``) runs, at every step, only when some
identity fails, and reports the first failing cell in column order.  A
correct resolution never gets there.

For a length-one sequence the tail is 2-periodic from step r on (Eisenbud's
matrix factorizations), so the periodicity report follows from r and the
window alone, with no built matrices compared.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
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


def _lowered(u, j):
    """u - e_j, for 1 <= j <= len(u) and u_j >= 1."""
    return u[: j - 1] + (u[j - 1] - 1,) + u[j:]


def _layout(system, n):
    """The positions and the basis of F_n, ({(u, k): positions}, basis), built once per system.

    positions[s] is the index in F_n of (u, S_s), S_s the s-th subset of T_k and u
    of weight (n - k) / 2.  The basis runs |S| ascending, then S lexicographic,
    then u lexicographic, so positions step by the number of such u.
    """
    step = system._steps.get(n)
    if step is None:
        positions, basis = {}, []
        c, degrees = system.ci.codim, system.ci.degrees
        for k in range(n % 2, min(n, system.ideal.ngens) + 1, 2):
            us = _weights((n - k) // 2, c)
            subsets = system.complex.basis(k)
            end = len(basis) + len(subsets) * len(us)
            for x, u in enumerate(us):
                positions[(u, k)] = list(range(len(basis) + x, end, len(us)))
            shifted = [(u, sum(map(mul, u, degrees))) for u in us]
            for e_s in subsets:
                for u, d in shifted:
                    basis.append(BasisElement(u, e_s.indices, e_s.lcm, e_s.twist + d))
        step = system._steps[n] = (positions, tuple(basis))
    return step


def shamash_basis(system, n):
    """Basis of step n: |S| ascending, then S lexicographic, then u lexicographic."""
    return list(_layout(system, n)[1])


def shamash_differential(system, n):
    """The assembled map F_n -> F_{n-1}, n >= 1, labelled by the bases of the two steps.

    Each tau and sigma entry is placed by assignment, once per u, into a cell
    nothing else writes; every cell is read off the layout's positions.
    """
    row_at, rows = _layout(system, n - 1)
    col_at, cols = _layout(system, n)
    blocks = []  # (row positions, column positions, map) of each placed block
    for (u, k), col in col_at.items():
        if k:
            blocks.append((row_at[(u, k - 1)], col, system.sigma_zero(k)))
        for j in range(1, len(u) + 1):
            row = u[j - 1] and row_at.get((_lowered(u, j), k + 1))
            if row:  # none where u_j = 0, or at k = r: T_{r+1} = 0
                blocks.append((row, col, system.sigma_e(j, k)))
    entries = {
        (row[i], col[s]): p for row, col, mat in blocks for (i, s), p in mat.entries.items()
    }
    return LabeledGradedMatrix._trusted(system.ring, rows, cols, entries)


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


class ShamashResolution(namedtuple("ShamashResolution", "system max_step minimality periodicity")):
    """F_0..F_N over the system, N = max_step; it holds no basis and no cell of its own."""

    __slots__ = ()

    @property
    def bases(self):
        """F_0..F_N, the layout's own tuples."""
        return tuple(map(self.basis, range(self.max_step + 1)))

    @property
    def differentials(self):
        """phi_1..phi_N, each assembled as the iterator reaches it, so only its reader holds it."""
        return map(self.differential, range(1, self.max_step + 1))

    def basis(self, n):
        """F_n, 0 <= n <= max_step."""
        if not 0 <= n <= self.max_step:
            raise ValueError(f"no module at step {n}: steps run 0..{self.max_step}")
        return _layout(self.system, n)[1]

    def differential(self, n):
        """phi_n: F_n -> F_{n-1}, 1 <= n <= max_step, assembled afresh on every call."""
        if not 1 <= n <= self.max_step:
            raise ValueError(f"no differential at step {n}: steps run 1..{self.max_step}")
        return shamash_differential(self.system, n)

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
    """F_0..F_N with differentials phi_1..phi_N; each is built when it is read."""
    if max_step < 0:
        raise ValueError("max_step must be >= 0")
    return ShamashResolution(system, max_step, _minimality(system), _periodicity(system, max_step))


def _shift_positions(resolution, n, j):
    """(row, col) of each (u - e_j, S) <- (u, S) with u_j >= 1, from F_{n+1} to F_{n-1},
    in column order.
    """
    system = resolution.system
    row_at = _layout(system, n - 1)[0]
    pairs = (
        zip(row_at[(_lowered(u, j), k)], col)
        for (u, k), col in _layout(system, n + 1)[0].items()
        if u[j - 1]
    )
    return sorted(chain.from_iterable(pairs), key=itemgetter(1))


def _phi_defect(resolution, n):
    """phi_n . phi_{n+1} with a_j subtracted at each shift_j position."""
    pair = (resolution.differential(n), resolution.differential(n + 1))
    shifts = (
        (pos, a)
        for j, a in enumerate(resolution.system.ci.sequence, start=1)
        for pos in _shift_positions(resolution, n, j)
    )
    return defect([pair], shifts)


def _identities_hold(system):
    """tau_k . tau_{k+1} = 0 for 1 <= k < r and every (b) and (c) residual is zero: then
    phi_n . phi_{n+1} = sum_j a_j * shift_j at every step; see the module docstring."""
    squares = (system.complex.square(k) for k in range(1, system.ideal.ngens))
    return all(m.is_zero() for m in chain(squares, system.residuals()))


def phi_squared_check(resolution):
    """phi_n . phi_{n+1} = sum_j a_j * shift_j, exactly, for every window step.

    When every identity of the system holds, no phi matrix is built or
    multiplied; otherwise each step is reported from the full product, so a
    failure names the same first cell.
    """
    report = Report("phi.phi identity")
    proved = resolution.max_step > 1 and _identities_hold(resolution.system)
    for n in range(1, resolution.max_step):
        ok = f"phi_{n}.phi_{n + 1} = sum a_j shift_j"
        if proved:
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
    identities of the system, and by the full defect only when one fails.

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
    proved = _identities_hold(system)
    for n in (n0, n0 + 1):
        if not proved and not _phi_defect(resolution, n).is_zero():
            raise AssertionError(f"factorization identity fails at step {n}")
    return resolution.differential(n0), resolution.differential(n0 + 1)
