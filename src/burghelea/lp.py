"""Exact simplex over the rationals, warm-started across right-hand sides.

Solves   min c.x  subject to  A x = b, x >= 0   with Fraction arithmetic
throughout.  ``MinLP(c, A)`` converts c and A once and solves for any b.

The cold path (a first solve, or one after a solve that kept no optimum)
runs two phases from the artificial basis by Bland's rule on the tableau
[DA | I | Db], D the row signs that make Db >= 0, with the phase-2 and the
phase-1 cost rows below it; they pivot with the constraints, in place and
only on the pivot row's nonzeros.  Tableau rows are fresh lists, so the LP
as given is never touched.  An optimal basis stays dual feasible for every
b, so the warm path sets rhs = B^-1 D b from the kept artificial block and
repairs primal feasibility by a dual simplex (Koberstein, PhD thesis, 2005).

``solve_min_lp(c, A, b)`` reuses the ``MinLP`` of its previous call when c
and A are equal by value, so a run of many LPs on one matrix pays for one
cold solve.

Every verdict is certified against the LP as given (Applegate, Cook, Dash &
Espinoza, ORL 2007): an optimum by its dual y, read off the phase-2 row
(``_certify``); infeasibility by a Farkas y with y^T A >= 0 and y.b < 0,
read off the phase-1 row when cold and off the failing row of B^-1 D when
warm (``_certify_infeasible``).  A failed check raises
``CertificateError``; it never yields a verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CertificateError

ZERO = Fraction(0)


@dataclass
class LPResult:
    status: str                     # optimal | infeasible | unbounded
    value: Optional[Fraction]
    x: Optional[list[Fraction]]
    dual: Optional[list[Fraction]]  # y for the rows as given


class MinLP:
    """min c.x subject to A x = b, x >= 0 for one c and A and any b; keeps
    the last optimal tableau, its basis and its row signs D."""

    def __init__(self, c: Sequence, A: Sequence[Sequence]):
        self.cost = [Fraction(v) for v in c]
        self.rows = [[Fraction(v) for v in row] for row in A]
        if any(len(row) != len(self.cost) for row in self.rows):
            raise ValueError("ragged constraint matrix")
        self._tab: Optional[list[list[Fraction]]] = None

    def solve(self, b: Sequence) -> LPResult:
        rhs = [Fraction(v) for v in b]
        status = self._cold(rhs) if self._tab is None else self._warm(rhs)
        if status != "optimal":
            return LPResult(status, None, None, None)
        n, tab = len(self.cost), self._tab
        x = [ZERO] * n
        for i, bi in enumerate(self._basis):
            if bi < n:
                x[bi] = tab[i][-1]
        # the phase-2 row's artificial block is -c_B B^-1 = -D y
        dual = [-v for v in _signed(tab[-1][n:-1], self._negated)]
        _certify(self.cost, self.rows, rhs, x, dual)
        return LPResult("optimal", sum((self.cost[j] * x[j] for j in range(n)), ZERO),
                        x, dual)

    def _cold(self, b: list[Fraction]) -> str:
        """Phases 1 and 2 from the artificial basis; keeps an optimal tableau."""
        m, n = len(self.rows), len(self.cost)
        negated = [v < 0 for v in b]
        tab = [([-v for v in self.rows[i]] if negated[i] else self.rows[i])
               + [Fraction(1) if j == i else ZERO for j in range(m)] + [abs(b[i])]
               for i in range(m)]
        # below it the phase-2 row [c | 0 | 0] and the phase-1 row: the sum of
        # the artificials, reduced against their basis, is minus the column sums
        phase1 = ([-sum((row[j] for row in tab), ZERO) for j in range(n)] + [ZERO] * m
                  + [-sum((row[-1] for row in tab), ZERO)])
        tab += [self.cost + [ZERO] * (m + 1), phase1]
        basis = list(range(n, n + m))

        if _simplex(tab, basis, allowed=n + m) == "unbounded":  # bounded below by 0
            raise AssertionError("phase 1 cannot be unbounded")
        phase1 = tab.pop()
        if phase1[-1]:
            # the row is [-pi DA | 1 - pi | -pi D b] with -pi DA >= 0 and
            # pi D b > 0, so y = -D pi is a Farkas certificate
            _certify_infeasible(self.rows, b, _signed([v - 1 for v in phase1[n:-1]], negated))
            return "infeasible"
        # a row whose artificial stays basic is zero on columns < n: a redundant
        # constraint, which never takes part in a ratio test
        _drive_out_artificials(tab, basis, n)
        if _simplex(tab, basis, allowed=n) == "unbounded":
            return "unbounded"
        self._tab, self._basis, self._negated = tab, basis, negated
        return "optimal"

    def _warm(self, b: list[Fraction]) -> str:
        """rhs = B^-1 D b from the kept tableau, then the dual simplex."""
        tab, basis, n = self._tab, self._basis, len(self.cost)
        signed = _signed(b, self._negated)
        for row in tab:  # on the phase-2 row this is -c_B B^-1 D b
            row[-1] = sum((w * s for w, s in zip(row[n:-1], signed) if w), ZERO)
        # a basic artificial sits on a row that is zero on columns < n
        failed = next((i for i, bi in enumerate(basis) if bi >= n and tab[i][-1]), None)
        if failed is None:
            failed = _dual_simplex(tab, basis, n)
            if failed is None:
                return "optimal"
        # that row of B^-1 D, signed so that y.b < 0, is a Farkas certificate
        row = tab[failed]
        y = _signed(row[n:-1], self._negated)
        _certify_infeasible(self.rows, b, [-v for v in y] if row[-1] > 0 else y)
        return "infeasible"


_last: Optional[tuple[tuple[list, list[list]], MinLP]] = None


def solve_min_lp(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    """min c.x subject to A x = b, x >= 0; warm from the previous call's
    ``MinLP`` when c and A are equal by value to its c and A."""
    global _last
    given = (list(c), [list(row) for row in A])
    if _last is None or _last[0] != given:
        _last = (given, MinLP(c, A))
    return _last[1].solve(b)


def _signed(vec, negated):
    return [-v if neg else v for v, neg in zip(vec, negated)]


def _certify(c, A, b, x, y) -> None:
    """Check x >= 0, A x = b, c - A^T y >= 0 and c.x = b.y.  By weak duality
    any y that passes proves x optimal, whatever produced it."""
    if any(v < 0 for v in x):
        raise CertificateError("LP certificate failed: x has a negative entry")
    support = [(j, v) for j, v in enumerate(x) if v]
    for row, bi in zip(A, b):
        if sum((row[j] * v for j, v in support), ZERO) != bi:
            raise CertificateError("LP certificate failed: A x != b")
    reduced = list(c)
    for row, yi in zip(A, y):
        if yi:
            for j, a in enumerate(row):
                if a:
                    reduced[j] -= yi * a
    if any(r < 0 for r in reduced):
        raise CertificateError("LP certificate failed: c - A^T y has a negative entry")
    if (sum((c[j] * v for j, v in support), ZERO)
            != sum((bi * yi for bi, yi in zip(b, y) if yi), ZERO)):
        raise CertificateError("LP certificate failed: c.x != b.y")


def _certify_infeasible(A, b, y) -> None:
    """Check y.b < 0 and y^T A >= 0 (Farkas): then no x >= 0 has A x = b."""
    if sum((bi * yi for bi, yi in zip(b, y)), ZERO) >= 0:
        raise CertificateError("LP certificate failed: Farkas y.b is not negative")
    used = [(row, yi) for row, yi in zip(A, y) if yi]
    if any(sum((yi * row[j] for row, yi in used), ZERO) < 0 for j in range(len(used[0][0]))):
        raise CertificateError("LP certificate failed: Farkas y^T A has a negative entry")


def _simplex(tab, basis, allowed: int) -> str:
    """Bland-rule simplex on the tableau; the constraint rows are the first
    len(basis), the last row holds the reduced costs, and columns >= allowed
    never enter."""
    m = len(basis)
    costs = tab[-1]
    while True:
        entering = next((j for j in range(allowed) if costs[j] < 0), None)
        if entering is None:
            return "optimal"
        leaving = None
        best: Optional[Fraction] = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return "unbounded"
        _pivot(tab, basis, leaving, entering)


def _dual_simplex(tab, basis, n: int) -> Optional[int]:
    """Dual simplex on a dual-feasible tableau by Bland's rule for the dual:
    the leaving row has the smallest basis index among negative rhs; the
    entering column j < n, among the row's negative entries a_j, has the
    least reduced cost over -a_j, ties to the smallest j.  Returns None at an
    optimum, or a negative-rhs row with no negative entry: b is infeasible."""
    while True:
        negative = [i for i in range(len(basis)) if tab[i][-1] < 0]
        if not negative:
            return None
        i = min(negative, key=basis.__getitem__)
        ratios = [(tab[-1][j] / -a, j) for j, a in enumerate(tab[i][:n]) if a < 0]
        if not ratios:
            return i
        _pivot(tab, basis, i, min(ratios)[1])


def _pivot(tab, basis, i: int, j: int) -> None:
    """Pivot on (i, j) in place.  Only the columns where the pivot row is
    nonzero change: elsewhere v - f*0 = v."""
    row_i = tab[i]
    piv = row_i[j]
    support = [c for c, w in enumerate(row_i) if w]
    if piv != 1:
        for c in support:
            row_i[c] /= piv
    pairs = [(c, row_i[c]) for c in support]
    for r, row in enumerate(tab):
        f = row[j]
        if f and r != i:
            for c, w in pairs:
                row[c] -= f * w
    basis[i] = j


def _drive_out_artificials(tab, basis, n: int) -> None:
    for i in range(len(basis)):
        if basis[i] >= n:
            j = next((jj for jj in range(n) if tab[i][jj]), None)
            if j is not None:
                _pivot(tab, basis, i, j)
