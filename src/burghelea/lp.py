"""Exact two-phase simplex over the rationals.

Solves   min c.x  subject to  A x = b, x >= 0   with Fraction arithmetic
throughout; Bland's rule guarantees termination on degenerate instances.
The tableau is [A | I | rhs] with two objective rows below it, the phase-2
costs and the phase-1 costs reduced against the artificial basis; they
pivot with the constraints, so the last row always holds the reduced costs
that price the entering column.  A pivot updates the rows in place, and
only on the columns where the pivot row is nonzero; the tableau rows are
fresh lists, so the LP as given is never touched.  Every optimum is
certified: the dual y is read off the artificial block of the phase-2 row,
and ``_certify`` checks x and y against the LP as given (Applegate, Cook,
Dash & Espinoza, ORL 2007).
A failed check raises ``CertificateError``; it never yields a value.
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


def solve_min_lp(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    m = len(A)
    n = len(c)
    cost = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged constraint matrix")
    # tableau [A | I | rhs] with rows negated where rhs < 0, so the
    # artificial basis (columns n..n+m-1) is feasible
    negated = [v < 0 for v in rhs]
    tab = [([-v for v in rows[i]] if negated[i] else rows[i])
           + [Fraction(1) if j == i else ZERO for j in range(m)] + [abs(rhs[i])]
           for i in range(m)]
    # below it the phase-2 row [c | 0 | 0] and the phase-1 row: the sum of
    # the artificials, reduced against their basis, is minus the column sums
    phase1 = ([-sum((row[j] for row in tab), ZERO) for j in range(n)] + [ZERO] * m
              + [-sum((row[-1] for row in tab), ZERO)])
    tab += [cost + [ZERO] * (m + 1), phase1]
    basis = list(range(n, n + m))

    status = _simplex(tab, basis, allowed=n + m)
    if status == "unbounded":  # phase 1 is always bounded below by 0
        raise AssertionError("phase 1 cannot be unbounded")
    if tab.pop()[-1]:
        return LPResult("infeasible", None, None, None)

    # a row whose artificial stays basic is zero on columns < n: a redundant
    # constraint, which never takes part in a ratio test
    _drive_out_artificials(tab, basis, n)
    status = _simplex(tab, basis, allowed=n)
    if status == "unbounded":
        return LPResult("unbounded", None, None, None)

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    # the phase-2 row holds c - c_B B^-1 [A | I], so its artificial block is
    # -y for the rows as normalized; negated rows flip back
    dual = [v if neg else -v for v, neg in zip(tab[-1][n:n + m], negated)]
    _certify(cost, rows, rhs, x, dual)
    return LPResult("optimal", sum((cost[j] * x[j] for j in range(n)), ZERO), x, dual)


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
