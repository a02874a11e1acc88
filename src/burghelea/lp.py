"""Exact two-phase simplex over the rationals.

Solves   min c.x  subject to  A x = b, x >= 0   with Fraction arithmetic
throughout; Bland's rule guarantees termination on degenerate instances.
Every optimum is certified: the dual y is read off the artificial block of
the final tableau, and ``_certify`` checks x and y against the LP as given
(Applegate, Cook, Dash & Espinoza, ORL 2007).  A failed check raises
``CertificateError``; it never yields a value.
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
    basis = list(range(n, n + m))
    art_cost = [ZERO] * n + [Fraction(1)] * m

    status = _simplex(tab, basis, art_cost, allowed=n + m)
    if status == "unbounded":  # phase 1 is always bounded below by 0
        raise AssertionError("phase 1 cannot be unbounded")
    if _objective(tab, basis, art_cost) > 0:
        return LPResult("infeasible", None, None, None)

    _drive_out_artificials(tab, basis, n)
    # rows still basic in an artificial are zero rows: redundant constraints
    kept = [i for i in range(m) if basis[i] < n]
    tab = [tab[i] for i in kept]
    basis = [basis[i] for i in kept]

    status = _simplex(tab, basis, cost + [ZERO] * m, allowed=n)
    if status == "unbounded":
        return LPResult("unbounded", None, None, None)

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    # the artificial block holds the row operations applied to [A | b], so
    # y_k = sum_i c_{basis[i]} T[i][n+k]; negated rows flip back
    dual = []
    for k in range(m):
        y = sum((cost[bi] * tab[i][n + k] for i, bi in enumerate(basis) if cost[bi]), ZERO)
        dual.append(-y if negated[k] else y)
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


def _objective(tab, basis, cost) -> Fraction:
    return sum((cost[bi] * tab[i][-1] for i, bi in enumerate(basis)), ZERO)


def _simplex(tab, basis, cost, allowed: int) -> str:
    """Bland-rule simplex on the tableau; columns >= allowed never enter."""
    m = len(tab)
    while True:
        entering = None
        for j in range(allowed):
            if j in basis:
                continue
            r = cost[j] - sum((cost[basis[i]] * tab[i][j] for i in range(m)), ZERO)
            if r < 0:
                entering = j
                break
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
    piv = tab[i][j]
    tab[i] = [v / piv for v in tab[i]]
    row_i = tab[i]
    for r in range(len(tab)):
        if r != i and tab[r][j]:
            f = tab[r][j]
            tab[r] = [v - f * w for v, w in zip(tab[r], row_i)]
    basis[i] = j


def _drive_out_artificials(tab, basis, n: int) -> None:
    for i in range(len(basis)):
        if basis[i] >= n:
            j = next((jj for jj in range(n) if tab[i][jj]), None)
            if j is not None:
                _pivot(tab, basis, i, j)
