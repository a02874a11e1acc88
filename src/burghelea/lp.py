"""Exact dual simplex over the rationals, one tableau for every right-hand side.

Solves   min c.x  subject to  A x = b, x >= 0   with Fraction arithmetic
throughout, for c >= 0 (every caller minimises a weighted l1 norm).
``MinLP(c, A)`` builds the tableau [A | I | rhs] over the cost row
[c | 0 | 0] once, on the artificial basis.  With c >= 0 that basis is dual
feasible, and a dual feasible basis stays so for every b.  So each solve,
the first included, sets rhs = B^-1 b from the artificial block and runs
one dual simplex (Koberstein, PhD thesis, 2005) by Bland's rule.  An
artificial is fixed at 0: it never enters, and a basic one with a nonzero
rhs is infeasible like a negative rhs.  Rows pivot in place and only on the
pivot row's nonzeros; tableau rows are fresh lists, so the LP as given is
never touched.

``solve_min_lp(c, A, b)`` reuses the ``MinLP`` of its previous call when c
and A are equal by value, so a run of many LPs on one matrix builds one
tableau.

Every verdict is certified against the LP as given (Applegate, Cook, Dash &
Espinoza, ORL 2007): an optimum by its dual y, read off the cost row
(``_certify``); infeasibility by a Farkas y with y^T A >= 0 and y.b < 0,
the failing row of B^-1 (``_certify_infeasible``).  A failed check raises
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
    status: str                     # optimal | infeasible
    value: Optional[Fraction]
    x: Optional[list[Fraction]]
    dual: Optional[list[Fraction]]  # y for the rows as given


class MinLP:
    """min c.x subject to A x = b, x >= 0 for one c >= 0 and A and any b;
    keeps the tableau and its basis from one solve to the next."""

    def __init__(self, c: Sequence, A: Sequence[Sequence]):
        self.cost = [Fraction(v) for v in c]
        self.rows = [[Fraction(v) for v in row] for row in A]
        if any(len(row) != len(self.cost) for row in self.rows):
            raise ValueError("ragged constraint matrix")
        if any(v < 0 for v in self.cost):
            raise ValueError("negative cost: the artificial basis is not dual feasible")
        m = len(self.rows)
        self._tab = [row + [Fraction(1) if j == i else ZERO for j in range(m)] + [ZERO]
                     for i, row in enumerate(self.rows)]
        self._tab.append(self.cost + [ZERO] * (m + 1))
        self._basis = list(range(len(self.cost), len(self.cost) + m))

    def solve(self, b: Sequence) -> LPResult:
        rhs = [Fraction(v) for v in b]
        if len(rhs) != len(self.rows):  # zip would pad or cut b unseen
            raise ValueError("right-hand side and constraint matrix differ in length")
        tab, basis, n = self._tab, self._basis, len(self.cost)
        for row in tab:  # on the cost row this is -c_B B^-1 b
            row[-1] = sum((w * v for w, v in zip(row[n:-1], rhs) if w), ZERO)
        failed = _dual_simplex(tab, basis, n)
        if failed is not None:
            # that row of B^-1, signed so that y.b < 0, is a Farkas certificate
            row = tab[failed]
            y = row[n:-1]
            _certify_infeasible(self.rows, rhs, [-v for v in y] if row[-1] > 0 else y)
            return LPResult("infeasible", None, None, None)
        x = [ZERO] * n
        for i, bi in enumerate(basis):
            if bi < n:
                x[bi] = tab[i][-1]
        # the cost row's artificial block is -c_B B^-1 = -y
        dual = [-v for v in tab[-1][n:-1]]
        _certify(self.cost, self.rows, rhs, x, dual)
        return LPResult("optimal", sum((self.cost[j] * x[j] for j in range(n)), ZERO),
                        x, dual)


_last: Optional[tuple[tuple[list, list[list]], MinLP]] = None


def solve_min_lp(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    """min c.x subject to A x = b, x >= 0, for c >= 0; warm from the previous
    call's ``MinLP`` when c and A are equal by value to its c and A."""
    global _last
    given = (list(c), [list(row) for row in A])
    if _last is None or _last[0] != given:
        _last = (given, MinLP(c, A))
    return _last[1].solve(b)


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


def _dual_simplex(tab, basis, n: int) -> Optional[int]:
    """Dual simplex on a dual-feasible tableau by Bland's rule for the dual.
    A row is infeasible if its rhs is negative, or if its basic variable is
    an artificial (index >= n, fixed at 0) and its rhs is nonzero; such a
    row is signed so its rhs is negative.  The leaving row has the smallest
    basis index among infeasible rows; the entering column j < n, among the
    signed row's negative entries s_j, has the least reduced cost over -s_j,
    ties to the smallest j.  Returns None at an optimum, or an infeasible
    row with no such entry: b is infeasible."""
    while True:
        infeasible = [i for i, bi in enumerate(basis)
                      if tab[i][-1] < 0 or (bi >= n and tab[i][-1])]
        if not infeasible:
            return None
        i = min(infeasible, key=basis.__getitem__)
        up = tab[i][-1] > 0  # so the row is signed by -1
        ratios = [(tab[-1][j] / abs(a), j) for j, a in enumerate(tab[i][:n])
                  if a and (a > 0) == up]
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
