"""Reference implementations that the tests check the package against.

The dense-tableau dual simplex is the exact LP solver the package used
before ``lp.MinLP`` became a revised dual simplex.  It is kept here
unchanged as an oracle: ``tests/test_lp.py`` checks that the revised solver
makes the same pivots, LP by LP, and returns the same status, value, x and
y.  It holds the tableau [A | I | rhs] over the cost row [c | 0 | 0], each
row as ints over its own denominator in lowest terms, and updates every row
with a nonzero entry in the entering column on each pivot.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from burghelea.errors import CertificateError

ZERO = Fraction(0)


class LPResult(NamedTuple):
    status: str                     # optimal | infeasible
    value: Optional[Fraction]
    x: Optional[list[Fraction]]
    dual: Optional[list[Fraction]]  # y for the rows as given


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """(V, d) with values = V / d, d the lcm of their denominators."""
    fracs = [Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in fracs))
    return [v.numerator * (d // v.denominator) for v in fracs], d


def _lowest(row: list[int], d: int) -> tuple[list[int], int]:
    g = gcd(*row, d)
    return (row, d) if g == 1 else ([v // g for v in row], d // g)


class MinLP:
    """min c.x subject to A x = b, x >= 0 for one c >= 0 and A and any b;
    keeps the tableau and its basis from one solve to the next."""

    def __init__(self, c: Sequence, A: Sequence[Sequence]):
        self.cost = _scaled(c)
        self.rows = [_scaled(row) for row in A]
        n, m = len(self.cost[0]), len(self.rows)
        if any(len(row) != n for row, _ in self.rows):
            raise ValueError("ragged constraint matrix")
        if any(v < 0 for v in self.cost[0]):
            raise ValueError("negative cost: the artificial basis is not dual feasible")
        self._tab = [row + [d if k == i else 0 for k in range(m)] + [0]
                     for i, (row, d) in enumerate(self.rows)]
        self._tab.append(self.cost[0] + [0] * (m + 1))
        self._den = [d for _, d in self.rows] + [self.cost[1]]
        self._basis = list(range(n, n + m))

    def solve(self, b: Sequence) -> LPResult:
        B, L = _scaled(b)
        if len(B) != len(self.rows):  # zip would pad or cut b unseen
            raise ValueError("right-hand side and constraint matrix differ in length")
        tab, den, basis, n = self._tab, self._den, self._basis, len(self.cost[0])
        for r, row in enumerate(tab):  # on the cost row this is -c_B B^-1 b
            rhs = sum(w * v for w, v in zip(row[n:-1], B) if w)
            row = [v * L for v in row] if L != 1 else row
            row[-1] = rhs
            tab[r], den[r] = _lowest(row, den[r] * L)
        failed = _dual_simplex(tab, den, basis, n)
        if failed is not None:
            # that row of B^-1, signed so that y.b < 0, is a Farkas certificate
            row = tab[failed]
            y = [-v for v in row[n:-1]] if row[-1] > 0 else row[n:-1]
            _certify_infeasible(self.rows, B, y)
            return LPResult("infeasible", None, None, None)
        xs = {bi: (tab[r][-1], den[r]) for r, bi in enumerate(basis) if bi < n and tab[r][-1]}
        dx = lcm(*(d for _, d in xs.values()))
        X = [xs[j][0] * (dx // xs[j][1]) if j in xs else 0 for j in range(n)]
        # the cost row's artificial block is -c_B B^-1 = -y
        Y, dy = [-v for v in tab[-1][n:-1]], den[-1]
        _certify(self.cost, self.rows, (B, L), (X, dx), (Y, dy))
        value = Fraction(sum(cj * xj for cj, xj in zip(self.cost[0], X) if xj), self.cost[1] * dx)
        return LPResult("optimal", value, [Fraction(v, dx) if v else ZERO for v in X],
                        [Fraction(v, dy) if v else ZERO for v in Y])


def _certify(c, A, b, x, y) -> None:
    """Check x >= 0, A x = b, c - A^T y >= 0 and c.x = b.y, each side scaled
    to ints: c, b, x and y are (ints, denominator) pairs, A a list of them.
    By weak duality any y that passes proves x optimal, whatever produced it."""
    (C, dc), (B, db), (X, dx), (Y, dy) = c, b, x, y
    if any(v < 0 for v in X):
        raise CertificateError("LP certificate failed: x has a negative entry")
    support = [(j, v) for j, v in enumerate(X) if v]
    for (row, da), bi in zip(A, B):
        if sum(row[j] * v for j, v in support) * db != bi * da * dx:
            raise CertificateError("LP certificate failed: A x != b")
    la = lcm(*(da for _, da in A))
    reduced = [v * dy * la for v in C]  # (c - A^T y) dc dy la
    for (row, da), yi in zip(A, Y):
        if yi:
            w = yi * dc * (la // da)
            reduced = [r - w * a for r, a in zip(reduced, row)]
    if any(r < 0 for r in reduced):
        raise CertificateError("LP certificate failed: c - A^T y has a negative entry")
    if (sum(C[j] * v for j, v in support) * db * dy
            != sum(bi * yi for bi, yi in zip(B, Y) if yi) * dc * dx):
        raise CertificateError("LP certificate failed: c.x != b.y")


def _certify_infeasible(A, B, y) -> None:
    """Check y.b < 0 and y^T A >= 0 (Farkas): then no x >= 0 has A x = b.
    A is (ints, denominator) rows; b = B and y are ints up to positive scale."""
    if sum(bi * yi for bi, yi in zip(B, y)) >= 0:
        raise CertificateError("LP certificate failed: Farkas y.b is not negative")
    la = lcm(*(da for _, da in A))
    used = [(row, yi * (la // da)) for (row, da), yi in zip(A, y) if yi]
    if any(sum(w * row[j] for row, w in used) < 0 for j in range(len(used[0][0]))):
        raise CertificateError("LP certificate failed: Farkas y^T A has a negative entry")


def _dual_simplex(tab, den, basis, n: int) -> Optional[int]:
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
        row, cost = tab[i], tab[-1]
        up = row[-1] > 0  # so the row is signed by -1
        best = None
        for j in range(n):  # cost[j] / |a| < cost[best] / |a_best|, ties to the first j
            a = row[j]
            if a and (a > 0) == up and (best is None or cost[j] * a_best < cost[best] * abs(a)):
                best, a_best = j, abs(a)
        if best is None:
            return i
        _pivot(tab, den, basis, i, best)


def _pivot(tab, den, basis, i: int, j: int) -> None:
    """Pivot on (i, j): row i over its pivot p > 0, then each row r with
    f = R_r[j] != 0 becomes (R_r p - f R_i) / (d_r p); rows with f = 0 stay."""
    row_i = tab[i] if tab[i][j] > 0 else [-v for v in tab[i]]
    row_i, p = _lowest(row_i, row_i[j])
    tab[i], den[i] = row_i, p
    pairs = [(c, w) for c, w in enumerate(row_i) if w]
    for r, row in enumerate(tab):
        f = row[j]
        if f and r != i:
            row = [v * p for v in row] if p != 1 else row
            for c, w in pairs:
                row[c] -= f * w
            tab[r], den[r] = _lowest(row, den[r] * p)
    basis[i] = j
