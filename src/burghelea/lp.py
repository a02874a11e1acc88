"""Exact revised dual simplex over sparse integer rows, one basis for every right-hand side.

Solves   min c.x  subject to  A x = b, x >= 0   in Python ints, for rational
c >= 0 and b and an integer A (every caller minimises a weighted l1 norm
over a boundary matrix).  A comes as its rows, one ``dict[int, int]`` each,
mapping a column index of c to its entry; an entry that is not an int, or an
index outside c, is a ``ValueError``.  ``MinLP(c, A)`` reads A once into
sparse rows and sparse columns and starts on the artificial basis.  With
c >= 0 that basis is dual feasible for every b, so each solve, the first
included, sets rhs = B^-1 b over b's support and runs one dual simplex
(Koberstein, PhD thesis, 2005) by Bland's rule.  An artificial is fixed at
0: it never enters, and a basic one with a nonzero rhs is infeasible like a
negative rhs.  ``solve_min_lp(c, A, bs)`` builds one ``MinLP`` and solves
every b of bs on it in turn; no LP outlives the call.

No tableau is kept.  The LP holds the rows of B^-1, each with its rhs entry,
as ints R over that row's own denominator d > 0, in lowest terms
(gcd(*R, d) = 1), and one cost row over one denominator: the reduced costs
of the n columns, then -y = -c_B B^-1, then -y.b.  An int b is used as it
is; a b = B / L scales every row by L.  A pivot prices the leaving row i
from A's sparse rows, alpha = (row i of B^-1) A (row-wise pricing; Maros,
Computational Techniques of the Simplex Method, 2003, ch. 10), and builds
the entering column j from A's sparse column.  Row i goes over its pivot
p > 0; each row r with f = (B^-1 A)_rj != 0 becomes R_r p - f R_i over d_r p
(Edmonds, 1967), and rows with f = 0 are not touched.  The cost row changes
on alpha's support and its last m + 1 entries, and is rescaled only when
its denominator grows.  The ratio test cross-multiplies; positive
denominators cancel.  Every pivot is the one the dense tableau [A | I | rhs]
would make: the entries are the same rationals.

Every verdict is certified against the LP as given (Applegate, Cook, Dash &
Espinoza, ORL 2007), in ints, with x = X / dx and y = Y / dy: an optimum by
its dual y, read off the cost row (``_certify``); infeasibility by a Farkas y
with y^T A >= 0 and y.b < 0, the failing row of B^-1 (``_certify_infeasible``).
A failed check raises ``CertificateError``; it never yields a verdict.  x and
y reach the caller as those (ints, denominator) pairs; the value is a
``Fraction``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import CertificateError


class LPResult(NamedTuple):
    status: str                              # optimal | infeasible
    value: Optional[Fraction]
    x: Optional[tuple[list[int], int]]       # (X, dx): x = X / dx
    dual: Optional[tuple[list[int], int]]    # (Y, dy): y for the rows as given


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """(V, d) with values = V / d, d the lcm of their denominators."""
    if all(type(v) is int for v in values):
        return list(values), 1
    fracs = [Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in fracs))
    return [v.numerator * (d // v.denominator) for v in fracs], d


def _lowest(row: list[int], d: int) -> tuple[list[int], int]:
    g = gcd(*row, d) if d != 1 else 1
    return (row, d) if g == 1 else ([v // g for v in row], d // g)


def _with_rhs(row: list[int], d: int, start: int, support, L: int) -> tuple[list[int], int]:
    """row over d with its last entry set to row[start:start + m] . b, for
    b = B / L given as B's nonzero (k, B_k); in lowest terms."""
    rhs = sum(row[start + k] * v for k, v in support)
    if L != 1:
        row = [v * L for v in row]
    row[-1] = rhs
    return _lowest(row, d * L)


class MinLP:
    """min c.x subject to A x = b, x >= 0 for one c >= 0 and A and any b;
    keeps B^-1, the cost row and the basis from one solve to the next."""

    def __init__(self, c: Sequence, A: Sequence[dict[int, int]]):
        self.cost = _scaled(c)
        n, m = len(self.cost[0]), len(A)
        if any(v < 0 for v in self.cost[0]):
            raise ValueError("negative cost: the artificial basis is not dual feasible")
        # row k as its (j, a) with a != 0, column j as its (k, a)
        self.rows: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        self.cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for k, row in enumerate(A):
            for j, a in row.items():
                if type(a) is not int:
                    raise ValueError(f"constraint entry {a!r} is not an int")
                if type(j) is not int or not 0 <= j < n:
                    raise ValueError(f"column index {j!r} is outside c")
                if a:
                    self.rows[k].append((j, a))
                    self.cols[j].append((k, a))
        self._binv = [[int(k == i) for k in range(m + 1)] for i in range(m)]
        self._den = [1] * m
        self._cost_row, self._cost_den = self.cost[0] + [0] * (m + 1), self.cost[1]
        self._basis = list(range(n, n + m))

    def solve(self, b: Sequence) -> LPResult:
        B, L = _scaled(b)
        if len(B) != len(self.rows):  # zip would pad or cut b unseen
            raise ValueError("right-hand side and constraint matrix differ in length")
        n, binv, den = len(self.cols), self._binv, self._den
        support = [(k, v) for k, v in enumerate(B) if v]
        for r, row in enumerate(binv):
            binv[r], den[r] = _with_rhs(row, den[r], 0, support, L)
        # on the cost row this is -c_B B^-1 b
        self._cost_row, self._cost_den = _with_rhs(self._cost_row, self._cost_den, n, support, L)
        failed = self._dual_simplex()
        if failed is not None:
            # that row of B^-1, signed so that y.b < 0, is a Farkas certificate
            row = binv[failed]
            y = [-v for v in row[:-1]] if row[-1] > 0 else row[:-1]
            _certify_infeasible(self.rows, B, y)
            return LPResult("infeasible", None, None, None)
        xs = {bi: (row[-1], d) for row, d, bi in zip(binv, den, self._basis) if bi < n and row[-1]}
        dx = lcm(*(d for _, d in xs.values()))
        X = [0] * n
        for j, (v, d) in xs.items():
            X[j] = v * (dx // d)
        # the cost row's artificial block is -c_B B^-1 = -y
        Y, dy = [-v for v in self._cost_row[n:-1]], self._cost_den
        _certify(self.cost, self.rows, (B, L), (X, dx), (Y, dy))
        value = Fraction(sum(self.cost[0][j] * X[j] for j in xs), self.cost[1] * dx)
        return LPResult("optimal", value, (X, dx), (Y, dy))

    def _dual_simplex(self) -> Optional[int]:
        """Dual simplex on a dual-feasible basis by Bland's rule for the dual.
        A row is infeasible if its rhs is negative, or if its basic variable
        is an artificial (index >= n, fixed at 0) and its rhs is nonzero; such
        a row is signed so its rhs is negative.  The leaving row has the
        smallest basis index among infeasible rows; the entering column
        j < n, among the signed row's negative entries s_j, has the least
        reduced cost over -s_j, ties to the smallest j.  Returns None at an
        optimum, or an infeasible row with no such entry: b is infeasible."""
        binv, basis, n = self._binv, self._basis, len(self.cols)
        while True:
            infeasible = [i for i, bi in enumerate(basis)
                          if binv[i][-1] < 0 or (bi >= n and binv[i][-1])]
            if not infeasible:
                return None
            i = min(infeasible, key=basis.__getitem__)
            alpha, cost = self._price(i), self._cost_row
            up = binv[i][-1] > 0  # so the row is signed by -1
            best = None
            for j, a in alpha.items():  # cost[j] / |a| < cost[best] / a_best, ties to the least j
                if a and (a > 0) == up and (
                        best is None or (cost[j] * a_best, j) < (cost[best] * abs(a), best)):
                    best, a_best = j, abs(a)
            if best is None:
                return i
            self._pivot(i, best, alpha)

    def _price(self, i: int) -> dict[int, int]:
        """Row i of B^-1 A times d_i on its support, from A's sparse rows."""
        alpha: dict[int, int] = {}
        get = alpha.get
        for k, w in enumerate(self._binv[i][:-1]):
            if w:
                for j, a in self.rows[k]:
                    alpha[j] = get(j, 0) + w * a
        return alpha

    def _pivot(self, i: int, j: int, alpha: dict[int, int]) -> None:
        """Pivot on (i, j), with alpha = ``_price(i)``: row i of B^-1 over
        the pivot a_ij = alpha_j / d_i, then each row r with
        f = (B^-1 A)_rj != 0 becomes R_r - f R_i, and so does the cost row,
        on alpha's support and its last m + 1 entries."""
        binv, den, a = self._binv, self._den, alpha[j]
        row_i, p = _lowest(binv[i] if a > 0 else [-v for v in binv[i]], abs(a))
        binv[i], den[i] = row_i, p
        pairs = [(k, w) for k, w in enumerate(row_i) if w]
        col = self.cols[j]
        for r, row in enumerate(binv):
            f = sum(row[k] * v for k, v in col)  # (B^-1 A)_rj = f / d_r
            if f and r != i:
                row = [v * p for v in row] if p != 1 else row
                for k, w in pairs:
                    row[k] -= f * w
                binv[r], den[r] = _lowest(row, den[r] * p)
        cost, cj = self._cost_row, self._cost_row[j]
        if cj:
            # less cj times the new row i: alpha / alpha_j on the columns,
            # row_i / p after them, over the cost denominator times |a| / g
            g = gcd(cj, a)
            scale, cj = abs(a) // g, cj // g
            cost = [v * scale for v in cost] if scale != 1 else cost
            on_cols, on_rest, start = (cj if a > 0 else -cj), cj * (abs(a) // p), len(self.cols)
            for t, v in alpha.items():
                cost[t] -= on_cols * v
            for k, w in pairs:
                cost[start + k] -= on_rest * w
            self._cost_row, self._cost_den = _lowest(cost, self._cost_den * scale)
        self._basis[i] = j


def solve_min_lp(c: Sequence, A: Sequence[dict[int, int]],
                 bs: Iterable[Sequence]) -> list[LPResult]:
    """min c.x subject to A x = b, x >= 0, for c >= 0 and each b of bs, in
    order; each solve starts warm from the basis the one before left."""
    lp = MinLP(c, A)
    return [lp.solve(b) for b in bs]


def _certify(c, rows, b, x, y) -> None:
    """Check x >= 0, A x = b, c - A^T y >= 0 and c.x = b.y, each side scaled
    to ints: c, b, x and y are (ints, denominator) pairs, and the rows of A
    are its (j, a) pairs for a != 0.  Each check costs O(n + nnz(A)).
    By weak duality any y that passes proves x optimal, whatever produced it."""
    (C, dc), (B, db), (X, dx), (Y, dy) = c, b, x, y
    if any(v < 0 for v in X):
        raise CertificateError("LP certificate failed: x has a negative entry")
    for row, bi in zip(rows, B):
        if sum(a * X[j] for j, a in row) * db != bi * dx:
            raise CertificateError("LP certificate failed: A x != b")
    reduced = [v * dy for v in C]  # (c - A^T y) dc dy
    for row, yi in zip(rows, Y):
        if yi:
            w = yi * dc
            for j, a in row:
                reduced[j] -= w * a
    if any(r < 0 for r in reduced):
        raise CertificateError("LP certificate failed: c - A^T y has a negative entry")
    if (sum(cj * v for cj, v in zip(C, X) if v) * db * dy
            != sum(bi * yi for bi, yi in zip(B, Y) if yi) * dc * dx):
        raise CertificateError("LP certificate failed: c.x != b.y")


def _certify_infeasible(rows, B, y) -> None:
    """Check y.b < 0 and y^T A >= 0 (Farkas): then no x >= 0 has A x = b.
    rows are A's sparse rows, b = B and y are ints, each up to positive scale."""
    if sum(bi * yi for bi, yi in zip(B, y)) >= 0:
        raise CertificateError("LP certificate failed: Farkas y.b is not negative")
    yA: dict[int, int] = {}
    for row, yi in zip(rows, y):
        if yi:
            for j, a in row:
                yA[j] = yA.get(j, 0) + yi * a
    if any(v < 0 for v in yA.values()):
        raise CertificateError("LP certificate failed: Farkas y^T A has a negative entry")
