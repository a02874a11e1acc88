"""Reference implementations that the tests check the package against.

None of them runs in a subcommand; each is the slow, plain computation that
a faster one in the package must agree with.

The dense-tableau dual simplex is the exact LP solver the package used
before ``lp.MinLP`` became a revised dual simplex.  It is kept here
unchanged as an oracle: ``tests/test_lp.py`` checks that the revised solver
makes the same pivots, LP by LP, and returns the same status, value, x and
y.  It holds the tableau [A | I | rhs] over the cost row [c | 0 | 0], each
row as ints over its own denominator in lowest terms, and updates every row
with a nonzero entry in the entering column on each pivot.

The others:

- ``integer_min_filling``, an exhaustive integer search with pruning: the
  LP value of ``min_l1_filling`` (``dehn.min_l1_fillings`` on one target
  chain given over simplices) never exceeds it;
- ``homology_ranks_unsplit``, column reduction over all of G^(n+1), which
  the per-class ranks of ``hochschild.homology_ranks`` must add up to;
- ``theta_quotient_dims``, the rank data of theta_h on a finite model;
- ``convolve``, the product of the group algebra, for which the weighted
  l1 norms are submultiplicative.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from burghelea.chains import Chain
from burghelea.dehn import SimplicialComplex, min_l1_fillings
from burghelea.errors import (
    CertificateError,
    DescriptorError,
    GroupMismatchError,
    KindMismatchError,
    NotABoundaryError,
    WorkbenchError,
)
from burghelea.groups import Element, GroupModel, class_members
from burghelea.hochschild import (
    _add_ranks,
    _check_counted,
    _empty_reports,
    entry_product,
    hochschild_faces,
    theta_entries,
)
from burghelea.homotopy import normalize_coinvariant, translate_tuple
from burghelea.linalg import RationalEchelon, boundary_columns, boundary_ranks, rank_of_columns
from burghelea.metric import coset_section

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


# ---------------------------------------------------------------------------
# l1 fillings of simplicial chains: the LP on one target, the integer search
# ---------------------------------------------------------------------------

class OracleCapError(WorkbenchError):
    """The integer enumeration oracle hit its configured cap."""


def index_of(X: SimplicialComplex, dim: int, simplex: tuple) -> int:
    try:
        return X._index[dim][tuple(simplex)]
    except KeyError:
        raise DescriptorError(f"unknown {dim}-simplex {simplex!r}") from None


def _target_vec(X: SimplicialComplex, b: dict[tuple, Fraction],
                dim: int) -> dict[int, Fraction]:
    return {index_of(X, dim, s): Fraction(q) for s, q in b.items() if q}


def min_l1_filling(X: SimplicialComplex, b: dict[tuple, Fraction], dim: int) -> Fraction:
    """l_f(b) for an N-chain b given over simplex tuples; fills with
    (N+1)-chains."""
    [value] = min_l1_fillings(X.boundary_columns(dim + 1), X.dimension_size(dim),
                              [_target_vec(X, b, dim)])
    return value


def integer_min_filling(X: SimplicialComplex, b: dict[tuple, Fraction], dim: int,
                        cap: int) -> Fraction:
    """The least l1-norm of an integer (N+1)-chain filling the integer N-chain
    b, by exhaustive search up to l1 <= cap: the reference for the LP value
    of ``min_l1_filling``.  Raises NotABoundaryError when b does not bound and
    OracleCapError when no filling is found within the cap."""
    target = _target_vec(X, b, dim)
    if any(v.denominator != 1 for v in target.values()):
        raise ValueError("the integer oracle needs an integer target chain")
    target_int = {i: int(v) for i, v in target.items()}
    columns = X.boundary_columns(dim + 1)
    if not RationalEchelon(columns).contains(target_int):
        raise NotABoundaryError("the target chain is not a boundary")
    found = _integer_min_filling(columns, X.dimension_size(dim), target_int, cap)
    if found is None:
        raise OracleCapError(f"no integer filling with l1 <= {cap}")
    return Fraction(found[0])


def _integer_min_filling(columns, n_rows, target: dict[int, int], cap: int):
    """Exhaustive search over integer chains with l1 <= cap, by increasing
    radius; pruned depth-first over coefficient choices.  The target has no
    zero entries."""
    ncols = len(columns)
    # a row is settled once the last column touching it has been chosen
    last_touch = [0] * n_rows
    for j, col in enumerate(columns):
        for i in col:
            last_touch[i] = max(last_touch[i], j)
    rows_closing_at = [[] for _ in range(ncols)]
    for i, lt in enumerate(last_touch):
        if ncols:
            rows_closing_at[lt].append(i)
    max_col_support = max((len(c) for c in columns), default=1)

    for radius in range(cap + 1):
        witness: dict[int, int] = {}

        def dfs(j: int, budget: int, residual: dict[int, int]) -> bool:
            if not residual and budget >= 0:
                # zero-extend the remaining coefficients
                return True
            if j == ncols:
                return not residual
            # residual entries on rows no later column can touch must be zero
            # (checked incrementally below); prune on l1 reachability
            need = sum(abs(v) for v in residual.values())
            if need > budget * max_col_support:
                return False
            col = columns[j]
            for v in _coefficient_order(budget):
                nr = dict(residual)
                if v:
                    for i, s in col.items():
                        x = nr.get(i, 0) - v * s
                        if x:
                            nr[i] = x
                        elif i in nr:
                            del nr[i]
                if any(i in nr for i in rows_closing_at[j]):
                    continue
                if dfs(j + 1, budget - abs(v), nr):
                    if v:
                        witness[j] = v
                    return True
            return False

        if dfs(0, radius, dict(target)):
            value = sum(abs(v) for v in witness.values())
            return value, witness
    return None


def _coefficient_order(budget: int):
    yield 0
    for a in range(1, budget + 1):
        yield a
        yield -a


# ---------------------------------------------------------------------------
# Hochschild ranks without the splitting, theta_h's rank data, convolution
# ---------------------------------------------------------------------------

def homology_ranks_unsplit(model: GroupModel, max_degree: int) -> list[dict]:
    """The unsplit reference for ``homology_ranks``: one elimination over all
    of G^(n+1).  Its cap prices |G|^(n+1) tuples in degree n at
    80 + 16 (N + 1) bytes each and the top boundary at 100 bytes an entry."""
    per_tuple, top = 80 + 16 * (max_degree + 2), max_degree + 1
    _check_counted((model.order ** (n + 1) * per_tuple for n in range(top + 1)),
                   lambda: (top + 1) * model.order ** (top + 1) * 100)
    elems = model.elements()
    bases = [sorted(itertools.product(elems, repeat=n + 1),
                    key=lambda t: tuple(model.element_key(g) for g in t))
             for n in range(max_degree + 2)]
    ranks = boundary_ranks(bases, partial(hochschild_faces, model.mul))
    per_degree = _empty_reports(max_degree)
    _add_ranks([len(b) for b in bases], ranks, per_degree)
    return per_degree

def theta_quotient_dims(model: GroupModel, h: Element, degree: int) -> dict:
    """Rank data for theta_h on a finite model: image rank, kernel rank, and
    the coinvariant basis count, against dim C_degree(QG)_x."""
    if not model.is_finite:
        raise GroupMismatchError("theta rank checks need a finite model")
    section = coset_section(model, h)
    tuples = list(itertools.product(model.elements(), repeat=degree + 1))
    members = set(class_members(model, h))
    target = [t for t in tuples if entry_product(model, t) in members]
    index = {t: i for i, t in enumerate(target)}
    image_rank = rank_of_columns(
        boundary_columns(tuples, index, lambda t: ((theta_entries(model, h, t), 1),)))

    zs = [z for z in model.elements() if model.commutes(z, h) and z != model.identity]
    tindex = {t: i for i, t in enumerate(tuples)}

    def difference(zt):
        z, t = zt
        yield translate_tuple(model, z, t), 1
        yield t, -1

    kernel_rank = rank_of_columns(
        boundary_columns(((z, t) for t in tuples for z in zs), tindex, difference))
    orbits = len({normalize_coinvariant(section, t) for t in tuples})

    return {
        "degree": degree,
        "dim_e": len(tuples),
        "dim_component": len(target),
        "image_rank": image_rank,
        "kernel_span_rank": kernel_rank,
        "coinvariant_basis": orbits,
    }


def convolve(model: GroupModel, f: Chain, g: Chain) -> Chain:
    """Convolution product of two group-algebra elements (degree-0 chains)."""
    if f.degree != 0 or g.degree != 0:
        raise KindMismatchError("convolution is defined on degree-0 chains")
    items = []
    for (a,), qa in f.terms.items():
        for (b,), qb in g.terms.items():
            items.append(((model.mul(a, b),), qa * qb))
    return Chain(f.kind, 0, items)
