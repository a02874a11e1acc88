"""Exact linear algebra over the rationals.

Rank computations use an incremental row-echelon structure whose rows are
kept as gcd-normalized integer sparse vectors; all pivoting is fraction-free,
so results are exact.  A small dense solver supports LP dual extraction.

Every boundary matrix in the workbench is built here.  Each complex defines
its face map once, as a function from a basis tuple to ``(face, +-1)`` pairs
(``hochschild.hochschild_faces``, ``bar_complexes.cprime_faces`` and
``cbar_faces``, ``chains.simplex_faces`` for the E complex and simplicial
complexes), and ``boundary_columns`` turns it into sparse integer columns.
``boundary_columns`` streamed into ``rank_of_columns`` is the one place where
a change to elimination (pivot order, clearing) goes.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

SparseVec = dict[int, int]


def _normalize(vec: SparseVec) -> SparseVec:
    g = 0
    for v in vec.values():
        g = math.gcd(g, v)
    if g == 0:
        return {}
    lead = vec[min(vec)]
    if lead < 0:
        g = -g
    return {i: v // g for i, v in vec.items()}


class RationalEchelon:
    """Incremental echelon form; insert vectors, read off the rank."""

    def __init__(self):
        self._rows: dict[int, SparseVec] = {}  # leading index -> row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Eliminate against stored pivots; returns the (unnormalized) rest."""
        vec = {i: v for i, v in vec.items() if v}
        while vec:
            j = min(vec)
            row = self._rows.get(j)
            if row is None:
                return vec
            p = row[j]
            v = vec[j]
            # integer cross-elimination: p*vec - v*row kills index j
            new: SparseVec = {}
            for i, x in vec.items():
                new[i] = p * x
            for i, x in row.items():
                y = new.get(i, 0) - v * x
                if y:
                    new[i] = y
                elif i in new:
                    del new[i]
            vec = new
        return vec

    def insert(self, vec: SparseVec) -> bool:
        """Add a vector to the span; True if the rank grew."""
        rest = self.reduce(vec)
        if not rest:
            return False
        rest = _normalize(rest)
        self._rows[min(rest)] = rest
        return True

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)


def rank_of_columns(columns: Iterable[SparseVec]) -> int:
    ech = RationalEchelon()
    for col in columns:
        ech.insert(col)
    return ech.rank


Faces = Callable[[tuple], Iterable[tuple[tuple, int]]]


def boundary_columns(basis: Iterable[tuple], index_prev: dict[tuple, int],
                     faces: Faces) -> Iterator[SparseVec]:
    """Column j is the image of the j-th basis tuple under ``faces``, in the
    coordinates ``index_prev``; repeated faces cancel.  Columns are yielded
    one at a time, so a rank never holds the whole matrix."""
    for t in basis:
        col: SparseVec = {}
        for u, s in faces(t):
            i = index_prev[u]
            v = col.get(i, 0) + s
            if v:
                col[i] = v
            else:
                col.pop(i, None)
        yield col


def boundary_ranks(bases: Sequence[Sequence[tuple]], faces: Faces) -> list[int]:
    """Ranks of the boundary out of each degree of a complex given by one
    basis per degree; the boundary out of degree 0 is zero."""
    ranks = [0]
    for n in range(1, len(bases)):
        index_prev = {t: i for i, t in enumerate(bases[n - 1])}
        ranks.append(rank_of_columns(boundary_columns(bases[n], index_prev, faces)))
    return ranks


def solve_dense(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve a square system by Gaussian elimination; None if singular."""
    n = len(rows)
    a = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]
