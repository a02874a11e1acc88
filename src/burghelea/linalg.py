"""Exact linear algebra over the rationals.

Rank computations use an incremental row-echelon structure whose rows are
kept as gcd-normalized integer sparse vectors; all pivoting is fraction-free,
so results are exact.  Rows are keyed by their largest index, the "lowest
one" rule of persistence reduction.

``boundary_ranks`` eliminates the columns of each boundary d_n: on the D4
rotation class, b_4 (8192 columns, rank 911) stores 5,183 nonzeros (15,436
with smallest-index pivots), but 7,281 of its inserts reduce to zero.
``coboundary_ranks`` eliminates the coboundary with clearing (Chen & Kerber,
EuroCG 2011; de Silva, Morozov & Vejdemo-Johansson, Inverse Problems 2011):
911 inserts, none zero, storing 59,037 nonzeros.  On the normalized complex
b_4 has 4,802 columns and rank 601 (601 inserts, 34,804 nonzeros).
``hochschild.homology_ranks`` takes the coboundary path on its
conjugation-coinvariant complex, where b_4 has 1,241 columns and rank 161:
161 inserts, none zero, storing 7,072 nonzeros.
``bar_complexes.bar_homology_ranks`` and the tests' unsplit reference
(``tests/oracles.py``) stay on column reduction.

Every boundary matrix in the workbench is built here.  Each complex defines
its face map once, as a function from a basis tuple to ``(face, +-1)`` pairs
(``hochschild.hochschild_faces``, ``bar_complexes.cprime_faces`` and
``cbar_faces``, ``chains.simplex_faces`` for the E complex and simplicial
complexes), and ``boundary_columns`` turns it into sparse integer columns,
which both rank paths read.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

SparseVec = dict[int, int]


class RationalEchelon:
    """Incremental echelon form; insert vectors, read off the rank.  A stored
    row is gcd-normalized with a positive pivot at its largest index, so the
    pivot is usually 1; ``reduce`` eliminates in place, in one copy of its input."""

    def __init__(self, columns: Iterable[SparseVec] = ()):
        self._rows: dict[int, SparseVec] = {}  # largest index -> row
        for col in columns:
            self.insert(col)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Eliminate against stored pivots; returns the (unnormalized) rest."""
        vec = {i: v for i, v in vec.items() if v}
        while vec:
            j = max(vec)
            row = self._rows.get(j)
            if row is None:
                return vec
            p = row[j]
            v = vec[j]
            # integer cross-elimination, in place: p*vec - v*row kills index j
            if p != 1:
                for i in vec:
                    vec[i] *= p
            for i, x in row.items():
                y = vec.get(i, 0) - v * x
                if y:
                    vec[i] = y
                else:
                    del vec[i]
        return vec

    def insert(self, vec: SparseVec) -> bool:
        """Add a vector to the span; True if the rank grew."""
        rest = self.reduce(vec)
        if not rest:
            return False
        j = max(rest)
        g = math.gcd(*rest.values())
        if rest[j] < 0:
            g = -g
        self._rows[j] = {i: v // g for i, v in rest.items()}
        return True

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)

    def reduced_rows(self) -> tuple[int, dict[int, SparseVec]]:
        """The stored rows back-substituted, so each is zero at every other
        pivot, and scaled to one common pivot entry L, the lcm of the reduced
        rows' pivots.  Returns (L, pivot -> row).  A vector v lies in the
        span iff L*v == sum over pivots j of v[j] * row_j: its pivot
        coordinates determine it.  The stored rows are left as they are."""
        reduced: dict[int, SparseVec] = {}
        for j in sorted(self._rows):
            row = dict(self._rows[j])
            for p in [p for p in row if p != j and p in reduced]:
                # each reduced row is zero at the other pivots, so clearing
                # p brings no other pivot back in
                other = reduced[p]
                a, b = other[p], row[p]
                for i in row:
                    row[i] *= a
                for i, x in other.items():
                    y = row.get(i, 0) - b * x
                    if y:
                        row[i] = y
                    else:
                        del row[i]
            g = math.gcd(*row.values())
            reduced[j] = {i: v // g for i, v in row.items()}
        lcm = math.lcm(*(row[j] for j, row in reduced.items()))
        return lcm, {j: {i: v * (lcm // row[j]) for i, v in row.items()}
                     for j, row in reduced.items()}


def rank_of_columns(columns: Iterable[SparseVec]) -> int:
    return RationalEchelon(columns).rank


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


def coboundary_ranks(bases: Sequence[Sequence[tuple]], faces: Faces) -> list[int]:
    """The ranks of ``boundary_ranks``, from the coboundary with clearing:
    rank d_n = rank delta_{n-1}, whose column i is row i of d_n, with basis
    order and indices reversed in every degree.  A column whose index is a
    pivot of the reduced delta_{n-2} is skipped: that pivot's reduced column
    is a coboundary, so delta_{n-1} of it is zero, and its largest index is
    the skipped one.  Each column is dropped once inserted."""
    ranks, pivots = [0], set()
    for n in range(1, len(bases)):
        ech = RationalEchelon()  # first, so the previous degree's echelon is freed
        index = {t: i for i, t in enumerate(reversed(bases[n - 1]))}
        cob: dict[int, SparseVec] = {i: {} for i in index.values() if i not in pivots}
        for r, col in enumerate(boundary_columns(reversed(bases[n]), index, faces)):
            for i, v in col.items():
                if i in cob:
                    cob[i][r] = v
        for i in list(cob):
            ech.insert(cob.pop(i))
        ranks.append(ech.rank)
        pivots = set(ech._rows)
    return ranks
