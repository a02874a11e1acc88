import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from burghelea.chains import simplex_faces
from burghelea.linalg import RationalEchelon, boundary_ranks, coboundary_ranks, rank_of_columns


def dense_rank_oracle(rows):
    """Textbook Gaussian elimination over Fractions, kept independent of the
    echelon class under test."""
    a = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        a[rank] = [x / pv for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def to_sparse(row):
    return {i: v for i, v in enumerate(row) if v}


@st.composite
def matrix_and_vector(draw):
    # about half the entries are zero; the rest range over -6..6, so stored
    # pivots are often not 1 after gcd normalization
    width = draw(st.integers(1, 10))
    row = st.lists(st.just(0) | st.integers(-6, 6), min_size=width, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=14)), draw(row)


@settings(max_examples=200)
@given(matrix_and_vector(), st.data())
def test_rank_matches_dense_oracle(matrix, data):
    rows, v = matrix
    rank = dense_rank_oracle(rows)
    ech = RationalEchelon(map(to_sparse, rows))
    assert ech.rank == rank
    assert rank_of_columns(map(to_sparse, data.draw(st.permutations(rows)))) == rank
    vec = to_sparse(v)
    assert ech.contains(vec) == (dense_rank_oracle(rows + [v]) == rank)
    assert vec == to_sparse(v)  # elimination works on a copy


def test_known_ranks():
    assert rank_of_columns([]) == 0
    assert rank_of_columns([{0: 1}, {0: 2}]) == 1
    assert rank_of_columns([{0: 1, 1: 1}, {1: 1}, {0: 1}]) == 2


def test_contains_and_reduce():
    ech = RationalEchelon()
    ech.insert({0: 2, 1: 4})
    ech.insert({1: 1, 2: 1})
    assert ech.contains({0: 1, 1: 2})
    assert ech.contains({0: 3, 1: 7, 2: 1})
    assert not ech.contains({2: 1, 3: 1})
    assert ech.rank == 2


@settings(max_examples=200)
@given(matrix_and_vector())
def test_reduced_rows_parametrize_the_span(matrix_and_vector):
    matrix, _ = matrix_and_vector
    columns = [to_sparse(row) for row in matrix]
    ech = RationalEchelon(columns)
    lcm, rows = ech.reduced_rows()
    assert len(rows) == ech.rank
    reduced = RationalEchelon(rows.values())
    for j, row in rows.items():
        # pivot j is the largest index, its entry is L, and every other
        # pivot coordinate is zero
        assert max(row) == j and row[j] == lcm
        assert all(p == j or p not in row for p in rows)
    for col in columns:
        # every input column reduces to zero against the reduced rows, and
        # its pivot coordinates rebuild it
        assert reduced.contains(col)
        rebuilt = {}
        for j, row in rows.items():
            for i, v in row.items():
                rebuilt[i] = rebuilt.get(i, 0) + col.get(j, 0) * v
        assert {i: v for i, v in rebuilt.items() if v} == {i: lcm * v for i, v in col.items()}


def test_reduced_rows_common_pivot():
    # the row {1: 1, 2: 2} has an entry at pivot 1; back-substitution clears
    # it to {0: -1, 2: 2}, and the pivots 1 and 2 give L = 2
    lcm, rows = RationalEchelon([{0: 1, 1: 1}, {1: 1, 2: 2}]).reduced_rows()
    assert lcm == 2
    assert rows == {1: {0: 2, 1: 2}, 2: {0: -1, 2: 2}}
    assert RationalEchelon().reduced_rows() == (1, {})


@st.composite
def simplicial_bases(draw):
    """A random simplicial complex on up to 7 vertices, closed under faces,
    as one basis per degree in a random order."""
    facets = draw(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=5),
                           min_size=1, max_size=8))
    simplices = {s for f in facets for k in range(1, len(f) + 1)
                 for s in itertools.combinations(sorted(f), k)}
    top = max(map(len, simplices))
    return [draw(st.permutations(sorted(s for s in simplices if len(s) == n + 1)))
            for n in range(top)]


@settings(max_examples=200)
@given(simplicial_bases())
def test_cleared_coboundary_ranks_match_column_reduction(bases):
    assert coboundary_ranks(bases, simplex_faces) == boundary_ranks(bases, simplex_faces)
