from fractions import Fraction

from hypothesis import given, strategies as st

from burghelea.linalg import RationalEchelon, rank_of_columns, solve_dense


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


@given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5), min_size=1, max_size=8))
def test_rank_matches_dense_oracle(rows):
    assert rank_of_columns(map(to_sparse, rows)) == dense_rank_oracle(rows)


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


def test_solve_dense():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve_dense(a, [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve_dense(singular, [Fraction(1), Fraction(2)]) is None
