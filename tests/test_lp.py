import copy
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from burghelea import cli, dehn, lp
from burghelea.errors import CertificateError
from burghelea.lp import solve_min_lp

from conftest import assert_certified, dense_rows, fixture_path, fractions, sparse_rows

F = Fraction


def rationals(lo: int, hi: int):
    """Integers in lo..hi, or numerators in lo..hi over denominators 1..6."""
    return st.one_of(st.integers(lo, hi), st.builds(F, st.integers(lo, hi), st.integers(1, 6)))


def assert_lowest_terms(memo: lp.MinLP):
    # each row of B^-1 with its rhs entry, and the cost row, is ints over a
    # positive denominator, in lowest terms
    assert len(memo._den) == len(memo._binv) == len(memo._basis)
    for row, d in zip(memo._binv + [memo._cost_row], memo._den + [memo._cost_den]):
        assert all(type(v) is int for v in row) and type(d) is int
        assert d > 0 and math.gcd(*row, d) == 1


def solve_rectangular(A_cols, b):
    """Unique solution of the overdetermined system with the given columns,
    or None if inconsistent / underdetermined."""
    m = len(b)
    n = len(A_cols)
    aug = [[A_cols[j][i] for j in range(n)] + [b[i]] for i in range(m)]
    rank = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(rank, m) if aug[r][col]), None)
        if piv is None:
            return None  # dependent columns: skip this support
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [x / pv for x in aug[rank]]
        for r in range(m):
            if r != rank and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, m):
        if aug[r][n]:
            return None  # inconsistent
    return [aug[i][n] for i in range(n)]


def brute_force_vertex_optimum(c, A, b):
    """Optimum over basic feasible solutions: supports are independent column
    sets of every size (an optimal LP solution always exists at one)."""
    m, n = len(A), len(c)
    best = None
    if all(F(v) == 0 for v in b):
        best = F(0)
    for size in range(1, min(m, n) + 1):
        for cols in itertools.combinations(range(n), size):
            a_cols = [[F(A[i][j]) for i in range(m)] for j in cols]
            x_s = solve_rectangular(a_cols, [F(v) for v in b])
            if x_s is None or any(v < 0 for v in x_s):
                continue
            value = sum(F(c[j]) * v for j, v in zip(cols, x_s))
            if best is None or value < best:
                best = value
    return best


def test_simple_optimum():
    # min x0 + x1 s.t. x0 + x1 = 1 -> 1
    [res] = solve_min_lp([1, 1], [{0: 1, 1: 1}], [[1]])
    assert res.value == 1
    assert_certified([1, 1], [{0: 1, 1: 1}], [1], res)


def test_infeasible():
    # x0 = -1 with x0 >= 0
    [res] = solve_min_lp([1], [{0: 1}], [[-1]])
    assert res.status == "infeasible"


def test_negative_cost_is_rejected():
    # the artificial basis is dual feasible only for c >= 0; min -x0 with
    # x0 - x1 = 0 would be unbounded
    with pytest.raises(ValueError, match="negative cost"):
        solve_min_lp([-1, 0], [{0: 1, 1: -1}], [[0]])


def test_wrong_length_rhs_is_rejected():
    # a b with too few or too many entries is not the LP that A describes
    for b in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="length"):
            lp.MinLP([1, 1], [{0: 1}, {1: 1}]).solve(b)


def test_degenerate_redundant_rows():
    # redundant constraint rows must not break the solve or the dual: their
    # artificials stay basic at 0; in the second LP the redundant row is the
    # first one negated
    for A, b in [([{0: 1, 1: 1}, {0: 1, 1: 1}, {0: 2, 1: 2}], [1, 1, 2]),
                 ([{0: 1, 1: 1}, {0: -1, 1: -1}], [1, -1])]:
        [res] = solve_min_lp([2, 3], A, [b])
        assert res.value == 2
        assert_certified([2, 3], A, b, res)


def test_negative_rhs_normalization():
    [res] = solve_min_lp([1, 1], [{0: -1}], [[-2]])
    assert res.value == 2 and fractions(res.x)[0] == 2
    # the negative rhs makes the basic artificial infeasible; the dual is
    # for the row as given
    assert fractions(res.dual) == [-1]
    assert_certified([1, 1], [{0: -1}], [-2], res)


def test_uncertified_optimum_is_an_error(monkeypatch, capsys):
    def wrong_column(held):
        # one pivot on row 0 entering the column of the largest ratio, not
        # the least: x = (1, 0) is primal feasible with value 2, but the
        # optimum is x = (0, 1) with value 1
        alpha = held._price(0)
        held._pivot(0, max(alpha, key=lambda j: F(held._cost_row[j], alpha[j])), alpha)

    monkeypatch.setattr(lp.MinLP, "_dual_simplex", wrong_column)
    with pytest.raises(CertificateError, match="c - A\\^T y"):
        solve_min_lp([2, 1], [{0: 1, 1: 1}], [[1]])
    # stopped after zero pivots, the dual simplex leaves the artificial
    # basis, which is not primal feasible for a dehn run's boundaries
    monkeypatch.setattr(lp.MinLP, "_dual_simplex", lambda held: None)
    code = cli.main(["dehn", "--complex", str(fixture_path("octahedron.json")),
                     "--degree", "1", "--k", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "Traceback" not in err


def test_constraint_rows_are_int_and_inside_c():
    # A is one dict per row from a column index of c to an int entry; a
    # Fraction or a bool is no int entry, and an index must be below len(c)
    for row, message in (({0: F(1)}, "not an int"), ({0: F(2, 1)}, "not an int"),
                         ({1: True}, "not an int"), ({2: 1}, "outside c"),
                         ({-1: 1}, "outside c")):
        with pytest.raises(ValueError, match=message):
            lp.MinLP([1, 1], [{0: 1}, row])


def test_inputs_and_certified_lp_unmutated(monkeypatch):
    # _pivot updates B^-1 and the cost row in place: neither the caller's
    # lists and rows nor the LP that _certify checks may share a row with
    # them.  _certify gets c and b as ints over a denominator, and A as
    # its sparse rows of (j, a) pairs.
    c = [F(1), F(2), F(0), F(3)]
    A = [{0: 1, 1: -1, 2: 2}, {0: -2, 1: 1, 3: 1}, {0: 1, 2: 2, 3: 1}]
    b = [F(3), F(-1), F(4)]
    given_lp = copy.deepcopy((c, A, b))
    certified = []
    real = lp._certify

    def values(ints_over_d):
        ints, d = ints_over_d
        return [F(v, d) for v in ints]

    def recording(c_, A_, b_, x, y):
        real(c_, A_, b_, x, y)
        certified.append((values(c_), [dict(row) for row in A_], values(b_)))

    monkeypatch.setattr(lp, "_certify", recording)
    [res] = solve_min_lp(c, A, [b])
    assert res.status == "optimal"
    assert_certified(c, A, b, res)
    assert (c, A, b) == given_lp
    assert certified == [given_lp]


@settings(max_examples=25)
@given(
    st.integers(1, 3).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                 min_size=m, max_size=m),
        st.lists(rationals(-4, 4), min_size=m, max_size=m),
    )),
    st.lists(rationals(0, 5), min_size=4, max_size=4),
)
def test_against_vertex_enumeration(mab, c):
    m, dense, b = mab
    A = sparse_rows(dense)
    held = lp.MinLP(c, A)
    res = held.solve(b)
    assert_lowest_terms(held)
    assert solve_min_lp(c, A, [b]) == [res]
    reference = brute_force_vertex_optimum(c, dense, b)
    if res.status == "optimal":
        # nonnegative costs: bounded; value matches the best vertex, and the
        # reported x and dual prove it
        assert reference is not None
        assert res.value == reference
        assert_certified(c, A, b, res)
    else:
        assert res.status == "infeasible"
        assert reference is None


@st.composite
def lp_runs(draw):
    """A small int A, as sparse rows, whose last row is the sum of its first
    and its last-but-one, rational c >= 0, and 3-7 rational right-hand
    sides: first b = 0, which leaves every artificial basic, then each A x
    for an x >= 0 or any b consistent with the redundant row, and one in the
    middle that breaks the redundant row, so it is infeasible."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    A.append([u + v for u, v in zip(A[0], A[-1])])
    c = draw(st.lists(rationals(0, 5), min_size=n, max_size=n))
    bs = [[0] * (m + 1)]
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            x = draw(st.lists(rationals(0, 3), min_size=n, max_size=n))
            bs.append([sum(a * v for a, v in zip(row, x)) for row in A])
        else:
            b = draw(st.lists(rationals(-4, 4), min_size=m, max_size=m))
            bs.append(b + [b[0] + b[-1]])
    broken = list(bs[1])
    broken[-1] += 1
    middle = (len(bs) + 1) // 2
    bs.insert(middle, broken)
    return c, sparse_rows(A), bs, middle


@settings(max_examples=60)
@given(lp_runs())
def test_warm_solves_match_cold(run):
    # consecutive solves on one held MinLP start from the basis the one
    # before left; each verdict equals the one of a fresh MinLP, each
    # optimum is certified, and the batch call gives the held LP's results
    c, A, bs, middle = run
    warm = lp.MinLP(c, A)
    results = []
    for k, b in enumerate(bs):
        res = warm.solve(b)
        assert_lowest_terms(warm)
        if k == 0:
            # b = 0 needs no pivot: the next solve starts from the artificial basis
            assert res.value == 0
            assert warm._basis == list(range(len(c), len(c) + len(A)))
        cold_lp = lp.MinLP(c, A)
        cold = cold_lp.solve(b)
        assert_lowest_terms(cold_lp)
        assert (res.status, res.value) == (cold.status, cold.value)
        if res.status == "optimal":
            assert_certified(c, A, b, res)
        results.append(res)
    assert results[middle].status == "infeasible"
    assert solve_min_lp(c, A, bs) == results


def test_unproven_infeasibility_is_an_error(monkeypatch):
    # b = 1 and b = 2 are feasible for x0 + x1 = b: a verdict of infeasible
    # on a first solve or on a later one fails the Farkas check
    warm = lp.MinLP([1, 1], [{0: 1, 1: 1}])
    assert warm.solve([1]).value == 1
    monkeypatch.setattr(lp.MinLP, "_dual_simplex", lambda held: 0)
    with pytest.raises(CertificateError, match="Farkas"):
        warm.solve([2])
    with pytest.raises(CertificateError, match="Farkas"):
        lp.MinLP([1, 1], [{0: 1, 1: 1}]).solve([1])


def assert_pivots_like_the_tableau(c, A, bs) -> int:
    """Solve each b of bs in turn on one revised MinLP and on one dense
    tableau (``oracles.MinLP``, the solver before the revised one): every
    solve makes the same pivots and returns the same status, value, x and
    y.  Returns the number of pivots."""
    made: dict[str, list] = {"revised": [], "tableau": []}
    revised_pivot, tableau_pivot = lp.MinLP._pivot, oracles._pivot

    def on_revised(held, i, j, alpha):
        made["revised"].append((i, j))
        revised_pivot(held, i, j, alpha)

    def on_tableau(tab, den, basis, i, j):
        made["tableau"].append((i, j))
        tableau_pivot(tab, den, basis, i, j)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp.MinLP, "_pivot", on_revised)
        mp.setattr(oracles, "_pivot", on_tableau)
        revised, tableau = lp.MinLP(c, A), oracles.MinLP(c, dense_rows(A, len(c)))
        for b in bs:
            new, old = revised.solve(b), tableau.solve(b)
            assert made["revised"] == made["tableau"]
            assert (new.status, new.value) == (old.status, old.value)
            if new.status == "optimal":
                assert (fractions(new.x), fractions(new.dual)) == (old.x, old.dual)
    return len(made["revised"])


@settings(max_examples=60)
@given(lp_runs())
def test_pivots_match_the_tableau_oracle(run):
    c, A, bs, _ = run
    assert_pivots_like_the_tableau(c, A, bs)


@pytest.mark.parametrize("argv", [
    ["fill", "--group", "f2.json", "--radius", "2", "--seed", "0"],
    ["fill", "--group", "f2.json", "--radius", "2", "--seed", "4"],
    ["dehn", "--complex", "octahedron.json", "--degree", "1", "--k", "7"],
], ids=["fill-f2-seed0", "fill-f2-seed4", "dehn-octahedron-k7"])
def test_cli_lps_pivot_like_the_tableau_oracle(argv, monkeypatch, tmp_path):
    # every LP of the benchmarked fill and dehn runs, solved by both
    lps = []

    def recording(c, A, bs):
        bs = list(bs)
        lps.append((c, A, bs))
        return solve_min_lp(c, A, bs)

    monkeypatch.setattr(dehn, "solve_min_lp", recording)
    argv = [str(fixture_path(a)) if prev in ("--group", "--complex") else a
            for prev, a in zip([None] + argv, argv)]
    assert cli.main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert len(lps) == 1
    assert assert_pivots_like_the_tableau(*lps[0]) > 0
