import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from burghelea import (
    DescriptorError,
    NotABoundaryError,
    ResourceCapError,
    SimplicialComplex,
    dehn_function,
    filling_estimate_check,
)
from burghelea import dehn
from burghelea.bar_complexes import boundary_cbar
from burghelea.chains import Chain, tuple_diameter
from burghelea.cli import _SUBCOMMANDS
from burghelea.dehn import BarTruncation, enumerate_boundaries, min_l1_fillings
from burghelea.linalg import RationalEchelon
from burghelea.lp import solve_min_lp
from burghelea.norms import NormFamily

from conftest import MALFORMED_COMPLEXES, assert_certified, load_complex_obj, load_model
from oracles import OracleCapError, index_of, integer_min_filling, min_l1_filling

F = Fraction
# the boundary walk's cap is the dehn subcommand's --cap default
CAP = _SUBCOMMANDS["dehn"][2]["--cap"]


@pytest.fixture(scope="module")
def octahedron():
    return SimplicialComplex.from_obj(load_complex_obj("octahedron.json"))


@pytest.fixture(scope="module")
def tetrahedron():
    return SimplicialComplex.from_obj(load_complex_obj("tetrahedron.json"))


@pytest.fixture(scope="module")
def triangle():
    return SimplicialComplex.from_obj(load_complex_obj("triangle.json"))


@pytest.fixture(scope="module")
def fan6():
    return SimplicialComplex.from_obj(load_complex_obj("fan6.json"))


def test_complex_validation():
    with pytest.raises(DescriptorError):
        SimplicialComplex([0, 1, 2], {2: [(0, 1, 2)]})  # edges missing
    with pytest.raises(DescriptorError):
        SimplicialComplex([0, 1], {1: [(0, 1), (1, 0)]})  # duplicate after sorting
    with pytest.raises(DescriptorError):
        SimplicialComplex([0, 1], {1: [(0, 0)]})  # degenerate simplex
    X = SimplicialComplex([0, 1, 2], {1: [(0, 1), (0, 2), (1, 2)], 2: [(0, 1, 2)]})
    assert X.dimension_size(2) == 1
    for obj in MALFORMED_COMPLEXES:
        with pytest.raises(DescriptorError):
            SimplicialComplex.from_obj(obj)
    Y = SimplicialComplex.from_obj({"vertices": [0, "a"], "simplices": {"1": [["a", 0]]}})
    assert Y.simplices[1] == ((0, "a"),)


def test_boundary_columns_signs(triangle):
    (col,) = triangle.boundary_columns(2)
    # d(0,1,2) = (1,2) - (0,2) + (0,1)
    idx = {s: i for i, s in enumerate(triangle.simplices[1])}
    assert col == {idx[(1, 2)]: 1, idx[(0, 2)]: -1, idx[(0, 1)]: 1}


def test_single_simplex_fill(triangle):
    b = {(1, 2): F(1), (0, 2): F(-1), (0, 1): F(1)}
    assert min_l1_filling(triangle, b, 1) == 1
    assert integer_min_filling(triangle, b, 1, 24) == 1


def test_zero_chain_fill(triangle, octahedron):
    for X in (triangle, octahedron):
        assert min_l1_filling(X, {}, 1) == 0
        assert integer_min_filling(X, {}, 1, 24) == 0


def _recorded_lps(monkeypatch):
    """(c, A, bs, results) of each solve_min_lp call dehn makes."""
    lps = []

    def recording(c, A, bs):
        lps.append((c, A, bs, solve_min_lp(c, A, bs)))
        return lps[-1][-1]

    monkeypatch.setattr(dehn, "solve_min_lp", recording)
    return lps


def test_octahedron_equatorial_cycle(octahedron, monkeypatch):
    # pinned regression value: either hemisphere fills with 4 triangles
    lps = _recorded_lps(monkeypatch)
    b = {(1, 2): F(1), (2, 3): F(1), (3, 4): F(1), (1, 4): F(-1)}
    assert min_l1_filling(octahedron, b, 1) == 4
    assert integer_min_filling(octahedron, b, 1, 8) == 4
    # the LP's x, a+ then a-, is an exact filling of l1 norm the value
    ((_, _, _, [res]),) = lps
    cols = octahedron.boundary_columns(2)
    X, dx = res.x
    witness = {j: F(X[j] - X[len(cols) + j], dx) for j in range(len(cols))}
    acc = {}
    for j, coeff in witness.items():
        for i, s in cols[j].items():
            acc[i] = acc.get(i, F(0)) + coeff * s
    target = {index_of(octahedron, 1, s): q for s, q in b.items()}
    assert {i: v for i, v in acc.items() if v} == target
    assert sum(abs(v) for v in witness.values()) == res.value == 4


def test_octahedron_pentagon_certifies(octahedron, monkeypatch):
    # regression: the LP's rows are dependent (d_2 has rank 7 on 12 edges);
    # the dual used to be solved on the wrong rows once the redundant ones
    # were dropped, and this optimum went uncertified
    lps = _recorded_lps(monkeypatch)
    b = {(1, 2): F(1), (1, 4): F(-1), (2, 3): F(1), (3, 5): F(1), (4, 5): F(-1)}
    assert min_l1_filling(octahedron, b, 1) == 3
    ((c, A, [b_vec], [res]),) = lps
    assert_certified(c, A, b_vec, res)


def test_not_a_boundary(octahedron):
    # a single edge is not a cycle, hence not a boundary
    with pytest.raises(NotABoundaryError):
        min_l1_filling(octahedron, {(0, 1): F(1)}, 1)
    with pytest.raises(NotABoundaryError):
        integer_min_filling(octahedron, {(0, 1): F(1)}, 1, 24)
    # a cycle that does not bound: the circle complex has no 2-simplices
    circle = SimplicialComplex([0, 1, 2], {1: [(0, 1), (0, 2), (1, 2)]})
    b = {(0, 1): F(1), (1, 2): F(1), (0, 2): F(-1)}
    with pytest.raises(NotABoundaryError):
        min_l1_filling(circle, b, 1)


def test_oracle_cap_error(octahedron):
    b = {(1, 2): F(1), (2, 3): F(1), (3, 4): F(1), (1, 4): F(-1)}
    with pytest.raises(OracleCapError):
        integer_min_filling(octahedron, b, 1, 3)


def _over_simplices(X, vec):
    """An edge chain given by edge index, keyed by the edges instead."""
    return {X.simplices[1][i]: q for i, q in vec.items()}


def test_lp_matches_oracle_small_boundaries(triangle, tetrahedron, fan6):
    # one LP for all the boundaries of a complex, each solved warm from the last
    for X in (triangle, tetrahedron, fan6):
        targets = [{i: F(v) for i, v in b.items()} for b in enumerate_boundaries(X, 1, 3, CAP)]
        fillings = min_l1_fillings(X.boundary_columns(2), X.dimension_size(1), targets)
        assert len(fillings) == len(targets)
        for target, lp in zip(targets, fillings):
            oracle = integer_min_filling(X, _over_simplices(X, target), 1, 10)
            assert lp <= oracle
            assert lp == oracle


def _ball_boundaries(columns, size, k):
    """The reference enumeration: every nonzero integer vector of l1 <= k,
    first nonzero entry positive, in the order of support size, support,
    magnitudes and signs, tested against the echelon of the boundary
    columns."""
    span = RationalEchelon(columns)
    for support_size in range(1, min(size, k) + 1):
        for support in itertools.combinations(range(size), support_size):
            for mags in _compositions(k, support_size):
                for signs in itertools.product((1, -1), repeat=support_size - 1):
                    vec = {i: m * s for i, m, s in zip(support, mags, (1,) + signs)}
                    if span.contains(vec):
                        yield vec


def _compositions(total, parts):
    """All positive integer tuples of the given length with sum <= total."""
    if parts == 1:
        yield from ((v,) for v in range(1, total + 1))
        return
    for v in range(1, total - parts + 2):
        for rest in _compositions(total - v, parts - 1):
            yield (v,) + rest


@pytest.mark.parametrize("name", ["triangle.json", "tetrahedron.json", "fan6.json",
                                  "octahedron.json"])
def test_enumeration_matches_ball_walk(name):
    X = SimplicialComplex.from_obj(load_complex_obj(name))
    for dim in X.simplices:
        for k in range(5):
            expected = list(_ball_boundaries(X.boundary_columns(dim + 1),
                                             X.dimension_size(dim), k))
            got = list(enumerate_boundaries(X, dim, k, CAP))
            assert got == expected
            assert [list(v) for v in got] == [list(v) for v in expected]


class _OneMatrix:
    """A boundary matrix alone, read the way enumerate_boundaries reads a
    complex."""

    def __init__(self, columns, size):
        self.columns, self.size = columns, size

    def boundary_columns(self, dim):
        return self.columns

    def dimension_size(self, dim):
        return self.size


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(lambda size: st.tuples(
    st.just(size),
    st.lists(st.dictionaries(st.integers(0, size - 1), st.integers(-3, 3).filter(bool),
                             max_size=size), max_size=4),
    st.integers(0, 4))))
def test_enumeration_matches_ball_walk_any_matrix(size_columns_k):
    # the fixture complexes all have reduced pivots 1; general integer
    # columns give a common pivot L > 1, so the divisibility pruning counts
    size, columns, k = size_columns_k
    expected = list(_ball_boundaries(columns, size, k))
    assert list(enumerate_boundaries(_OneMatrix(columns, size), 0, k, CAP)) == expected


def test_enumeration_cap_counts_steps(octahedron):
    # the walk to the 259 boundaries of l1 <= 7 takes 13,823 steps; a cap
    # below that yields what was found, in order, then raises
    full = list(enumerate_boundaries(octahedron, 1, 7, CAP))
    assert len(full) == 259
    assert len(list(enumerate_boundaries(octahedron, 1, 7, cap=13_823))) == 259
    for cap in (0, 100, 13_822):
        got = []
        with pytest.raises(ResourceCapError):
            for b in enumerate_boundaries(octahedron, 1, 7, cap=cap):
                got.append(b)
        assert all(b in full for b in got)
        assert got == sorted(got, key=full.index)
        assert (got == []) == (cap == 0)


def test_dehn_table_monotone(triangle, tetrahedron, fan6):
    for X, kmax in ((triangle, 3), (tetrahedron, 4), (fan6, 4)):
        table = dehn_function(X, 1, kmax, CAP)
        values = [F(r["dehn_value"]) for r in table["rows"]]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[0] == 0
        assert not table["partial"]


def test_dehn_builds_each_boundary_matrix_once(monkeypatch):
    built = []
    real = dehn.boundary_columns

    def counting(basis, index_prev, faces):
        built.append(len(basis))
        return real(basis, index_prev, faces)

    monkeypatch.setattr(dehn, "boundary_columns", counting)
    X = SimplicialComplex.from_obj(load_complex_obj("octahedron.json"))
    dehn_function(X, 1, 3, CAP)
    # d_1 and d_2, each once: the dd = 0 check, the LP and the boundary
    # enumeration share the columns
    assert built == [X.dimension_size(1), X.dimension_size(2)]


def test_dehn_tetrahedron_triangle_fills(tetrahedron):
    table = dehn_function(tetrahedron, 1, 3, CAP)
    # a 3-cycle boundary fills with a single face
    assert F(table["rows"][3]["dehn_value"]) >= 1
    assert table["rows"][3]["witness_boundary"]


def test_fan_rim_cycle_fills_with_m_triangles(fan6):
    rim = {(1, 2): F(1), (2, 3): F(1), (3, 4): F(1), (4, 5): F(1),
           (5, 6): F(1), (1, 6): F(-1)}
    assert min_l1_filling(fan6, rim, 1) == 6
    assert integer_min_filling(fan6, rim, 1, 8) == 6


def test_dd_zero_validation():
    ok = SimplicialComplex.from_obj(load_complex_obj("octahedron.json"))
    cols2 = ok.boundary_columns(2)
    cols1 = ok.boundary_columns(1)
    for col in cols2:
        acc = {}
        for j, sj in col.items():
            for i, si in cols1[j].items():
                acc[i] = acc.get(i, 0) + sj * si
        assert not any(acc.values())


@settings(max_examples=20)
@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
               .map(lambda t: tuple(sorted(set(t)))).filter(lambda t: len(t) == 3),
               min_size=1, max_size=4))
def test_random_complexes_lp_le_oracle(faces):
    vertices = sorted({v for f in faces for v in f})
    edges = sorted({(f[i], f[j]) for f in faces for i in range(3) for j in range(i + 1, 3)})
    X = SimplicialComplex(vertices, {1: list(edges), 2: sorted(faces)})
    cols = X.boundary_columns(2)
    face0 = X.simplices[2][0]
    b = {i: F(v) for i, v in X.boundary_columns(2)[0].items()}
    [lp] = min_l1_fillings(cols, X.dimension_size(1), [b])
    oracle = integer_min_filling(X, _over_simplices(X, b), 1, 6)
    assert lp <= oracle <= 1  # the face itself is a filling


# -- truncated bar complex ------------------------------------------------------

def test_bar_truncation_is_subcomplex():
    zz = load_model("zz.json")
    wm = zz.metric
    trunc = BarTruncation(zz, 2, 2)
    # every boundary column stays inside the lower basis (no KeyError)
    cols = trunc.boundary_columns(2)
    assert cols and all(isinstance(c, dict) for c in cols)
    assert len(trunc.bases[1]) == len(wm.ball(2))


@pytest.mark.parametrize("name, max_degree, radius",
                         [("f2", 4, 1), ("f2", 3, 2), ("zz", 4, 1), ("zz", 3, 2)])
def test_bar_truncation_grown_bases_equal_product_filter(name, max_degree, radius, request):
    # each degree grows from the one below; the reference filters every
    # tuple of ball elements by its diameter, in the same order
    m = request.getfixturevalue(name)
    trunc = BarTruncation(m, max_degree, radius)
    ball = m.metric.ball(radius)
    for n in range(max_degree + 1):
        ref = sorted(((m.identity,) + rest for rest in itertools.product(ball, repeat=n)
                      if tuple_diameter(m, (m.identity,) + rest) <= radius),
                     key=lambda t: tuple(m.element_key(x) for x in t))
        assert trunc.bases[n] == ref


@pytest.mark.parametrize("name", ["f2", "zz", "f2xz"])
@pytest.mark.parametrize("degree", [1, 2])
def test_bar_truncation_columns_and_diameters_match_the_chain_path(name, degree, request):
    # fill reads each sample off a boundary column and its norms off the
    # diameters; the reference is the chain path: boundary_cbar of the basis
    # tuple, mapped through the degree's index, and the rd-chain norm
    m = request.getfixturevalue(name)
    trunc = BarTruncation(m, degree + 1, 2)
    nf = NormFamily(m, "rd-chain")
    index = {t: i for i, t in enumerate(trunc.bases[degree])}
    upper, lower = trunc.diameters(degree + 1), trunc.diameters(degree)
    for j, (t, col) in enumerate(zip(trunc.bases[degree + 1],
                                     trunc.boundary_columns(degree + 1))):
        b0 = Chain.basis("cbar", degree + 1, t)
        c = boundary_cbar(m, b0)
        assert col == {index[u]: q for u, q in c.terms.items()}
        for k in range(3):
            assert upper[j] ** k == nf.norm(b0, k)
            assert sum(abs(v) * lower[i] ** k for i, v in col.items()) == nf.norm(c, k)


def test_filling_estimate_boundaries_fill():
    zz = load_model("zz.json")
    report = filling_estimate_check(zz, degree=1, radius=2, k=0,
                                    p_grid=[0, 1], samples=8, seed=4)
    assert report["rows"]
    for row in report["rows"]:
        assert row["status"] in ("ok", "zero_boundary")
        if row["status"] == "ok":
            # c = d(b0) so the LP value is at most |b0|_{k,1}
            assert F(row["fill_norm_k"]) <= F(row["source_norm_k"])


def test_ratio_bound_is_exact(monkeypatch):
    # a max ratio r above the bound is not bounded, even where float(r)
    # rounds down onto the bound: here r = 1/3 at p = 0, float(r) < 1/3
    zz = load_model("zz.json")
    args = dict(degree=1, radius=2, k=0, p_grid=[0, 1], samples=8, seed=2)
    report = filling_estimate_check(zz, **args)
    r = F(report["max_ratio_per_p"]["0"])
    assert report["least_bounded_p"] == 0 and F(float(r)) < r
    monkeypatch.setattr(dehn, "RATIO_BOUND", float(r))
    report = filling_estimate_check(zz, **args)
    assert report["least_bounded_p"] == 1 and report["ratio_bound"] == float(r)


def test_filling_estimate_truncation_error():
    # delta_(e, e1) generates H_1(Z^2) rationally, so it cannot bound in the
    # truncation: the LP proves it infeasible, also after a target that fills
    zz = load_model("zz.json")
    trunc = BarTruncation(zz, 2, 1)
    cols = trunc.boundary_columns(2)
    target = {trunc.bases[1].index(((0, 0), (1, 0))): 1}
    with pytest.raises(NotABoundaryError):
        min_l1_fillings(cols, len(trunc.bases[1]), [target])
    with pytest.raises(NotABoundaryError):
        min_l1_fillings(cols, len(trunc.bases[1]), [{i: F(s) for i, s in cols[0].items()},
                                                    target])


def test_min_l1_fillings_checks_the_space_cap_first(monkeypatch):
    # 300 x (600 + 301) tableau entries at 24 bytes: about 6.2 MB
    monkeypatch.setenv("BURGHELEA_CAP_MB", "6")
    monkeypatch.setattr(dehn, "solve_min_lp", lambda *args: pytest.fail("an LP was built"))
    with pytest.raises(ResourceCapError, match=r"300 rows by 600 columns, needs about 6\.2 MB, "
                                               r"cap is 6 MB"):
        min_l1_fillings([{}] * 300, 300, [{}])


def _lp_calls(monkeypatch):
    """The number of right-hand sides of each solve_min_lp call dehn makes."""
    calls = []

    def counting(c, A, bs):
        bs = list(bs)
        calls.append(len(bs))
        return solve_min_lp(c, A, bs)

    monkeypatch.setattr(dehn, "solve_min_lp", counting)
    return calls


@pytest.mark.parametrize("cap", [CAP, 50])
def test_dehn_run_is_one_lp(octahedron, cap, monkeypatch):
    # every boundary of the run, also of a partial run, is a right-hand side
    # of one LP on d_2
    calls = _lp_calls(monkeypatch)
    table = dehn_function(octahedron, 1, 4, enumeration_cap=cap)
    assert table["partial"] == (cap == 50)
    found = []
    try:
        found.extend(enumerate_boundaries(octahedron, 1, 4, cap=cap))
    except ResourceCapError:
        pass
    assert calls == [len(found)] and len(found) > 1


def test_fill_run_is_one_lp(monkeypatch):
    # every sample with a nonzero boundary is a right-hand side of one LP
    calls = _lp_calls(monkeypatch)
    zz = load_model("zz.json")
    report = filling_estimate_check(zz, degree=1, radius=2, k=0,
                                    p_grid=[0, 1], samples=8, seed=4)
    ok = [row for row in report["rows"] if row["status"] == "ok"]
    assert calls == [len(ok)] and len(ok) > 1
