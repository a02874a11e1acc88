import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from burghelea import (
    DescriptorError,
    NotABoundaryError,
    OracleCapError,
    SimplicialComplex,
    dehn_function,
    filling_estimate_check,
    min_l1_filling,
)
from burghelea import dehn
from burghelea.dehn import BarTruncation, enumerate_boundaries, min_l1_filling_vec

from conftest import load_complex_obj, load_model

F = Fraction


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


def test_boundary_columns_signs(triangle):
    (col,) = triangle.boundary_columns(2)
    # d(0,1,2) = (1,2) - (0,2) + (0,1)
    idx = {s: i for i, s in enumerate(triangle.simplices[1])}
    assert col == {idx[(1, 2)]: 1, idx[(0, 2)]: -1, idx[(0, 1)]: 1}


def test_single_simplex_fill(triangle):
    b = {(1, 2): F(1), (0, 2): F(-1), (0, 1): F(1)}
    res = min_l1_filling(triangle, b, 1)
    assert res.value == 1 and res.status == "optimal"
    oracle = min_l1_filling(triangle, b, 1, mode="integer-oracle")
    assert oracle.value == 1


def test_zero_chain_fill(triangle, octahedron):
    for X in (triangle, octahedron):
        assert min_l1_filling(X, {}, 1).value == 0
        assert min_l1_filling(X, {}, 1, mode="integer-oracle").value == 0


def test_octahedron_equatorial_cycle(octahedron):
    # pinned regression value: either hemisphere fills with 4 triangles
    b = {(1, 2): F(1), (2, 3): F(1), (3, 4): F(1), (1, 4): F(-1)}
    lp = min_l1_filling(octahedron, b, 1)
    oracle = min_l1_filling(octahedron, b, 1, mode="integer-oracle", oracle_cap=8)
    assert lp.value == 4
    assert oracle.value == 4
    assert lp.duality_ok
    # the witness is an exact filling
    cols = octahedron.boundary_columns(2)
    acc = {}
    for j, coeff in lp.witness.items():
        for i, s in cols[j].items():
            acc[i] = acc.get(i, F(0)) + coeff * s
    target = {octahedron.index_of(1, s): q for s, q in b.items()}
    assert {i: v for i, v in acc.items() if v} == target
    assert sum(abs(v) for v in lp.witness.values()) == lp.value


def test_not_a_boundary(octahedron):
    # a single edge is not a cycle, hence not a boundary
    with pytest.raises(NotABoundaryError):
        min_l1_filling(octahedron, {(0, 1): F(1)}, 1)
    with pytest.raises(NotABoundaryError):
        min_l1_filling(octahedron, {(0, 1): F(1)}, 1, mode="integer-oracle")
    # a cycle that does not bound: the circle complex has no 2-simplices
    circle = SimplicialComplex([0, 1, 2], {1: [(0, 1), (0, 2), (1, 2)]})
    b = {(0, 1): F(1), (1, 2): F(1), (0, 2): F(-1)}
    with pytest.raises(NotABoundaryError):
        min_l1_filling(circle, b, 1)


def test_oracle_cap_error(octahedron):
    b = {(1, 2): F(1), (2, 3): F(1), (3, 4): F(1), (1, 4): F(-1)}
    with pytest.raises(OracleCapError):
        min_l1_filling(octahedron, b, 1, mode="integer-oracle", oracle_cap=3)


def test_lp_matches_oracle_small_boundaries(triangle, tetrahedron, fan6):
    for X in (triangle, tetrahedron, fan6):
        for b in enumerate_boundaries(X, 1, 3):
            target = {i: F(v) for i, v in b.items()}
            cols = X.boundary_columns(2)
            lp = min_l1_filling_vec(cols, X.dimension_size(1), target)
            oracle = min_l1_filling_vec(cols, X.dimension_size(1), target,
                                        mode="integer-oracle", oracle_cap=10)
            assert lp.value <= oracle.value
            assert lp.value == oracle.value


def test_dehn_table_monotone(triangle, tetrahedron, fan6):
    for X, kmax in ((triangle, 3), (tetrahedron, 4), (fan6, 4)):
        table = dehn_function(X, 1, kmax)
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
    dehn_function(X, 1, 3)
    # d_1 and d_2, each once: the dd = 0 check, the LP and the boundary
    # enumeration share the columns
    assert built == [X.dimension_size(1), X.dimension_size(2)]


def test_dehn_tetrahedron_triangle_fills(tetrahedron):
    table = dehn_function(tetrahedron, 1, 3)
    # a 3-cycle boundary fills with a single face
    assert F(table["rows"][3]["dehn_value"]) >= 1
    assert table["rows"][3]["witness_boundary"]


def test_fan_rim_cycle_fills_with_m_triangles(fan6):
    rim = {(1, 2): F(1), (2, 3): F(1), (3, 4): F(1), (4, 5): F(1),
           (5, 6): F(1), (1, 6): F(-1)}
    res = min_l1_filling(fan6, rim, 1)
    assert res.value == 6
    oracle = min_l1_filling(fan6, rim, 1, mode="integer-oracle", oracle_cap=8)
    assert oracle.value == 6


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
    lp = min_l1_filling_vec(cols, X.dimension_size(1), b)
    oracle = min_l1_filling_vec(cols, X.dimension_size(1), b,
                                mode="integer-oracle", oracle_cap=6)
    assert lp.value <= oracle.value <= 1  # the face itself is a filling


# -- truncated bar complex ------------------------------------------------------

def test_bar_truncation_is_subcomplex(metrics):
    zz = load_model("zz.json")
    wm = metrics(zz)
    trunc = BarTruncation(zz, wm, 2, 2)
    # every boundary column stays inside the lower basis (no KeyError)
    cols = trunc.boundary_columns(2)
    assert cols and all(isinstance(c, dict) for c in cols)
    assert len(trunc.bases[1]) == len(wm.ball(2))


def test_filling_estimate_boundaries_fill(metrics):
    zz = load_model("zz.json")
    wm = metrics(zz)
    report = filling_estimate_check(zz, wm, degree=1, radius=2, k=0,
                                    p_grid=[0, 1], samples=8, seed=4)
    assert report["rows"]
    for row in report["rows"]:
        assert row["status"] in ("ok", "zero_boundary")
        if row["status"] == "ok":
            # c = d(b0) so the LP value is at most |b0|_{k,1}
            assert F(row["fill_norm_k"]) <= F(row["source_norm_k"])


def test_filling_estimate_truncation_error(metrics):
    # delta_(e, e1) generates H_1(Z^2) rationally, so it cannot bound:
    # the truncation reports it, without claiming a refutation
    from burghelea.chains import Chain
    zz = load_model("zz.json")
    wm = metrics(zz)
    trunc = BarTruncation(zz, wm, 2, 1)
    cols = trunc.boundary_columns(2)
    target = trunc.chain_to_vec(Chain.basis("cbar", 1, ((0, 0), (1, 0))), 1)
    with pytest.raises(NotABoundaryError):
        min_l1_filling_vec(cols, len(trunc.bases[1]), target)
