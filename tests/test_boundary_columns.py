"""The shared sparse boundary builder against the chain-level boundaries.

For every complex, each column that ``linalg.boundary_columns`` builds from
the complex's face map must equal the coordinates of the Chain boundary of
that basis tuple, and the columns of consecutive degrees must compose to
zero.
"""
import itertools
from functools import partial

import pytest

from burghelea import (
    SimplicialComplex,
    boundary_cbar,
    boundary_cprime,
    boundary_e,
    hochschild_boundary,
)
from burghelea.bar_complexes import cbar_faces, cprime_faces
from burghelea.chains import Chain, simplex_faces
from burghelea.hochschild import hochschild_faces
from burghelea.linalg import boundary_columns

from conftest import load_complex_obj
from oracles import index_of

MAX_DEGREE = 3

# kind -> (chain boundary, face map of a model)
COMPLEXES = {
    "hochschild": (hochschild_boundary, lambda m: partial(hochschild_faces, m.mul)),
    "cprime": (boundary_cprime, lambda m: partial(cprime_faces, m.mul)),
    "cbar": (boundary_cbar, lambda m: partial(cbar_faces, m)),
    "e": (lambda m, c: boundary_e(c), lambda m: simplex_faces),
}


def full_basis(model, kind: str, n: int) -> list[tuple]:
    elems = model.elements()
    if kind == "cprime":
        return list(itertools.product(elems, repeat=n))
    if kind == "cbar":
        return [(model.identity,) + rest for rest in itertools.product(elems, repeat=n)]
    return list(itertools.product(elems, repeat=n + 1))


def compose(high: list[dict], low: list[dict]) -> list[dict]:
    """Columns of the product low . high of two sparse column matrices."""
    out = []
    for col in high:
        acc: dict[int, int] = {}
        for j, s in col.items():
            for i, r in low[j].items():
                acc[i] = acc.get(i, 0) + s * r
        out.append({i: v for i, v in acc.items() if v})
    return out


@pytest.mark.parametrize("kind", sorted(COMPLEXES))
@pytest.mark.parametrize("fixture", ["s3", "z4"])
def test_columns_match_chain_boundary_and_compose_to_zero(fixture, kind, request):
    m = request.getfixturevalue(fixture)
    boundary, faces = COMPLEXES[kind]
    bases = [full_basis(m, kind, n) for n in range(MAX_DEGREE + 1)]
    matrices = []
    for n in range(1, MAX_DEGREE + 1):
        index = {t: i for i, t in enumerate(bases[n - 1])}
        cols = list(boundary_columns(bases[n], index, faces(m)))
        assert len(cols) == len(bases[n])
        for t, col in zip(bases[n], cols):
            assert all(type(v) is int and v for v in col.values())
            chain = boundary(m, Chain.basis(kind, n, t))
            assert col == {index[u]: q for u, q in chain.terms.items()}
        matrices.append(cols)
    assert any(matrices[-1])
    for high, low in zip(matrices[1:], matrices):
        assert not any(compose(high, low))


def test_simplicial_columns_are_alternating_faces():
    X = SimplicialComplex.from_obj(load_complex_obj("octahedron.json"))
    dims = sorted(d for d in X.simplices if d >= 1)
    for dim in dims:
        for s, col in zip(X.simplices[dim], X.boundary_columns(dim)):
            assert col == {index_of(X, dim - 1, s[:k] + s[k + 1:]): (-1) ** k
                           for k in range(len(s))}
    assert dims == [1, 2]
    assert not any(compose(X.boundary_columns(2), X.boundary_columns(1)))

