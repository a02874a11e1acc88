import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from burghelea import parse_group

settings.register_profile("workbench", deadline=None, max_examples=40)
settings.load_profile("workbench")

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_model(name: str):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return parse_group(json.load(fh))


def load_complex_obj(name: str) -> dict:
    with open(fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


# descriptors off the schema: vertices a list of JSON ints or strings,
# simplices an object of lists of vertex lists
MALFORMED_COMPLEXES = [
    {"vertices": 5},
    {"vertices": [0, 1, 2], "simplices": []},
    {"vertices": [0, 1, 2], "simplices": {"1": 7}},
    {"vertices": [0, 1, 2], "simplices": {"1": [5]}},
    {"vertices": [[0], 1]},
    {"vertices": [0, 1, 2], "simplices": {"1": [[0, [1]]]}},
    {"vertices": [0, True]},
    # a dimension key is its canonical decimal spelling, so no two keys name
    # one dimension
    {"vertices": [0, 1, 2], "simplices": {"1": [[0, 1], [1, 2], [0, 2]], "01": [[0, 1]]}},
    {"vertices": [0, 1], "simplices": {" 1": [[0, 1]]}},
    {"vertices": [0, 1], "simplices": {"+1": [[0, 1]]}},
    {"vertices": [0, 1], "simplices": {"1_0": []}},
    {"vertices": [0, 1], "simplices": {"\u0661": [[0, 1]]}},  # Arabic-Indic one
]


def assert_certified(c, A, b, res):
    """res is an optimum of min c.x s.t. A x = b, x >= 0, and res.dual is a
    dual solution that proves it: x >= 0, A x = b, c - A^T y >= 0, c.x = b.y."""
    F = Fraction
    x, y = res.x, res.dual
    assert res.status == "optimal" and len(x) == len(c) and len(y) == len(A)
    assert all(v >= 0 for v in x)
    for row, bi in zip(A, b):
        assert sum(F(a) * v for a, v in zip(row, x)) == F(bi)
    for j, cj in enumerate(c):
        assert F(cj) - sum(F(row[j]) * yi for row, yi in zip(A, y)) >= 0
    assert sum(F(cj) * v for cj, v in zip(c, x)) == res.value
    assert sum(F(bi) * yi for bi, yi in zip(b, y)) == res.value


@pytest.fixture(scope="session")
def z2():
    return load_model("z2.json")


@pytest.fixture(scope="session")
def z4():
    return load_model("z4.json")


@pytest.fixture(scope="session")
def s3():
    return load_model("s3.json")


@pytest.fixture(scope="session")
def d4():
    return load_model("d4.json")


@pytest.fixture(scope="session")
def f2():
    return load_model("f2.json")


@pytest.fixture(scope="session")
def zz():
    return load_model("zz.json")


@pytest.fixture(scope="session")
def f2xz():
    return load_model("f2xz.json")
