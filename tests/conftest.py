import json
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
