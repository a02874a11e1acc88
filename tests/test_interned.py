"""The interned view of a model (``groups.InternedModel``): its law on ints
is the base law read through the table, and the identity suites report the
same on it as on the raw model, which stays the reference path."""
import itertools

import pytest

from burghelea import GroupMismatchError
from burghelea.groups import InternedModel
from burghelea.metric import coset_section
from burghelea.verify import run_identity_suite

from conftest import load_model

# each fixture at its default classes, and a non-central class of each
# realization an explicit class reaches: cyclic, product and finite_list
RUNS = [(name, None) for name in ("z2.json", "z4.json", "s3.json", "d4.json", "f2.json",
                                  "zz.json", "f2xz.json")] + [
    ("f2.json", "aab"), ("f2xz.json", "(aab; (1))"), ("s3.json", "[1,0,2]"),
    ("d4.json", "[1,2,3,0]")]


@pytest.mark.parametrize("name, rep", RUNS)
def test_identity_reports_match_the_raw_model(name, rep):
    raw = load_model(name)
    interned = InternedModel(raw)
    sizes = dict(max_degree=2, samples=4, seed=3, radius=1)
    expected = run_identity_suite(raw, raw.parse_element(rep) if rep else None, **sizes)
    got = run_identity_suite(interned, interned.parse_element(rep) if rep else None, **sizes)
    assert got == expected
    assert expected["all_passed"] and expected["checks"]


@pytest.mark.parametrize("name, rep", [run for run in RUNS if run[1]])
def test_the_interned_section_is_the_base_section(name, rep):
    raw = load_model(name)
    m = InternedModel(raw)
    base = coset_section(raw, raw.parse_element(rep))
    section = coset_section(m, m.parse_element(rep))
    assert section.realization == base.realization in ("cyclic", "product", "finite_list")
    for i in m.metric.ball(2):
        g = m.table[i]
        assert m.table[section.section(i)] == base.section(g)
        product = m.conj(i, section.h)
        assert m.table[section.conjugator(product)] == base.conjugator(m.table[product])
        inside = raw.commutes(g, base.h)
        assert m.commutes(i, section.h) == inside
        if inside:
            assert section.intrinsic_length(i) == base.intrinsic_length(g)


@pytest.mark.parametrize("name", ["s3.json", "d4.json", "f2.json", "zz.json", "f2xz.json"])
def test_the_interned_law_is_the_base_law(name):
    base = load_model(name)
    m = InternedModel(base)
    table = m.table
    ball = m.metric.ball(2)
    assert [table[i] for i in ball] == base.metric.ball(2)
    assert table[m.identity] == base.identity
    # every ordered pair, so a memo that answers (b, a) for (a, b) is caught
    # on a pair that does not commute
    for i, j in itertools.product(ball, repeat=2):
        assert table[m._mul(i, j)] == base._mul(table[i], table[j])
    for i in ball:
        assert table[m._inv(i)] == base._inv(table[i])


def test_check_element_takes_an_int_of_the_table_only():
    base = load_model("f2xz.json")
    m = InternedModel(base)
    m.metric.ball(1)
    for bad in (True, -1, len(m.table), base.identity, base.generators[0]):
        with pytest.raises(GroupMismatchError):
            m.check_element(bad)
    for i in range(len(m.table)):
        m.check_element(i)
