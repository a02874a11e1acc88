import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from burghelea import DescriptorError, GroupMismatchError, WorkbenchError, parse_group
from burghelea.groups import FreeGroup, reduce_word

from conftest import load_complex_obj, load_model

S4 = {"type": "finite_perm", "degree": 4,
      "generators": [[1, 0, 2, 3], [1, 2, 3, 0], [3, 0, 1, 2]]}


def test_free_reduction_examples():
    f2 = FreeGroup(2)
    a, b = (1,), (2,)
    assert f2.mul(a, f2.inv(a)) == ()
    assert f2.mul(f2.mul(a, b), f2.inv(f2.mul(a, b))) == ()
    # ab -> B A under inversion
    assert f2.inv(f2.mul(a, b)) == (-2, -1)


def test_free_abelian_examples(zz):
    assert zz.mul((2, 1), (-1, 3)) == (1, 4)
    assert zz.inv((2, 1)) == (-2, -1)


def test_table_example(z4):
    three, two = z4.parse_element("g3"), z4.parse_element("g2")
    assert z4.element_str(z4.mul(three, two)) == "g"
    assert z4.element_str(z4.inv(three)) == "g"


@pytest.mark.parametrize("name", ["z2.json", "z4.json", "s3.json", "d4.json"])
def test_group_axioms_exhaustive_finite(name):
    m = load_model(name)
    elems = m.elements()
    e = m.identity
    for a in elems:
        assert m.mul(a, e) == a == m.mul(e, a)
        assert m.mul(a, m.inv(a)) == e
    for a, b, c in itertools.product(elems, repeat=3):
        assert m.mul(m.mul(a, b), c) == m.mul(a, m.mul(b, c))


@pytest.mark.parametrize("name", ["f2.json", "zz.json", "f2xz.json"])
def test_group_axioms_sampled_infinite(name, metrics):
    # elements drawn from the radius-4 ball; sampled triples
    m = load_model(name)
    ball = metrics(m).ball(4) if name != "f2xz.json" else metrics(m).ball(3)
    rng = random.Random(11)
    e = m.identity
    for _ in range(300):
        a, b, c = (rng.choice(ball) for _ in range(3))
        assert m.mul(m.mul(a, b), c) == m.mul(a, m.mul(b, c))
        assert m.mul(a, e) == a == m.mul(e, a)
        assert m.mul(a, m.inv(a)) == e


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
def test_free_words_canonical(letters):
    f2 = FreeGroup(2)
    w = reduce_word(letters)
    f2.check_element(w)  # reduced
    # canonical encodings are unique: rebuilding by multiplication agrees
    acc = ()
    for x in letters:
        acc = f2.mul(acc, (x,))
    assert acc == w


def test_symmetric_generators_and_identity_excluded(s3, d4, f2, zz):
    for m in (s3, d4, f2, zz):
        gens = set(m.generators)
        assert m.identity not in gens
        assert all(m.inv(g) in gens for g in gens)


def test_product_generators(f2xz):
    # componentwise generators extended by identities
    f2, z = f2xz.factors
    expected = {((1,), (0,)), ((-1,), (0,)), ((2,), (0,)), ((-2,), (0,)),
                ((), (1,)), ((), (-1,))}
    assert set(f2xz.generators) == expected


def test_parse_group_errors():
    with pytest.raises(DescriptorError):
        parse_group({"type": "finite_perm", "degree": 3, "generators": [[1, 2, 0]]})  # not symmetric
    with pytest.raises(DescriptorError):
        parse_group({"type": "finite_perm", "degree": 3, "generators": [[0, 0, 1]]})  # malformed
    bad_table = {"type": "finite_table", "elements": ["e", "x", "y"],
                 "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]], "generators": ["x", "y"]}
    with pytest.raises(DescriptorError):
        parse_group(bad_table)  # fails latin-square/associativity validation
    with pytest.raises(DescriptorError):
        parse_group({"type": "nope"})
    with pytest.raises(DescriptorError):
        parse_group({"type": "finite_table", "elements": ["e", "g"],
                     "table": [[0, 1], [1, 0]], "generators": []})
    # non-generating set
    z4 = {"type": "finite_table", "elements": ["e", "a", "b", "c"],
          "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
          "generators": ["a"]}
    with pytest.raises(DescriptorError):
        parse_group(z4)


@pytest.mark.parametrize("descriptor", [
    {"type": "free", "rank": "2"},
    {"type": "free", "rank": True},
    {"type": "free_abelian", "rank": 2.0},
    {"type": "free_abelian", "rank": True},
    {"type": "finite_perm", "degree": "3", "generators": [[1, 0, 2], [0, 2, 1]]},
    {"type": "finite_perm", "degree": 3, "generators": [["1", 0, 2], [0, 2, 1]]},
    {"type": "finite_perm", "degree": 3, "generators": [[True, 0, 2], [0, 2, 1]]},
    {"type": "finite_perm", "degree": 3, "generators": 7},
    {"type": "finite_table", "elements": [["e"], "g"], "table": [[0, 1], [1, 0]],
     "generators": ["g"]},
    {"type": "finite_table", "elements": ["e", "g"], "table": [[0, True], [1, 0]],
     "generators": ["g"]},
    {"type": "finite_table", "elements": ["e", "g"], "table": [[0, 1], [1, 0]],
     "generators": [["g"]]},
    {"type": "free", "rank": 2, "name": 5},
    {"type": "product", "factors": [S4, S4]},  # order 576 > the cap of 24
])
def test_malformed_descriptor_is_descriptor_error(descriptor):
    with pytest.raises(DescriptorError):
        parse_group(descriptor)


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5)
    | st.text("01aeg[],", max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text("ae", max_size=2), kids,
                                                             max_size=2),
    max_leaves=12)
_fields = {k: _json for k in ("name", "elements", "table", "generators", "degree", "rank")}
_descriptors = st.recursive(
    st.fixed_dictionaries(
        {"type": st.sampled_from(["finite_table", "finite_perm", "free", "free_abelian"])},
        optional=_fields),
    lambda kids: st.fixed_dictionaries({"type": st.just("product")},
                                       optional={"factors": st.lists(kids, max_size=3) | _json}),
    max_leaves=3)


@settings(max_examples=300)
@given(_descriptors | _json | st.text(max_size=20))
def test_parse_group_raises_only_workbench_errors(descriptor):
    # integers stay small: a huge rank or degree is a memory question
    try:
        parse_group(descriptor)
    except WorkbenchError:
        pass


def test_unparsable_element_numbers(s3, zz, f2xz):
    for m, text in ((s3, "[1,x,2]"), (s3, "[,]"), (zz, "(1,a)"), (zz, "()"),
                    (f2xz, "(a; 1.5)")):
        with pytest.raises(GroupMismatchError):
            m.parse_element(text)


_MODELS = [load_model(n) for n in ("z4.json", "s3.json", "f2.json", "zz.json", "f2xz.json")]
_MODELS.append(parse_group({"type": "product", "factors": [
    load_complex_obj("s3.json"), {"type": "free_abelian", "rank": 1}]}))


@settings(max_examples=200)
@given(st.text("0123456789-,;()[] abAeg", max_size=12) | st.text(max_size=8))
def test_parse_element_raises_only_workbench_errors(text):
    for m in _MODELS:
        try:
            m.parse_element(text)
        except WorkbenchError:
            pass


def test_membership_validation(f2, zz, z4):
    with pytest.raises(GroupMismatchError):
        f2.mul((1, -1), (2,))  # unreduced word
    with pytest.raises(GroupMismatchError):
        f2.mul((3,), (1,))  # letter outside rank-2 alphabet
    with pytest.raises(GroupMismatchError):
        zz.mul((1,), (0, 0))  # wrong rank
    with pytest.raises(GroupMismatchError):
        z4.mul(7, 1)  # index out of range


def test_element_strings_round_trip(s3, f2, zz, f2xz):
    for m, elems in [
        (s3, s3.elements()),
        (f2, [(), (1,), (1, 2, -1), (-2, -2)]),
        (zz, [(0, 0), (3, -2)]),
        (f2xz, [((1, 2), (5,)), ((), (0,))]),
    ]:
        for g in elems:
            assert m.parse_element(m.element_str(g)) == g
