import copy
import itertools
import random
import tracemalloc
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from burghelea import (DescriptorError, GroupMismatchError, ResourceCapError, WorkbenchError,
                       parse_group)
from burghelea.groups import FreeAbelianGroup, FreeGroup, reduce_word

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
def test_group_axioms_sampled_infinite(name):
    # elements drawn from the radius-4 ball; sampled triples
    m = load_model(name)
    ball = m.metric.ball(4) if name != "f2xz.json" else m.metric.ball(3)
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
    {"type": "free_abelian", "rank": 27},  # above MAX_FREE_ABELIAN_RANK
    {"type": "finite_perm", "degree": 10**6, "generators": [[1, 0]]},
])
def test_malformed_descriptor_is_descriptor_error(descriptor):
    # memory stays bounded by the descriptor's size, whatever numbers it holds
    tracemalloc.start()
    try:
        with pytest.raises(DescriptorError):
            parse_group(descriptor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10**6) | st.floats(-2, 5)
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


def test_membership_validation(f2, zz, z4, d4, f2xz):
    with pytest.raises(GroupMismatchError):
        f2.mul((1, -1), (2,))  # unreduced word
    with pytest.raises(GroupMismatchError):
        f2.mul((3,), (1,))  # letter outside rank-2 alphabet
    with pytest.raises(GroupMismatchError):
        zz.mul((1,), (0, 0))  # wrong rank
    d4_x_z = parse_group({"type": "product", "factors": [
        load_complex_obj("d4.json"), {"type": "free_abelian", "rank": 1}]})
    bad = [
        (z4, 7), (z4, -1), (z4, 1.0), (z4, "1"),  # table index: range, type
        (d4, (1, 0, 2, 3)),  # a permutation outside D4
        (d4, (0, 1, 2)), (d4, (0, 0, 1, 2)), (d4, [0, 1, 2, 3]),  # degree, image, type
        (d4, ([0], 1, 2, 3)),  # unhashable
        (f2xz, ((1, -1), (0,))), (f2xz, ((), (0, 0))),  # one bad component
        (d4_x_z, ((1, 0, 2, 3), (0,))),
        (f2xz, ((),)), (f2xz, ((), (0,), ())), (f2xz, [(), (0,)]),  # shape
    ]
    for m, a in bad:
        with pytest.raises(GroupMismatchError):
            m.check_element(a)
        with pytest.raises(GroupMismatchError):
            m.mul(a, m.identity)
        with pytest.raises(GroupMismatchError):
            m.mul(m.identity, a)
        with pytest.raises(GroupMismatchError):
            m.inv(a)
    for m, text in ((d4, "[1,0,2,3]"), (d4_x_z, "([1,0,2,3]; (0))")):
        with pytest.raises(GroupMismatchError):
            m.parse_element(text)


def test_bool_is_not_an_element(f2, zz, z4, d4, f2xz):
    # True == 1 and hashes alike, but a letter, coordinate, table index or
    # permutation entry is an int proper, as in descriptors; element_str
    # would print it as True
    bad = [(f2, (True,)), (f2, (2, True)), (zz, (True, 0)), (zz, (0, False)),
           (z4, True), (z4, False), (d4, (False, 3, 2, True)), (d4, (0, 3, 2, True)),
           (f2xz, ((False,), (0,))), (f2xz, ((), (True,)))]
    for m, a in bad:
        with pytest.raises(GroupMismatchError):
            m.check_element(a)
        with pytest.raises(GroupMismatchError):
            m.mul(a, m.identity)
        with pytest.raises(GroupMismatchError):
            m.mul(m.identity, a)
        with pytest.raises(GroupMismatchError):
            m.inv(a)


def _elements(m):
    """Hypothesis strategy for valid elements of model m."""
    if m.kind == "product":
        return st.tuples(*map(_elements, m.factors))
    if m.is_finite:
        return st.sampled_from(m.elements())
    if m.kind == "free":
        letters = st.integers(-m.rank, m.rank).filter(bool)
        return st.lists(letters, max_size=8).map(reduce_word)
    return st.tuples(*[st.integers(-9, 9)] * m.rank)


# z4 x F2 x Z: three factors, so its kernel takes the general path
_THREE_FACTORS = parse_group({"type": "product", "factors": [
    load_complex_obj("z4.json"), {"type": "free", "rank": 2},
    {"type": "free_abelian", "rank": 1}]})

# every kind: finite_table, finite_perm, free, free_abelian, a product of
# infinite factors, a product with a finite factor, a nested product and a
# product of three factors; free and free-abelian ranks 1, 2 and 3, since
# rank 1 has its own free-abelian path
_KERNEL_MODELS = _MODELS + [parse_group({"type": "product", "factors": [
    load_complex_obj("f2xz.json"), load_complex_obj("z4.json")]}), _THREE_FACTORS,
    FreeGroup(1), FreeGroup(3), FreeAbelianGroup(1), FreeAbelianGroup(3)]


@given(st.data())
def test_kernel_matches_public_law(data):
    for m in _KERNEL_MODELS:
        a, b = data.draw(_elements(m)), data.draw(_elements(m))
        ab = m._mul(a, b)
        assert ab == m.mul(a, b)
        assert m._inv(a) == m.inv(a)
        m.check_element(ab)
        assert m._mul(ab, m._inv(b)) == a
        if m.kind == "product":
            assert ab == tuple(f.mul(x, y) for f, x, y in zip(m.factors, a, b))
        elif m.kind == "free":
            assert ab == reduce_word(a + b)
        elif m.kind == "free_abelian":
            assert ab == tuple(x + y for x, y in zip(a, b))
            assert m._inv(a) == tuple(-x for x in a)


@given(st.data())
def test_free_kernel_cancels_at_the_junction(data):
    # random reduced words seldom cancel where they meet: b = inv(a[k:]) w
    # cancels against the tail of a unless w first cancels inv(a[k:]), and
    # inv(a) cancels all of a, so the early return and the loop both run
    for m in [m for m in _KERNEL_MODELS if m.kind == "free"]:
        a = data.draw(_elements(m))
        k = data.draw(st.integers(0, len(a)))
        w = data.draw(_elements(m))
        b = reduce_word(m._inv(a[k:]) + w)
        for x, y in ((a, b), (a, m._inv(a)), (b, a), (m._inv(b), b)):
            assert m._mul(x, y) == reduce_word(x + y) == m.mul(x, y)
        assert m._mul(a, m._inv(a)) == m.identity


@given(st.data())
def test_two_factor_path_matches_general_path(data):
    # f2xz's kernel and check index its two components; a copy with the pair
    # path off runs the loop over the factors that any other count takes
    # (z4 x F2 x Z in _KERNEL_MODELS), which is the reference
    f2xz = load_model("f2xz.json")
    assert f2xz._pair and not _THREE_FACTORS._pair
    ref = copy.copy(f2xz)
    ref._pair = False
    for _ in range(10):
        a, b = data.draw(_elements(f2xz)), data.draw(_elements(f2xz))
        assert f2xz._mul(a, b) == ref._mul(a, b)
        assert f2xz._inv(a) == ref._inv(a)
    # each path rejects a bad component in either place
    for m, bad in ((f2xz, ((1, -1), (0,))), (ref, ((1, -1), (0,))), (f2xz, ((), (0, 0))),
                   (ref, ((), (0, 0))), (_THREE_FACTORS, (0, (), (True,))),
                   (_THREE_FACTORS, (4, (), (0,)))):
        with pytest.raises(GroupMismatchError):
            m.check_element(bad)


_F2XZ = load_model("f2xz.json")


@pytest.mark.parametrize("m, a, text", [
    (FreeGroup(2), (1, 3), "letter 3 outside alphabet of F2"),
    (FreeGroup(2), (1, -1), "word (1, -1) is not freely reduced"),
    (FreeGroup(2), (True,), "letter True outside alphabet of F2"),
    (FreeGroup(2), [1], "[1] is not a word tuple"),
    (FreeGroup(2), (0,), "letter 0 outside alphabet of F2"),
    (FreeGroup(2), (-3,), "letter -3 outside alphabet of F2"),
    # the letters are checked in order, each before its junction
    (FreeGroup(2), (1, -1, 3), "word (1, -1, 3) is not freely reduced"),
    (FreeGroup(2), (3, -3), "letter 3 outside alphabet of F2"),
    (FreeAbelianGroup(1), (1, 2), "(1, 2) is not a rank-1 vector"),
    (FreeAbelianGroup(1), (), "() is not a rank-1 vector"),
    (FreeAbelianGroup(1), (True,), "(True,) is not a rank-1 vector"),
    (FreeAbelianGroup(1), [1], "[1] is not a rank-1 vector"),
    (FreeAbelianGroup(2), (1,), "(1,) is not a rank-2 vector"),
    (FreeAbelianGroup(2), (1, False), "(1, False) is not a rank-2 vector"),
    (_F2XZ, ((1,),), "((1,),) has wrong number of components"),
    (_F2XZ, ((1,), (0,), (0,)), "((1,), (0,), (0,)) has wrong number of components"),
    (_F2XZ, [(1,), (0,)], "[(1,), (0,)] has wrong number of components"),
    (_F2XZ, ((1, -1), (0,)), "word (1, -1) is not freely reduced"),
    (_F2XZ, ((1,), (0, 0)), "(0, 0) is not a rank-1 vector"),
])
def test_check_element_error_texts(m, a, text):
    with pytest.raises(GroupMismatchError) as err:
        m.check_element(a)
    assert str(err.value) == text


def test_tuple_subclasses_are_elements():
    # membership is isinstance(a, tuple), so a namedtuple encoding passes
    Pair = namedtuple("Pair", "x y")
    One = namedtuple("One", "x")
    FreeGroup(2).check_element(Pair(1, 2))
    FreeAbelianGroup(2).check_element(Pair(1, -2))
    FreeAbelianGroup(1).check_element(One(5))
    _F2XZ.check_element(Pair(Pair(1, 2), One(5)))


@pytest.mark.parametrize("m, radius", [(FreeGroup(2), 100), (FreeGroup(2), 10 ** 12),
                                       (FreeGroup(1), 10 ** 12), (FreeAbelianGroup(2), 10 ** 12)])
def test_ball_past_the_cap_names_the_radius(m, radius):
    # the exact size of the F2 ball of radius 100 has 49 digits: the message
    # gives the radius instead, and a huge radius fails before any table or
    # count of its size is built
    with pytest.raises(ResourceCapError) as err:
        list(m.ball_elements(radius, 1000))
    assert str(err.value) == f"ball of radius {radius} exceeds cap 1000"
    assert len(list(m.ball_elements(2, 1000))) == len(m.metric.ball(2))


def test_element_strings_round_trip(s3, f2, zz, f2xz):
    for m, elems in [
        (s3, s3.elements()),
        (f2, [(), (1,), (1, 2, -1), (-2, -2)]),
        (zz, [(0, 0), (3, -2)]),
        (f2xz, [((1, 2), (5,)), ((), (0,))]),
    ]:
        for g in elems:
            assert m.parse_element(m.element_str(g)) == g


def test_free_letters_never_spell_the_identity():
    # e names the identity, so no free generator is spelled e: every
    # generator and inverse of F25 prints as one other letter and parses back
    f25 = parse_group({"type": "free", "rank": 25})
    assert f25.parse_element("e") == f25.identity
    for g in f25.generators:
        s = f25.element_str(g)
        assert len(s) == 1 and s.lower() != "e"
        assert f25.parse_element(s) == g
    assert len({f25.element_str(g) for g in f25.generators}) == 50
    with pytest.raises(GroupMismatchError):
        f25.parse_element("E")
    with pytest.raises(DescriptorError):
        parse_group({"type": "free", "rank": 26})
    assert parse_group({"type": "free_abelian", "rank": 26}).rank == 26
