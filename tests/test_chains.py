from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from burghelea import KindMismatchError, chain_from_obj, chain_to_obj, support_diameter
from burghelea.chains import Chain, convolve, tuple_diameter


def f2_chains(degree=1):
    from burghelea.groups import reduce_word
    letters = st.sampled_from([1, -1, 2, -2])
    words = st.lists(letters, max_size=4).map(reduce_word)
    tuples = st.tuples(*([words] * (degree + 1)))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    return st.lists(st.tuples(tuples, coeffs), max_size=5).map(
        lambda items: Chain("hochschild", degree, items))


def test_add_scale_examples():
    c = Chain("hochschild", 0, [((((1,),)[0],), Fraction(2))])
    assert (c + c.scale(-1)).is_zero()
    assert c.scale(0).is_zero()
    d = Chain("hochschild", 0, [(((2,),), Fraction(1))])
    assert set((c + d).terms) == {((1,),), ((2,),)}


@given(f2_chains(1), f2_chains(1), st.fractions(max_denominator=6))
def test_vector_space_axioms(c1, c2, q):
    assert c1 + c2 == c2 + c1
    assert (c1 + c2).scale(q) == c1.scale(q) + c2.scale(q)
    assert (c1 - c1).is_zero()
    assert c1.scale(1) == c1
    # exact rational round trip
    if q:
        assert c1.scale(q).scale(1 / q) == c1


def test_zero_coefficients_dropped():
    t = ((1,), (2,))
    c = Chain("hochschild", 1, [(t, Fraction(1)), (t, Fraction(-1))])
    assert c.is_zero() and not c.terms


def test_kind_and_degree_mismatch():
    c0 = Chain("hochschild", 0)
    c1 = Chain("hochschild", 1)
    e0 = Chain("e", 0)
    with pytest.raises(KindMismatchError):
        c0 + c1
    with pytest.raises(KindMismatchError):
        c0 + e0
    with pytest.raises(KindMismatchError):
        Chain("hochschild", 1, [(((1,),), Fraction(1))])  # arity 1 vs needed 2
    with pytest.raises(KindMismatchError):
        Chain("nope", 0)


def test_support_diameter(f2):
    e, a, ab = (), (1,), (1, 2)
    assert tuple_diameter(f2, (e,)) == 0
    assert tuple_diameter(f2, (e, (1, 1, 2))) == 3
    # max over |a|, |ab|, |a^-1 ab| = max(1, 2, 1) = 2
    assert tuple_diameter(f2, (e, a, ab)) == 2
    assert tuple_diameter(f2, ((1,), (-1,))) == 2
    c = Chain("hochschild", 1, [((e, a), Fraction(1)), ((a, ab), Fraction(2))])
    assert support_diameter(f2, c) == {(e, a): 1, (a, ab): 1}


def test_serialization_round_trip_and_determinism(f2):
    c = Chain("hochschild", 1, [
        (((1,), (2,)), Fraction(3, 2)),
        (((), (-2,)), Fraction(-1)),
    ])
    obj = chain_to_obj(f2, c)
    assert obj == [
        {"tuple": ["e", "B"], "coeff": "-1"},
        {"tuple": ["a", "b"], "coeff": "3/2"},
    ]
    assert chain_from_obj(f2, "hochschild", 1, obj) == c


def test_convolution(z4):
    one, g = 0, 1
    f = Chain("hochschild", 0, [((g,), Fraction(1)), ((one,), Fraction(2))])
    h = Chain("hochschild", 0, [((g,), Fraction(1))])
    out = convolve(z4, f, h)
    assert out.terms == {(2,): Fraction(1), (1,): Fraction(2)}
