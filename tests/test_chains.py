import inspect
import random
import typing
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import load_model
from oracles import convolve

from burghelea import (
    GroupMismatchError,
    KindMismatchError,
    NormFamily,
    bar_complexes,
    coset_section,
    hochschild,
    homotopy,
)
from burghelea.bar_complexes import (
    boundary_cbar,
    boundary_cprime,
    localize_to_equivariant,
    phi_g,
    phi_g_inv,
    psi,
    psi_inv,
)
from burghelea.chains import KINDS, Chain, arity, linear_extend, tuple_diameter
from burghelea.groups import GroupModel
from burghelea.hochschild import (
    hochschild_boundary,
    iota_h,
    pi_h,
    sample_component_tuple,
    split_by_class,
)
from burghelea.homotopy import dbar, homotopy_d, p_e, theta_h, theta_lift
from burghelea.metric import CosetSection


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
    assert {t: tuple_diameter(f2, t) for t in c.terms} == {(e, a): 1, (a, ab): 1}


def test_tuple_diameter_checks_each_entry(f2, f2xz):
    # the pairs run on the unchecked kernel, so each entry is checked first
    for m, t in ((f2, ((), (True,))), (f2, ((1,), (2,), (1, -1))), (f2, ((True,),)),
                 (f2xz, (((), (0,)), ((), (False,))))):
        with pytest.raises(GroupMismatchError):
            tuple_diameter(m, t)


def test_convolution(z4):
    one, g = 0, 1
    f = Chain("hochschild", 0, [((g,), Fraction(1)), ((one,), Fraction(2))])
    h = Chain("hochschild", 0, [((g,), Fraction(1))])
    out = convolve(z4, f, h)
    assert out.terms == {(2,): Fraction(1), (1,): Fraction(2)}


_SIGNS = st.sampled_from([1, -1, Fraction(1), Fraction(-1), 2, -3, Fraction(1, 3),
                          Fraction(-5, 2), 0])


@given(f2_chains(1), st.lists(_SIGNS, min_size=1, max_size=4))
def test_linear_extend_signs_match_products(c, signs):
    # each basis tuple maps to itself and its swap with mixed unit and
    # non-unit signs, so images of different tuples meet and cancel
    def on_basis(t):
        for k, r in enumerate(signs):
            yield t[k % 2:] + t[:k % 2], r

    out = linear_extend(None, c, "hochschild", "hochschild", 0, on_basis)
    reference = Chain("hochschild", 1, [(u, q * r) for t, q in c.terms.items()
                                        for u, r in on_basis(t)])
    assert out == reference
    assert all(type(q) is Fraction for q in out.terms.values())


def test_linear_extend_checks_arity():
    c = Chain.basis("hochschild", 1, ((1,), (2,)))
    for image in (((1,),), ((1,), (2,), ()), [(1,), (2,)]):
        with pytest.raises(KindMismatchError):
            linear_extend(None, c, "hochschild", "hochschild", 0,
                          lambda t: [(t, 1), (image, -1)])


def test_chain_maps_reject_non_members(f2xz, z4):
    # every public chain map checks its input chain once and then runs the
    # unchecked kernel: an unreduced F2 word inside an F2 x Z element, and a
    # Z4 index of 7, on which the table kernel would raise a bare KeyError
    for m, bad, h in ((f2xz, ((1, -1), (0,)), f2xz.parse_element("(a; (0))")),
                      (z4, 7, z4.parse_element("g"))):
        e = m.identity
        section = coset_section(m, h)
        hh = Chain.basis("hochschild", 1, (bad, e))
        cprime = Chain.basis("cprime", 2, (bad, e))
        cbar = Chain.basis("cbar", 1, (e, bad))
        ec = Chain.basis("e", 1, (bad, e))
        calls = [
            lambda: hochschild_boundary(m, hh),
            lambda: pi_h(section, hh),
            lambda: split_by_class(m, hh),
            lambda: iota_h(section, hh),
            lambda: boundary_cprime(m, cprime),
            lambda: boundary_cbar(m, cbar),
            lambda: psi(m, cprime),
            lambda: psi_inv(m, cbar),
            lambda: phi_g(section, cprime),
            lambda: localize_to_equivariant(section, hh),
            lambda: p_e(section, ec),
            lambda: homotopy_d(section, ec),
            lambda: theta_h(section, ec),
            lambda: theta_lift(section, hh),
            lambda: dbar(section, hh),
        ]
        for call in calls:
            with pytest.raises(GroupMismatchError):
                call()


# the domain kind of every public chain map of the three complexes' modules
# that takes a chain c and returns a chain; iota_h includes a class
# component of either complex and takes both kinds by design
_DOMAINS = {
    "hochschild.hochschild_boundary": "hochschild",
    "hochschild.pi_h": "hochschild",
    "bar_complexes.boundary_cprime": "cprime",
    "bar_complexes.boundary_cbar": "cbar",
    "bar_complexes.psi": "cprime",
    "bar_complexes.psi_inv": "cbar",
    "bar_complexes.phi_g": "cprime",
    "bar_complexes.phi_g_inv": "hochschild",
    "bar_complexes.localize_to_equivariant": "hochschild",
    "bar_complexes.composed_localization": "hochschild",
    "homotopy.boundary_e": "e",
    "homotopy.p_e": "e",
    "homotopy.homotopy_d": "e",
    "homotopy.theta_h": "e",
    "homotopy.theta_lift": "hochschild",
    "homotopy.dbar": "hochschild",
}


def _chain_maps():
    """(module.name, function) for every public function of hochschild,
    bar_complexes and homotopy whose hints take c: Chain and return a Chain."""
    for module in (hochschild, bar_complexes, homotopy):
        short = module.__name__.rsplit(".", 1)[1]
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                hints = typing.get_type_hints(fn)
                if hints.get("c") is Chain and hints.get("return") is Chain:
                    yield f"{short}.{name}", fn


def test_every_chain_map_refuses_a_chain_of_another_kind(z4):
    # basis chains of degree 1 on the identity, and the section of the
    # identity: every entry is valid and centralizes h, so the kind alone
    # decides, and each map accepts a chain of its own kind
    e = z4.identity
    section = coset_section(z4, e)
    basis = {kind: Chain.basis(kind, 1, (e,) * arity(kind, 1)) for kind in KINDS}
    by_class = {GroupModel: z4, CosetSection: section}
    found = dict(_chain_maps())
    assert set(found) == set(_DOMAINS) | {"hochschild.iota_h"}
    for name, domain in _DOMAINS.items():
        fn = found[name]
        hints = typing.get_type_hints(fn)
        required = [p for p, param in inspect.signature(fn).parameters.items()
                    if param.default is inspect.Parameter.empty]

        def call(c):
            return fn(*(c if p == "c" else by_class[hints[p]] for p in required))

        assert isinstance(call(basis[domain]), Chain), name
        for kind in KINDS:
            if kind != domain:
                with pytest.raises(GroupMismatchError):
                    call(basis[kind])


def test_a_chain_is_checked_once_per_model(z2, z4):
    # the mark is the model object: a chain checked against Z4 is checked
    # again against Z2, where 3 is no element, and against a second Z4
    c = Chain.basis("hochschild", 1, (3, 1))
    assert c.checked is None
    parsed = (z4.parse_element("g"), z4.parse_element("e"))
    assert Chain("hochschild", 1, [(parsed, Fraction(1))]).checked is None
    b = hochschild_boundary(z4, c)
    assert c.checked is z4 and b.checked is z4
    assert (c + c).checked is z4 and (c - c.scale(2)).checked is z4
    assert (c + Chain.basis("hochschild", 1, (3, 1))).checked is None
    for chain in (c, c + c, c.scale(3)):
        with pytest.raises(GroupMismatchError):
            hochschild_boundary(z2, chain)
    other = load_model("z4.json")
    seen = []
    other.check_element = seen.append
    for _ in range(3):
        hochschild_boundary(other, c)
    assert seen == [3, 1] and c.checked is other


def test_sub_cancels_and_matches_adding_the_negative():
    t, u = ((1,), (2,)), ((2,), (1,))
    c = Chain("hochschild", 1, [(t, Fraction(3, 2)), (u, Fraction(1))])
    d = Chain("hochschild", 1, [(t, Fraction(3, 2)), (u, Fraction(-2, 3)), (((1,), (1,)), 0)])
    assert (c - d).terms == {u: Fraction(5, 3)}
    assert c - d == c + d.scale(-1) == -(d - c)
    assert (c - c).is_zero()


# a class rep off the centre, so that p_h, pi_h and D do real work
_INT_CASES = {"s3.json": "[1,0,2]", "f2xz.json": "(a; (0))"}


@pytest.mark.parametrize("name", sorted(_INT_CASES))
@given(data=st.data())
def test_int_coefficients_match_fraction_coefficients(name, data):
    # the chain maps run on int coefficients as built; the same chains with
    # Fraction coefficients are the reference they replace
    m = load_model(name)
    h = m.parse_element(_INT_CASES[name])
    pool = m.elements() if m.is_finite else m.metric.ball(1)
    z_pool = [g for g in pool if m.commutes(g, h)]
    n = data.draw(st.integers(0, 2), label="degree")
    rng = random.Random(data.draw(st.integers(0, 2 ** 16), label="seed"))
    coeffs = st.integers(-3, 3)

    def chains(kind, make_tuple):
        items = [(make_tuple(), q) for q in data.draw(st.lists(coeffs, min_size=1, max_size=4))]
        return Chain(kind, n, items), Chain(kind, n, [(t, Fraction(q)) for t, q in items])

    def tuples(p, length):
        return lambda: tuple(rng.choice(p) for _ in range(length))

    def component():
        return sample_component_tuple(m, rng, pool, h, n)

    e = m.identity
    maps = [
        (chains("hochschild", tuples(pool, n + 1)), lambda c: hochschild_boundary(m, c)),
        (chains("hochschild", tuples(pool, n + 1)), lambda c: split_by_class(m, c)),
        (chains("hochschild", component), lambda c: pi_h(coset_section(m, h), c)),
        (chains("hochschild", tuples(z_pool, n + 1)), lambda c: iota_h(coset_section(m, h), c)),
        (chains("hochschild", tuples(pool, n + 1)), phi_g_inv),
        (chains("hochschild", component), lambda c: dbar(coset_section(m, h), c)),
        (chains("cprime", tuples(pool, n)), lambda c: psi(m, c)),
        (chains("cprime", tuples(pool, n)), lambda c: boundary_cprime(m, c)),
        (chains("cprime", tuples(z_pool, n)), lambda c: phi_g(coset_section(m, h), c)),
        (chains("cbar", lambda: (e,) + tuples(pool, n)()), lambda c: psi_inv(m, c)),
        (chains("cbar", lambda: (e,) + tuples(pool, n)()), lambda c: boundary_cbar(m, c)),
        (chains("e", tuples(pool, n + 1)), lambda c: theta_h(coset_section(m, h), c)),
        (chains("e", tuples(pool, n + 1)), lambda c: homotopy_d(coset_section(m, h), c)),
    ]
    for (as_int, as_fraction), f in maps:
        got, want = f(as_int), f(as_fraction)
        assert got == want
        for out, kind in ((got, int), (want, Fraction)):
            parts = out.values() if isinstance(out, dict) else [out]
            assert all(type(q) is kind for c in parts for q in c.terms.values())
    tensor = NormFamily(m, "hochschild-tensor")
    as_int, as_fraction = chains("hochschild", tuples(pool, n + 1))
    for k in range(3):
        value = tensor.norm(as_int, k)
        assert type(value) is Fraction and value == tensor.norm(as_fraction, k)
