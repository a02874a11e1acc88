import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from burghelea import (
    GroupMismatchError,
    boundary_e,
    conjugacy_class,
    coset_section,
    dbar,
    hochschild_boundary,
    homotopy_d,
    iota_h,
    localize_to_equivariant,
    p_e,
    pi_h,
    theta_h,
    verify_homotopy_square,
)
from burghelea.bar_complexes import normalize_cbar_tuple
from burghelea.chains import Chain
from burghelea.hochschild import entry_product, sample_component_tuple
from burghelea.homotopy import normalize_coinvariant, theta_lift, translate_tuple
from oracles import theta_quotient_dims


def test_boundary_e_examples():
    g0, g1 = (1,), (2,)
    out = boundary_e(Chain.basis("e", 1, (g0, g1)))
    assert out == Chain("e", 0, [((g1,), Fraction(1)), ((g0,), Fraction(-1))])
    assert boundary_e(Chain.basis("e", 1, (g0, g0))).is_zero()
    c = Chain.basis("e", 2, (g0, g1, (1, 2)))
    assert boundary_e(boundary_e(c)).is_zero()
    assert boundary_e(Chain.basis("e", 0, (g0,))).is_zero()


def test_p_e_and_i_e(f2, zz):
    h = (1,)
    sec = coset_section(f2, h)
    # all entries in Z_h stay put
    c = Chain.basis("e", 1, ((1, 1), (1,)))
    assert p_e(sec, c) == c
    assert iota_h(sec, c) == c
    # p_h(a^3 b) = a^3 entrywise
    c2 = Chain.basis("e", 1, ((1, 1, 1, 2), (1,)))
    assert p_e(sec, c2) == Chain.basis("e", 1, ((1, 1, 1), (1,)))
    # abelian: identity
    zsec = coset_section(zz, (1, 0))
    c3 = Chain.basis("e", 1, ((3, -1), (0, 2)))
    assert p_e(zsec, c3) == c3
    with pytest.raises(GroupMismatchError):
        iota_h(sec, Chain.basis("e", 0, ((2,),)))


def test_d0_examples(f2, zz):
    h = (1,)
    sec = coset_section(f2, h)
    # g0 in Z_h: D0(g0) = (g0, g0), boundary vanishes like id - ip
    g0 = (1, 1)
    d0 = homotopy_d(sec, Chain.basis("e", 0, (g0,)))
    assert d0 == Chain.basis("e", 1, (g0, g0))
    assert boundary_e(d0).is_zero()
    # F2, h=a, g0=a^3 b: D0 = (a^3, a^3 b), dD0 = (a^3 b) - (a^3)
    g0 = (1, 1, 1, 2)
    d0 = homotopy_d(sec, Chain.basis("e", 0, (g0,)))
    assert d0 == Chain.basis("e", 1, ((1, 1, 1), g0))
    out = boundary_e(d0)
    assert out == Chain("e", 0, [((g0,), Fraction(1)), (((1, 1, 1),), Fraction(-1))])
    # abelian: p = id so id - ip = 0 and dD0 = 0
    zsec = coset_section(zz, (1, 0))
    d0 = homotopy_d(zsec, Chain.basis("e", 0, ((2, 3),)))
    assert boundary_e(d0).is_zero()


def _ip(sec, c):
    return iota_h(sec, p_e(sec, c))


@pytest.mark.parametrize("fixture,h", [("s3", (0, 2, 1)), ("z4", 1), ("f2", (1,)), ("zz", (1, 0))])
def test_homotopy_identity_degrees_up_to_three(fixture, h, request):
    m = request.getfixturevalue(fixture)
    wm = m.metric
    sec = coset_section(m, h)
    rng = random.Random(37)
    ball = wm.ball(2)
    for n in range(4):
        if m.is_finite and m.order ** (n + 1) <= 300:
            gens = list(itertools.product(m.elements(), repeat=n + 1))
        else:
            gens = [tuple(rng.choice(ball) for _ in range(n + 1)) for _ in range(25)]
        for t in gens:
            c = Chain.basis("e", n, t)
            lhs = c - _ip(sec, c)
            rhs = boundary_e(homotopy_d(sec, c))
            if n > 0:
                rhs = rhs + homotopy_d(sec, boundary_e(c))
            assert lhs == rhs


@pytest.mark.parametrize("fixture,h", [("s3", (0, 2, 1)), ("f2", (1,)), ("zz", (1, 0)),
                                       ("f2xz", ((1,), (1,)))])
def test_memoized_homotopy_matches_a_fresh_section(fixture, h, request):
    # D memoizes its terms per generator on the section; degree 2 runs first,
    # so degrees 1 and 0 then hit what its recursion stored
    m = request.getfixturevalue(fixture)
    rng = random.Random(11)
    ball = m.metric.ball(2)
    warm = coset_section(m, h)
    for n in (2, 1, 0, 2):
        for _ in range(10):
            c = Chain("e", n, [(tuple(rng.choice(ball) for _ in range(n + 1)),
                                Fraction(rng.randint(1, 3))) for _ in range(3)])
            assert homotopy_d(warm, c) == homotopy_d(coset_section(m, h), c)
    assert {len(t) for t in warm._homotopy} == {1, 2, 3}


def test_equivariance_exhaustive_s3(s3):
    h = (0, 2, 1)
    sec = coset_section(s3, h)
    zs = [z for z in s3.elements() if s3.commutes(z, h)]
    for n in (0, 1):
        for t in itertools.product(s3.elements(), repeat=n + 1):
            c = Chain.basis("e", n, t)
            for z in zs:
                zt = translate_tuple(s3, z, t)
                zc = Chain.basis("e", n, zt)
                for f in (lambda x: p_e(sec, x),
                          lambda x: homotopy_d(sec, x)):
                    image_t = f(c)
                    image_zt = f(zc)
                    shifted = Chain(image_t.kind, image_t.degree,
                                    [(translate_tuple(s3, z, u), q)
                                     for u, q in image_t.terms.items()])
                    assert image_zt == shifted


def test_theta_examples(s3):
    h = (0, 2, 1)
    sec = coset_section(s3, h)
    g0 = (1, 2, 0)
    out = theta_h(sec, Chain.basis("e", 0, (g0,)))
    assert out == Chain.basis("hochschild", 0, (s3.conj(g0, h),))
    # invariance under left Z_h translation
    t = ((1, 0, 2), (2, 1, 0))
    for z in s3.elements():
        if s3.commutes(z, h) :
            zt = translate_tuple(s3, z, t)
            assert theta_h(sec, Chain.basis("e", 1, zt)) == \
                theta_h(sec, Chain.basis("e", 1, t))


def test_theta_chain_map(s3, f2):
    rng = random.Random(41)
    for m, h in ((s3, (0, 2, 1)), (f2, (1, 2))):
        sec = coset_section(m, h)
        ball = m.metric.ball(2)
        for n in (1, 2, 3):
            for _ in range(20):
                t = tuple(rng.choice(ball) for _ in range(n + 1))
                c = Chain.basis("e", n, t)
                assert hochschild_boundary(m, theta_h(sec, c)) == \
                    theta_h(sec, boundary_e(c))


def test_theta_lands_in_component_and_lift_sections(s3):
    h = (0, 2, 1)
    sec = coset_section(s3, h)
    x = conjugacy_class(s3, h)
    rng = random.Random(43)
    for n in (0, 1, 2):
        for _ in range(25):
            t = tuple(rng.choice(s3.elements()) for _ in range(n + 1))
            out = theta_h(sec, Chain.basis("e", n, t))
            for u in out.terms:
                assert conjugacy_class(s3, entry_product(s3, u)) == x
            # lift is a section of theta
            assert theta_h(sec, theta_lift(sec, out)) == out


@given(st.data())
def test_pi_h_and_the_localization_factor_through_the_lift(s3, f2, f2xz, data):
    # pi_h = theta_h . p^E . lift, and localize_to_equivariant is p^E . lift
    # stored by leading-e representatives; each h is non-central
    for m, h in ((s3, (0, 2, 1)), (f2, (1,)), (f2xz, ((1,), (0,)))):
        sec = coset_section(m, h)
        n = data.draw(st.integers(0, 3))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        ball = m.metric.ball(2)
        c = Chain("hochschild", n,
                  [(sample_component_tuple(m, rng, ball, h, n), data.draw(st.integers(-3, 3)))
                   for _ in range(data.draw(st.integers(1, 4)))])
        retracted = p_e(sec, theta_lift(sec, c))
        assert pi_h(sec, c) == theta_h(sec, retracted)
        normalized = Chain("cbar", n, [(normalize_cbar_tuple(m, u), q)
                                       for u, q in retracted.terms.items()])
        assert localize_to_equivariant(sec, c) == normalized


def test_theta_surjectivity_rank(s3):
    d = theta_quotient_dims(s3, (0, 2, 1), 1)
    assert d["dim_component"] == 18  # |x| * |G| = 3 * 6
    assert d["image_rank"] == 18     # surjective
    assert d["kernel_span_rank"] == d["dim_e"] - d["image_rank"]
    assert d["coinvariant_basis"] == d["dim_component"]


def test_coinvariant_normalization_fixed_point(s3, f2):
    rng = random.Random(47)
    for m, h in ((s3, (0, 2, 1)), (f2, (1,))):
        wm = m.metric
        sec = coset_section(m, h)
        ball = wm.ball(2)
        for _ in range(40):
            t = tuple(rng.choice(ball) for _ in range(3))
            rep = normalize_coinvariant(sec, t)
            assert normalize_coinvariant(sec, rep) == rep
            # representative is a left translate by a centralizer element
            z = m.mul(t[0], m.inv(rep[0]))
            assert m.commutes(z, h)
            assert translate_tuple(m, z, rep) == t


def test_dbar_homotopy_on_s3_component(s3):
    h = (0, 2, 1)
    sec = coset_section(s3, h)
    x = conjugacy_class(s3, h)
    for n in (1, 2):
        # the full component, degenerate tuples included
        basis = [t for t in itertools.product(s3.elements(), repeat=n + 1)
                 if conjugacy_class(s3, entry_product(s3, t)) == x]
        for t in basis[::7]:
            c = Chain.basis("hochschild", n, t)
            lhs = c - iota_h(sec, pi_h(sec, c))
            rhs = hochschild_boundary(s3, dbar(sec, c)) \
                + dbar(sec, hochschild_boundary(s3, c))
            assert lhs == rhs


def test_verify_homotopy_square_abelian_trivial(zz, z4):
    for m, h in ((zz, (1, 0)), (z4, 1)):
        checks = verify_homotopy_square(coset_section(m, h), n_max=2,
                                        samples=10, radius=2, seed=1)
        assert checks and all(not c["failures"] for c in checks)


def test_verify_homotopy_square_s3_exhaustive(s3):
    checks = verify_homotopy_square(coset_section(s3, (0, 2, 1)), n_max=2,
                                    samples=10 ** 6, radius=2, seed=0)
    assert all(not c["failures"] for c in checks)
    # degree-2 checks on quotient representatives cover all 108 of them
    reps_checked = [c for c in checks
                    if c["degree"] == 2 and c["identity_name"].startswith("theta.pE")]
    assert reps_checked[0]["samples"] == 108
