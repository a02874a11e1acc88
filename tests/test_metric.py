import itertools
import random

import pytest

from burghelea import (
    GroupMismatchError,
    NotConjugateError,
    NotConjugateWithinError,
    WordMetric,
    conjugacy_bound_profile,
    conjugacy_class,
    conjugacy_classes,
    coset_section,
    find_conjugator,
    parse_group,
)
from burghelea import metric
from burghelea.groups import FreeGroup, class_members
from conftest import load_complex_obj, load_model


@pytest.fixture(scope="module")
def s3xz():
    """S3 x Z: a product with a finite factor."""
    return parse_group({"type": "product", "factors": [
        load_complex_obj("s3.json"), {"type": "free_abelian", "rank": 1}]})


# -- independent oracles -----------------------------------------------------

def bruteforce_lengths(model, max_len):
    """Word length by exhaustive products of generator sequences."""
    lengths = {model.identity: 0}
    frontier = {model.identity}
    for l in range(1, max_len + 1):
        nxt = set()
        for x in frontier:
            for g in model.generators:
                y = model.mul(x, g)
                if y not in lengths:
                    lengths[y] = l
                    nxt.add(y)
        frontier = nxt
    return lengths


def bruteforce_class(model, g):
    return {model.conj(x, g) for x in model.elements()}


# -- word length ------------------------------------------------------------

def test_word_length_examples(f2, zz, s3):
    wf = f2.metric
    assert wf.length((1, 2, -1)) == 3  # |a b a^-1|
    assert zz.metric.length((2, 1)) == 3
    # S3: |(13)| = 3, frozen from the generator-product oracle
    oracle = bruteforce_lengths(s3, 4)
    assert oracle[(2, 1, 0)] == 3
    assert s3.metric.length((2, 1, 0)) == 3


def test_bfs_agrees_with_bruteforce_oracle(s3, d4, z4):
    for m in (s3, d4, z4):
        oracle = bruteforce_lengths(m, 10)
        wm = m.metric
        assert all(wm.length(g) == oracle[g] for g in m.elements())


def test_length_symmetry_and_triangle(f2, zz, s3):
    rng = random.Random(5)
    for m, radius in ((f2, 3), (zz, 3), (s3, 3)):
        wm = m.metric
        ball = wm.ball(radius)
        for g in ball:
            assert wm.length(m.inv(g)) == wm.length(g)
        for _ in range(200):
            g, h = rng.choice(ball), rng.choice(ball)
            assert wm.length(m.mul(g, h)) <= wm.length(g) + wm.length(h)
        assert wm.length(m.identity) == 0


def test_ball_counts_and_determinism(f2, zz):
    wf = f2.metric
    assert len(wf.ball(1)) == 5
    # 1 + 4 + 12 reduced words
    assert len(wf.ball(2)) == 17
    assert len(zz.metric.ball(1)) == 5
    b1 = wf.ball(2)
    b2 = WordMetric(FreeGroup(2)).ball(2)
    assert b1 == b2
    assert len(set(b1)) == len(b1)


def test_model_carries_one_metric(f2, f2xz):
    for m in (f2, f2xz, *f2xz.factors):
        assert isinstance(m.metric, WordMetric)
        assert m.metric is m.metric
        assert m.metric.model is m


def test_ball_cap(monkeypatch):
    from burghelea import ResourceCapError
    monkeypatch.setattr(metric, "BALL_CAP", 10)
    with pytest.raises(ResourceCapError):
        WordMetric(FreeGroup(2)).ball(3)


# -- conjugacy classes --------------------------------------------------------

def test_conjugacy_class_examples(f2, zz, s3):
    a, b = (1,), (2,)
    aba = f2.mul(f2.mul(a, b), f2.inv(a))
    assert conjugacy_class(f2, aba).rep == b
    assert conjugacy_class(zz, (2, 1)).rep == (2, 1)
    # S3 transpositions: class size 3, shortlex-least transposition as rep
    members = bruteforce_class(s3, (2, 1, 0))
    assert len(members) == 3
    rep = conjugacy_class(s3, (2, 1, 0)).rep
    assert rep in members
    assert rep == (0, 2, 1)  # the length-1 transposition least in encoding order


def test_class_constant_on_conjugates(f2, s3, f2xz, s3xz):
    rng = random.Random(2)
    for m, radius in ((f2, 2), (s3, 3), (f2xz, 2), (s3xz, 2)):
        wm = m.metric
        ball = wm.ball(radius)
        for _ in range(100):
            g, x = rng.choice(ball), rng.choice(ball)
            assert conjugacy_class(m, g) == conjugacy_class(m, m.conj(x, g))


def test_class_members_match_bruteforce(s3, z4):
    for m in (s3, z4):
        for g in m.elements():
            assert set(class_members(m, g)) == bruteforce_class(m, g)


def test_class_counts(z2, z4, s3, d4):
    expected = {id(z2): 2, id(z4): 4, id(s3): 3, id(d4): 5}
    for m in (z2, z4, s3, d4):
        assert len(conjugacy_classes(m)) == expected[id(m)]


def test_rep_is_length_minimal(s3, d4):
    for m in (s3, d4):
        wm = m.metric
        for g in m.elements():
            rep = conjugacy_class(m, g).rep
            assert all(wm.length(rep) <= wm.length(x) for x in bruteforce_class(m, g))


def test_product_class_componentwise(f2xz):
    g = ((1, 2, -1), (3,))
    assert conjugacy_class(f2xz, g).rep == ((2,), (3,))


# -- centralizers --------------------------------------------------------------

def test_centralizer_whole_group_abelian(zz):
    sec = coset_section(zz, (1, 0))
    assert sec.realization == "whole_group"


def test_centralizer_free_maximal_root(f2):
    wm = f2.metric
    sec = coset_section(f2, (1, 1))  # a^2
    assert sec.realization == "cyclic"
    assert sec.root == (1,)
    # brute-force commutation on the radius-4 ball agrees with membership
    for g in wm.ball(4):
        assert sec.contains(g) == f2.commutes(g, (1, 1))


def test_centralizer_conjugated_root(f2):
    # h = b a^2 b^-1 has maximal root b a b^-1
    h = f2.mul(f2.mul((2,), (1, 1)), (-2,))
    sec = coset_section(f2, h)
    assert sec.root == (2, 1, -2)


def test_centralizer_finite_exhaustive(s3):
    sec = coset_section(s3, (1, 0, 2))
    assert sec.realization == "finite_list"
    assert set(sec.elements) == {g for g in s3.elements() if s3.commutes(g, (1, 0, 2))}
    assert len(sec.elements) == 2


def test_centralizer_stored_elements_commute(d4, f2xz, s3xz):
    cases = [(d4, h) for h in d4.elements()]
    cases += [(m, h) for m in (f2xz, s3xz) for h in m.metric.ball(2)]
    for m, h in cases:
        sec = coset_section(m, h)
        for part in (sec.components if sec.realization == "product" else (sec,)):
            f = part.model
            if part.realization == "finite_list":
                elems = part.elements
            elif part.realization == "cyclic":
                elems = (part.root,)
            else:
                elems = f.elements() if f.is_finite else f.metric.ball(2)
            for g in elems:
                assert f.commutes(g, part.h)


# -- coset sections and p_h ----------------------------------------------------

def bruteforce_cyclic_section(model, root, g, window=12):
    candidates = [model.mul(model.power(root, m), g) for m in range(-window, window + 1)]
    return min(candidates, key=model.shortlex_key)


def test_section_examples(f2, zz, s3):
    sec = coset_section(f2, (1,))  # h = a
    g = (1, 1, 1, 2)  # a^3 b
    assert sec.section(g) == (2,)  # frozen from the window oracle
    assert bruteforce_cyclic_section(f2, (1,), g) == (2,)
    assert sec.retract(g) == (1, 1, 1)  # p_h(a^3 b) = a^3
    # elements of Z_h map to themselves
    assert sec.retract((1, 1)) == (1, 1)
    # abelian: single coset, section e, retraction identity
    zsec = coset_section(zz, (1, 0))
    assert zsec.section((4, -3)) == (0, 0)
    assert zsec.retract((4, -3)) == (4, -3)


def test_section_minimality_and_equivariance(f2, s3, z4, f2xz, s3xz):
    for m, h, radius in ((f2, (1,), 4), (f2, (1, 2), 3), (s3, (0, 2, 1), 3), (z4, 1, 3),
                         (f2xz, ((1,), (1,)), 2), (f2xz, ((), (2,)), 2),
                         (s3xz, ((0, 2, 1), (1,)), 3), (s3xz, ((0, 1, 2), (2,)), 3)):
        wm = m.metric
        sec = coset_section(m, h)
        ball = wm.ball(radius)
        z_ball = [a for a in ball if m.commutes(a, h)]
        for g in ball:
            s = sec.section(g)
            assert wm.length(s) <= wm.length(g)
            # the coset of the section matches the coset of g
            assert sec.contains(m.mul(g, m.inv(s)))
            assert wm.length(sec.retract(g)) <= 2 * wm.length(g)
        for a in z_ball:
            for g in ball:
                assert sec.retract(m.mul(a, g)) == m.mul(a, sec.retract(g))


def test_memoized_retract_matches_its_formula(f2, zz, s3, f2xz):
    # p_h is memoized inside retract: a hit must give the value a miss
    # computed, and a miss still checks g
    for m, h, bad in ((f2, (1,), (1, -1)), (zz, (1, 0), (1, 2, 3)), (s3, (0, 2, 1), (0, 0, 1)),
                      (f2xz, ((1,), (1,)), ((1, -1), (0,))), (f2xz, ((), (1,)), ((), ()))):
        sec = coset_section(m, h)
        for g in m.metric.ball(3) * 2:
            assert sec.retract(g) == m.mul(g, m.inv(sec.section(g)))
        with pytest.raises(GroupMismatchError):
            sec.retract(bad)


def test_section_deterministic(f2):
    wm = f2.metric
    s1 = coset_section(f2, (1,))
    s2 = coset_section(f2, (1,))
    for g in wm.ball(3):
        assert s1.section(g) == s2.section(g)


# -- conjugator search ----------------------------------------------------------

def test_find_conjugator_examples(zz, f2, s3):
    assert find_conjugator(zz, (2, 1), (2, 1), 4) == (0, 0)
    aba = f2.mul(f2.mul((1,), (2,)), (-1,))
    r = find_conjugator(f2, (2,), aba, 4)
    assert r == (-1,) and f2.conj(r, (2,)) == aba
    # between the two generating transpositions: exhaustive search gives 2
    # (a generator conjugation of a transposition yields the third one)
    g, h = (1, 0, 2), (0, 2, 1)
    oracle = min(s3.metric.length(r) for r in s3.elements() if s3.conj(r, g) == h)
    assert oracle == 2
    r = find_conjugator(s3, g, h, 4)
    assert s3.conj(r, g) == h and s3.metric.length(r) == oracle


def test_find_conjugator_minimal_and_exact(s3, f2):
    rng = random.Random(9)
    for m, radius in ((s3, 3), (f2, 2)):
        wm = m.metric
        ball = wm.ball(radius)
        for _ in range(40):
            g, x = rng.choice(ball), rng.choice(ball)
            h = m.conj(x, g)
            r = find_conjugator(m, g, h, 6)
            assert m.conj(r, g) == h
            # no shorter conjugator exists (exhaustion within the ball)
            for cand in wm.ball(wm.length(r)):
                if wm.length(cand) < wm.length(r):
                    assert m.conj(cand, g) != h


def test_not_conjugate_proven(zz, f2, s3, z4, d4, f2xz):
    # every kind decides by its class representatives, before any search,
    # and so does the coset section of each centralizer realization
    long_a = f2.conj((2, 2, 2), (1,))  # conjugate to a, but only past radius 1
    for m, g, h in ((zz, (1, 0), (0, 1)), (f2, (1,), (2,)), (s3, (1, 0, 2), (1, 2, 0)),
                    (z4, 1, 2),
                    # a rotation and a reflection; two reflections of two classes
                    (d4, (1, 2, 3, 0), (0, 3, 2, 1)), (d4, (0, 3, 2, 1), (1, 0, 3, 2)),
                    # one conjugate and one non-conjugate component, either way round
                    (f2xz, ((1,), (0,)), ((2, 1, -2), (1,))),
                    (f2xz, ((1,), (0,)), ((2,), (0,))),
                    (f2xz, ((1,), (0,)), (long_a, (1,)))):
        assert m.class_rep(g) != m.class_rep(h)
        for radius in (0, 1, 8):
            with pytest.raises(NotConjugateError):
                find_conjugator(m, g, h, radius)
        with pytest.raises(NotConjugateError):  # each centralizer realization
            coset_section(m, g).conjugator(h)


def test_not_conjugate_within_window(f2, s3, d4):
    # conjugate pairs whose shortest conjugator exceeds the window, in a free
    # and in finite groups: no window short of the conjugator decides them
    for m, g, h, radius in ((f2, (1,), f2.conj((2, 2, 2), (1,)), 1),
                            (s3, (1, 0, 2), (0, 2, 1), 1),
                            (d4, (0, 3, 2, 1), (2, 1, 0, 3), 0)):
        with pytest.raises(NotConjugateWithinError):
            find_conjugator(m, g, h, radius)
        r = find_conjugator(m, g, h, 8)
        assert m.conj(r, g) == h and m.metric.length(r) > radius


def test_minimal_conjugator_matches_bfs(f2, s3, f2xz, s3xz):
    rng = random.Random(4)
    for m, radius in ((f2, 2), (s3, 3), (f2xz, 2), (s3xz, 2)):
        ball = m.metric.ball(radius)
        for h in (ball[1], ball[3]):
            sec = coset_section(m, h)
            built = []
            realize = sec.some_conjugator

            def counting(product):
                built.append(product)
                return realize(product)

            sec.some_conjugator = counting
            products = set()
            for _ in range(25):
                y = rng.choice(ball)
                product = m.conj(y, h)
                fast = sec.conjugator(product)
                bfs = find_conjugator(m, h, product, 10)
                assert fast == bfs
                assert sec.conjugator(product) is fast
                products.add(product)
            # memoized: each product's conjugator is constructed once
            assert sorted(built, key=m.shortlex_key) == sorted(products - {h}, key=m.shortlex_key)


def test_product_section_shares_its_factors_memos(f2xz):
    # a product's components are its factors' own coset sections, so the
    # product's minimal conjugator is assembled from, and left in, their memos
    h = ((1, 2), (1,))
    sec = coset_section(f2xz, h)
    products = {f2xz.conj(y, h) for y in f2xz.metric.ball(2)} - {h}
    assert len(products) > 1
    for p in sorted(products, key=f2xz.shortlex_key):
        r = sec.conjugator(p)
        assert r == tuple(c._conjugators[x] for c, x in zip(sec.components, p))


def test_find_conjugator_builds_factor_balls_once(monkeypatch):
    m = load_model("f2xz.json")  # fresh, so no ball is cached yet
    f2 = m.factors[0]
    radii = []
    enumerate_ball = FreeGroup.ball_elements

    def counting(self, radius, cap):
        if self is f2:
            radii.append(radius)
        return enumerate_ball(self, radius, cap)

    monkeypatch.setattr(FreeGroup, "ball_elements", counting)
    g = ((2,), (1,))
    h = m.conj(((1, 2), (0,)), g)
    for _ in range(2):
        r = find_conjugator(m, g, h, 4)
        assert m.conj(r, g) == h
    assert radii and sorted(radii) == sorted(set(radii))


def test_conjugator_product_kind(f2xz):
    g = ((2,), (1,))
    x = ((1,), (0,))
    h = f2xz.conj(x, g)
    r = find_conjugator(f2xz, g, h, 4)
    assert f2xz.conj(r, g) == h


# -- conjugacy bound profile -----------------------------------------------------

def test_profile_abelian_all_zero(zz, z4):
    for m in (zz, z4):
        prof = conjugacy_bound_profile(m, 2, 4)
        assert all(r["min_conjugator_len"] == 0 for r in prof["rows"])
        assert all(r["window_status"] == "ok" for r in prof["rows"])


def test_profile_f2_linear_bound(f2):
    prof = conjugacy_bound_profile(f2, 3, 6)
    for row in prof["rows"]:
        assert row["window_status"] == "ok"
        assert row["min_conjugator_len"] <= row["length_h"]
    assert prof["fit"]["points"] >= 2
