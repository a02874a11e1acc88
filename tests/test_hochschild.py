import itertools
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

from conftest import load_model
from oracles import homology_ranks_unsplit

from burghelea import (
    GroupMismatchError,
    ResourceCapError,
    conjugacy_class,
    conjugacy_classes,
    coset_section,
    hochschild_boundary,
    homology_ranks,
    iota_h,
    pi_h,
    split_by_class,
)
from burghelea import hochschild
from burghelea.chains import Chain
from burghelea.groups import ProductGroup, class_members
from burghelea.hochschild import (
    MulTable,
    OrbitComplex,
    _check_space_cap,
    class_component_basis,
    entry_product,
    hochschild_faces,
    sample_component_tuple,
)
from burghelea.linalg import boundary_ranks


def test_boundary_degree_one_commutator(s3):
    g0, g1 = (1, 0, 2), (0, 2, 1)
    b = hochschild_boundary(s3, Chain.basis("hochschild", 1, (g0, g1)))
    expected = Chain("hochschild", 0, [
        ((s3.mul(g0, g1),), Fraction(1)),
        ((s3.mul(g1, g0),), Fraction(-1)),
    ])
    assert b == expected


def test_boundary_abelian_degree_one_vanishes(zz):
    b = hochschild_boundary(zz, Chain.basis("hochschild", 1, ((2, 0), (1, 1))))
    assert b.is_zero()


def test_boundary_identity_triple(z4):
    e = z4.identity
    b = hochschild_boundary(z4, Chain.basis("hochschild", 2, (e, e, e)))
    assert b == Chain.basis("hochschild", 1, (e, e))


def test_boundary_degree_zero(z4):
    assert hochschild_boundary(z4, Chain.basis("hochschild", 0, (1,))).is_zero()


@pytest.mark.parametrize("fixture", ["z4", "s3", "f2", "zz"])
def test_b_squared_zero(fixture, request):
    m = request.getfixturevalue(fixture)
    wm = m.metric
    rng = random.Random(13)
    ball = wm.ball(2)
    for n in range(1, 5):
        items = [(tuple(rng.choice(ball) for _ in range(n + 1)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                 for _ in range(6)]
        c = Chain("hochschild", n, items)
        assert hochschild_boundary(m, hochschild_boundary(m, c)).is_zero()


def test_split_by_class(s3):
    e = s3.identity
    s, t = (1, 0, 2), (0, 2, 1)
    # product e lands in the class of e
    c = Chain.basis("hochschild", 1, (s, s3.inv(s)))
    parts = split_by_class(s3, c)
    assert list(parts) == [conjugacy_class(s3, e)]
    # non-conjugate singletons split into two components
    c2 = Chain("hochschild", 0, [((e,), Fraction(1)), ((s,), Fraction(1))])
    assert len(split_by_class(s3, c2)) == 2
    # (s, t): product st is a 3-cycle
    c3 = Chain.basis("hochschild", 1, (s, t))
    (cls,) = split_by_class(s3, c3)
    assert cls == conjugacy_class(s3, s3.mul(s, t))
    assert s3.mul(s, t) in ((1, 2, 0), (2, 0, 1))


def test_split_sums_and_commutes_with_boundary(s3, f2):
    rng = random.Random(3)
    for m in (s3, f2):
        wm = m.metric
        ball = wm.ball(2)
        for n in (1, 2):
            items = [(tuple(rng.choice(ball) for _ in range(n + 1)),
                      Fraction(rng.randint(-2, 2))) for _ in range(8)]
            c = Chain("hochschild", n, items)
            parts = split_by_class(m, c)
            total = Chain.zero("hochschild", n)
            for p in parts.values():
                total = total + p
            assert total == c
            lhs = hochschild_boundary(m, c)
            rhs = Chain.zero("hochschild", n - 1)
            for p in parts.values():
                rhs = rhs + hochschild_boundary(m, p)
            assert lhs == rhs


def test_pi_h_degree_zero_gives_h(s3):
    h = (0, 2, 1)
    sec = coset_section(s3, h)
    for g0 in ((1, 0, 2), (2, 1, 0), h):
        out = pi_h(sec, Chain.basis("hochschild", 0, (g0,)))
        assert out == Chain.basis("hochschild", 0, (h,))


def test_pi_h_abelian_identity(zz, z4):
    rng = random.Random(1)
    for m in (zz, z4):
        wm = m.metric
        ball = wm.ball(2)
        h = ball[1]
        sec = coset_section(m, h)
        for n in range(3):
            t = sample_component_tuple(m, rng, wm.ball(2), h, n)
            c = Chain.basis("hochschild", n, t)
            assert pi_h(sec, c) == c


def test_pi_h_structural_postconditions(s3):
    # entries land in Z_h and the entry product is h-conjugate within Z_h
    wm = s3.metric
    h = (0, 2, 1)
    sec = coset_section(s3, h)
    rng = random.Random(8)
    for n in range(3):
        for _ in range(30):
            t = sample_component_tuple(s3, rng, wm.ball(3), h, n)
            out = pi_h(sec, Chain.basis("hochschild", n, t))
            for u in out.terms:
                assert all(s3.commutes(x, h) for x in u)
                prod = entry_product(s3, u)
                assert any(s3.conj(z, h) == prod for z in s3.elements()
                           if s3.commutes(z, h))


def test_pi_h_chain_map_exercises_cyclic_term(s3, f2):
    rng = random.Random(21)
    for m, h in ((s3, (0, 2, 1)), (f2, (1,))):
        wm = m.metric
        sec = coset_section(m, h)
        for n in (1, 2, 3):
            for _ in range(25):
                t = sample_component_tuple(m, rng, wm.ball(2), h, n)
                c = Chain.basis("hochschild", n, t)
                assert hochschild_boundary(m, pi_h(sec, c)) == \
                    pi_h(sec, hochschild_boundary(m, c))


def test_pi_h_well_defined_under_conjugator_change(s3, f2):
    rng = random.Random(5)
    for m, h in ((s3, (0, 2, 1)), (f2, (1, 2))):
        wm = m.metric
        sec = coset_section(m, h)
        base = sec.conjugator
        z_ball = [a for a in wm.ball(2) if m.commutes(a, h)]
        for _ in range(40):
            n = rng.randrange(3)
            t = sample_component_tuple(m, rng, wm.ball(2), h, n)
            a = rng.choice(z_ball)
            alt = lambda product: m.mul(a, base(product))
            c = Chain.basis("hochschild", n, t)
            assert pi_h(sec, c, conjugator=base) == pi_h(sec, c, conjugator=alt)


# f2, s3 and a non-central h of f2xz; one section each is shared by every
# example, so later examples read its memo warm
_PI_CASES = [(load_model("f2.json"), (1,)), (load_model("s3.json"), (0, 2, 1)),
             (load_model("f2xz.json"), ((1,), (1,)))]
_WARM = [coset_section(m, h) for m, h in _PI_CASES]


@given(st.data())
def test_memoized_pi_h_matches_the_memo_free_path(data):
    # pi_h with the section's own conjugator passed in reads and fills no memo
    for (m, h), warm in zip(_PI_CASES, _WARM):
        n = data.draw(st.integers(0, 3))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        ball = m.metric.ball(2)
        c = Chain("hochschild", n, [(sample_component_tuple(m, rng, ball, h, n), Fraction(k))
                                    for k in range(1, data.draw(st.integers(1, 4)) + 1)])
        cold = coset_section(m, h)
        reference = pi_h(cold, c, conjugator=cold.conjugator)
        assert not cold._pi
        for sec in (cold, warm, cold):
            assert pi_h(sec, c) == reference
        assert set(cold._pi) == set(c.terms)
        assert pi_h(warm, c, conjugator=warm.conjugator) == reference


def test_pi_h_with_a_wrong_conjugator_bypasses_a_warm_memo(f2, f2xz):
    # g r is no conjugator for g outside Z_h, and pi_h's image changes; after
    # the memo holds the right image it must still return the one g r gives
    rng = random.Random(3)
    for m, h, g in ((f2, (1,), (2,)), (f2xz, ((1,), (1,)), ((2,), (0,)))):
        sec = coset_section(m, h)
        ball = m.metric.ball(2)
        cases = [Chain.basis("hochschild", n, sample_component_tuple(m, rng, ball, h, n))
                 for n in (1, 2, 3) for _ in range(5)]
        right = [pi_h(sec, c) for c in cases]
        memo = dict(sec._pi)
        differ = 0
        for c, image in zip(cases, right):
            fresh = coset_section(m, h)
            wrong = pi_h(sec, c, conjugator=lambda p: m.mul(g, sec.conjugator(p)))
            assert wrong == pi_h(fresh, c, conjugator=lambda p: m.mul(g, fresh.conjugator(p)))
            assert not fresh._pi
            differ += wrong != image
        assert sec._pi == memo
        assert differ, "every image agreed: the test could not tell a memo read"


def test_iota_round_trip_and_validation(s3):
    h = (0, 2, 1)
    sec = coset_section(s3, h)
    z = [g for g in s3.elements() if s3.commutes(g, h)]
    rng = random.Random(2)
    for n in range(3):
        for _ in range(20):
            rest = [rng.choice(z) for _ in range(n)]
            y = rng.choice(z)
            target = s3.conj(y, h)
            first = s3.mul(target, s3.inv(entry_product(s3, rest)))
            t = (first, *rest)
            c = Chain.basis("hochschild", n, t)
            inc = iota_h(sec, c)
            assert inc == c
            assert pi_h(sec, inc) == c
    with pytest.raises(GroupMismatchError):
        iota_h(sec, Chain.basis("hochschild", 0, ((1, 2, 0),)))


def test_iota_of_zero(s3):
    assert iota_h(coset_section(s3, (0, 2, 1)), Chain.zero("hochschild", 2)).is_zero()


# -- homology ranks -----------------------------------------------------------

def test_ranks_z2(z2):
    report = homology_ranks(z2, 2)
    assert [r["betti"] for r in report] == [2, 0, 0]


def test_ranks_z4(z4):
    report = homology_ranks(z4, 1)
    assert [r["betti"] for r in report] == [4, 0]
    assert report[0]["dim_chain_space"] == 4
    assert report[1]["dim_chain_space"] == 16


def test_ranks_s3_transposition_class(s3):
    x = conjugacy_class(s3, (0, 2, 1))
    report = homology_ranks(s3, 1, x=x)
    assert [r["betti"] for r in report] == [1, 0]


def test_ranks_d4_rotation_class(d4):
    # the class of the benchmarked hh-ranks run; b_4 has 8192 columns, 4802
    # in the normalized complex and 1241 in its orbit complex
    report = homology_ranks(d4, 3, x=conjugacy_class(d4, (1, 2, 3, 0)))
    assert [r["dim_chain_space"] for r in report] == [2, 16, 128, 1024]
    assert [r["rank_boundary_in"] for r in report] == [1, 15, 113, 911]
    assert [r["betti"] for r in report] == [1, 0, 0, 0]


def test_ranks_split_agrees_with_monolithic(z4, s3):
    # the split ranks come from cleared coboundaries, the unsplit ones from
    # column reduction; degree 2 has two cleared degrees below the top
    for m in (z4, s3):
        split = homology_ranks(m, 2)
        full = homology_ranks_unsplit(m, 2)
        for key in ("betti", "dim_chain_space", "rank_boundary_in", "rank_boundary_out"):
            assert [r[key] for r in split] == [r[key] for r in full], key


def test_ranks_equal_class_count(z2, z4, s3):
    for m in (z2, z4, s3):
        report = homology_ranks(m, 1)
        assert report[0]["betti"] == len(conjugacy_classes(m))
        assert report[1]["betti"] == 0


def _tuple_at(m, component, n, i):
    """The C-bar tuple of index i in degree n of ``component``, by its
    documented encoding: i = t |x| + q, t the tail's digits over G minus e."""
    elems = m.elements()
    t, q = divmod(i, len(component.members))
    digits = []
    for _ in range(n):
        t, d = divmod(t, len(component.rest))
        digits.append(d)
    tail = tuple(elems[component.rest[d]] for d in reversed(digits))
    p = elems[component.members[q]]
    return (m.mul(p, m.inv(entry_product(m, tail))),) + tail


def _orbit_key(m, t):
    """The least simultaneous conjugate of t: equal keys iff conjugate."""
    return min(tuple(m.element_key(m.conj(y, g)) for g in t) for y in m.elements())


def test_class_component_basis_dimension(d4):
    # the orbit basis of the normalized component: one least tuple per orbit
    # of simultaneous conjugation on its |x| 7^n tuples, none with e after
    # g_0, and each index labelled with the orbit of its tuple
    table = MulTable(d4)
    for rep, counts in (((0, 1, 2, 3), [1, 4, 19, 106, 661]),
                        ((1, 2, 3, 0), [1, 5, 29, 185, 1241])):
        x = conjugacy_class(d4, rep)
        members = class_members(d4, x.rep)
        component = OrbitComplex(table, [table.index[g] for g in members])
        for n, count in enumerate(counts):
            basis = class_component_basis(component, n)
            assert len(basis) == count
            keys = {}
            for g in basis:
                assert component.degrees[g] == n
                t = _tuple_at(d4, component, n, component.reps[g])
                assert conjugacy_class(d4, entry_product(d4, t)) == x
                assert d4.identity not in t[1:]
                keys[_orbit_key(d4, t)] = g
            assert len(keys) == count  # no two representatives are conjugate
            labels = component.labels[n]
            assert len(labels) == len(members) * 7 ** n
            for i, g in enumerate(labels):
                assert keys[_orbit_key(d4, _tuple_at(d4, component, n, i))] == g


@pytest.mark.parametrize("names, rep, max_degree", [
    pytest.param(["s3"], (0, 2, 1), 4, id="s3"),
    pytest.param(["d4"], (0, 1, 2, 3), 3, id="d4-e"),
    pytest.param(["d4"], (1, 2, 3, 0), 3, id="d4-rotation"),
    pytest.param(["z2", "s3"], (1, (1, 2, 0)), 2, id="z2xs3")])
def test_orbit_faces_are_the_faces_of_the_least_tuple(names, rep, max_degree, request):
    # each generator's column is hochschild_faces on its least tuple, less
    # the faces with e after g_0, each face sent to the label of its orbit
    factors = [request.getfixturevalue(name) for name in names]
    m = factors[0] if len(factors) == 1 else ProductGroup(factors)
    table = MulTable(m)
    x = conjugacy_class(m, rep)
    component = OrbitComplex(table, [table.index[g] for g in class_members(m, x.rep)])
    label_of = {}
    for n in range(max_degree + 1):
        for g in class_component_basis(component, n):
            t = _tuple_at(m, component, n, component.reps[g])
            label_of[_orbit_key(m, t)] = g
            if n == 0:
                continue
            expected = {}
            for u, sign in hochschild_faces(m.mul, t):
                if m.identity not in u[1:]:
                    k = label_of[_orbit_key(m, u)]
                    expected[k] = expected.get(k, 0) + sign
            got = {}
            for k, sign in component.faces(g):
                got[k] = got.get(k, 0) + sign
            assert {k: v for k, v in got.items() if v} == {
                k: v for k, v in expected.items() if v}, t


def test_orbit_labels_of_an_abelian_group_are_the_indices(z4):
    # Z(G) = G: every orbit is one tuple, and the labels are a range
    table = MulTable(z4)
    assert table.conj == []
    component = OrbitComplex(table, [table.index[z4.parse_element("g")]])
    assert [class_component_basis(component, n) for n in range(3)] == [
        range(0, 1), range(1, 4), range(4, 13)]
    assert component.labels == [range(0, 1), range(1, 4), range(4, 13)]
    assert component.reps == [0, 0, 1, 2, *range(9)]


def _full_component_report(m, max_degree, x):
    """The report of x's full component, G^(n+1) filtered by class, by column
    reduction."""
    classes = {g: conjugacy_class(m, g) for g in m.elements()}
    bases = [[t for t in itertools.product(m.elements(), repeat=n + 1)
              if classes[entry_product(m, t)] == x]
             for n in range(max_degree + 2)]
    report = hochschild._empty_reports(max_degree)
    hochschild._add_ranks([len(b) for b in bases],
                          boundary_ranks(bases, partial(hochschild_faces, m.mul)), report)
    return report


@pytest.mark.parametrize("names, rep, max_degree", [
    pytest.param(["z2"], None, 3, id="z2-None"),
    pytest.param(["z4"], None, 3, id="z4-None"),
    pytest.param(["s3"], None, 3, id="s3-None"),
    pytest.param(["d4"], None, 2, id="d4-None"),
    pytest.param(["d4"], (1, 2, 3, 0), 3, id="d4-rep3"),
    pytest.param(["z2", "s3"], None, 2, id="z2xs3-None")])
def test_normalized_betti_equal_full_component(names, rep, max_degree, request):
    # per class, the Betti numbers from the orbit complex, and the ranks
    # derived from them, equal the full component's; all of d4's classes at
    # degree 3 take about 4 s, so d4 covers its rotation class there, and a
    # finite product covers the ranks on a product's law
    factors = [request.getfixturevalue(name) for name in names]
    m = factors[0] if len(factors) == 1 else ProductGroup(factors)
    classes = [conjugacy_class(m, rep)] if rep else conjugacy_classes(m)
    for x in classes:
        assert homology_ranks(m, max_degree, x=x) == _full_component_report(m, max_degree, x), x


def test_ranks_infinite_model_rejected(f2):
    with pytest.raises(GroupMismatchError):
        homology_ranks(f2, 1)


def test_resource_cap(z4, monkeypatch):
    monkeypatch.setenv("BURGHELEA_CAP_MB", "1")
    monkeypatch.setattr(hochschild, "class_component_basis",
                        lambda *args: pytest.fail("a basis was built"))
    # the least cap, 1 MB; the degree-6 ranks of a class of Z/4 need ~2.7 MB
    # (0.33 MB of label slots and orbits), so the cap trips before any basis
    # is built
    with pytest.raises(ResourceCapError, match="cap is 1 MB"):
        homology_ranks(z4, 6)


def test_space_cap_checks_every_class_before_any_basis(s3, monkeypatch):
    # at degree 4 under 1 MB the identity class (about 0.53 MB) passes and the
    # transposition class (about 1.6 MB) does not: no class is computed first
    monkeypatch.setenv("BURGHELEA_CAP_MB", "1")
    first = conjugacy_classes(s3)[0]
    assert len(class_members(s3, first.rep)) == 1
    table = MulTable(s3)
    _check_space_cap(table, 4, [table.index[first.rep]])
    monkeypatch.setattr(hochschild, "class_component_basis",
                        lambda *args: pytest.fail("a basis was built"))
    with pytest.raises(ResourceCapError, match="cap is 1 MB"):
        homology_ranks(s3, 4)


def test_space_cap_stops_counting_past_the_cap(d4, monkeypatch):
    monkeypatch.delenv("BURGHELEA_CAP_MB", raising=False)
    # the whole estimate at degree 10000 has thousands of digits
    with pytest.raises(ResourceCapError,
                       match=r"^chain spaces up to degree 9 need more than 512 MB, cap is 512 MB"):
        homology_ranks(d4, 10000)
    # under the cap the estimate is the closed form: the rotation class
    # {r, r^3} has 2 * 7^n label slots and (7^n + 3^n) / 2 orbits in degree n
    # (Burnside: the centre fixes every tuple, r and r^3 fix the tuples of
    # rotations, the reflections fix none)
    table = MulTable(d4)
    rotations = [table.index[g] for g in class_members(d4, (1, 2, 3, 0))]
    for max_degree in range(4):
        top = max_degree + 1
        orbits = [(7 ** n + 3 ** n) // 2 for n in range(top + 1)]
        assert _check_space_cap(table, max_degree, rotations) == (
            sum(8 * 2 * 7 ** n + 100 * orbits[n] for n in range(top + 1))
            + 142 * (top + 1) * orbits[top])
    # slots and orbits within the cap, the top coboundary past it: the exact
    # estimate, rounded up to a tenth of a MB, so that the need printed
    # exceeds the cap (the rotation class at degree 3 needs 1,072,026 bytes,
    # which floors to "1.0 MB"; all of d4 as one class needs about 4.2 MB)
    monkeypatch.setenv("BURGHELEA_CAP_MB", "1")
    for max_degree, members, need in ((3, rotations, r"1\.1"), (3, range(8), r"4\.2")):
        with pytest.raises(ResourceCapError, match=rf"^chain spaces and the top coboundary "
                                                   rf"need about {need} MB, cap is 1 MB"):
            _check_space_cap(table, max_degree, members)


@pytest.mark.parametrize("name, max_degree, rep", [("d4", 3, (1, 2, 3, 0)), ("s3", 2, None),
                                                    ("d4", 4, None)])
def test_space_estimate_covers_traced_peak(name, max_degree, rep, request):
    # the cap's estimate counts what the ranks hold: the label slots and
    # orbits, and the top coboundary with its echelon
    m = request.getfixturevalue(name)
    x = conjugacy_class(m, rep) if rep else None
    table = MulTable(m)
    estimate = max(_check_space_cap(table, max_degree,
                                    [table.index[g] for g in class_members(m, c.rep)])
                   for c in ([x] if x else conjugacy_classes(m)))
    tracemalloc.start()
    try:
        homology_ranks(m, max_degree, x=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate >= peak


def test_invalid_cap_is_an_error(z4, monkeypatch):
    # a cap that is not a positive integer must not fall back to the default
    # or be clamped to 1 MB
    for env in ("abc", "0", "-3"):
        monkeypatch.setenv("BURGHELEA_CAP_MB", env)
        with pytest.raises(ResourceCapError, match="BURGHELEA_CAP_MB"):
            homology_ranks(z4, 1)
