import itertools
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest

from oracles import boundary_ranks

from burghelea import (
    GroupMismatchError,
    ResourceCapError,
    bar_homology_ranks,
    boundary_cbar,
    boundary_cprime,
    conjugacy_class,
    conjugacy_classes,
    coset_section,
    homology_ranks,
    localize_to_equivariant,
    phi_g,
    phi_g_inv,
    psi,
    psi_inv,
)
from burghelea.bar_complexes import (
    check_cprime_space_cap,
    composed_localization,
    cprime_faces,
    normalize_cbar_tuple,
)
from burghelea.chains import Chain
from burghelea.hochschild import sample_component_tuple


def test_cprime_boundary_examples(f2):
    g = (1,)
    assert boundary_cprime(f2, Chain.basis("cprime", 1, (g,))).is_zero()
    # d(g, g^-1) = (g^-1) - (e) + (g)
    out = boundary_cprime(f2, Chain.basis("cprime", 2, (g, (-1,))))
    assert out == Chain("cprime", 1, [(((-1,),), Fraction(1)),
                                      (((),), Fraction(-1)),
                                      (((1,),), Fraction(1))])


def test_cprime_dd_zero(s3, f2):
    rng = random.Random(7)
    for m in (s3, f2):
        ball = m.metric.ball(2)
        for n in (2, 3, 4):
            t = tuple(rng.choice(ball) for _ in range(n))
            c = Chain.basis("cprime", n, t)
            assert boundary_cprime(m, boundary_cprime(m, c)).is_zero()


def test_cbar_boundary_examples(f2):
    e, g, h = (), (1,), (2, 2)
    # degree 1: both faces normalize to (e), so the boundary vanishes
    assert boundary_cbar(f2, Chain.basis("cbar", 1, (e, g))).is_zero()
    # degree 2 instance: faces (g,h) -> (e, g^-1 h), (e,h), (e,g)
    out = boundary_cbar(f2, Chain.basis("cbar", 2, (e, g, h)))
    assert out == Chain("cbar", 1, [
        ((e, f2.mul(f2.inv(g), h)), Fraction(1)),
        ((e, h), Fraction(-1)),
        ((e, g), Fraction(1)),
    ])


def test_cbar_dd_zero_and_validation(s3, f2):
    rng = random.Random(17)
    for m in (s3, f2):
        e = m.identity
        ball = m.metric.ball(2)
        for n in (2, 3):
            t = (e,) + tuple(rng.choice(ball) for _ in range(n))
            c = Chain.basis("cbar", n, t)
            assert boundary_cbar(m, boundary_cbar(m, c)).is_zero()
    with pytest.raises(GroupMismatchError):
        boundary_cbar(f2, Chain.basis("cbar", 1, ((1,), (2,))))


def test_psi_examples(f2):
    a, b = (1,), (2,)
    out = psi(f2, Chain.basis("cprime", 2, (a, b)))
    assert out == Chain.basis("cbar", 2, ((), a, (1, 2)))
    back = psi_inv(f2, out)
    assert back == Chain.basis("cprime", 2, (a, b))


def test_psi_chain_map_degree_three(s3, f2):
    rng = random.Random(23)
    for m in (s3, f2):
        ball = m.metric.ball(2)
        for _ in range(30):
            t = tuple(rng.choice(ball) for _ in range(3))
            c = Chain.basis("cprime", 3, t)
            assert boundary_cbar(m, psi(m, c)) == psi(m, boundary_cprime(m, c))
            assert psi_inv(m, psi(m, c)) == c


def test_phi_examples(zz):
    g = (1, 0)
    sec = coset_section(zz, g)
    # degree 0: empty tuple maps to (g)
    out = phi_g(sec, Chain.basis("cprime", 0, ()))
    assert out == Chain.basis("hochschild", 0, (g,))
    # Z^2 instance in additive notation
    out = phi_g(sec, Chain.basis("cprime", 1, ((0, 1),)))
    assert out == Chain.basis("hochschild", 1, ((1, -1), (0, 1)))


def test_phi_chain_map_and_inverse(s3):
    h = (0, 2, 1)
    sec = coset_section(s3, h)
    z = [g for g in s3.elements() if s3.commutes(g, h)]
    rng = random.Random(29)
    for n in (0, 1, 2, 3):
        for _ in range(15):
            t = tuple(rng.choice(z) for _ in range(n))
            c = Chain.basis("cprime", n, t)
            image = phi_g(sec, c)
            from burghelea import hochschild_boundary
            assert hochschild_boundary(s3, image) == phi_g(sec, boundary_cprime(s3, c))
            assert phi_g_inv(image) == c
            # image tuples multiply to h since all entries centralize h
            for u in image.terms:
                from burghelea.hochschild import entry_product
                assert entry_product(s3, u) == h


def test_phi_rejects_noncentral_entries(s3):
    with pytest.raises(GroupMismatchError):
        phi_g(coset_section(s3, (0, 2, 1)), Chain.basis("cprime", 1, ((1, 2, 0),)))


def test_localize_composition_equality(s3, f2, zz):
    rng = random.Random(31)
    for m, h in ((s3, (0, 2, 1)), (f2, (1,)), (zz, (1, 0))):
        wm = m.metric
        sec = coset_section(m, h)
        for n in range(3):
            for _ in range(35):
                t = sample_component_tuple(m, rng, wm.ball(2), h, n)
                c = Chain.basis("hochschild", n, t)
                direct = localize_to_equivariant(sec, c)
                composed = composed_localization(sec, c)
                assert direct == composed
                for u in direct.terms:
                    assert u[0] == m.identity


def test_localize_degree_zero(s3):
    h = (0, 2, 1)
    sec = coset_section(s3, h)
    out = localize_to_equivariant(sec, Chain.basis("hochschild", 0, ((2, 1, 0),)))
    assert out == Chain.basis("cbar", 0, (s3.identity,))


def test_localize_abelian_formula(zz):
    # p = id and r = e, so the orbit tuple is the prefix-product tuple
    h = (1, 0)
    sec = coset_section(zz, h)
    g0 = (1, 2)
    t = (g0, zz.mul(zz.inv(g0), h))
    out = localize_to_equivariant(sec, Chain.basis("hochschild", 1, t))
    expected = normalize_cbar_tuple(zz, (g0, h))
    assert out == Chain.basis("cbar", 1, expected)


def test_normalize_cbar_tuple(f2):
    t = ((1,), (1, 2))
    assert normalize_cbar_tuple(f2, t) == ((), (2,))


# -- Burghelea factor equality --------------------------------------------------

def test_bar_ranks_finite_groups(z2, z4, s3):
    # H_0 = Q and H_{>0} = 0 rationally for finite groups
    for m in (z2, z4, s3):
        ranks = bar_homology_ranks(list(m.elements()), m.mul, 1)
        assert ranks == [1, 0]


def _column_reduction_betti(m, z, max_degree):
    """Betti numbers of C'_.(Z) by column reduction of each boundary, over
    the bases in product order and on the checked law."""
    bases = [list(itertools.product(z, repeat=n)) for n in range(max_degree + 2)]
    ranks = boundary_ranks(bases, partial(cprime_faces, m.mul))
    return [len(bases[n]) - ranks[n] - ranks[n + 1] for n in range(max_degree + 1)]


@pytest.mark.parametrize("name, reps, max_degree", [
    ("z2", None, 3), ("z4", None, 3), ("s3", None, 3), ("d4", None, 3),
    ("d4", [(0, 1, 2, 3), (2, 3, 0, 1)], 4)])
def test_bar_ranks_match_column_reduction(name, reps, max_degree, request):
    # the centralizer side of burghelea-check ranks by clearing; column
    # reduction of C'(Z_h) is its reference, for every class rep (or d4's
    # two central classes, Z_h = D4, at degree 4)
    m = request.getfixturevalue(name)
    for rep in reps or [c.rep for c in conjugacy_classes(m)]:
        z = [g for g in m.elements() if m.commutes(g, rep)]
        assert bar_homology_ranks(z, m._mul, max_degree) == _column_reduction_betti(
            m, z, max_degree), (name, rep)


@pytest.mark.parametrize("name, max_degree", [("z2", 11), ("z4", 5), ("s3", 4), ("d4", 3)])
def test_bar_space_estimate_covers_traced_peak(name, max_degree, request):
    m = request.getfixturevalue(name)
    elements = list(m.elements())
    estimate = check_cprime_space_cap(len(elements), max_degree)
    tracemalloc.start()
    try:
        bar_homology_ranks(elements, m._mul, max_degree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate >= peak


def test_bar_space_cap_refuses_before_any_basis(d4, monkeypatch):
    # d4 at degree 5 is priced at about 157 MB, 47 MB of it the bases: under
    # a 32 MB cap it refuses while still counting them, having built nothing
    monkeypatch.setenv("BURGHELEA_CAP_MB", "32")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=r"^chain spaces up to degree 6 need more "
                                                   r"than 32 MB, cap is 32 MB"):
            bar_homology_ranks(list(d4.elements()), d4._mul, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_burghelea_factor_per_class(s3):
    for rep in [c.rep for c in conjugacy_classes(s3)]:
        x = conjugacy_class(s3, rep)
        hochschild_side = [r["betti"] for r in homology_ranks(s3, 1, x=x)]
        z = [g for g in s3.elements() if s3.commutes(g, rep)]
        bar_side = bar_homology_ranks(z, s3.mul, 1)
        assert hochschild_side == bar_side
