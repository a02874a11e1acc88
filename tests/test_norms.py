import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from burghelea import NormFamily, boundary_cbar, operator_growth_profile
from burghelea.chains import Chain
from burghelea.groups import reduce_word
from burghelea.metric import coset_section
from burghelea.errors import GroupMismatchError
from burghelea.norms import PROFILES
from oracles import convolve


def delta(g):
    return Chain.basis("hochschild", 0, (g,))


def test_group_algebra_norm_examples(f2):
    # on degree-0 chains the tensor norm is the group-algebra norm, which
    # is no kind of its own
    with pytest.raises(GroupMismatchError):
        NormFamily(f2, "group-algebra")
    nf = NormFamily(f2, "hochschild-tensor")
    for k in range(4):
        assert nf.norm(delta(()), k) == 1
    g = (1, 2, -1)
    for k in range(4):
        assert nf.norm(delta(g), k) == 4 ** k  # (1+|g|)^k with |g| = 3


def test_tensor_norm_product_weight(f2):
    nf = NormFamily(f2, "hochschild-tensor")
    c = Chain.basis("hochschild", 1, (((1,), (2, 2))))
    # weights (1+1)^k (1+2)^k
    assert nf.norm(c, 2) == 4 * 9


def test_rd_chain_norm_examples(f2):
    nf = NormFamily(f2, "rd-chain")
    g = (1, 2)
    c = Chain.basis("cbar", 1, ((), g))
    assert nf.norm(c, 2) == 4  # diam(1, g)^2 = |g|^2
    assert nf.norm(c, 0) == 1


def words():
    return st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5).map(reduce_word)


@given(words(), st.integers(0, 3), st.integers(0, 3))
def test_monotone_in_k(w, k1, k2):
    from conftest import load_model
    f2 = load_model("f2.json")
    nf = NormFamily(f2, "hochschild-tensor")
    lo, hi = min(k1, k2), max(k1, k2)
    assert nf.norm(delta(w), lo) <= nf.norm(delta(w), hi)


@given(words(), words(), st.fractions(min_value=-3, max_value=3, max_denominator=6),
       st.integers(0, 3))
def test_homogeneity_and_triangle(w1, w2, q, k):
    from conftest import load_model
    f2 = load_model("f2.json")
    nf = NormFamily(f2, "hochschild-tensor")
    c1, c2 = delta(w1), delta(w2)
    assert nf.norm(c1.scale(q), k) == abs(q) * nf.norm(c1, k)
    assert nf.norm(c1 + c2, k) <= nf.norm(c1, k) + nf.norm(c2, k)
    assert nf.norm(c1, k) >= 0
    assert (nf.norm(c1 - c1, k) == 0) and (c1 - c1).is_zero()


def test_submultiplicative_on_seeded_pairs(f2, z4):
    rng = random.Random(19)
    for m, radius in ((f2, 3), (z4, 3)):
        nf = NormFamily(m, "hochschild-tensor")
        ball = m.metric.ball(radius)
        for _ in range(150):
            f = Chain("hochschild", 0,
                      [((rng.choice(ball),), Fraction(rng.randint(-3, 3))) for _ in range(3)])
            g = Chain("hochschild", 0,
                      [((rng.choice(ball),), Fraction(rng.randint(-3, 3))) for _ in range(3)])
            for k in (0, 1, 2):
                assert nf.norm(convolve(m, f, g), k) <= nf.norm(f, k) * nf.norm(g, k)


def test_seminorm_pair(f2):
    # (|c|_{k,1}, |dc|_{k,1}) on equivariant bar chains
    nf = NormFamily(f2, "rd-chain")

    def pair(c, k):
        return nf.norm(c, k), nf.norm(boundary_cbar(f2, c), k)

    e, g, h = (), (1,), (2, 2)
    # degree-1 generators are cycles of the equivariant complex
    c = Chain.basis("cbar", 1, (e, g))
    assert pair(c, 2) == (1, 0)
    zero = Chain.zero("cbar", 1)
    assert pair(zero, 3) == (0, 0)
    c2 = Chain.basis("cbar", 2, (e, g, h))
    norm2, bnorm2 = pair(c2, 1)
    assert norm2 == 3  # diam(1, a, b^2) = 3 via |a^-1 b^2|
    assert bnorm2 == nf.norm(boundary_cbar(f2, c2), 1)
    cycle = boundary_cbar(f2, c2)  # boundaries are cycles
    if cycle.degree >= 1:
        assert pair(cycle, 1)[1] == 0


def test_pi_h_degree_zero_norm_bound(s3, f2):
    # every degree-0 output term is delta_h, so the norm is bounded by
    # (1+|h|)^k times the input mass
    from burghelea import pi_h
    rng = random.Random(3)
    for m, h in ((s3, (0, 2, 1)), (f2, (1, 2))):
        wm = m.metric
        sec = coset_section(m, h)
        nf = NormFamily(m, "hochschild-tensor")
        ball = wm.ball(2)
        for _ in range(20):
            y = rng.choice(ball)
            c = Chain.basis("hochschild", 0, (m.conj(y, h),)).scale(Fraction(rng.randint(1, 5)))
            k = rng.randint(0, 3)
            mass = sum(abs(q) for q in c.terms.values())
            assert nf.norm(pi_h(sec, c), k) <= (1 + wm.length(h)) ** k * mass


def profile_rows(prof, map_id, metric="induced"):
    return [r for r in prof["rows"] if (r["map"], r["metric"]) == (map_id, metric)]


def test_profile_abelian_pi_ratios_one(zz, z4):
    for m in (zz, z4):
        prof = operator_growth_profile(m, m.metric.ball(2), 1, 2, [0, 1, 2], samples=8, seed=5)
        matching = [r for r in profile_rows(prof, "pi_h") if r["k"] == r["k_prime"]]
        assert matching
        assert all(r["max_ratio_num"] == r["max_ratio_den"] for r in matching)


def test_profile_iota_isometric_on_induced(s3, f2):
    for m in (s3, f2):
        prof = operator_growth_profile(m, m.metric.ball(2), 1, 2, [0, 1], samples=8, seed=6)
        matching = [r for r in profile_rows(prof, "iota_h") if r["k"] == r["k_prime"]]
        assert matching
        for r in matching:
            assert Fraction(r["max_ratio_num"], r["max_ratio_den"]) <= 1


def test_profile_f2_pi_finite_ratios_with_fit(f2):
    h_sample = f2.metric.ball(3)
    prof = operator_growth_profile(f2, h_sample, 1, 2, [0, 1], samples=6, seed=7)
    rows = profile_rows(prof, "pi_h")
    assert rows
    assert all(r["max_ratio_den"] > 0 for r in rows)
    fits = [f for f in prof["fits"] if (f["map"], f["metric"]) == ("pi_h", "induced")]
    assert fits and all("slope" in f for f in fits)


def test_profile_all_maps_run(s3):
    prof = operator_growth_profile(s3, [(0, 2, 1)], 1, 2, [0, 1], samples=5, seed=8)
    for map_id, metric, *_ in PROFILES:
        assert profile_rows(prof, map_id, metric), (map_id, metric)


def test_profile_intrinsic_variant(f2):
    # Z_a = <a>, where |a^m| = |m| is also the intrinsic length, so at h = a
    # the intrinsic rows repeat the induced ones (each profile draws from its
    # own Random(seed)); at h = ab, |(ab)^m| = 2|m| is twice it
    prof = operator_growth_profile(f2, [(1,), (1, 2)], 1, 2, [0, 1], samples=5, seed=9)
    for map_id in ("pi_h", "iota_h"):
        induced, intrinsic = profile_rows(prof, map_id), profile_rows(prof, map_id, "intrinsic")
        assert intrinsic
        at_a = [(r, s) for r, s in zip(induced, intrinsic) if r["h_rep"] == "a"]
        assert at_a and all({**r, "metric": "intrinsic"} == s for r, s in at_a)
        assert induced != [{**s, "metric": "induced"} for s in intrinsic]


def test_rd_chain_norm_takes_no_length_fn(f2):
    # the rd-chain norm weighs ambient diameters: |(e, aa)|_{1,1} = 2 whatever
    # length is passed, so passing one is refused rather than ignored
    c = Chain.basis("cbar", 1, (f2.identity, (1, 1)))
    assert NormFamily(f2, "rd-chain").norm(c, 1) == 2
    with pytest.raises(GroupMismatchError):
        NormFamily(f2, "rd-chain", length_fn=lambda g: 1000)


def test_intrinsic_variant_only_for_maps_that_read_lengths(f2):
    # the report's (map, metric) pairs are PROFILES' in order, and only the
    # maps that read the Z_h side's word length have an intrinsic profile
    prof = operator_growth_profile(f2, [(1,)], 1, 2, [0, 1], samples=2, seed=9)
    pairs = list(dict.fromkeys((r["map"], r["metric"]) for r in prof["rows"]))
    assert pairs == [(map_id, metric) for map_id, metric, *_ in PROFILES]
    assert {m for m, metric in pairs if metric == "intrinsic"} == {"pi_h", "iota_h"}
