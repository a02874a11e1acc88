"""Weighted l1 norm families on group algebras and chain spaces, plus
empirical norm-growth profiling of the comparison maps.

Three evaluators are provided, all exact rationals on finitely supported
chains:

    group-algebra      sum |f(g)| (1+|g|)^k
    hochschild-tensor  sum |f(g_0,...,g_n)| prod_i (1+|g_i|)^k
    rd-chain           sum |c(1,g_1,...,g_n)| diam(1,g_1,...,g_n)^k

The tensor-space weight is the product weight, the concrete realization of
the projective tensor norm of weighted l1 spaces.  diam is the max pairwise
distance.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .bar_complexes import boundary_cbar, phi_g, phi_g_inv, psi, psi_inv
from .chains import Chain, tuple_diameter
from .errors import GroupMismatchError
from .groups import Element, GroupModel
from .hochschild import iota_h, pi_h, sample_component_tuple
from .homotopy import dbar
from .metric import CosetSection, conjugacy_class, coset_section, ols_loglog_fit

NORM_KINDS = ("group-algebra", "hochschild-tensor", "rd-chain")


class NormFamily:
    """Evaluator of the k-indexed weighted l1 norms on one chain space.

    ``length_fn`` defaults to the ambient word length ``model.metric.length``
    (the induced subspace norm on centralizer chains); pass a centralizer's
    intrinsic length to profile the intrinsic variant instead.  The rd-chain
    norm weighs ambient diameters, so it takes no ``length_fn``.
    """

    def __init__(self, model: GroupModel, kind: str,
                 length_fn: Optional[Callable[[Element], int]] = None):
        if kind not in NORM_KINDS:
            raise GroupMismatchError(f"unknown norm kind {kind!r}")
        if kind == "rd-chain" and length_fn is not None:
            raise GroupMismatchError("the rd-chain norm weighs diameters and takes no length_fn")
        self.model = model
        self.kind = kind
        self.length = length_fn if length_fn is not None else model.metric.length

    def norm(self, c: Chain, k: int) -> Fraction:
        if k < 0:
            raise ValueError("k must be nonnegative")
        total = Fraction(0)
        if self.kind == "rd-chain":
            for t, q in c.terms.items():
                total += abs(q) * tuple_diameter(self.model, t) ** k
            return total
        for t, q in c.terms.items():
            w = 1
            for x in t:
                w *= (1 + self.length(x)) ** k
            total += abs(q) * w
        return total


def rd_chain_seminorm_pair(nf: NormFamily, c: Chain, k: int) -> tuple[Fraction, Fraction]:
    """(|c|_{k,1}, |dc|_{k,1}) for an equivariant bar chain of degree >= 1."""
    if c.kind != "cbar":
        raise GroupMismatchError("rd_chain_seminorm_pair needs a cbar chain")
    if c.degree < 1:
        raise GroupMismatchError("the seminorm pair needs degree >= 1")
    return nf.norm(c, k), nf.norm(boundary_cbar(nf.model, c), k)


# ---------------------------------------------------------------------------
# operator growth profiles
# ---------------------------------------------------------------------------

PROFILE_MAPS = ("pi_h", "iota_h", "psi_phi_inv", "phi_psi_inv", "homotopy")
# the maps whose norms read the Z_h side's word length, so the only ones with
# an intrinsic variant
INTRINSIC_MAPS = ("pi_h", "iota_h")


def operator_growth_profile(map_id: str, model: GroupModel,
                            h_sample: Iterable[Element], degree: int, radius: int,
                            k_grid: Iterable[int], samples: int, seed: int,
                            metric_variant: str) -> dict:
    """Max ratios |map(c)|_{k,1} / |c|_{k',1} over sampled generators, per
    class representative, with a log-log growth fit against |h_x|.

    metric_variant selects the induced subspace norm or the intrinsic
    centralizer norm on the Z_h side of one of ``INTRINSIC_MAPS``; the profile
    is a diagnostic, never a certified bound.
    """
    if map_id not in PROFILE_MAPS:
        raise GroupMismatchError(f"unknown map id {map_id!r}")
    if metric_variant not in ("induced", "intrinsic"):
        raise GroupMismatchError(f"unknown metric variant {metric_variant!r}")
    if metric_variant == "intrinsic" and map_id not in INTRINSIC_MAPS:
        raise GroupMismatchError(f"{map_id} has no intrinsic variant")
    rng = random.Random(seed)
    ks = list(k_grid)
    wm = model.metric
    ball = wm.ball(radius)
    rows: list[dict] = []
    per_pair_points: dict[tuple[int, int], list[tuple[float, float]]] = {}

    reps = []
    seen = set()
    for h in h_sample:
        rep = conjugacy_class(model, h).rep
        if rep not in seen:
            seen.add(rep)
            reps.append(rep)

    for rep in reps:
        section = coset_section(model, rep)
        z_ball = [g for g in ball if model.commutes(g, rep)]
        dom_nf, cod_nf, apply_map, sampler = _profile_setup(map_id, section, metric_variant)
        gens = [sampler(rng, ball, z_ball, rep, degree) for _ in range(samples)]
        for k in ks:
            for kp in ks:
                best: Optional[Fraction] = None
                skipped = 0
                for t in gens:
                    c = Chain.basis(dom_nf[1], degree, t)
                    denom = dom_nf[0].norm(c, kp)
                    if denom == 0:
                        skipped += 1
                        continue
                    num = cod_nf.norm(apply_map(c), k)
                    ratio = num / denom
                    if best is None or ratio > best:
                        best = ratio
                if best is None:
                    continue
                rows.append({
                    "map": map_id,
                    "metric": metric_variant,
                    "h_rep": model.element_str(rep),
                    "length_h": wm.length(rep),
                    "k": k,
                    "k_prime": kp,
                    "max_ratio_num": best.numerator,
                    "max_ratio_den": best.denominator,
                    "ratio_float": float(best),
                    "samples": len(gens) - skipped,
                })
                per_pair_points.setdefault((k, kp), []).append(
                    (float(wm.length(rep)), float(best)))

    fits = [{"map": map_id, "metric": metric_variant, "k": k, "k_prime": kp,
             **ols_loglog_fit(points)}
            for (k, kp), points in sorted(per_pair_points.items())]
    return {"rows": rows, "fits": fits}


def _profile_setup(map_id: str, section: CosetSection, metric_variant: str):
    """(domain (NormFamily, chain kind), codomain NormFamily, map, sampler)."""
    model, h = section.model, section.h
    z_length = section.intrinsic_length if metric_variant == "intrinsic" else None
    tensor_g = NormFamily(model, "hochschild-tensor")
    tensor_z = NormFamily(model, "hochschild-tensor", length_fn=z_length)
    rd = NormFamily(model, "rd-chain")

    if map_id == "pi_h":
        return ((tensor_g, "hochschild"), tensor_z,
                lambda c: pi_h(section, c),
                lambda rng, ball, zball, rep, n: sample_component_tuple(model, rng, ball, rep, n))
    if map_id == "iota_h":
        return ((tensor_z, "hochschild"), tensor_g,
                lambda c: iota_h(model, h, c),
                lambda rng, ball, zball, rep, n: sample_component_tuple(model, rng, zball, rep, n))
    if map_id == "psi_phi_inv":
        return ((tensor_z, "hochschild"), rd,
                lambda c: psi(model, phi_g_inv(c)),
                lambda rng, ball, zball, rep, n: sample_component_tuple(model, rng, zball, rep, n))
    if map_id == "phi_psi_inv":
        def backward(c):
            return phi_g(model, h, psi_inv(model, c))

        def sample_cbar(rng, ball, zball, rep, n):
            t = (model.identity,) + tuple(rng.choice(zball) for _ in range(n))
            return t
        return ((rd, "cbar"), tensor_z, backward, sample_cbar)
    assert map_id == "homotopy"
    return ((tensor_g, "hochschild"), tensor_g,
            lambda c: dbar(section, c),
            lambda rng, ball, zball, rep, n: sample_component_tuple(model, rng, ball, rep, n))
