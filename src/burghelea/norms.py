"""Weighted l1 norm families on group algebras and chain spaces, plus
empirical norm-growth profiling of the comparison maps.

Two evaluators are provided, both exact rationals on finitely supported
chains:

    hochschild-tensor  sum |f(g_0,...,g_n)| prod_i (1+|g_i|)^k
    rd-chain           sum |c(1,g_1,...,g_n)| diam(1,g_1,...,g_n)^k

The tensor-space weight is the product weight, the concrete realization of
the projective tensor norm of weighted l1 spaces; on degree-0 chains it is
the group-algebra norm sum |f(g)| (1+|g|)^k.  diam is the max pairwise
distance.

``operator_growth_profile`` estimates the polynomial norm bounds of the
comparison maps.  Its table ``PROFILES`` has one entry per (map, metric)
profile, in report order: pi_h and iota_h under the induced and the
intrinsic metric, then psi phi^-1, phi psi^-1 and the homotopy D-bar under
the induced one.  Each entry declares its domain norm and chain kind, its
codomain norm, its map on one class component and the ball its generators
are drawn from.  One run builds one coset section and one Z_h ball per
class, which all seven profiles share.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .bar_complexes import phi_g, phi_g_inv, psi, psi_inv
from .chains import Chain, tuple_diameter
from .errors import GroupMismatchError, WorkbenchError
from .groups import Element, GroupModel
from .hochschild import iota_h, pi_h, sample_component_tuple
from .homotopy import dbar
from .metric import conjugacy_class, coset_section, ols_loglog_fit

NORM_KINDS = ("hochschild-tensor", "rd-chain")


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


# ---------------------------------------------------------------------------
# operator growth profiles
# ---------------------------------------------------------------------------

# (map, metric, domain norm, domain chain kind, codomain norm, map on one class
# component, ball the domain generators are drawn from), in report order.  A
# norm is "G" (the tensor norm of G's word length), "Z" (the tensor norm on
# the Z_h side: G's word length under the induced metric, Z_h's intrinsic
# length under the intrinsic one) or "rd"; a ball is G's ("G") or Z_h's
# ("Z").  pi_h and iota_h are the maps whose norms read the Z_h side's word
# length, so the only ones with an intrinsic profile.
PROFILES = (
    ("pi_h", "induced", "G", "hochschild", "Z", pi_h, "G"),
    ("pi_h", "intrinsic", "G", "hochschild", "Z", pi_h, "G"),
    ("iota_h", "induced", "Z", "hochschild", "G", iota_h, "Z"),
    ("iota_h", "intrinsic", "Z", "hochschild", "G", iota_h, "Z"),
    ("psi_phi_inv", "induced", "Z", "hochschild", "rd",
     lambda section, c: psi(section.model, phi_g_inv(c)), "Z"),
    ("phi_psi_inv", "induced", "rd", "cbar", "Z",
     lambda section, c: phi_g(section, psi_inv(section.model, c)), "Z"),
    ("homotopy", "induced", "G", "hochschild", "G", dbar, "G"),
)


def operator_growth_profile(model: GroupModel, h_sample: Iterable[Element], degree: int,
                            radius: int, k_grid: Iterable[int], samples: int,
                            seed: int) -> dict:
    """Max ratios |map(c)|_{k,1} / |c|_{k',1} over sampled generators, per
    entry of ``PROFILES`` and class representative, with a log-log growth fit
    against |h_x|.

    Each class has one coset section and one Z_h ball, which all profiles
    share; each profile draws its generators from its own
    ``random.Random(seed)``.  The profile is a diagnostic, never a certified
    bound.
    """
    ks = list(k_grid)
    wm = model.metric
    ball = wm.ball(radius)
    tensor, rd = NormFamily(model, "hochschild-tensor"), NormFamily(model, "rd-chain")
    classes = []
    for rep in dict.fromkeys(conjugacy_class(model, h).rep for h in h_sample):
        section = coset_section(model, rep)
        balls = {"G": ball, "Z": [g for g in ball if model.commutes(g, rep)]}
        intrinsic = NormFamily(model, "hochschild-tensor", length_fn=section.intrinsic_length)
        classes.append((rep, section, balls, intrinsic))

    rows: list[dict] = []
    fits: list[dict] = []
    for map_id, metric, dom, kind, cod, apply_map, pool in PROFILES:
        rng = random.Random(seed)
        per_pair_points: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for rep, section, balls, intrinsic in classes:
            norms = {"G": tensor, "Z": intrinsic if metric == "intrinsic" else tensor, "rd": rd}
            chains = [Chain.basis(kind, degree, _draw(model, rng, kind, balls[pool], rep, degree))
                      for _ in range(samples)]
            images = [apply_map(section, c) for c in chains]
            for k in ks:
                for kp in ks:
                    ratios = [norms[cod].norm(image, k) / denom
                              for c, image in zip(chains, images)
                              if (denom := norms[dom].norm(c, kp)) != 0]
                    if not ratios:
                        continue
                    best = max(ratios)
                    try:
                        ratio_float = float(best)
                    except OverflowError:
                        raise WorkbenchError(
                            f"{map_id} ({metric}) at h = {model.element_str(rep)}, k = {k}, "
                            f"k' = {kp}: the max ratio passes the float range") from None
                    rows.append({
                        "map": map_id,
                        "metric": metric,
                        "h_rep": model.element_str(rep),
                        "length_h": wm.length(rep),
                        "k": k,
                        "k_prime": kp,
                        "max_ratio_num": best.numerator,
                        "max_ratio_den": best.denominator,
                        "ratio_float": ratio_float,
                        "samples": len(ratios),
                    })
                    per_pair_points.setdefault((k, kp), []).append(
                        (float(wm.length(rep)), ratio_float))
        fits += [{"map": map_id, "metric": metric, "k": k, "k_prime": kp,
                  **ols_loglog_fit(points)}
                 for (k, kp), points in sorted(per_pair_points.items())]
    return {"rows": rows, "fits": fits}


def _draw(model: GroupModel, rng: random.Random, kind: str, pool: list, rep: Element,
          degree: int) -> tuple:
    """A random domain generator: a Hochschild tuple of rep's class, or an
    equivariant bar tuple (e, z_1, ..., z_n)."""
    if kind == "cbar":
        return (model.identity,) + tuple(rng.choice(pool) for _ in range(degree))
    return sample_component_tuple(model, rng, pool, rep, degree)
