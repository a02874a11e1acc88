"""Executable identity suites tying the complexes and comparison maps
together.

Every check is an exact equality of chains (or of integers, for the metric
estimates); a failing check is reported with the offending generator so a
run can name its counterexample.
"""
from __future__ import annotations

import random
from typing import Optional

from .bar_complexes import (
    boundary_cbar,
    boundary_cprime,
    composed_localization,
    localize_to_equivariant,
    phi_g,
    phi_g_inv,
    psi,
    psi_inv,
)
from .chains import Chain, tuple_str
from .errors import NotConjugateError, NotConjugateWithinError
from .groups import Element, GroupModel
from .hochschild import (
    hochschild_boundary,
    pi_h,
    sample_component_tuple,
    split_by_class,
)
from .homotopy import boundary_e, theta_h, verify_homotopy_square
from .metric import conjugacy_class, coset_section, find_conjugator

DEFAULT_RADIUS = 2


def default_class_reps(model: GroupModel, limit: int = 3,
                       radius: int = 2) -> list[Element]:
    """Deterministic small set of class representatives to verify against."""
    reps = []
    seen = set()
    for g in model.metric.ball(radius):
        rep = conjugacy_class(model, g).rep
        if rep not in seen:
            seen.add(rep)
            reps.append(rep)
        if len(reps) >= limit:
            break
    return reps


def chain_map_suite(model: GroupModel, h: Element, max_degree: int = 3,
                    samples: int = 200, seed: int = 0,
                    radius: int = DEFAULT_RADIUS) -> list[dict]:
    """Exact chain-map identities on seeded random generators:

        b . pi_h   = pi_h . b      (class component; the last Hochschild face
                                    is the cyclic term, so every degree >= 1
                                    generator exercises it)
        d . psi    = psi . d
        b . phi_g  = phi_g . d
        b . theta  = theta . d
    """
    rng = random.Random(seed)
    section = coset_section(model, h)
    ball = model.metric.ball(radius)
    z_ball = [g for g in ball if model.commutes(g, h)]
    checks = []

    for n in range(max_degree + 1):
        failures = []
        for _ in range(samples):
            t = sample_component_tuple(model, rng, ball, h, n)
            c = Chain.basis("hochschild", n, t)
            lhs = hochschild_boundary(model, pi_h(section, c))
            rhs = pi_h(section, hochschild_boundary(model, c))
            if lhs != rhs:
                failures.append(tuple_str(model, t))
        checks.append({"identity_name": "b.pi == pi.b", "degree": n,
                       "samples": samples, "failures": failures})

        failures = []
        for _ in range(samples):
            t = tuple(rng.choice(ball) for _ in range(n))
            c = Chain.basis("cprime", n, t)
            if boundary_cbar(model, psi(model, c)) != psi(model, boundary_cprime(model, c)):
                failures.append(tuple_str(model, t))
            if psi_inv(model, psi(model, c)) != c:
                failures.append("round trip: " + tuple_str(model, t))
        checks.append({"identity_name": "d.psi == psi.d (and psi_inv.psi == id)",
                       "degree": n, "samples": samples, "failures": failures})

        failures = []
        for _ in range(samples):
            t = tuple(rng.choice(z_ball) for _ in range(n))
            c = Chain.basis("cprime", n, t)
            lhs = hochschild_boundary(model, phi_g(model, h, c))
            rhs = phi_g(model, h, boundary_cprime(model, c))
            if lhs != rhs:
                failures.append(tuple_str(model, t))
            if phi_g_inv(phi_g(model, h, c)) != c:
                failures.append("round trip: " + tuple_str(model, t))
        checks.append({"identity_name": "b.phi == phi.d (and phi_inv.phi == id)",
                       "degree": n, "samples": samples, "failures": failures})

        failures = []
        for _ in range(samples):
            t = tuple(rng.choice(ball) for _ in range(n + 1))
            c = Chain.basis("e", n, t)
            if hochschild_boundary(model, theta_h(model, h, c)) != theta_h(model, h, boundary_e(c)):
                failures.append(tuple_str(model, t))
        checks.append({"identity_name": "b.theta == theta.d", "degree": n,
                       "samples": samples, "failures": failures})

        failures = []
        for _ in range(samples):
            t = sample_component_tuple(model, rng, ball, h, n)
            c = Chain.basis("hochschild", n, t)
            direct = localize_to_equivariant(section, c)
            composed = composed_localization(section, c)
            if direct != composed:
                failures.append(tuple_str(model, t))
        checks.append({"identity_name": "localize == psi.phi_inv.pi", "degree": n,
                       "samples": samples, "failures": failures})

    failures = []
    for _ in range(samples):
        n = rng.randrange(0, max_degree + 1)
        t = sample_component_tuple(model, rng, ball, h, n)
        c = Chain.basis("hochschild", n, t)
        parts = split_by_class(model, c)
        total = Chain.zero("hochschild", n)
        for part in parts.values():
            total = total + part
        if total != c:
            failures.append("sum: " + tuple_str(model, t))
        bc = hochschild_boundary(model, c)
        summed = Chain.zero("hochschild", max(n - 1, 0))
        for part in parts.values():
            summed = summed + hochschild_boundary(model, part)
        if summed != bc:
            failures.append("boundary: " + tuple_str(model, t))
    checks.append({"identity_name": "split_by_class respects b and sums to id",
                   "degree": max_degree, "samples": samples, "failures": failures})
    return checks


def well_definedness_suite(model: GroupModel, h: Element, trials: int = 100,
                           max_degree: int = 2, seed: int = 0,
                           radius: int = DEFAULT_RADIUS) -> list[dict]:
    """pi_h is independent of the conjugator choice: replacing r by a*r for
    a in Z_h leaves the output unchanged."""
    rng = random.Random(seed)
    section = coset_section(model, h)
    ball = model.metric.ball(radius)
    z_ball = [g for g in ball if model.commutes(g, h)]
    failures = []
    for _ in range(trials):
        n = rng.randrange(0, max_degree + 1)
        t = sample_component_tuple(model, rng, ball, h, n)
        c = Chain.basis("hochschild", n, t)
        a = rng.choice(z_ball)

        def alternative(product):
            return model.mul(a, section.conjugator(product))

        if pi_h(section, c) != pi_h(section, c, conjugator=alternative):
            failures.append(tuple_str(model, t) + f" with a={model.element_str(a)}")
    return [{"identity_name": "pi_h invariant under r -> a r", "degree": max_degree,
             "samples": trials, "failures": failures}]


def metric_suite(model: GroupModel, h: Element, radius: int = 4) -> list[dict]:
    """Exhaustive window checks: |p_h(g)| <= 2|g| and p_h(ag) = a p_h(g)."""
    wm = model.metric
    section = coset_section(model, h)
    ball = wm.ball(radius)
    z_ball = [a for a in ball if model.commutes(a, h)]

    failures = []
    for g in ball:
        if wm.length(section.retract(g)) > 2 * wm.length(g):
            failures.append(model.element_str(g))
    lip = {"identity_name": "|p_h(g)| <= 2|g|", "degree": radius,
           "samples": len(ball), "failures": failures}

    failures = []
    mul = model._mul  # ball elements are valid
    for a in z_ball:
        for g in ball:
            if section.retract(mul(a, g)) != mul(a, section.retract(g)):
                failures.append(f"a={model.element_str(a)} g={model.element_str(g)}")
    eq = {"identity_name": "p_h(ag) == a p_h(g)", "degree": radius,
          "samples": len(z_ball) * len(ball), "failures": failures}

    failures = []
    for g in ball:
        s = section.section(g)
        if wm.length(s) > wm.length(g):
            failures.append(model.element_str(g))
    sec = {"identity_name": "|s(Z_h g)| <= |g|", "degree": radius,
           "samples": len(ball), "failures": failures}
    return [lip, eq, sec]


def conjugator_cross_check(model: GroupModel, h: Element, samples: int = 30,
                           radius: int = 2, seed: int = 0,
                           max_radius: int = 8) -> list[dict]:
    """The constructive minimal conjugator agrees with breadth-first search."""
    rng = random.Random(seed)
    section = coset_section(model, h)
    ball = model.metric.ball(radius)
    failures = []
    tried = 0
    for _ in range(samples):
        y = rng.choice(ball)
        product = model.conj(y, h)
        try:
            bfs = find_conjugator(model, h, product, max_radius)
        except (NotConjugateError, NotConjugateWithinError) as exc:
            failures.append(f"{model.element_str(product)}: {exc}")
            continue
        tried += 1
        fast = section.conjugator(product)
        if fast != bfs:
            failures.append(
                f"{model.element_str(product)}: bfs={model.element_str(bfs)} "
                f"fast={model.element_str(fast)}")
    return [{"identity_name": "minimal_conjugator == bfs find_conjugator",
             "degree": radius, "samples": tried, "failures": failures}]


def run_identity_suite(model: GroupModel, h: Optional[Element] = None,
                       max_degree: int = 2, samples: int = 50, seed: int = 0,
                       radius: int = DEFAULT_RADIUS) -> dict:
    """The full battery for one model; the CLI maps failures to exit code 2."""
    reps = [h] if h is not None else default_class_reps(model)
    all_checks = []
    for rep in reps:
        prefix = f"[h={model.element_str(rep)}] "
        batteries = [
            chain_map_suite(model, rep, max_degree, samples, seed, radius),
            well_definedness_suite(model, rep, max(samples, 100) if samples else 0,
                                   min(max_degree, 2), seed, radius),
            metric_suite(model, rep, radius=min(radius + 2, 4)),
            conjugator_cross_check(model, rep, samples=min(samples, 30),
                                   radius=radius, seed=seed),
            verify_homotopy_square(model, rep, n_max=min(max_degree, 2),
                                   samples=samples, radius=radius, seed=seed)["checks"],
        ]
        for battery in batteries:
            for check in battery:
                check = dict(check)
                check["identity_name"] = prefix + check["identity_name"]
                all_checks.append(check)
    return {
        "model": model.name,
        "checks": all_checks,
        "all_passed": all(not c["failures"] for c in all_checks),
    }
