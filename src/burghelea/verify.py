"""Executable identity suites tying the complexes and comparison maps
together.

Every check is an exact equality of chains (or of integers, for the metric
estimates).  One helper, ``check_identity``, builds every report entry: it
tests each case on each side of the identity and names every failing case,
so a run can name its counterexample.

Each suite takes the coset section of its class, which carries the model, h,
the retraction p_h and the memoized minimal conjugators.
``run_identity_suite`` builds one section per class representative and hands
it to every suite.

The order of the drawn cases is part of the report contract.  Each suite
draws from its own rng, seeded with the run's seed; a check draws all its
cases, in a fixed order, before it evaluates any, and evaluating a case never
touches the rng.
"""
from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Any, Callable, Iterable, Optional

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
from .errors import GroupMismatchError
from .groups import Element, GroupModel
from .hochschild import (
    hochschild_boundary,
    iota_h,
    pi_h,
    sample_component_tuple,
    split_by_class,
)
from .homotopy import boundary_e, dbar, homotopy_d, normalize_coinvariant, p_e, theta_h
from .metric import CosetSection, conjugacy_class, coset_section, find_conjugator


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


def check_identity(name: str, degree: int, cases: Iterable,
                   text: Callable[[Any], str],
                   *sides: tuple[str, Callable[[Any], bool]]) -> dict:
    """One report entry: each case is tested on every ``(prefix, holds)``
    side in turn, and a side that does not hold records ``prefix + text(case)``.
    A side that raises GroupMismatchError (a map handed a point outside its
    domain, say a retraction that left Z_h) fails that case too, with the
    error appended.  ``samples`` counts the cases."""
    failures = []
    samples = 0
    for case in cases:
        samples += 1
        for prefix, holds in sides:
            try:
                ok, error = holds(case), ""
            except GroupMismatchError as exc:
                ok, error = False, f": {exc}"
            if not ok:
                failures.append(prefix + text(case) + error)
    return {"identity_name": name, "degree": degree, "samples": samples,
            "failures": failures}


def _basis_str(model: GroupModel, c: Chain) -> str:
    """The generator of a basis chain, as a report names it."""
    [t] = c.terms
    return tuple_str(model, t)


def chain_map_suite(section: CosetSection, max_degree: int, samples: int,
                    seed: int, radius: int) -> list[dict]:
    """Exact chain-map identities on seeded random generators:

        b . pi_h   = pi_h . b      (class component; the last Hochschild face
                                    is the cyclic term, so every degree >= 1
                                    generator exercises it)
        d . psi    = psi . d
        b . phi_g  = phi_g . d
        b . theta  = theta . d
    """
    m, h = section.model, section.h
    rng = random.Random(seed)
    ball = m.metric.ball(radius)
    z_ball = [g for g in ball if m.commutes(g, h)]
    b = partial(hochschild_boundary, m)
    text = partial(_basis_str, m)

    def component(n):
        return Chain.basis("hochschild", n, sample_component_tuple(m, rng, ball, h, n))

    def basis(kind, n, pool, length):
        return [Chain.basis(kind, n, tuple(rng.choice(pool) for _ in range(length)))
                for _ in range(samples)]

    checks = []
    for n in range(max_degree + 1):
        checks += [
            check_identity(
                "b.pi == pi.b", n, [component(n) for _ in range(samples)], text,
                ("", lambda c: b(pi_h(section, c)) == pi_h(section, b(c)))),
            check_identity(
                "d.psi == psi.d (and psi_inv.psi == id)", n, basis("cprime", n, ball, n), text,
                ("", lambda c: boundary_cbar(m, psi(m, c)) == psi(m, boundary_cprime(m, c))),
                ("round trip: ", lambda c: psi_inv(m, psi(m, c)) == c)),
            check_identity(
                "b.phi == phi.d (and phi_inv.phi == id)", n, basis("cprime", n, z_ball, n), text,
                ("", lambda c: b(phi_g(section, c)) == phi_g(section, boundary_cprime(m, c))),
                ("round trip: ", lambda c: phi_g_inv(phi_g(section, c)) == c)),
            check_identity(
                "b.theta == theta.d", n, basis("e", n, ball, n + 1), text,
                ("", lambda c: b(theta_h(section, c)) == theta_h(section, boundary_e(c)))),
            check_identity(
                "localize == psi.phi_inv.pi", n, [component(n) for _ in range(samples)], text,
                ("", lambda c: localize_to_equivariant(section, c)
                 == composed_localization(section, c))),
        ]

    def parts(c):
        return split_by_class(m, c).values()

    def total(chains, degree):
        return sum(chains, Chain.zero("hochschild", degree))

    checks.append(check_identity(
        "split_by_class respects b and sums to id", max_degree,
        [component(rng.randrange(0, max_degree + 1)) for _ in range(samples)], text,
        ("sum: ", lambda c: total(parts(c), c.degree) == c),
        ("boundary: ", lambda c: total(map(b, parts(c)), max(c.degree - 1, 0)) == b(c))))
    return checks


def well_definedness_suite(section: CosetSection, trials: int, max_degree: int,
                           seed: int, radius: int) -> list[dict]:
    """pi_h is independent of the conjugator choice: replacing r by a*r for
    a in Z_h leaves the output unchanged."""
    m = section.model
    rng = random.Random(seed)
    ball = m.metric.ball(radius)
    z_ball = [g for g in ball if m.commutes(g, section.h)]

    def draw():
        n = rng.randrange(0, max_degree + 1)
        c = Chain.basis("hochschild", n, sample_component_tuple(m, rng, ball, section.h, n))
        return c, rng.choice(z_ball)

    def holds(case):
        c, a = case
        return pi_h(section, c) == pi_h(
            section, c, conjugator=lambda product: m.mul(a, section.conjugator(product)))

    return [check_identity(
        "pi_h invariant under r -> a r", max_degree, [draw() for _ in range(trials)],
        lambda case: f"{_basis_str(m, case[0])} with a={m.element_str(case[1])}", ("", holds))]


def metric_suite(section: CosetSection, radius: int) -> list[dict]:
    """Exhaustive window checks: |p_h(g)| <= 2|g| and p_h(ag) = a p_h(g)."""
    m = section.model
    length, p, es = m.metric.length, section.retract, m.element_str
    ball = m.metric.ball(radius)
    z_ball = [a for a in ball if m.commutes(a, section.h)]
    mul = m._mul  # ball elements are valid
    return [
        check_identity("|p_h(g)| <= 2|g|", radius, ball, es,
                       ("", lambda g: length(p(g)) <= 2 * length(g))),
        check_identity("p_h(ag) == a p_h(g)", radius, itertools.product(z_ball, ball),
                       lambda ag: f"a={es(ag[0])} g={es(ag[1])}",
                       ("", lambda ag: p(mul(*ag)) == mul(ag[0], p(ag[1])))),
        check_identity("|s(Z_h g)| <= |g|", radius, ball, es,
                       ("", lambda g: length(section.section(g)) <= length(g))),
    ]


def conjugator_cross_check(section: CosetSection, samples: int, radius: int,
                           seed: int) -> list[dict]:
    """The constructive minimal conjugator agrees with breadth-first search.

    Each product is y^-1 h y with |y| <= radius, so y is a conjugator and the
    search window ``radius`` always holds the minimal one."""
    m, h = section.model, section.h
    rng = random.Random(seed)
    ball = m.metric.ball(radius)
    es = m.element_str

    def bfs(product):
        return find_conjugator(m, h, product, radius)

    return [check_identity(
        "minimal_conjugator == bfs find_conjugator", radius,
        [m.conj(rng.choice(ball), h) for _ in range(samples)],
        lambda y: f"{es(y)}: bfs={es(bfs(y))} fast={es(section.conjugator(y))}",
        ("", lambda y: section.conjugator(y) == bfs(y)))]


def verify_homotopy_square(section: CosetSection, n_max: int, samples: int,
                           radius: int, seed: int) -> list[dict]:
    """Check the commuting square for theta_h and the transferred homotopy.

    Identities checked exactly, per degree n <= n_max, on quotient
    representatives (plus the E-level homotopy identity on raw generators):

        theta_h . p^E = pi_h . theta_h
        theta_h . i^E = iota_h . theta_h
        id - i^E p^E  = D d + d D           (on E_.(G))
        id - iota pi  = b Dbar + Dbar b     (on C_.(QG)_x)
        pi_h . iota_h = id

    Returns the list of checks, as every suite does; each failure names the
    offending generator.
    """
    m = section.model
    rng = random.Random(seed)
    b = partial(hochschild_boundary, m)
    theta = partial(theta_h, section)
    text = partial(_basis_str, m)
    checks: list[dict] = []

    for n in range(n_max + 1):
        e = partial(Chain.basis, "e", n)
        # a finite group whose E_n basis fits in the sample is checked on all of it
        if m.is_finite and m.order ** (n + 1) <= max(samples, 1):
            gens = list(itertools.product(m.elements(), repeat=n + 1))
        else:
            ball = m.metric.ball(radius)
            gens = [tuple(rng.choice(ball) for _ in range(n + 1)) for _ in range(samples)]
        reps = sorted({normalize_coinvariant(section, t) for t in gens},
                      key=lambda t: tuple(m.element_key(x) for x in t))
        z_gens = [e(tuple(section.retract(x) for x in t)) for t in reps]
        gens, reps = list(map(e, gens)), list(map(e, reps))

        def homotopy(c):
            lhs = c - iota_h(section, p_e(section, c))
            # the D(d c) addend is the zero map in degree 0
            rhs = boundary_e(homotopy_d(section, c))
            if n > 0:
                rhs = rhs + homotopy_d(section, boundary_e(c))
            return lhs == rhs

        def transferred(c):
            hh = theta(c)
            lhs = hh - iota_h(section, pi_h(section, hh))
            rhs = b(dbar(section, hh))
            if n > 0:
                rhs = rhs + dbar(section, b(hh))
            return lhs == rhs

        def retraction(c):
            zc = theta(c)
            return pi_h(section, iota_h(section, zc)) == zc

        checks += [
            check_identity("theta.pE == pi.theta", n, reps, text,
                           ("", lambda c: theta(p_e(section, c)) == pi_h(section, theta(c)))),
            check_identity("theta.iE == iota.theta", n, z_gens, text,
                           ("", lambda c: theta(iota_h(section, c)) == iota_h(section, theta(c)))),
            check_identity("id - iE.pE == D.d + d.D", n, gens, text, ("", homotopy)),
            check_identity("id - iota.pi == b.Dbar + Dbar.b", n, reps, text, ("", transferred)),
            check_identity("pi.iota == id", n, z_gens, text, ("", retraction)),
        ]

    return checks


def run_identity_suite(model: GroupModel, h: Optional[Element], max_degree: int,
                       samples: int, seed: int, radius: int) -> dict:
    """The full battery for one model; the CLI maps failures to exit code 2.
    The CLI passes its group's interned view (``groups``); a raw model reports the same."""
    reps = [h] if h is not None else default_class_reps(model)
    all_checks = []
    for rep in reps:
        section = coset_section(model, rep)
        prefix = f"[h={model.element_str(rep)}] "
        batteries = [
            chain_map_suite(section, max_degree, samples, seed, radius),
            well_definedness_suite(section, max(samples, 100) if samples else 0,
                                   min(max_degree, 2), seed, radius),
            metric_suite(section, min(radius + 2, 4)),
            conjugator_cross_check(section, min(samples, 30), radius, seed),
            verify_homotopy_square(section, min(max_degree, 2), samples, radius, seed),
        ]
        all_checks += [dict(check, identity_name=prefix + check["identity_name"])
                       for battery in batteries for check in battery]
    return {
        "model": model.name,
        "checks": all_checks,
        "all_passed": all(not c["failures"] for c in all_checks),
    }
