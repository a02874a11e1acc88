"""The auxiliary complex E_.(G), the retraction/inclusion pair onto E_.(Z_h),
the inductive chain homotopies, and the comparison map theta_h onto the
class-restricted Hochschild complex.

E_n(G) has basis G^{n+1} with the simplicial boundary

    d(g_0,...,g_n) = (g_1,...,g_n) + sum_{k=1}^n (-1)^k (g_0,...,^g_k,...,g_n).

p^E applies p_h entrywise, i^E is the inclusion, and

    D_0(g_0) = (g_0 s(Z_h g_0)^-1, g_0),
    D_n(g_0,...) = (g_0, (id - i^E p^E - D_{n-1} d_n)(g_0,...))

satisfies id - i^E p^E = D_{n-1} d_n + d_{n+1} D_n exactly.  theta_h sends
(g_0,...,g_n) to (g_n^-1 h g_0, g_0^-1 g_1, ..., g_{n-1}^-1 g_n); its kernel
is spanned by left Z_h-translation differences, so it identifies the
Z_h-coinvariants of E_.(G) with the class component of h.

The face map of E_.(G) is ``chains.simplex_faces``, shared with simplicial
complexes.  i^E is ``hochschild.iota_h``: both are the identity on terms
after checking that every entry centralizes h.  theta_h and its lift are
``hochschild.theta_entries`` and ``hochschild.prefix_products`` on one
generator, as in ``hochschild.pi_h``; ``theta_quotient_dims`` builds its
matrices from theta_entries and the translation differences.

p^E, D, Dbar, theta_h and its lift take the coset section of h alone: the
section owns the model, h (already checked), the retraction p_h and the
memoized minimal conjugators, and D memoizes its terms on each generator
there too.  A model's word metric is ``model.metric``.

This module holds the maps and their rank data only.  The identities the
maps satisfy are checked by ``verify.verify_homotopy_square``.
"""
from __future__ import annotations

import itertools

from .chains import Chain, check_chain, linear_extend, simplex_faces
from .errors import GroupMismatchError
from .groups import Element, GroupModel, class_members
from .hochschild import entry_product, iota_h, prefix_products, theta_entries
from .linalg import boundary_columns, rank_of_columns
from .metric import CosetSection, coset_section


def boundary_e(c: Chain) -> Chain:
    if c.kind != "e":
        raise GroupMismatchError("boundary_e needs an e-complex chain")
    if c.degree == 0:
        return Chain.zero("e", 0)
    return linear_extend(c, "e", c.degree - 1, simplex_faces)


def p_e(section: CosetSection, c: Chain) -> Chain:
    """Entrywise retraction E_.(G) -> E_.(Z_h)."""
    if c.kind != "e":
        raise GroupMismatchError("p_e needs an e-complex chain")
    check_chain(section.model, c)
    p = section.retract

    def on_basis(t):
        yield tuple(p(x) for x in t), 1

    return linear_extend(c, "e", c.degree, on_basis)


def homotopy_d(section: CosetSection, c: Chain) -> Chain:
    """The chain homotopy D_n : E_n(G) -> E_{n+1}(G) for id - i^E p^E.

    The inductive prepend is extended linearly over the inner chain.  D's
    terms on each generator are memoized on the section
    (``section._homotopy``); the recursion goes through this function.
    """
    if c.kind != "e":
        raise GroupMismatchError("homotopy_d needs an e-complex chain")
    m = section.model
    check_chain(m, c)
    n = c.degree
    p, memo = section.retract, section._homotopy

    def on_basis(t):
        terms = memo.get(t)
        if terms is None:
            if n == 0:
                terms = [((p(t[0]), t[0]), 1)]
            else:
                gen = Chain._of("e", n, {t: 1}, c.checked)
                inner = (gen - iota_h(section, p_e(section, gen))
                         - homotopy_d(section, boundary_e(gen)))
                terms = [((t[0],) + u, q) for u, q in inner.terms.items()]
            memo[t] = terms
        return terms

    return linear_extend(c, "e", n + 1, on_basis)


def theta_h(section: CosetSection, c: Chain) -> Chain:
    """E_n(G) -> C_n(QG)_x for x the class of section.h, extended linearly
    from ``hochschild.theta_entries``."""
    if c.kind != "e":
        raise GroupMismatchError("theta_h needs an e-complex chain")
    m, h = section.model, section.h
    check_chain(m, c)
    return linear_extend(c, "hochschild", c.degree,
                         lambda t: ((theta_entries(m, h, t), 1),))


def theta_lift(section: CosetSection, c: Chain) -> Chain:
    """A section of theta_h: a generator with entry product r^-1 h r lifts to
    (r a_0, r a_0 a_1, ..., r a_0...a_n), r the minimal conjugator."""
    if c.kind != "hochschild":
        raise GroupMismatchError("theta_lift needs a hochschild chain")
    m = section.model
    check_chain(m, c)

    def on_basis(t):
        yield prefix_products(m, section.conjugator(entry_product(m, t)), t), 1

    return linear_extend(c, "e", c.degree, on_basis)


def dbar(section: CosetSection, c: Chain) -> Chain:
    """The homotopy D pushed through theta_h onto the Hochschild side."""
    lifted = theta_lift(section, c)
    return theta_h(section, homotopy_d(section, lifted))


def normalize_coinvariant(section: CosetSection, t: tuple) -> tuple:
    """Canonical representative of the left Z_h-translation orbit of t:
    translate by p_h(t_0)^-1, forcing the first entry into the image of s."""
    m = section.model
    return translate_tuple(m, m.inv(section.retract(t[0])), t)


def translate_tuple(model: GroupModel, z: Element, t: tuple) -> tuple:
    return tuple(model.mul(z, x) for x in t)


def theta_quotient_dims(model: GroupModel, h: Element, degree: int) -> dict:
    """Rank data for theta_h on a finite model: image rank, kernel rank, and
    the coinvariant basis count, against dim C_degree(QG)_x."""
    if not model.is_finite:
        raise GroupMismatchError("theta rank checks need a finite model")
    section = coset_section(model, h)
    tuples = list(itertools.product(model.elements(), repeat=degree + 1))
    members = set(class_members(model, h))
    target = [t for t in tuples if entry_product(model, t) in members]
    index = {t: i for i, t in enumerate(target)}
    image_rank = rank_of_columns(
        boundary_columns(tuples, index, lambda t: ((theta_entries(model, h, t), 1),)))

    zs = [z for z in model.elements() if model.commutes(z, h) and z != model.identity]
    tindex = {t: i for i, t in enumerate(tuples)}

    def difference(zt):
        z, t = zt
        yield translate_tuple(model, z, t), 1
        yield t, -1

    kernel_rank = rank_of_columns(
        boundary_columns(((z, t) for t in tuples for z in zs), tindex, difference))
    orbits = len({normalize_coinvariant(section, t) for t in tuples})

    return {
        "degree": degree,
        "dim_e": len(tuples),
        "dim_component": len(target),
        "image_rank": image_rank,
        "kernel_span_rank": kernel_rank,
        "coinvariant_basis": orbits,
    }

