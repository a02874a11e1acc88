"""The two standard complexes computing group homology over Q, and the
comparison maps into the class-restricted Hochschild complex.

C'_n(G) has basis G^n with

    d(g_1,...,g_n) = (g_2,...,g_n)
                     + sum_{k=1}^{n-1} (-1)^k (g_1,...,g_k g_{k+1},...,g_n)
                     + (-1)^n (g_1,...,g_{n-1})

while C_n(G) consists of equivariant chains on G^{n+1}, stored here by the
unique orbit representative with leading entry e; its boundary deletes one
entry at a time and renormalizes the 0-th face by left translation.

The face maps are ``cprime_faces`` and ``cbar_faces`` (the latter is
``chains.simplex_faces`` with face 0 renormalized).  ``boundary_cprime`` and
``boundary_cbar`` extend them over chains, ``bar_homology_ranks`` and
``dehn.BarTruncation`` turn them into matrices through
``linalg.boundary_columns``.

psi / psi_inv translate between the two; phi_g embeds C'_n(Z_g) into the
Hochschild component at the class of g.  phi_g and the localizations onto
C_.(Z_h) take the coset section of g or h alone: it owns the model, h
(already checked), the retraction p_h and the memoized minimal conjugators.
A model's word metric is ``model.metric``.
"""
from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Iterator

from .chains import Chain, check_chain, linear_extend, simplex_faces
from .errors import GroupMismatchError
from .groups import Element, GroupModel
from .hochschild import entry_product, pi_h, prefix_products
from .linalg import boundary_ranks
from .metric import CosetSection


def cprime_faces(mul: Callable[[Element, Element], Element],
                 t: tuple) -> Iterator[tuple[tuple, int]]:
    """Faces of a C' generator of degree n = len(t) >= 1."""
    n = len(t)
    yield t[1:], 1
    for k in range(1, n):
        yield t[:k - 1] + (mul(t[k - 1], t[k]),) + t[k + 1:], 1 if k % 2 == 0 else -1
    yield t[:-1], 1 if n % 2 == 0 else -1


def boundary_cprime(model: GroupModel, c: Chain) -> Chain:
    if c.kind != "cprime":
        raise GroupMismatchError("boundary_cprime needs a cprime chain")
    check_chain(model, c)
    if c.degree == 0:
        return Chain.zero("cprime", 0)
    return linear_extend(c, "cprime", c.degree - 1, partial(cprime_faces, model._mul))


def normalize_cbar_tuple(model: GroupModel, t: tuple) -> tuple:
    """Left-translate an orbit tuple of valid elements so that its leading
    entry is e."""
    mul = model._mul
    g0 = model._inv(t[0])
    return tuple([mul(g0, x) for x in t])


def cbar_faces(model: GroupModel, t: tuple) -> Iterator[tuple[tuple, int]]:
    """Faces of a C-bar generator (e, g_1, ..., g_n) of valid elements,
    n >= 1: the simplex faces, with face 0 translated back to a leading e."""
    if t[0] != model.identity:
        raise GroupMismatchError("cbar tuples must have leading identity")
    faces = simplex_faces(t)
    face, sign = next(faces)
    yield normalize_cbar_tuple(model, face), sign
    yield from faces


def boundary_cbar(model: GroupModel, c: Chain) -> Chain:
    if c.kind != "cbar":
        raise GroupMismatchError("boundary_cbar needs a cbar chain")
    check_chain(model, c)
    if c.degree == 0:
        return Chain.zero("cbar", 0)
    return linear_extend(c, "cbar", c.degree - 1, partial(cbar_faces, model))


def psi(model: GroupModel, c: Chain) -> Chain:
    """C'_n -> C_n: (g_1,...,g_n) -> (1, g_1, g_1 g_2, ..., g_1...g_n)."""
    if c.kind != "cprime":
        raise GroupMismatchError("psi needs a cprime chain")
    check_chain(model, c)
    e = model.identity

    def on_basis(t):
        yield (e,) + prefix_products(model, e, t), 1

    return linear_extend(c, "cbar", c.degree, on_basis)


def psi_inv(model: GroupModel, c: Chain) -> Chain:
    """C_n -> C'_n: consecutive quotients of the orbit representative."""
    if c.kind != "cbar":
        raise GroupMismatchError("psi_inv needs a cbar chain")
    check_chain(model, c)
    mul, inv = model._mul, model._inv

    def on_basis(t):
        if t[0] != model.identity:
            raise GroupMismatchError("cbar tuples must have leading identity")
        out = [mul(inv(t[i]), t[i + 1]) for i in range(len(t) - 1)]
        yield tuple(out), 1

    return linear_extend(c, "cprime", c.degree, on_basis)


def phi_g(section: CosetSection, c: Chain) -> Chain:
    """C'_n(Z_g) -> C_n(QZ_g)_[g] for g = section.h: prepend
    (g_1...g_n)^-1 g.

    Entries must centralize g; the image tuple then has entry product g.
    """
    if c.kind != "cprime":
        raise GroupMismatchError("phi_g needs a cprime chain")
    model, g = section.model, section.h
    check_chain(model, c)
    mul = model._mul

    def on_basis(t):
        for x in t:
            if mul(x, g) != mul(g, x):
                raise GroupMismatchError(
                    f"entry {model.element_str(x)} does not centralize g")
        lead = mul(model._inv(entry_product(model, t)), g)
        yield (lead,) + t, 1

    return linear_extend(c, "hochschild", c.degree, on_basis)


def phi_g_inv(c: Chain) -> Chain:
    """Drop the leading entry of each generator."""
    if c.kind != "hochschild":
        raise GroupMismatchError("phi_g_inv needs a hochschild chain")

    def on_basis(t):
        yield t[1:], 1

    return linear_extend(c, "cprime", c.degree, on_basis)


def localize_to_equivariant(section: CosetSection, c: Chain) -> Chain:
    """Direct formula for psi . phi_h^-1 . pi_h on a class component.

    A generator with entry product r^-1 h r maps to the equivariant chain
    with value 1 on the orbit of (p(r g_0), p(r g_0 g_1), ..., p(r g_0...g_n)),
    stored by its leading-e representative; r is the minimal conjugator.
    """
    if c.kind != "hochschild":
        raise GroupMismatchError("localize_to_equivariant needs a hochschild chain")
    m = section.model
    check_chain(m, c)
    p = section.retract

    def on_basis(t):
        lift = prefix_products(m, section.conjugator(entry_product(m, t)), t)
        yield normalize_cbar_tuple(m, tuple([p(x) for x in lift])), 1

    return linear_extend(c, "cbar", c.degree, on_basis)


def composed_localization(section: CosetSection, c: Chain) -> Chain:
    """The three-map composition psi(phi_h^-1(pi_h(c))), for cross-checks."""
    return psi(section.model, phi_g_inv(pi_h(section, c)))


# ---------------------------------------------------------------------------
# homology ranks of C'_.(H) for a finite (sub)group H
# ---------------------------------------------------------------------------

def bar_homology_ranks(elements: list[Element], mul: Callable[[Element, Element], Element],
                       max_degree: int) -> list[int]:
    """Betti numbers of C'_.(H) for a finite group given by its elements and
    multiplication; independent of the Hochschild machinery."""
    elems = sorted(elements)
    bases = [sorted(itertools.product(elems, repeat=n)) for n in range(max_degree + 2)]
    ranks = boundary_ranks(bases, partial(cprime_faces, mul))
    return [len(bases[n]) - ranks[n] - ranks[n + 1] for n in range(max_degree + 1)]
