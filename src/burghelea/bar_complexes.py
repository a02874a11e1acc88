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
``linalg.boundary_columns``.  ``bar_homology_ranks`` prices C'(H) against
the memory cap (``check_cprime_space_cap``), then ranks it by the
coboundary with clearing (``linalg.coboundary_ranks``), as
``hochschild.homology_ranks`` ranks a class component.

Each chain map here but the composite ``composed_localization`` is one
``chains.linear_extend`` call that declares its domain and codomain kinds
and its degree shift (-1 for the boundaries, 0 for the rest); that call
refuses a chain of another kind and checks the input's entries against the
model.

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

from .chains import Chain, linear_extend, simplex_faces
from .errors import GroupMismatchError
from .groups import Element, GroupModel
from .hochschild import _check_counted, entry_product, pi_h, prefix_products
from .linalg import coboundary_ranks
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
    return linear_extend(model, c, "cprime", "cprime", -1, partial(cprime_faces, model._mul))


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
    return linear_extend(model, c, "cbar", "cbar", -1, partial(cbar_faces, model))


def psi(model: GroupModel, c: Chain) -> Chain:
    """C'_n -> C_n: (g_1,...,g_n) -> (1, g_1, g_1 g_2, ..., g_1...g_n)."""
    e = model.identity

    def on_basis(t):
        yield (e,) + prefix_products(model, e, t), 1

    return linear_extend(model, c, "cprime", "cbar", 0, on_basis)


def psi_inv(model: GroupModel, c: Chain) -> Chain:
    """C_n -> C'_n: consecutive quotients of the orbit representative."""
    mul, inv = model._mul, model._inv

    def on_basis(t):
        if t[0] != model.identity:
            raise GroupMismatchError("cbar tuples must have leading identity")
        out = [mul(inv(t[i]), t[i + 1]) for i in range(len(t) - 1)]
        yield tuple(out), 1

    return linear_extend(model, c, "cbar", "cprime", 0, on_basis)


def phi_g(section: CosetSection, c: Chain) -> Chain:
    """C'_n(Z_g) -> C_n(QZ_g)_[g] for g = section.h: prepend
    (g_1...g_n)^-1 g.

    Entries must centralize g; the image tuple then has entry product g.
    """
    model, g = section.model, section.h
    mul = model._mul

    def on_basis(t):
        for x in t:
            if mul(x, g) != mul(g, x):
                raise GroupMismatchError(
                    f"entry {model.element_str(x)} does not centralize g")
        lead = mul(model._inv(entry_product(model, t)), g)
        yield (lead,) + t, 1

    return linear_extend(model, c, "cprime", "hochschild", 0, on_basis)


def phi_g_inv(c: Chain) -> Chain:
    """Drop the leading entry of each generator."""
    return linear_extend(None, c, "hochschild", "cprime", 0, lambda t: ((t[1:], 1),))


def localize_to_equivariant(section: CosetSection, c: Chain) -> Chain:
    """Direct formula for psi . phi_h^-1 . pi_h on a class component.

    A generator with entry product r^-1 h r maps to the equivariant chain
    with value 1 on the orbit of (p(r g_0), p(r g_0 g_1), ..., p(r g_0...g_n)),
    stored by its leading-e representative; r is the minimal conjugator.
    """
    m, p = section.model, section.retract

    def on_basis(t):
        lift = prefix_products(m, section.conjugator(entry_product(m, t)), t)
        yield normalize_cbar_tuple(m, tuple([p(x) for x in lift])), 1

    return linear_extend(m, c, "hochschild", "cbar", 0, on_basis)


def composed_localization(section: CosetSection, c: Chain) -> Chain:
    """The three-map composition psi(phi_h^-1(pi_h(c))), for cross-checks."""
    return psi(section.model, phi_g_inv(pi_h(section, c)))


# ---------------------------------------------------------------------------
# homology ranks of C'_.(H) for a finite (sub)group H
# ---------------------------------------------------------------------------

def check_cprime_space_cap(order: int, max_degree: int) -> int:
    """Estimated bytes of ``bar_homology_ranks`` for a group of the given
    order, checked against the cap before any basis is built.  Degree n has
    |H|^n tuples at 112 + 8n bytes each (the tuple and its list slot,
    48 + 8n under tracemalloc, and its entry in the coboundary's index, about
    64), and the top coboundary has N + 1 entries per top tuple,
    N = max_degree + 1, priced at 64 bytes each with its share of the
    echelon (38-48 under tracemalloc on z4, s3 and d4 at degrees 4-7).  The
    estimate covers the peak RSS of a run above the interpreter's own: d4
    at degree 5 is priced at 157.4 MB and grows the RSS by 137.5."""
    top = max_degree + 1
    return _check_counted((order ** n * (112 + 8 * n) for n in range(top + 1)),
                          lambda: 64 * (top + 1) * order ** top)


def bar_homology_ranks(elements: list[Element], mul: Callable[[Element, Element], Element],
                       max_degree: int) -> list[int]:
    """Betti numbers of C'_.(H) for a finite group given by its elements and
    multiplication; independent of the Hochschild machinery."""
    check_cprime_space_cap(len(elements), max_degree)
    elems = sorted(elements)
    bases = [sorted(itertools.product(elems, repeat=n)) for n in range(max_degree + 2)]
    ranks = coboundary_ranks(bases, partial(cprime_faces, mul))
    return [len(bases[n]) - ranks[n] - ranks[n + 1] for n in range(max_degree + 1)]
