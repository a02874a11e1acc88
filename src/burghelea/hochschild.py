"""The Hochschild complex of a group algebra over Q.

Degree-n chains live on (n+1)-tuples of group elements; the boundary is

    b(g_0,...,g_n) = sum_{j=0}^{n-1} (-1)^j (g_0,...,g_j g_{j+1},...,g_n)
                     + (-1)^n (g_n g_0, g_1,...,g_{n-1}).

The face map is ``hochschild_faces``; the chain boundary
``hochschild_boundary`` and the boundary matrices of ``homology_ranks`` both
use it (matrices through ``linalg.boundary_columns``).  The complex splits
over conjugacy classes of the product of entries, the retraction pi_h
localizes a class component into the centralizer of h, and homology ranks of
finite models are computed by exact rational elimination.
"""
from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Optional

from .chains import Chain, linear_extend
from .errors import GroupMismatchError, ResourceCapError
from .groups import Element, GroupModel, class_members
from .linalg import boundary_ranks
from .metric import (
    ConjugacyClass,
    CosetSection,
    WordMetric,
    conjugacy_class,
    conjugacy_classes,
    make_conjugator_provider,
)

ONE = Fraction(1)

DEFAULT_CAP_MB = 512


def memory_cap_mb() -> int:
    """Resource cap for chain-space enumeration, in megabytes."""
    env = os.environ.get("BURGHELEA_CAP_MB")
    if env is None:
        return DEFAULT_CAP_MB
    try:
        return max(1, int(env))
    except ValueError:
        raise ResourceCapError(
            f"BURGHELEA_CAP_MB must be an integer number of megabytes, got {env!r}") from None


def hochschild_faces(mul: Callable[[Element, Element], Element],
                     t: tuple) -> Iterator[tuple[tuple, int]]:
    """Faces of a Hochschild generator of degree n = len(t) - 1 >= 1."""
    n = len(t) - 1
    for j in range(n):
        yield t[:j] + (mul(t[j], t[j + 1]),) + t[j + 2:], 1 if j % 2 == 0 else -1
    yield (mul(t[n], t[0]),) + t[1:n], 1 if n % 2 == 0 else -1


def hochschild_boundary(model: GroupModel, c: Chain) -> Chain:
    if c.kind != "hochschild":
        raise GroupMismatchError("hochschild_boundary needs a hochschild chain")
    if c.degree == 0:
        return Chain.zero("hochschild", 0)
    return linear_extend(c, "hochschild", c.degree - 1, partial(hochschild_faces, model.mul))


def entry_product(model: GroupModel, t: tuple) -> Element:
    p = model.identity
    for x in t:
        p = model.mul(p, x)
    return p


def sample_component_tuple(model: GroupModel, rng: random.Random, pool: list,
                           h: Element, degree: int) -> tuple:
    """Random generator of C_degree(QG)_x: entries drawn from the pool except
    the first, which is forced so that the entry product is conjugate to h."""
    rest = [rng.choice(pool) for _ in range(degree)]
    y = rng.choice(pool)
    target = model.conj(y, h)
    prod = entry_product(model, rest)
    return (model.mul(target, model.inv(prod)),) + tuple(rest)


def split_by_class(model: GroupModel, wm: WordMetric, c: Chain) -> dict[ConjugacyClass, Chain]:
    """Decompose along conjugacy classes of the entry product.

    The components sum back to c, and the boundary restricts to each
    component, so this realizes the class splitting of the complex.
    """
    buckets: dict[ConjugacyClass, list] = {}
    for t, q in c.terms.items():
        x = conjugacy_class(model, wm, entry_product(model, t))
        buckets.setdefault(x, []).append((t, q))
    return {x: Chain(c.kind, c.degree, items) for x, items in buckets.items()}


def pi_h(model: GroupModel, section: CosetSection, c: Chain,
         conjugator: Optional[Callable[[Element], Element]] = None) -> Chain:
    """Localization C_n(QG)_x -> C_n(QZ_h)_[h] along the coset section of h.

    On a generator with entry product r^-1 h r the image is

        (p(r g_0...g_n)^-1 h p(r g_0), p(r g_0)^-1 p(r g_0 g_1), ...,
         p(r g_0...g_{n-1})^-1 p(r g_0...g_n))

    with p = p_h; the output does not depend on the choice of r, so any
    conjugator provider is acceptable.
    """
    if c.kind != "hochschild":
        raise GroupMismatchError("pi_h needs a hochschild chain")
    if conjugator is None:
        conjugator = make_conjugator_provider(section)
    m = model
    h = section.h
    p = section.retract

    def on_basis(t):
        r = conjugator(entry_product(m, t))
        prefixes = []
        acc = r
        for x in t:
            acc = m.mul(acc, x)
            prefixes.append(acc)
        retracts = [p(x) for x in prefixes]
        first = m.mul(m.mul(m.inv(retracts[-1]), h), retracts[0])
        entries = [first]
        for i in range(len(t) - 1):
            entries.append(m.mul(m.inv(retracts[i]), retracts[i + 1]))
        yield tuple(entries), ONE

    return linear_extend(c, "hochschild", c.degree, on_basis)


def iota_h(model: GroupModel, h: Element, c: Chain) -> Chain:
    """Inclusion C_n(QZ_h)_[h] -> C_n(QG)_x; identity on terms after
    checking that every entry centralizes h."""
    for t in c.terms:
        for x in t:
            if not model.commutes(x, h):
                raise GroupMismatchError(
                    f"entry {model.element_str(x)} lies outside the centralizer")
    return Chain(c.kind, c.degree, c.terms)


# ---------------------------------------------------------------------------
# homology ranks of finite models
# ---------------------------------------------------------------------------

def class_component_basis(model: GroupModel, wm: WordMetric, degree: int,
                          x: ConjugacyClass) -> list[tuple]:
    """Basis tuples of C_degree(QG)_x: entry product lies in x."""
    members = class_members(model, x.rep)
    elems = model.elements()
    basis = []

    def rec(prefix: tuple, prod: Element, remaining: int):
        if remaining == 0:
            for target in members:
                basis.append(prefix + (model.mul(model.inv(prod), target),))
            return
        for g in elems:
            rec(prefix + (g,), model.mul(prod, g), remaining - 1)

    rec((), model.identity, degree)
    basis.sort(key=lambda t: tuple(model.element_key(g) for g in t))
    return basis


def _check_space_cap(model: GroupModel, max_degree: int, class_size: int) -> None:
    order = model.order
    per_tuple_bytes = 80 + 16 * (max_degree + 2)
    total = sum(class_size * order ** n * per_tuple_bytes for n in range(max_degree + 2))
    cap = memory_cap_mb() * 1024 * 1024
    if total > cap:
        raise ResourceCapError(
            f"chain spaces need about {total // (1024 * 1024)} MB, cap is {memory_cap_mb()} MB "
            "(set BURGHELEA_CAP_MB to override)")


def homology_ranks(model: GroupModel, wm: WordMetric, max_degree: int,
                   x: Optional[ConjugacyClass] = None, split: bool = True) -> list[dict]:
    """Exact Betti numbers of the Hochschild complex of a finite model.

    Returns one report per degree n <= max_degree:
        {degree, dim_chain_space, rank_boundary_out, rank_boundary_in, betti}
    where rank_boundary_out is the rank of b_n out of degree n and
    rank_boundary_in the rank of b_{n+1} into it.  With ``split`` the
    computation runs per class component and aggregates (the splitting is a
    direct sum of subcomplexes); otherwise one monolithic elimination is run.
    """
    if not model.is_finite:
        raise GroupMismatchError("homology ranks need a finite model")
    if not split and x is None:
        return _homology_ranks_full(model, wm, max_degree)
    per_degree = _empty_reports(max_degree)
    for cls in [x] if x is not None else conjugacy_classes(model, wm):
        _check_space_cap(model, max_degree, len(class_members(model, cls.rep)))
        bases = [class_component_basis(model, wm, n, cls) for n in range(max_degree + 2)]
        _add_ranks(model, bases, per_degree)
    return per_degree


def _homology_ranks_full(model: GroupModel, wm: WordMetric, max_degree: int) -> list[dict]:
    """The unsplit reference path: one elimination over all of G^(n+1)."""
    _check_space_cap(model, max_degree, model.order)
    elems = model.elements()
    bases = [sorted(itertools.product(elems, repeat=n + 1),
                    key=lambda t: tuple(model.element_key(g) for g in t))
             for n in range(max_degree + 2)]
    per_degree = _empty_reports(max_degree)
    _add_ranks(model, bases, per_degree)
    return per_degree


def _empty_reports(max_degree: int) -> list[dict]:
    return [{"degree": n, "dim_chain_space": 0, "rank_boundary_out": 0,
             "rank_boundary_in": 0, "betti": 0}
            for n in range(max_degree + 1)]


def _add_ranks(model: GroupModel, bases: list[list[tuple]], per_degree: list[dict]) -> None:
    """Add the dimensions, boundary ranks and Betti numbers of the complex
    spanned by ``bases`` (one basis per degree, up to max_degree + 1)."""
    ranks = boundary_ranks(bases, partial(hochschild_faces, model.mul))
    for n, rec in enumerate(per_degree):
        rec["dim_chain_space"] += len(bases[n])
        rec["rank_boundary_out"] += ranks[n]
        rec["rank_boundary_in"] += ranks[n + 1]
        rec["betti"] += len(bases[n]) - ranks[n] - ranks[n + 1]
