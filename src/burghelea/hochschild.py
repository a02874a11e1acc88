"""The Hochschild complex of a group algebra over Q.

Degree-n chains live on (n+1)-tuples of group elements; the boundary is

    b(g_0,...,g_n) = sum_{j=0}^{n-1} (-1)^j (g_0,...,g_j g_{j+1},...,g_n)
                     + (-1)^n (g_n g_0, g_1,...,g_{n-1}).

The face map is ``hochschild_faces``; the chain boundary
``hochschild_boundary`` and the boundary matrices of ``homology_ranks`` both
use it (matrices through ``linalg.boundary_columns``).  The complex splits
over conjugacy classes of the product of entries, and the retraction pi_h
localizes a class component into the centralizer of h.  Homology ranks of
finite models are computed by exact rational elimination, per class on the
normalized complex C-bar (g_1, ..., g_n != e), which has the same homology;
the full complex's boundary ranks follow from its Betti numbers.

A model's word metric is ``model.metric``.  The class-component map pi_h
and the inclusion iota_h take the coset section of h alone: the section owns
h (already checked), the retraction p_h and the memoized minimal
conjugators, and pi_h memoizes its image of each generator there too.
"""
from __future__ import annotations

import itertools
import os
import random
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from .chains import Chain, check_chain, linear_extend
from .errors import GroupMismatchError, ResourceCapError
from .groups import Element, GroupModel, class_members
from .linalg import boundary_ranks, coboundary_ranks
from .metric import ConjugacyClass, CosetSection, conjugacy_class, conjugacy_classes

DEFAULT_CAP_MB = 512


def memory_cap_mb() -> int:
    """Resource cap for chain-space enumeration, in megabytes."""
    env = os.environ.get("BURGHELEA_CAP_MB")
    if env is None:
        return DEFAULT_CAP_MB
    try:
        cap = int(env)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ResourceCapError(
            f"BURGHELEA_CAP_MB must be a positive integer number of megabytes, got {env!r}")
    return cap


def check_memory(need: int, what: str) -> None:
    """Raise ResourceCapError when an estimate of ``need`` bytes passes the
    cap; the message rounds the need up to a tenth of a MB, so that it always
    reads above the cap.  ``what`` names the need and ends in its verb."""
    cap_mb = memory_cap_mb()
    if need > cap_mb * 1024 * 1024:
        tenths = -(-need * 10 // (1024 * 1024))
        raise ResourceCapError(
            f"{what} about {tenths // 10}.{tenths % 10} MB, "
            f"cap is {cap_mb} MB (set BURGHELEA_CAP_MB to override)")


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
    check_chain(model, c)
    if c.degree == 0:
        return Chain.zero("hochschild", 0)
    return linear_extend(c, "hochschild", c.degree - 1, partial(hochschild_faces, model._mul))


def entry_product(model: GroupModel, t: tuple) -> Element:
    """g_0 g_1 ... g_n, by the kernel: the entries must be valid elements."""
    mul = model._mul
    p = model.identity
    for x in t:
        p = mul(p, x)
    return p


def prefix_products(model: GroupModel, r: Element, t: tuple) -> tuple:
    """(r g_0, r g_0 g_1, ..., r g_0...g_n), by the kernel: the lift of the
    generator t along r."""
    return tuple(itertools.accumulate(t, model._mul, initial=r))[1:]


def theta_entries(model: GroupModel, h: Element, s: Sequence) -> tuple:
    """(s_n^-1 h s_0, s_0^-1 s_1, ..., s_{n-1}^-1 s_n), by the kernel: theta_h
    on the generator s."""
    mul, inv = model._mul, model._inv
    return (mul(mul(inv(s[-1]), h), s[0]),
            *(mul(inv(s[i]), s[i + 1]) for i in range(len(s) - 1)))


def sample_component_tuple(model: GroupModel, rng: random.Random, pool: list,
                           h: Element, degree: int) -> tuple:
    """Random generator of C_degree(QG)_x: entries drawn from the pool except
    the first, which is forced so that the entry product is conjugate to h."""
    rest = [rng.choice(pool) for _ in range(degree)]
    y = rng.choice(pool)
    target = model.conj(y, h)
    prod = entry_product(model, rest)
    return (model.mul(target, model.inv(prod)),) + tuple(rest)


def split_by_class(model: GroupModel, c: Chain) -> dict[ConjugacyClass, Chain]:
    """Decompose along conjugacy classes of the entry product.

    The components sum back to c, and the boundary restricts to each
    component, so this realizes the class splitting of the complex.
    """
    check_chain(model, c)
    buckets: dict[ConjugacyClass, list] = {}
    for t, q in c.terms.items():
        x = conjugacy_class(model, entry_product(model, t))
        buckets.setdefault(x, []).append((t, q))
    return {x: Chain(c.kind, c.degree, items) for x, items in buckets.items()}


def pi_h(section: CosetSection, c: Chain,
         conjugator: Optional[Callable[[Element], Element]] = None) -> Chain:
    """Localization C_n(QG)_x -> C_n(QZ_h)_[h] along the coset section of h.

    pi_h = theta_h . p^E . lift through E_.(G) (``homotopy``): a generator
    with entry product r^-1 h r lifts to its ``prefix_products`` along r,
    p^E applies p = p_h entrywise and ``theta_entries`` gives the image

        (p(r g_0...g_n)^-1 h p(r g_0), p(r g_0)^-1 p(r g_0 g_1), ...,
         p(r g_0...g_{n-1})^-1 p(r g_0...g_n));

    it does not depend on the choice of r, so any conjugator map into the
    model may replace the section's minimal ``section.conjugator``.  With
    that default each generator's image is memoized in ``section._pi``,
    which a caller-supplied conjugator bypasses.
    """
    if c.kind != "hochschild":
        raise GroupMismatchError("pi_h needs a hochschild chain")
    if conjugator is None:
        conjugator, memo = section.conjugator, section._pi
    else:
        memo = {}
    m = section.model
    check_chain(m, c)
    h = section.h
    p = section.retract

    def on_basis(t):
        u = memo.get(t)
        if u is None:
            lift = prefix_products(m, conjugator(entry_product(m, t)), t)
            u = memo[t] = theta_entries(m, h, [p(x) for x in lift])
        return ((u, 1),)

    return linear_extend(c, "hochschild", c.degree, on_basis)


def iota_h(section: CosetSection, c: Chain) -> Chain:
    """Inclusion C_n(QZ_h)_[h] -> C_n(QG)_x; identity on terms after
    checking that every entry centralizes h."""
    model, h = section.model, section.h
    check_chain(model, c)
    mul = model._mul
    for t in c.terms:
        for x in t:
            if mul(x, h) != mul(h, x):
                raise GroupMismatchError(
                    f"entry {model.element_str(x)} lies outside the centralizer")
    return Chain._of(c.kind, c.degree, dict(c.terms), c.checked)


# ---------------------------------------------------------------------------
# homology ranks of finite models
# ---------------------------------------------------------------------------

def class_component_basis(model: GroupModel, degree: int,
                          x: ConjugacyClass) -> list[tuple]:
    """Basis tuples of the normalized C-bar_degree(QG)_x: entry product in x
    and g_1, ..., g_n != e.  g_0 is forced as in ``sample_component_tuple``;
    the order is fixed by ``model.elements()``."""
    members = class_members(model, x.rep)
    rest = [(g, model.inv(g)) for g in model.elements() if g != model.identity]
    # (g_1, ..., g_k) with (g_1...g_k)^-1, grown one entry at a time
    tails = [((), model.identity)]
    for _ in range(degree):
        tails = [(t + (g,), model.mul(g_inv, q)) for t, q in tails for g, g_inv in rest]
    return [(model.mul(target, q),) + t for t, q in tails for target in members]


def _check_space_cap(model: GroupModel, max_degree: int, class_size: int) -> int:
    """Estimated bytes of one class component's ranks, checked against the
    cap: its normalized bases, |x| (|G| - 1)^n tuples in degree n, and the top
    coboundary (N + 1 entries per basis tuple of degree N = max_degree + 1)
    with its echelon, about 100 bytes per entry."""
    cap_mb = memory_cap_mb()
    cap = cap_mb * 1024 * 1024
    per_tuple = 80 + 16 * (max_degree + 2)
    total, dim = 0, class_size
    for n in range(max_degree + 2):
        if n:
            dim *= model.order - 1
        total += dim * per_tuple
        if total > cap:
            # stop counting: the whole estimate can run to thousands of digits
            raise ResourceCapError(
                f"chain spaces up to degree {n} need more than {cap_mb} MB, "
                f"cap is {cap_mb} MB (set BURGHELEA_CAP_MB to override)")
    total += (max_degree + 2) * dim * 100
    check_memory(total, "chain spaces and the top coboundary need")
    return total


def homology_ranks(model: GroupModel, max_degree: int,
                   x: Optional[ConjugacyClass] = None) -> list[dict]:
    """Exact Betti numbers of the Hochschild complex of a finite model.

    Returns one report per degree n <= max_degree:
        {degree, dim_chain_space, rank_boundary_out, rank_boundary_in, betti}
    where rank_boundary_out is the rank of b_n out of degree n and
    rank_boundary_in the rank of b_{n+1} into it.  The computation runs per
    class component (only x's, when given) and aggregates: the splitting is
    a direct sum of subcomplexes.  Each component's Betti numbers betti_n come
    from its normalized complex C-bar (``class_component_basis``): the
    tuples with some g_i = e, i >= 1, span an acyclic subcomplex (Loday,
    Cyclic Homology, 1.1), so C-bar has the homology of the full component.
    Its faces are ``hochschild_faces`` on the kernel law less the ones with
    a merged entry g_j g_{j+1} = e, j >= 1, and its ranks come from the
    coboundary with clearing (``linalg.coboundary_ranks``).  The report is
    the full component's: dim C_n = |x| |G|^n, rank b_0 = 0 and
    rank b_{n+1} = dim C_n - rank b_n - betti_n.  ``homology_ranks_unsplit`` is
    the reference, by column reduction on the full complex.
    """
    if not model.is_finite:
        raise GroupMismatchError("homology ranks need a finite model")
    classes = [x] if x is not None else conjugacy_classes(model)
    sizes = [len(class_members(model, cls.rep)) for cls in classes]
    for size in sizes:  # every class, before any basis is built
        _check_space_cap(model, max_degree, size)
    mul, e = model._mul, model.identity

    def faces(t):  # the faces that stay in C-bar
        return ((u, s) for u, s in hochschild_faces(mul, t) if e not in u[1:])

    per_degree = _empty_reports(max_degree)
    for cls, size in zip(classes, sizes):
        bases = [class_component_basis(model, n, cls) for n in range(max_degree + 2)]
        ranks = coboundary_ranks(bases, faces)
        dims = [size * model.order ** n for n in range(max_degree + 2)]
        full = [0]
        for n in range(max_degree + 1):
            full.append(dims[n] - full[n] - (len(bases[n]) - ranks[n] - ranks[n + 1]))
        _add_ranks(dims, full, per_degree)
    return per_degree


def homology_ranks_unsplit(model: GroupModel, max_degree: int) -> list[dict]:
    """The unsplit reference for ``homology_ranks``: one elimination over all
    of G^(n+1)."""
    _check_space_cap(model, max_degree, model.order)
    elems = model.elements()
    bases = [sorted(itertools.product(elems, repeat=n + 1),
                    key=lambda t: tuple(model.element_key(g) for g in t))
             for n in range(max_degree + 2)]
    ranks = boundary_ranks(bases, partial(hochschild_faces, model.mul))
    per_degree = _empty_reports(max_degree)
    _add_ranks([len(b) for b in bases], ranks, per_degree)
    return per_degree


def _empty_reports(max_degree: int) -> list[dict]:
    return [{"degree": n, "dim_chain_space": 0, "rank_boundary_out": 0,
             "rank_boundary_in": 0, "betti": 0}
            for n in range(max_degree + 1)]


def _add_ranks(dims: list[int], ranks: list[int], per_degree: list[dict]) -> None:
    """Add the dimensions, boundary ranks and Betti numbers of a complex with
    dims[n] generators in degree n (up to max_degree + 1), whose boundary out
    of degree n has rank ranks[n]."""
    for n, rec in enumerate(per_degree):
        rec["dim_chain_space"] += dims[n]
        rec["rank_boundary_out"] += ranks[n]
        rec["rank_boundary_in"] += ranks[n + 1]
        rec["betti"] += dims[n] - ranks[n] - ranks[n + 1]
