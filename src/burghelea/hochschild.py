"""The Hochschild complex of a group algebra over Q.

Degree-n chains live on (n+1)-tuples of group elements; the boundary is

    b(g_0,...,g_n) = sum_{j=0}^{n-1} (-1)^j (g_0,...,g_j g_{j+1},...,g_n)
                     + (-1)^n (g_n g_0, g_1,...,g_{n-1}).

The face map is ``hochschild_faces``; the chain boundary
``hochschild_boundary`` and the orbit complex's faces use it (matrices
through ``linalg.boundary_columns``).
``hochschild_boundary`` and pi_h are each one ``chains.linear_extend`` call
that declares the kinds and the degree shift and checks the input's entries
at that edge; iota_h, which includes either kind, and ``split_by_class``,
which returns a dict of chains, are the two maps that call ``check_chain``
themselves.  The complex splits over conjugacy classes of the product of
entries, and the retraction pi_h localizes a class component into the
centralizer of h.

Homology ranks of finite models are computed by exact rational elimination,
per class, on the conjugation-coinvariant complex of the normalized complex
C-bar (g_1, ..., g_n != e).  It has the same Betti numbers: C-bar has the
homology of the full complex (Loday, Cyclic Homology, 1.1), inner
automorphisms act as the identity on Hochschild homology (Loday, ch. 1),
and over Q the coinvariants of a finite group commute with homology,
H(C_G) = H(C)_G.  Its generators are the orbits of
simultaneous conjugation on C-bar's tuples, which are indexed
arithmetically over an int multiplication table (``MulTable``,
``OrbitComplex``); the full complex's boundary ranks follow from its Betti
numbers.

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
from .linalg import coboundary_ranks
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
    return linear_extend(model, c, "hochschild", "hochschild", -1,
                         partial(hochschild_faces, model._mul))


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
    if conjugator is None:
        conjugator, memo = section.conjugator, section._pi
    else:
        memo = {}
    m, h, p = section.model, section.h, section.retract

    def on_basis(t):
        u = memo.get(t)
        if u is None:
            lift = prefix_products(m, conjugator(entry_product(m, t)), t)
            u = memo[t] = theta_entries(m, h, [p(x) for x in lift])
        return ((u, 1),)

    return linear_extend(m, c, "hochschild", "hochschild", 0, on_basis)


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

class MulTable:
    """A finite model's law on ints: element i is ``model.elements()[i]``.

    It is built with the public, checked law, |G|^2 products and |G|
    inverses, so every element is checked there and the orbit complexes run
    on unchecked int arithmetic.  ``conj`` holds, for one representative c
    of each coset of the centre Z(G) other than Z(G) itself, the
    permutation g -> c g c^-1: conjugation by cz is conjugation by c, so
    these and the identity give every simultaneous conjugate."""

    def __init__(self, model: GroupModel):
        elems = model.elements()
        index = {g: i for i, g in enumerate(elems)}
        self.index = index
        self.mul = mul = [[index[model.mul(a, b)] for b in elems] for a in elems]
        self.inv = inv = [index[model.inv(a)] for a in elems]
        self.e = index[model.identity]
        order = range(len(elems))
        center = [z for z in order if all(mul[z][g] == mul[g][z] for g in order)]
        covered = set(center)
        self.conj: list[list[int]] = []
        for c in order:
            if c not in covered:
                covered.update(mul[c][z] for z in center)
                self.conj.append([mul[mul[c][g]][inv[c]] for g in order])


class OrbitComplex:
    """The conjugation-coinvariant complex of the normalized C-bar_*(QG)_x.

    A C-bar tuple (g_0, ..., g_n), with entry product p in x and g_1, ...,
    g_n != e, has index t |x| + q: t is its tail (g_1, ..., g_n) in mixed
    radix over ``rest`` = G minus e (the digit of g is its position there,
    g_1 most significant), q is the position of p in ``members``, and g_0 =
    p (g_1...g_n)^-1.  ``class_component_basis`` adds one degree at a time:
    one generator per orbit of simultaneous conjugation, labelled by
    consecutive ints across degrees.  Generator g's least tuple has index
    ``reps[g]`` in degree ``degrees[g]``, and ``labels[n][i]`` is the label
    of the orbit of index i in degree n."""

    def __init__(self, table: MulTable, members: list[int]):
        self.members = members
        self.rest = [g for g in range(len(table.mul)) if g != table.e]
        digit = {g: d for d, g in enumerate(self.rest)}
        position = {p: q for q, p in enumerate(members)}
        mul, inv = table.mul, table.inv
        # merge[d][d']: the digit of g g', or -1 when g g' = e
        self.merge = [[digit.get(mul[g][h], -1) for h in self.rest] for g in self.rest]
        # turn[d][q]: the position of g p g^-1, the last face's entry product
        self.turn = [[position[mul[mul[g][p]][inv[g]]] for p in members] for g in self.rest]
        # each nontrivial conjugation, on the digits and on the positions in x
        self.conj = [([digit[c[g]] for g in self.rest], [position[c[p]] for p in members])
                     for c in table.conj]
        self.reps: list[int] = []
        self.degrees: list[int] = []
        self.labels: list[Sequence[int]] = []

    def faces(self, g: int) -> list[tuple[int, int]]:
        """The faces of generator g (degree n >= 1) that stay in C-bar, each
        sent to its orbit's label: ``hochschild_faces`` on the least tuple,
        less the merges g_j g_{j+1} = e, j >= 1."""
        n = self.degrees[g]
        s, b = len(self.members), len(self.rest)
        below, merge = self.labels[n - 1], self.merge
        t, q = divmod(self.reps[g], s)
        head, last = divmod(t, b)
        # (g_n g_0, g_1, ..., g_{n-1}), entry product g_n p g_n^-1
        out = [(below[head * s + self.turn[last][q]], -1 if n % 2 else 1)]
        # (..., g_j g_{j+1}, ...) for j = n-1 down to 1: head holds the digits
        # before g_j, low the value of the digits after g_{j+1}, w = b^(n-j-1)
        low, w, right = 0, 1, last
        for j in range(n - 1, 0, -1):
            head, left = divmod(head, b)
            m = merge[left][right]
            if m >= 0:
                out.append((below[((head * b + m) * w + low) * s + q], -1 if j % 2 else 1))
            low += right * w
            w *= b
            right = left
        out.append((below[low * s + q], 1))  # (g_0 g_1, g_2, ..., g_n)
        return out


def class_component_basis(component: OrbitComplex, degree: int) -> range:
    """The orbit basis of C-bar_degree(QG)_x: labels each of its |x| (|G| - 1)^n
    tuples in ``component`` with its orbit under simultaneous conjugation
    and returns the new orbits' labels, in the order of their least index.
    Degrees are added in order, from 0.  When G/Z(G) is trivial every orbit
    is one tuple and the labels are a range."""
    c = component
    s, b = len(c.members), len(c.rest)
    size, first = s * b ** degree, len(c.reps)
    if not c.conj:
        labels: Sequence[int] = range(first, first + size)
        c.reps.extend(range(size))
    else:
        labels = [-1] * size
        digits = [0] * degree
        for i in range(size):
            if labels[i] >= 0:
                continue
            g = len(c.reps)
            c.reps.append(i)
            labels[i] = g
            t, q = divmod(i, s)
            for k in range(degree - 1, -1, -1):
                t, digits[k] = divmod(t, b)
            for on_digits, on_members in c.conj:
                u = 0
                for d in digits:
                    u = u * b + on_digits[d]
                labels[u * s + on_members[q]] = g
    c.degrees.extend([degree] * (len(c.reps) - first))
    c.labels.append(labels)
    return range(first, len(c.reps))


def _check_space_cap(table: MulTable, max_degree: int, members: Sequence[int]) -> int:
    """Estimated bytes of one class component's ranks, checked against the
    cap, from what its orbit complex holds up to the top degree
    N = max_degree + 1.  Degree n has |x| (|G| - 1)^n C-bar tuples, one label
    slot each (8 bytes), and by Burnside's lemma
    (1/|G|) sum_c |x & Z(c)| (|Z(c)| - 1)^n orbits, Z(c) the centralizer of
    c: conjugation by c fixes a tuple iff it fixes every entry.  An orbit
    costs about 100 bytes (its representative, degree and label, and its
    entry in the coboundary's index).  The top coboundary has N + 1 entries
    per top orbit, priced at 142 bytes each with its share of the echelon
    (108 under tracemalloc on s3 at degree 6), so that the estimate covers
    the peak RSS of whole runs (MB = 2^20 bytes): d4 at degree 6 is priced
    at 507.9 MB and peaks at 323, s3 at degree 6 at 49.2 against 49."""
    mul, order = table.mul, len(table.mul)
    fixed = [(sum(mul[c][p] == mul[p][c] for p in members),
              sum(mul[c][g] == mul[g][c] for g in range(order)) - 1) for c in range(order)]
    top = max_degree + 1

    def orbits(n: int) -> int:
        return sum(f * z ** n for f, z in fixed) // order

    return _check_counted(
        (8 * len(members) * (order - 1) ** n + 100 * orbits(n) for n in range(top + 1)),
        lambda: 142 * (top + 1) * orbits(top))


def _check_counted(per_degree: Iterator[int], top: Callable[[], int]) -> int:
    """Sum the bytes of each degree, then of the top (co)boundary, against
    the cap.  Past the cap, stop counting: the whole estimate can run to
    thousands of digits."""
    cap_mb = memory_cap_mb()
    total = 0
    for n, need in enumerate(per_degree):
        total += need
        if total > cap_mb * 1024 * 1024:
            raise ResourceCapError(
                f"chain spaces up to degree {n} need more than {cap_mb} MB, "
                f"cap is {cap_mb} MB (set BURGHELEA_CAP_MB to override)")
    total += top()
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
    a direct sum of subcomplexes.

    Each component's Betti numbers betti_n are those of the
    conjugation-coinvariant complex of its normalized complex C-bar
    (``OrbitComplex``), and both steps keep the homology (Loday, Cyclic
    Homology, ch. 1):
    - the tuples with some g_i = e, i >= 1, span an acyclic subcomplex
      (1.1), so C-bar has the homology of the full component;
    - conjugating every entry by one g is a chain automorphism of C-bar that
      keeps e and the class, and an inner automorphism acts as the identity
      on Hochschild homology, also per class: the standard homotopy keeps
      the entry product.  Over Q, and for a finite G, coinvariants commute
      with homology, so H(C_G) = H(C)_G = H(C).
    The coinvariant complex has one generator per orbit of simultaneous
    conjugation (``class_component_basis``), its boundary is C-bar's on the
    orbit's least tuple with each face sent to its orbit, and its ranks come
    from the coboundary with clearing (``linalg.coboundary_ranks``).  All of
    it runs on the int ``MulTable``, built once per call.  The report is the
    full component's: dim C_n = |x| |G|^n, rank b_0 = 0 and
    rank b_{n+1} = dim C_n - rank b_n - betti_n.  The tests check it against
    column reduction on the full complex (``tests/oracles.py``).
    """
    if not model.is_finite:
        raise GroupMismatchError("homology ranks need a finite model")
    classes = [x] if x is not None else conjugacy_classes(model)
    table = MulTable(model)
    members = [[table.index[g] for g in class_members(model, cls.rep)] for cls in classes]
    for ms in members:  # every class, before any basis is built
        _check_space_cap(table, max_degree, ms)
    per_degree = _empty_reports(max_degree)
    for ms in members:
        component = OrbitComplex(table, ms)
        bases = [class_component_basis(component, n) for n in range(max_degree + 2)]
        ranks = coboundary_ranks(bases, component.faces)
        dims = [len(ms) * model.order ** n for n in range(max_degree + 2)]
        full = [0]
        for n in range(max_degree + 1):
            full.append(dims[n] - full[n] - (len(bases[n]) - ranks[n] - ranks[n + 1]))
        _add_ranks(dims, full, per_degree)
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
