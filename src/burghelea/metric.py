"""Word metrics, Cayley balls, conjugacy classes, centralizers, coset
sections and conjugator searches: the algorithms that work for every kind of
group.  What depends on the kind is a method of the model (``groups``) or of
the centralizer realization here, which owns its coset representatives and
its conjugators to h.

A model's word metric is ``model.metric``, a ``WordMetric`` built once per
model, so functions here take the model alone and its balls are enumerated
once however many searches use them.

The coset section s(y) picks, for every right coset y of a centralizer, a
length-minimal representative (shortlex tie-break), and the retraction
p_h(g) = g * s(Z_h g)^-1 is the induced 2-Lipschitz map onto the centralizer.
Each realization of Z_h (whole_group, finite_list, cyclic, product) is a
``CosetSection``, the one handle of a class component: it owns h, the
memoized sections, the memoized p_h and the memoized minimal conjugators
``conjugator(product)``.  A product's components are its factors' own
sections.  A ``groups.InternedModel``'s section, an ``InternedSection``,
reads its base model's realization on the ints.  All minimal choices in
this module break ties by shortlex so that every downstream computation is
reproducible.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import (
    GroupMismatchError,
    NotConjugateError,
    NotConjugateWithinError,
    WindowExhaustedError,
)
from .groups import Element, GroupModel, bfs_distances

# Balls are materialized and sorted: one past this size is a ResourceCapError.
BALL_CAP = 1_000_000


class WordMetric:
    """Word-length norm |g| for the model's fixed symmetric generating set.

    The model computes lengths and enumerates balls; this class validates
    its arguments and caches the balls, sorted by shortlex.  ``model.metric``
    is the model's own instance.
    """

    def __init__(self, model: GroupModel):
        self.model = model
        self._ball_cache: dict[int, list[Element]] = {}

    def length(self, g: Element) -> int:
        self.model.check_element(g)
        return self.model.length(g)

    # -- balls ---------------------------------------------------------------

    def ball(self, radius: int) -> list[Element]:
        """All g with |g| <= radius, duplicate-free, sorted by shortlex."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        cached = self._ball_cache.get(radius)
        if cached is None:
            elems = list(self.model.ball_elements(radius, BALL_CAP))
            elems.sort(key=self.model.shortlex_key)
            cached = self._ball_cache[radius] = elems
        return list(cached)


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

class ConjugacyClass(NamedTuple):
    """Canonical class representative: shortlex-least among length-minimal
    members of the class."""
    rep: Element


def conjugacy_class(model: GroupModel, g: Element) -> ConjugacyClass:
    """Canonical conjugacy-class id of g; the canonicalization rules
    (``GroupModel.class_rep``) are exact for every supported kind."""
    model.check_element(g)
    return ConjugacyClass(model.class_rep(g))


def conjugacy_classes(model: GroupModel) -> list[ConjugacyClass]:
    """All conjugacy classes of a finite model, sorted by their reps."""
    reps = {model.class_rep(g) for g in model.elements()}
    return [ConjugacyClass(rep) for rep in sorted(reps, key=model.shortlex_key)]


# ---------------------------------------------------------------------------
# centralizers: each realization is a coset section
# ---------------------------------------------------------------------------

class CosetSection:
    """Z_h inside an ambient model, with a deterministic length-minimal
    section of Z_h \\ G; ``GroupModel.centralizer`` picks the realization for
    its kind.

    A realization implements ``contains``, ``intrinsic_length``,
    ``coset_rep`` and ``some_conjugator``.  This class defines the three
    memoized maps on top of them: ``section(g)`` returns s(Z_h g), the
    shortlex-least length-minimal representative of the coset of g;
    ``retract(g)`` is p_h(g) = g s(...)^-1; ``conjugator(product)`` is the
    minimal conjugator from h to a member of its class.

    The memo of p_h sits inside ``retract`` itself, beside the section cache:
    the identity suites reach p_h only through that one method (the window
    check p_h(ag) = a p_h(g) calls it on every pair of its window), so a hit
    costs one dict lookup and skips ``section``, and code that replaces
    ``retract`` still sees every call.  Where p_h(g) equals g (s = e, as for
    every central h) the memo stores g itself, so it holds no second copy of
    the element.  No realization overrides the three: ``perfbench/tracer.py``
    times ``section`` and ``retract`` by wrapping this class's own.

    The chain maps keep two memos here: ``_pi``, a generator's image under
    ``pi_h`` with the minimal conjugator (a caller-supplied conjugator
    bypasses it), and ``_homotopy``, the terms of D on an E generator.
    """

    realization: str

    def __init__(self, model: GroupModel, h: Element):
        self.model = model
        self.h = h
        self._cache: dict[Element, Element] = {}
        self._retracts: dict[Element, Element] = {}
        self._conjugators: dict[Element, Element] = {}
        self._pi: dict[tuple, tuple] = {}
        self._homotopy: dict[tuple, list] = {}

    def contains(self, g: Element) -> bool:
        return self.model.commutes(g, self.h)

    def intrinsic_length(self, g: Element) -> int:
        """Word length for an intrinsic generating set of Z_h, where one is
        realized; the retraction need not be 2-Lipschitz for this norm."""
        raise NotImplementedError

    def coset_rep(self, g: Element) -> Element:
        """The shortlex-least length-minimal element of the coset Z_h g."""
        raise NotImplementedError

    def some_conjugator(self, product: Element) -> Element:
        """Some r with product = r^-1 h r, for a product != h of h's class."""
        raise NotImplementedError

    def section(self, g: Element) -> Element:
        cached = self._cache.get(g)
        if cached is None:
            self.model.check_element(g)
            cached = self._cache[g] = self.coset_rep(g)
        return cached

    def retract(self, g: Element) -> Element:
        """p_h(g) = g * s(Z_h g)^-1, a point of Z_h, memoized.  On a miss
        ``section`` checks g (on its own cache miss), so the product runs on
        the kernel."""
        p = self._retracts.get(g)
        if p is None:
            p = self.model._mul(g, self.model._inv(self.section(g)))
            self._retracts[g] = p = g if p == g else p
        return p

    def conjugator(self, product: Element) -> Element:
        """Shortest r (shortlex tie-break) with product = r^-1 h r.

        All conjugators form the coset Z_h r0, so the certified coset-section
        minimum applied to any single conjugator r0 yields the global
        minimum.  NotConjugateError when the class representatives differ;
        otherwise the realization's ``some_conjugator`` constructs r0: the
        cyclic one from cyclic-reduction canonical forms, the finite one by
        scanning the group, the product one componentwise.  The class of a
        central h is {h}, so its realization constructs none.
        """
        r = self._conjugators.get(product)
        if r is None:
            m = self.model
            if m.class_rep(product) != m.class_rep(self.h):
                raise NotConjugateError("distinct class representatives")
            r0 = m.identity if product == self.h else self.some_conjugator(product)
            r = self._conjugators[product] = self.section(r0)
        return r


class WholeGroupCentralizer(CosetSection):
    realization = "whole_group"

    def intrinsic_length(self, g):
        return self.model.length(g)

    def coset_rep(self, g):
        return self.model.identity


class FiniteCentralizer(CosetSection):
    realization = "finite_list"

    def __init__(self, model, h, elements: tuple[Element, ...]):
        super().__init__(model, h)
        self.elements = elements

    @cached_property
    def _intrinsic_lengths(self) -> dict[Element, int]:
        # the ambient generators lying in Z_h when they generate it, else all
        # of Z_h \ {e}, which always does
        m = self.model
        members = set(self.elements)
        lengths = bfs_distances(m.identity, [g for g in m.generators if g in members], m.mul)
        if len(lengths) < len(self.elements):
            lengths = bfs_distances(m.identity, [g for g in self.elements if g != m.identity],
                                    m.mul)
        return lengths

    def intrinsic_length(self, g):
        return self._intrinsic_lengths[g]

    def coset_rep(self, g):
        m = self.model
        return min((m.mul(a, g) for a in self.elements), key=m.shortlex_key)

    def some_conjugator(self, product):
        m = self.model
        return next(r for r in m.elements() if m.conj(r, self.h) == product)


class CyclicCentralizer(CosetSection):
    """Free-group centralizer <w> of h != e, with w the maximal root of h."""

    realization = "cyclic"

    def __init__(self, model, h):
        super().__init__(model, h)
        u, c = model.cyclic_reduce(h)
        n = len(c)
        root = next(c[:d] for d in range(1, n + 1) if n % d == 0 and c == c[:d] * (n // d))
        self.root = model.mul(model.mul(u, root), model.inv(u))
        self.cyclic_length = len(root)

    def power_of_root(self, g: Element) -> Optional[int]:
        """Return m with g = root**m, or None."""
        m = self.model
        if g == m.identity:
            return 0
        bound = m.length(g) // self.cyclic_length + 1
        for sign in (1, -1):
            step = self.root if sign == 1 else m.inv(self.root)
            x = m.identity
            for k in range(1, bound + 1):
                x = m.mul(x, step)
                if g == x:
                    return sign * k
        return None

    def contains(self, g):
        return self.power_of_root(g) is not None

    def intrinsic_length(self, g):
        p = self.power_of_root(g)
        if p is None:
            raise GroupMismatchError("element outside the cyclic centralizer")
        return abs(p)

    def coset_rep(self, g):
        # Search s over {w^m g : |m| <= 2|g|/|w_cyc| + 2}.  Lengths along a
        # cyclic-subgroup orbit are eventually monotone, so the search is
        # certified by two consecutive non-decreasing steps at both ends.
        m, w = self.model, self.root
        window = 2 * m.length(g) // self.cyclic_length + 2
        x = m.mul(m.power(w, -window), g)
        orbit = [x]
        for _ in range(2 * window):
            x = m.mul(w, x)
            orbit.append(x)
        lengths = [m.length(y) for y in orbit]
        if not (lengths[0] >= lengths[1] >= lengths[2]
                and lengths[-1] >= lengths[-2] >= lengths[-3]):
            raise WindowExhaustedError(
                f"coset minimum not certified within window {window}")
        return min(orbit, key=m.shortlex_key)

    def some_conjugator(self, product):
        m = self.model
        return m.mul(m.inv(self._to_class_rep(self.h)), self._to_class_rep(product))

    def _to_class_rep(self, w: Element) -> Element:
        """r with w = r^-1 c r where c is the canonical class representative."""
        m = self.model
        u, c = m.cyclic_reduce(w)
        canon = m.class_rep(c)
        for k in range(max(len(c), 1)):
            if c[k:] + c[:k] == canon:
                # canon = c[k:] c[:k], so c = q^-1 canon q with q = c[k:]
                return m.mul(c[k:], m.inv(u))
        raise AssertionError("rotation search cannot fail")


class ProductCentralizer(CosetSection):
    """Z_h of a product: the product of the factors' centralizers.  Each
    component is its factor's own coset section, so sections and
    conjugators of the product share the factors' memos."""

    realization = "product"

    def __init__(self, model, h):
        super().__init__(model, h)
        self.components = tuple(f.centralizer(x) for f, x in zip(model.factors, h))

    def intrinsic_length(self, g):
        return sum(c.intrinsic_length(x) for c, x in zip(self.components, g))

    def coset_rep(self, g):
        return tuple(c.section(x) for c, x in zip(self.components, g))

    def some_conjugator(self, product):
        return tuple(c.conjugator(x) for c, x in zip(self.components, product))


class InternedSection(CosetSection):
    """Z_h of a ``groups.InternedModel``: its base model's section of Z_h, whose
    realization it reports, read on the ints.  Each map below delegates and
    interns what it returns; the memos of ``CosetSection`` are on the ints."""

    def __init__(self, model, h):
        super().__init__(model, h)
        self.base = model.base.centralizer(model.table[h])
        self.realization = self.base.realization

    def contains(self, g):
        return self.base.contains(self.model.table[g])

    def intrinsic_length(self, g):
        return self.base.intrinsic_length(self.model.table[g])

    def coset_rep(self, g):
        return self.model.intern(self.base.coset_rep(self.model.table[g]))

    def some_conjugator(self, product):
        return self.model.intern(self.base.some_conjugator(self.model.table[product]))


def coset_section(model: GroupModel, h: Element) -> CosetSection:
    """The centralizer of h, realized for the model's kind, as its coset
    section; the one constructor."""
    model.check_element(h)
    return model.centralizer(h)


# ---------------------------------------------------------------------------
# conjugator search
# ---------------------------------------------------------------------------

def find_conjugator(model: GroupModel, g: Element, h: Element,
                    max_radius: int) -> Element:
    """Shortest r (shortlex tie-break) with h = r^-1 g r, by breadth-first
    search over balls of increasing radius.

    Raises NotConjugateError when g and h have distinct class
    representatives (``GroupModel.class_rep`` is exact for every kind, so
    that decides conjugacy before any search), and NotConjugateWithinError
    when a conjugate pair has no conjugator within the window.
    """
    model.check_element(g)
    model.check_element(h)
    if g == h:
        return model.identity

    def bfs(m: GroupModel, x: Element, y: Element) -> Element:
        # the components of a product are searched in their factor's balls
        for radius in range(max_radius + 1):
            for r in m.metric.ball(radius):
                if m.length(r) >= radius and m.conj(r, x) == y:
                    return r
        raise NotConjugateWithinError(max_radius)

    return model.search_conjugator(g, h, bfs)


# ---------------------------------------------------------------------------
# conjugacy bound profile
# ---------------------------------------------------------------------------

def ols_loglog_fit(points: list[tuple[float, float]]) -> dict:
    """Least squares of log(1+y) against log(1+x); slope is the fitted degree."""
    pts = [(math.log1p(x), math.log1p(y)) for x, y in points]
    n = len(pts)
    if n < 2:
        return {"slope": 0.0, "intercept": 0.0, "residual": 0.0, "points": n}
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    denom = n * sxx - sx * sx
    if denom == 0:
        return {"slope": 0.0, "intercept": sy / n, "residual": 0.0, "points": n}
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    residual = sum((y - slope * x - intercept) ** 2 for x, y in pts)
    return {"slope": slope, "intercept": intercept, "residual": residual, "points": n}


def conjugacy_bound_profile(model: GroupModel, sample_radius: int,
                            max_radius: int) -> dict:
    """For each h in the sample ball, the minimal conjugator length from the
    class-minimal representative h_x to h, plus a growth fit.

    Window exhaustion is recorded per row, never fatal.
    """
    wm = model.metric
    rows = []
    for h in wm.ball(sample_radius):
        rep = conjugacy_class(model, h).rep
        try:
            length, status = wm.length(find_conjugator(model, rep, h, max_radius)), "ok"
        except NotConjugateWithinError:
            length, status = None, f"window_exhausted({max_radius})"
        rows.append({"class_rep": model.element_str(rep), "h": model.element_str(h),
                     "length_h": wm.length(h), "min_conjugator_len": length,
                     "window_status": status})
    by_length: dict[int, int] = {}
    for row in rows:
        if row["min_conjugator_len"] is None:
            continue
        l = row["length_h"]
        by_length[l] = max(by_length.get(l, 0), row["min_conjugator_len"])
    table = [{"length_h": l, "max_min_conjugator_len": v}
             for l, v in sorted(by_length.items())]
    fit = ols_loglog_fit([(float(l), float(v)) for l, v in sorted(by_length.items())])
    return {"rows": rows, "growth_table": table, "fit": fit}
