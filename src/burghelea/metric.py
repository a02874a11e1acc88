"""Word metrics, Cayley balls, conjugacy classes, centralizers and coset
sections.

The coset section s(y) picks, for every right coset y of a centralizer, a
length-minimal representative (shortlex tie-break), and the retraction
p_h(g) = g * s(Z_h g)^-1 is the induced 2-Lipschitz map onto the centralizer.
All minimal choices in this module break ties by shortlex so that every
downstream computation is reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import (
    GroupMismatchError,
    NotConjugateError,
    NotConjugateWithinError,
    ResourceCapError,
    WindowExhaustedError,
)
from .groups import (
    Element,
    FiniteTableGroup,
    FinitePermGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupModel,
    ProductGroup,
)

DEFAULT_BALL_CAP = 1_000_000


class WordMetric:
    """Word-length norm |g| for the model's fixed symmetric generating set.

    Finite kinds are measured by breadth-first search over the Cayley graph;
    free words by reduced length, integer vectors by their l1 norm, and
    products by the sum of component lengths (the standard product
    generating set extends componentwise by identities).
    """

    def __init__(self, model: GroupModel, ball_cap: int = DEFAULT_BALL_CAP):
        self.model = model
        self.ball_cap = ball_cap
        self._lengths: Optional[dict[Element, int]] = None
        self._ball_cache: dict[int, list[Element]] = {}
        if isinstance(model, ProductGroup):
            self._factor_metrics = tuple(WordMetric(f, ball_cap) for f in model.factors)

    # -- lengths -------------------------------------------------------------

    def _bfs_lengths(self) -> dict[Element, int]:
        if self._lengths is None:
            m = self.model
            lengths = {m.identity: 0}
            frontier = [m.identity]
            r = 0
            while frontier:
                r += 1
                nxt = []
                for x in frontier:
                    for g in m.generators:
                        y = m.mul(x, g)
                        if y not in lengths:
                            lengths[y] = r
                            nxt.append(y)
                frontier = nxt
            self._lengths = lengths
        return self._lengths

    def length(self, g: Element) -> int:
        m = self.model
        if isinstance(m, (FiniteTableGroup, FinitePermGroup)):
            lengths = self._bfs_lengths()
            m.check_element(g)
            return lengths[g]
        if isinstance(m, FreeGroup):
            m.check_element(g)
            return len(g)
        if isinstance(m, FreeAbelianGroup):
            m.check_element(g)
            return sum(abs(x) for x in g)
        if isinstance(m, ProductGroup):
            m.check_element(g)
            return sum(fm.length(x) for fm, x in zip(self._factor_metrics, g))
        raise GroupMismatchError(f"unsupported model {m!r}")

    def sort_key(self, g: Element):
        """Shortlex key: (word length, canonical encoding key)."""
        return (self.length(g), self.model.element_key(g))

    # -- balls ---------------------------------------------------------------

    def ball(self, radius: int) -> list[Element]:
        """All g with |g| <= radius, duplicate-free, sorted by shortlex."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        cached = self._ball_cache.get(radius)
        if cached is None:
            elems = list(self._iter_ball(radius))
            elems.sort(key=self.sort_key)
            cached = self._ball_cache[radius] = elems
        return list(cached)

    def sphere(self, radius: int) -> list[Element]:
        """All g with |g| == radius, sorted by shortlex."""
        if radius == 0:
            return [self.model.identity]
        return [g for g in self.ball(radius) if self.length(g) == radius]

    def _iter_ball(self, radius: int) -> Iterable[Element]:
        m = self.model
        count = 0
        if isinstance(m, (FiniteTableGroup, FinitePermGroup)):
            for g, l in self._bfs_lengths().items():
                if l <= radius:
                    yield g
            return
        if isinstance(m, FreeGroup):
            expected = 1 if radius == 0 else 1 + 2 * m.rank * ((2 * m.rank - 1) ** radius - 1) // max(2 * m.rank - 2, 1)
            if m.rank == 1:
                expected = 2 * radius + 1
            if expected > self.ball_cap:
                raise ResourceCapError(f"ball of size {expected} exceeds cap {self.ball_cap}")
            stack = [()]
            yield ()
            for _ in range(radius):
                nxt = []
                for w in stack:
                    for g in m.generators:
                        if w and w[-1] == -g[0]:
                            continue
                        nw = w + g
                        nxt.append(nw)
                        yield nw
                stack = nxt
            return
        if isinstance(m, FreeAbelianGroup):
            def vectors(i: int, budget: int):
                nonlocal count
                if i == m.rank - 1:
                    for v in range(-budget, budget + 1):
                        count += 1
                        if count > self.ball_cap:
                            raise ResourceCapError(f"ball exceeds cap {self.ball_cap}")
                        yield (v,)
                    return
                for v in range(-budget, budget + 1):
                    for rest in vectors(i + 1, budget - abs(v)):
                        yield (v,) + rest
            yield from vectors(0, radius)
            return
        if isinstance(m, ProductGroup):
            factor_balls = []
            for fm in self._factor_metrics:
                by_len: dict[int, list[Element]] = {}
                for g in fm.ball(radius):
                    by_len.setdefault(fm.length(g), []).append(g)
                factor_balls.append(by_len)

            def combos(i: int, budget: int):
                nonlocal count
                if i == len(factor_balls):
                    count += 1
                    if count > self.ball_cap:
                        raise ResourceCapError(f"ball exceeds cap {self.ball_cap}")
                    yield ()
                    return
                for l, gs in factor_balls[i].items():
                    if l > budget:
                        continue
                    for g in gs:
                        for rest in combos(i + 1, budget - l):
                            yield (g,) + rest
            yield from combos(0, radius)
            return
        raise GroupMismatchError(f"unsupported model {m!r}")


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyClass:
    """Canonical class representative: shortlex-least among length-minimal
    members of the class."""
    rep: Element


def _free_cyclic_reduce(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split w = u c u^-1 with c cyclically reduced; returns (u, c)."""
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == -word[j - 1]:
        i += 1
        j -= 1
    return word[:i], word[i:j]


def _free_least_rotation(model: FreeGroup, c: tuple[int, ...]) -> tuple[int, ...]:
    if not c:
        return c
    rotations = [c[k:] + c[:k] for k in range(len(c))]
    return min(rotations, key=model.element_key)


def conjugacy_class(model: GroupModel, wm: WordMetric, g: Element) -> ConjugacyClass:
    """Canonical conjugacy-class id of g; the canonicalization rules are
    exact for every supported kind."""
    model.check_element(g)
    if isinstance(model, FreeAbelianGroup):
        return ConjugacyClass(g)
    if isinstance(model, FreeGroup):
        _, c = _free_cyclic_reduce(g)
        return ConjugacyClass(_free_least_rotation(model, c))
    if isinstance(model, ProductGroup):
        reps = tuple(conjugacy_class(f, fm, x).rep
                     for f, fm, x in zip(model.factors, wm._factor_metrics, g))
        return ConjugacyClass(reps)
    # finite kinds: enumerate the orbit under conjugation by generators
    members = class_members(model, g)
    return ConjugacyClass(min(members, key=wm.sort_key))


def class_members(model: GroupModel, g: Element) -> list[Element]:
    """Full conjugacy class of g in a finite model (orbit closure)."""
    if not model.is_finite:
        raise GroupMismatchError("class enumeration needs a finite model")
    seen = {g}
    frontier = [g]
    while frontier:
        nxt = []
        for x in frontier:
            for s in model.generators:
                y = model.conj(s, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen, key=model.element_key)


def conjugacy_classes(model: GroupModel, wm: WordMetric) -> list[ConjugacyClass]:
    """All conjugacy classes of a finite model, sorted by their reps."""
    seen: set[Element] = set()
    out = []
    for g in model.elements():
        if g in seen:
            continue
        members = class_members(model, g)
        seen.update(members)
        out.append(ConjugacyClass(min(members, key=wm.sort_key)))
    out.sort(key=lambda c: wm.sort_key(c.rep))
    return out


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------

class CentralizerModel:
    """Z_h inside an ambient model; realization depends on the kind."""

    realization: str

    def __init__(self, model: GroupModel, wm: WordMetric, h: Element):
        self.model = model
        self.wm = wm
        self.h = h

    def contains(self, g: Element) -> bool:
        return self.model.commutes(g, self.h)

    def intrinsic_length(self, g: Element) -> int:
        """Word length for an intrinsic generating set of Z_h, where one is
        realized; the retraction need not be 2-Lipschitz for this norm."""
        raise NotImplementedError


class WholeGroupCentralizer(CentralizerModel):
    realization = "whole_group"

    def intrinsic_length(self, g):
        return self.wm.length(g)


class FiniteCentralizer(CentralizerModel):
    realization = "finite_list"

    def __init__(self, model, wm, h):
        super().__init__(model, wm, h)
        self.elements = tuple(sorted((g for g in model.elements() if model.commutes(g, h)),
                                     key=wm.sort_key))
        self._intrinsic: Optional[dict[Element, int]] = None

    def _intrinsic_lengths(self) -> dict[Element, int]:
        # prefer ambient generators lying in Z_h; fall back to all of Z_h \ {e}
        if self._intrinsic is None:
            m = self.model
            inside = [g for g in m.generators if g in set(self.elements)]
            for gens in (inside, [g for g in self.elements if g != m.identity]):
                if not gens:
                    continue
                lengths = {m.identity: 0}
                frontier = [m.identity]
                r = 0
                while frontier:
                    r += 1
                    nxt = []
                    for x in frontier:
                        for s in gens:
                            y = m.mul(x, s)
                            if y not in lengths:
                                lengths[y] = r
                                nxt.append(y)
                    frontier = nxt
                if len(lengths) == len(self.elements):
                    self._intrinsic = lengths
                    break
        assert self._intrinsic is not None
        return self._intrinsic

    def intrinsic_length(self, g):
        return self._intrinsic_lengths()[g]


class CyclicCentralizer(CentralizerModel):
    """Free-group centralizer <w> of h != e, with w the maximal root of h."""

    realization = "cyclic"

    def __init__(self, model: FreeGroup, wm, h):
        super().__init__(model, wm, h)
        u, c = _free_cyclic_reduce(h)
        n = len(c)
        root = None
        for d in range(1, n + 1):
            if n % d == 0 and c == c[:d] * (n // d):
                root = c[:d]
                break
        assert root is not None
        self.root = model.mul(model.mul(u, root), model.inv(u))
        self.cyclic_length = len(root)

    def power_of_root(self, g: Element) -> Optional[int]:
        """Return m with g = root**m, or None."""
        m = self.model
        if g == m.identity:
            return 0
        bound = self.wm.length(g) // self.cyclic_length + 1
        x = m.identity
        for k in range(1, bound + 1):
            x = m.mul(x, self.root)
            if g == x:
                return k
        x = m.identity
        inv_root = m.inv(self.root)
        for k in range(1, bound + 1):
            x = m.mul(x, inv_root)
            if g == x:
                return -k
        return None

    def contains(self, g):
        return self.power_of_root(g) is not None

    def intrinsic_length(self, g):
        p = self.power_of_root(g)
        if p is None:
            raise GroupMismatchError("element outside the cyclic centralizer")
        return abs(p)


class ProductCentralizer(CentralizerModel):
    realization = "product"

    def __init__(self, model: ProductGroup, wm, h):
        super().__init__(model, wm, h)
        self.components = tuple(
            centralizer(f, fm, x)
            for f, fm, x in zip(model.factors, wm._factor_metrics, h))

    def intrinsic_length(self, g):
        return sum(c.intrinsic_length(x) for c, x in zip(self.components, g))


def centralizer(model: GroupModel, wm: WordMetric, h: Element) -> CentralizerModel:
    model.check_element(h)
    if isinstance(model, FreeAbelianGroup) or h == model.identity:
        return WholeGroupCentralizer(model, wm, h)
    if isinstance(model, FreeGroup):
        if model.rank == 1:
            return WholeGroupCentralizer(model, wm, h)
        return CyclicCentralizer(model, wm, h)
    if isinstance(model, ProductGroup):
        return ProductCentralizer(model, wm, h)
    cz = FiniteCentralizer(model, wm, h)
    if len(cz.elements) == model.order:
        return WholeGroupCentralizer(model, wm, h)
    return cz


# ---------------------------------------------------------------------------
# coset sections and the retraction p_h
# ---------------------------------------------------------------------------

class CosetSection:
    """Deterministic length-minimal section of Z_h \\ G.

    ``section(g)`` returns s(Z_h g), the shortlex-least length-minimal
    representative of the coset of g; ``retract(g)`` is p_h(g) = g s(...)^-1.
    """

    def __init__(self, cz: CentralizerModel):
        self.cz = cz
        self.model = cz.model
        self.wm = cz.wm
        self.h = cz.h
        self._cache: dict[Element, Element] = {}
        if isinstance(cz, ProductCentralizer):
            self._component_sections = tuple(CosetSection(c) for c in cz.components)

    def section(self, g: Element) -> Element:
        cached = self._cache.get(g)
        if cached is None:
            cached = self._cache[g] = self._section(g)
        return cached

    def _section(self, g: Element) -> Element:
        m, wm, cz = self.model, self.wm, self.cz
        m.check_element(g)
        if isinstance(cz, WholeGroupCentralizer):
            return m.identity
        if isinstance(cz, FiniteCentralizer):
            return min((m.mul(a, g) for a in cz.elements), key=wm.sort_key)
        if isinstance(cz, ProductCentralizer):
            return tuple(s.section(x) for s, x in zip(self._component_sections, g))
        assert isinstance(cz, CyclicCentralizer)
        return self._cyclic_section(g)

    def _cyclic_section(self, g: Element) -> Element:
        # Search s over {w^m g : |m| <= 2|g|/|w_cyc| + 2}.  Lengths along a
        # cyclic-subgroup orbit are eventually monotone, so the search is
        # certified by two consecutive non-decreasing steps at both ends.
        m, wm = self.model, self.wm
        cz: CyclicCentralizer = self.cz  # type: ignore[assignment]
        w = cz.root
        window = 2 * wm.length(g) // cz.cyclic_length + 2
        x = m.mul(m.power(w, -window), g)
        orbit = [x]
        for _ in range(2 * window):
            x = m.mul(w, x)
            orbit.append(x)
        lengths = [wm.length(y) for y in orbit]
        if not (lengths[0] >= lengths[1] >= lengths[2]
                and lengths[-1] >= lengths[-2] >= lengths[-3]):
            raise WindowExhaustedError(
                f"coset minimum not certified within window {window}")
        return min(orbit, key=wm.sort_key)

    def retract(self, g: Element) -> Element:
        """p_h(g) = g * s(Z_h g)^-1, a point of Z_h."""
        return self.model.mul(g, self.model.inv(self.section(g)))


def coset_section(model: GroupModel, wm: WordMetric, h: Element) -> CosetSection:
    return CosetSection(centralizer(model, wm, h))


# ---------------------------------------------------------------------------
# conjugator search
# ---------------------------------------------------------------------------

def find_conjugator(model: GroupModel, wm: WordMetric, g: Element, h: Element,
                    max_radius: int) -> Element:
    """Shortest r (shortlex tie-break) with h = r^-1 g r, by breadth-first
    search over balls of increasing radius.

    Raises NotConjugateError when non-conjugacy is proven (finite kinds by
    exhaustion, free kind by cyclic-reduction canonical forms, abelian
    trivially, products componentwise) and NotConjugateWithinError when the
    search window is exhausted without a decision.
    """
    model.check_element(g)
    model.check_element(h)
    if g == h:
        return model.identity
    if isinstance(model, FreeAbelianGroup):
        raise NotConjugateError(f"distinct elements of {model.name} are non-conjugate")
    if isinstance(model, ProductGroup):
        parts = []
        for f, fm, gx, hx in zip(model.factors, wm._factor_metrics, g, h):
            parts.append(find_conjugator(f, fm, gx, hx, max_radius))
        return tuple(parts)
    if isinstance(model, FreeGroup):
        if conjugacy_class(model, wm, g).rep != conjugacy_class(model, wm, h).rep:
            raise NotConjugateError("distinct cyclic-reduction canonical forms")
    if model.is_finite and h not in class_members(model, g):
        raise NotConjugateError("exhaustive class enumeration excludes h")
    prev_size = -1
    for radius in range(max_radius + 1):
        ball = wm.ball(radius)
        if model.is_finite and len(ball) == prev_size:
            # ball stopped growing: the whole group has been searched
            raise NotConjugateError("search exhausted the finite group")
        prev_size = len(ball)
        for r in ball:
            if wm.length(r) < radius:
                continue
            if model.conj(r, g) == h:
                return r
    raise NotConjugateWithinError(max_radius)


def minimal_conjugator(section: CosetSection, product: Element) -> Element:
    """Shortest r (shortlex tie-break) with product = r^-1 h r, for the h of
    the given section.

    All conjugators form the coset Z_h r0, so the certified coset-section
    minimum applied to any single conjugator r0 yields the global minimum.
    The free kind constructs r0 from cyclic-reduction canonical forms; finite
    kinds scan the group; abelian kinds need r0 = e.
    """
    m, wm, h = section.model, section.wm, section.h
    r0 = _some_conjugator(m, wm, h, product)
    return section.section(r0)


def _some_conjugator(model: GroupModel, wm: WordMetric, h: Element,
                     product: Element) -> Element:
    if product == h:
        return model.identity
    if isinstance(model, FreeAbelianGroup):
        raise NotConjugateError(f"{model.name}: product differs from h")
    if isinstance(model, FreeGroup):
        if conjugacy_class(model, wm, h).rep != conjugacy_class(model, wm, product).rep:
            raise NotConjugateError("distinct cyclic-reduction canonical forms")
        rh = _free_conjugator_to_canonical(model, h)
        rp = _free_conjugator_to_canonical(model, product)
        return model.mul(model.inv(rh), rp)
    if isinstance(model, ProductGroup):
        sections = [coset_section(f, fm, hx)
                    for f, fm, hx in zip(model.factors, wm._factor_metrics, h)]
        return tuple(minimal_conjugator(s, px) for s, px in zip(sections, product))
    for r in model.elements():
        if model.conj(r, h) == product:
            return r
    raise NotConjugateError("exhaustive scan excludes the product from [h]")


def _free_conjugator_to_canonical(model: FreeGroup, w: tuple[int, ...]) -> Element:
    """r with w = r^-1 c r where c is the canonical class representative."""
    u, c = _free_cyclic_reduce(w)
    canon = _free_least_rotation(model, c)
    for k in range(max(len(c), 1)):
        if c[k:] + c[:k] == canon:
            # c = p^-1 canon p with p the length-k prefix of canon
            p = canon[:k]
            return model.mul(p, model.inv(u))
    raise AssertionError("rotation search cannot fail")


def make_conjugator_provider(section: CosetSection) -> Callable[[Element], Element]:
    """Memoized product -> minimal conjugator map for pi_h-style uses."""
    cache: dict[Element, Element] = {}

    def provider(product: Element) -> Element:
        r = cache.get(product)
        if r is None:
            r = cache[product] = minimal_conjugator(section, product)
        return r

    return provider


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


def conjugacy_bound_profile(model: GroupModel, wm: WordMetric,
                            sample_radius: int, max_radius: int) -> dict:
    """For each h in the sample ball, the minimal conjugator length from the
    class-minimal representative h_x to h, plus a growth fit.

    Window exhaustion is recorded per row, never fatal.
    """
    rows = []
    for h in wm.ball(sample_radius):
        rep = conjugacy_class(model, wm, h).rep
        try:
            r = find_conjugator(model, wm, rep, h, max_radius)
            rows.append({
                "class_rep": model.element_str(rep),
                "h": model.element_str(h),
                "length_h": wm.length(h),
                "min_conjugator_len": wm.length(r),
                "window_status": "ok",
            })
        except NotConjugateWithinError:
            rows.append({
                "class_rep": model.element_str(rep),
                "h": model.element_str(h),
                "length_h": wm.length(h),
                "min_conjugator_len": None,
                "window_status": f"window_exhausted({max_radius})",
            })
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
