"""Concrete computable models of finitely generated groups.

Five kinds are supported: finite multiplication tables, finite permutation
groups, free groups, free abelian groups, and direct products of these.
Elements are plain hashable encodings (ints or tuples); all arithmetic goes
through the owning model, which also validates membership:

==============  =====================================================
kind            element encoding
==============  =====================================================
finite_table    index into the multiplication table
finite_perm     tuple of images (0-based)
free            freely reduced word, tuple of nonzero ints (-i = inverse)
free_abelian    integer vector, tuple of length ``rank``
product         tuple with one component encoding per factor
==============  =====================================================

Canonical encodings are unique, so two elements are equal iff their
encodings are equal.

``InternedModel(base)`` views any model with ints for elements, indices
into a table of the base elements met so far: an element hashes as an int,
and each product or inverse is computed once.  verify-identities runs on it,
as its suites repeat products of few elements.  It lives beside the kinds as
``perfbench/tracer.py`` wraps the law of each ``GroupModel`` subclass defined
when it installs.

There is one group law per encoding.  Its kernel ``_mul``/``_inv`` trusts
its operands; the public ``mul``/``inv``, in each kind's own class body,
check each operand once with ``check_element`` and call the kernel, as
``conj``, ``commutes`` and ``power`` do.  The two finite kinds share
``FiniteGroup``'s law: its constructor tabulates products and inverses of
the enumerated elements, and ``check_element`` is membership (the exact
encoding type and a table lookup).  A free kernel returns ``a + b`` at once
when nothing cancels at the junction, as in most products, and otherwise
counts the cancelled letters; a free ``check_element`` is one pass over the
letters carrying the previous one.  Free-abelian rank 1 adds, negates and
checks its one coordinate directly; any other rank maps over the
coordinates.  A product binds its factors' kernels and checks in its
constructor; with two factors, as every fixture has, its kernel and
``check_element`` index the two components directly, and any other factor
count runs the general loop over the factors.  Kernels are methods of each
kind's class body, not closures bound per instance, so a profiler or tracer
can wrap them on the class.  Elements are checked at the edges
(``parse_group``, ``parse_element``, the public chain maps, a coset section
on a cache miss), which then run the kernel.  A letter, coordinate or table
index is an ``int``, never a ``bool``.

Behaviour that depends on the kind lives on the model class as well.  On
valid elements each kind implements (the realizations of the centralizer
Z_h are in ``metric``, each one the ``CosetSection`` of Z_h, which
``centralizer`` returns; every kind uses ``whole_group`` where h is central):

==============  ====================  ===================================
kind            length                class_rep / centralizer
==============  ====================  ===================================
finite_*        constructor's BFS     shortlex-least member / finite_list
free            reduced word length   least rotation of the core / cyclic
free_abelian    l1 norm               the element itself / whole_group
product         sum over factors      componentwise / product
==============  ====================  ===================================

``class_rep`` is an exact canonical form for every kind, so
``search_conjugator`` raises NotConjugateError when the class
representatives differ, and otherwise runs the breadth-first search of
``metric``; products split it into their components.

Each model carries its word metric as ``model.metric``, built once, so every
length and ball of the model goes through one cache of balls.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .errors import DescriptorError, GroupMismatchError, NotConjugateError, ResourceCapError

Element = Hashable

# Finite models are desk-scale: chain spaces grow as |G|**(n+1).
MAX_ORDER = 24
# One lowercase letter per free generator, skipping e, which names the
# identity; free-abelian vectors need no letters and keep a cap of 26.
_LETTERS = "abcdfghijklmnopqrstuvwxyz"
MAX_FREE_RANK = len(_LETTERS)
MAX_FREE_ABELIAN_RANK = 26
MAX_PRODUCT_DEPTH = 32


def reduce_word(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a word given as a sequence of nonzero signed letters."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def letter_rank(letter: int) -> int:
    # alphabet order a < a^-1 < b < b^-1 < ...
    return 2 * (abs(letter) - 1) + (1 if letter < 0 else 0)


def bfs_distances(start: Element, generators: Sequence[Element],
                  step: Callable[[Element, Element], Element],
                  limit: Optional[int] = None) -> dict[Element, int]:
    """Breadth-first distance from ``start`` of every point reached by the
    moves x -> step(x, g), g in ``generators``: word lengths when ``step`` is
    right multiplication.  Stops once more than ``limit`` points are found."""
    dist = {start: 0}
    frontier = [start]
    r = 0
    while frontier:
        r += 1
        nxt = []
        for x in frontier:
            for g in generators:
                y = step(x, g)
                if y not in dist:
                    dist[y] = r
                    nxt.append(y)
                    if limit is not None and len(dist) > limit:
                        return dist
        frontier = nxt
    return dist


class GroupModel:
    """Base class; subclasses implement the five kinds and the interned view."""

    kind: str
    name: str
    identity: Element
    generators: tuple[Element, ...]

    # -- group law (each kind defines mul, inv, check_element, _mul, _inv) --

    def conj(self, r: Element, g: Element) -> Element:
        """r^-1 g r."""
        self.check_element(r)
        self.check_element(g)
        return self._mul(self._mul(self._inv(r), g), r)

    def commutes(self, a: Element, b: Element) -> bool:
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b) == self._mul(b, a)

    def power(self, a: Element, n: int) -> Element:
        self.check_element(a)
        if n < 0:
            a, n = self._inv(a), -n
        acc = self.identity
        for _ in range(n):
            acc = self._mul(acc, a)
        return acc

    # -- word metric and conjugacy (arguments are valid elements) ----------

    @cached_property
    def metric(self):
        """The word metric of this model (``metric.WordMetric``), built once."""
        from .metric import WordMetric
        return WordMetric(self)

    def length(self, a: Element) -> int:
        raise NotImplementedError

    def shortlex_key(self, a: Element):
        return (self.length(a), self.element_key(a))

    def ball_elements(self, radius: int, cap: int) -> Iterator[Element]:
        """Each element of length <= radius once, unordered; ResourceCapError
        past ``cap`` elements."""
        raise NotImplementedError

    def class_rep(self, a: Element) -> Element:
        raise NotImplementedError

    def centralizer(self, h: Element):
        """Z_h, realized for this kind, as its ``metric.CosetSection``."""
        raise NotImplementedError

    def search_conjugator(self, g: Element, h: Element, bfs: Callable) -> Element:
        """An r with h = r^-1 g r, for g != h: NotConjugateError when the
        class representatives differ (``class_rep`` is exact for every kind),
        else ``bfs(model, g, h)``."""
        if self.class_rep(g) != self.class_rep(h):
            raise NotConjugateError("distinct class representatives")
        return bfs(self, g, h)

    # -- ordering ------------------------------------------------------------

    def element_key(self, a: Element):
        """Deterministic total-order key on canonical encodings (no length)."""
        raise NotImplementedError

    # -- text form -----------------------------------------------------------

    def element_str(self, a: Element) -> str:
        raise NotImplementedError

    def parse_element(self, s: str) -> Element:
        raise NotImplementedError

    # -- finiteness ----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self) -> tuple[Element, ...]:
        raise GroupMismatchError(f"{self.kind} model is not finite")

    @property
    def order(self) -> int:
        return len(self.elements())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class FiniteGroup(GroupModel):
    """The finite kinds share one group law.  The constructor enumerates the
    group by breadth-first search from the identity (``_lengths``, which is
    also the word metric) and tabulates the product and the inverse of every
    element, keyed by the element encodings; membership is a lookup there."""

    _encoding: type
    _lengths: dict[Element, int]
    _elements: tuple[Element, ...]
    _products: dict[Element, dict[Element, Element]]
    _inverses: dict[Element, Element]

    def _generate(self, gens: list, compose: Callable[[Element, Element], Element]) -> None:
        """Check the generating set, enumerate the group it generates under
        ``compose`` (at most ``MAX_ORDER`` elements) and tabulate the law."""
        if self.identity in gens:
            raise DescriptorError("identity listed as a generator")
        if any(all(compose(g, s) != self.identity for s in gens) for g in gens):
            raise DescriptorError("non-symmetric generating set")
        self.generators = tuple(gens)
        self._lengths = bfs_distances(self.identity, gens, compose, limit=MAX_ORDER)
        if len(self._lengths) > MAX_ORDER:
            raise DescriptorError(f"{self.name} exceeds order cap {MAX_ORDER}")
        self._elements = tuple(sorted(self._lengths))
        self._products = {a: {b: compose(a, b) for b in self._elements}
                          for a in self._elements}
        self._inverses = {a: next(b for b, ab in row.items() if ab == self.identity)
                          for a, row in self._products.items()}

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def inv(self, a):
        self.check_element(a)
        return self._inv(a)

    def _mul(self, a, b):
        return self._products[a][b]

    def _inv(self, a):
        return self._inverses[a]

    def check_element(self, a):
        try:
            # a perm entry must be an int proper: (False, 3, 2, True) hashes
            # and compares equal to (0, 3, 2, 1)
            if (type(a) is self._encoding and a in self._inverses
                    and (type(a) is int or all(type(v) is int for v in a))):
                return
        except TypeError:  # unhashable, e.g. a tuple holding a list
            pass
        raise GroupMismatchError(f"{a!r} is not an element of {self.name}")

    def element_key(self, a):
        return a

    def length(self, a):
        return self._lengths[a]

    def ball_elements(self, radius, cap):
        return (g for g, l in self._lengths.items() if l <= radius)

    def class_rep(self, a):
        return min(class_members(self, a), key=self.shortlex_key)

    def centralizer(self, h):
        from .metric import FiniteCentralizer, WholeGroupCentralizer
        elements = tuple(sorted((g for g in self._elements if self.commutes(g, h)),
                                key=self.shortlex_key))
        if len(elements) == len(self._elements):
            return WholeGroupCentralizer(self, h)
        return FiniteCentralizer(self, h, elements)

    @property
    def is_finite(self):
        return True

    def elements(self):
        return self._elements


class FiniteTableGroup(FiniteGroup):
    """Finite group given by a full multiplication table over labels."""

    kind = "finite_table"
    _encoding = int

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[int]],
                 generator_labels: Sequence[str], name: str = ""):
        n = len(labels)
        if n == 0:
            raise DescriptorError("empty element list")
        if n > MAX_ORDER:
            raise DescriptorError(f"table group exceeds order cap {MAX_ORDER}")
        if len(set(labels)) != n:
            raise DescriptorError("duplicate element labels")
        if len(table) != n or any(len(row) != n for row in table):
            raise DescriptorError("table is not square of matching size")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise DescriptorError("table entry out of range")
        self.labels = tuple(labels)
        self.name = name or f"table[{n}]"
        t = tuple(tuple(row) for row in table)

        # latin square: rows and columns are permutations
        full = set(range(n))
        for i in range(n):
            if set(t[i]) != full or {t[j][i] for j in range(n)} != full:
                raise DescriptorError("table rows/columns are not permutations")
        # identity
        ident = None
        for e in range(n):
            if all(t[e][x] == x and t[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise DescriptorError("table has no identity element")
        self.identity = ident
        # associativity, desk scale O(n^3)
        for a in range(n):
            for b in range(n):
                tab = t[a][b]
                for c in range(n):
                    if t[tab][c] != t[a][t[b][c]]:
                        raise DescriptorError("non-associative table")

        label_index = {lab: i for i, lab in enumerate(self.labels)}
        gens = []
        for lab in generator_labels:
            if lab not in label_index:
                raise DescriptorError(f"unknown generator label {lab!r}")
            gens.append(label_index[lab])
        if not gens:
            raise DescriptorError("empty generating set")
        self._generate(gens, lambda a, b: t[a][b])
        if len(self._elements) != n:
            raise DescriptorError("generating set does not generate the group")

    def element_str(self, a):
        return self.labels[a]

    def parse_element(self, s):
        try:
            return self.labels.index(s)
        except ValueError:
            raise GroupMismatchError(f"unknown element label {s!r}") from None


class FinitePermGroup(FiniteGroup):
    """Finite permutation group generated by image-list permutations.

    Composition convention: (a*b)(i) = a[b[i]], i.e. b acts first.
    """

    kind = "finite_perm"
    _encoding = tuple

    def __init__(self, degree: int, generator_perms: Sequence[Sequence[int]],
                 name: str = ""):
        if degree < 1:
            raise DescriptorError("degree must be positive")
        # generators are checked before anything of size ``degree`` is built,
        # so memory stays bounded by the descriptor
        gens = [tuple(p) for p in generator_perms]
        for p in gens:
            if len(p) != degree or sorted(p) != list(range(degree)):
                raise DescriptorError(f"malformed permutation {p!r}")
        if not gens:
            raise DescriptorError("empty generating set")
        self.identity = tuple(range(degree))
        self.name = name or f"perm[{degree}]"
        self._generate(gens, lambda a, b: tuple(a[i] for i in b))

    def element_str(self, a):
        return "[" + ",".join(map(str, a)) + "]"

    def parse_element(self, s):
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise GroupMismatchError(f"malformed permutation string {s!r}")
        images = _parse_ints(s[1:-1]) if s != "[]" else ()
        self.check_element(images)
        return images


class FreeGroup(GroupModel):
    """Free group of finite rank; elements are freely reduced words."""

    kind = "free"

    def __init__(self, rank: int, name: str = ""):
        if not 1 <= rank <= MAX_FREE_RANK:
            raise DescriptorError(f"free rank must be in 1..{MAX_FREE_RANK}")
        self.rank = rank
        self.identity = ()
        gens = []
        for i in range(1, rank + 1):
            gens.extend([(i,), (-i,)])
        self.generators = tuple(gens)
        self.name = name or f"F{rank}"

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def inv(self, a):
        self.check_element(a)
        return self._inv(a)

    def _mul(self, a, b):
        # only the junction can cancel when both factors are reduced, and
        # most products cancel nothing there
        if not a or not b or a[-1] != -b[0]:
            return a + b
        k = 1
        while k < len(a) and k < len(b) and a[len(a) - 1 - k] == -b[k]:
            k += 1
        return a[:len(a) - k] + b[k:]

    def _inv(self, a):
        return tuple([-x for x in reversed(a)])

    def check_element(self, a):
        if not isinstance(a, tuple):
            raise GroupMismatchError(f"{a!r} is not a word tuple")
        rank = self.rank
        prev = 0  # no letter is 0, so the first letter passes the second test
        for x in a:
            if type(x) is not int or not x or not -rank <= x <= rank:
                raise GroupMismatchError(f"letter {x!r} outside alphabet of {self.name}")
            if x == -prev:
                raise GroupMismatchError(f"word {a!r} is not freely reduced")
            prev = x

    def element_key(self, a):
        return tuple(letter_rank(x) for x in a)

    def element_str(self, a):
        if not a:
            return "e"
        return "".join(_LETTERS[x - 1] if x > 0 else _LETTERS[-x - 1].upper() for x in a)

    def parse_element(self, s):
        s = s.strip()
        if s in ("e", ""):
            return ()
        letters = []
        for ch in s:
            low = ch.lower()
            if low not in _LETTERS[:self.rank]:
                raise GroupMismatchError(f"letter {ch!r} outside alphabet of {self.name}")
            idx = _LETTERS.index(low) + 1
            letters.append(idx if ch.islower() else -idx)
        word = reduce_word(letters)
        return word

    def length(self, a):
        return len(a)

    def ball_elements(self, radius, cap):
        # count sphere by sphere and stop past the cap: the exact size has
        # about radius * log10(2 * rank - 1) digits
        size, sphere = 1, 2 * self.rank
        for _ in range(radius):
            size += sphere
            if size > cap:
                raise ResourceCapError(f"ball of radius {radius} exceeds cap {cap}")
            sphere *= 2 * self.rank - 1
        stack = [()]
        yield ()
        for _ in range(radius):
            nxt = []
            for w in stack:
                for g in self.generators:
                    if w and w[-1] == -g[0]:
                        continue
                    nw = w + g
                    nxt.append(nw)
                    yield nw
            stack = nxt

    @staticmethod
    def cyclic_reduce(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Split w = u c u^-1 with c cyclically reduced; returns (u, c)."""
        i, j = 0, len(word)
        while j - i >= 2 and word[i] == -word[j - 1]:
            i += 1
            j -= 1
        return word[:i], word[i:j]

    def class_rep(self, a):
        # the cyclically reduced conjugates are the rotations of the core
        _, c = self.cyclic_reduce(a)
        return min((c[k:] + c[:k] for k in range(len(c))), key=self.element_key, default=c)

    def centralizer(self, h):
        from .metric import CyclicCentralizer, WholeGroupCentralizer
        if self.rank == 1 or h == self.identity:
            return WholeGroupCentralizer(self, h)
        return CyclicCentralizer(self, h)


class FreeAbelianGroup(GroupModel):
    """Z^rank with generating set {±e_i}; elements are integer vectors."""

    kind = "free_abelian"

    def __init__(self, rank: int, name: str = ""):
        if not 1 <= rank <= MAX_FREE_ABELIAN_RANK:
            raise DescriptorError(f"free_abelian rank must be in 1..{MAX_FREE_ABELIAN_RANK}")
        self.rank = rank
        self.identity = (0,) * rank
        gens = []
        for i in range(rank):
            e = [0] * rank
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        self.generators = tuple(gens)
        self.name = name or f"Z^{rank}"

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def inv(self, a):
        self.check_element(a)
        return self._inv(a)

    def _mul(self, a, b):
        if self.rank == 1:
            return (a[0] + b[0],)
        return tuple(map(operator.add, a, b))

    def _inv(self, a):
        if self.rank == 1:
            return (-a[0],)
        return tuple([-x for x in a])

    def check_element(self, a):
        if self.rank == 1:
            if isinstance(a, tuple) and len(a) == 1 and type(a[0]) is int:
                return
        elif (isinstance(a, tuple) and len(a) == self.rank
              and all(type(x) is int for x in a)):
            return
        raise GroupMismatchError(f"{a!r} is not a rank-{self.rank} vector")

    def element_key(self, a):
        return a

    def element_str(self, a):
        return "(" + ",".join(map(str, a)) + ")"

    def parse_element(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise GroupMismatchError(f"malformed vector string {s!r}")
        v = _parse_ints(s[1:-1])
        self.check_element(v)
        return v

    def length(self, a):
        return sum(abs(x) for x in a)

    def ball_elements(self, radius, cap):
        # the ball holds the 2 * radius + 1 points of one axis: past the cap,
        # stop before building a table of radius coordinates
        if 2 * radius + 1 > cap:
            raise ResourceCapError(f"ball of radius {radius} exceeds cap {cap}")
        coordinate = {0: [0], **{l: [l, -l] for l in range(1, radius + 1)}}
        return _capped(_combinations([coordinate] * self.rank, radius), cap)

    def class_rep(self, a):
        return a

    def centralizer(self, h):
        from .metric import WholeGroupCentralizer
        return WholeGroupCentralizer(self, h)


class ProductGroup(GroupModel):
    """Direct product; componentwise law, componentwise generators."""

    kind = "product"

    def __init__(self, factors: Sequence[GroupModel], name: str = ""):
        if not factors:
            raise DescriptorError("product needs at least one factor")
        self.factors = tuple(factors)
        if self.is_finite and math.prod(f.order for f in self.factors) > MAX_ORDER:
            raise DescriptorError(f"product group exceeds order cap {MAX_ORDER}")
        self.identity = tuple(f.identity for f in self.factors)
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generators:
                t = list(self.identity)
                t[i] = g
                gens.append(tuple(t))
        self.generators = tuple(gens)
        self.name = name or " x ".join(f.name for f in self.factors)
        self._muls = [f._mul for f in self.factors]
        self._invs = [f._inv for f in self.factors]
        self._checks = [f.check_element for f in self.factors]
        # every fixture's product has two factors: its kernel and check
        # index them
        self._pair = len(self.factors) == 2

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def inv(self, a):
        self.check_element(a)
        return self._inv(a)

    def _mul(self, a, b):
        if self._pair:
            m0, m1 = self._muls
            return (m0(a[0], b[0]), m1(a[1], b[1]))
        return tuple([m(x, y) for m, x, y in zip(self._muls, a, b)])

    def _inv(self, a):
        if self._pair:
            i0, i1 = self._invs
            return (i0(a[0]), i1(a[1]))
        return tuple([i(x) for i, x in zip(self._invs, a)])

    def check_element(self, a):
        if not (isinstance(a, tuple) and len(a) == len(self._checks)):
            raise GroupMismatchError(f"{a!r} has wrong number of components")
        if self._pair:
            c0, c1 = self._checks
            c0(a[0])
            c1(a[1])
            return
        for check, x in zip(self._checks, a):
            check(x)

    def element_key(self, a):
        return tuple(f.element_key(x) for f, x in zip(self.factors, a))

    def element_str(self, a):
        return "(" + "; ".join(f.element_str(x) for f, x in zip(self.factors, a)) + ")"

    def parse_element(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise GroupMismatchError(f"malformed product string {s!r}")
        parts = _split_top_level(s[1:-1], ";")
        if len(parts) != len(self.factors):
            raise GroupMismatchError("wrong number of product components")
        return tuple(f.parse_element(p) for f, p in zip(self.factors, parts))

    @property
    def is_finite(self):
        return all(f.is_finite for f in self.factors)

    def elements(self):
        if not self.is_finite:
            return super().elements()
        return tuple(itertools.product(*(f.elements() for f in self.factors)))

    def length(self, a):
        return sum(f.length(x) for f, x in zip(self.factors, a))

    def ball_elements(self, radius, cap):
        factor_balls = []
        for f in self.factors:
            by_len: dict[int, list[Element]] = {}
            for g in f.ball_elements(radius, cap):
                by_len.setdefault(f.length(g), []).append(g)
            factor_balls.append(by_len)
        return _capped(_combinations(factor_balls, radius), cap)

    def class_rep(self, a):
        return tuple(f.class_rep(x) for f, x in zip(self.factors, a))

    def centralizer(self, h):
        from .metric import ProductCentralizer, WholeGroupCentralizer
        if h == self.identity:
            return WholeGroupCentralizer(self, h)
        return ProductCentralizer(self, h)

    def search_conjugator(self, g, h, bfs):
        # decided on the whole class rep before any component is searched,
        # then componentwise, each component in its own factor's balls
        return super().search_conjugator(g, h, lambda _, a, b: tuple(
            f.identity if x == y else f.search_conjugator(x, y, bfs)
            for f, x, y in zip(self.factors, a, b)))


class InternedModel(GroupModel):
    """The group of ``base`` with ints for elements: i is ``table[i]``, the
    i-th base element met.  Products and inverses are memoized on the ints; a
    miss runs the base kernel and interns the result.  The rest delegates on
    ``table[i]`` and interns what it returns, except ``search_conjugator``:
    its search runs in this model's balls."""

    kind = "interned"

    def __init__(self, base: GroupModel):
        self.base = base
        self.name = base.name
        self.table: list[Element] = []
        self._index, self._products, self._inverses = {}, {}, {}
        self.identity = self.intern(base.identity)
        self.generators = tuple(map(self.intern, base.generators))

    def intern(self, x: Element) -> int:
        """The int of the base element x, which must be valid."""
        i = self._index.get(x)
        if i is None:
            i = self._index[x] = len(self.table)
            self.table.append(x)
        return i

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def inv(self, a):
        self.check_element(a)
        return self._inv(a)

    def _mul(self, a, b):
        try:  # most products are hits, and a hit raises nothing
            return self._products[a << 32 | b]
        except KeyError:
            c = self._products[a << 32 | b] = self.intern(
                self.base._mul(self.table[a], self.table[b]))
            return c

    def _inv(self, a):
        c = self._inverses.get(a)
        if c is None:
            c = self._inverses[a] = self.intern(self.base._inv(self.table[a]))
        return c

    def check_element(self, a):
        if type(a) is not int or not 0 <= a < len(self.table):
            raise GroupMismatchError(f"{a!r} is not an interned element of {self.name}")

    def length(self, a):
        return self.base.length(self.table[a])

    def shortlex_key(self, a):
        return self.base.shortlex_key(self.table[a])

    def element_key(self, a):
        return self.base.element_key(self.table[a])

    def element_str(self, a):
        return self.base.element_str(self.table[a])

    def parse_element(self, s):
        return self.intern(self.base.parse_element(s))

    def class_rep(self, a):
        return self.intern(self.base.class_rep(self.table[a]))

    def ball_elements(self, radius, cap):
        return map(self.intern, self.base.ball_elements(radius, cap))

    def centralizer(self, h):
        from .metric import InternedSection
        return InternedSection(self, h)

    @property
    def is_finite(self):
        return self.base.is_finite

    def elements(self):
        return tuple(map(self.intern, self.base.elements()))


def class_members(model: GroupModel, g: Element) -> list[Element]:
    """Full conjugacy class of g in a finite model (orbit closure)."""
    if not model.is_finite:
        raise GroupMismatchError("class enumeration needs a finite model")
    orbit = bfs_distances(g, model.generators, lambda x, s: model.conj(s, x))
    return sorted(orbit, key=model.element_key)


def _combinations(options: Sequence[dict[int, list]], budget: int) -> Iterator[tuple]:
    """Tuples with one entry from each ``options`` (a length -> entries map)
    whose lengths sum to at most ``budget``."""
    if not options:
        yield ()
        return
    for l, entries in options[0].items():
        if l <= budget:
            for x in entries:
                for rest in _combinations(options[1:], budget - l):
                    yield (x,) + rest


def _capped(elements: Iterable[Element], cap: int) -> Iterator[Element]:
    for count, g in enumerate(elements, 1):
        if count > cap:
            raise ResourceCapError(f"ball exceeds cap {cap}")
        yield g


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise GroupMismatchError(f"malformed integer list {text!r}") from None


def _split_top_level(s: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _checked(value: Any, field: str, kind: type, item: Optional[type] = None) -> Any:
    """``value`` if its type is exactly ``kind`` (a JSON true is not the int 1),
    and, for a list, each entry's is ``item``."""
    if type(value) is not kind or (item and any(type(v) is not item for v in value)):
        what = f"a list of {item.__name__}" if item else f"of JSON type {kind.__name__}"
        raise DescriptorError(f"{field} must be {what}")
    return value


def parse_group(descriptor: Any, _depth: int = 0) -> GroupModel:
    """Build a validated GroupModel from a JSON descriptor (dict or text).

    Schemas:
        {"type":"finite_table","elements":[...],"table":[[...]],"generators":[...]}
        {"type":"finite_perm","degree":n,"generators":[[image list],...]}
        {"type":"free","rank":k}
        {"type":"free_abelian","rank":k}
        {"type":"product","factors":[<descriptor>,...]}  (MAX_PRODUCT_DEPTH levels at most)
    """
    if isinstance(descriptor, str):
        try:
            descriptor = json.loads(descriptor)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DescriptorError(f"descriptor is not valid JSON: {exc}") from exc
    if not isinstance(descriptor, dict):
        raise DescriptorError("descriptor must be a JSON object")
    kind = descriptor.get("type")
    name = _checked(descriptor.get("name", ""), "name", str)
    try:
        if kind == "finite_table":
            table = [_checked(row, "table row", list, int)
                     for row in _checked(descriptor["table"], "table", list)]
            return FiniteTableGroup(_checked(descriptor["elements"], "elements", list, str),
                                    table,
                                    _checked(descriptor["generators"], "generators", list, str),
                                    name=name)
        if kind == "finite_perm":
            perms = [_checked(p, "permutation", list, int)
                     for p in _checked(descriptor["generators"], "generators", list)]
            return FinitePermGroup(_checked(descriptor["degree"], "degree", int), perms, name)
        if kind == "free":
            return FreeGroup(_checked(descriptor["rank"], "rank", int), name=name)
        if kind == "free_abelian":
            return FreeAbelianGroup(_checked(descriptor["rank"], "rank", int), name=name)
        if kind == "product":
            if _depth == MAX_PRODUCT_DEPTH:
                raise DescriptorError(f"products nest deeper than {MAX_PRODUCT_DEPTH} levels")
            factors = [parse_group(d, _depth=_depth + 1)
                       for d in _checked(descriptor["factors"], "factors", list)]
            return ProductGroup(factors, name=name)
    except KeyError as exc:
        raise DescriptorError(f"descriptor missing field {exc}") from exc
    raise DescriptorError(f"unknown group type {kind!r}")
