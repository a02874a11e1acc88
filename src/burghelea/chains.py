"""Sparse formal linear combinations over tuples of group elements.

A Chain maps basis tuples to exact coefficients and carries a complex-kind
tag plus a degree; the tag fixes the tuple arity:

    hochschild  degree n, arity n+1   (tensor generators)
    cprime      degree n, arity n     (inhomogeneous bar generators)
    cbar        degree n, arity n+1   (equivariant generators, leading e)
    e           degree n, arity n+1   (non-equivariant homogeneous generators)

Zero coefficients are never stored, so equality of chains is equality of
their term maps.

A coefficient is an exact ``int`` where integral as built, else a
``Fraction``, never a float: every comparison map and boundary has
coefficients +-1, so chains built from basis chains stay in ints.  An int
and a Fraction of equal value compare and hash equal and print alike.

A boundary is its complex's face map extended by ``linear_extend``, which
builds its result in one pass: each image term is checked for arity and added
straight into the result's term map, as ``Chain.__add__`` builds its sum, with
no intermediate list and no second validation by the constructor.  The
face map of the standard simplex, ``simplex_faces``, lives here because the
E complex (``homotopy``), the C-bar complex (``bar_complexes``) and
simplicial complexes (``dehn``) all use it; the same face functions feed the
sparse boundary matrices of ``linalg.boundary_columns``.

Elements are checked at the edge, once per chain and model.  A public chain
map that touches the group law passes its input to ``check_chain``, which
checks every entry and records the model in the chain's ``checked`` slot;
its face and on-basis functions then run the model's unchecked kernel
(``_mul``/``_inv``).  ``linear_extend`` copies the mark to its result (every
on-basis map sends valid entries to valid entries), and a sum, difference or
multiple keeps the mark its operands share.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from fractions import Fraction

from .errors import KindMismatchError
from .groups import GroupModel

KINDS = ("hochschild", "cprime", "cbar", "e")

BasisTuple = tuple  # tuple of Element
Coefficient = int | Fraction  # never a float


def arity(kind: str, degree: int) -> int:
    if kind not in KINDS:
        raise KindMismatchError(f"unknown chain kind {kind!r}")
    if degree < 0:
        raise KindMismatchError("degree must be nonnegative")
    return degree if kind == "cprime" else degree + 1


def _arity_error(t, kind: str, degree: int, n: int) -> KindMismatchError:
    return KindMismatchError(
        f"tuple {t!r} has arity {len(t) if isinstance(t, tuple) else '?'}, "
        f"kind {kind!r} degree {degree} needs {n}")


class Chain:
    """Immutable finitely supported chain with int coefficients where
    integral as given, else Fraction ones; only its ``checked`` mark is set
    later, by ``check_chain``."""

    __slots__ = ("kind", "degree", "terms", "checked")

    def __init__(self, kind: str, degree: int,
                 terms: Mapping[BasisTuple, Coefficient] | Iterable[tuple[BasisTuple, Coefficient]] = ()):
        n = arity(kind, degree)
        acc: dict[BasisTuple, Coefficient] = {}
        items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
        for t, q in items:
            if not (isinstance(t, tuple) and len(t) == n):
                raise _arity_error(t, kind, degree, n)
            if type(q) is not int and type(q) is not Fraction:
                q = Fraction(q)
            if q:
                s = acc.get(t)
                if s is None:
                    acc[t] = q
                else:
                    s += q
                    if s:
                        acc[t] = s
                    else:
                        del acc[t]
        self.kind = kind
        self.degree = degree
        self.terms = acc
        self.checked = None

    @staticmethod
    def _of(kind: str, degree: int, terms: dict[BasisTuple, Coefficient],
            checked: GroupModel | None) -> "Chain":
        """A chain on a term map that already has the right arity and no zero."""
        out = Chain.__new__(Chain)
        out.kind, out.degree, out.terms, out.checked = kind, degree, terms, checked
        return out

    @classmethod
    def zero(cls, kind: str, degree: int) -> "Chain":
        return cls(kind, degree)

    @classmethod
    def basis(cls, kind: str, degree: int, t: BasisTuple) -> "Chain":
        return cls(kind, degree, [(t, 1)])

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "Chain") -> None:
        if self.kind != other.kind or self.degree != other.degree:
            raise KindMismatchError(
                f"cannot combine {self.kind}/{self.degree} with {other.kind}/{other.degree}")

    def _merge(self, other: "Chain", negate: bool) -> "Chain":
        self._check_compatible(other)
        acc = dict(self.terms)
        get = acc.get
        for t, q in other.terms.items():
            if negate:
                q = -q
            s = get(t)
            if s is None:
                acc[t] = q
            else:
                s += q
                if s:
                    acc[t] = s
                else:
                    del acc[t]
        return Chain._of(self.kind, self.degree, acc,
                         self.checked if self.checked is other.checked else None)

    def __add__(self, other: "Chain") -> "Chain":
        return self._merge(other, False)

    def __sub__(self, other: "Chain") -> "Chain":
        return self._merge(other, True)

    def __neg__(self) -> "Chain":
        return self.scale(-1)

    def scale(self, q: Coefficient) -> "Chain":
        if type(q) is not int:
            q = Fraction(q)
        return Chain._of(self.kind, self.degree,
                         {t: c * q for t, c in self.terms.items()} if q else {},
                         self.checked)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Chain) and self.kind == other.kind
                and self.degree == other.degree and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"Chain({self.kind}, deg={self.degree}, {len(self.terms)} terms)"

    def sorted_terms(self, model: GroupModel) -> list[tuple[BasisTuple, Coefficient]]:
        """Terms in the canonical (elementwise encoding-key) order."""
        def key(item):
            t, _ = item
            return tuple(model.element_key(x) for x in t)
        return sorted(self.terms.items(), key=key)


def linear_extend(c: Chain, kind: str, degree: int,
                  on_basis: Callable[[BasisTuple], Iterable[tuple[BasisTuple, Coefficient]]]) -> Chain:
    """Extend a map given on basis tuples linearly over a chain.

    One pass: each output term goes straight into the result's term map,
    after the same arity check as the constructor's, and a coefficient that
    cancels to zero (or a zero coefficient r) is never stored.  The result
    keeps c's ``checked`` mark: ``on_basis`` must keep entries valid."""
    n = arity(kind, degree)
    acc: dict[BasisTuple, Coefficient] = {}
    get = acc.get
    for t, q in c.terms.items():
        for u, r in on_basis(t):
            if not (isinstance(u, tuple) and len(u) == n):
                raise _arity_error(u, kind, degree, n)
            v = q * r
            if not v:
                continue
            s = get(u)
            if s is None:
                acc[u] = v
            else:
                s += v
                if s:
                    acc[u] = s
                else:
                    del acc[u]
    return Chain._of(kind, degree, acc, c.checked)


def check_chain(model: GroupModel, c: Chain) -> None:
    """Raise GroupMismatchError unless every entry of every basis tuple of c
    is an element of ``model``: the edge check of a public chain map.  A chain
    already marked ``checked`` with this very model passes at once."""
    if c.checked is model:
        return
    check = model.check_element
    for t in c.terms:
        for x in t:
            check(x)
    c.checked = model


def simplex_faces(t: BasisTuple) -> Iterator[tuple[BasisTuple, int]]:
    """Faces of the simplex t: delete entry k, with sign (-1)^k."""
    for k in range(len(t)):
        yield t[:k] + t[k + 1:], 1 if k % 2 == 0 else -1


def tuple_str(model: GroupModel, t: BasisTuple) -> str:
    return "(" + ", ".join(model.element_str(x) for x in t) + ")"


def tuple_diameter(model: GroupModel, t: BasisTuple) -> int:
    """diam of a tuple of group elements: max over pairs i, j of |t_i^-1 t_j|,
    in the model's word metric.  Each entry is checked once; the pairs run on
    the kernel."""
    check = model.check_element
    for x in t:
        check(x)
    mul, inv, length = model._mul, model._inv, model.length
    best = 0
    for i in range(len(t)):
        inv_i = inv(t[i])
        for j in range(i + 1, len(t)):
            d = length(mul(inv_i, t[j]))
            if d > best:
                best = d
    return best


def support_diameter(model: GroupModel, c: Chain) -> dict[BasisTuple, int]:
    """Per-tuple diameters of the support of a group-tuple chain."""
    return {t: tuple_diameter(model, t) for t in c.terms}


def convolve(model: GroupModel, f: Chain, g: Chain) -> Chain:
    """Convolution product of two group-algebra elements (degree-0 chains)."""
    if f.degree != 0 or g.degree != 0:
        raise KindMismatchError("convolution is defined on degree-0 chains")
    items = []
    for (a,), qa in f.terms.items():
        for (b,), qb in g.terms.items():
            items.append(((model.mul(a, b),), qa * qb))
    return Chain(f.kind, 0, items)


def chain_to_obj(model: GroupModel, c: Chain) -> list[dict]:
    """Serialize as a list of {"tuple": [...element strings], "coeff": "p/q"}."""
    return [{"tuple": [model.element_str(x) for x in t], "coeff": str(q)}
            for t, q in c.sorted_terms(model)]


def chain_from_obj(model: GroupModel, kind: str, degree: int, obj: Iterable[dict]) -> Chain:
    items = []
    for entry in obj:
        t = tuple(model.parse_element(s) for s in entry["tuple"])
        items.append((t, Fraction(entry["coeff"])))
    return Chain(kind, degree, items)
