"""Higher-order Dehn functions of finite simplicial complexes.

l_f(b) is the least l1-norm of a chain a with da = b, computed by an exact
LP (min w.(a+ + a-) subject to d(a+ - a-) = b) whose optimum
``lp.solve_min_lp`` certifies against its dual, A x = b included.  All LPs
of a run share the objective and the matrix, so a run hands them to
``min_l1_fillings`` at once, which builds the sparse int rows of [d | -d]
straight from the boundary columns and solves every target on one
``lp.MinLP``, each by a revised dual simplex from the basis the one before
left, and returns the optimal values.  The tests check those values against
an exhaustive integer search (``tests/oracles.py``): the LP value never
exceeds the integer one.  d^N(k) is the sup of l_f over integer N-boundaries
of l1-norm at most k.

Those boundaries are enumerated on their parametrization, not over the l1
ball: in the reduced column space of d_{N+1} a boundary is fixed by its
pivot coordinates, so ``enumerate_boundaries`` walks only those, depth-first
within the budget, and prunes a branch as soon as a coordinate it has
decided is not an integer or the l1 spent exceeds k.  On the octahedron at
k = 7 that is 519 leaves for 259 boundaries, where the ball holds 696,032
vectors.  The boundaries come in the order of support size, support,
magnitudes and signs, and the enumeration cap counts steps of the walk
(13,823 at k = 7), so it bounds the work, not just the output.

The same machinery runs on ball-truncated equivariant bar complexes of a
group model, with diameter-weighted objectives, to probe the filling-norm
estimate |b|_{k,1} <= C * |c|_{k+p,1} empirically
(``filling_estimate_check``).  Each sample is a multiple of one basis tuple,
so its boundary is that multiple of one boundary column, and both its norms
are sums over ``BarTruncation.diameters``, the diameters the LP objective
weighs by: no chain is built.

Both kinds of boundary matrix come from ``linalg.boundary_columns``: a
simplicial complex with the face map ``chains.simplex_faces``, a bar
truncation with ``bar_complexes.cbar_faces``.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import Iterable, Optional, Sequence

from .bar_complexes import cbar_faces
from .chains import simplex_faces, tuple_diameter
from .errors import DescriptorError, NotABoundaryError, ResourceCapError
from .groups import GroupModel, _checked
from .hochschild import check_memory
from .linalg import RationalEchelon, boundary_columns
from .lp import solve_min_lp

# the fill report's least bounded p is the least whose max ratio is at most this
RATIO_BOUND = 10.0


class SimplicialComplex:
    """Finite simplicial complex with standard alternating-sign boundaries.

    Simplices are sorted vertex tuples, one list per dimension; every face of
    every simplex must be present, and the boundary matrices compose to zero.
    """

    def __init__(self, vertices: Sequence, simplices: dict[int, Sequence[tuple]]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise DescriptorError("duplicate vertices")
        vertex_pos = {v: i for i, v in enumerate(self.vertices)}
        self.simplices: dict[int, tuple[tuple, ...]] = {
            0: tuple((v,) for v in self.vertices)}
        for dim in sorted(simplices):
            if dim < 1:
                raise DescriptorError("explicit simplices start at dimension 1")
            seen = set()
            cleaned = []
            for s in simplices[dim]:
                t = tuple(s)
                if len(set(t)) != len(t) or any(v not in vertex_pos for v in t):
                    raise DescriptorError(f"malformed simplex {t!r}")
                if len(t) != dim + 1:
                    raise DescriptorError(f"simplex {t!r} has wrong dimension")
                t = tuple(sorted(t, key=vertex_pos.__getitem__))
                if t in seen:
                    raise DescriptorError(f"duplicate simplex {t!r}")
                seen.add(t)
                cleaned.append(t)
            cleaned.sort(key=lambda t: tuple(vertex_pos[v] for v in t))
            self.simplices[dim] = tuple(cleaned)
        self._index = {dim: {s: i for i, s in enumerate(ss)}
                       for dim, ss in self.simplices.items()}
        for dim, ss in self.simplices.items():
            if dim == 0:
                continue
            if dim - 1 not in self._index:
                raise DescriptorError(f"dimension {dim} is listed without dimension {dim - 1}")
            for s in ss:
                for f, _ in simplex_faces(s):
                    if f not in self._index[dim - 1]:
                        raise DescriptorError(f"face {f!r} of {s!r} is missing")
        self._columns = {
            dim: list(boundary_columns(ss, self._index[dim - 1], simplex_faces))
            for dim, ss in self.simplices.items() if dim >= 1}
        for dim in self.simplices:
            if dim >= 2:
                _assert_dd_zero(self._columns[dim], self._columns[dim - 1])

    @classmethod
    def from_obj(cls, obj: dict) -> "SimplicialComplex":
        """Schema: {"vertices": [v, ...], "simplices": {"<dim>": [[v, ...], ...]}}
        with each vertex a JSON int or string."""
        if not isinstance(obj, dict) or "vertices" not in obj:
            raise DescriptorError("complex descriptor needs a vertices list")
        simplices = {}
        for key, ss in _checked(obj.get("simplices", {}), "simplices", dict).items():
            # one spelling per dimension: "01", " 1", "+1" or "1_0" is not 1
            try:
                dim = int(key)
            except ValueError:
                dim = None
            if dim is None or str(dim) != key:
                raise DescriptorError(f"bad dimension key {key!r}")
            simplices[dim] = [tuple(_vertex_list(s, f"each {key}-simplex"))
                              for s in _checked(ss, f"simplices {key!r}", list)]
        return cls(_vertex_list(obj["vertices"], "vertices"), simplices)

    def dimension_size(self, dim: int) -> int:
        return len(self.simplices.get(dim, ()))

    def boundary_columns(self, dim: int) -> list[dict[int, int]]:
        """Column j = boundary of the j-th dim-simplex, as a sparse vector
        over (dim-1)-simplex indices.  The columns are built once, by the
        constructor, and shared: callers must not mutate them."""
        if dim < 1:
            return [dict() for _ in self.simplices.get(0, ())]
        return list(self._columns.get(dim, ()))


def _vertex_list(value, field: str) -> list:
    """``value`` if it is a list of JSON ints and strings (a JSON true is not
    the int 1)."""
    if type(value) is not list or any(type(v) not in (int, str) for v in value):
        raise DescriptorError(f"{field} must be a list of JSON ints and strings")
    return value


def _assert_dd_zero(cols_high, cols_low):
    for col in cols_high:
        acc: dict[int, int] = {}
        for j, sj in col.items():
            for i, si in cols_low[j].items():
                acc[i] = acc.get(i, 0) + sj * si
        if any(acc.values()):
            raise DescriptorError("boundary matrices do not compose to zero")


def check_tableau_space(n_rows: int, ncols: int) -> None:
    """Raise ResourceCapError if a dense tableau of the filling LP, n_rows x
    (2 ncols + n_rows + 1) entries at about 24 bytes each, passes the memory
    cap.  The revised simplex holds no tableau and no dense matrix, only
    A's sparse rows and columns, B^-1 and the cost row, so the estimate
    bounds it from above: ``fill f2 --radius 4`` is priced at 29.3 MB, and
    its whole run peaks at 8.0 MB under tracemalloc (24 MB of RSS with the
    interpreter)."""
    check_memory(n_rows * (2 * ncols + n_rows + 1) * 24,
                 f"the filling LP, {n_rows} rows by {2 * ncols} columns, needs")


def min_l1_fillings(columns: list[dict[int, int]], n_rows: int,
                    targets: Sequence[dict[int, Fraction]],
                    weights: Optional[list[int]] = None) -> list[Fraction]:
    """The minimal (weighted) l1 norm of a filling of each target vector by
    the given columns, in order, by one exact LP over all of them.  Raises
    NotABoundaryError if a target does not bound, and ResourceCapError
    before any matrix is built if ``check_tableau_space`` refuses the LP."""
    ncols = len(columns)
    check_tableau_space(n_rows, ncols)
    w = weights if weights is not None else [1] * ncols
    # variables a+ then a-: min w.(a+ + a-), d(a+ - a-) = target, A's rows sparse
    A: list[dict[int, int]] = [{} for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i, s in col.items():
            A[i][j] = s
            A[i][ncols + j] = -s
    out = []
    for res in solve_min_lp(w + w, A, [[t.get(i, 0) for i in range(n_rows)]
                                       for t in targets]):
        if res.status == "infeasible":
            raise NotABoundaryError("the target chain is not a boundary")
        out.append(res.value)
    return out


# ---------------------------------------------------------------------------
# higher-order Dehn functions
# ---------------------------------------------------------------------------

def enumerate_boundaries(X: SimplicialComplex, dim: int, k: int,
                         cap: int) -> Iterable[dict[int, int]]:
    """All integer dim-chains b with l1(b) <= k that are boundaries, one
    representative per +-b pair (l_f is symmetric under negation): the one
    whose first nonzero entry is positive.

    A boundary is determined by its pivot coordinates in the reduced column
    space of the (dim+1)-boundary matrix (``RationalEchelon.reduced_rows``),
    so only those are walked, depth-first within the l1 budget; the other
    coordinates follow and prune the walk (``_boundary_leaves``).  The
    boundaries come sorted by support size, support, magnitudes and then
    signs, + before -.  The cap counts steps of the walk (each coefficient
    tried, each leaf and each step back is one); past it the boundaries found
    so far are yielded, in that order, and ResourceCapError is raised.
    """
    lcm, rows = RationalEchelon(X.boundary_columns(dim + 1)).reduced_rows()
    found = []
    try:
        for vec in _boundary_leaves(lcm, rows, X.dimension_size(dim), k, cap):
            if vec and vec[min(vec)] > 0:
                found.append(vec)
    except ResourceCapError:
        yield from sorted(found, key=_ball_order)
        raise
    yield from sorted(found, key=_ball_order)


def _ball_order(vec: dict[int, int]):
    support = sorted(vec)
    return (len(support), support, [abs(vec[i]) for i in support],
            [vec[i] < 0 for i in support])


def _boundary_leaves(lcm: int, rows: dict[int, dict[int, int]], size: int, k: int,
                     cap: int):
    """Every integer vector of l1 <= k in the span of the rows, from the
    reduced rows with common pivot entry lcm.  Pivot coordinates are chosen
    largest first, and a free coordinate is closed, checked for
    divisibility by lcm and charged to the budget, at the last row that
    touches it.  Largest first closes coordinates sooner than smallest
    first: on the octahedron at k = 7 the walk takes 13,823 steps for its
    519 leaves, against 24,687.  Iterative, so the depth is not bounded by
    the recursion limit; more than cap steps raise ResourceCapError."""
    pivots = sorted(rows, reverse=True)
    free_parts = [[(i, s) for i, s in rows[j].items() if i != j] for j in pivots]
    last_touch = {}
    for t, part in enumerate(free_parts):
        for i, _ in part:
            last_touch[i] = t
    closing = [[] for _ in pivots]
    for i, t in last_touch.items():
        closing[t].append(i)
    depth = len(pivots)
    acc = [0] * size        # lcm * the free coordinates, from the rows chosen so far
    coeff = [None] * depth  # the coefficient chosen at each depth, None if none yet
    spent = [0] * (depth + 1)
    steps = 0
    t = 0
    while t >= 0:
        steps += 1
        if steps > cap:
            raise ResourceCapError(f"boundary enumeration exceeded cap {cap}")
        if t == depth:
            vec = {j: v for j, v in zip(pivots, coeff) if v}
            vec.update((i, acc[i] // lcm) for i in last_touch if acc[i])
            yield dict(sorted(vec.items()))
            t -= 1
            continue
        v = coeff[t]
        if v is not None:
            for i, s in free_parts[t]:
                acc[i] -= v * s
            v = -v if v > 0 else 1 - v  # 0, 1, -1, 2, -2, ...
        else:
            v = 0
        if abs(v) > k - spent[t]:
            coeff[t] = None
            t -= 1
            continue
        coeff[t] = v
        for i, s in free_parts[t]:
            acc[i] += v * s
        total = spent[t] + abs(v)
        for i in closing[t]:
            q, r = divmod(acc[i], lcm)
            total += abs(q)
            if r or total > k:
                break
        else:
            spent[t + 1] = total
            t += 1


def dehn_function(X: SimplicialComplex, dim: int, k_max: int,
                  enumeration_cap: int) -> dict:
    """Table of d^N(k) = sup over boundaries of l1 <= k of l_f(b).

    Exact over the finite enumeration; monotone nondecreasing in k by
    construction.  Each row keeps its witness, the arg-sup boundary.
    Past ``enumeration_cap`` steps of the boundary walk the table covers the
    boundaries found so far and is marked partial.
    """
    boundaries = []
    partial = False
    try:
        boundaries.extend(enumerate_boundaries(X, dim, k_max, cap=enumeration_cap))
    except ResourceCapError:  # the boundaries found before the cap stay
        partial = True
    results = min_l1_fillings(X.boundary_columns(dim + 1), X.dimension_size(dim), boundaries)
    fillings = [(sum(abs(v) for v in b.values()), b, value)
                for b, value in zip(boundaries, results)]
    rows = []
    best: Optional[tuple] = None
    for k in range(0, k_max + 1):
        candidates = [(value, b) for norm, b, value in fillings if norm <= k]
        if candidates:
            value, witness_b = max(candidates, key=lambda t: t[0])
            if best is None or value > best[0]:
                best = (value, witness_b)
        rows.append({
            "k": k,
            "dehn_value": str(best[0]) if best else "0",
            "witness_boundary": _vec_str(X, dim, best[1]) if best else "",
        })
    return {"dim": dim, "mode": "rational-lp", "rows": rows, "partial": partial}


def _vec_str(X: SimplicialComplex, dim: int, vec: dict[int, int]) -> str:
    parts = []
    for i, v in sorted(vec.items()):
        s = X.simplices[dim][i]
        parts.append(f"{v}*{list(s)}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# ball-truncated bar complex of a group model
# ---------------------------------------------------------------------------

class BarTruncation:
    """Span of equivariant bar tuples (e, g_1, ..., g_n) of diameter <= R.

    The diameter of a tuple is invariant under left translation and can only
    shrink on faces, so these spans form a subcomplex.  A prefix of a tuple
    has at most its diameter, so degree n grows from degree n - 1 by one
    ball element, and only the pairs with the new entry are measured.

    |B_n| >= |B_{n-1}| (repeating the last entry keeps the diameter), so a
    filling LP of |B_{n-1}| rows and columns bounds the top degree's from
    below, and one past the memory cap refuses before degree n is built.
    """

    def __init__(self, model: GroupModel, max_degree: int, radius: int):
        self.model = model
        self.radius = radius
        ball = model.metric.ball(radius)
        mul, inv, length = model._mul, model._inv, model.length
        self.bases: dict[int, list[tuple]] = {0: [(model.identity,)]}
        for n in range(1, max_degree + 1):
            size = len(self.bases[n - 1])
            try:
                check_tableau_space(size, size)
            except ResourceCapError as err:
                raise ResourceCapError(f"a lower bound, before degree {n} is built: {err}") from None
            basis = [t + (g,) for t in self.bases[n - 1] for g in ball
                     if all(length(mul(inv(x), g)) <= radius for x in t[1:])]
            basis.sort(key=lambda t: tuple(model.element_key(x) for x in t))
            self.bases[n] = basis
        self._index = {n: {t: i for i, t in enumerate(b)} for n, b in self.bases.items()}

    def boundary_columns(self, degree: int) -> list[dict[int, int]]:
        return list(boundary_columns(self.bases[degree], self._index[degree - 1],
                                     partial(cbar_faces, self.model)))

    def diameters(self, degree: int) -> list[int]:
        """The diameter of each basis tuple of the degree, in basis order."""
        return [tuple_diameter(self.model, t) for t in self.bases[degree]]


def filling_estimate_check(model: GroupModel, degree: int, radius: int, k: int,
                           p_grid: Iterable[int], samples: int, seed: int) -> dict:
    """Sample boundaries c = d(b0) in the truncated bar complex, fill them by
    LP with the |.|_{k,1} objective, and tabulate |b|_{k,1} / |c|_{k+p,1}
    over the p grid.

    Reports the least p in the grid whose max ratio is at most
    ``RATIO_BOUND`` (a diagnostic, not a determination of the paper-level
    filling exponent).  Each sample b0 is coeff times basis tuple j, so c is
    coeff times boundary column j, |b0|_{k,1} = |coeff| diam_j^k and
    |c|_{k+p,1} = sum_i |c_i| diam_i^(k+p) over the degree's tuples.  Every
    sample fills inside the window: the truncation is a subcomplex, and b0
    itself fills c.
    """
    rng = random.Random(seed)
    ps = sorted(set(p_grid))
    trunc = BarTruncation(model, degree + 1, radius)
    n_rows = len(trunc.bases[degree])
    # refuse before the columns and diameters, which cost more than the bases
    check_tableau_space(n_rows, len(trunc.bases[degree + 1]))
    cols = trunc.boundary_columns(degree + 1)
    # the diameters of the tuples of degree + 1, which weigh the LP, and of degree
    upper, lower = trunc.diameters(degree + 1), trunc.diameters(degree)

    rows = []
    to_fill = []  # (report entry, c) of each sample with a nonzero boundary
    for s in range(samples):
        j = rng.randrange(len(cols))
        coeff = rng.choice([1, -1, 2])
        entry = {"sample": s, "source_norm_k": str(abs(coeff) * upper[j] ** k)}
        rows.append(entry)
        if cols[j]:
            to_fill.append((entry, {i: coeff * v for i, v in cols[j].items()}))
        else:
            entry.update(status="zero_boundary", fill_norm_k="0")
            for p in ps:
                entry[f"ratio_p{p}"] = "0"
    fillings = min_l1_fillings(cols, n_rows, [c for _, c in to_fill],
                               weights=[d ** k for d in upper])

    max_ratio: dict[int, Fraction] = {}
    unbounded_ps: set[int] = set()
    for (entry, c), fill in zip(to_fill, fillings):
        entry["status"] = "ok"
        entry["fill_norm_k"] = str(fill)
        for p in ps:
            denom = sum(abs(v) * lower[i] ** (k + p) for i, v in c.items())
            if denom == 0:
                if fill:
                    entry[f"ratio_p{p}"] = "inf"
                    unbounded_ps.add(p)
                else:
                    entry[f"ratio_p{p}"] = "0"
                continue
            ratio = fill / denom
            entry[f"ratio_p{p}"] = str(ratio)
            if p not in max_ratio or ratio > max_ratio[p]:
                max_ratio[p] = ratio

    least_p = None
    for p in ps:
        if p in unbounded_ps:
            continue
        if p in max_ratio and max_ratio[p] <= RATIO_BOUND:  # exact against the float
            least_p = p
            break
    return {
        "model": model.name,
        "degree": degree,
        "radius": radius,
        "k": k,
        "p_grid": ps,
        "rows": rows,
        "max_ratio_per_p": {str(p): str(v) for p, v in sorted(max_ratio.items())},
        "least_bounded_p": least_p,
        "ratio_bound": RATIO_BOUND,
    }
