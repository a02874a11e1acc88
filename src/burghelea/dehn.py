"""Higher-order Dehn functions of finite simplicial complexes.

l_f(b) is the least l1-norm of a chain a with da = b; it is computed two
ways: an exact rational LP (min sum(a+ + a-) subject to d(a+ - a-) = b) and
an exhaustive integer oracle with pruning.  The LP value never exceeds the
oracle value; any strict gap is surfaced, not hidden.  d^N(k) is the sup of
l_f over integer N-boundaries of l1-norm at most k.

The same machinery runs on ball-truncated equivariant bar complexes of a
group model, with diameter-weighted objectives, to probe the filling-norm
estimate |b|_{k,1} <= C * |c|_{k+p,1} empirically.

Both kinds of boundary matrix come from ``linalg.boundary_columns``: a
simplicial complex with the face map ``chains.simplex_faces``, a bar
truncation with ``bar_complexes.cbar_faces``.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Optional, Sequence

from .bar_complexes import boundary_cbar, cbar_faces
from .chains import Chain, simplex_faces, tuple_diameter
from .errors import (
    DescriptorError,
    NotABoundaryError,
    OracleCapError,
    ResourceCapError,
)
from .groups import GroupModel
from .linalg import RationalEchelon, boundary_columns
from .lp import solve_min_lp
from .metric import WordMetric
from .norms import NormFamily

ZERO = Fraction(0)


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
            for s in ss:
                for f, _ in simplex_faces(s):
                    if f not in self._index.get(dim - 1, {}):
                        raise DescriptorError(f"face {f!r} of {s!r} is missing")
        self._columns = {
            dim: list(boundary_columns(ss, self._index.get(dim - 1, {}), simplex_faces))
            for dim, ss in self.simplices.items() if dim >= 1}
        for dim in self.simplices:
            if dim >= 2:
                _assert_dd_zero(self._columns[dim], self._columns[dim - 1])

    @classmethod
    def from_obj(cls, obj: dict) -> "SimplicialComplex":
        if not isinstance(obj, dict) or "vertices" not in obj:
            raise DescriptorError("complex descriptor needs a vertices list")
        simplices = {}
        for key, ss in obj.get("simplices", {}).items():
            try:
                dim = int(key)
            except ValueError:
                raise DescriptorError(f"bad dimension key {key!r}") from None
            simplices[dim] = [tuple(s) for s in ss]
        return cls(obj["vertices"], simplices)

    def dimension_size(self, dim: int) -> int:
        return len(self.simplices.get(dim, ()))

    def index_of(self, dim: int, simplex: tuple) -> int:
        try:
            return self._index[dim][tuple(simplex)]
        except KeyError:
            raise DescriptorError(f"unknown {dim}-simplex {simplex!r}") from None

    def boundary_columns(self, dim: int) -> list[dict[int, int]]:
        """Column j = boundary of the j-th dim-simplex, as a sparse vector
        over (dim-1)-simplex indices.  The columns are built once, by the
        constructor, and shared: callers must not mutate them."""
        if dim < 1:
            return [dict() for _ in self.simplices.get(0, ())]
        return list(self._columns.get(dim, ()))


def _assert_dd_zero(cols_high, cols_low):
    for col in cols_high:
        acc: dict[int, int] = {}
        for j, sj in col.items():
            for i, si in cols_low[j].items():
                acc[i] = acc.get(i, 0) + sj * si
        if any(acc.values()):
            raise DescriptorError("boundary matrices do not compose to zero")


@dataclass
class FillingResult:
    value: Fraction              # minimal weighted l1 norm of a filling
    witness: dict[int, Fraction]  # filling chain over (N+1)-simplex indices
    status: str
    mode: str
    duality_ok: Optional[bool] = None
    oracle_value: Optional[int] = None


def min_l1_filling_vec(columns: list[dict[int, int]], n_rows: int,
                       target: dict[int, Fraction], mode: str = "rational-lp",
                       weights: Optional[Sequence[Fraction]] = None,
                       oracle_cap: int = 24,
                       check_duality: bool = True) -> FillingResult:
    """Minimal (weighted) l1 filling of a target vector by the given columns."""
    ncols = len(columns)
    w = [Fraction(x) for x in weights] if weights is not None else [Fraction(1)] * ncols
    if mode == "integer-oracle":
        if any(Fraction(v).denominator != 1 for v in target.values()):
            raise ValueError("the integer oracle needs an integer target chain")
        span = RationalEchelon()
        for col in columns:
            span.insert(dict(col))
        if not span.contains({i: int(v) for i, v in target.items() if v}):
            raise NotABoundaryError("the target chain is not a boundary")
        found = _integer_min_filling(columns, n_rows, target, oracle_cap)
        if found is None:
            raise OracleCapError(f"no integer filling with l1 <= {oracle_cap}")
        value, witness = found
        return FillingResult(Fraction(value), {j: Fraction(v) for j, v in witness.items()},
                             "optimal", mode, oracle_value=value)
    if mode != "rational-lp":
        raise ValueError(f"unknown filling mode {mode!r}")
    # variables a+ then a-: min w.(a+ + a-), d(a+ - a-) = target
    cost = w + w
    A = []
    b = []
    for i in range(n_rows):
        row = [ZERO] * (2 * ncols)
        A.append(row)
        b.append(target.get(i, ZERO))
    for j, col in enumerate(columns):
        for i, s in col.items():
            A[i][j] = Fraction(s)
            A[i][ncols + j] = Fraction(-s)
    res = solve_min_lp(cost, A, b, check_duality=check_duality)
    if res.status == "infeasible":
        raise NotABoundaryError("the target chain is not a boundary")
    assert res.status == "optimal" and res.x is not None
    witness = {}
    for j in range(ncols):
        v = res.x[j] - res.x[ncols + j]
        if v:
            witness[j] = v
    return FillingResult(res.value, witness, "optimal", mode, duality_ok=res.duality_ok)


def _integer_min_filling(columns, n_rows, target, cap: int):
    """Exhaustive search over integer chains with l1 <= cap, by increasing
    radius; pruned depth-first over coefficient choices."""
    tgt = {i: Fraction(v) for i, v in target.items() if v}
    tgt_int = {i: int(v) for i, v in tgt.items()}
    ncols = len(columns)
    # a row is settled once the last column touching it has been chosen
    last_touch = [0] * n_rows
    for j, col in enumerate(columns):
        for i in col:
            last_touch[i] = max(last_touch[i], j)
    rows_closing_at = [[] for _ in range(ncols)]
    for i, lt in enumerate(last_touch):
        if ncols:
            rows_closing_at[lt].append(i)
    max_col_support = max((len(c) for c in columns), default=1)

    for radius in range(cap + 1):
        witness: dict[int, int] = {}

        def dfs(j: int, budget: int, residual: dict[int, int]) -> bool:
            if not residual and budget >= 0:
                # zero-extend the remaining coefficients
                return True
            if j == ncols:
                return not residual
            # residual entries on rows no later column can touch must be zero
            # (checked incrementally below); prune on l1 reachability
            need = sum(abs(v) for v in residual.values())
            if need > budget * max_col_support:
                return False
            col = columns[j]
            for v in _coefficient_order(budget):
                nr = dict(residual)
                if v:
                    for i, s in col.items():
                        x = nr.get(i, 0) - v * s
                        if x:
                            nr[i] = x
                        elif i in nr:
                            del nr[i]
                if any(i in nr for i in rows_closing_at[j]):
                    continue
                if dfs(j + 1, budget - abs(v), nr):
                    if v:
                        witness[j] = v
                    return True
            return False

        if dfs(0, radius, dict(tgt_int)):
            value = sum(abs(v) for v in witness.values())
            return value, witness
    return None


def _coefficient_order(budget: int):
    yield 0
    for a in range(1, budget + 1):
        yield a
        yield -a


# ---------------------------------------------------------------------------
# higher-order Dehn functions
# ---------------------------------------------------------------------------

def min_l1_filling(X: SimplicialComplex, b: dict[tuple, Fraction], dim: int,
                   mode: str = "rational-lp", oracle_cap: int = 24,
                   check_duality: bool = True) -> FillingResult:
    """l_f(b) for an N-chain b given over simplex tuples; fills with
    (N+1)-chains."""
    target = {X.index_of(dim, s): Fraction(q) for s, q in b.items() if q}
    cols = X.boundary_columns(dim + 1)
    return min_l1_filling_vec(cols, X.dimension_size(dim), target, mode=mode,
                              oracle_cap=oracle_cap, check_duality=check_duality)


def enumerate_boundaries(X: SimplicialComplex, dim: int, k: int,
                         cap: int = 2_000_000) -> Iterable[dict[int, int]]:
    """All integer dim-chains b with l1(b) <= k that are boundaries, one
    representative per +-b pair (l_f is symmetric under negation).

    Boundary-ness is decided by rational solvability of da = b, via the
    column-space echelon of the (dim+1)-boundary matrix.
    """
    span = RationalEchelon()
    for col in X.boundary_columns(dim + 1):
        span.insert(dict(col))
    size = X.dimension_size(dim)
    count = 0
    for vec in _l1_ball_vectors(size, k):
        count += 1
        if count > cap:
            raise ResourceCapError(f"boundary enumeration exceeded cap {cap}")
        if span.contains(dict(vec)):
            yield dict(vec)


def _l1_ball_vectors(size: int, k: int):
    """Nonzero sparse integer vectors with l1 <= k, first nonzero positive."""
    if size == 0:
        return
    for support_size in range(1, min(size, k) + 1):
        for support in itertools.combinations(range(size), support_size):
            for mags in _compositions(k, support_size):
                for signs in itertools.product((1, -1), repeat=support_size - 1):
                    yield {i: m * s for i, m, s in
                           zip(support, mags, (1,) + signs)}


def _compositions(total: int, parts: int):
    """All positive integer tuples of the given length with sum <= total."""
    if parts == 1:
        for v in range(1, total + 1):
            yield (v,)
        return
    for v in range(1, total - parts + 2):
        for rest in _compositions(total - v, parts - 1):
            yield (v,) + rest


def dehn_function(X: SimplicialComplex, dim: int, k_max: int,
                  mode: str = "rational-lp", oracle_cap: int = 24,
                  enumeration_cap: int = 2_000_000) -> dict:
    """Table of d^N(k) = sup over boundaries of l1 <= k of l_f(b).

    Exact over the finite enumeration; monotone nondecreasing in k by
    construction.  Witnesses (the arg-sup boundary and its filling) are kept.
    """
    cols = X.boundary_columns(dim + 1)
    n_rows = X.dimension_size(dim)
    rows = []
    partial = False
    fillings = []
    try:
        for b in enumerate_boundaries(X, dim, k_max, cap=enumeration_cap):
            res = min_l1_filling_vec(
                cols, n_rows, {i: Fraction(v) for i, v in b.items()},
                mode=mode, oracle_cap=oracle_cap, check_duality=False)
            fillings.append((sum(abs(v) for v in b.values()), b, res))
    except ResourceCapError:
        partial = True
    best: Optional[tuple] = None
    for k in range(0, k_max + 1):
        candidates = [(res.value, b) for norm, b, res in fillings if norm <= k]
        if candidates:
            value, witness_b = max(candidates, key=lambda t: t[0])
            if best is None or value > best[0]:
                best = (value, witness_b)
        rows.append({
            "k": k,
            "dehn_value": str(best[0]) if best else "0",
            "witness_boundary": _vec_str(X, dim, best[1]) if best else "",
        })
    return {"dim": dim, "mode": mode, "rows": rows, "partial": partial}


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
    shrink on faces, so these spans form a subcomplex.
    """

    def __init__(self, model: GroupModel, wm: WordMetric, max_degree: int,
                 radius: int, diam_mode: str = "pairwise"):
        self.model = model
        self.wm = wm
        self.radius = radius
        self.diam_mode = diam_mode
        ball = wm.ball(radius)
        self.bases: dict[int, list[tuple]] = {0: [(model.identity,)]}
        for n in range(1, max_degree + 1):
            basis = []
            for rest in itertools.product(ball, repeat=n):
                t = (model.identity,) + rest
                if tuple_diameter(wm, t, diam_mode) <= radius:
                    basis.append(t)
            basis.sort(key=lambda t: tuple(model.element_key(x) for x in t))
            self.bases[n] = basis
        self._index = {n: {t: i for i, t in enumerate(b)} for n, b in self.bases.items()}

    def boundary_columns(self, degree: int) -> list[dict[int, int]]:
        return list(boundary_columns(self.bases[degree], self._index[degree - 1],
                                     partial(cbar_faces, self.model)))

    def chain_to_vec(self, c: Chain, degree: int) -> dict[int, Fraction]:
        index = self._index[degree]
        out = {}
        for t, q in c.terms.items():
            if t not in index:
                raise ResourceCapError(
                    "chain leaves the truncation window (not a refutation)")
            out[index[t]] = q
        return out

    def weights(self, degree: int, k: int) -> list[Fraction]:
        return [Fraction(tuple_diameter(self.wm, t, self.diam_mode) ** k)
                for t in self.bases[degree]]


def filling_estimate_check(model: GroupModel, wm: WordMetric, degree: int,
                           radius: int, k: int, p_grid: Iterable[int],
                           samples: int = 10, seed: int = 0,
                           ratio_bound: float = 10.0,
                           diam_mode: str = "pairwise") -> dict:
    """Sample boundaries c = d(b0) in the truncated bar complex, fill them by
    LP with the |.|_{k,1} objective, and tabulate |b|_{k,1} / |c|_{k+p,1}
    over the p grid.

    Reports the least p in the grid whose max ratio stays below
    ``ratio_bound`` (a diagnostic, not a determination of the paper-level
    filling exponent).  Unfillable samples are recorded as truncation errors.
    """
    rng = random.Random(seed)
    ps = sorted(set(p_grid))
    trunc = BarTruncation(model, wm, degree + 1, radius, diam_mode)
    nf = NormFamily(wm, "rd-chain", diam_mode=diam_mode)
    cols = trunc.boundary_columns(degree + 1)
    n_rows = len(trunc.bases[degree])
    weights = trunc.weights(degree + 1, k)
    upper_basis = trunc.bases[degree + 1]

    rows = []
    max_ratio: dict[int, Fraction] = {}
    unbounded_ps: set[int] = set()
    for s in range(samples):
        t = upper_basis[rng.randrange(len(upper_basis))]
        coeff = rng.choice([1, -1, 2])
        b0 = Chain.basis("cbar", degree + 1, t).scale(coeff)
        c = boundary_cbar(model, b0)
        entry = {"sample": s, "source_norm_k": str(nf.norm(b0, k))}
        if c.is_zero():
            entry.update(status="zero_boundary", fill_norm_k="0")
            for p in ps:
                entry[f"ratio_p{p}"] = "0"
            rows.append(entry)
            continue
        try:
            target = trunc.chain_to_vec(c, degree)
            res = min_l1_filling_vec(cols, n_rows, target, mode="rational-lp",
                                     weights=weights, check_duality=False)
        except (NotABoundaryError, ResourceCapError) as exc:
            entry.update(status=f"truncation_error: {exc}", fill_norm_k="")
            rows.append(entry)
            continue
        entry["status"] = "ok"
        entry["fill_norm_k"] = str(res.value)
        for p in ps:
            denom = nf.norm(c, k + p)
            if denom == 0:
                if res.value:
                    entry[f"ratio_p{p}"] = "inf"
                    unbounded_ps.add(p)
                else:
                    entry[f"ratio_p{p}"] = "0"
                continue
            ratio = res.value / denom
            entry[f"ratio_p{p}"] = str(ratio)
            if p not in max_ratio or ratio > max_ratio[p]:
                max_ratio[p] = ratio
        rows.append(entry)

    least_p = None
    for p in ps:
        if p in unbounded_ps:
            continue
        if p in max_ratio and float(max_ratio[p]) <= ratio_bound:
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
        "ratio_bound": ratio_bound,
    }
