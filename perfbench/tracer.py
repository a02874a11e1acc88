"""Span tracer that times each burghelea layer from outside the program.

``Tracer.install()`` wraps the public entry points of every layer: methods
on the classes, and module-level functions at every module that bound them
by name (``from .lp import solve_min_lp`` makes a second binding that
patching ``lp.solve_min_lp`` alone would miss).  Each wrapped call counts
towards ``<span>.calls``.  A call opens a span (name, start, end, parent)
unless the innermost open span belongs to the same layer; then its time
stays with the enclosing span.  A span's self time is its duration minus the
durations of its child spans.

Spans are aggregated as they close, per (name, parent name) edge, so memory
stays bounded however many calls a run makes.

Run as a script, it executes one CLI command under tracing and prints a JSON
object with the report text, the per-span totals and the edges:

    PYTHONPATH=src python3 perfbench/tracer.py hh-ranks --group ... --class ...
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import defaultdict

ROOT = "other"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_true(counters, args, kwargs, result):
    counters["true"] += bool(result)


def _lp_shape(counters, args, kwargs, result):
    counters["rows"] += len(_arg(args, kwargs, 1, "A"))
    counters["cols"] += len(_arg(args, kwargs, 0, "c"))
    counters["duality_checked"] += bool(_arg(args, kwargs, 3, "check_duality"))


def _terms_out(counters, args, kwargs, result):
    counters["terms_out"] += len(result.terms)


def _basis_tuples(counters, args, kwargs, result):
    counters["tuples"] += len(result)


def _truncation_tuples(counters, args, kwargs, result):
    counters["tuples"] += sum(len(b) for b in args[0].bases.values())


def targets():
    """(owner, attribute, span name, layer, observer) for every wrapped entry
    point.  Owners are classes or modules; a layer shares one nesting scope,
    while each hochschild and dehn phase is its own layer so that its self
    time is reported apart from the phases it calls."""
    from burghelea import chains, dehn, groups, hochschild, linalg, lp, metric, norms

    out = []
    kinds, stack = [], [groups.GroupModel]
    while stack:
        cls = stack.pop()
        kinds.append(cls)
        stack.extend(cls.__subclasses__())
    for cls in kinds:
        for op in ("mul", "inv", "check_element"):
            if op in vars(cls) and cls is not groups.GroupModel:
                out.append((cls, op, f"groups.{op}", "groups", None))
    out += [
        (linalg.RationalEchelon, "insert", "linalg.insert", "linalg", _count_true),
        (linalg.RationalEchelon, "contains", "linalg.contains", "linalg", _count_true),
        (lp, "solve_min_lp", "lp.solve", "lp", _lp_shape),
        (metric.CosetSection, "retract", "metric.retract", "metric", None),
        (metric.CosetSection, "section", "metric.section", "metric", None),
        (metric.WordMetric, "length", "metric.length", "metric", None),
        (metric.WordMetric, "ball", "metric.ball", "metric", None),
        (metric, "conjugacy_class", "metric.conjugacy_class", "metric", None),
        (chains, "linear_extend", "chains.linear_extend", "chains", _terms_out),
        (chains.Chain, "__add__", "chains.add", "chains", None),
        (hochschild, "class_component_basis", "hochschild.basis", "hochschild.basis",
         _basis_tuples),
        (hochschild, "homology_ranks", "hochschild.boundary", "hochschild.boundary", None),
        (hochschild, "pi_h", "hochschild.pi_h", "hochschild.pi_h", None),
        (dehn.BarTruncation, "__init__", "dehn.truncation", "dehn.truncation",
         _truncation_tuples),
        (dehn.BarTruncation, "boundary_columns", "dehn.columns", "dehn.columns", None),
        (dehn.SimplicialComplex, "boundary_columns", "dehn.columns", "dehn.columns", None),
        (dehn, "dehn_function", "dehn.enumerate", "dehn.enumerate", None),
        (norms.NormFamily, "norm", "norms.norm", "norms", None),
    ]
    return out


class Tracer:
    def __init__(self):
        # open spans, innermost last: [name, layer, time covered by children]
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        # (name, parent name) -> [spans, total seconds, self seconds]
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])

    def wrap(self, fn, name: str, layer: str, observe=None):
        stack, calls, edges = self.stack, self.calls, self.edges
        counters = self.counters[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [name, layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[2] += duration
                    edge = edges[(name, parent[0] if parent else None)]
                    edge[0] += 1
                    edge[1] += duration
                    edge[2] += duration - frame[2]
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; rebinds module functions wherever they are bound."""
        modules = [m for n, m in sys.modules.items()
                   if n == "burghelea" or n.startswith("burghelea.")]
        for owner, attr, name, layer, observe in targets():
            original = vars(owner)[attr]
            wrapped = self.wrap(original, name, layer, observe)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def run(self, fn, *args):
        """Call fn inside the root span; returns (result, root duration)."""
        result = self.wrap(fn, ROOT, ROOT)(*args)
        return result, self.edges[(ROOT, None)][1]

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self_s and the observer's counters."""
        out = {name: {"calls": calls, "self_s": 0.0, **self.counters[name]}
               for name, calls in self.calls.items()}
        for (name, _parent), (_spans, _total, self_s) in self.edges.items():
            out[name]["self_s"] += self_s
        return out


def main(argv: list[str]) -> int:
    from burghelea import cli

    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, root_s = tracer.run(cli.main, argv)
    json.dump({
        "exit": code,
        "report": buf.getvalue(),
        "root_s": root_s,
        "spans": tracer.totals(),
        "edges": [[n, p, *v] for (n, p), v in sorted(tracer.edges.items(), key=str)],
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
