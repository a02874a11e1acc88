"""Batch command-line front end.

Subcommands: hh-ranks, burghelea-check, verify-identities, conj-bound,
norm-profile, dehn, fill.  Exit codes: 0 success, 2 mathematical-identity
failure (the report names the counterexample), 1 usage or resource errors.
All randomness is seed-derived, so identical configs produce byte-identical
reports; every report embeds the config it was produced from.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Optional

from . import dehn as dehn_mod
from .bar_complexes import bar_homology_ranks
from .errors import WorkbenchError
from .groups import GroupModel, parse_group
from .hochschild import homology_ranks
from .metric import (
    WordMetric,
    centralizer,
    conjugacy_bound_profile,
    conjugacy_class,
    conjugacy_classes,
)
from .norms import PROFILE_MAPS, operator_growth_profile
from .verify import default_class_reps, run_identity_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IDENTITY_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1; argparse's default is 2, which is reserved
    # for mathematical-identity failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="burghelea", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", metavar="PATH", help="group descriptor JSON file")
        p.add_argument("--complex", metavar="PATH", help="simplicial complex JSON file")
        p.add_argument("--class", dest="class_rep", metavar="REP",
                       help="element string selecting a conjugacy class")
        p.add_argument("--degree", type=_nonnegative_int, metavar="N")
        p.add_argument("--max-degree", type=_nonnegative_int, metavar="N")
        p.add_argument("--radius", type=_nonnegative_int, metavar="R")
        p.add_argument("--k", type=_nonnegative_int, metavar="INT")
        p.add_argument("--k-grid", metavar="a..b")
        p.add_argument("--samples", type=_nonnegative_int, metavar="N")
        p.add_argument("--seed", type=int, default=0, metavar="N")
        p.add_argument("--cap", type=_nonnegative_int, metavar="N")
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    add("hh-ranks", "exact Hochschild homology ranks of a finite model")
    add("burghelea-check", "compare computed ranks against the class-count oracle")
    add("verify-identities", "run the exact identity suites")
    add("conj-bound", "profile minimal conjugator lengths over a sample ball")
    add("norm-profile", "norm-growth profile of the comparison maps")
    add("dehn", "Dehn function table of a simplicial complex")
    add("fill", "weighted-filling estimate sweep on a truncated bar complex")
    return parser


def _parse_k_grid(spec: Optional[str], default: tuple[int, int]) -> list[int]:
    if spec is None:
        lo, hi = default
    else:
        try:
            lo_s, hi_s = spec.split("..")
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise WorkbenchError(f"bad --k-grid {spec!r}; expected a..b") from None
    if lo < 0:
        raise WorkbenchError("--k-grid bounds must be nonnegative")
    if hi < lo:
        raise WorkbenchError("--k-grid upper bound below lower bound")
    return list(range(lo, hi + 1))


def _load_group(args) -> GroupModel:
    if not args.group:
        raise WorkbenchError("this command needs --group PATH")
    with open(args.group, encoding="utf-8") as fh:
        return parse_group(json.load(fh))


def _load_complex(args) -> dehn_mod.SimplicialComplex:
    if not args.complex:
        raise WorkbenchError("this command needs --complex PATH")
    with open(args.complex, encoding="utf-8") as fh:
        return dehn_mod.SimplicialComplex.from_obj(json.load(fh))


def _config_dict(args) -> dict:
    keys = ("command", "group", "complex", "class_rep", "degree", "max_degree",
            "radius", "k", "k_grid", "samples", "seed", "cap", "format")
    return {k: getattr(args, k, None) for k in keys}


def _emit(args, payload: dict, csv_rows: Optional[list[dict]] = None,
          csv_fields: Optional[list[str]] = None) -> None:
    config = _config_dict(args)
    if args.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        buf.write("# config " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.DictWriter(buf, fieldnames=csv_fields, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for row in csv_rows:
            writer.writerow(row)
        extra = payload.get("csv_trailer")
        if extra:
            buf.write("# " + json.dumps(extra, sort_keys=True) + "\n")
        text = buf.getvalue()
    else:
        body = {k: v for k, v in payload.items() if k != "csv_trailer"}
        text = json.dumps({"config": config, "results": body},
                          sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_hh_ranks(args) -> int:
    model = _load_group(args)
    wm = WordMetric(model)
    max_degree = args.max_degree if args.max_degree is not None else 1
    x = None
    if args.class_rep is not None:
        x = conjugacy_class(model, wm, model.parse_element(args.class_rep))
    report = homology_ranks(model, wm, max_degree, x=x)
    _emit(args, {"ranks": report, "betti": [r["betti"] for r in report]},
          csv_rows=report,
          csv_fields=["degree", "dim_chain_space", "rank_boundary_out",
                      "rank_boundary_in", "betti"])
    return EXIT_OK


def _cmd_burghelea_check(args) -> int:
    model = _load_group(args)
    wm = WordMetric(model)
    max_degree = args.max_degree if args.max_degree is not None else 1

    if args.class_rep is not None:
        # per-class factor: ranks of the class component of the Hochschild
        # complex against ranks of C'_.(Z_h), independently computed
        h = model.parse_element(args.class_rep)
        x = conjugacy_class(model, wm, h)
        hochschild_side = [r["betti"] for r in homology_ranks(model, wm, max_degree, x=x)]
        cz = centralizer(model, wm, h)
        z_elems = [g for g in model.elements() if model.commutes(g, h)]
        bar_side = bar_homology_ranks(z_elems, model.mul, max_degree)
        mismatches = [n for n in range(max_degree + 1)
                      if hochschild_side[n] != bar_side[n]]
        payload = {
            "class_rep": model.element_str(x.rep),
            "centralizer_realization": cz.realization,
            "hochschild_component_betti": hochschild_side,
            "bar_complex_betti": bar_side,
            "mismatched_degrees": mismatches,
            "passed": not mismatches,
        }
        _emit(args, payload)
        return EXIT_OK if not mismatches else EXIT_IDENTITY_FAILURE

    classes = conjugacy_classes(model, wm)
    report = homology_ranks(model, wm, max_degree)
    betti = [r["betti"] for r in report]
    expected = [len(classes)] + [0] * max_degree
    mismatches = [n for n in range(max_degree + 1) if betti[n] != expected[n]]
    payload = {
        "class_count": len(classes),
        "class_reps": [model.element_str(c.rep) for c in classes],
        "computed_betti": betti,
        "expected_betti": expected,
        "mismatched_degrees": mismatches,
        "passed": not mismatches,
    }
    _emit(args, payload)
    return EXIT_OK if not mismatches else EXIT_IDENTITY_FAILURE


def _cmd_verify_identities(args) -> int:
    model = _load_group(args)
    wm = WordMetric(model)
    h = model.parse_element(args.class_rep) if args.class_rep is not None else None
    report = run_identity_suite(
        model, wm, h=h,
        max_degree=args.degree if args.degree is not None else 2,
        samples=args.samples if args.samples is not None else 50,
        seed=args.seed,
        radius=args.radius if args.radius is not None else 2)
    rows = [{"identity_name": c["identity_name"], "degree": c["degree"],
             "samples": c["samples"], "failures": len(c["failures"]),
             "first_failure": c["failures"][0] if c["failures"] else ""}
            for c in report["checks"]]
    _emit(args, report, csv_rows=rows,
          csv_fields=["identity_name", "degree", "samples", "failures", "first_failure"])
    return EXIT_OK if report["all_passed"] else EXIT_IDENTITY_FAILURE


def _cmd_conj_bound(args) -> int:
    model = _load_group(args)
    wm = WordMetric(model)
    radius = args.radius if args.radius is not None else 3
    max_radius = args.cap if args.cap is not None else 2 * radius + 2
    profile = conjugacy_bound_profile(model, wm, radius, max_radius)
    rows = [{"class_rep": r["class_rep"], "length_h": r["length_h"],
             "min_conjugator_len": r["min_conjugator_len"],
             "window_status": r["window_status"]} for r in profile["rows"]]
    payload = dict(profile)
    payload["csv_trailer"] = {"fit": profile["fit"]}
    _emit(args, payload, csv_rows=rows,
          csv_fields=["class_rep", "length_h", "min_conjugator_len", "window_status"])
    return EXIT_OK


def _cmd_norm_profile(args) -> int:
    model = _load_group(args)
    wm = WordMetric(model)
    radius = args.radius if args.radius is not None else 2
    degree = args.degree if args.degree is not None else 1
    samples = args.samples if args.samples is not None else 10
    k_grid = _parse_k_grid(args.k_grid, (0, 2))
    if args.class_rep is not None:
        h_sample = [model.parse_element(args.class_rep)]
    else:
        h_sample = default_class_reps(model, wm, limit=4, radius=radius)

    all_rows, all_fits = [], []
    for map_id in PROFILE_MAPS:
        variants = ("induced", "intrinsic") if map_id in ("pi_h", "iota_h") else ("induced",)
        for metric_variant in variants:
            result = operator_growth_profile(
                map_id, model, wm, h_sample, degree, radius, k_grid,
                samples=samples, seed=args.seed, metric_variant=metric_variant)
            all_rows.extend(result["rows"])
            all_fits.extend(result["fits"])
    payload = {"rows": all_rows, "fits": all_fits, "csv_trailer": {"fits": all_fits}}
    _emit(args, payload, csv_rows=all_rows,
          csv_fields=["map", "metric", "h_rep", "length_h", "k", "k_prime",
                      "max_ratio_num", "max_ratio_den", "ratio_float"])
    return EXIT_OK


def _cmd_dehn(args) -> int:
    complex_ = _load_complex(args)
    dim = args.degree if args.degree is not None else 1
    k_max = args.k if args.k is not None else 3
    cap = args.cap if args.cap is not None else 2_000_000
    table = dehn_mod.dehn_function(complex_, dim, k_max, mode="rational-lp",
                                   enumeration_cap=cap)
    rows = [{"k": r["k"], "dN_value": r["dehn_value"],
             "witness_id": r["witness_boundary"]} for r in table["rows"]]
    _emit(args, table, csv_rows=rows, csv_fields=["k", "dN_value", "witness_id"])
    return EXIT_OK


def _cmd_fill(args) -> int:
    model = _load_group(args)
    wm = WordMetric(model)
    report = dehn_mod.filling_estimate_check(
        model, wm,
        degree=args.degree if args.degree is not None else 1,
        radius=args.radius if args.radius is not None else 2,
        k=args.k if args.k is not None else 0,
        p_grid=_parse_k_grid(args.k_grid, (0, 2)),
        samples=args.samples if args.samples is not None else 10,
        seed=args.seed)
    fields = ["sample", "status", "source_norm_k", "fill_norm_k"]
    fields += [f"ratio_p{p}" for p in report["p_grid"]]
    _emit(args, report, csv_rows=report["rows"], csv_fields=fields)
    return EXIT_OK


_COMMANDS = {
    "hh-ranks": _cmd_hh_ranks,
    "burghelea-check": _cmd_burghelea_check,
    "verify-identities": _cmd_verify_identities,
    "conj-bound": _cmd_conj_bound,
    "norm-profile": _cmd_norm_profile,
    "dehn": _cmd_dehn,
    "fill": _cmd_fill,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except WorkbenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
