"""Batch command-line front end.

Subcommands: hh-ranks, burghelea-check, verify-identities, conj-bound,
norm-profile, dehn, fill.  Each subcommand takes only the flags it reads; any
other flag is a usage error.  Exit codes: 0 success, 2 mathematical-identity
failure (the report names the counterexample), 1 usage or resource errors.
All randomness is seed-derived, so identical configs produce byte-identical
reports; every report embeds the config it was produced from.
verify-identities runs on an interned view of its group, with ints for
elements and every product memoized; its reports are those of the group.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import dehn as dehn_mod
from .bar_complexes import bar_homology_ranks, check_cprime_space_cap
from .errors import DescriptorError, WorkbenchError
from .groups import InternedModel, parse_group
from .hochschild import homology_ranks
from .metric import conjugacy_bound_profile, conjugacy_class, conjugacy_classes, coset_section
from .norms import operator_growth_profile
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


# the largest --k and --k-grid upper bound: far above every default, and above
# the exponents at which a norm-profile ratio leaves the float range (500 on
# z4), but small enough that the grid is never a memory hazard, a fill norm
# (1 + |g|)^k stays well inside int-to-string conversion, and a dehn table
# of k rows stays short
K_GRID_MAX = 1000


def _k(text: str) -> int:
    k = _nonnegative_int(text)
    if k > K_GRID_MAX:
        raise WorkbenchError(f"--k {k} is above {K_GRID_MAX}")
    return k


# argparse keywords of every flag.  A report's config has a key for every flag
# but --out, holding the value given or None; --seed and --format hold their
# default below instead of None, also where the subcommand does not take them.
_FLAGS = {
    "--group": dict(metavar="PATH", help="group descriptor JSON file"),
    "--complex": dict(metavar="PATH", help="simplicial complex JSON file"),
    "--class": dict(dest="class_rep", metavar="REP",
                    help="element string selecting a conjugacy class"),
    "--degree": dict(type=_nonnegative_int, metavar="N"),
    "--max-degree": dict(type=_nonnegative_int, metavar="N"),
    "--radius": dict(type=_nonnegative_int, metavar="R"),
    "--k": dict(type=_k, metavar="INT"),
    "--k-grid": dict(metavar="a..b"),
    "--samples": dict(type=_nonnegative_int, metavar="N"),
    "--seed": dict(type=int, default=0, metavar="N"),
    "--cap": dict(type=_nonnegative_int, metavar="N"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(metavar="PATH"),
}


def _dest(flag: str) -> str:
    return _FLAGS[flag].get("dest", flag[2:].replace("-", "_"))


_CONFIG_KEYS = ("command",) + tuple(_dest(f) for f in _FLAGS if f != "--out")


class _Derived:
    """A default computed from the flags listed before it; --help shows the
    formula."""

    def __init__(self, formula: str, compute):
        self.formula = formula
        self.compute = compute

    def __str__(self) -> str:
        return self.formula


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and the parser of each subcommand."""
    parser = _Parser(prog="burghelea", description=__doc__, allow_abbrev=False)
    parser.set_defaults(**{_dest(f): kw.get("default") for f, kw in _FLAGS.items()})
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, (help_text, _, flags) in _SUBCOMMANDS.items():
        p = subparsers[name] = sub.add_parser(name, help=help_text, description=help_text,
                                              allow_abbrev=False)
        for flag, default in flags.items():
            kwargs = dict(_FLAGS[flag])
            if default is not None:
                kwargs["help"] = f"{kwargs.get('help', '')} (default: {default})".lstrip()
            p.add_argument(flag, **kwargs)
    return parser, subparsers


def _parse_k_grid(spec: str) -> list[int]:
    try:
        lo_s, hi_s = spec.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise WorkbenchError(f"bad --k-grid {spec!r}; expected a..b") from None
    if lo < 0:
        raise WorkbenchError("--k-grid bounds must be nonnegative")
    if hi < lo:
        raise WorkbenchError("--k-grid upper bound below lower bound")
    if hi > K_GRID_MAX:
        raise WorkbenchError(f"--k-grid upper bound {hi} is above {K_GRID_MAX}")
    return list(range(lo, hi + 1))


def _read_json(args, flag: str):
    path = getattr(args, _dest(flag))
    if not path:
        raise WorkbenchError(f"this command needs {flag} PATH")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise DescriptorError(f"{path} is not valid JSON: {exc}") from exc


def _emit(args, payload: dict, csv_rows: Optional[list[dict]] = None,
          csv_fields: Optional[list[str]] = None) -> None:
    if args.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        buf.write("# config " + json.dumps(args.config, sort_keys=True) + "\n")
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
        text = json.dumps({"config": args.config, "results": body},
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
    model = parse_group(_read_json(args, "--group"))
    x = None
    if args.class_rep is not None:
        x = conjugacy_class(model, model.parse_element(args.class_rep))
    report = homology_ranks(model, args.max_degree, x=x)
    _emit(args, {"ranks": report, "betti": [r["betti"] for r in report]},
          csv_rows=report,
          csv_fields=["degree", "dim_chain_space", "rank_boundary_out",
                      "rank_boundary_in", "betti"])
    return EXIT_OK


def _cmd_burghelea_check(args) -> int:
    model = parse_group(_read_json(args, "--group"))
    max_degree = args.max_degree

    if args.class_rep is not None:
        # per-class factor: ranks of the class component of the Hochschild
        # complex against ranks of C'_.(Z_h), independently computed
        h = model.parse_element(args.class_rep)
        x = conjugacy_class(model, h)
        z_elems = [g for g in model.elements() if model.commutes(g, h)]
        check_cprime_space_cap(len(z_elems), max_degree)  # before either side builds
        hochschild_side = [r["betti"] for r in homology_ranks(model, max_degree, x=x)]
        realization = coset_section(model, h).realization
        bar_side = bar_homology_ranks(z_elems, model._mul, max_degree)
        mismatches = [n for n in range(max_degree + 1)
                      if hochschild_side[n] != bar_side[n]]
        payload = {
            "class_rep": model.element_str(x.rep),
            "centralizer_realization": realization,
            "hochschild_component_betti": hochschild_side,
            "bar_complex_betti": bar_side,
            "mismatched_degrees": mismatches,
            "passed": not mismatches,
        }
        _emit(args, payload)
        return EXIT_OK if not mismatches else EXIT_IDENTITY_FAILURE

    classes = conjugacy_classes(model)
    report = homology_ranks(model, max_degree)
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
    model = InternedModel(parse_group(_read_json(args, "--group")))
    h = model.parse_element(args.class_rep) if args.class_rep is not None else None
    report = run_identity_suite(
        model, h=h, max_degree=args.degree, samples=args.samples,
        seed=args.seed, radius=args.radius)
    rows = [{"identity_name": c["identity_name"], "degree": c["degree"],
             "samples": c["samples"], "failures": len(c["failures"]),
             "first_failure": c["failures"][0] if c["failures"] else ""}
            for c in report["checks"]]
    _emit(args, report, csv_rows=rows,
          csv_fields=["identity_name", "degree", "samples", "failures", "first_failure"])
    return EXIT_OK if report["all_passed"] else EXIT_IDENTITY_FAILURE


def _cmd_conj_bound(args) -> int:
    model = parse_group(_read_json(args, "--group"))
    profile = conjugacy_bound_profile(model, args.radius, args.cap)
    rows = [{"class_rep": r["class_rep"], "length_h": r["length_h"],
             "min_conjugator_len": r["min_conjugator_len"],
             "window_status": r["window_status"]} for r in profile["rows"]]
    payload = dict(profile)
    payload["csv_trailer"] = {"fit": profile["fit"]}
    _emit(args, payload, csv_rows=rows,
          csv_fields=["class_rep", "length_h", "min_conjugator_len", "window_status"])
    return EXIT_OK


def _cmd_norm_profile(args) -> int:
    model = parse_group(_read_json(args, "--group"))
    k_grid = _parse_k_grid(args.k_grid)
    if args.class_rep is not None:
        h_sample = [model.parse_element(args.class_rep)]
    else:
        h_sample = default_class_reps(model, limit=4, radius=args.radius)

    result = operator_growth_profile(model, h_sample, args.degree, args.radius, k_grid,
                                     args.samples, args.seed)
    payload = {**result, "csv_trailer": {"fits": result["fits"]}}
    _emit(args, payload, csv_rows=result["rows"],
          csv_fields=["map", "metric", "h_rep", "length_h", "k", "k_prime",
                      "max_ratio_num", "max_ratio_den", "ratio_float"])
    return EXIT_OK


def _cmd_dehn(args) -> int:
    complex_ = dehn_mod.SimplicialComplex.from_obj(_read_json(args, "--complex"))
    table = dehn_mod.dehn_function(complex_, args.degree, args.k,
                                   enumeration_cap=args.cap)
    rows = [{"k": r["k"], "dN_value": r["dehn_value"],
             "witness_id": r["witness_boundary"]} for r in table["rows"]]
    _emit(args, table, csv_rows=rows, csv_fields=["k", "dN_value", "witness_id"])
    return EXIT_OK


def _cmd_fill(args) -> int:
    model = parse_group(_read_json(args, "--group"))
    report = dehn_mod.filling_estimate_check(
        model, degree=args.degree, radius=args.radius, k=args.k,
        p_grid=_parse_k_grid(args.k_grid), samples=args.samples, seed=args.seed)
    fields = ["sample", "status", "source_norm_k", "fill_norm_k"]
    fields += [f"ratio_p{p}" for p in report["p_grid"]]
    _emit(args, report, csv_rows=report["rows"], csv_fields=fields)
    return EXIT_OK


# subcommand -> (help, handler, {flag: effective default}).  The parser takes
# exactly these flags; a default of None leaves the flag unset.  A _Derived
# default is computed from the flags before it.
_SUBCOMMANDS = {
    "hh-ranks": ("exact Hochschild homology ranks of a finite model", _cmd_hh_ranks, {
        "--group": None, "--class": None, "--max-degree": 1, "--format": "json",
        "--out": None}),
    "burghelea-check": ("compare computed ranks against the class-count oracle",
                        _cmd_burghelea_check, {
        "--group": None, "--class": None, "--max-degree": 1, "--out": None}),
    "verify-identities": ("run the exact identity suites", _cmd_verify_identities, {
        "--group": None, "--class": None, "--degree": 2, "--samples": 50, "--seed": 0,
        "--radius": 2, "--format": "json", "--out": None}),
    "conj-bound": ("profile minimal conjugator lengths over a sample ball", _cmd_conj_bound, {
        "--group": None, "--radius": 3,
        "--cap": _Derived("2 * radius + 2", lambda args: 2 * args.radius + 2),
        "--format": "json", "--out": None}),
    "norm-profile": ("norm-growth profile of the comparison maps", _cmd_norm_profile, {
        "--group": None, "--class": None, "--radius": 2, "--degree": 1, "--samples": 10,
        "--k-grid": "0..2", "--seed": 0, "--format": "json", "--out": None}),
    "dehn": ("Dehn function table of a simplicial complex", _cmd_dehn, {
        "--complex": None, "--degree": 1, "--k": 3, "--cap": 2_000_000, "--format": "json",
        "--out": None}),
    "fill": ("weighted-filling estimate sweep on a truncated bar complex", _cmd_fill, {
        "--group": None, "--degree": 1, "--radius": 2, "--k": 0, "--k-grid": "0..2",
        "--samples": 10, "--seed": 0, "--format": "json", "--out": None}),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser, subparsers = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # a flag the subcommand does not take: show that subcommand's usage
            subparsers[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
        _, handler, flags = _SUBCOMMANDS[args.command]
        # the config records the flags as given; defaults apply after it
        args.config = {k: getattr(args, k) for k in _CONFIG_KEYS}
        for flag, default in flags.items():
            if getattr(args, _dest(flag)) is None:
                if isinstance(default, _Derived):
                    default = default.compute(args)
                setattr(args, _dest(flag), default)
        return handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (WorkbenchError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
