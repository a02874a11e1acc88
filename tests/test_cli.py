import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from burghelea import cli, dehn as dehn_mod
from burghelea.cli import main
from burghelea.metric import CosetSection

from conftest import MALFORMED_COMPLEXES, fixture_path


def run_cli(*argv):
    return main(list(argv))


SRC = Path(__file__).resolve().parent.parent / "src"


def run_subprocess(*argv):
    # the child imports the package from this checkout, not an installed copy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "burghelea.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_hh_ranks_z4(tmp_path):
    out = tmp_path / "ranks.json"
    code = run_cli("hh-ranks", "--group", str(fixture_path("z4.json")),
                   "--max-degree", "2", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["betti"] == [4, 0, 0]
    assert report["config"]["command"] == "hh-ranks"


def test_hh_ranks_csv_embeds_config(tmp_path):
    out = tmp_path / "ranks.csv"
    code = run_cli("hh-ranks", "--group", str(fixture_path("z2.json")),
                   "--max-degree", "1", "--format", "csv", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("# config ")
    assert "degree,dim_chain_space" in text


def test_burghelea_check_passes(tmp_path):
    for name in ("z2.json", "z4.json", "s3.json"):
        code = run_cli("burghelea-check", "--group", str(fixture_path(name)),
                       "--max-degree", "1", "--out", str(tmp_path / "r.json"))
        assert code == 0


def test_burghelea_check_per_class(tmp_path):
    out = tmp_path / "cls.json"
    code = run_cli("burghelea-check", "--group", str(fixture_path("s3.json")),
                   "--max-degree", "1", "--class", "[0,2,1]", "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())["results"]
    assert rep["hochschild_component_betti"] == rep["bar_complex_betti"] == [1, 0]


def test_verify_identities_s3(tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli("verify-identities", "--group", str(fixture_path("s3.json")),
                   "--degree", "2", "--samples", "15", "--seed", "7",
                   "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["results"]["all_passed"] is True


def test_conjugator_cross_check_searches_within_the_radius(tmp_path):
    # the products are y^-1 a y with |y| <= 9; at seed 0 one of them has a
    # minimal conjugator of length 9, longer than any fixed window of 8
    out = tmp_path / "verify.json"
    code = run_cli("verify-identities", "--group", str(fixture_path("f2.json")),
                   "--class", "a", "--radius", "9", "--samples", "2", "--degree", "0",
                   "--out", str(out))
    assert code == 0
    [check] = [c for c in json.loads(out.read_text())["results"]["checks"]
               if c["identity_name"].endswith("minimal_conjugator == bfs find_conjugator")]
    assert check["failures"] == [] and check["samples"] == 2


@pytest.mark.parametrize("group, rep", [("f2.json", "aab"), ("f2.json", "abAB"),
                                        ("f2xz.json", "(aab; (1))")])
def test_verify_identities_on_long_cyclic_cores(group, rep):
    # free classes whose cyclic core has length >= 3: their conjugators come
    # from the rotation that makes the core canonical
    assert run_cli("verify-identities", "--group", str(fixture_path(group)),
                   "--class", rep, "--out", os.devnull) == 0


def test_retraction_leaving_the_centralizer_fails_its_cases(tmp_path, monkeypatch):
    # on s3 a retraction shifted by a generator leaves Z_h, and iota_h refuses
    # its value: that is a failed identity (exit 2) naming the case, not a
    # usage error
    retract = CosetSection.retract

    def shifted(self, g):
        return self.model.mul(self.model.generators[0], retract(self, g))

    monkeypatch.setattr(CosetSection, "retract", shifted)
    out = tmp_path / "verify.json"
    code = run_cli("verify-identities", "--group", str(fixture_path("s3.json")),
                   "--degree", "2", "--samples", "6", "--radius", "1", "--seed", "3",
                   "--out", str(out))
    assert code == 2
    [check] = [c for c in json.loads(out.read_text())["results"]["checks"]
               if c["identity_name"] == "[h=[0,2,1]] pi.iota == id" and c["degree"] == 0]
    assert check["failures"][0] == "([1,0,2]): entry [2,1,0] lies outside the centralizer"


def test_conj_bound_csv(tmp_path):
    out = tmp_path / "conj.csv"
    code = run_cli("conj-bound", "--group", str(fixture_path("f2.json")),
                   "--radius", "2", "--cap", "6", "--format", "csv",
                   "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "class_rep,length_h,min_conjugator_len,window_status"
    assert lines[-1].startswith("# ")  # fit trailer


def test_norm_profile(tmp_path):
    out = tmp_path / "norm.json"
    code = run_cli("norm-profile", "--group", str(fixture_path("z4.json")),
                   "--degree", "1", "--radius", "2", "--k-grid", "0..1",
                   "--samples", "4", "--seed", "3", "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())["results"]
    maps = {r["map"] for r in rep["rows"]}
    assert maps == {"pi_h", "iota_h", "psi_phi_inv", "phi_psi_inv", "homotopy"}
    assert any(r["metric"] == "intrinsic" for r in rep["rows"])


def test_dehn_cli(tmp_path):
    out = tmp_path / "dehn.csv"
    code = run_cli("dehn", "--complex", str(fixture_path("octahedron.json")),
                   "--degree", "1", "--k", "4", "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "k,dN_value,witness_id"
    values = [line.split(",")[1] for line in lines[2:]]
    # norm-3 boundaries are single face boundaries (fill = 1); the norm-4
    # equatorial cycles need a full hemisphere
    assert values == ["0", "0", "0", "1", "4"]


def _dehn_report(tmp_path, tag, *flags):
    out = tmp_path / f"dehn_{tag}.json"
    code = run_cli("dehn", "--complex", str(fixture_path("octahedron.json")),
                   "--degree", "1", *flags, "--out", str(out))
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("cap", ["0", "100"])
def test_dehn_cap_below_leaf_count_is_partial(tmp_path, cap):
    # --cap counts steps of the boundary walk: 13,823 at k = 7 on the octahedron
    first = _dehn_report(tmp_path, "a", "--k", "7", "--cap", cap)
    assert json.loads(first)["results"]["partial"] is True
    assert _dehn_report(tmp_path, "b", "--k", "7", "--cap", cap) == first


def test_dehn_k8_completes_under_default_cap(tmp_path):
    # the boundary walk takes 25,233 steps at k = 8, far under the default cap
    report = json.loads(_dehn_report(tmp_path, "k8", "--k", "8"))["results"]
    assert report["partial"] is False
    assert len(report["rows"]) == 9


def test_fill_cli(tmp_path):
    out = tmp_path / "fill.json"
    code = run_cli("fill", "--group", str(fixture_path("zz.json")),
                   "--degree", "1", "--radius", "2", "--k", "0",
                   "--k-grid", "0..1", "--samples", "4", "--seed", "2",
                   "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())["results"]
    assert rep["rows"]


def test_fill_past_the_space_cap_exits_one_before_any_matrix(monkeypatch, capsys):
    # degree 9 at radius 1 on Z^2: a 2,045 x 8,186 filling LP, about 479 MB
    # of tableau.  Under a 64 MB cap the truncation refuses before it builds
    # degree 9, from |B_8| = 1,021 rows and columns; under 400 MB the bases
    # pass and the exact tableau refuses.  Both come before the columns and
    # the diameters.
    for name in ("boundary_columns", "diameters"):
        monkeypatch.setattr(dehn_mod.BarTruncation, name,
                            lambda *args: pytest.fail("a matrix was built"))
    for cap, line in (
            ("64", "error: a lower bound, before degree 9 is built: "
                   "the filling LP, 1021 rows by 2042 columns, needs about 71.7 MB, "
                   "cap is 64 MB (set BURGHELEA_CAP_MB to override)\n"),
            ("400", "error: the filling LP, 2045 rows by 8186 columns, needs about 479.0 MB, "
                    "cap is 400 MB (set BURGHELEA_CAP_MB to override)\n")):
        monkeypatch.setenv("BURGHELEA_CAP_MB", cap)
        assert run_cli("fill", "--group", str(fixture_path("zz.json")),
                       "--radius", "1", "--degree", "9") == 1
        assert capsys.readouterr().err == line


def test_fill_past_the_space_cap_refuses_before_the_top_basis(monkeypatch, capsys):
    # F2 at radius 3: fill --degree 4 needs the degree-5 basis, about a
    # million tuples; the lower bound refuses while the bases are small
    built = []
    real_init = dehn_mod.BarTruncation.__init__

    def keeping(self, *args):
        built.append(self)
        real_init(self, *args)

    monkeypatch.setattr(dehn_mod.BarTruncation, "__init__", keeping)
    monkeypatch.setenv("BURGHELEA_CAP_MB", "64")
    assert run_cli("fill", "--group", str(fixture_path("f2.json")),
                   "--radius", "3", "--degree", "4") == 1
    assert capsys.readouterr().err.startswith("error: ")
    [trunc] = built
    assert sorted(trunc.bases) == [0, 1, 2, 3]


def test_usage_errors_exit_one():
    assert run_cli("hh-ranks") == 1  # missing --group
    assert run_cli("hh-ranks", "--group", "/nonexistent/x.json") == 1
    proc = run_subprocess("no-such-command")
    assert proc.returncode == 1
    assert "invalid choice" in proc.stderr
    proc = run_subprocess("hh-ranks", "--bogus-flag", "1")
    assert proc.returncode == 1
    assert "unrecognized arguments" in proc.stderr


# the flags every subcommand accepted before each took only its own
ALL_FLAGS = ("--group", "--complex", "--class", "--degree", "--max-degree", "--radius",
             "--k", "--k-grid", "--samples", "--seed", "--cap", "--out", "--format")
ACCEPTED = {
    "hh-ranks": {"--group", "--class", "--max-degree", "--format", "--out"},
    "burghelea-check": {"--group", "--class", "--max-degree", "--out"},
    "verify-identities": {"--group", "--class", "--degree", "--samples", "--seed",
                          "--radius", "--format", "--out"},
    "conj-bound": {"--group", "--radius", "--cap", "--format", "--out"},
    "norm-profile": {"--group", "--class", "--radius", "--degree", "--samples",
                     "--k-grid", "--seed", "--format", "--out"},
    "dehn": {"--complex", "--degree", "--k", "--cap", "--format", "--out"},
    "fill": {"--group", "--degree", "--radius", "--k", "--k-grid", "--samples", "--seed",
             "--format", "--out"},
}
FOREIGN = [(cmd, flag) for cmd, flags in ACCEPTED.items()
           for flag in ALL_FLAGS if flag not in flags]
FLAG_VALUES = {"--group": "z2.json", "--complex": "triangle.json", "--class": "0",
               "--k-grid": "0..1", "--format": "csv"}


def _input_argv(command):
    if command == "dehn":
        return [command, "--complex", str(fixture_path("triangle.json"))]
    return [command, "--group", str(fixture_path("z2.json"))]


@pytest.mark.parametrize("command,flag", FOREIGN)
def test_foreign_flag_exits_one(command, flag, capsys):
    value = FLAG_VALUES.get(flag, "1")
    if value.endswith(".json"):
        value = str(fixture_path(value))
    assert run_cli(*_input_argv(command), flag, value) == 1
    err = capsys.readouterr().err
    # the usage shown is the subcommand's, naming the flags it does take
    assert err.startswith(f"usage: burghelea {command} ")
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


# effective defaults each subcommand's --help must show
HELP_DEFAULTS = {
    "hh-ranks": {"--max-degree": "1", "--format": "json"},
    "burghelea-check": {"--max-degree": "1"},
    "verify-identities": {"--degree": "2", "--samples": "50", "--seed": "0",
                          "--radius": "2", "--format": "json"},
    "conj-bound": {"--radius": "3", "--cap": "2 * radius + 2", "--format": "json"},
    "norm-profile": {"--radius": "2", "--degree": "1", "--samples": "10",
                     "--k-grid": "0..2", "--seed": "0", "--format": "json"},
    "dehn": {"--degree": "1", "--k": "3", "--cap": "2000000", "--format": "json"},
    "fill": {"--degree": "1", "--radius": "2", "--k": "0", "--k-grid": "0..2",
             "--samples": "10", "--seed": "0", "--format": "json"},
}


@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_help_lists_own_flags_with_defaults(command, capsys):
    assert run_cli(command, "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == ACCEPTED[command] | {"--help"}
    for flag, default in HELP_DEFAULTS[command].items():
        assert re.search(rf"{flag} \S+ \(default: {re.escape(default)}\)", text), flag


def test_bad_k_grid_exits_one():
    assert run_cli("norm-profile", "--group", str(fixture_path("z4.json")),
                   "--k-grid", "oops") == 1


@pytest.mark.parametrize("command, group", [("fill", "f2.json"), ("norm-profile", "z4.json")])
def test_k_grid_past_the_cap_exits_one(command, group, capsys):
    # the grid is a list of every k in a..b: an upper bound of 10^12 was a
    # MemoryError traceback before the cap
    assert run_cli(command, "--group", str(fixture_path(group)),
                   "--k-grid", "0..1000000000000") == 1
    assert capsys.readouterr().err == "error: --k-grid upper bound 1000000000000 is above 1000\n"
    assert cli._parse_k_grid(f"{cli.K_GRID_MAX}..{cli.K_GRID_MAX}") == [cli.K_GRID_MAX]


@pytest.mark.parametrize("argv", [
    # a fill norm (1 + |g|)^k past the int-to-string digit limit was a
    # ValueError traceback, and a dehn table grew by one row per unit of k
    ("fill", "--group", "f2.json", "--k", "14500"),
    ("dehn", "--complex", "octahedron.json", "--cap", "1000", "--k", "100000000"),
])
def test_k_past_the_cap_exits_one(argv, capsys):
    argv = [str(fixture_path(a)) if a.endswith(".json") else a for a in argv]
    k = argv[argv.index("--k") + 1]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: --k {k} is above {cli.K_GRID_MAX}\n"
    assert cli._FLAGS["--k"]["type"](str(cli.K_GRID_MAX)) == cli.K_GRID_MAX


def test_norm_profile_ratio_past_the_float_range_exits_one(capsys):
    # (1+|g|)^500 ratios have exact values but no float
    assert run_cli("norm-profile", "--group", str(fixture_path("z4.json")),
                   "--k-grid", "500..500", "--samples", "2") == 1
    assert capsys.readouterr().err == (
        "error: phi_psi_inv (induced) at h = e, k = 500, k' = 500: "
        "the max ratio passes the float range\n")


@pytest.mark.parametrize("argv", [
    ("conj-bound", "--group", "f2.json", "--radius", "-1"),
    ("fill", "--group", "zz.json", "--k", "-1"),
    ("verify-identities", "--group", "z4.json", "--samples", "-3"),
    ("dehn", "--complex", "triangle.json", "--cap", "-5"),
    ("hh-ranks", "--group", "z2.json", "--max-degree", "-1"),
    ("norm-profile", "--group", "z4.json", "--k-grid=-1..1"),
    ("fill", "--group", "zz.json", "--k-grid=-1..0"),
])
def test_negative_numeric_flags_exit_one(argv, capsys):
    argv = [str(fixture_path(a)) if a.endswith(".json") else a for a in argv]
    assert run_cli(*argv) == 1
    assert "error:" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"det_{tag}.json"
        code = run_cli("verify-identities", "--group", str(fixture_path("z4.json")),
                       "--degree", "1", "--samples", "10", "--seed", "11",
                       "--out", str(out))
        assert code == 0
        pairs.append(out.read_bytes())
    assert pairs[0] == pairs[1]


def test_seed_changes_sampling(tmp_path):
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"norm_{seed}.csv"
        run_cli("norm-profile", "--group", str(fixture_path("f2.json")),
                "--degree", "1", "--radius", "2", "--k-grid", "1..1",
                "--samples", "3", "--seed", seed, "--format", "csv",
                "--out", str(out))
        outs.append(out.read_text())
    # configs differ, so bytes must differ (the embedded config records the seed)
    assert outs[0] != outs[1]


def test_invalid_cap_exits_one(monkeypatch, capsys):
    monkeypatch.setenv("BURGHELEA_CAP_MB", "abc")
    assert run_cli("hh-ranks", "--group", str(fixture_path("z4.json"))) == 1
    err = capsys.readouterr().err
    assert "BURGHELEA_CAP_MB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["hh-ranks", "verify-identities"])
def test_class_outside_group_exits_one(command, capsys):
    # (1,0,2,3) is a permutation of the right degree but not a symmetry of the square
    assert run_cli(command, "--group", str(fixture_path("d4.json")),
                   "--class", "[1,0,2,3]") == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{"])
@pytest.mark.parametrize("argv", [("hh-ranks", "--group"), ("dehn", "--complex")])
def test_invalid_json_file_exits_one(argv, content, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run_cli(*argv, str(bad)) == 1
    err = capsys.readouterr().err
    assert "not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("obj", MALFORMED_COMPLEXES)
def test_malformed_complex_file_exits_one(obj, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run_cli("dehn", "--complex", str(bad)) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def _nested_products(levels):
    descriptor = {"type": "free_abelian", "rank": 1}
    for _ in range(levels):
        descriptor = {"type": "product", "factors": [descriptor]}
    return json.dumps(descriptor)


@pytest.mark.parametrize("content", [_nested_products(400), "[" * 100_000],
                         ids=["400-nested-products", "100000-brackets"])
def test_deeply_nested_group_file_exits_one(content, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(content)
    proc = run_subprocess("hh-ranks", "--group", str(deep))
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    (command, "--group", "f2.json", "--radius", "20000")
    for command in ("conj-bound", "fill", "verify-identities", "norm-profile")
] + [("hh-ranks", "--group", "d4.json", "--max-degree", "10000"),
     ("burghelea-check", "--group", "s3.json", "--max-degree", "10000")],
    ids=lambda argv: argv[0])
def test_huge_size_flag_exits_one(argv, tmp_path):
    # the ball or chain spaces these ask for have sizes of thousands of
    # digits: the cap stops counting before it formats one
    command, flag, group, *rest = argv
    proc = run_subprocess(command, flag, str(fixture_path(group)), *rest,
                          "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr) < 200


def _is_nonnegative_int(text):
    try:
        return int(text) >= 0
    except ValueError:
        return False


def _valid_k_grid(spec):
    parts = spec.split("..")
    return (len(parts) == 2 and all(map(_is_nonnegative_int, parts))
            and int(parts[0]) <= int(parts[1]))


# negatives, floats, text and empty strings: none of them parses as a
# nonnegative integer, so no run gets past its argument checks
_not_nonnegative_int = (
    st.integers(max_value=-1).map(str)
    | st.floats().map(str)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
).filter(lambda s: not s.isdecimal() and not _is_nonnegative_int(s))
_k_grids = (_not_nonnegative_int
            | st.builds("{}..{}".format, _not_nonnegative_int, st.integers(0, 3))
            | st.builds("{}..{}".format, st.integers(0, 3), _not_nonnegative_int)
            ).filter(lambda s: not _valid_k_grid(s))
# each numeric flag goes to a subcommand that takes it
_NUMERIC_FLAGS = {"--degree": "verify-identities", "--max-degree": "hh-ranks",
                  "--radius": "norm-profile", "--k": "fill", "--samples": "norm-profile",
                  "--cap": "dehn"}


@settings(max_examples=100)
@given(st.sampled_from(sorted(_NUMERIC_FLAGS)).flatmap(
           lambda flag: st.tuples(st.just(flag), _not_nonnegative_int))
       | st.tuples(st.just("--k-grid"), _k_grids))
def test_invalid_numeric_flag_values_exit_one(flag_value):
    # argparse checks the integer flags; norm-profile parses --k-grid before
    # it computes anything
    flag, value = flag_value
    command = _NUMERIC_FLAGS.get(flag, "norm-profile")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(*_input_argv(command), f"{flag}={value}")
    assert code == 1
    assert "error:" in err.getvalue()
    assert "unrecognized arguments" not in err.getvalue()
    assert "Traceback" not in err.getvalue()
