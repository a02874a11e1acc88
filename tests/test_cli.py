import json
import subprocess
import sys
from pathlib import Path

import pytest

from burghelea.cli import main

from conftest import fixture_path


def run_cli(*argv):
    return main(list(argv))


def run_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "burghelea.cli", *argv],
                          capture_output=True, text=True)


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


def test_fill_cli(tmp_path):
    out = tmp_path / "fill.json"
    code = run_cli("fill", "--group", str(fixture_path("zz.json")),
                   "--degree", "1", "--radius", "2", "--k", "0",
                   "--k-grid", "0..1", "--samples", "4", "--seed", "2",
                   "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())["results"]
    assert rep["rows"]


def test_usage_errors_exit_one():
    assert run_cli("hh-ranks") == 1  # missing --group
    assert run_cli("hh-ranks", "--group", "/nonexistent/x.json") == 1
    proc = run_subprocess("no-such-command")
    assert proc.returncode == 1
    proc = run_subprocess("hh-ranks", "--bogus-flag", "1")
    assert proc.returncode == 1


def test_bad_k_grid_exits_one():
    assert run_cli("norm-profile", "--group", str(fixture_path("z4.json")),
                   "--k-grid", "oops") == 1


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
