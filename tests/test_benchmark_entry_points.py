"""The benchmark reaches into the program by name: ``perfbench/tracer.py``
wraps each layer's entry points and ``perfbench/setup_probe.py`` loads a
group through ``burghelea.WordMetric``.  A refactor that moves or renames one
of them, or renames an argument the tracer reads, breaks
``perfbench/run.py --trace 1`` or the set-up probe, so these tests check the
names without running the benchmark."""
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burghelea
import burghelea.lp
from burghelea import cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_are_defined_on_their_owners():
    targets = load_tracer().targets()
    assert targets
    # the tracer reads vars(owner)[attr] when it installs, so a name that is
    # only inherited or was moved elsewhere stops it
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert missing == []


def test_setup_probe_entry_points_exist():
    assert callable(burghelea.WordMetric)
    assert callable(burghelea.parse_group)
    assert callable(burghelea.SimplicialComplex.from_obj)


def test_lp_shape_reads_c_and_a_by_position_and_name():
    # tracer._lp_shape counts LP rows and columns off solve_min_lp's
    # arguments 0 ("c") and 1 ("A")
    params = list(inspect.signature(burghelea.lp.solve_min_lp).parameters)
    assert params[:2] == ["c", "A"]


@pytest.mark.parametrize("argv, rows, cols", [
    (["dehn", "--complex", "tests/fixtures/octahedron.json", "--degree", "1", "--k", "3"],
     12, 16),
    (["fill", "--group", "tests/fixtures/zz.json", "--radius", "1"], 5, 26),
], ids=["dehn-octahedron", "fill-zz"])
def test_traced_run_sees_one_lp(argv, rows, cols, capsys, monkeypatch):
    # every LP of a run shares one matrix and is one solve_min_lp call, which
    # the tracer times as the lp.solve span and sizes by len(A) and len(c):
    # the octahedron's 12 edges by 2 x 8 faces, Z^2's 5 radius-1 tuples by
    # 2 x 13 pairs; tracing leaves the report as is
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(TRACER), *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    traced = json.loads(out.stdout)
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    assert traced["exit"] == 0
    assert traced["report"] == capsys.readouterr().out
    assert traced["spans"]["lp.solve"]["calls"] == 1
    assert (traced["spans"]["lp.solve"]["rows"], traced["spans"]["lp.solve"]["cols"]) == (rows, cols)
