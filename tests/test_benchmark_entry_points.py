"""The benchmark reaches into the program by name: ``perfbench/tracer.py``
wraps each layer's entry points and ``perfbench/setup_probe.py`` loads a
group through ``burghelea.WordMetric``.  A refactor that moves or renames one
of them, or renames an argument the tracer reads, breaks
``perfbench/run.py --trace 1`` or the set-up probe, so these tests check the
names without running the benchmark."""
import importlib.util
import inspect
from pathlib import Path

import burghelea
import burghelea.lp

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
