"""The API rule: a model carries its word metric (``model.metric``) and a
coset section carries its model, h and conjugators, so no signature takes a
WordMetric, none takes a model beside a section, and only pi_h takes a
conjugator map (to check that its output does not depend on the choice).
Switches and single-value knobs that were removed stay removed, and only the
edge of the chain maps checks a chain's entries."""
import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import pytest

import burghelea
from burghelea import metric, verify
from burghelea.cli import main
from burghelea.groups import GroupModel
from burghelea.metric import CosetSection, WordMetric
from conftest import fixture_path


def _callables():
    """(qualified name, function) for every function and method defined in
    the package's modules."""
    for info in pkgutil.iter_modules(burghelea.__path__):
        module = importlib.import_module(f"burghelea.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{attr}", fn


def _kinds() -> list[type]:
    """Every subclass of GroupModel, at any depth."""
    kinds, stack = [], list(GroupModel.__subclasses__())
    while stack:
        cls = stack.pop()
        kinds.append(cls)
        stack.extend(cls.__subclasses__())
    return kinds


def _classes(hint) -> set:
    """The classes a type hint names, through Optional, unions and generics."""
    if isinstance(hint, type):
        return {hint}
    return set().union(*map(_classes, typing.get_args(hint)))


def _parameter_classes(fn) -> set:
    """The classes named by the hints of fn's parameters (not its return)."""
    hints = typing.get_type_hints(fn)
    return set().union(*(_classes(hints[p]) for p in inspect.signature(fn).parameters
                         if p in hints))


def test_no_signature_takes_a_metric_or_a_model_beside_a_section():
    found = dict(_callables())
    assert "burghelea.hochschild.pi_h" in found and len(found) > 100
    offenders = []
    for name, fn in found.items():
        classes = _parameter_classes(fn)

        def takes(cls):
            return any(issubclass(c, cls) for c in classes)

        if takes(WordMetric) or (takes(GroupModel) and takes(CosetSection)):
            offenders.append(name)
    assert offenders == []


def test_only_pi_h_takes_a_conjugator():
    takers = [name for name, fn in _callables()
              if "conjugator" in inspect.signature(fn).parameters]
    assert takers == ["burghelea.hochschild.pi_h"]


def test_no_removed_switch_or_knob_returns():
    # every LP optimum is certified; the order cap, the ball cap and the fill
    # report's ratio bound are module constants; norm-profile runs every entry
    # of norms.PROFILES in one call
    banned = {"check_duality", "max_order", "ratio_bound", "ball_cap", "map_id",
              "metric_variant"}
    takers = [name for name, fn in _callables()
              if banned & set(inspect.signature(fn).parameters)]
    assert takers == []


def test_each_kind_with_a_kernel_defines_its_checked_law():
    # perfbench/tracer.py times the group law by wrapping mul, inv and
    # check_element where a class body defines them, so a kind whose kernel
    # (_mul/_inv) is its own defines its public law beside it
    law = {"mul", "inv", "check_element", "_mul", "_inv"}
    assert not law & set(vars(GroupModel))
    with_kernel = {cls.__name__ for cls in _kinds() if "_mul" in vars(cls)}
    assert with_kernel == {"FiniteGroup", "FreeGroup", "FreeAbelianGroup", "ProductGroup",
                           "InternedModel"}
    for cls in _kinds():
        if "_mul" in vars(cls):
            assert law <= set(vars(cls)), cls.__name__


def test_only_a_product_overrides_the_conjugator_search():
    # class_rep is exact for every kind, so GroupModel.search_conjugator
    # decides conjugacy for all of them; a product only splits the search
    assert "search_conjugator" in vars(GroupModel)
    overriding = {cls.__name__ for cls in _kinds() if "search_conjugator" in vars(cls)}
    assert overriding == {"ProductGroup"}


def _check_chain_callers(source: str) -> set[str]:
    """The functions, by qualified name within the module, whose own bodies
    call check_chain."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", None) == "check_chain" or getattr(f, "attr", None) == "check_chain":
                    callers.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return callers


def test_the_scan_sees_a_check_chain_call():
    assert _check_chain_callers(
        "def f(m, c):\n    check_chain(m, c)\nclass K:\n    def g(self):\n"
        "        def inner():\n            chains.check_chain(1, 2)\n") == {"f", "K.g.inner"}


def test_only_the_edge_and_two_maps_call_check_chain():
    # every chain map of one kind checks its input inside linear_extend;
    # iota_h takes either kind and split_by_class returns a dict, so they
    # check their input themselves
    package = Path(burghelea.__file__).parent
    callers = {f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
               if path.name != "chains.py"
               for name in _check_chain_callers(path.read_text(encoding="utf-8"))}
    assert callers == {"hochschild.split_by_class", "hochschild.iota_h"}


@pytest.mark.parametrize("suite", ["chain_map_suite", "well_definedness_suite", "metric_suite",
                                   "conjugator_cross_check", "verify_homotopy_square",
                                   "theta_h", "phi_g", "iota_h"])
def test_each_identity_suite_takes_a_section_and_no_model(suite):
    # the suites, and the maps on one class component that they check (as
    # verify imports them): coset_section has checked h, so no map re-checks it
    classes = _parameter_classes(getattr(verify, suite))
    assert CosetSection in classes
    assert not any(issubclass(c, GroupModel) for c in classes)


@pytest.fixture
def section_calls(monkeypatch):
    """The h of every coset section built; every module that builds sections
    does it through coset_section."""
    build, calls = metric.coset_section, []

    def counting(model, h):
        calls.append(h)
        return build(model, h)

    for info in pkgutil.iter_modules(burghelea.__path__):
        module = importlib.import_module(f"burghelea.{info.name}")
        if hasattr(module, "coset_section"):
            monkeypatch.setattr(module, "coset_section", counting)
    return calls


def test_an_identity_run_builds_one_section_per_class(f2xz, section_calls):
    # the count does not depend on the sizes, so they are small here
    report = verify.run_identity_suite(f2xz, None, max_degree=1, samples=3, seed=0, radius=1)
    assert report["all_passed"]
    assert section_calls == verify.default_class_reps(f2xz) and len(section_calls) == 3


def test_a_norm_profile_run_builds_one_section_per_class(section_calls, tmp_path):
    # at the defaults on f2xz: four classes, each shared by the seven profiles
    out = tmp_path / "norm.json"
    assert main(["norm-profile", "--group", str(fixture_path("f2xz.json")),
                 "--out", str(out)]) == 0
    assert len(section_calls) == len(set(section_calls)) == 4
