"""check_draws, which evaluates each distinct drawn case once, against
check_identity, which evaluates every case as given and stays the reference:
equal report entries on one list of draws, and equal identity reports when
every sampled check runs on the reference instead."""
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from burghelea import GroupMismatchError, verify
from burghelea.chains import Chain
from burghelea.groups import InternedModel
from burghelea.metric import CosetSection
from burghelea.verify import check_draws, check_identity, run_identity_suite

from conftest import load_model

POOL = range(5)
OUTCOMES = st.lists(st.sampled_from(["holds", "fails", "raises"]),
                    min_size=len(POOL), max_size=len(POOL))


def _side(outcomes, calls):
    """A side whose outcome on each case of the pool is given, counting its
    calls per case."""
    def holds(case):
        calls[case] += 1
        if outcomes[case] == "raises":
            raise GroupMismatchError(f"case {case} left the domain")
        return outcomes[case] == "holds"
    return holds


@given(draws=st.lists(st.sampled_from(POOL), max_size=25), first=OUTCOMES, second=OUTCOMES)
def test_check_draws_is_check_identity_on_the_draws(draws, first, second):
    calls, reference_calls = Counter(), Counter()

    def entry(check, counts):
        return check("id", 1, draws, lambda case: f"<{case}>",
                     ("", _side(first, counts)), ("round trip: ", _side(second, Counter())))

    got = entry(check_draws, calls)
    assert got == entry(check_identity, reference_calls)
    assert got["samples"] == len(draws)
    # each distinct case is evaluated once, however often it was drawn
    assert calls == Counter(set(draws))
    assert reference_calls == Counter(draws)


# each fixture group at its default classes, and a non-central class of each
# realization an explicit class reaches: cyclic, product and finite_list
RUNS = [(name, None) for name in ("z2.json", "z4.json", "s3.json", "d4.json", "f2.json",
                                  "zz.json", "f2xz.json")] + [
    ("f2.json", "aab"), ("f2xz.json", "(aab; (1))"), ("s3.json", "[1,0,2]"),
    ("d4.json", "[1,2,3,0]")]


def _report(name, rep):
    """The identity report of one run, on a fresh interned model as the CLI
    builds it; the sizes make every degree-0 C' check draw () repeatedly."""
    model = InternedModel(load_model(name))
    h = model.parse_element(rep) if rep else None
    return run_identity_suite(model, h, max_degree=2, samples=8, seed=3, radius=1)


@pytest.fixture
def draws(monkeypatch):
    """The drawn cases of every check_draws call of a run."""
    calls = []

    def recording(name, degree, cases, text, *sides):
        calls.append(cases)
        return check_draws(name, degree, cases, text, *sides)

    monkeypatch.setattr(verify, "check_draws", recording)
    return calls


@pytest.mark.parametrize("name, rep", RUNS)
def test_identity_reports_match_the_reference(name, rep, draws, monkeypatch):
    got = _report(name, rep)
    assert any(len(set(cases)) < len(cases) for cases in draws)
    monkeypatch.setattr(verify, "check_draws", check_identity)
    assert _report(name, rep) == got
    assert got["all_passed"]


def test_sabotaged_reports_match_the_reference(monkeypatch):
    # as in test_reports_pinned: every chain identity fails on every draw, and
    # the f2xz retraction is made wrong, so repeated draws repeat failures
    monkeypatch.setattr(Chain, "__eq__", lambda self, other: False)
    retract = CosetSection.retract
    monkeypatch.setattr(CosetSection, "retract",
                        lambda self, g: self.model.mul(self.model.generators[0], retract(self, g)))
    got = _report("f2xz.json", None)
    assert any(len(set(check["failures"])) < len(check["failures"]) for check in got["checks"])
    monkeypatch.setattr(verify, "check_draws", check_identity)
    assert _report("f2xz.json", None) == got
