"""Pinned CLI reports: the behaviour contract as fixed values.

One quick config per subcommand (two where a subcommand has two code paths)
runs through the CLI, and the sha256 of its report's ``results`` object,
serialized with sorted keys and compact separators, must equal the pinned
digest.  The sha256 of the whole report file, embedded config included, is
pinned too; those runs name the fixture files relative to the fixture
directory, so the config does not depend on where the checkout lives.  A change
that is meant to alter a report updates its pins here and says why.
"""
import hashlib
import json

import pytest

from burghelea.chains import Chain
from burghelea.cli import main
from burghelea.metric import CosetSection

from conftest import FIXTURES, fixture_path

PINNED = {
    "hh-ranks": (
        ["hh-ranks", "--group", "z4.json", "--max-degree", "2"],
        "f58876d4c1c259f4688cc63511946b642dad860e3ab83314daa3917cb0d63430"),
    "hh-ranks-class": (
        ["hh-ranks", "--group", "d4.json", "--max-degree", "2", "--class", "[1,2,3,0]"],
        "5016ef5393c297f6b3345e5b3f4668d8fbc20c7e1c64ddcc0ce7771ccfca575e"),
    # every class of d4 past degree 2: the orbit complexes of all five
    "hh-ranks-d4": (
        ["hh-ranks", "--group", "d4.json", "--max-degree", "4"],
        "4f1af3f18602be795d68824ca56d795500a6effd16f7012d57978cc25f594ea1"),
    "burghelea-check": (
        ["burghelea-check", "--group", "s3.json", "--max-degree", "1"],
        "3af28576fecf7fca4598d934ca4f18e62ae07e430f6307ac879b66cb88e18aab"),
    "burghelea-check-class": (
        ["burghelea-check", "--group", "s3.json", "--max-degree", "1", "--class", "[0,2,1]"],
        "9424dd1e7caf036f93a482351f0506d4f225d8b22e6d4612d092e49c9ede3919"),
    "verify-identities": (
        ["verify-identities", "--group", "s3.json", "--degree", "2", "--samples", "15",
         "--seed", "7"],
        "f5a5d202823cc3c37153489166f51953937cb860a099d142bcf4da65df8a2521"),
    # a product group: the infinite kinds' coset sections and the chain maps
    "verify-identities-f2xz": (
        ["verify-identities", "--group", "f2xz.json", "--degree", "2", "--samples", "10",
         "--radius", "1"],
        "52368711127056a74845ca2d2e9402b4e74b257714817f01b91e2ac5bcb45879"),
    "conj-bound": (
        ["conj-bound", "--group", "f2.json", "--radius", "2", "--cap", "6"],
        "d7197b6464a8f32bc661b4c6baee7421a45f720283fde73610848fc189dcca7c"),
    # a zero window: the four non-trivial conjugates of length 2 exhaust it
    "conj-bound-cap0": (
        ["conj-bound", "--group", "f2.json", "--radius", "2", "--cap", "0"],
        "ec51a607aff6849b7864d67cd92f311953c30ff6b4f3184a727d210964216957"),
    # the growth fits add floats with math.fsum, so the norm-profile digests
    # are the same on every Python version
    "norm-profile": (
        ["norm-profile", "--group", "z4.json", "--degree", "1", "--radius", "2",
         "--k-grid", "0..1", "--samples", "4", "--seed", "3"],
        "f27c4f8f6531a353717fbf593235e634688e4cfe5388e6ec61c29ff85f2696c0"),
    "norm-profile-f2": (
        ["norm-profile", "--group", "f2.json", "--degree", "1", "--radius", "2",
         "--k-grid", "1..1", "--samples", "3", "--seed", "1"],
        "542cd31659cd8cff2190ed5071cb02e154a4edc2c5d19c4078762f99d0593aab"),
    "norm-profile-f2xz": (
        ["norm-profile", "--group", "f2xz.json"],
        "505e43af982968b9a529ab71cd65ad70fff3df9f63332bc75be525f0d59a64a6"),
    "dehn": (
        ["dehn", "--complex", "octahedron.json", "--degree", "1", "--k", "4"],
        "ca368e2cf0b7b4d6af65f4e10da57c74d9efaa1558fdf8cdc1dcc383b58b7113"),
    "fill": (
        ["fill", "--group", "zz.json", "--degree", "1", "--radius", "2", "--k", "0",
         "--k-grid", "0..1", "--samples", "4", "--seed", "2"],
        "dadbbcf0894079a6d1863535abf5040a07d2886b2dd2ad89eb8383d073f579be"),
    # the largest LP config: one 25 x 698 weighted filling LP per sample
    "fill-zz-r3": (
        ["fill", "--group", "zz.json", "--radius", "3"],
        "eb8bb4451247fd12ce34d4eeafc35b766176c1f31eccc57b991a374571aafc43"),
    # the weighted objective and norms past k = 0: k = 1 over the p grid
    # 0..2, then a degree-2 truncation at k = 2
    "fill-f2-k1": (
        ["fill", "--group", "f2.json", "--radius", "2", "--k", "1", "--k-grid", "0..2"],
        "95be5ec57398a2cf62893e942b91e4086d9cd756597a9d002fe120c22bf086ec"),
    "fill-f2-degree2-k2": (
        ["fill", "--group", "f2.json", "--radius", "2", "--degree", "2", "--k", "2"],
        "158f190c8e4c285602937e598943b902391497b9a3d9a4757a1615ddcf683e93"),
    # degree 0: every boundary column is zero, so every row is zero_boundary
    "fill-f2-degree0": (
        ["fill", "--group", "f2.json", "--radius", "2", "--degree", "0"],
        "dbde0e03f737c6a21b030ca83ba927090e63261b3330c53b0f14e4374a87a26b"),
    # larger filling LPs: f2 at radius 3, and a product group at radius 3
    "fill-f2-r3": (
        ["fill", "--group", "f2.json", "--radius", "3"],
        "819af3ba2886e21b8f9cff0d903c6bacd560317893e9ad1ce13a6cf0e310f065"),
    "fill-f2xz-r3": (
        ["fill", "--group", "f2xz.json", "--radius", "3"],
        "4223722c71a383c499a0ae2992c950162c1566b4a76cab39bbb2309cfbeddb87"),
}

FILE_PINNED = {
    "burghelea-check":
        "9f782c5b325eef4b29cdfdce8974f5e9db6f819a3b12b498b667ced7439c3ad8",
    "burghelea-check-class":
        "5468a23696876d0db715cbe2cfd4eb29fde72e471f170e33ca7638e7cfb1c3c3",
    "conj-bound":
        "e72873ed26f83c565ba6b1841a45a8946cf4f2d51df1266855f07da2cd4893b6",
    "dehn":
        "129ee18118462162d975fd592703c3c725793ea001d5360e1270506bb2ca5918",
    "fill":
        "5bae4342bb9b2800278a5c09c960b9211fb7c842fe21b816bede6b2b21437868",
    "hh-ranks":
        "d9102b9938587c66f447beebf409d468498133a6cb7a70d347d65784504bd756",
    "hh-ranks-class":
        "3a5742f98786f7d3f5faef63a88575a8a124f60ee35b82e90645b282425a5b11",
    "hh-ranks-d4":
        "913a7c603a71feea87fe82146d0cdc471f3dcc084cb6feabde5a59a76aa5c5bf",
    "norm-profile":
        "7421ca38531e332b52b7a3107f6e449430b7f5116602d7f4640c1f96837b63ea",
    "norm-profile-f2":
        "9ecbbb17671a96b79b9d4e73f56ec57b6251211b70a86c3617148e65acc66898",
    "norm-profile-f2xz":
        "5d0cd4f7b584ac7b62fe6724737e69ffaa20b0f149d40d1ae80908f73904f888",
    "verify-identities":
        "7d5ab38fcbd4d0bae62f31b4516728d1cd7bc1ef9477d35d1f85a284cae18cdf",
    "verify-identities-f2xz":
        "cb8a3e4f4425cae1bc585f1f02c569d4e013d3b96ccb631eaf2287c2d95da111",
}


def results_sha256(text: str) -> str:
    results = json.loads(text)["results"]
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_matches_pin(name, tmp_path):
    argv, digest = PINNED[name]
    # input flags name a fixture file
    argv = [str(fixture_path(a)) if prev in ("--group", "--complex") else a
            for prev, a in zip([None] + argv, argv)]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert results_sha256(out.read_text(encoding="utf-8")) == digest


@pytest.mark.parametrize("name", sorted(FILE_PINNED))
def test_report_file_matches_pin(name, tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    out = tmp_path / "report.json"
    assert main(PINNED[name][0] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FILE_PINNED[name]


# Sabotaged runs: with chain equality always false, every chain identity fails
# on every drawn case, so the report lists each case in the order it was
# drawn and the digest pins that order.  On f2xz the retraction is also made
# wrong (its value is multiplied on the left by a generator), which pins the
# failure texts of the metric checks.  s3 keeps its retraction, so its digest
# pins the drawn cases of the chain checks alone: a wrong retraction leaves Z_h
# there, iota_h refuses its value, and each refusal is a failure text of its
# own (``test_cli.test_retraction_leaving_the_centralizer_fails_its_cases``).
SABOTAGED = {
    "f2xz": (True, "68df2779b31bf346b1b64b3b8fcbc08496d6abd3bb28a02b9d47fa5fea2101d3"),
    "s3": (False, "a298062ab20860c3e0e46ae7813c01a05dbdf01a798fe32251b73f81447ff8a8"),
}


@pytest.mark.parametrize("group", sorted(SABOTAGED))
def test_sabotaged_report_pins_the_drawn_cases(group, tmp_path, monkeypatch):
    wrong_retract, digest = SABOTAGED[group]
    monkeypatch.setattr(Chain, "__eq__", lambda self, other: False)
    if wrong_retract:
        retract = CosetSection.retract

        def shifted(self, g):
            return self.model.mul(self.model.generators[0], retract(self, g))

        monkeypatch.setattr(CosetSection, "retract", shifted)
    out = tmp_path / "report.json"
    argv = ["verify-identities", "--group", str(fixture_path(f"{group}.json")),
            "--degree", "2", "--samples", "6", "--radius", "1", "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 2
    assert results_sha256(out.read_text(encoding="utf-8")) == digest
