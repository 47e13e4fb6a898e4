import copy
import functools
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import random
import signal
import sys
import time

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rings import _draw_finite_ring

from steinberg import cli, fp
from steinberg import suites as S
from steinberg import words as W
from steinberg.matrices import Inconclusive
from steinberg.rings import FINITE_MAX_SIZE, FGIdeal, localization, make_ring
from steinberg.roots import build_system
from steinberg.suites import (
    SUITES,
    CheckRecord,
    SuiteConfig,
    VerificationReport,
    run_suite,
)
from steinberg.vdk import FSymbol, SSymbol, linear_system


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(suite="nope"))


def test_report_byte_reproducibility():
    cfg = SuiteConfig(suite="psi-s-relations", seed=7)
    r1 = run_suite(cfg)
    r2 = run_suite(SuiteConfig(suite="psi-s-relations", seed=7))
    assert r1.to_json() == r2.to_json()
    assert r1.verdict == "pass"


def test_seed_changes_config_not_exhaustive_results():
    r1 = run_suite(SuiteConfig(suite="amalgam", seed=1))
    r2 = run_suite(SuiteConfig(suite="amalgam", seed=2))
    assert r1.verdict == r2.verdict == "pass"
    assert json.loads(r1.to_json())["checks"] == json.loads(r2.to_json())["checks"]


def test_verdicts():
    ok = VerificationReport(
        suite="x", config={}, checks=[CheckRecord(name="a", tier="matrix", instances=1)]
    )
    assert ok.verdict == "pass"
    bad = VerificationReport(
        suite="x",
        config={},
        checks=[CheckRecord(name="a", tier="matrix", instances=1, failures=[{"w": 1}])],
    )
    assert bad.verdict == "fail"
    unk = VerificationReport(
        suite="x",
        config={},
        checks=[CheckRecord(name="a", tier="matrix", instances=0, inconclusive=1)],
    )
    assert unk.verdict == "inconclusive"
    both = VerificationReport(
        suite="x",
        config={},
        checks=[CheckRecord(name="a", tier="matrix", instances=1, failures=[{"w": 1}], inconclusive=1)],
    )
    # a cap reads as inconclusive in the text report, never as a failure
    for report, status in ((ok, "ok"), (bad, "FAIL"), (unk, "inconclusive"), (both, "FAIL")):
        assert report.to_text().splitlines()[1].startswith(f"  [{status}] a (tier=matrix, ")


def test_injected_failure_gives_nonzero_exit(tmp_path, monkeypatch):
    def broken_suite(config):
        rec = CheckRecord(name="forced", tier="matrix", instances=1)
        rec.fail(relator="injected", reason="fault injection")
        return [rec]

    monkeypatch.setitem(SUITES, "injected", (broken_suite, 0, 0, False, None))
    out = tmp_path / "report.json"
    code = cli.main(["--suite", "injected", "--out", str(out), "--format", "json"])
    assert code == 1
    blob = json.loads(out.read_text())
    assert blob["verdict"] == "fail"
    assert blob["checks"][0]["failures"][0]["relator"] == "injected"


def test_vacuous_sampling_warns(tmp_path):
    cfg = SuiteConfig(suite="tmap-diagram", samples=0)
    rep = run_suite(cfg)
    assert rep.warnings
    sampled = [c for c in rep.checks if c.name == "tmap-semi(z,2)-sampled"]
    assert sampled[0].instances == 0
    assert rep.verdict == "pass"


def test_emit_report_files():
    rep = run_suite(SuiteConfig(suite="amalgam"))
    assert json.loads(rep.to_json())["suite"] == "amalgam"
    assert "wall" not in rep.to_json()
    assert "amalgam" in rep.to_text()


def test_cli_config_document(tmp_path):
    doc = {"suites": [{"suite": "amalgam"}, {"suite": "tmap-diagram", "samples": 10}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = cli.main(["--config", str(cfg_path), "--out", str(out), "--format", "json"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[0])["suite"] == "amalgam"


def test_cli_flag_overrides():
    code = cli.main(["--suite", "k2-exact", "--system", "A2", "--ring", "f2"])
    assert code == 0


@pytest.mark.parametrize(
    "cfg, reason",
    [
        (SuiteConfig(suite="chevalley-relations", systems=("A3",), rings=("z",)), "is infinite"),
        (SuiteConfig(suite="k2-exact", systems=("A2",), rings=("z",)), "z is infinite"),
        (SuiteConfig(suite="relative-generation", systems=("A2",), rings=("z/4",), ideal="[2]"),
         "is not a splitting ideal"),
        (SuiteConfig(suite="chevalley-relations", systems=("E6",), rings=("z/2",)),
         "no matrix realization"),
        (SuiteConfig(suite="k2-exact", systems=("E6",), rings=("f2",), max_cosets=1000),
         "no matrix realization"),
        # 552 * 255^2 instances
        (SuiteConfig(suite="chevalley-relations", systems=("D4",), rings=("z/256",)),
         "past CHEVALLEY_CAP"),
        (SuiteConfig(suite="relative-generation", systems=("A2",), rings=("poly(f2,X)",)),
         "quotient of poly(f2,X) is not supported"),
    ],
)
def test_unsupported_input_is_an_inconclusive_verdict(cfg, reason):
    rep = run_suite(cfg)
    assert rep.verdict == "inconclusive"
    for check in json.loads(rep.to_json())["checks"]:
        assert check["inconclusive"] == 1 and not check["failures"]
        assert reason in check["info"]["reason"]


def test_the_text_report_names_why_a_check_is_inconclusive(capsys):
    assert cli.main(["--suite", "relative-generation", "--system", "E6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("  [inconclusive] relative-generation-E6-"))
    assert lines[at + 1] == "      reason: no matrix realization for family E"


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_suites_that_read_a_ring_give_a_verdict_over_finite_rings(data):
    # small caps keep the exact tier inconclusive past a few thousand cosets;
    # the Chevalley relations hold over every commutative ring
    ring = _draw_finite_ring(data, 3)
    ideal = json.dumps([ring.to_literal(data.draw(st.integers(0, ring.size() - 1)))])
    cfg = SuiteConfig(suite="chevalley-relations", systems=("A3",), rings=(ring.spec,))
    assert run_suite(cfg).verdict == "pass", cfg
    for cfg in (
        SuiteConfig(suite="tulenbaev-identities", rings=(ring.spec,), max_cosets=2000),
        SuiteConfig(suite="k2-exact", systems=("A2",), rings=(ring.spec,), max_cosets=2000),
        SuiteConfig(suite="relative-generation", systems=("A2",), rings=(ring.spec,), ideal=ideal,
                    max_cosets=2000),
    ):
        assert run_suite(cfg).verdict in ("pass", "fail", "inconclusive"), cfg


@pytest.mark.parametrize(
    "flags, named",
    [(["--ring", "foo"], "'foo'"), (["--system", "Q7"], "'Q7'"), (["--system", "A"], "'A'")],
)
def test_cli_rejects_malformed_ring_or_system(flags, named, capsys):
    assert cli.main(["--suite", "vdk-identities", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and named in err


def test_cli_refuses_the_localization_of_a_polynomial_ring(capsys):
    assert cli.main(["--suite", "k2-exact", "--ring", "loc(poly(z,X),[0,1])"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "localization of poly(z,X) is not supported" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--suite", "vdk-identities", "--ring", "z/9"], "--ring"),
        (["--suite", "xeqy", "--system", "A3"], "--system"),
        (["--suite", "star-presentation", "--ring", "f2"], "--ring"),
        (["--suite", "psi-s-relations", "--system", "A3"], "--system"),
        (["--suite", "tmap-diagram", "--ring", "z/6"], "--ring"),
        (["--suite", "tulenbaev-identities", "--system", "A3"], "--system"),
        (["--suite", "relative-generation", "--ring", "f2", "--ring", "f3", "--ideal", "[1]"], "--ring"),
        (["--suite", "amalgam", "--system", "D4", "--system", "D5"], "--system"),
        (["--suite", "k2-exact", "--system", "A2", "--ring", "f2", "--ideal", "[1]", "--n", "7",
          "--format", "json"], "--ideal"),
        (["--suite", "chevalley-relations", "--n", "9"], "--n"),
        (["--suite", "xeqy", "--ideal", "[1]"], "--ideal"),
        # an ideal that does not resolve over the ring used to end in a
        # traceback, or ({}) to run with no generators
        (["--suite", "relative-generation", "--ring", "z/4", "--system", "A2", "--ideal", "[2"], "--ideal"),
        (["--suite", "relative-generation", "--ring", "z/4", "--system", "A2", "--ideal", "[[5,5]]"], "--ideal"),
        (["--suite", "relative-generation", "--ring", "z/4", "--system", "A2", "--ideal", "7"], "--ideal"),
        (["--suite", "relative-generation", "--ring", "z/4", "--system", "A2", "--ideal", "kernel"], "--ideal"),
        # amalgam reads one system and no ring or ideal
        (["--suite", "amalgam", "--ideal", "{}"], "--ideal"),
        (["--suite", "amalgam", "--ring", "z/4"], "--ring"),
        # an element literal is an int: a float used to be truncated and a
        # JSON true read as 1
        (["--suite", "relative-generation", "--ring", "z/4", "--system", "A2", "--ideal", "[2.5]"], "--ideal"),
        (["--suite", "relative-generation", "--ring", "z/4", "--system", "A2", "--ideal", "[true]"], "--ideal"),
        (["--suite", "relative-generation", "--ring", "z", "--system", "A2", "--ideal", "[2.7]"], "--ideal"),
        (["--suite", "relative-generation", "--system", "A2", "--ideal", "[[0, true]]"], "--ideal"),
        # each ring and system names checks, so a repeated one would name two
        # checks alike; so would --ring f2 beside tulenbaev's own f2 checks
        (["--suite", "k2-exact", "--system", "A2", "--system", "A2"], "--system"),
        (["--suite", "k2-exact", "--system", "A2", "--ring", "f2", "--ring", "f2"], "--ring"),
        (["--suite", "chevalley-relations", "--ring", "z/4", "--ring", "z/4"], "--ring"),
        (["--suite", "tulenbaev-identities", "--tier", "matrix", "--ring", "f2"], "--ring f2"),
        # this used to run and read inconclusive, "live cosets exceeded -5"
        (["--suite", "k2-exact", "--system", "A2", "--ring", "z/8", "--max-cosets", "-5"], "--max-cosets"),
        # an ideal named kernel used to run and read inconclusive, "quotient
        # of semi(z,2) is not supported": relative-generation needs a quotient
        (["--suite", "relative-generation", "--ring", "semi(z,2)", "--system", "A2", "--ideal", "kernel"], "--ideal"),
    ],
)
def test_cli_rejects_options_a_suite_would_not_read(flags, named, capsys):
    assert cli.main(flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and flags[1] in err and named in err
    (config,) = cli._configs_from_args(cli.build_parser().parse_args(flags))
    with pytest.raises(ValueError, match=named):
        run_suite(config)


@pytest.mark.parametrize(
    "suite, n",
    [
        ("vdk-identities", 3),
        ("vdk-identities", 2),
        ("tulenbaev-identities", 3),
        ("xeqy", 3),
        ("star-presentation", 3),
        ("tmap-diagram", 3),
        ("tmap-diagram", 2),
        ("psi-s-relations", 2),
    ],
)
def test_n_below_a_suites_least_is_a_usage_error(suite, n, capsys):
    # these used to end in a VdkError or RootSystemError traceback
    assert cli.main(["--suite", suite, "--n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and suite in err and f"got {n}" in err
    with pytest.raises(ValueError, match="--n >="):
        run_suite(SuiteConfig(suite=suite, n=n))


def test_negative_samples_is_a_usage_error(capsys):
    # this used to run at the floor and exit 0
    assert cli.main(["--suite", "xeqy", "--samples", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "--samples" in err and "got -1" in err
    cfg = SuiteConfig.from_dict({"suite": "xeqy", "samples": -1})
    with pytest.raises(ValueError, match="--samples >= 0"):
        run_suite(cfg)
    assert S.config_error(SuiteConfig.from_dict({"suite": "xeqy", "samples": 0})) is None


def test_least_n_is_accepted():
    for suite, n in (("psi-s-relations", 3), ("vdk-identities", 4), ("tmap-diagram", 5)):
        assert S.config_error(SuiteConfig(suite=suite, n=n)) is None


@pytest.mark.parametrize(
    "suite", ["vdk-identities", "tulenbaev-identities", "xeqy", "star-presentation"]
)
def test_capped_table_makes_the_exact_checks_inconclusive(suite, capsys):
    # St(A3,F2) needs far more than 100 cosets; the table used to be built
    # outside every check, and its Inconclusive ended the run in a traceback.
    # A check decides nothing there, so it counts no instance.
    assert cli.main(["--suite", suite, "--max-cosets", "100", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "inconclusive"
    exact = [c for c in report["checks"] if c["tier"] == "exact"]
    assert exact
    for c in exact:
        assert c["inconclusive"] == 1 and c["instances"] == 0 and not c["failures"]
        assert "cosets" in c["info"]["reason"]
    assert all(not c["inconclusive"] for c in report["checks"] if c["tier"] != "exact")


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"suite": "foo"}', "unknown suite 'foo'"),
        ('{"suite": "k2-exact", "n": "x"}', "'n' must be an integer"),
        ('{"n": 3}', "with a 'suite'"),
        ('{"suite": "k2-exact", "rings": 5}', "'rings' must be a list of strings"),
        ('{"suite": "k2-exact", "systems": [3]}', "'systems' must be a list of strings"),
        ('{"suite": "k2-exact", "rings": "f2"}', "'rings' must be a list of strings"),
        ('{"suite": "relative-generation", "ideal": 5}', "'ideal' must be a string"),
        ('{"suite": "k2-exact", "tier": 5}', "'tier' must be one of"),
        ("{", "cannot read --config"),
        (None, "cannot read --config"),  # no such file
        # a misspelt field used to be ignored, and the default rings ran
        ('{"suite": "k2-exact", "ring": ["z/4"]}', "unknown config field 'ring'"),
        # --suite cannot pick one of several suites, so it must not be dropped
        (('{"suites": [{"suite": "amalgam"}, {"suite": "amalgam", "systems": ["A3"]}]}',
          "--suite", "xeqy"), "--suite needs a --config of one suite, got 2"),
        # an integer field takes a JSON integer: these used to be coerced
        ('{"suite": "k2-exact", "n": 4.9}', "'n' must be an integer, got 4.9"),
        ('{"suite": "k2-exact", "samples": true}', "'samples' must be an integer, got True"),
        ('{"suite": "k2-exact", "seed": "12"}', "'seed' must be an integer, got '12'"),
        ('{"suite": "k2-exact", "max_cosets": 1e3}', "'max_cosets' must be an integer, got 1000.0"),
        # a 'suites' that is not a nonempty list used to raise TypeError (5)
        # or to run nothing and exit 0 ([]); a key beside it was ignored
        ('{"suites": 5}', "'suites' must be a nonempty list"),
        ('{"suites": []}', "'suites' must be a nonempty list"),
        ('{"suites": [{"suite": "amalgam"}], "seed": 3}', "has no other key, got ['seed', 'suites']"),
        # a suite that is not a string used to end in TypeError: unhashable type
        ('{"suite": ["x"]}', "'suite' must be a string, got ['x']"),
        ('{"suite": {"a": 1}}', "'suite' must be a string, got {'a': 1}"),
        # auto ran exactly what exact runs, and is gone
        ('{"suite": "xeqy", "tier": "auto"}', "'tier' must be one of"),
        # json.load ran out of stack and ended in a RecursionError traceback
        pytest.param("[" * 100_000, "cannot read --config", id="100000-deep"),
        # z/N is held to the size cap like every finite ring
        ('{"suite": "relative-generation", "systems": ["A2"], "rings": ["z/1000"], "ideal": "[500]"}',
         "has at most 256"),
        ('{"suite": "chevalley-relations", "systems": ["A2"], "rings": ["z/300"]}', "has at most 256"),
    ],
)
def test_cli_config_errors_are_usage_errors(text, named, tmp_path, capsys):
    # text is the document, or the document and the flags that come with it
    text, *flags = text if isinstance(text, tuple) else (text,)
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["--config", str(path), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and named in err


def test_cli_tier_auto_is_a_usage_error(capsys):
    # auto ran exactly what exact runs; argparse now refuses it
    with pytest.raises(SystemExit) as exc:
        cli.main(["--suite", "xeqy", "--tier", "auto"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'auto'" in err


def test_cli_flags_are_laid_over_each_config_document(tmp_path):
    # --suite also names the suite of a document that has none
    path = tmp_path / "cfg.json"
    path.write_text('{"systems": ["A3"], "seed": 7}')
    flags = ["--config", str(path), "--suite", "amalgam", "--seed", "2"]
    (config,) = cli._configs_from_args(cli.build_parser().parse_args(flags))
    assert config == SuiteConfig(suite="amalgam", systems=("A3",), seed=2)
    path.write_text('{"suites": [{"suite": "amalgam"}, {"suite": "k2-exact", "rings": ["f3"]}]}')
    flags = ["--config", str(path), "--ring", "z/4", "--tier", "matrix"]
    assert cli._configs_from_args(cli.build_parser().parse_args(flags)) == [
        SuiteConfig(suite="amalgam", rings=("z/4",), tier="matrix"),
        SuiteConfig(suite="k2-exact", rings=("z/4",), tier="matrix"),
    ]


def test_cli_needs_a_suite_or_a_config(capsys):
    assert cli.main([]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "need --suite or --config" in err


def test_cli_deep_ideal_is_a_usage_error(capsys):
    config = SuiteConfig(suite="relative-generation", systems=("A2",), ideal="[" * 3000)
    assert "recursion" in S.config_error(config)
    assert cli.main(["--suite", "relative-generation", "--system", "A2", "--ideal", "[" * 3000]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "--ideal" in err


def test_cli_unwritable_out_is_a_usage_error_before_any_suite_runs(tmp_path, monkeypatch, capsys):
    # the suites ran first, and the write ended in a FileNotFoundError traceback
    def no_run(config):
        raise AssertionError("a suite ran before --out was opened")

    monkeypatch.setattr(cli, "run_suite", no_run)
    out_path = tmp_path / "no-such-dir" / "r.json"
    assert cli.main(["--suite", "amalgam", "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "cannot write --out" in err


def _script(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compute_k2_reports_a_row_past_the_cap_as_inconclusive(monkeypatch, capsys):
    # A3 over z/6 passes the coset cap; the Inconclusive ended the script
    compute_k2 = _script("compute_k2")

    def capped(datum, ring):
        raise Inconclusive("live cosets exceeded 1000000")

    monkeypatch.setattr(compute_k2, "k2_compute", capped)
    monkeypatch.setattr(sys, "argv", ["compute_k2.py", "A3", "z/6"])
    assert compute_k2.main() == 0
    out = capsys.readouterr().out
    assert out == "A3 over z/6: inconclusive: live cosets exceeded 1000000\n"


@pytest.mark.parametrize("argv", [["x"], ["1", "2"]])
def test_lift_demo_refuses_a_seed_that_is_not_an_integer(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["lift_demo.py", *argv])
    assert _script("lift_demo").main() == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "usage" in err


@pytest.mark.parametrize("suite", ["relative-generation"])
def test_default_ideal_needs_a_generator(suite, capsys):
    assert cli.main(["--suite", suite, "--ring", "z/4", "--system", "A2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and suite in err and "--ideal" in err
    with pytest.raises(ValueError, match="--ideal"):
        run_suite(SuiteConfig(suite=suite, rings=("z/4",), systems=("A2",)))


@pytest.mark.parametrize(
    "cfg, named",
    [
        (SuiteConfig(suite="k2-exact", rings=("bogus",)), "bad ring spec 'bogus'"),
        (SuiteConfig(suite="k2-exact", systems=("Q3",)), "bad root system 'Q3'"),
        (SuiteConfig(suite="amalgam", systems=("A",)), "bad root system 'A'"),
    ],
)
def test_run_suite_rejects_a_ring_or_system_that_does_not_parse(cfg, named):
    # these used to raise SpecError and RootSystemError, which the CLI
    # caught with a second validation of its own
    with pytest.raises(ValueError, match=named):
        run_suite(cfg)
    assert S.config_error(cfg).startswith(named)


@pytest.mark.parametrize("field, value", [("n", 4.9), ("samples", True), ("seed", "12"), ("max_cosets", 1e3)])
def test_from_dict_takes_only_integers_in_integer_fields(field, value):
    with pytest.raises(ValueError, match=f"'{field}' must be an integer"):
        SuiteConfig.from_dict({"suite": "k2-exact", field: value})
    assert getattr(SuiteConfig.from_dict({"suite": "k2-exact", field: 5}), field) == 5


def test_from_dict_rejects_an_unknown_field():
    with pytest.raises(ValueError, match="unknown config field 'ring'"):
        SuiteConfig.from_dict({"suite": "k2-exact", "ring": ["z/4"]})
    doc = SuiteConfig(suite="k2-exact", rings=("z/4",)).to_dict()
    assert SuiteConfig.from_dict(doc) == SuiteConfig(suite="k2-exact", rings=("z/4",))


def test_tier_policy_downgrades_to_matrix():
    rep = run_suite(SuiteConfig(suite="tulenbaev-identities", tier="matrix"))
    assert rep.verdict == "pass"
    by_name = {c.name: c.tier for c in rep.checks}
    assert by_name["xlaws-f2-matrix"] == "matrix"
    # the default policy uses the exact tier where a table is affordable
    rep2 = run_suite(SuiteConfig(suite="tulenbaev-identities"))
    assert {c.name: c.tier for c in rep2.checks}["xlaws-f2-exact"] == "exact"


def _chevalley_loop(pats, sums, size, N, cap=32):
    """The per-instance chevalley check: one product chain per (r, s) and per
    (alpha, beta, r, s).  Returns (instances, failures capped at cap)."""
    ident = numpy.eye(size, dtype=numpy.int64)

    def unip(ri, r):
        m = ident.copy()
        for i, j, s in pats[ri]:
            m[i, j] = (s * r) % N
        return m

    nroots = len(pats)
    mats = [[unip(ri, r) for r in range(N)] for ri in range(nroots)]
    instances, failures = 0, []
    for ri in range(nroots):
        for r in range(1, N):
            for s in range(1, N):
                instances += 1
                if not numpy.array_equal(mats[ri][r] @ mats[ri][s] % N, mats[ri][(r + s) % N]):
                    failures.append(dict(kind="additivity", root=ri, r=r, s=s))
    for ai in range(nroots):
        for bi in range(nroots):
            tag, sign = sums[ai][bi]
            if tag == "skip":
                continue
            for r in range(1, N):
                for s in range(1, N):
                    comm = mats[ai][r] @ mats[bi][s] @ mats[ai][N - r] @ mats[bi][N - s] % N
                    instances += 1
                    want = ident if tag is None else mats[tag][(sign * r * s) % N]
                    if not numpy.array_equal(comm, want):
                        failures.append(dict(kind="commutator", alpha=ai, beta=bi, r=r, s=s))
    return instances, failures[:cap]


def _corrupt(kind):
    """A _chevalley_tables with one sign or one unipotent entry wrong, or
    with two unipotent entries that chain, so that a product which updates
    its rows one after another reads a row it has already changed."""
    honest = S._chevalley_tables

    def tables(datum):
        pats, sums = honest(datum)
        pats, sums = list(pats), [list(row) for row in sums]
        if kind == "sign":
            ai, bi = next((a, b) for a, row in enumerate(sums) for b, (tag, _) in enumerate(row)
                          if tag not in ("skip", None) and a > 2)
            tag, sign = sums[ai][bi]
            sums[ai][bi] = (tag, -sign)
        elif kind == "diagonal":  # x_alpha(r) = 1 + r*e_ii is not additive
            (i, _, sign), *rest = pats[3]
            pats[3] = ((i, i, sign), *rest)
        elif kind == "chain":  # D^2 != 0: the first entry's target row is the second's source
            (i, j, sign), *_ = pats[3]
            k = min(set(range(3)) - {i, j})
            pats[3] = ((j, k, sign), (i, j, sign))
        else:  # the second D entry with the wrong sign
            first, (i, j, sign) = pats[5]
            pats[5] = (first, (i, j, -sign))
        return pats, sums

    return tables


@pytest.mark.parametrize(
    "kind,sysname,ringspec",
    [("sign", "A3", "z/4"), ("diagonal", "A3", "z/3"), ("d-entry", "D4", "z/3"), ("sign", "D4", "z/6"),
     ("chain", "A3", "z/4"), ("chain", "D4", "z/3")],
)
def test_batched_chevalley_reports_the_loop_failures(monkeypatch, kind, sysname, ringspec):
    monkeypatch.setattr(S, "_chevalley_tables", _corrupt(kind))
    (rec,) = S.suite_chevalley(SuiteConfig(suite="chevalley-relations", systems=(sysname,), rings=(ringspec,)))
    datum = build_system(sysname)
    pats, sums = S._chevalley_tables(datum)
    instances, failures = _chevalley_loop(pats, sums, datum.matrix_size(), int(ringspec[2:]))
    assert failures, "the corruption must show"
    assert rec.instances == instances
    assert rec.failures == failures
    assert json.dumps(rec.failures) == json.dumps(failures)


def test_batched_chevalley_passes_and_counts_every_instance():
    rep = run_suite(SuiteConfig(suite="chevalley-relations"))
    assert rep.verdict == "pass"
    assert sum(c.instances for c in rep.checks) == 535296
    # the honest tables agree with the loop too
    datum = build_system("D4")
    pats, sums = S._chevalley_tables(datum)
    assert _chevalley_loop(pats, sums, datum.matrix_size(), 4) == (
        next(c.instances for c in rep.checks if c.name == "chevalley-D4-z/4"),
        [],
    )


@pytest.mark.parametrize("kind", ["sign", "chain"])
@pytest.mark.parametrize("N", [15, 16, 17])
def test_batched_chevalley_is_exact_at_every_batch_cut(monkeypatch, kind, N):
    # every failure is compared, not only the reported 32.  Besides the
    # default batches, the byte cap cuts them to 1 and 3 (beta, r) pairs (so
    # r apart) and to 40 (several betas with every r).
    monkeypatch.setattr(S, "_chevalley_tables", _corrupt(kind))
    datum = build_system("A3")
    pats, sums = S._chevalley_tables(datum)
    want = _chevalley_loop(pats, sums, datum.matrix_size(), N, cap=None)
    assert want[1], "the corruption must show"
    slab = (N - 1) * datum.matrix_size() ** 2  # one uint8 code an entry
    for cap in (S._BATCH_BYTES, slab, 3 * slab, 40 * slab):
        monkeypatch.setattr(S, "_BATCH_BYTES", cap)
        rec, failures = CheckRecord(name="", tier=""), []
        monkeypatch.setattr(rec, "fail", lambda **witness: failures.append(witness))
        S._chevalley_check(pats, sums, datum.matrix_size(), rec, make_ring(f"z/{N}"))
        assert (rec.instances, failures) == want, cap


@pytest.mark.parametrize("spec", ["f2", "quo(poly(f3,X),[1,0,1])", "z/256"])
def test_row_operations_gather_from_the_fused_table(spec):
    # a batch [row, lane, col] of uint8 codes, updated once by whole rows
    # (chained, repeated and diagonal positions) and once by one row per
    # lane, against X m in Python table lookups; codes and d of q - 1 make
    # the largest flat index, q^3 - 1 (2^24 - 1 over z/256, in uint32)
    ring = make_ring(spec)
    q, (add, mul, _) = ring.size(), ring.tables
    fused = numpy.array(add, dtype=numpy.uint8)[numpy.arange(q)[:, None], numpy.array(mul, dtype=numpy.uint8)[:, None]]
    rng = numpy.random.default_rng(q)
    size, lanes, cols = 5, 6, 3
    m = rng.integers(0, q, (size, lanes, cols)).astype(numpy.uint8)
    m[:, 0] = q - 1
    lane = numpy.arange(lanes)
    tgt, src = rng.integers(0, size, (2, 3, lanes))
    tgt[:, 1], src[:, 1] = (0, 1, 1), (1, 2, 1)  # lane 1 chains, repeats and sits on the diagonal
    for at, places in (
        ([(0, 1), (1, 2), (0, 3), (4, 4)], [[(0, 1), (1, 2), (0, 3), (4, 4)]] * lanes),
        ([((tgt[e], lane), (src[e], lane)) for e in range(3)], [list(zip(tgt[:, k], src[:, k])) for k in lane]),
    ):
        c = rng.integers(0, q, (len(at), lanes, 1))
        c[:, 0] = q - 1
        rows = [[[int(x) for x in m[i, k]] for i in range(size)] for k in lane]
        want = [[list(row) for row in block] for block in rows]
        for k, block in enumerate(rows):
            for e, (i, j) in enumerate(places[k]):
                coef = mul[int(c[e, k, 0])]
                want[k][i] = [add[a][coef[b]] for a, b in zip(want[k][i], block[j])]
        S._left_unipotent(m, at, c.astype(numpy.uint32) * numpy.uint32(q * q), fused)
        assert m.dtype == numpy.uint8
        assert want == [m[:, k].tolist() for k in lane]


@pytest.mark.parametrize("sysname", ["A3", "D4"])
def test_chevalley_over_a_copy_of_z_mod_n_gives_its_report(monkeypatch, sysname):
    # prod(z/N,z/1) is a FiniteRing on the codes of z/N, whose literals are
    # [r, 0]; with one wrong sign both fail at the same instances
    for corrupt in (False, True):
        if corrupt:
            monkeypatch.setattr(S, "_chevalley_tables", _corrupt("sign"))
        for N in range(2, 10):
            cfg = SuiteConfig(suite="chevalley-relations", systems=(sysname,), rings=(f"z/{N}", f"prod(z/{N},z/1)"))
            zn, twin = run_suite(cfg).checks
            assert (twin.instances, twin.inconclusive) == (zn.instances, 0) and zn.instances > 0
            assert twin.failures == [{**f, "r": [f["r"], 0], "s": [f["s"], 0]} for f in zn.failures]
            assert bool(zn.failures) == (corrupt and N > 2), N  # -1 is 1 over z/2


@pytest.mark.parametrize(
    "spec, instances",
    [
        ("quo(poly(f2,X),[1,1,1])", (1188, 4968)),  # F4
        ("quo(poly(f2,X),[0,0,1])", (1188, 4968)),  # F2[eps]
        ("quo(poly(f3,X),[1,0,1])", (8448, 35328)),  # F9
        ("prod(f2,f3)", (3300, 13800)),
        ("loc(z/12,2)", (528, 2208)),
    ],
)
def test_chevalley_passes_over_rings_that_are_not_z_mod_n(spec, instances):
    rep = run_suite(SuiteConfig(suite="chevalley-relations", systems=("A3", "D4"), rings=(spec,)))
    assert rep.verdict == "pass"
    assert tuple(c.instances for c in rep.checks) == instances


@pytest.mark.parametrize("spec", ["z/6", "quo(poly(f2,X),[1,1,1])"])
def test_one_wrong_mul_entry_fails_chevalley(spec):
    # a copy of the ring whose mul table, at codes 2 and 3 in either order,
    # gives one more than the product
    ring = copy.copy(make_ring(spec))
    add, mul, neg = ring.tables
    mul = [list(row) for row in mul]
    mul[2][3] = mul[3][2] = add[mul[2][3]][ring.one_p]
    ring.tables = (add, mul, neg)
    datum = build_system("A3")
    pats, sums = S._chevalley_tables(datum)
    rec = CheckRecord(name="", tier="")
    S._chevalley_check(pats, sums, datum.matrix_size(), rec, ring)
    assert rec.instances == 132 * (ring.size() - 1) ** 2
    assert len(rec.failures) == 32


def test_a_ring_past_the_instance_cap_is_refused_before_any_work(monkeypatch, capsys):
    # D4 over z/256 counts 552 * 255^2 instances, several seconds of work
    def stop(signum, frame):
        raise TimeoutError("chevalley over z/256 still running after 1 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        code = cli.main(["--suite", "chevalley-relations", "--system", "D4", "--ring", "z/256"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert "[inconclusive] chevalley-D4-z/256" in capsys.readouterr().out
    # the cap counts the exhaustive instances, 132 (N - 1)^2 over A3
    monkeypatch.setattr(S, "CHEVALLEY_CAP", 132 * 3**2)
    checks = run_suite(SuiteConfig(suite="chevalley-relations", systems=("A3",), rings=("z/4", "z/5"))).checks
    assert [(c.instances, c.inconclusive) for c in checks] == [(132 * 3**2, 0), (0, 1)]
    assert "past CHEVALLEY_CAP" in checks[1].info["reason"]


def test_relative_generation_without_matrices_is_refused_before_enumerating():
    # the z-subgroup of St(E6, F2[eps]) used to run to the 10^6-coset cap,
    # 21 s, and read "live cosets exceeded" for a quotient it could never count
    def stop(signum, frame):
        raise TimeoutError("relative-generation over E6 still running after 2 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        rep = run_suite(SuiteConfig(suite="relative-generation", systems=("E6",)))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    (check,) = rep.checks
    assert (rep.verdict, check.inconclusive, check.failures) == ("inconclusive", 1, [])
    assert "no matrix realization" in check.info["reason"]


def test_one_beta_and_r_of_a_batch_fits_at_every_ring_under_the_cap():
    for sysname in ("A2", "A3", "A8", "D4", "D8"):
        datum = build_system(sysname)
        pats, sums = S._chevalley_tables(datum)
        per = len(pats) + sum(tag != "skip" for row in sums for tag, _ in row)
        # the largest ring the check accepts, one uint8 code an entry
        q = min(math.isqrt(S.CHEVALLEY_CAP // per) + 1, FINITE_MAX_SIZE)
        slab = (q - 1) * datum.matrix_size() ** 2
        assert slab <= S._BATCH_BYTES, sysname


def _cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_spread_returns_the_serial_list_in_item_order(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    fork, forked = os.fork, set()

    def counted_fork():
        pid = fork()
        forked.add(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    got = S._spread(lambda x: (x * x, os.getpid()), range(10))
    assert [sq for sq, _ in got] == [x * x for x in range(10)]
    # item 0 runs here and the others in children, which are reaped, so what
    # runs here is the same at every CPU count; one CPU forks nothing
    pids = [pid for _, pid in got]
    assert pids[0] == os.getpid() and set(pids) <= {os.getpid()} | forked
    assert len(forked) == (cpus if cpus > 1 else 0)
    assert os.getpid() not in pids[1:] or cpus == 1
    assert S._spread(lambda x: x, []) == []
    assert _no_children_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_spread_runs_every_item_exactly_once(monkeypatch, tmp_path, cpus):
    _cpus(monkeypatch, cpus)
    log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        def task(x):
            os.write(log, b"%d\n" % x)  # one append per item, from any process
            return sum(range(x % 97 * 100))

        assert S._spread(task, range(1000)) == [sum(range(x % 97 * 100)) for x in range(1000)]
    finally:
        os.close(log)
    assert sorted(map(int, (tmp_path / "ran").read_text().split())) == list(range(1000))
    assert _no_children_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_spread_raises_the_lowest_items_exception(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)

    def task(x):
        if x == 3:
            time.sleep(0.01)  # so that item 7 tends to raise first, elsewhere
            raise ValueError("item 3 failed")
        if x == 7:
            raise KeyError("item 7 failed")
        return x

    for _ in range(20):
        with pytest.raises(ValueError, match="item 3 failed"):
            S._spread(task, range(40))
        assert _no_children_left()


def test_spread_hands_out_no_chunk_after_an_error(monkeypatch, tmp_path):
    # item 2 raises in the child that takes the first chunk, which empties the
    # queue and then pickles its results, item 1's among them: that writes
    # the marker.  The items of every other chunk wait for the marker, so the
    # other child finishes the one chunk it holds and finds the queue empty.
    _cpus(monkeypatch, 2)
    marker = tmp_path / "raised"
    log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    class Announce:
        def __reduce__(self):
            marker.touch()
            return int, (1,)

    def task(x):
        os.write(log, b"%d\n" % x)
        if x == 1:
            return Announce()
        if x == 2:
            raise ValueError("item 2 failed")
        if x > 2:
            deadline = time.monotonic() + 60
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
        return x

    try:
        with pytest.raises(ValueError, match="item 2 failed"):
            S._spread(task, range(401))
    finally:
        os.close(log)
    assert marker.exists()
    # 400 items after the first in 2 * _CHUNKS_PER_CPU chunks of 25
    size = 400 // (2 * S._CHUNKS_PER_CPU)
    held = sorted(set(map(int, (tmp_path / "ran").read_text().split())) - {0, 1, 2})
    assert held in ([], list(range(1 + size, 1 + 2 * size)))
    assert _no_children_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_spread_raises_an_exit_in_a_child_here(monkeypatch, cpus):
    # not only an Exception: a child sends back whatever stopped its item,
    # ranked by the item like any other
    _cpus(monkeypatch, cpus)

    def task(x):
        if x == 3:
            time.sleep(0.1)  # so that item 30 tends to raise first, elsewhere
            raise SystemExit("item 3 stopped")
        if x == 30:
            raise ValueError("item 30 failed")
        return x

    with pytest.raises(SystemExit, match="item 3 stopped"):
        S._spread(task, range(40))
    assert _no_children_left()


class _TwoArgs(Exception):
    """An exception that pickle cannot rebuild: its constructor takes two
    arguments, and its args hold one."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize("cpus", [2, 3])
def test_spread_raises_a_childs_own_exception(monkeypatch, cpus):
    # numpy's allocation failure takes its shape and dtype, not a message:
    # rebuilt from its type and message it became a TypeError
    _cpus(monkeypatch, cpus)

    def task(x):
        if x == 3:
            time.sleep(0.1)  # so that item 30 tends to raise first, elsewhere
            numpy.empty(2**62, numpy.uint8)  # refused at once, nothing allocated
        if x == 30:
            raise ValueError("item 30 failed")
        return x

    with pytest.raises(MemoryError, match="Unable to allocate"):
        S._spread(task, range(40))
    assert _no_children_left()

    def unpicklable(x):
        if x == 2:
            raise _TwoArgs(1, 2)
        return x

    with pytest.raises(RuntimeError, match="^_TwoArgs: 1 and 2$"):
        S._spread(unpicklable, range(40))
    assert _no_children_left()


def test_spread_queue_holds_every_chunk_of_many_items(monkeypatch):
    # the queue of chunk numbers is written whole before the fork; a write
    # that filled the pipe would block with nobody to read it
    _cpus(monkeypatch, 3)
    assert S._spread(lambda x: x, range(100_000)) == list(range(100_000))
    assert _no_children_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_spread_check_keeps_the_serial_witness_order(monkeypatch, cpus):
    # every instance fails: the decomposition of u is w, which is not orthogonal to v
    monkeypatch.setattr(S, "decomposition_terms", lambda u, v, w: [w])
    vecs = list(S._all_vectors(make_ring("f2"), 4))
    task = functools.partial(S._canonical_split_at, vecs)
    serial = S.CheckRecord(name="serial", tier="exact-arith")
    for v in vecs:
        instances, failures = S._run(task, v)
        serial.instances += instances
        for witness in failures:
            serial.fail(**witness)
    _cpus(monkeypatch, cpus)
    run = functools.partial(S._run, task)
    assert S._spread(run, vecs) == [run(v) for v in vecs]
    rec = S.CheckRecord(name="spread", tier="exact-arith")
    S._spread_into(rec, task, vecs)
    assert rec.instances == serial.instances == 960
    assert len(rec.failures) == 32 and rec.failures == serial.failures
    assert _no_children_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_spread_raises_a_childs_exception_here(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)

    def task(x):
        if x == 1:  # in a child, whichever takes its chunk
            raise Inconclusive(f"cap reached at item {x}")
        return x

    checks = []
    with S._Check(checks, "spread", "exact") as rec:
        S._spread_into(rec, lambda rec, x: task(x), range(4))
    (check,) = checks
    assert check.inconclusive == 1 and check.info == {"reason": "cap reached at item 1"}
    assert _no_children_left()
    # an exception in the first item, which runs before the fork, leaves no child
    def here(x):
        if x == 0:
            raise ValueError("item 0 failed")
        return x

    with pytest.raises(ValueError, match="item 0 failed"):
        S._spread(here, range(4))
    assert _no_children_left()


def test_spread_xeqy_enumerates_its_table_once(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(fp, "_MEMO", {})
    here, calls = os.getpid(), []
    build = fp.regular_table

    def counted(sp, max_cosets):
        assert os.getpid() == here, "a share enumerated the table again"
        calls.append(sp.system.name)
        return build(sp, max_cosets)

    monkeypatch.setattr(fp, "regular_table", counted)
    rep = run_suite(SuiteConfig(suite="xeqy"))
    assert rep.verdict == "pass" and calls == ["A3"]
    assert _no_children_left()


def test_xeqy_traces_each_left_word_once(monkeypatch):
    # each instance compares its lhs with four words: 1 + 4 traces, not 2 x 4
    _cpus(monkeypatch, 1)
    traced = []
    letters = fp.SteinbergPresentation.word_letters

    def counted(sp, w):
        traced.append(w)
        return letters(sp, w)

    monkeypatch.setattr(fp.SteinbergPresentation, "word_letters", counted)
    rep = run_suite(SuiteConfig(suite="xeqy"))
    assert rep.to_json() == (GOLDEN / "xeqy.json").read_text()
    (check,) = [c for c in rep.checks if c.name == "xeqy-f2-exhaustive"]
    assert check.instances == 3288 and len(traced) <= 5 * check.instances


@pytest.mark.parametrize("suite", ["tulenbaev-identities", "star-presentation", "vdk-identities"])
def test_spread_exact_checks_enumerate_their_table_once(monkeypatch, suite):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(fp, "_MEMO", {})
    here, calls = os.getpid(), []
    build = fp.regular_table

    def counted(sp, max_cosets):
        assert os.getpid() == here, "a share enumerated the table again"
        calls.append((sp.system.name, sp.ring.spec))
        return build(sp, max_cosets)

    monkeypatch.setattr(fp, "regular_table", counted)
    rep = run_suite(SuiteConfig(suite=suite))
    assert rep.verdict == "pass" and calls == [("A3", "f2")]
    assert _no_children_left()


def _every_comparison_fails(monkeypatch):
    """Exact word tests and matrix comparisons, one matrix at a time or in
    numpy batches, all say "different"."""
    monkeypatch.setattr(fp.WordTester, "exact_equal", lambda self, w1, w2: False)
    monkeypatch.setattr(S.RMatrix, "__eq__", lambda self, other: False)
    monkeypatch.setattr(S.RMatrix, "__ne__", lambda self, other: True)
    same = S._same

    def batches_differ(lhs, rhs, equal=None):
        if isinstance(lhs, numpy.ndarray):
            return numpy.zeros(lhs.shape[:-2], dtype=bool)
        return same(lhs, rhs, equal)

    monkeypatch.setattr(S, "_same", batches_differ)


# The leading digits of the SHA-1 of each report below as the checks gave
# it when every sampled check still drew its samples inside its own loop.
_ALL_FAILING_REPORTS = {
    "vdk-identities": "81288e5c0dff",
    "tulenbaev-identities": "2f98992b5200",
    "xeqy": "a063623394dd",
    "star-presentation": "c0fe7d274679",
    "tmap-diagram": "e70972a29f3f",
}


@pytest.mark.parametrize("suite", sorted(_ALL_FAILING_REPORTS))
def test_spread_sampled_checks_keep_the_serial_report(monkeypatch, suite):
    # every check fails, so each report pins the instance counts, the seeded
    # draws and the order of the first 32 witnesses; one CPU is the serial loop
    _every_comparison_fails(monkeypatch)
    cfg = SuiteConfig(suite=suite, seed=3)
    _cpus(monkeypatch, 1)
    serial = run_suite(cfg)
    assert sum(len(c.failures) == 32 for c in serial.checks) >= 2
    assert hashlib.sha1(serial.to_json().encode()).hexdigest()[:12] == _ALL_FAILING_REPORTS[suite]
    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        assert run_suite(cfg).to_json() == serial.to_json()
    assert _no_children_left()


def test_every_tulenbaev_law_fails_under_its_own_name(monkeypatch):
    # one body checks the X and the Y laws; the golden report has no
    # failures, so this pins the names and witnesses of each kind
    _every_comparison_fails(monkeypatch)
    rep = run_suite(SuiteConfig(suite="tulenbaev-identities", seed=3))
    failures = [f for c in rep.checks for f in c.failures]
    assert len(failures) == 192
    laws = ("scale", "balance", "additivity", "conjugation")
    assert {f["law"] for f in failures} == {f"{k}-{law}" for k in "XY" for law in laws}
    for c in rep.checks:
        kind = c.name[0].upper()
        for f in c.failures:
            assert f["law"].startswith(kind + "-")
            assert ("u" in f, "v" in f) == ((True, False) if kind == "X" else (False, True))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_spread_law_checks_keep_the_serial_witness_order(monkeypatch, cpus):
    f2 = make_ring("f2")
    system = linear_system(4)
    serial = S.CheckRecord(name="serial", tier="exact")
    for sample in S._draw_law_samples(f2, 4, random.Random(7), 20, system):
        instances, failures = S._run(functools.partial(S._laws_at, "Y", lambda w1, w2: False), sample)
        serial.instances += instances
        for witness in failures:
            serial.fail(**witness)
    _cpus(monkeypatch, cpus)
    rec = S.CheckRecord(name="spread", tier="exact")
    draws = S._draw_law_samples(f2, 4, random.Random(7), 20, system)
    S._spread_into(rec, functools.partial(S._laws_at, "Y", lambda w1, w2: False), draws)
    assert rec.instances == serial.instances == 80
    assert len(rec.failures) == 32 and rec.failures == serial.failures
    assert _no_children_left()


_TABLE_RINGS = ("f2", "f3", "quo(poly(f2,X),[0,0,1])", "quo(poly(f2,X),[1,1,1])", "z/6", "prod(f2,f3)")


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("spec", _TABLE_RINGS)
def test_table_products_match_rmatrix_products(spec, n):
    # F2[eps] and F4 are the two four-element quotients of poly(f2,X)
    ring = make_ring(spec)
    rng = random.Random(n)
    q = ring.size()
    pairs = [
        [S.RMatrix(ring, n, tuple(rng.randrange(q) for _ in range(n * n))) for _ in "ab"]
        for _ in range(24)
    ]
    add, mul = (numpy.array(t, dtype=numpy.uint8) for t in ring.tables[:2])
    lhs, rhs = (
        numpy.array([p[i].data for p in pairs], dtype=numpy.uint8).reshape(2, 12, n, n) for i in (0, 1)
    )
    got = S._table_matmul(add, mul, lhs, rhs).reshape(24, n * n)
    assert [tuple(row.tolist()) for row in got] == [(a * b).data for a, b in pairs]


def test_additivity_checks_give_the_same_report_in_chunks(monkeypatch):
    # 37 or 3 products per chunk cut the 64 pairs of a u's 8 symbols apart
    golden = (GOLDEN / "star-presentation.json").read_text()
    _every_comparison_fails(monkeypatch)
    failing = run_suite(SuiteConfig(suite="star-presentation", samples=0)).to_json()
    for products in (37, 3):
        monkeypatch.setattr(S, "_BATCH_BYTES", 8 * 4**3 * products)
        assert run_suite(SuiteConfig(suite="star-presentation", samples=0)).to_json() == failing
    monkeypatch.undo()
    monkeypatch.setattr(S, "_BATCH_BYTES", 8 * 4**3 * 37)
    assert run_suite(SuiteConfig(suite="star-presentation")).to_json() == golden


def test_a_wrong_iota_image_fails_f_additivity_at_its_symbol(monkeypatch):
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    fs = fp.star_presentations(4, f2e, FGIdeal(f2e, [f2e.gen()]))
    bad = next(s for s in fs[100:] if any(p != f2e.zero_p for p in s.v.data))
    key = (bad.u.vec.data, bad.v.data)
    iota = S.iota
    kick = W.x_ij(linear_system(4), f2e, 0, 1, f2e.one())

    def wrong_at_bad(sym):
        # F symbols alone: S-additivity reads iota of the S symbols
        word = iota(sym)
        return word * kick if isinstance(sym, FSymbol) and (sym.u.vec.data, sym.v.data) == key else word

    monkeypatch.setattr(S, "iota", wrong_at_bad)
    rep = run_suite(SuiteConfig(suite="star-presentation", samples=0))
    checks = {c.name: c for c in rep.checks}
    assert not checks["S-additivity-iota-f2[eps]-exhaustive"].failures
    failures = checks["F-additivity-iota-f2[eps]-exhaustive"].failures
    assert 0 < len(failures) < 32
    vec = {json.dumps(S._lit(s.v)): s.v for s in fs}
    for f in failures:
        assert f["u"] == S._lit(bad.u.vec)
        v, w = vec[json.dumps(f["v"])], vec[json.dumps(f["w"])]
        assert bad.v in (v, w, v + w)
    assert {"u": S._lit(bad.u.vec), "v": S._lit(bad.v), "w": S._lit(bad.v)} in failures


def test_a_wrong_iota_image_fails_s_additivity_at_its_symbol(monkeypatch):
    # the mirror of the test above: S-additivity builds iota(S(v, u)) for
    # each F(u, v), so a wrong image of one S symbol fails it alone
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    fs = fp.star_presentations(4, f2e, FGIdeal(f2e, [f2e.gen()]))
    bad = next(s for s in fs[100:] if any(p != f2e.zero_p for p in s.v.data))
    key = (bad.v.data, bad.u.vec.data)
    iota = S.iota
    kick = W.x_ij(linear_system(4), f2e, 0, 1, f2e.one())

    def wrong_at_bad(sym):
        word = iota(sym)
        return word * kick if isinstance(sym, SSymbol) and (sym.u.data, sym.v.vec.data) == key else word

    monkeypatch.setattr(S, "iota", wrong_at_bad)
    rep = run_suite(SuiteConfig(suite="star-presentation", samples=0))
    checks = {c.name: c for c in rep.checks}
    assert not checks["F-additivity-iota-f2[eps]-exhaustive"].failures
    failures = checks["S-additivity-iota-f2[eps]-exhaustive"].failures
    assert 0 < len(failures) < 32
    vec = {json.dumps(S._lit(s.v)): s.v for s in fs}
    for f in failures:
        assert f["v"] == S._lit(bad.u.vec)
        u, u2 = vec[json.dumps(f["u"])], vec[json.dumps(f["u2"])]
        assert bad.v in (u, u2, u + u2)


def test_additivity_check_raises_when_a_sum_has_no_symbol():
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    fs = fp.star_presentations(4, f2e, FGIdeal(f2e, [f2e.gen()]))
    u = fs[0].u.vec
    group = [s for s in fs if s.u.vec == u]
    assert len(group) == 8
    for gone in range(8):  # each v is the sum of two of the others (0 = v + v)
        syms = group[:gone] + group[gone + 1:]
        mats = numpy.zeros((len(syms), 4, 4), dtype=numpy.uint8)
        with pytest.raises(ValueError, match="no symbol for the sum"):
            S._additivity_check(CheckRecord(name="", tier=""), syms, mats, dict)


@pytest.mark.parametrize("change", ["longer", "shorter"])
def test_canonical_split_fails_a_term_of_the_wrong_length(monkeypatch, change):
    f3 = make_ring("f3")
    vecs = list(S._all_vectors(f3, 4))
    decompose = S.decomposition_terms
    with_terms = []  # one entry per instance whose decomposition has terms

    def malformed(u, v, w):
        terms = decompose(u, v, w)
        with_terms.extend(terms[:1])
        if change == "longer":
            return [S.RVector(f3, t.data + (f3.one_p,)) for t in terms]
        return [S.RVector(f3, t.data[:-1]) for t in terms]

    monkeypatch.setattr(S, "decomposition_terms", malformed)
    rec = CheckRecord(name="", tier="")
    fails = []
    monkeypatch.setattr(rec, "fail", lambda **witness: fails.append(witness))
    for v in vecs[:20]:
        S._canonical_split_at(vecs, rec, v)
    # u = 0 has no terms: 19 nonzero v with 27 certificates each
    assert rec.instances == 13851
    assert len(fails) == len(with_terms) == 13851 - 19 * 27


def test_spread_chevalley_decides_ring_support_before_it_forks(monkeypatch):
    # one wrong sign makes every z/N check fail; an infinite ring, and one
    # past CHEVALLEY_CAP (lowered to 132 (5 - 1)^2), stay inconclusive at
    # every CPU count
    monkeypatch.setattr(S, "_chevalley_tables", _corrupt("sign"))
    monkeypatch.setattr(S, "CHEVALLEY_CAP", 132 * 4**2)
    cfg = SuiteConfig(suite="chevalley-relations", systems=("A3",),
                      rings=("z/3", "z", "z/4", "z/6", "z/5"))
    reports = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        reports.append(run_suite(cfg))
    assert reports[1].to_json() == reports[2].to_json() == reports[0].to_json()
    checks = {c.name: c for c in reports[2].checks}
    for spec, reason in (("z", "is infinite"), ("z/6", "past CHEVALLEY_CAP")):
        c = checks[f"chevalley-A3-{spec}"]
        assert c.inconclusive == 1 and c.instances == 0 and reason in c.info["reason"]
    for spec in ("z/3", "z/4", "z/5"):
        c = checks[f"chevalley-A3-{spec}"]
        assert c.failures and not c.inconclusive and c.wall_time > 0
    assert _no_children_left()


def test_chevalley_spreads_the_checks_of_every_system_at_once(monkeypatch):
    monkeypatch.setattr(S, "_chevalley_tables", _corrupt("sign"))
    spread, spreads = S._spread, []
    monkeypatch.setattr(S, "_spread", lambda task, items: spreads.append(len(items)) or spread(task, items))
    cfg = SuiteConfig(suite="chevalley-relations", systems=("A3", "D4"),
                      rings=("z/3", "z", "z/4", "z/5"))
    reports = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        reports.append(run_suite(cfg))
    assert spreads == [6, 6, 6]
    assert reports[1].to_json() == reports[2].to_json() == reports[0].to_json()
    for rep in reports:
        ran = [c for c in rep.checks if not c.inconclusive]
        assert len(ran) == 6 and all(c.failures and c.wall_time > 0 for c in ran)
    assert _no_children_left()


@pytest.mark.parametrize("spec, a", [("z/6", 2), ("prod(f3,f2)", (1, 0))])
def test_tmap_diagram_reads_v_through_the_section(spec, a):
    # the localization's codes are not the base's here (its section is
    # [0, 4, 2] or [0, 2, 4]), so v must be carried to B through the section
    ring = make_ring(spec)
    loc, _ = localization(ring, ring.el(a))
    assert loc.section != list(range(loc.size()))
    rec = CheckRecord(name="tmap", tier="matrix")
    S._tmap_exhaustive(rec, ring, ring.el(a), 4)
    assert rec.instances == 160 and rec.failures == []


# The one check that decides without comparing two computed values: a root
# heads an A3 chain or it does not.  test_criterion_09_amalgam shows it fail
# on A2, where no root does.
_EXEMPT_FROM_THE_SEAM = {"amalgam-coverage-D4"}
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _every_default_report(monkeypatch, verdict):
    """The ten reports at their default configs, with every comparison the
    checks make decided by `verdict` (a numpy batch gets one per matrix)."""

    def same(lhs, rhs, equal=None):
        if isinstance(lhs, numpy.ndarray):
            return numpy.full(lhs.shape[:-2], verdict)
        return verdict

    monkeypatch.setattr(S, "_same", same)
    return {name: run_suite(SuiteConfig(suite=name)) for name in sorted(SUITES)}


def test_every_check_can_fail_through_the_seam(monkeypatch):
    reports = _every_default_report(monkeypatch, False)
    passing = {c.name for rep in reports.values() for c in rep.checks if not c.failures}
    assert passing == _EXEMPT_FROM_THE_SEAM
    assert all(not c.inconclusive for rep in reports.values() for c in rep.checks)


def test_no_check_fails_when_the_seam_says_equal(monkeypatch):
    # and every check counts the instances of the real run, which the
    # golden reports hold
    for name, rep in _every_default_report(monkeypatch, True).items():
        golden = json.loads((GOLDEN / f"{name}.json").read_text())["checks"]
        got = [(c.name, c.instances, c.failures, c.inconclusive) for c in rep.checks]
        assert got == [(c["name"], c["instances"], [], 0) for c in golden]


def test_check_names_are_unique():
    for path in sorted(GOLDEN.glob("*.json")):
        names = [c["name"] for c in json.loads(path.read_text())["checks"]]
        assert len(names) == len(set(names)), path.name
    rep = run_suite(SuiteConfig(suite="tulenbaev-identities", tier="matrix", rings=("z/4",), samples=4))
    names = [c.name for c in rep.checks]
    assert names == ["xlaws-f2-matrix", "ylaws-f2-matrix", "xlaws-z/4-matrix", "ylaws-z/4-matrix"]
    rep = run_suite(SuiteConfig(suite="k2-exact", systems=("A2",), rings=("f2", "z/2")))
    assert [c.name for c in rep.checks] == ["k2-A2-f2", "k2-A2-z/2"]
