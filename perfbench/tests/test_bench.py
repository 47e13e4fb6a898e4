"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

The determinism tests run every workload three times (one untraced, two
traced passes), which takes several minutes.
"""

import functools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def run(workload, trace, rep=0):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_traced_run_is_correct(workload):
    first, second = run(workload, 1, 0), run(workload, 1, 1)
    assert counts(first) == counts(second)
    assert counts(first)["rings.calls"] > 0
    untraced = run(workload, 0)
    assert untraced["correct"] and untraced["failed"] == 0
    # each traced run checks one untraced and one traced pass
    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] == 2 * untraced["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metrics_match_benchmark_json(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        got = {k: m["unit"] for k, m in run(workload, trace)["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in SPEC[key]}


def test_tracer_rebinds_names_imported_elsewhere():
    from steinberg import fp, matrices, suites, words

    originals = (words.phi, words.simplify, fp.k2_compute, matrices.matrix_group_order)
    with tracing.Tracer():
        assert suites.phi is words.phi is not originals[0]
        assert fp.simplify is suites.simplify is words.simplify is not originals[1]
        assert suites.k2_compute is fp.k2_compute is not originals[2]
        assert fp.matrix_group_order is matrices.matrix_group_order is not originals[3]
    assert (words.phi, words.simplify, fp.k2_compute, matrices.matrix_group_order) == originals
    assert suites.phi is words.phi


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(
        tracing, "LAYER_FUNCTIONS",
        tracing.LAYER_FUNCTIONS + (("fp.gone", "steinberg.fp", "no_such_function", True),),
    )
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError):
        tracer.install()
    tracer.uninstall()


def test_self_time_excludes_child_spans():
    from steinberg import words
    from steinberg.rings import make_ring
    from steinberg.vdk import linear_system

    ring = make_ring("z/6")
    w = words.word(linear_system(4), ring, [(i % 12, 1 + i % 5) for i in range(40)])
    with tracing.Tracer() as tracer:
        with tracer.span("suites.probe"):
            words.phi(w)
    calls, total, self_s = tracer.stats["words.phi"]
    assert calls == 1
    assert tracer.calls("matrices.mul") == 40
    assert 0 < self_s < total
    assert tracer.ring_calls > 0
    assert tracer.covered_s == pytest.approx(total)


def test_golden_check_flags_a_changed_outcome():
    golden = {"a": {"index": 1}, "b": {"index": 2}}
    assert workloads.failed_items({"a": {"index": 1}, "b": {"index": 2}}, golden) == []
    assert workloads.failed_items({"a": {"index": 1}, "b": {"index": 3}}, golden) == ["b"]
    assert workloads.failed_items({"a": {"index": 1}}, golden) == ["b"]


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "workloads.py", "tracing.py", "golden.json"):
        (bench / f).write_text((BENCH / f).read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_speed_sampler_weights_time_by_measured_speed():
    import run

    ref = run.SAMPLE_REF_S
    sampler = run.SpeedSampler()
    # the host runs at reference speed up to the first sample, then at half
    sampler.samples = [(1.0, ref), (2.0, 2 * ref)]
    raw, scaled = sampler.times(0.0, 3.0)
    assert raw == pytest.approx(3.0 - 3 * ref)  # sample loops left out
    assert scaled == pytest.approx(1.0 + (1.0 - ref) / 2 + (1.0 - 2 * ref) / 2)
    with pytest.raises(RuntimeError):
        sampler.times(3.0, 4.0)
    with run.SpeedSampler() as live:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            pass
    assert len(live.samples) >= 2
