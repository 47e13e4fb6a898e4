"""Benchmark of the steinberg workbench: time to verdict on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {enum,verify,kernel} --seed N \
        --seconds S --trace {0,1}

The run starts the workload in a fresh interpreter and takes its set-up time
from the start of that interpreter to the moment it is ready.  With
``--trace 0`` the workload then repeats the timed pass until ``--seconds``
have passed (at least once), and the run reports the end-to-end metrics.
Pass times are reported in reference seconds: the host's speed drifts by
up to half over minutes, so the pass samples it throughout (see
``SpeedSampler``); the raw times are printed too.
With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics.  Every pass is checked against ``golden.json``; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing  # imports steinberg only when called
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
READY = "ready"  # printed by the workload process once set up
IMPORT_PROBES = 5
LOOP_N = 500_000
SAMPLE_PERIOD_S = 0.25
SAMPLE_LOOP_N = 50_000
# A reference second is a second on a host that runs SAMPLE_LOOP_N
# iterations of the sample loop in SAMPLE_REF_S seconds.
SAMPLE_REF_S = 0.0025
CHILD_TIMEOUT_S = 150
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import steinberg; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="steinberg benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the process that sets the workload up (and runs it)
    p.add_argument("--role", choices=("run", "setup-only"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_environment():
    """The program runs without a disk cache and with one BLAS thread:
    importing numpy otherwise starts a pool thread."""
    os.environ.pop("STEINBERG_CACHE", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = str(SRC)


def timed_child(args):
    """Run ``run.py args`` in a fresh interpreter.

    Returns the seconds from its start to its ``ready`` line, and the lines
    it printed after that.  Raises if it fails or takes too long."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        setup_s, lines = None, []
        for line in proc.stdout:
            if setup_s is None and line.rstrip("\n") == READY:
                setup_s = time.perf_counter() - t0
            else:
                lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return setup_s, lines


def import_time():
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(out.stdout.strip().splitlines()[-1])


def loop_s(reps=5):
    """Median time of a fixed pure-Python loop: the machine's speed right now."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(LOOP_N):
            acc += i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_info():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": os.getloadavg(),
        "loop_s": loop_s(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "steinberg" / "__init__.py").is_file():
        print(f"no steinberg sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.role:
        return workload_process(args)
    run_environment()
    forwarded = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup_s, lines = timed_child(forwarded + ["--role", "run"])
    result = json.loads(lines.pop())
    for line in lines:
        print(line)
    if not args.trace:
        setups = [setup_s] + [
            timed_child(forwarded + ["--role", "setup-only"])[0]
            for _ in range(workloads.SETUP_REPS[args.workload] - 1)
        ]
        print("setups " + " ".join(f"{s:.3f}" for s in setups) + " s")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print("machine " + json.dumps(machine_info()))
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def workload_process(args):
    """Set the workload up, say so, then run it and print its result line."""
    name = args.workload
    state = workloads.setup(name)
    print(READY, flush=True)
    if args.role == "setup-only":
        return 0
    print(workloads.NO_RANDOMNESS.get(name, f"{name}: suites sample with seed {args.seed}"))
    golden = json.loads(GOLDEN.read_text())[name]
    if args.trace:
        metrics, attempted, failed = traced_run(name, state, args.seed, golden)
    else:
        metrics, attempted, failed = untraced_run(name, state, args, golden)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


class SpeedSampler:
    """Samples the host's pure-Python speed while a pass runs.

    A timer signal runs a short fixed loop every ``SAMPLE_PERIOD_S``; each
    sample's loop time gives the host's speed for the stretch of the pass
    since the previous sample.  The handler runs between bytecodes of the
    main thread, so the pass stays one thread of work; its loops take about
    1% of the pass and are left out of both the raw and the reference time.
    """

    def __init__(self):
        self.samples = []  # (start, loop seconds)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(SAMPLE_LOOP_N):
            acc += i
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def times(self, t0, t1):
        """Raw and reference seconds of the program's time in [t0, t1]."""
        inside = [(t, dt) for t, dt in self.samples if t0 <= t and t + dt <= t1]
        if not inside:
            raise RuntimeError("the pass ended before the first speed sample")
        raw = ref = 0.0
        start = t0
        for t, dt in inside:
            raw += t - start
            ref += (t - start) * SAMPLE_REF_S / dt
            start = t + dt
        raw += t1 - start
        ref += (t1 - start) * SAMPLE_REF_S / inside[-1][1]
        return raw, ref


def timed_pass(name, state, seed, golden, span=None):
    """Run one pass; return its raw and reference seconds, the instance
    count, the number of items and the items that disagree with the golden
    results."""
    instances, outcomes = 0, {}
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        for step in workloads.pass_steps(name, state, seed, span):
            count, out = step()
            instances += count
            outcomes.update(out)
        t1 = time.perf_counter()
    wall, ref = sampler.times(t0, t1)
    return wall, ref, instances, len(outcomes), workloads.failed_items(outcomes, golden)


def untraced_run(name, state, args, golden):
    walls, refs, instances, attempted, failed = [], [], 0, 0, 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, ref, instances, items, bad = timed_pass(name, state, args.seed, golden)
        walls.append(wall)
        refs.append(ref)
        attempted += items
        failed += len(bad)
        if bad:
            print(f"pass {len(walls)}: disagrees with the golden results on {bad}", file=sys.stderr)
    ref_wall_s = statistics.median(refs)
    print(f"passes {len(walls)}: wall " + " ".join(f"{w:.3f}" for w in walls)
          + " s, reference " + " ".join(f"{r:.3f}" for r in refs) + " s")
    return {
        "ref_wall_s": (ref_wall_s, "s"),
        "ref_instances_per_s": (instances / ref_wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, attempted, failed


def traced_run(name, state, seed, golden):
    untraced, untraced_ref, _, attempted, bad = timed_pass(name, state, seed, golden)
    probes = tracing.ring_probe(seed)
    probes.update(tracing.phi_probe(seed))
    build_s = tracing.build_system_probe(workloads.SYSTEMS[name])
    with tracing.Tracer() as tracer:
        traced, traced_ref, _, items, traced_bad = timed_pass(name, state, seed, golden, tracer.span)
    attempted += items
    bad += traced_bad
    if bad:
        print(f"disagrees with the golden results on {bad}", file=sys.stderr)
    metrics = {key: (value, "ns" if "_ns." in key else "us") for key, value in probes.items()}
    metrics["wall_s"] = (untraced, "s")
    metrics["roots.build_system_s"] = (build_s, "s")
    metrics["import_s"] = (statistics.median(import_time() for _ in range(IMPORT_PROBES)), "s")
    metrics.update(tracing.layer_metrics(tracer, workloads.SUITES, traced, traced_ref / untraced_ref))
    return metrics, attempted, len(bad)


if __name__ == "__main__":
    sys.exit(main())
