#!/usr/bin/env python3
"""Run every verification suite and write canonical JSON reports.

Usage: python scripts/run_all_suites.py [outdir]

Prints the human-readable report per suite and exits nonzero if anything
fails.  Coset tables are built once per process and shared by the suites
that ask for them; nothing is cached on disk.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from steinberg.suites import SUITES, SuiteConfig, run_suite


def main():
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    ok = True
    grand_total = time.perf_counter()
    for name in sorted(SUITES):
        t0 = time.perf_counter()
        report = run_suite(SuiteConfig(suite=name))
        dt = time.perf_counter() - t0
        sys.stdout.write(report.to_text())
        sys.stdout.write(f"  ({dt:.1f}s)\n")
        if outdir:
            (outdir / f"{name}.json").write_text(report.to_json())
        ok = ok and report.verdict == "pass"
    print(f"total: {time.perf_counter() - grand_total:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
