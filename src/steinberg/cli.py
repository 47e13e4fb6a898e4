"""Command-line runner for the verification suites.

Configuration comes from a JSON document (--config) or from flags; each
config of the document is read with the flags laid over it, so --suite
also names the suite of a config that has none.  The JSON report written
with --out is canonical (sorted keys, no timings), so identical
configurations produce identical bytes.  --tier is exact (the default:
a word check compares cosets in the group's table) or matrix (it
compares images under phi), and --ideal is a JSON list of element
literals.  Exit status is 0 exactly when every requested suite passes, and 2
when neither --suite nor --config is given, when the --config document
cannot be read, names an unknown suite or has a field that is unknown or
of the wrong type, when its 'suites' is not a nonempty list or comes with
another key, when --suite comes with a --config document that does
not hold exactly one suite, and on every config that suites.config_error
rejects: a ring spec or a root system name that does not parse or is
given twice, a ring, a system, an --ideal or an --n that the suite would
not read, or an --ideal of relative-generation, or its default (X), that
does not resolve over the suite's ring.  A --out that cannot be opened for
writing also exits 2, before any suite runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import fields

from .suites import SUITES, TIERS, SuiteConfig, config_error, run_suite


def build_parser():
    parser = argparse.ArgumentParser(
        prog="steinberg-verify",
        description="Run desk-scale verification suites for Steinberg-group identities.",
    )
    parser.add_argument("--config", help="JSON config file (single suite or {'suites': [...]})")
    parser.add_argument("--suite", choices=sorted(SUITES), help="suite to run")
    parser.add_argument("--ring", action="append", dest="rings", metavar="SPEC",
                        help="ring spec (repeatable), e.g. z/6, f2, quo(poly(f2,X),[0,0,1])")
    parser.add_argument("--system", action="append", dest="systems", metavar="NAME",
                        help="root system name (repeatable), e.g. A3, D4")
    parser.add_argument("--ideal", default=None, help="ideal generators as a JSON list of element literals")
    parser.add_argument("--n", type=int, default=None, help="matrix size for the linear-family suites")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--tier", choices=TIERS, default=None,
                        help="how word checks compare: cosets in the group's table (exact, the default) "
                        "or images under phi (matrix)")
    parser.add_argument("--max-cosets", type=int, default=None)
    parser.add_argument("--out", help="write the canonical JSON report here")
    parser.add_argument("--format", choices=("json", "text"), default="text",
                        help="what to print on stdout")
    return parser


def _configs_from_args(args):
    """The configs to run: the flags laid over each config document (or over
    an empty one), each result validated by SuiteConfig.from_dict."""
    known = {f.name for f in fields(SuiteConfig)}
    flags = {k: v for k, v in vars(args).items() if k in known and v is not None}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ValueError(f"cannot read --config {args.config}: {exc}") from None
        docs = [doc]
        if isinstance(doc, dict) and "suites" in doc:
            if len(doc) != 1:
                raise ValueError(f"a document with 'suites' has no other key, got {sorted(doc)}")
            docs = doc["suites"]
            if not (isinstance(docs, list) and docs):
                raise ValueError(f"'suites' must be a nonempty list of config documents, got {docs!r}")
        if args.suite and len(docs) != 1:
            raise ValueError(f"--suite needs a --config of one suite, got {len(docs)}")
    elif args.suite:
        docs = [{}]
    else:
        raise ValueError("need --suite or --config")
    return [SuiteConfig.from_dict({**doc, **flags} if isinstance(doc, dict) else doc) for doc in docs]


def _usage_error(error):
    print(f"steinberg-verify: error: {error}", file=sys.stderr)
    return 2


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        configs = _configs_from_args(args)
    except ValueError as exc:
        return _usage_error(exc)
    for cfg in configs:
        error = config_error(cfg)
        if error:
            return _usage_error(error)
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext()
    except OSError as exc:
        return _usage_error(f"cannot write --out {args.out}: {exc}")
    ok = True
    with out:
        for cfg in configs:
            report = run_suite(cfg)
            if args.out:
                out.write(report.to_json())
            sys.stdout.write(report.to_text() if args.format == "text" else report.to_json())
            if report.verdict != "pass":
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
