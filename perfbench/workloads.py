"""The three benchmark workloads: set-up, one timed pass, and the golden check.

Each workload puts a different layer of ``steinberg`` in front:

- ``enum``: fresh coset enumerations through the public entry points
  (``steinberg_presentation``, ``enumerate_steinberg``,
  ``relative_subgroup_index``); the presentation and Todd-Coxeter layer (L4)
  does nearly all the work.  St(A2,Z/4) is the central extension the
  enumerator must not collapse, and its 20 s make the pass long enough to
  average over the host's swings in speed.  The relative index runs over A2
  rather than A3, so that every run fits the time budget.
- ``verify``: seven identity suites at their default configuration; ring
  arithmetic, ``phi`` and the word builders (L1-L3) do the work, plus
  exact-tier word tracing in the St(A3,F2) table built during set-up.
- ``kernel``: the k2-exact suite over tables built during set-up; the
  spanning-tree matrix products, exhaustive centrality and the matrix BFS
  (L2 and L5) do the work, and no enumeration happens in the timed pass.

Every layer function is reached through its module attribute
(``fp.enumerate_steinberg``, not an imported name), so that the tracer's
rebinding covers the calls made from here.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import traceback

WORKLOADS = ("enum", "verify", "kernel")

# Systems each workload builds, for the roots.build_system_s probe.
SYSTEMS = {
    "enum": ("A2", "A3"),
    "verify": ("A3", "A4", "D4", "D5"),
    "kernel": ("A2", "A3"),
}

# How many times a run sets the workload up, each in a fresh interpreter:
# the one that runs the workload, then set-up-only ones.  The kernel set-up
# enumerates St(A2,Z/4), about 20 s, so one run affords it only once.
SETUP_REPS = {"enum": 9, "verify": 2, "kernel": 1}

VERIFY_SUITES = (
    "chevalley-relations",
    "vdk-identities",
    "tulenbaev-identities",
    "xeqy",
    "star-presentation",
    "psi-s-relations",
    "tmap-diagram",
)
SUITES = VERIFY_SUITES + ("k2-exact",)

# Full enumerations of the enum workload: (item key, system, ring).
ENUM_FULL = (("A3-f2", "A3", "f2"), ("A2-f3", "A2", "f3"), ("A2-z/4", "A2", "z/4"))
DUAL_NUMBERS = "quo(poly(f2,X),[0,0,1])"

# k2-exact instances of the kernel workload: (system, ring), one suite run each.
KERNEL_PAIRS = (("A2", "f2"), ("A3", "f2"), ("A2", "z/4"))
KERNEL_FIELDS = ("st_order", "kernel_order", "image_order")

NO_RANDOMNESS = {
    "enum": "enum enumerates fixed presentations and uses no randomness",
    "kernel": "kernel runs k2-exact, which is exhaustive and uses no randomness",
}


def setup(name):
    """Import the package and build what the timed pass needs."""
    from steinberg import fp, rings, roots, suites  # noqa: F401  (import is set-up)

    if name == "enum":
        ring = rings.make_ring(DUAL_NUMBERS)
        ideal = rings.FGIdeal(ring, [ring.gen()])
        return {
            "full": [(key, roots.build_system(s), rings.make_ring(r)) for key, s, r in ENUM_FULL],
            "relative": (roots.build_system("A2"), ring, rings.split_data(ring, ideal)),
        }
    if name == "verify":
        # vdk, tulenbaev, xeqy and star test words in St(A3,F2); it is the
        # only table these suites request.
        _warm_table("A3", "f2")
        return {}
    if name == "kernel":
        for system, ring in KERNEL_PAIRS:
            _warm_table(system, ring)
        return {}
    raise ValueError(f"unknown workload {name!r}; have {WORKLOADS}")


def _warm_table(system, ring):
    from steinberg import fp, rings, roots

    sp = fp.steinberg_presentation(roots.build_system(system), rings.make_ring(ring))
    fp.enumerate_steinberg(sp)


def pass_steps(name, state, seed, span=None):
    """The steps of one timed pass, in order.

    Each step is a callable returning (instances, outcomes by item key); the
    benchmark times the steps one by one.  ``span(name)`` opens a suite-level
    span in traced runs.  An item whose computation raises is reported with
    an ``error`` outcome, which never matches the golden result.
    """
    span = span or (lambda _name: contextlib.nullcontext())
    if name == "enum":
        from steinberg import fp

        fp._MEMO.clear()  # every pass enumerates from scratch
        steps = [functools.partial(_enumerate, *item) for item in state["full"]]
        return steps + [functools.partial(_relative, *state["relative"])]
    if name == "verify":
        docs = [{"suite": s, "seed": seed} for s in VERIFY_SUITES]
    elif name == "kernel":
        docs = [{"suite": "k2-exact", "systems": [s], "rings": [r]} for s, r in KERNEL_PAIRS]
    else:
        raise ValueError(f"unknown workload {name!r}; have {WORKLOADS}")
    return [functools.partial(_suite, doc, span) for doc in docs]


def _enumerate(key, datum, ring):
    from steinberg import fp

    try:
        index = fp.enumerate_steinberg(fp.steinberg_presentation(datum, ring)).n
    except Exception:
        return 0, {key: _error()}
    return index, {key: {"index": index}}


def _relative(datum, ring, split):
    from steinberg import fp

    key = "relative-A2-f2[eps]"
    try:
        rep = fp.relative_subgroup_index(datum, ring, split)
    except Exception:
        return 0, {key: _error()}
    return rep.index + rep.quotient_order, {
        key: {"index": rep.index, "quotient_order": rep.quotient_order}
    }


def _suite(doc, span):
    from steinberg import suites

    cfg = suites.SuiteConfig.from_dict(doc)
    try:
        with span(f"suites.{cfg.suite}"):
            report = suites.run_suite(cfg)
    except Exception:
        return 0, {f"{cfg.suite}/{','.join(cfg.systems)}/{','.join(cfg.rings)}": _error()}
    out = {}
    for c in report.checks:
        got = {
            "tier": c.tier,
            "instances": c.instances,
            # for k2-exact, a failed centrality or BFS cross-check is a failure
            "failures": len(c.failures),
            "inconclusive": c.inconclusive,
        }
        # only the fields the golden results pin; info may gain counters
        for k in KERNEL_FIELDS:
            if c.info and k in c.info:
                got[k] = c.info[k]
        out[f"{cfg.suite}/{c.name}"] = got
    return sum(c.instances for c in report.checks), out


def _error():
    traceback.print_exc(file=sys.stderr)
    return {"error": traceback.format_exc(limit=1).strip().splitlines()[-1]}


def failed_items(outcomes, golden):
    """Item keys whose outcome is missing, extra or differs from the golden one."""
    return sorted(k for k in set(outcomes) | set(golden) if outcomes.get(k) != golden.get(k))
