"""Layer spans and counters for the traced run, plus the layer probes.

The tracer wraps public functions of ``steinberg`` from outside the package:
each wrapped call records a span (calls, total time, self time), where self
time is the span's duration minus the time its child spans cover.  Ring
arithmetic is only counted: a span per ``p_add`` would cost more than the
addition.  Spans are aggregated in memory by name, never written per call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import random
import statistics
import time
from collections import Counter

# (span name, module, attribute, report calls too); "Class.method" wraps a
# method.  Every span is reported as <name>.self_s.
LAYER_FUNCTIONS = (
    ("words.phi", "steinberg.words", "phi", True),
    ("words.simplify", "steinberg.words", "simplify", True),
    ("matrices.mul", "steinberg.matrices", "RMatrix.__mul__", True),
    ("matrices.group_order", "steinberg.matrices", "matrix_group_order", False),
    ("vdk.x_small", "steinberg.vdk", "x_small", True),
    ("vdk.canonical_decomposition", "steinberg.vdk", "canonical_decomposition", True),
    ("vdk.X_gen", "steinberg.vdk", "X_gen", True),
    ("vdk.Y_gen", "steinberg.vdk", "Y_gen", True),
    ("vdk.xeqy_words", "steinberg.vdk", "xeqy_words", True),
    ("vdk.t_map", "steinberg.vdk", "t_map", True),
    ("fp.steinberg_presentation", "steinberg.fp", "steinberg_presentation", False),
    ("fp.enumerate_steinberg", "steinberg.fp", "enumerate_steinberg", True),
    ("fp.todd_coxeter", "steinberg.fp", "todd_coxeter", True),
    ("fp.k2_compute", "steinberg.fp", "k2_compute", False),
    ("fp.word_tester", "steinberg.fp", "WordTester.exact_equal", True),
    ("fp.word_tester", "steinberg.fp", "WordTester.exact_trivial", True),
    ("fp.rep_letters", "steinberg.fp", "CosetTable.rep_letters", False),
    ("fp.orbit_with_witnesses", "steinberg.fp", "orbit_with_witnesses", False),
)
RING_METHODS = ("p_add", "p_mul", "p_neg")
SUITE_PREFIX = "suites."

# Rings of the arithmetic probe, by metric suffix.
PROBE_RINGS = (
    ("zmod6", "z/6"),
    ("f3", "f3"),
    ("prod_f2_f3", "prod(f2,f3)"),
    ("f2eps", "quo(poly(f2,X),[0,0,1])"),
    ("semi_z_2", "semi(z,2)"),
)
PHI_LENGTHS = (250, 4000)


class TraceError(RuntimeError):
    """A function the tracer must wrap is missing."""


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.covered_s = 0.0  # time inside outermost non-suite spans
        self._stack = []  # [name, child_s] per open span
        self._undo = []
        self._ring_calls = [0]

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, t0):
        dur = time.perf_counter() - t0
        name, child_s = self._stack.pop()
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child_s
        if self._stack:
            self._stack[-1][1] += dur
        if not name.startswith(SUITE_PREFIX) and (
            not self._stack or self._stack[-1][0].startswith(SUITE_PREFIX)
        ):
            self.covered_s += dur

    @contextlib.contextmanager
    def span(self, name):
        t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(t0)

    def _wrap(self, name, fn):
        enter, exit_ = self._enter, self._exit
        count = self._count_enumeration if name == "fp.todd_coxeter" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(t0)
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _count_enumeration(self, args, kwargs, table):
        pres = args[0]
        subgroup = args[1] if len(args) > 1 else kwargs.get("subgroup_words", ())
        self.counts["fp.gens"] += pres.ngens
        self.counts["fp.relators"] += len(pres.relators)
        self.counts["fp.subgroup_words"] += len(subgroup)
        self.counts["fp.todd_coxeter.index"] += table.n
        if self._stack and self._stack[-1][0] == "fp.enumerate_steinberg":
            self.counts["fp.memo_misses"] += 1

    # -- installing ----------------------------------------------------

    def install(self):
        """Wrap every layer function, rebinding it in every steinberg module
        that holds it, and count ring arithmetic."""
        modules = _package_modules()
        for name, modname, attr, _ in LAYER_FUNCTIONS:
            mod = importlib.import_module(modname)
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(mod, clsname, None)
                if cls is None or meth not in vars(cls):
                    raise TraceError(f"{modname}.{attr} is missing")
                self._set(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                raise TraceError(f"{modname}.{attr} is missing")
            wrapper = self._wrap(name, orig)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._set(holder, key, wrapper)
        rings = importlib.import_module("steinberg.rings")
        box = self._ring_calls
        for cls in _subclasses(rings.Ring):
            for meth in RING_METHODS:
                if meth in vars(cls):
                    self._set(cls, meth, _counted(vars(cls)[meth], box))
        return self

    def _set(self, holder, key, value):
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self):
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    @property
    def ring_calls(self):
        return self._ring_calls[0]


def _counted(fn, box):
    @functools.wraps(fn)
    def counted(*args):
        box[0] += 1
        return fn(*args)

    return counted


def _package_modules():
    """The package and all its modules, imported before anything is wrapped:
    a module imported later would bind wrappers by name and keep them."""
    package = importlib.import_module("steinberg")
    return [package] + [
        importlib.import_module(f"steinberg.{info.name}") for info in pkgutil.iter_modules(package.__path__)
    ]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


# ---------------------------------------------------------------------------
# layer probes (run untraced)


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def ring_probe(seed, ops=2000, reps=7):
    """ns per ``x*y+x`` in each probe ring, through Elem and through payloads."""
    from steinberg.rings import Elem, make_ring

    rng = random.Random(seed)
    out = {}
    for label, spec in PROBE_RINGS:
        ring = make_ring(spec)
        if ring.is_finite:
            pool = list(ring.payloads())
            pick = lambda: pool[rng.randrange(len(pool))]  # noqa: E731
        else:  # semi(z,2): small integers plus small multiples of the ideal
            pick = lambda: ring.from_literal(  # noqa: E731
                [rng.randrange(-3, 4), [[0, 0], [rng.randrange(-3, 4), 0]]]
            )
        pays = [(pick(), pick()) for _ in range(ops)]
        elems = [(Elem(ring, a), Elem(ring, b)) for a, b in pays]
        add, mul = ring.p_add, ring.p_mul

        def by_elem():
            for x, y in elems:
                x * y + x

        def by_payload():
            for a, b in pays:
                add(mul(a, b), a)

        out[f"rings.elem_ns.{label}"] = _median_time(by_elem, reps) / ops * 1e9
        out[f"rings.payload_ns.{label}"] = _median_time(by_payload, reps) / ops * 1e9
    return out


def phi_probe(seed, reps=3):
    """µs per letter of ``phi`` on random A3 words over z/6."""
    from steinberg import words
    from steinberg.rings import Elem, make_ring
    from steinberg.vdk import linear_system

    rng = random.Random(seed)
    system, ring = linear_system(4), make_ring("z/6")
    pool = [p for p in ring.payloads() if p != ring.zero_p]
    out = {}
    for length in PHI_LENGTHS:
        letters = [
            (rng.randrange(len(system.roots)), Elem(ring, pool[rng.randrange(len(pool))]))
            for _ in range(length)
        ]
        w = words.StWord(system, ring, letters)
        out[f"matrices.phi_us_per_letter.len{length}"] = (
            _median_time(lambda: words.phi(w), reps) / length * 1e6
        )
    return out


def build_system_probe(systems, reps=5):
    from steinberg import roots

    return _median_time(lambda: [roots.build_system(s) for s in systems], reps)


# ---------------------------------------------------------------------------
# the per-layer metrics of a traced pass

def layer_metrics(tracer, suites, traced_wall, overhead):
    """{metric name: (value, unit)} from a finished traced pass.

    ``suites`` names every suite that gets a ``suites.<suite>.s`` metric;
    ``overhead`` is the traced pass's time over the untraced one's."""
    out = {"rings.calls": (tracer.ring_calls, "count")}
    reported = {name: with_calls for name, _, _, with_calls in LAYER_FUNCTIONS}
    for name, with_calls in reported.items():
        if with_calls:
            out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for key in ("fp.gens", "fp.relators", "fp.subgroup_words", "fp.todd_coxeter.index"):
        out[key] = (tracer.counts[key], "count")
    tc_self = tracer.self_s("fp.todd_coxeter")
    out["fp.cosets_per_s"] = (tracer.counts["fp.todd_coxeter.index"] / tc_self if tc_self else 0.0, "1/s")
    enum_calls, misses = tracer.calls("fp.enumerate_steinberg"), tracer.counts["fp.memo_misses"]
    out["fp.memo_hit_ratio"] = ((enum_calls - misses) / enum_calls if enum_calls else 0.0, "ratio")
    suites_self = 0.0
    for suite in suites:
        name = SUITE_PREFIX + suite
        out[f"{name}.s"] = (tracer.stats.get(name, (0, 0.0, 0.0))[1], "s")
        suites_self += tracer.self_s(name)
    out["suites.self_s"] = (suites_self, "s")
    out["trace.coverage"] = (tracer.covered_s / traced_wall, "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out
