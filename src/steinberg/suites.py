"""Batch verification suites with deterministic, byte-stable reports.

Every suite is a pure function of its SuiteConfig: sampling is seeded, all
iteration orders are fixed, and the canonical JSON rendering carries no
wall-clock data, so re-running a config reproduces the report byte for
byte.  Failures always carry a witness (the ring, the vectors, the words
involved); a check that cannot decide (caps, unsupported ring class)
counts as inconclusive, which fails the overall verdict without claiming
falsity.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import pickle
import random
import select
import signal
import time
from dataclasses import dataclass, field, fields

import numpy

from . import words as W
from .fp import (
    WordTester,
    k2_compute,
    orbit_with_witnesses,
    relative_subgroup_index,
    star_presentations,
)
from .matrices import (
    Inconclusive,
    RMatrix,
    RVector,
    basis_vector,
    transvection,
    vector,
)
from .rings import (
    Elem,
    FGIdeal,
    RingError,
    UnsupportedRingError,
    _is_int,
    lin_solve,
    localization,
    make_ring,
    split_data,
)
from .roots import NoMatrixRealization, RootSystemError, a3_chain, build_system
from .vdk import (
    FSymbol,
    OrbitVector,
    SSymbol,
    X_gen,
    Y_gen,
    basis_orbit_vector,
    decomposition_terms,
    iota,
    linear_system,
    psi_map,
    t_map,
    tul_word,
    word_memo,
    x_small,
    xeqy_words,
)
from .words import StWord, phi, simplify


@dataclass
class CheckRecord:
    name: str
    tier: str
    instances: int = 0
    failures: list = field(default_factory=list)
    inconclusive: int = 0
    wall_time: float = 0.0
    info: dict = None

    def fail(self, **witness):
        if len(self.failures) < 32:
            self.failures.append(witness)


# the word-test tiers a config can ask for (_word_test)
TIERS = ("exact", "matrix")


@dataclass
class SuiteConfig:
    suite: str
    rings: tuple = ()
    systems: tuple = ()
    n: int = 4
    ideal: str = ""
    samples: int = 300
    seed: int = 0
    tier: str = "exact"
    max_cosets: int = 10**6

    @staticmethod
    def from_dict(d):
        """The config of a JSON document; ValueError names a field that is
        missing, unknown or of the wrong type."""
        if not isinstance(d, dict) or "suite" not in d:
            raise ValueError(f"a config document is an object with a 'suite', got {d!r}")
        known = [f.name for f in fields(SuiteConfig)]
        for k in d:
            if k not in known:
                raise ValueError(f"unknown config field {k!r}; have {known}")
        if not isinstance(d["suite"], str):
            raise ValueError(f"config field 'suite' must be a string, got {d['suite']!r}")
        cfg = SuiteConfig(suite=d["suite"])
        for k in ("n", "samples", "seed", "max_cosets"):
            if k in d:
                if not _is_int(d[k]):
                    raise ValueError(f"config field {k!r} must be an integer, got {d[k]!r}")
                setattr(cfg, k, d[k])
        for k in ("rings", "systems"):
            if k in d:
                if not (isinstance(d[k], list) and all(isinstance(x, str) for x in d[k])):
                    raise ValueError(f"config field {k!r} must be a list of strings, got {d[k]!r}")
                setattr(cfg, k, tuple(d[k]))
        if "ideal" in d:
            if not isinstance(d["ideal"], str):
                raise ValueError(f"config field 'ideal' must be a string, got {d['ideal']!r}")
            cfg.ideal = d["ideal"]
        if "tier" in d:
            if d["tier"] not in TIERS:
                raise ValueError(f"config field 'tier' must be one of {', '.join(TIERS)}, got {d['tier']!r}")
            cfg.tier = d["tier"]
        return cfg

    def to_dict(self):
        """The config as JSON-able fields, tuples as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


@dataclass
class VerificationReport:
    suite: str
    config: dict
    checks: list
    warnings: list = field(default_factory=list)

    @property
    def verdict(self):
        if any(c.failures for c in self.checks):
            return "fail"
        if any(c.inconclusive for c in self.checks):
            return "inconclusive"
        return "pass"

    def to_json(self):
        obj = {
            "schema": 1,
            "suite": self.suite,
            "config": self.config,
            "verdict": self.verdict,
            "warnings": list(self.warnings),
            "checks": [
                {
                    "name": c.name,
                    "tier": c.tier,
                    "instances": c.instances,
                    "failures": c.failures,
                    "inconclusive": c.inconclusive,
                    **({"info": c.info} if c.info else {}),
                }
                for c in self.checks
            ],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self):
        lines = [f"suite {self.suite}: {self.verdict}"]
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        for c in self.checks:
            status = "FAIL" if c.failures else "inconclusive" if c.inconclusive else "ok"
            lines.append(
                f"  [{status}] {c.name} (tier={c.tier}, instances={c.instances}, "
                f"failures={len(c.failures)}, inconclusive={c.inconclusive}, "
                f"{c.wall_time:.2f}s)"
            )
            if status == "inconclusive" and "reason" in (c.info or {}):
                lines.append(f"      reason: {c.info['reason']}")
            for f in c.failures[:3]:
                lines.append(f"      witness: {json.dumps(f, sort_keys=True)}")
        return "\n".join(lines) + "\n"


class _Check:
    """Context helper: times a check and appends it to the suite output.

    A check that stops on Inconclusive (a cap), UnsupportedRingError (a
    question this ring or ideal cannot answer) or NoMatrixRealization (a
    matrix question about a root system without matrices) counts as
    inconclusive, with the reason in its info.
    """

    def __init__(self, out, name, tier):
        self.rec = CheckRecord(name=name, tier=tier)
        self.out = out

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self.rec

    def __exit__(self, exc_type, exc, tb):
        self.rec.wall_time = time.perf_counter() - self._t0
        self.out.append(self.rec)
        if exc_type is not None and issubclass(
            exc_type, (Inconclusive, UnsupportedRingError, NoMatrixRealization)
        ):
            self.rec.inconclusive += 1
            self.rec.info = {**(self.rec.info or {}), "reason": str(exc)}
            return True
        return False


# A spread cuts the items after the first into at most this many contiguous
# chunks per child, which the children take from one queue as each finishes
# its last: small enough that they finish close together, and contiguous so
# that neighbouring items, which build the same memoized words, mostly run in
# one process.  3 per CPU was measured 6 % slower (with this process taking
# chunks as well).
_CHUNKS_PER_CPU = 8


def _spread(task, items):
    """[task(x) for x in items], computed on every CPU this process may use.

    The first item runs here before anything forks, so that what a task
    builds at its first call, such as the table of an exact word test, is
    built once, in the check that asked for it, and shared with the
    children.  The other items are cut into contiguous chunks, at most
    _CHUNKS_PER_CPU per child, and the numbers of the chunks are written
    into one pipe, the queue, before k children fork (k = min(CPUs, items
    after the first)).  Each child takes the next chunk from the queue until
    it reads empty and pickles its {chunk: results} back over a pipe of its
    own, while this process waits: what runs here, and so what a tracer in
    this process counts, is the same at every CPU count and every timing.
    The results are merged in item order, so a caller sees the serial list.
    A child stops at the first item that raises and empties the queue, and
    the exception raised here is that of the lowest-numbered item that
    raised, whichever child ran it, pickled (_portable): every item before
    it ran, since chunks leave the queue in order, so that is the exception
    the serial loop raises.  Children are always reaped, and with one CPU,
    or one item after the first, nothing forks.  task may be a closure: the
    children share this process's memory as of the fork, and only results
    cross the pipes.  A task must not draw on a random stream, whose order
    would then depend on the process, nor wait on another thread, which a
    forked child does not have.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = min(cpus, len(items) - 1)
    if k <= 1:
        return [task(x) for x in items]
    first = task(items[0])
    # two bytes a chunk number, and the whole queue in one write that the
    # pipe's buffer, at least PIPE_BUF bytes, holds before anyone reads
    rest = len(items) - 1
    chunks = min(rest, _CHUNKS_PER_CPU * k, select.PIPE_BUF // 2)
    bounds = [1 + j * rest // chunks for j in range(chunks + 1)]
    queue, w = os.pipe()
    try:
        os.write(w, b"".join(j.to_bytes(2, "little") for j in range(chunks)))
    finally:
        os.close(w)

    def work():
        """Run chunks from the queue until it reads empty or an item raises:
        the results by chunk, and the (item, exception) that stopped it."""
        done = {}
        while token := os.read(queue, 2):
            j = int.from_bytes(token, "little")
            out = done[j] = []
            for i in range(bounds[j], bounds[j + 1]):
                try:
                    out.append(task(items[i]))
                except BaseException as exc:
                    while os.read(queue, select.PIPE_BUF):  # no later chunk holds a lower item
                        pass
                    return done, (i, _portable(exc))
        return done, None

    children = []  # (pid, read end of its pipe)
    try:
        for _ in range(k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: run chunks, send their results, leave
                try:
                    os.close(r)
                    try:
                        blob = pickle.dumps(work())
                    except BaseException as exc:  # ranked after every item's exception
                        blob = pickle.dumps(({}, (len(items), _portable(exc))))
                    with os.fdopen(w, "wb") as fh:
                        fh.write(blob)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        done, error = {}, None
        for pid, r in children:
            with os.fdopen(r, "rb", closefd=False) as fh:
                blob = fh.read()
            if not blob:
                raise RuntimeError(f"a process of the spread over {len(items)} items ended without its results")
            theirs, raised = pickle.loads(blob)
            done.update(theirs)
            if raised is not None and (error is None or raised[0] < error[0]):
                error = raised
        if error is not None:
            raise error[1]
    finally:
        os.close(queue)
        for pid, r in children:
            os.close(r)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    return [first, *itertools.chain.from_iterable(done[j] for j in range(chunks))]


def _portable(exc):
    """exc if pickle rebuilds it, else a RuntimeError naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _run(task, item):
    """task(rec, item) on a new record: the instances and failures it adds."""
    rec = CheckRecord(name="", tier="")
    task(rec, item)
    return rec.instances, rec.failures


def _spread_into(rec, task, items):
    """Run task(rec, item), which adds an item's instances and failures to
    the record it is given, over the items with _spread, and add them to
    rec in item order, as the serial loop would."""
    for instances, failures in _spread(functools.partial(_run, task), items):
        rec.instances += instances
        for witness in failures:
            rec.fail(**witness)


def _same(lhs, rhs, equal=None):
    """Whether two computed values agree: equal(lhs, rhs) for two words
    compared at a tier (_word_test), lhs == rhs for anything else, and one
    verdict per matrix for numpy batches of matrices indexed [..., i, j].
    Every check but amalgam's, which asks whether a root heads an A3 chain,
    decides its failures here, so a test that replaces this function can
    make each of them fail."""
    if equal is not None:
        return equal(lhs, rhs)
    if isinstance(lhs, numpy.ndarray):
        return (lhs == rhs).all(axis=(-2, -1))
    return lhs == rhs


def _phi_equal(w1, w2):
    return phi(w1) == phi(w2)


def _word_test(config, system, ring):
    """The word equality of the config's tier over (system, ring), and the
    tier's label: equal cosets in the table of St(system, ring), which the
    first exact comparison builds (in this process: see _spread), or equal
    images under phi."""
    if config.tier == "matrix":
        return _phi_equal, "matrix"
    return WordTester(system, ring, max_cosets=config.max_cosets).exact_equal, "exact"


def _want(config, floor, cap=None):
    """Sampled-check budget: an explicit zero sample count means vacuous."""
    if config.samples == 0:
        return 0
    out = max(config.samples, floor) if cap is None else min(max(config.samples, floor), cap)
    return out


def _lit(x):
    """JSON-able rendering of elements/vectors/words for witnesses."""
    if isinstance(x, Elem):
        return x.ring.to_literal(x.payload)
    if isinstance(x, (RVector, StWord)):
        return x.to_literal()
    return x


def _rand_elem(ring, rng):
    return Elem(ring, rng.randrange(ring.size()))


def _rand_vector(ring, n, rng):
    q = ring.size()
    return RVector(ring, tuple(rng.randrange(q) for _ in range(n)))


def _rand_orthogonal(ring, n, rng, to):
    """Rejection-sample a vector orthogonal to `to`."""
    while True:
        v = _rand_vector(ring, n, rng)
        if ring.p_dot(to.data, v.data) == ring.zero_p:
            return v


def _rand_word(system, ring, rng, length):
    letters = []
    nroots = len(system.roots)
    for _ in range(length):
        letters.append((rng.randrange(nroots), _rand_elem(ring, rng)))
    return simplify(StWord(system, ring, letters))


# ---------------------------------------------------------------------------
# chevalley-relations


# Each batched temporary of a numpy check holds at most about this many
# bytes (0.3 MB): in chevalley, the codes of one chunk of (beta, r) times
# every s, as uint8, whose row operations index in uint32 (4 bytes a code);
# in F- and S-additivity, the index arrays of one chunk of table products.
# This keeps a suite's peak memory where its unbatched loop had it.
_BATCH_BYTES = 300_000
# chevalley refuses a ring whose exhaustive check passes this many instances
# (seconds of work on one CPU); below it, every system with matrices keeps
# one (beta, r) of the batch, over every s, under _BATCH_BYTES.
CHEVALLEY_CAP = 10**7


def _chevalley_tables(datum):
    """Per root, its unipotent entries (i, j, sign); per ordered root pair,
    ("skip", 0) for equal or opposite roots, (index of alpha+beta, N_{alpha,beta})
    when alpha+beta is a root, and (None, 0) otherwise."""
    def pair(al, be):
        if be == al or be == -al:
            return ("skip", 0)
        return (datum.index[al + be], datum.sign(al, be)) if (al + be) in datum else (None, 0)

    pats = [datum.unipotent_entries(ri) for ri in range(len(datum.roots))]
    return pats, [[pair(al, be) for be in datum.roots] for al in datum.roots]


def suite_chevalley(config):
    """One check per (system, ring).  Which rings a check can run on is
    decided here: the finite ones, which all have code tables, with at most
    CHEVALLEY_CAP instances (A2, the smallest system, counts 30 (|R| - 1)^2).
    The checks that run, of every system, are spread over the CPUs at once,
    and each check's wall_time is that of the process that ran it."""
    systems = config.systems or ("A3", "A4", "D4", "D5")
    rings = config.rings or tuple(f"z/{k}" for k in range(2, 10))
    checks, todo = [], []  # todo: (record, tables, ring) of the checks that run
    for sysname in systems:
        datum = build_system(sysname)
        tables = None  # built in the first check, which may find no matrices
        for ringspec in rings:
            ring = make_ring(ringspec)
            with _Check(checks, f"chevalley-{sysname}-{ringspec}", "matrix") as rec:
                tables = tables or (*_chevalley_tables(datum), datum.matrix_size())
                live = sum(tag != "skip" for row in tables[1] for tag, _ in row)  # (alpha, beta) pairs
                count = (len(tables[0]) + live) * (ring.size() - 1) ** 2  # raises over an infinite ring
                if count > CHEVALLEY_CAP:
                    raise UnsupportedRingError(f"{ring.spec} gives {count} instances, past CHEVALLEY_CAP")
                todo.append((rec, tables, ring))

    def timed(item):
        t0 = time.perf_counter()
        return (*_run(functools.partial(_chevalley_check, *item[0]), item[1]), time.perf_counter() - t0)

    for (rec, *_), (instances, failures, seconds) in zip(todo, _spread(timed, [t[1:] for t in todo])):
        rec.instances, rec.failures = instances, failures
        rec.wall_time += seconds
    return checks


def _left_unipotent(m, at, d, fused):
    """m <- X m in place, for root unipotents X = 1 + D on m's rows of codes.

    `at` lists index tuples (target rows, source rows) into m, one per
    position e of D: a row, or with index arrays one row per lane of a
    batch.  d[e], broadcasting against those rows, is c q^2 in uint32 for
    c the code of D's entry at e and q = len(fused).  A target code x with
    source code y becomes fused[c, x, y], the code of x + c y, read at the
    flat index c q^2 + x q + y.  The sources are read before any row
    changes, so a target that is another position's source still gives X m.
    """
    flat = [numpy.add(m[src], d[e], dtype=numpy.uint32) for e, (_, src) in enumerate(at)]
    for (tgt, _), index in zip(at, flat):
        index += numpy.multiply(m[tgt], len(fused), dtype=numpy.uint32)
        m[tgt] = numpy.take(fused, index)


def _chevalley_check(pats, sums, size, rec, ring):
    """Additivity and the commutator formula, exhaustively, into rec.

    Entries are the ring's codes, as uint8.  Every factor is a root
    unipotent X = 1 + D, so X M adds multiples of rows of M to other rows
    (_left_unipotent), each position by one gather from the fused table
    fused[d, x, y] = add[x][mul[d][y]].  D is read off the table's matrix
    x_root(k) itself, at the positions of the root's entries, so any table
    is multiplied as written.  Products are held rows first, as
    batch[row, lane, r, s, col] with one root per lane: x_root(r) applied
    to x_root(s) for additivity, and for the commutators of one alpha,
    x_alpha(r) x_beta(s) x_alpha(-r) applied to x_beta(-s), which updates
    whole row slabs for alpha and one advanced-indexed row per lane for
    beta.  r and s run over the nonzero codes, every code but zero_p, and
    -r is read off the neg table.  The batches are cut over (lane, r),
    every s in each, at most _BATCH_BYTES of codes.  Failures are reported
    in the order of the loops over (root, r, s) and (alpha, beta, r, s),
    with r and s as ring literals.
    """
    q, zero, nroots = ring.size(), ring.zero_p, len(pats)
    add, mul, neg = (numpy.array(t, dtype=numpy.uint8) for t in ring.tables)
    fused = numpy.empty((q, q, q), dtype=numpy.uint8)  # C order, which numpy.take reads without a copy
    for c in range(q):
        fused[c] = add[:, mul[c]]  # fused[d, x, y], the code of x + d y
    nonzero = numpy.flatnonzero(numpy.arange(q) != zero)
    # mats[row, ri, k, col] is x_root(k) for the code k; x_root(zero_p) is the identity
    mats = numpy.full((size, nroots, q, size), zero, dtype=numpy.uint8)
    mats[numpy.arange(size), ..., numpy.arange(size)] = ring.one_p
    for ri, entries in enumerate(pats):
        for i, j, sign in entries:  # sign is 1 or -1
            mats[i, ri, :, j] = numpy.arange(q) if sign > 0 else neg
    # the positions of D per root, padded with zero updates of row 0, and
    # d[e, ri, k] = q^2 times the code of (x_root(k) - 1)[position e]
    places = [list(dict.fromkeys((i, j) for i, j, _ in entries)) for entries in pats]
    width = max(map(len, places), default=0)
    tgt, src = (numpy.zeros((nroots, width), dtype=numpy.intp) for _ in "ts")
    d = numpy.full((width, nroots, q), zero * q * q, dtype=numpy.uint32)
    for ri, at in enumerate(places):
        for e, (i, j) in enumerate(at):
            tgt[ri, e], src[ri, e] = i, j
            d[e, ri] = add[mats[i, ri, :, j], neg[ring.one_p if i == j else zero]] * numpy.uint32(q * q)
    k = max(1, _BATCH_BYTES // max(q - 1, 1) // (size * size))  # (lane, r) per batch
    rstep, lstep = max(1, min(k, q - 1)), max(1, k // max(q - 1, 1))

    def batches(roots):
        """(lanes, roots, r slice, the rows of D per lane) cutting roots x r."""
        for lo in range(0, len(roots), lstep):
            part, lane = roots[lo:lo + lstep], numpy.arange(len(roots[lo:lo + lstep]))
            rows = [((tgt[part, e], lane), (src[part, e], lane)) for e in range(width)]
            for r in range(0, q - 1, rstep):
                yield slice(lo, lo + lstep), part, slice(r, r + rstep), rows

    def decide(bad, lanes, rs, got, want):
        bad[lanes, rs] = ~_same(numpy.moveaxis(got, 0, -2), numpy.moveaxis(want, 0, -2))

    xs, dxs = mats[:, :, nonzero], d[:, :, nonzero]  # of the nonzero codes
    lit = [ring.to_literal(c) for c in nonzero.tolist()]
    total = add[nonzero[:, None], nonzero]  # [r, s], the code of r + s
    bad = numpy.zeros((nroots, q - 1, q - 1), dtype=bool)  # [root, r, s]
    for lanes, part, rs, rows in batches(numpy.arange(nroots)):
        lhs = numpy.repeat(xs[:, part, None], len(total[rs]), axis=2)
        _left_unipotent(lhs, rows, dxs[:, part, rs, None, None], fused)
        decide(bad, lanes, rs, lhs, mats[:, part[:, None, None], total[None, rs]])
    rec.instances += bad.size
    for ri, r, s in numpy.argwhere(bad):
        rec.fail(kind="additivity", root=int(ri), r=lit[r], s=lit[s])
    # commutators: [x_alpha(r), x_beta(s)] against x_{alpha+beta}(N r s), or
    # the identity x_0(0) when alpha+beta is not a root
    negs = mats[:, :, neg[nonzero]]  # x_root(-s)
    prod = mul[nonzero[:, None], nonzero]  # [r, s], the code of r s
    signed = numpy.stack((numpy.full_like(prod, zero), prod, neg[prod]))  # of N r s, by N = 0, 1 or -1 (last)
    for ai in range(nroots):
        live = [(bi, tag or 0, sign) for bi, (tag, sign) in enumerate(sums[ai]) if tag != "skip"]
        betas, tags, signs = numpy.array(live, dtype=numpy.intp).reshape(-1, 3).T
        alpha = list(zip(tgt[ai], src[ai]))
        bad = numpy.zeros((len(betas), q - 1, q - 1), dtype=bool)  # [beta, r, s]
        for lanes, part, rs, rows in batches(betas):
            r = nonzero[rs]
            comm = numpy.repeat(negs[:, part, None], len(r), axis=2)
            _left_unipotent(comm, alpha, d[:, ai, neg[r], None, None], fused)
            _left_unipotent(comm, rows, dxs[:, part, None, :, None], fused)
            _left_unipotent(comm, alpha, d[:, ai, r, None, None], fused)
            decide(bad, lanes, rs, comm, mats[:, tags[lanes, None, None], signed[signs[lanes], rs]])
        rec.instances += bad.size
        for b, r, s in numpy.argwhere(bad):
            rec.fail(kind="commutator", alpha=ai, beta=int(betas[b]), r=lit[r], s=lit[s])


# ---------------------------------------------------------------------------
# vdk-identities


def _all_vectors(ring, n):
    pool = list(ring.payloads())
    for tup in itertools.product(pool, repeat=n):
        yield RVector(ring, tup)


def suite_vdk(config):
    checks = []
    n = config.n
    rng = random.Random(config.seed)
    # x_small contract, exhaustive over the tiny fields
    for ringspec in ("f2", "f3"):
        ring = make_ring(ringspec)
        with _Check(checks, f"x_small-contract-{ringspec}-exhaustive", "matrix") as rec:
            vecs = list(_all_vectors(ring, n))
            _spread_into(rec, functools.partial(_x_small_contract_at, vecs), vecs)
    z6 = make_ring("z/6")
    with _Check(checks, "x_small-contract-z/6-random", "matrix") as rec:
        pairs = []
        while len(pairs) < _want(config, 500):
            u = _rand_vector(z6, n, rng)
            v = _rand_orthogonal(z6, n, rng, u)
            if v.zero_positions() or u.zero_positions():
                pairs.append((u, v))
        # the exhaustive check's harness, over the one v of each pair
        _spread_into(rec, lambda rec, uv: _x_small_contract_at([uv[1]], rec, uv[0]), pairs)
    # the canonical decomposition identity, exhaustive over f2 and f3
    for ringspec in ("f2", "f3"):
        ring = make_ring(ringspec)
        with _Check(checks, f"canonical-split-{ringspec}-exhaustive", "exact-arith") as rec:
            vecs = list(_all_vectors(ring, n))
            _spread_into(rec, functools.partial(_canonical_split_at, vecs), vecs)
    # X_gen / Y_gen contracts and the additivity shadow over z/6
    with _Check(checks, "xgen-ygen-contract-z/6", "matrix") as rec:
        samples = []  # (u, v and vv orthogonal to u)
        while len(samples) < _want(config, 300):
            u = _rand_vector(z6, n, rng)
            if math.gcd(z6.size(), *u.data) != 1:  # u has no certificate
                continue
            samples.append((u, _rand_orthogonal(z6, n, rng, u), _rand_orthogonal(z6, n, rng, u)))
        _spread_into(rec, _xgen_ygen_contract_at, samples)
    # exact-tier well-definedness over f2 (index and certificate choices)
    f2 = make_ring("f2")
    equal, tier = _word_test(config, linear_system(n), f2)
    vecs = list(_all_vectors(f2, n))
    with _Check(checks, "x_small-index-independence-f2", tier) as rec:
        _spread_into(rec, functools.partial(_x_small_index_at, vecs, equal), vecs)
    with _Check(checks, "xgen-certificate-independence-f2", tier) as rec:
        _spread_into(rec, functools.partial(_xgen_certificate_at, vecs, equal), vecs)
    return checks


def _x_small_contract_at(vecs, rec, u):
    """phi(x_small(u, v)) against the transvection, for every v orthogonal
    to u where u or v has a zero entry."""
    ring = u.ring
    for v in vecs:
        if ring.p_dot(u.data, v.data) != ring.zero_p:
            continue
        if not (v.zero_positions() or u.zero_positions()):
            continue
        rec.instances += 1
        if not _same(phi(x_small(u, v)), transvection(u, v)):
            rec.fail(u=_lit(u), v=_lit(v))


def _xgen_ygen_contract_at(rec, sample):
    """phi of X_gen(u, v) and Y_gen(v, u) against their transvections, and
    the additivity shadow X_gen(u, v) X_gen(u, vv) against the transvection
    of v + vv."""
    u, v, vv = sample
    cert = vector(u.ring, lin_solve(u.entries, u.ring.one()))
    rec.instances += 1
    if not _same(phi(X_gen(u, v, cert=cert)), transvection(u, v)):
        rec.fail(kind="X", u=_lit(u), v=_lit(v))
    if not _same(phi(Y_gen(v, u, cert=cert)), transvection(v, u)):
        rec.fail(kind="Y", u=_lit(v), v=_lit(u))
    lhs = phi(X_gen(u, v, cert=cert) * X_gen(u, vv, cert=cert))
    if not _same(lhs, transvection(u, v + vv)):
        rec.fail(kind="additivity-shadow", u=_lit(u), v=_lit(v), w=_lit(vv))


def _x_small_index_at(vecs, equal, rec, u):
    """x_small(u, v) over each choice of its zero slot against the first
    choice, for every v orthogonal to u with two choices or more, compared
    by `equal`."""
    ring = u.ring
    for v in vecs:
        if ring.p_dot(u.data, v.data) != ring.zero_p:
            continue
        choices = [("v", i) for i in v.zero_positions()] + [
            ("u", i) for i in u.zero_positions()
        ]
        if len(choices) < 2:
            continue
        base = x_small(u, v, index=choices[0][1], mode=choices[0][0])
        for mode, idx in choices[1:]:
            rec.instances += 1
            other = x_small(u, v, index=idx, mode=mode)
            if not _same(base, other, equal):
                rec.fail(u=_lit(u), v=_lit(v), mode=mode, index=idx)


def _xgen_certificate_at(vecs, equal, rec, u):
    """X_gen(u, v) and Y_gen(v, u) under the second and third certificate
    of u against the first, for every v orthogonal to u, compared by
    `equal`."""
    ring = u.ring
    certs = [w for w in vecs if ring.p_dot(w.data, u.data) == ring.one_p]
    if len(certs) < 2:
        return
    for v in vecs:
        if ring.p_dot(u.data, v.data) != ring.zero_p:
            continue
        base = X_gen(u, v, cert=certs[0])
        for w in certs[1:3]:
            rec.instances += 1
            if not _same(base, X_gen(u, v, cert=w), equal):
                rec.fail(kind="X", u=_lit(u), v=_lit(v), cert=_lit(w))
        baseY = Y_gen(v, u, cert=certs[0])
        for w in certs[1:3]:
            rec.instances += 1
            if not _same(baseY, Y_gen(v, u, cert=w), equal):
                rec.fail(kind="Y", u=_lit(v), v=_lit(u), cert=_lit(w))


def _canonical_split_at(vecs, rec, v):
    """The canonical decomposition of every u orthogonal to v, over every
    certificate w with w.v = 1: its terms have length n, are orthogonal to
    v, have two zero entries each and sum to u.  u and w already meet the
    hypotheses of canonical_decomposition (n >= 4 is the config's), so
    the terms come from decomposition_terms directly; they are read as
    payload tuples and summed in the ring's add table.  Terms recur across
    (u, w): each distinct term is tested, and each distinct (partial sum,
    term) added, once per v."""
    ring = v.ring
    zero, vd, dot = ring.zero_p, v.data, ring.p_dot
    n = len(vd)
    add = ring.tables[0]
    ws = [w for w in vecs if dot(w.data, vd) == ring.one_p]
    us = [u for u in vecs if dot(u.data, vd) == zero]
    sums = {}  # term -> {partial sum: partial sum + term}, or False if it fails a test
    for u in us:
        for w in ws:
            rec.instances += 1
            acc = (zero,) * n
            ok = True
            for t in decomposition_terms(u, v, w):
                td = t.data
                row = sums.get(td)
                if row is None:
                    good = len(td) == n and dot(td, vd) == zero and td.count(zero) >= 2
                    row = sums[td] = {} if good else False
                if row is False:
                    ok = False
                    continue
                total = row.get(acc)
                if total is None:
                    total = row[acc] = tuple([add[x][y] for x, y in zip(acc, td)])
                acc = total
            if not _same((acc, ok), (u.data, True)):
                rec.fail(u=_lit(u), v=_lit(v), w=_lit(w))


# ---------------------------------------------------------------------------
# tulenbaev-identities (the eight X/Y laws)


def _draw_law_samples(ring, n, rng, samples, system):
    """The data of `samples` instances of the X or Y laws, drawn in order:
    u, w orthogonal to u, certificates z (b = z^t u) and y (a = y^t u), a
    scalar c, w2 orthogonal to u and a word g of four letters."""
    out = []
    for _ in range(samples):
        u = _rand_vector(ring, n, rng)
        w = _rand_orthogonal(ring, n, rng, u)
        z = _rand_vector(ring, n, rng)
        y = _rand_vector(ring, n, rng)
        c = _rand_elem(ring, rng)
        w2 = _rand_orthogonal(ring, n, rng, u)
        out.append((u, w, z, y, c, w2, _rand_word(system, ring, rng, 4)))
    return out


def _laws_at(kind, equal, rec, sample):
    """The four X laws (kind "X") or Y laws (kind "Y") at one sample.

    The laws are written below for X, with u the fixed vector.  A Y law
    runs the same data through tul_word at kind "Y", swaps phi(g) and
    phi(g*) in the conjugation law and names the fixed vector v in its
    witnesses.
    """
    u, w, z, y, c, w2, g = sample
    b = z.dot(u)
    a = y.dot(u)
    moving = w.scale(b)
    tul = functools.partial(tul_word, kind)

    def check(law, lhs, rhs, **data):
        rec.instances += 1
        if not _same(lhs, rhs, equal):
            data = {"u" if kind == "X" else "v": u, "w": w, "b": b, "a": a, **data}
            rec.fail(law=f"{kind}-{law}", **{k: _lit(x) for k, x in data.items()})

    base = tul(u, moving, z, w, a)
    # (a) X_{u,vc}(a) = X_{u,v}(ca)
    check("scale", tul(u, moving.scale(c), z, w.scale(c), a), tul(u, moving, z, w, c * a), c=c)
    # (b) X_{uc,v}(ca) = X_{u,vc^2}(a), instantiated at v = w*b*c
    c3 = c * c * c
    lhs = tul(u.scale(c), moving.scale(c), z, w, c * a)
    check("balance", lhs, tul(u, moving.scale(c3), z, w.scale(c3), a), c=c)
    # (c) X_{u,v}(a) X_{u,v'}(a) = X_{u,v+v'}(a)
    moving2 = w2.scale(b)
    lhs = base * tul(u, moving2, z, w2, a)
    check("additivity", lhs, tul(u, moving + moving2, z, w + w2, a), w2=w2)
    # (d) g X_{u,wb}(a) g^-1 = X_{gu, g* wb}(a)
    G, Gs = phi(g), phi(W.contragredient(g))
    if kind == "Y":
        G, Gs = Gs, G
    check("conjugation", g * base * g.inverse(), tul(G * u, Gs * moving, Gs * z, Gs * w, a), g=g)


def suite_tulenbaev(config):
    checks = []
    n = config.n
    system = linear_system(n)
    f2 = make_ring("f2")
    equal, tier = _word_test(config, system, f2)
    rng = random.Random(config.seed)
    for kind in "XY":
        with _Check(checks, f"{kind.lower()}laws-f2-{tier}", tier) as rec:
            draws = _draw_law_samples(f2, n, rng, _want(config, 150, 150), system)
            _spread_into(rec, functools.partial(_laws_at, kind, equal), draws)
    for ringspec in config.rings or ("z/4", "z/6"):
        ring = make_ring(ringspec)
        rng2 = random.Random(config.seed + 1)
        want = _want(config, 75, max(75, config.samples // 4))
        for kind in "XY":
            with _Check(checks, f"{kind.lower()}laws-{ringspec}-matrix", "matrix") as rec:
                draws = _draw_law_samples(ring, n, rng2, want, system)
                _spread_into(rec, functools.partial(_laws_at, kind, _phi_equal), draws)
    return checks


# ---------------------------------------------------------------------------
# xeqy


def suite_xeqy(config):
    checks = []
    n = config.n
    f2 = make_ring("f2")
    equal, tier = _word_test(config, linear_system(n), f2)
    with _Check(checks, "xeqy-f2-exhaustive", tier) as rec:
        vecs = list(_all_vectors(f2, n))
        task = functools.partial(_xeqy_at, vecs, equal)
        _spread_into(rec, task, itertools.product(vecs, repeat=2))
    z6 = make_ring("z/6")
    rng = random.Random(config.seed)
    with _Check(checks, "xeqy-z/6-random", "matrix") as rec:
        samples = []  # the arguments of xeqy_words
        while len(samples) < _want(config, 200, max(200, config.samples // 2)):
            perm = list(range(n))
            rng.shuffle(perm)
            x3, x4, y3, y4 = (_rand_elem(z6, rng) for _ in range(4))
            b = x3 * y3 + x4 * y4
            scales = [z6.el(1), z6.el(5), b, b * 5]
            alpha = scales[rng.randrange(4)]
            beta = scales[rng.randrange(4)]
            za, zb = lin_solve([alpha], b), lin_solve([beta], b)
            if za is None or zb is None:
                continue
            u = basis_vector(z6, n, perm[0]).scale(alpha)
            v = basis_vector(z6, n, perm[1]).scale(beta)
            # the lexicographically least solutions, as lin_solve over u and v gives them
            zu = basis_vector(z6, n, perm[0]).scale(za[0])
            zv = basis_vector(z6, n, perm[1]).scale(zb[0])
            x = basis_vector(z6, n, perm[2]).scale(x3) + basis_vector(z6, n, perm[3]).scale(x4)
            y = basis_vector(z6, n, perm[2]).scale(y3) + basis_vector(z6, n, perm[3]).scale(y4)
            samples.append((x, y, u, v, b, _rand_elem(z6, rng), zu, zv))
        _spread_into(rec, _xeqy_random_at, samples)
    return checks


def _xeqy_random_at(rec, sample):
    """The five X = Y words at one sample, compared by phi."""
    x, y, u, v, b, r, zu, zv = sample
    rw = xeqy_words(x, y, u, v, b, r, zu=zu, zv=zv)
    lhs, *others = (phi(w) for w in (rw.lhs, rw.rhs, rw.g_direct, rw.path_x, rw.path_y))
    rec.instances += 1
    if not all(_same(m, lhs) for m in others):
        rec.fail(x=_lit(x), y=_lit(y), u=_lit(u), v=_lit(v), b=_lit(b), r=_lit(r))


def _xeqy_at(vecs, equal, rec, xy):
    """The five X = Y words at (x, y), over every u orthogonal to x and y
    and v orthogonal to x, y and u whose certificates exist, compared
    by `equal`."""
    x, y = xy
    ring = x.ring
    dot, zero = ring.p_dot, ring.zero_p
    b = x.dot(y)
    # the vectors orthogonal to x and y with a certificate, in vecs order
    certified = []
    for w in vecs:
        if dot(x.data, w.data) == zero and dot(w.data, y.data) == zero:
            cert = lin_solve(w.entries, b)
            if cert is not None:
                certified.append((w, vector(ring, cert)))
    for u, zu in certified:
        for v, zv in certified:
            if dot(u.data, v.data) != zero:
                continue
            rec.instances += 1
            rw = xeqy_words(x, y, u, v, b, ring.one(), zu=zu, zv=zv)
            for tag, wd in (
                ("rhs", rw.rhs),
                ("g", rw.g_direct),
                ("path_x", rw.path_x),
                ("path_y", rw.path_y),
            ):
                if not _same(rw.lhs, wd, equal):
                    rec.fail(side=tag, x=_lit(x), y=_lit(y), u=_lit(u), v=_lit(v))


# ---------------------------------------------------------------------------
# star-presentation (the two-generator-family relations and the X=Y bridge)


def suite_star(config):
    checks = []
    n = config.n
    system = linear_system(n)
    rng = random.Random(config.seed)
    # phi-tier relation checks over f2[eps]
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    ideal = FGIdeal(f2e, [f2e.gen()])
    fs = star_presentations(n, f2e, ideal)  # each u's symbols together, as _additivity_check needs

    def codes(datas):
        return numpy.array(datas, dtype=numpy.uint8).reshape(-1, n, n)

    with _Check(checks, "F-additivity-iota-f2[eps]-exhaustive", "matrix") as rec:
        mats = _spread(lambda sym: phi(iota(sym)).data, fs)
        iota_mats = [RMatrix(f2e, n, data) for data in mats]  # phi(iota(fs[k])), for three checks
        _additivity_check(
            rec, fs, codes(mats),
            lambda s1, s2: dict(u=_lit(s1.u.vec), v=_lit(s1.v), w=_lit(s2.v)),
        )
    with _Check(checks, "S-additivity-iota-f2[eps]-exhaustive", "matrix") as rec:
        # mirrored additivity for the S family: iota of S(v, u) for each F(u, v)
        mats = _spread(lambda sym: phi(iota(SSymbol(u=sym.v, v=sym.u))).data, fs)
        _additivity_check(
            rec, fs, codes(mats),
            lambda s1, s2: dict(v=_lit(s1.u.vec), u=_lit(s1.v), u2=_lit(s2.v)),
        )

    def conjugation(rec, pair):
        k1, k2 = pair
        s1, s2 = fs[k1], fs[k2]
        w1, m1, m2 = iota(s1), iota_mats[k1], iota_mats[k2]
        tuv = transvection(s1.u.vec, s1.v)
        new_u = tuv * s2.u.vec
        new_v = transvection(s1.v, -s1.u.vec) * s2.v
        witness = w1 * s2.u.witness
        rhs_word = X_gen(new_u, new_v, cert=OrbitVector(new_u, witness).cert())
        rec.instances += 1
        if not _same(m1 * m2 * phi(w1.inverse()), phi(rhs_word)):
            rec.fail(u=_lit(s1.u.vec), v=_lit(s1.v), u2=_lit(s2.u.vec), v2=_lit(s2.v))

    with _Check(checks, "conjugation-iota-f2[eps]-sampled", "matrix") as rec:
        pairs = [(rng.randrange(len(fs)), rng.randrange(len(fs))) for _ in range(_want(config, 300, 300))]
        _spread_into(rec, conjugation, pairs)
    # exact tier over f2: the F/S coincidence and the column-split relator
    f2 = make_ring("f2")
    equal, tier = _word_test(config, system, f2)
    with _Check(checks, f"FS-coincidence-f2-{tier}", tier) as rec:
        mws = [_rand_word(system, f2, rng, 5) for _ in range(_want(config, 100, 100))]
        _spread_into(rec, functools.partial(_fs_coincidence_at, equal), mws)
    with _Check(checks, f"xy-bridge-two-routes-f2-{tier}", tier) as rec:
        e1 = basis_vector(f2, n, 0)
        e2 = basis_vector(f2, n, 1)
        e3 = basis_vector(f2, n, 2)
        a = f2.one()
        lhs = X_gen(e1, e2.scale(a), cert=e1)
        rhs = Y_gen(e1.scale(a), e2, cert=e2)
        ym = Y_gen(-e3, e2, cert=e2)
        xm = X_gen(e1, e3.scale(a), cert=e1)
        comm = W.commutator(ym, xm)
        route_x = W.conjugate(ym, xm) * X_gen(e1, -(e3.scale(a)), cert=e1)
        route_y = ym * W.conjugate(xm, Y_gen(e3, e2, cert=e2))
        for tag, pair in (
            ("X=Y", (lhs, rhs)),
            ("comm=X", (comm, lhs)),
            ("routeX=X", (route_x, lhs)),
            ("routeY=Y", (route_y, rhs)),
        ):
            same = _same(*pair, equal)  # raises Inconclusive past --max-cosets
            rec.instances += 1
            if not same:
                rec.fail(route=tag)
    with _Check(checks, f"column-split-relator-f2-{tier}", tier) as rec:
        mws = [_rand_word(system, f2, rng, 5) for _ in range(_want(config, 60, 60))]
        _spread_into(rec, functools.partial(_column_split_at, equal), mws)
    with _Check(checks, "kappa-iota-f2[eps]-sampled", "matrix") as rec:
        for _ in range(_want(config, 200, 200)):
            k = rng.randrange(len(fs))
            sym = fs[k]
            rec.instances += 1
            if not _same(iota_mats[k], transvection(sym.u.vec, sym.v)):
                rec.fail(u=_lit(sym.u.vec), v=_lit(sym.v))
    return checks


def _table_matmul(add, mul, lhs, rhs):
    """The products lhs @ rhs of two batches of code matrices indexed
    [..., i, j], over the ring whose add and mul tables are the numpy
    arrays add and mul.  Every term mul[lhs[i, k], rhs[k, j]] is gathered
    at once, and the terms over k are folded with add from the first one
    on, so no code is taken for zero."""
    terms = mul[lhs[..., :, :, None], rhs[..., None, :, :]]  # [..., i, k, j]
    out = terms[..., :, 0, :]
    for k in range(1, terms.shape[-2]):
        out = add[out, terms[..., :, k, :]]
    return out


def _additivity_check(rec, syms, mats, witness):
    """phi(s1) phi(s2) against phi of the symbol (u, v1 + v2), into rec, for
    every ordered pair of symbols s1 = (u, v1) and s2 = (u, v2) with the
    same u.  syms lists the symbols with each u's together, mats[i] is the
    code matrix of syms[i] (uint8, [n, n]), and the ring has tables.

    The pairs run in chunks of about _BATCH_BYTES (8 n^3 bytes of
    temporaries per product), multiplied on the tables (_table_matmul) and
    decided through _same, one verdict per product.  The symbol (u, v1 + v2)
    is found by its (group, v) key; if it is missing, the check raises.
    Failures are reported with witness(s1, s2) in the order of the loop over
    (u, s1, s2) in syms order."""
    ring = syms[0].v.ring
    add, mul = (numpy.array(t, dtype=numpy.uint8) for t in ring.tables[:2])
    n = mats.shape[-1]
    us = [sym.u.vec.data for sym in syms]
    group = numpy.cumsum([0] + [a != b for a, b in zip(us, us[1:])])  # of each symbol
    sizes = numpy.bincount(group)
    first = numpy.cumsum(sizes) - sizes  # the first symbol of each group
    ends = numpy.cumsum(sizes * sizes)  # the pairs of groups 0..g
    vs = numpy.array([sym.v.data for sym in syms], dtype=numpy.uint8)
    dims = (len(sizes),) + (len(add),) * n
    keys = numpy.ravel_multi_index((group, *vs.T), dims)
    order = numpy.argsort(keys)
    chunk = max(1, _BATCH_BYTES // (8 * n**3))
    for lo in range(0, ends[-1], chunk):
        pair = numpy.arange(lo, min(lo + chunk, ends[-1]))
        g = numpy.searchsorted(ends, pair, side="right")
        k = pair - (ends[g] - sizes[g] ** 2)
        s1, s2 = first[g] + k // sizes[g], first[g] + k % sizes[g]
        want = numpy.ravel_multi_index((g, *add[vs[s1], vs[s2]].T), dims)
        at = order[numpy.minimum(numpy.searchsorted(keys, want, sorter=order), len(keys) - 1)]
        missing = numpy.flatnonzero(keys[at] != want)
        if missing.size:
            b = missing[0]
            raise ValueError(
                f"no symbol for the sum of {syms[s1[b]].v!r} and {syms[s2[b]].v!r} at u = {syms[s1[b]].u.vec!r}"
            )
        bad = ~_same(_table_matmul(add, mul, mats[s1], mats[s2]), mats[at])
        rec.instances += len(bad)
        for b in numpy.argwhere(bad)[:, 0]:
            rec.fail(**witness(syms[s1[b]], syms[s2[b]]))


def _fs_coincidence_at(equal, rec, mw):
    """X_gen(u, v a) against Y_gen(u a, v) for u = M e_1, v = M* e_2, with M
    the matrix of the word mw, at every a in F2, compared by `equal`."""
    f2, n = mw.ring, mw.system.rank + 1
    M = phi(mw)
    Ms = phi(W.contragredient(mw))
    u = M * basis_vector(f2, n, 0)
    v = Ms * basis_vector(f2, n, 1)
    ucert = Ms * basis_vector(f2, n, 0)
    vcert = M * basis_vector(f2, n, 1)
    for a_p in f2.payloads():
        a = Elem(f2, a_p)
        rec.instances += 1
        lhs = X_gen(u, v.scale(a), cert=ucert)
        rhs = Y_gen(u.scale(a), v, cert=vcert)
        if not _same(lhs, rhs, equal):
            rec.fail(M=_lit(mw), a=_lit(a))


def _column_split_at(equal, rec, mw):
    """The column-split relator X_{u1 r + u2, v3 a} = X_{u1, v3 a r} X_{u2, v3 a}
    for the columns u1, u2 of the matrix M of the word mw and the column v3
    of M*, at every r and a in F2, compared by `equal`."""
    system, f2 = mw.system, mw.ring
    n = system.rank + 1
    e2ov = basis_orbit_vector(f2, n, 1)
    M = phi(mw)
    Ms = phi(W.contragredient(mw))
    u1 = M * basis_vector(f2, n, 0)
    u2 = M * basis_vector(f2, n, 1)
    v3 = Ms * basis_vector(f2, n, 2)
    for r_p in f2.payloads():
        for a_p in f2.payloads():
            r = Elem(f2, r_p)
            a = Elem(f2, a_p)
            lhs_u = u1.scale(r) + u2
            # witness: M then t_01(r) carry e_2 to M(e_1 r + e_2)
            wit = mw * W.x_ij(system, f2, 0, 1, r) * e2ov.witness
            rec.instances += 1
            lhs = X_gen(lhs_u, v3.scale(a), cert=OrbitVector(lhs_u, wit).cert())
            rhs = X_gen(u1, v3.scale(a * r), cert=OrbitVector(u1, mw).cert()) * X_gen(
                u2, v3.scale(a), cert=OrbitVector(u2, mw * e2ov.witness).cert()
            )
            if not _same(lhs, rhs, equal):
                rec.fail(M=_lit(mw), r=_lit(r), a=_lit(a))


# ---------------------------------------------------------------------------
# psi-s-relations


def suite_psi(config):
    checks = []
    n = config.n
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    ideal = FGIdeal(f2e, [f2e.gen()])
    sd = split_data(f2e, ideal)
    pool = [Elem(f2e, p) for p in f2e.payloads()]
    idx_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    cache = {}

    def psi(i, j, xi):
        key = (i, j, xi.payload)
        if key not in cache:
            cache[key] = psi_map(sd, n, i, j, xi)
        return cache[key]

    def same(x, y):
        return _same(x.phi_pair(), y.phi_pair())

    with _Check(checks, "psi-additivity-f2[eps]-exhaustive", "matrix") as rec:
        for i, j in idx_pairs:
            for xi in pool:
                for eta in pool:
                    rec.instances += 1
                    if not same(psi(i, j, xi) * psi(i, j, eta), psi(i, j, xi + eta)):
                        rec.fail(i=i, j=j, xi=_lit(xi), eta=_lit(eta))

    def disjoint_commute(rec, ij):
        i, j = ij
        for h, k in idx_pairs:
            if h == j or k == i or (i, j) == (h, k):
                continue
            for xi in pool:
                for eta in pool:
                    rec.instances += 1
                    left = psi(i, j, xi) * psi(h, k, eta)
                    right = psi(h, k, eta) * psi(i, j, xi)
                    if not same(left, right):
                        rec.fail(i=i, j=j, h=h, k=k, xi=_lit(xi), eta=_lit(eta))

    def commutator_chain(rec, ij):
        i, j = ij
        for k in range(n):
            if k in (i, j):
                continue
            for xi in pool:
                for eta in pool:
                    rec.instances += 1
                    a = psi(i, j, xi)
                    b = psi(j, k, eta)
                    formula = W.semidirect_commutator(a, b)
                    direct = W.commutator(a, b)
                    target = psi(i, k, xi * eta)
                    expansion = _expansion_tuple(sd, n, i, j, k, xi, eta)
                    if not (same(formula, direct) and same(direct, target) and same(expansion, target)):
                        rec.fail(i=i, j=j, k=k, xi=_lit(xi), eta=_lit(eta))

    with _Check(checks, "psi-disjoint-commute-f2[eps]-exhaustive", "matrix") as rec:
        _spread_into(rec, disjoint_commute, idx_pairs)
    with _Check(checks, "psi-commutator-chain-f2[eps]-exhaustive", "matrix") as rec:
        _spread_into(rec, commutator_chain, idx_pairs)
    return checks


def _expansion_tuple(sd, n, i, j, k, xi, eta):
    """The four-factor kernel word of the semidirect commutator expansion."""
    ring = sd.ring
    xi_bar = sd.sigma(sd.pi(xi))
    eta_bar = sd.sigma(sd.pi(eta))
    xi_d = xi - xi_bar
    eta_d = eta - eta_bar
    ei = basis_vector(ring, n, i)
    ej = basis_vector(ring, n, j)
    ek = basis_vector(ring, n, k)
    u2 = ej + ei.scale(xi_bar)
    f1 = X_gen(ei, ej.scale(xi_d), cert=ei)
    f2_ = X_gen(u2, ek.scale(eta_d), cert=ej)
    f3 = X_gen(ei, ek.scale(eta_bar * xi_d) - ej.scale(xi_d), cert=ei)
    f4 = X_gen(ej, -(ek.scale(eta_d)), cert=ej)
    kernel = f1 * f2_ * f3 * f4
    quotient = W.x_ij(kernel.system, sd.quotient, i, k, sd.pi(xi * eta))
    return W.SemidirectElement(sd, kernel.system, kernel, quotient)


# ---------------------------------------------------------------------------
# k2-exact / relative-generation / amalgam / tmap-diagram


def suite_k2(config):
    checks = []
    for sysname, ringspec in itertools.product(config.systems or ("A2", "A3"), config.rings or ("f2",)):
        datum = build_system(sysname)
        ring = make_ring(ringspec)
        with _Check(checks, f"k2-{sysname}-{ringspec}", "exact") as rec:
            rep = k2_compute(datum, ring, max_cosets=config.max_cosets)
            rec.instances = rep.st_order
            if not _same(rep.st_order, rep.kernel_order * rep.image_order):
                rec.fail(kind="factorization", st=rep.st_order,
                         kernel=rep.kernel_order, image=rep.image_order)
            if not _same(rep.bfs_image_order, rep.image_order):
                rec.fail(kind="bfs-cross-check", table=rep.image_order,
                         bfs=rep.bfs_image_order)
            if not _same(rep.central, True):
                for w in rep.witnesses[:5]:
                    rec.fail(kind="centrality", **w)
            rec.info = {
                "st_order": rep.st_order,
                "kernel_order": rep.kernel_order,
                "image_order": rep.image_order,
            }
    return checks


def _ring_and_ideal(config):
    """The ring spec, ring and ideal that relative-generation reads: the
    first ring (default F2[eps]) and the ideal, a JSON list of
    element literals (default (X)).  ValueError says why the ideal is
    unusable."""
    ringspec = (config.rings or ("quo(poly(f2,X),[0,0,1])",))[0]
    ring = make_ring(ringspec)
    text = config.ideal
    if not text:
        if not hasattr(ring, "gen"):
            raise ValueError(
                f"suite {config.suite} needs --ideal over {ring.spec}: it has no generator X for the default ideal"
            )
        return ringspec, ring, FGIdeal(ring, [ring.gen()])
    try:
        gens = json.loads(text)
        if isinstance(gens, list):
            return ringspec, ring, FGIdeal(ring, gens)
        reason = "not a JSON list"
    except (RingError, TypeError, ValueError, RecursionError) as exc:
        reason = str(exc)
    raise ValueError(
        f"suite {config.suite} needs --ideal as a JSON list of elements of {ring.spec}, got {text!r}: {reason}"
    )


def suite_relative(config):
    checks = []
    systems = config.systems or ("A2", "A3")
    ringspec, ring, ideal = _ring_and_ideal(config)
    sd = None
    for sysname in systems:
        datum = build_system(sysname)
        with _Check(checks, f"relative-generation-{sysname}-{ringspec}", "exact") as rec:
            sd = sd or split_data(ring, ideal)
            rep = relative_subgroup_index(datum, ring, sd, max_cosets=config.max_cosets)
            rec.instances = rep.index
            if not _same(rep.index, rep.quotient_order):
                rec.fail(index=rep.index, quotient_order=rep.quotient_order)
    return checks


def suite_amalgam(config):
    """Every root of the system lies in an A3 subsystem, so St(Phi, R) is
    generated by the images of its St(A3, R) pieces: one instance per root,
    a failure for each root that heads no A3 chain (roots.a3_chain)."""
    checks = []
    sysname = (config.systems or ("D4",))[0]
    datum = build_system(sysname)
    with _Check(checks, f"amalgam-coverage-{sysname}", "exact-arith") as rec:
        rec.instances = len(datum.roots)
        for root in datum.roots:
            if a3_chain(datum, root) is None:
                rec.fail(root=str(root))
    return checks


def suite_tmap(config):
    checks = []
    n = config.n
    rng = random.Random(config.seed)
    # finite product ring: exhaustive small sample
    with _Check(checks, "tmap-prod(f2,f3)-exhaustive-small", "matrix") as rec:
        B = make_ring("prod(f2,f3)")
        _tmap_exhaustive(rec, B, B.el((0, 1)), n)
    # the augmentation extension of the integers
    Bz = make_ring("semi(z,2)")
    az = Bz.el(2)
    idz = FGIdeal(Bz, kind="semi-kernel")
    locz, lamz = localization(Bz, az)
    system_loc = linear_system(n)

    def diagram(rec, sample):
        uw, vB, vloc, mirrored = sample
        ov = OrbitVector.from_word(uw, n)
        if mirrored:
            res = t_map(Bz, az, idz, SSymbol(u=vB, v=ov))
        else:
            res = t_map(Bz, az, idz, FSymbol(u=ov, v=vB))
        rec.instances += 1
        if not _tmap_diagram_ok(res, lamz, locz, ov.vec, vloc, mirrored=mirrored):
            rec.fail(u=_lit(ov.vec), v=_lit(vB), m=res.m, kind=res.kind)

    with _Check(checks, "tmap-semi(z,2)-sampled", "matrix") as rec:
        samples = []  # (word of u, v over B, v over the localization, S rather than F)
        while len(samples) < _want(config, 50, 200):
            uw = _rand_loc_word(system_loc, Bz, locz, lamz, rng)
            Ms = phi(W.contragredient(uw))
            j = rng.randrange(1, n)
            cB = _rand_ideal_elem(Bz, rng)
            vloc = (Ms * basis_vector(locz, n, j)).scale(lamz(cB))
            vB = _numerators(Bz, vloc)
            if vB is None:
                # clear denominators: scale by a power of 2 inside the ideal
                vloc = vloc.scale(lamz(az * az))
                vB = _numerators(Bz, vloc)
                if vB is None:
                    continue
            samples.append((uw, vB, vloc, not rng.randrange(2)))
        _spread_into(rec, diagram, samples)
    return checks


def _tmap_exhaustive(rec, B, a, n):
    """The t-map diagram for F(u, v) over every u in the elementary orbit
    of the localization of the finite ring B at a and every v = M* e_2 c,
    with M the matrix of u's witness and c a nonzero element of the
    localized ideal (a): t_map lifts F(u, v) to a word over B whose image
    under the localization is the transvection of (u, v).  v is taken to
    B through the section of the localization, whose codes need not be
    B's."""
    ideal = FGIdeal(B, [a])
    loc, lam = localization(B, a)
    orbit = orbit_with_witnesses(loc, n)
    ideal_loc = sorted({lam.p_fn(p) for p in ideal.payload_set()})

    def diagram(rec, key):
        ov = orbit[key]
        Ms = phi(W.contragredient(ov.witness))
        base_v = Ms * basis_vector(loc, n, 1)
        for c_p in ideal_loc:
            if c_p == loc.zero_p:
                continue
            vloc = base_v.scale(Elem(loc, c_p))
            vB = RVector(B, tuple(map(loc.section.__getitem__, vloc.data)))
            rec.instances += 1
            res = t_map(B, a, ideal, FSymbol(u=ov, v=vB))
            if not _tmap_diagram_ok(res, lam, loc, ov.vec, vloc):
                rec.fail(u=_lit(ov.vec), v=_lit(vB), m=res.m)

    _spread_into(rec, diagram, sorted(orbit))


def _numerators(B, vloc):
    """A vector over the localization of B as a vector over B, or None when
    an entry has a denominator."""
    out = []
    for num, k in vloc.data:
        if k != 0 and num != B.zero_p:
            return None
        out.append(num if k == 0 else B.zero_p)
    return RVector(B, tuple(out))


def _tmap_diagram_ok(res, lam, loc, u, vloc, mirrored=False):
    MB = phi(res.word)
    localized = RMatrix(loc, MB.n, tuple(map(lam.p_fn, MB.data)))
    target = transvection(vloc, u) if mirrored else transvection(u, vloc)
    return _same(localized, target)


def _rand_loc_word(system, B, loc, lam, rng):
    letters = []
    n = system.rank + 1
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = _rand_loc_elem(B, loc, lam, rng)
        letters.append((i, j, c))
    return W.from_ij_letters(system, loc, letters)


def _rand_loc_elem(B, loc, lam, rng):
    r = rng.randrange(-2, 3)
    coeffs = [0] + [rng.randrange(-2, 3) for _ in range(rng.randrange(2))]
    base = Elem(B, B.from_literal([r, [[c, 0] for c in coeffs]]))
    out = lam(base)
    k = rng.randrange(2)
    if k:
        half = Elem(loc, loc._canon(B.one().payload, k))
        out = out * half
    return out


def _rand_ideal_elem(B, rng):
    coeffs = [[0, 0]] + [[rng.randrange(-2, 3), 0] for _ in range(1 + rng.randrange(2))]
    return Elem(B, B.from_literal([0, coeffs]))


# ---------------------------------------------------------------------------
# registry and the runner


# Each suite's run function; how many rings and root systems it reads
# (None: any number); whether it reads --ideal; and the least --n it runs
# at (None: no --n).  It builds the others, and a report must not name them.
SUITES = {
    "chevalley-relations": (suite_chevalley, None, None, False, None),
    "vdk-identities": (suite_vdk, 0, 0, False, 4),
    "tulenbaev-identities": (suite_tulenbaev, None, 0, False, 4),
    "xeqy": (suite_xeqy, 0, 0, False, 4),
    "star-presentation": (suite_star, 0, 0, False, 4),
    "psi-s-relations": (suite_psi, 0, 0, False, 3),
    "k2-exact": (suite_k2, None, None, False, None),
    "relative-generation": (suite_relative, 1, None, True, None),
    "amalgam": (suite_amalgam, 0, 1, False, None),
    "tmap-diagram": (suite_tmap, 0, 0, False, 4),
}


def config_error(config):
    """Why a suite would not run the config as given, or None.

    Every ring spec and root system name must parse, and none may repeat,
    since each names the checks that run on it.  The report records every
    ring and system of its config, and its ideal and n, so a suite takes no
    more of them than it reads, and no n below the least its constructions
    need; no suite takes a negative sample count or a --max-cosets below 1;
    and the ideal of relative-generation must resolve over its ring: the
    default (X) needs a ring with a generator X.  tulenbaev-identities at the matrix tier runs
    its own f2 checks, so it takes no --ring f2 there.
    """
    if config.suite not in SUITES:
        return f"unknown suite {config.suite!r}; have {sorted(SUITES)}"
    for spec in config.rings:
        try:
            make_ring(spec)
        except RingError as exc:
            return f"bad ring spec {spec!r}: {exc}"
    for name in config.systems:
        try:
            build_system(name)
        except RootSystemError as exc:
            return f"bad root system {name!r}: {exc}"
    _, most_rings, most_systems, reads_ideal, least_n = SUITES[config.suite]
    for option, given, most in (
        ("--ring", config.rings, most_rings),
        ("--system", config.systems, most_systems),
    ):
        if len(set(given)) < len(given):
            return f"suite {config.suite} takes each {option} once, got {list(given)}"
        if most is not None and len(given) > most:
            takes = "no" if most == 0 else f"at most {most}"
            return f"suite {config.suite} takes {takes} {option}, got {len(given)}"
    if config.ideal and not reads_ideal:
        return f"suite {config.suite} takes no --ideal, got {config.ideal!r}"
    if least_n is None and config.n != SuiteConfig.n:
        return f"suite {config.suite} takes no --n, got {config.n}"
    if least_n is not None and config.n < least_n:
        return f"suite {config.suite} needs --n >= {least_n}, got {config.n}"
    if config.samples < 0:
        return f"suite {config.suite} needs --samples >= 0, got {config.samples}"
    if config.max_cosets < 1:
        return f"suite {config.suite} needs --max-cosets >= 1, got {config.max_cosets}"
    if config.suite == "tulenbaev-identities" and config.tier == "matrix" and "f2" in config.rings:
        return (f"suite {config.suite} takes no --ring f2 at --tier matrix, where its own "
                "f2 checks are named xlaws-f2-matrix and ylaws-f2-matrix")
    if reads_ideal:
        try:
            _ring_and_ideal(config)
        except ValueError as exc:
            return str(exc)
    return None


def run_suite(config):
    error = config_error(config)
    if error:
        raise ValueError(error)
    warnings = []
    if config.samples == 0:
        warnings.append("sample count is zero; sampled checks are vacuous")
    with word_memo():
        checks = SUITES[config.suite][0](config)
    return VerificationReport(
        suite=config.suite,
        config=config.to_dict(),
        checks=checks,
        warnings=warnings,
    )
