"""The ring kernels against Elem arithmetic, and the tables they read.

Every ring has `tables`, the (add, mul, neg) triple that phi, simplify,
x_small, decomposition_terms, the RMatrix and RVector operations and
transvection index inline.  A finite ring holds them as lists; an
infinite ring (loc(z,2) and semi(z,2)) has views that call p_add, p_mul
and p_neg.  The reference here is written in Elem arithmetic alone: plain
matrix products of the root unipotents, the decomposition formula term by
term, and sums of products.  The chevalley check computes on the code
tables in numpy, and is held to the same reference over every ring with
lists.
"""

import random

import pytest

from laws import random_payload
from steinberg import rings
from steinberg import suites as S
from steinberg.matrices import RMatrix, RVector, identity_matrix, transvection
from steinberg.rings import FINITE_MAX_SIZE, Elem, RingSizeError, make_ring
from steinberg.roots import build_system
from steinberg.suites import CheckRecord, SuiteConfig, run_suite
from steinberg.vdk import decomposition_terms, linear_system, x_small
from steinberg.words import StWord, phi, simplify

TABLED = ["z/6", "f3", "quo(poly(f2,X),[0,0,1])", "prod(f2,f3)"]
UNTABLED = ["loc(z,2)", "semi(z,2)"]


def _draw(ring, rng):
    """A random element, zero one time in four."""
    if rng.random() < 0.25:
        return ring.zero()
    return Elem(ring, random_payload(ring, rng))


def _vec(ring, rng, n):
    return [_draw(ring, rng) for _ in range(n)]


def _ref_product(a, b):
    """a * b for square matrices given as lists of rows of Elems."""
    return [[sum((x * y for x, y in zip(row, col)), row[0].ring.zero()) for col in zip(*b)] for row in a]


def _ref_unipotent(system, ring, idx, c):
    n = system.matrix_size()
    m = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    for i, j, sign in system.unipotent_entries(idx):
        m[i][j] = c if sign > 0 else -c
    return m


def _ref_phi(w):
    n = w.system.matrix_size()
    m = [[w.ring.one() if i == j else w.ring.zero() for j in range(n)] for i in range(n)]
    for idx, c in w.letters:
        m = _ref_product(m, _ref_unipotent(w.system, w.ring, idx, c))
    return m


def _ref_simplify(letters):
    out = []
    for idx, c in letters:
        if out and out[-1][0] == idx:
            c = out.pop()[1] + c
        if not c.is_zero():
            out.append((idx, c))
    return out


def _ref_terms(a, b, c):
    n, zero = len(a), a[0].ring.zero()
    out = []
    for p in range(n):
        for q in range(p + 1, n):
            coef = a[p] * c[q] - a[q] * c[p]
            at_p, at_q = b[q] * coef, -(b[p] * coef)
            if not coef.is_zero() and not (at_p.is_zero() and at_q.is_zero()):
                out.append([at_p if k == p else at_q if k == q else zero for k in range(n)])
    return out


def _pays(rows):
    return tuple(x.payload for row in rows for x in row)


def _run_kernels(ring, seed, rounds=12):
    """Every kernel once per round over A3 and D4, checked against the
    reference; returns how many comparisons were made."""
    rng = random.Random(seed)
    made = 0
    for system in (linear_system(4), build_system("D4")):
        n, nroots = system.matrix_size(), len(system.roots)
        for _ in range(rounds):
            # runs of one root, so that simplify merges, cancels and drops
            letters = []
            for _ in range(10):
                idx = rng.randrange(nroots)
                letters += [(idx, _draw(ring, rng)) for _ in range(rng.randrange(1, 4))]
            c = _draw(ring, rng)
            letters += [(letters[-1][0], -letters[-1][1]), (letters[-1][0], c)]
            w = StWord(system, ring, letters)
            assert simplify(w).key() == tuple((i, x.payload) for i, x in _ref_simplify(letters))
            assert phi(w).data == _pays(_ref_phi(w))
            a, b = (_ref_phi(StWord(system, ring, letters[k::3])) for k in (0, 1))
            ma, mb = RMatrix(ring, n, _pays(a)), RMatrix(ring, n, _pays(b))
            assert (ma * mb).data == _pays(_ref_product(a, b))
            u, v, x = (_vec(ring, rng, n) for _ in range(3))
            ru, rv = RVector(ring, _pays([u])), RVector(ring, _pays([v]))
            assert (ma * ru).data == ma.apply(ru).data == _pays(_ref_product(a, [[y] for y in u]))
            one = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
            want = [[one[i][j] + u[i] * v[j] for j in range(n)] for i in range(n)]
            assert transvection(ru, rv).data == _pays(want)
            assert (ru + rv).data == _pays([[p + q for p, q in zip(u, v)]])
            assert (ru - rv).data == _pays([[p - q for p, q in zip(u, v)]])
            assert (-ru).data == _pays([[-p for p in u]])
            assert ru.scale(c).data == _pays([[p * c for p in u]])
            assert ru.dot(rv) == sum((p * q for p, q in zip(u, v)), ring.zero())
            assert ru.entries == u
            terms = decomposition_terms(ru, rv, RVector(ring, _pays([x])))
            assert [t.data for t in terms] == [_pays([t]) for t in _ref_terms(u, v, x)]
            made += 15
    return made


def _holds_lists(ring):
    """Whether the ring's tables are lists, not method views."""
    kinds = {type(t) for t in ring.tables}
    assert kinds in ({list}, {rings._MethodTable}), kinds
    return kinds == {list}


@pytest.mark.parametrize("spec", TABLED + UNTABLED)
def test_kernels_match_elem_arithmetic(spec):
    ring = make_ring(spec)
    assert _holds_lists(ring) == (spec in TABLED)
    assert _run_kernels(ring, spec) > 0


def _spy(monkeypatch):
    """Counts the calls of p_add, p_mul and p_neg of FiniteRing,
    FractionLocalization and SemidirectRing, wrapped on the class as a
    tracer wraps them."""
    calls = [0]
    for cls in (rings.FiniteRing, rings.FractionLocalization, rings.SemidirectRing):
        for name in ("p_add", "p_mul", "p_neg"):
            method = getattr(cls, name)

            def spy(*args, _method=method):
                calls[0] += 1
                return _method(*args)

            monkeypatch.setattr(cls, name, spy)
    return calls


def _kernel_calls(ring):
    """One call of each kernel over `ring`, by name, its data made ahead."""
    rng = random.Random(3)

    def draw():
        while (p := random_payload(ring, rng)) == ring.zero_p:
            pass
        return p

    u, v, x = (RVector(ring, tuple(draw() for _ in range(4))) for _ in range(3))
    w = StWord(linear_system(4), ring, [(rng.randrange(4), ring.elem(draw())) for _ in range(40)])
    winv = w.inverse()  # Elem negation calls p_neg
    m, c = phi(winv), ring.elem(draw())
    a, b = draw(), draw()
    zero = ring.zero_p
    return {
        "phi": lambda: phi(w),
        "simplify": lambda: simplify(w * winv),
        "x_small": lambda: x_small(RVector(ring, (a, b, zero, zero)), RVector(ring, (zero, zero, a, b))),
        "decomposition_terms": lambda: decomposition_terms(u, v, x),
        "RMatrix.__mul__": lambda: m * m,
        "transvection": lambda: transvection(u, v),
        "RVector.__add__": lambda: u + v,
        "RVector.__sub__": lambda: u - v,
        "RVector.__neg__": lambda: -u,
        "RVector.scale": lambda: u.scale(c),
        "Ring.p_dot": lambda: ring.p_dot(u.data, v.data),
    }


def test_table_body_makes_no_method_call(monkeypatch):
    # a kernel that called a ring method over z/6 would be counted here
    ring = make_ring("z/6")
    calls = _spy(monkeypatch)
    kernels = _kernel_calls(ring)
    rng = random.Random(5)
    u = RVector(ring, tuple(rng.randrange(6) for _ in range(4)))
    kernels.update(
        apply=lambda: phi(StWord(linear_system(4), ring)) * u, dot=lambda: u.dot(u), entries=lambda: u.entries
    )
    for name, call in kernels.items():
        calls[0] = 0
        call()
        assert calls[0] == 0, name


@pytest.mark.parametrize("spec", UNTABLED)
def test_views_call_the_ring_methods(monkeypatch, spec):
    # the ring is made, and cached, before the spy is set on its class; a
    # view that bound p_add when the ring was made would never call the spy
    ring = make_ring(spec)
    calls = _spy(monkeypatch)
    for name, call in _kernel_calls(ring).items():
        calls[0] = 0
        call()
        assert calls[0] > 0, name


def test_elems_and_identities_are_shared_on_rings_with_tables():
    assert _holds_lists(make_ring(f"z/{FINITE_MAX_SIZE}"))
    with pytest.raises(RingSizeError):
        make_ring(f"z/{FINITE_MAX_SIZE + 1}")
    for spec in TABLED:
        ring = make_ring(spec)
        assert _holds_lists(ring)
        assert all(ring.elem(p) is ring.elem(p) == Elem(ring, p) for p in ring.payloads())
        assert identity_matrix(ring, 4) is identity_matrix(ring, 4)
        assert identity_matrix(ring, 3).data != identity_matrix(ring, 4).data
        # Elem arithmetic returns the shared Elem of its result
        a, b = ring.one(), Elem(ring, ring.size() - 1)
        for got in (a + b, -b, a - b, a * b, b * b):
            assert got is ring.elem(got.payload)
    for spec in UNTABLED:
        ring = make_ring(spec)
        assert not _holds_lists(ring)
        assert ring.elem(ring.one_p) == ring.one() and ring.elem(ring.one_p) is not ring.elem(ring.one_p)
        one = ring.one()
        assert one + one == ring.el(2) and one + one is not one + one
        assert identity_matrix(ring, 4) is identity_matrix(ring, 4)


def _flip_one_sign(sums):
    """The chevalley pair table with N_{alpha,beta} negated at the first
    pair whose sum is a root."""
    sums = [list(row) for row in sums]
    ai, bi = next((a, b) for a, row in enumerate(sums) for b, (tag, _) in enumerate(row) if tag not in ("skip", None))
    tag, sign = sums[ai][bi]
    sums[ai][bi] = (tag, -sign)
    return sums


def _ref_chevalley(system, ring, sums, cap=32):
    """(instances, failures capped at cap) of additivity and the commutator
    formula over every pair of nonzero elements, in Elem arithmetic, with
    the pair table sums of S._chevalley_tables."""
    nonzero = [x for x in ring.elements() if not x.is_zero()]
    nroots, n = len(system.roots), system.matrix_size()
    one = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    instances, failures = 0, []
    for ri in range(nroots):
        for r in nonzero:
            for s in nonzero:
                instances += 1
                lhs = _ref_product(_ref_unipotent(system, ring, ri, r), _ref_unipotent(system, ring, ri, s))
                if lhs != _ref_unipotent(system, ring, ri, r + s):
                    failures.append(dict(kind="additivity", root=ri, r=ring.to_literal(r.payload),
                                         s=ring.to_literal(s.payload)))
    for ai in range(nroots):
        for bi, (tag, sign) in enumerate(sums[ai]):
            if tag == "skip":
                continue
            for r in nonzero:
                for s in nonzero:
                    comm = one
                    for idx, c in ((ai, r), (bi, s), (ai, -r), (bi, -s)):
                        comm = _ref_product(comm, _ref_unipotent(system, ring, idx, c))
                    instances += 1
                    want = one if tag is None else _ref_unipotent(system, ring, tag, r * s if sign > 0 else -(r * s))
                    if comm != want:
                        failures.append(dict(kind="commutator", alpha=ai, beta=bi, r=ring.to_literal(r.payload),
                                             s=ring.to_literal(s.payload)))
    return instances, failures[:cap]


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("spec", TABLED)
def test_chevalley_matches_elem_arithmetic(monkeypatch, spec, flip):
    # over A2, with the honest pair table and with one sign wrong; the check
    # reads the ring's tables alone, so the spy counts no method call
    ring, system = make_ring(spec), build_system("A2")
    pats, sums = S._chevalley_tables(system)
    sums = _flip_one_sign(sums) if flip else sums
    want = _ref_chevalley(system, ring, sums)
    assert bool(want[1]) == (flip and -ring.one() != ring.one())  # -1 is 1 in characteristic 2
    calls = _spy(monkeypatch)
    rec = CheckRecord(name="", tier="")
    S._chevalley_check(pats, sums, system.matrix_size(), rec, ring)
    assert calls[0] == 0
    assert (rec.instances, rec.failures) == want


@pytest.mark.parametrize("spec, reason", [("semi(z,2)", "is infinite")])
def test_chevalley_is_inconclusive_on_rings_without_lists(spec, reason):
    (check,) = run_suite(SuiteConfig(suite="chevalley-relations", systems=("A2",), rings=(spec,))).checks
    assert (check.instances, check.inconclusive, check.failures) == (0, 1, [])
    assert reason in check.info["reason"]
