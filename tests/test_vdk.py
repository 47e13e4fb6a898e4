import contextlib
import os
import random

import pytest

from laws import is_identity, random_payload
from steinberg import suites as S
from steinberg import vdk
from steinberg import words as W
from steinberg.matrices import (
    RMatrix,
    RVector,
    basis_vector,
    transvection,
    vector,
)
from steinberg.rings import (
    Elem,
    FGIdeal,
    lin_solve,
    localization,
    make_ring,
    split_data,
)
from steinberg.vdk import (
    FSymbol,
    OrbitVector,
    SSymbol,
    VdkError,
    X_gen,
    Y_gen,
    basis_orbit_vector,
    canonical_decomposition,
    decompose_with,
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
from steinberg.words import coefficient_map, contragredient, phi, simplify

Z6 = make_ring("z/6")
F2 = make_ring("f2")
A3 = linear_system(4)


def rand_vec(ring, n, rng):
    pool = list(ring.payloads())
    return RVector(ring, tuple(pool[rng.randrange(len(pool))] for _ in range(n)))


def test_x_small_single_letter_case():
    u = basis_vector(Z6, 4, 0)
    v = basis_vector(Z6, 4, 1).scale(Z6.el(4))
    assert simplify(x_small(u, v)) == W.x_ij(A3, Z6, 0, 1, 4)


def test_x_small_contract_random():
    rng = random.Random(0)
    done = 0
    while done < 500:
        u = rand_vec(Z6, 4, rng)
        v = rand_vec(Z6, 4, rng)
        if not u.dot(v).is_zero():
            continue
        if not (v.zero_positions() or u.zero_positions()):
            continue
        done += 1
        assert phi(x_small(u, v)) == transvection(u, v)


def test_x_small_shared_zero_slot():
    u = vector(Z6, [1, 1, 0, 0])
    v = vector(Z6, [1, 5, 0, 0])
    assert u.dot(v).is_zero()
    assert phi(x_small(u, v)) == transvection(u, v)


def test_x_small_dual_mode():
    u = vector(Z6, [0, 2, 3, 1])
    v = vector(Z6, [1, 0, 4, 0])
    # u^t v = 0*1 + 0 + 12 + 0 = 0 mod 6; u has a zero in slot 0
    assert u.dot(v).is_zero()
    w = x_small(u, v, index=0, mode="u")
    assert phi(w) == transvection(u, v)


def test_x_small_requires_orthogonality_and_zero():
    with pytest.raises(VdkError):
        x_small(vector(Z6, [1, 0, 0, 0]), vector(Z6, [1, 0, 0, 0]))
    with pytest.raises(VdkError):
        x_small(vector(Z6, [1, 1, 1, 1]), vector(Z6, [1, 1, 1, 3]))


def test_canonical_decomposition_forced_case():
    # v = w = e_2: the only surviving terms are the coordinate pieces of u
    v = basis_vector(Z6, 4, 1)
    u = vector(Z6, [2, 0, 3, 4])
    terms = canonical_decomposition(u, v, v)
    acc = vector(Z6, [0, 0, 0, 0])
    for t in terms:
        acc = acc + t
        assert t.dot(v).is_zero()
        assert len(t.zero_positions()) >= 2
    assert acc == u


def test_canonical_decomposition_zero_vector():
    v = basis_vector(Z6, 4, 1)
    assert canonical_decomposition(vector(Z6, [0] * 4), v, v) == []


def test_canonical_decomposition_bad_pairing():
    v = basis_vector(Z6, 4, 1)
    with pytest.raises(VdkError):
        canonical_decomposition(vector(Z6, [0] * 4), v, basis_vector(Z6, 4, 2))


def test_xgen_basis_case():
    u = basis_vector(Z6, 4, 0)
    v = basis_vector(Z6, 4, 1).scale(Z6.el(3))
    assert simplify(X_gen(u, v, cert=u)) == W.x_ij(A3, Z6, 0, 1, 3)


def test_ygen_zero_is_empty():
    v = basis_vector(Z6, 4, 1)
    assert Y_gen(vector(Z6, [0] * 4), v, cert=v).is_empty()


def test_decompose_with_examples():
    # cert^t u = 1, so the moving vector is its own quotient
    u = vector(Z6, [2, 3, 0, 1])
    cert = basis_vector(Z6, 4, 3)
    v = vector(Z6, [0, 0, 0, 0])
    assert cert.dot(u).is_one() and decompose_with(u, v, cert, v) == []
    rng = random.Random(1)
    done = 0
    while done < 100:
        v = rand_vec(Z6, 4, rng)
        if not u.dot(v).is_zero():
            continue
        done += 1
        acc = vector(Z6, [0, 0, 0, 0])
        for t in decompose_with(u, v, cert, v):
            assert t.dot(u).is_zero()
            assert len(t.zero_positions()) >= 2
            acc = acc + t
        assert acc == v
    # bad has no unit certificate: e_1 pairs to 2, and v is not v * 2
    bad = vector(Z6, [2, 4, 0, 0])
    v = vector(Z6, [0, 0, 2, 2])
    with pytest.raises(VdkError):
        decompose_with(bad, v, basis_vector(Z6, 4, 0), v)


def test_x_tul_multiplier_zero_is_trivial():
    u = vector(Z6, [1, 2, 3, 0])
    w = vector(Z6, [2, 2, 0, 4])
    if not u.dot(w).is_zero():
        w = vector(Z6, [4, 1, 0, 0])
    z = basis_vector(Z6, 4, 0)
    b = z.dot(u)
    assert tul_word("X", u, w.scale(b), z, w, mult=Z6.zero()).is_empty()


def test_x_tul_one_matches_xgen_matrix():
    rng = random.Random(2)
    done = 0
    while done < 60:
        u = rand_vec(Z6, 4, rng)
        sol = lin_solve(list(u.entries), Z6.one())
        if sol is None:
            continue
        v = rand_vec(Z6, 4, rng)
        if not u.dot(v).is_zero():
            continue
        done += 1
        cert = vector(Z6, sol)
        assert phi(tul_word("X", u, v, cert, v)) == phi(X_gen(u, v, cert))


def test_x_tul_one_matches_xgen_exact_f2():
    from steinberg.fp import WordTester

    tester = WordTester(A3, F2)
    vecs = [
        RVector(F2, tuple((k >> i) & 1 for i in range(4))) for k in range(1, 16)
    ]
    for u in vecs:
        cert = vector(F2, lin_solve(u.entries, F2.one()))
        for v in vecs + [vector(F2, [0] * 4)]:
            if not u.dot(v).is_zero():
                continue
            assert tester.exact_equal(tul_word("X", u, v, cert, v), X_gen(u, v, cert))


@pytest.mark.parametrize("spec", ["f2", "f3", "z/6"])
def test_tul_word_at_a_unit_certificate_is_the_generator(spec):
    # with cert^t u = 1 the moving vector is its own quotient, and the
    # Tulenbaev word at the default multiplier 1 is van der Kallen's
    # generator letter for letter, not just through phi
    ring = make_ring(spec)
    rng = random.Random(spec)
    done = 0
    while done < 30:
        u, v = rand_vec(ring, 4, rng), rand_vec(ring, 4, rng)
        sol = lin_solve(u.entries, ring.one())
        if sol is None or not u.dot(v).is_zero():
            continue
        done += 1
        cert = vector(ring, sol)
        assert tul_word("X", u, v, cert, v) == X_gen(u, v, cert)
        assert tul_word("Y", u, v, cert, v) == Y_gen(v, u, cert)


def test_unequal_lengths_are_refused():
    # these used to index past the shorter vector: IndexError
    v3 = vector(F2, [1, 0, 0])
    u4, w4 = vector(F2, [0, 1, 0, 0]), vector(F2, [1, 0, 0, 0])
    for build in (
        lambda: X_gen(v3, u4, w4),
        lambda: Y_gen(u4, v3, w4),
        lambda: canonical_decomposition(u4, v3, w4),
        lambda: xeqy_words(u4, w4, u4, v3, 1, 0, u4, v3),
    ):
        with pytest.raises(VdkError, match="one length"):
            build()


def test_xeqy_trivial_r():
    x = basis_vector(Z6, 4, 2)
    y = basis_vector(Z6, 4, 2)
    u = basis_vector(Z6, 4, 0)
    v = basis_vector(Z6, 4, 1)
    rec = xeqy_words(x, y, u, v, Z6.one(), Z6.zero(), u, v)
    assert is_identity(phi(rec.lhs))
    assert is_identity(phi(rec.rhs))


def test_xeqy_hypothesis_violation():
    x = basis_vector(Z6, 4, 2)
    y = basis_vector(Z6, 4, 2)
    u = basis_vector(Z6, 4, 0)
    v = basis_vector(Z6, 4, 0)  # u^t v != 0
    with pytest.raises(VdkError):
        xeqy_words(x, y, u, v, Z6.one(), Z6.one(), u, v)


def test_iota_f_basic():
    sym = FSymbol(
        u=basis_orbit_vector(Z6, 4, 0), v=basis_vector(Z6, 4, 1).scale(Z6.el(2))
    )
    assert simplify(iota(sym)) == W.x_ij(A3, Z6, 0, 1, 2)


def test_iota_images_die_mod_ideal():
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    sd = split_data(f2e, FGIdeal(f2e, [f2e.gen()]))
    eps = f2e.gen()
    ov = basis_orbit_vector(f2e, 4, 1)
    sym = FSymbol(u=ov, v=basis_vector(f2e, 4, 2).scale(eps))
    word = iota(sym)
    assert is_identity(phi(coefficient_map(sd.pi, A3, word)))
    ssym = SSymbol(u=basis_vector(f2e, 4, 2).scale(eps), v=ov)
    word = iota(ssym)
    assert is_identity(phi(coefficient_map(sd.pi, A3, word)))


def test_iota_fs_bridge_exact():
    # F(u, va) and S(ua, v) have the same iota image for column pairs of M
    from steinberg.fp import WordTester

    tester = WordTester(A3, F2)
    rng = random.Random(5)
    for _ in range(20):
        pool = list(F2.payloads())
        letters = [
            (rng.randrange(12), Elem(F2, pool[rng.randrange(2)])) for _ in range(4)
        ]
        mw = W.StWord(A3, F2, letters)
        M = phi(mw)
        Ms = phi(contragredient(mw))
        u = M * basis_vector(F2, 4, 0)
        v = Ms * basis_vector(F2, 4, 1)
        a = F2.one()
        lhs = X_gen(u, v.scale(a), cert=Ms * basis_vector(F2, 4, 0))
        rhs = Y_gen(u.scale(a), v, cert=M * basis_vector(F2, 4, 1))
        assert tester.exact_equal(lhs, rhs)


def test_psi_kernel_trivial_on_section_image():
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    sd = split_data(f2e, FGIdeal(f2e, [f2e.gen()]))
    for q in sd.quotient.elements():
        xi = sd.sigma(q)
        el = psi_map(sd, 4, 0, 1, xi)
        assert simplify(el.kernel).is_empty()


def test_tmap_invertible_a_lands_at_m0():
    # with a invertible the localization is injective and m = 0 works
    f3 = make_ring("f3")
    a = f3.el(2)
    ideal = FGIdeal(f3, [f3.one()])
    loc, lam = localization(f3, a)
    uw = W.x_ij(A3, loc, 1, 0, lam(f3.el(2)))
    ov = OrbitVector.from_word(uw, 4)
    vloc = (phi(contragredient(uw)) * basis_vector(loc, 4, 1)).scale(lam(f3.el(1)))
    vB = RVector(f3, vloc.data)
    res = t_map(f3, a, ideal, FSymbol(u=ov, v=vB))
    assert res.m == 0
    loc_mat = RMatrix(loc, 4, tuple(lam.p_fn(p) for p in phi(res.word).data))
    assert loc_mat == transvection(ov.vec, vloc)


def test_orbit_vector_computes_its_certificate_once(monkeypatch):
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    base = basis_orbit_vector(f2e, 4, 2)
    word = base.witness * W.x_ij(A3, f2e, 0, 3, f2e.gen())
    built = []
    monkeypatch.setattr(vdk, "phi", lambda w: built.append(w) or phi(w))
    ov = OrbitVector(phi(word) * basis_vector(f2e, 4, 0), word)
    plain = OrbitVector(ov.vec, word)
    cert = ov.cert()
    assert ov.cert() is cert
    assert len(built) == 1
    assert cert == phi(contragredient(word)) * basis_vector(f2e, 4, 0)
    assert cert.dot(ov.vec) == f2e.one()
    # the cache is not part of the value
    assert ov == plain and plain == ov
    assert repr(ov) == repr(plain) == f"OrbitVector(vec={ov.vec!r}, witness={word!r})"
    assert plain.cert() == cert and len(built) == 2


def test_tmap_rejects_vectors_outside_ideal():
    B = make_ring("prod(f2,f3)")
    a = B.el((0, 1))
    ideal = FGIdeal(B, [a])
    loc, lam = localization(B, a)
    ov = basis_orbit_vector(loc, 4, 0)
    bad_v = vector(B, [B.el((1, 0))] + [B.zero()] * 3)
    with pytest.raises(VdkError):
        t_map(B, a, ideal, FSymbol(u=ov, v=bad_v))


# ---------------------------------------------------------------------------
# the word builders against the letter-by-letter builders they replace:
# W.x_ij letters, word concatenation and simplify, on Elem arithmetic


def _ref_x_small(u, v, index=None, mode=None):
    system, ring = linear_system(len(u)), u.ring
    a, b = u.entries, v.entries
    if mode is None:
        vz = [k for k, x in enumerate(b) if x.is_zero()]
        uz = [k for k, x in enumerate(a) if x.is_zero()]
        mode, index = ("v", vz[0]) if vz else ("u", uz[0])
    if mode == "u":
        a, b = b, a

    def x(i, j, c):
        return W.x_ij(system, ring, i, j, c)

    others = [j for j in range(len(a)) if j != index]
    head = W.empty(system, ring)
    col = W.empty(system, ring)
    row = W.empty(system, ring)
    for j in others:
        head = head * x(index, j, a[index] * b[j])
        col = col * x(j, index, a[j])
        row = row * x(index, j, b[j])
    word = head * W.commutator(col, row)
    return simplify(word if mode == "v" else W.transpose_anti(word))


def _ref_terms(a, b, c):
    ring, n = a.ring, len(a)
    a, b, c = a.entries, b.entries, c.entries
    out = []
    for p in range(n):
        for q in range(p + 1, n):
            coef = a[p] * c[q] - a[q] * c[p]
            entries = [ring.zero()] * n
            entries[p] = b[q] * coef
            entries[q] = -(b[p] * coef)
            if not all(x.is_zero() for x in entries):
                out.append(vector(ring, entries))
    return out


def _ref_scale(vec, c):
    return vector(vec.ring, [x * c for x in vec.entries])


def _ref_product(words, ring):
    out = W.empty(A3, ring)
    for w in words:
        out = out * w
    return simplify(out)


def _ref_X(u, quotient, cert, a):
    terms = _ref_terms(quotient, u, cert)
    return _ref_product([_ref_x_small(u, _ref_scale(t, a)) for t in terms], u.ring)


def _ref_Y(v, quotient, cert, a):
    terms = _ref_terms(quotient, v, cert)
    return _ref_product([_ref_x_small(_ref_scale(t, a), v) for t in terms], v.ring)


BUILDER_RINGS = ["z/6", "f3", "quo(poly(f2,X),[0,0,1])"]


def test_x_ij_is_the_root_e_i_minus_e_j():
    from steinberg.roots import Root

    for i in range(4):
        for j in range(4):
            if i != j:
                coords = tuple(1 if k == i else -1 if k == j else 0 for k in range(4))
                assert W.x_ij(A3, Z6, i, j, 5) == W.word(A3, Z6, [(Root(coords), 5)])


@pytest.mark.parametrize("spec", BUILDER_RINGS)
def test_x_small_matches_the_reference_builder(spec):
    ring = make_ring(spec)
    rng = random.Random(spec)
    done = 0
    while done < 150:
        u = rand_vec(ring, 4, rng)
        v = rand_vec(ring, 4, rng)
        if not u.dot(v).is_zero():
            continue
        choices = [("v", i) for i in v.zero_positions()] + [("u", i) for i in u.zero_positions()]
        if not choices:
            continue
        done += 1
        assert x_small(u, v) == _ref_x_small(u, v)
        for mode, i in choices:
            assert x_small(u, v, index=i, mode=mode) == _ref_x_small(u, v, index=i, mode=mode)


@pytest.mark.parametrize("spec", BUILDER_RINGS)
def test_generators_match_the_reference_builders(spec):
    ring = make_ring(spec)
    rng = random.Random(spec)
    one = ring.one()
    done = 0
    while done < 40:
        u = rand_vec(ring, 4, rng)
        sol = lin_solve(u.entries, one)
        v = rand_vec(ring, 4, rng)
        if sol is None or not u.dot(v).is_zero():
            continue
        done += 1
        cert = vector(ring, sol)
        assert canonical_decomposition(v, u, cert) == _ref_terms(v, u, cert)
        assert X_gen(u, v, cert=cert) == _ref_X(u, v, cert, one)
        assert Y_gen(v, u, cert=cert) == _ref_Y(u, v, cert, one)
        # Tulenbaev words: a moving vector w*b with b = z^t u, any multiplier
        z = rand_vec(ring, 4, rng)
        moving = v.scale(z.dot(u))
        # decompose_with checks only the quotient; these follow from it
        acc = vector(ring, [0] * 4)
        for t in decompose_with(u, moving, z, v):
            assert t.dot(u).is_zero()
            assert len(t.zero_positions()) >= 2
            acc = acc + t
        assert acc == moving
        a = Elem(ring, rng.choice(list(ring.payloads())))
        assert tul_word("X", u, moving, z, v, mult=a) == _ref_X(u, v, z, a)
        assert tul_word("Y", u, moving, z, v, mult=a) == _ref_Y(u, v, z, a)


# rings with tables, and semi(z,2) and loc(z,2), whose payloads are tuples
TERM_RINGS = ["f2", "f3", "z/6", "quo(poly(f2,X),[0,0,1])", "prod(f2,f3)", "semi(z,2)", "loc(z,2)"]


@pytest.mark.parametrize("spec", TERM_RINGS)
def test_decomposition_terms_match_the_reference(spec):
    ring = make_ring(spec)
    rng = random.Random(spec)

    def draw():
        entries = [ring.zero() if rng.random() < 0.3 else Elem(ring, random_payload(ring, rng)) for _ in range(4)]
        return vector(ring, entries)

    # three vectors b, so that a scope reads its term tables again
    bs = [draw() for _ in range(3)]
    triples = [(draw(), rng.choice(bs), draw()) for _ in range(60)]
    want = [_ref_terms(*t) for t in triples]
    assert any(want)
    assert [decomposition_terms(*t) for t in triples] == want
    with word_memo():
        for _ in range(2):  # filling the tables, then reading them
            assert [decomposition_terms(*t) for t in triples] == want


def test_vectors_over_another_ring_are_refused():
    # z/4 and F2[eps] both code their elements as 0..3
    z4, f2e = make_ring("z/4"), make_ring("quo(poly(f2,X),[0,0,1])")
    u, v = basis_vector(z4, 4, 0), basis_vector(z4, 4, 1)
    u_e, v_e = basis_vector(f2e, 4, 0), basis_vector(f2e, 4, 1)
    calls = [
        lambda: X_gen(u, v_e, cert=u),
        lambda: Y_gen(u_e, v, cert=v),
        lambda: canonical_decomposition(u_e, v, v),
        lambda: decomposition_terms(u, v_e, u),
        lambda: xeqy_words(u, v, u, v_e, 1, 0, u, v),
    ]
    for call in calls:
        with pytest.raises(VdkError, match="one ring"):
            call()
        with word_memo(), pytest.raises(VdkError, match="one ring"):
            call()


@pytest.mark.parametrize("spec", BUILDER_RINGS)
def test_xeqy_words_match_the_reference_builders(spec):
    ring = make_ring(spec)
    rng = random.Random(spec)
    pool = [Elem(ring, p) for p in ring.payloads()]
    e = [basis_vector(ring, 4, k) for k in range(4)]
    done = 0
    while done < 25:
        p = list(range(4))
        rng.shuffle(p)
        x3, x4, y3, y4, alpha, beta, r = (rng.choice(pool) for _ in range(7))
        b = x3 * y3 + x4 * y4
        if b.is_zero() or lin_solve([alpha], b) is None or lin_solve([beta], b) is None:
            continue
        done += 1
        u, v = e[p[0]].scale(alpha), e[p[1]].scale(beta)
        x = vector(ring, [x3 * s + x4 * t for s, t in zip(e[p[2]].entries, e[p[3]].entries)])
        y = vector(ring, [y3 * s + y4 * t for s, t in zip(e[p[2]].entries, e[p[3]].entries)])
        zu = vector(ring, lin_solve(u.entries, b))
        zv = vector(ring, lin_solve(v.entries, b))
        got = xeqy_words(x, y, u, v, b, r, zu, zv)
        b3r = b * b * b * r

        def add(s, t):
            return vector(ring, [i + j for i, j in zip(s.entries, t.entries)])

        y1 = _ref_Y(v, _ref_scale(x, -r), zv, b)
        x1 = _ref_X(u, y, zu, b)
        assert got.lhs == _ref_X(u, _ref_scale(v, b3r), zu, b)
        assert got.rhs == _ref_Y(v, _ref_scale(u, b3r), zv, b)
        assert got.g_direct == simplify(W.commutator(y1, x1))
        px = _ref_X(u, add(y, _ref_scale(v, b3r)), zu, b) * _ref_X(u, _ref_scale(y, -ring.one()), zu, b)
        assert got.path_x == simplify(px)
        py = y1 * _ref_Y(v, add(_ref_scale(x, r), _ref_scale(u, b3r)), zv, b)
        assert got.path_y == simplify(py)



def _e(k, scale=1, n=4):
    return basis_vector(Z6, n, k).scale(Z6.el(scale))


# Each public builder with valid arguments, then with one hypothesis broken
# at a time.  Every hypothesis is checked once on each call path, so each
# broken case must still end in VdkError.
HYPOTHESES = {
    "x_small": (lambda: x_small(_e(0), _e(1)), {
        "u^t v": lambda: x_small(_e(0), _e(0) + _e(1)),
    }),
    "X_gen": (lambda: X_gen(_e(0), _e(1), cert=_e(0)), {
        "cert^t u": lambda: X_gen(_e(0), _e(1), cert=_e(1)),
        "u^t v": lambda: X_gen(_e(0), _e(0) + _e(1), cert=_e(0)),
    }),
    "Y_gen": (lambda: Y_gen(_e(0), _e(1), cert=_e(1)), {
        "cert^t v": lambda: Y_gen(_e(0), _e(1), cert=_e(0)),
        "u^t v": lambda: Y_gen(_e(1), _e(1), cert=_e(1)),
        "n": lambda: Y_gen(_e(0, n=3), _e(1, n=3), cert=_e(1, n=3)),
    }),
    "canonical_decomposition": (lambda: canonical_decomposition(_e(0), _e(1), _e(1)), {
        "w^t v": lambda: canonical_decomposition(_e(0), _e(1), _e(0)),
        "u^t v": lambda: canonical_decomposition(_e(1), _e(1), _e(1)),
        "n": lambda: canonical_decomposition(_e(0, n=3), _e(1, n=3), _e(1, n=3)),
    }),
    "decompose_with": (lambda: decompose_with(_e(0), _e(1, 2), _e(0, 2), _e(1)), {
        "n": lambda: decompose_with(_e(0, n=3), _e(1, 2, n=3), _e(0, 2, n=3), _e(1, n=3)),
        "quotient": lambda: decompose_with(_e(0), _e(1, 2), _e(0, 2), _e(1, 2)),
        "u^t quotient": lambda: decompose_with(_e(0), _e(1, 2), _e(0, 2), _e(1) + _e(0, 3)),
        "u^t moving": lambda: decompose_with(_e(0), _e(0, 2), _e(0, 2), _e(1)),
    }),
    "tul_word": (lambda: tul_word("X", _e(0), _e(1, 2), _e(0, 2), _e(1)), {
        "kind": lambda: tul_word("F", _e(0), _e(1, 2), _e(0, 2), _e(1)),
        "ring": lambda: tul_word("X", _e(0), _e(1, 2), _e(0, 2), basis_vector(F2, 4, 1)),
        "n": lambda: tul_word("Y", _e(0, n=3), _e(1, 2, n=3), _e(0, 2, n=3), _e(1, n=3)),
        "quotient": lambda: tul_word("Y", _e(0), _e(1, 2), _e(0, 2), _e(1, 2)),
    }),
    "xeqy_words": (lambda: xeqy_words(_e(2), _e(2), _e(0), _e(1), 1, 1, _e(0), _e(1)), {
        "u^t v": lambda: xeqy_words(_e(2), _e(2), _e(0), _e(1) + _e(0), 1, 1, _e(0), _e(1)),
        "x^t v": lambda: xeqy_words(_e(2), _e(2), _e(0), _e(1) + _e(2, 3), 1, 1, _e(0), _e(1)),
        "u^t y": lambda: xeqy_words(_e(2), _e(2) + _e(0), _e(0), _e(1), 1, 1, _e(0), _e(1)),
        "x^t u": lambda: xeqy_words(_e(2) + _e(0), _e(2), _e(0), _e(1), 1, 1, _e(0), _e(1)),
        "y^t v": lambda: xeqy_words(_e(2), _e(2) + _e(1), _e(0), _e(1), 1, 1, _e(0), _e(1)),
        "x^t y": lambda: xeqy_words(_e(2), _e(2), _e(0), _e(1), 2, 1, _e(0), _e(1)),
        "zu^t u": lambda: xeqy_words(_e(2), _e(2), _e(0), _e(1), 1, 1, _e(1), _e(1)),
        "zv^t v": lambda: xeqy_words(_e(2), _e(2), _e(0), _e(1), 1, 1, _e(0), _e(0)),
    }),
}


@pytest.mark.parametrize(
    "entry, broken", [(entry, tag) for entry, (_, cases) in HYPOTHESES.items() for tag in cases]
)
def test_each_hypothesis_is_checked(entry, broken):
    valid, cases = HYPOTHESES[entry]
    valid()
    with pytest.raises(VdkError):
        cases[broken]()
    # in a word memo scope a failed call stores nothing, so it fails again
    with word_memo():
        valid()
        for _ in range(2):
            with pytest.raises(VdkError):
                cases[broken]()


# ---------------------------------------------------------------------------
# the word memo of a suite run


def _memo_args(ring, rng):
    """Valid arguments of x_small and of tul_word over ring: u^t v = 0 with
    zero slots, and a quotient q orthogonal to the fixed vector."""

    def draw():
        return Elem(ring, random_payload(ring, rng))

    a, b, c, d, t, s = (draw() for _ in range(6))
    zero = ring.zero()
    small = (vector(ring, [a, b, c, zero]), vector(ring, [-(b * t), a * t, zero, d]))
    u = vector(ring, [a, b, c, d])
    q = vector(ring, [-(b * t), a * t, -(d * s), c * s])
    z = vector(ring, [draw() for _ in range(4)])
    return small, (u, q.scale(z.dot(u)), z, q), draw()


def _memo_words(cases):
    # both kinds and two multipliers on the same vectors, so that a key
    # without the kind or the multiplier would return a wrong word
    out = []
    for (u, v), tul, mult in cases:
        out += [x_small(u, v), x_small(u, v, index=3, mode="u")]
        out += [tul_word(kind, *tul, mult=m) for kind in "XY" for m in (None, mult)]
    return out


@pytest.mark.parametrize("spec", ["z/6", "f3", "quo(poly(f2,X),[0,0,1])", "prod(f2,f3)", "loc(z,2)", "semi(z,2)"])
def test_memo_returns_the_fresh_words(spec):
    ring = make_ring(spec)
    rng = random.Random(spec)
    cases = [_memo_args(ring, rng) for _ in range(20)]
    fresh = _memo_words(cases)
    assert vdk._WORDS is None
    with word_memo():
        first = _memo_words(cases)
        size = len(vdk._WORDS)
        again = _memo_words(cases)
        assert len(vdk._WORDS) == size
    assert vdk._WORDS is None
    assert all(w2 is w1 for w1, w2 in zip(first, again))
    assert first == fresh  # the same system, ring and letters
    assert any(w.letters for w in fresh)


def test_memo_keeps_rings_with_the_same_payloads_apart():
    # z/4 and F2[eps] both code their elements as 0..3
    rings = [make_ring("z/4"), make_ring("quo(poly(f2,X),[0,0,1])")]
    small = [((1, 3, 0, 0), (0, 0, 2, 1)), ((3, 0, 1, 0), (0, 2, 0, 0))]
    # z^t u = 0 and u^t q = 0 over both rings, and the moving vector is zero
    tul = [("X", (1, 1, 0, 0), (0, 0, 0, 0), (2, 2, 0, 0), (2, 2, 1, 3), 3),
           ("Y", (1, 1, 0, 0), (0, 0, 0, 0), (2, 2, 0, 0), (2, 2, 0, 3), 3)]

    def build(ring):
        out = [x_small(RVector(ring, u), RVector(ring, v)) for u, v in small]
        for kind, *vecs, mult in tul:
            out.append(tul_word(kind, *(RVector(ring, x) for x in vecs), mult=ring.elem(mult)))
        return out

    fresh = [build(ring) for ring in rings]
    with word_memo():
        shared = [build(ring) for ring in rings]
    assert shared == fresh
    assert all(w.letters for words in fresh for w in words)


def test_term_tables_die_with_the_suite_run(monkeypatch):
    # one CPU, so that every table is built in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    memo, builds = vdk._memo, []

    def counted(key, build):
        if key[1:2] == ("terms",):
            return memo(key, lambda: builds.append(key) or build())
        return memo(key, build)

    monkeypatch.setattr(vdk, "_memo", counted)
    counts = []
    for _ in range(2):
        before = len(builds)
        assert S.run_suite(S.SuiteConfig(suite="vdk-identities")).verdict == "pass"
        counts.append(len(builds) - before)
    # a table kept past the first run would not be built in the second
    assert counts[0] > 0 and counts[1] == counts[0]
    assert vdk._WORDS is None


def test_run_suite_closes_the_memo(monkeypatch):
    seen = []

    def suite(config, raises):
        seen.append(len(vdk._WORDS))  # a new memo for each run
        x_small(_e(0), _e(1))
        seen.append(len(vdk._WORDS))
        if raises:
            raise RuntimeError("a suite that raises")
        return []

    for raises in (False, True):
        monkeypatch.setitem(S.SUITES, "xeqy", (lambda c, r=raises: suite(c, r), 0, 0, False, 4))
        with contextlib.nullcontext() if not raises else pytest.raises(RuntimeError):
            S.run_suite(S.SuiteConfig(suite="xeqy"))
        assert vdk._WORDS is None
    assert seen == [0, 1, 0, 1]
    x_small(_e(0), _e(1))  # outside a run a builder stores nothing
    assert vdk._WORDS is None
