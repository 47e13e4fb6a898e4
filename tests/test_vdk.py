import random

import pytest

from steinberg import words as W
from steinberg.matrices import (
    RMatrix,
    RVector,
    basis_vector,
    transvection,
    vector,
)
from steinberg.rings import Elem, FGIdeal, lin_solve, localization, make_ring, split_data
from steinberg.vdk import (
    FSymbol,
    OrbitVector,
    SSymbol,
    VdkError,
    X_gen,
    X_tul,
    X_tul_of,
    Y_gen,
    basis_orbit_vector,
    canonical_decomposition,
    decompose_in_D,
    decompose_with,
    iota,
    linear_system,
    psi_map,
    t_map,
    x_small,
    xeqy_words,
)
from steinberg.words import coefficient_map, contragredient, phi, simplify

Z6 = make_ring("z/6")
F2 = make_ring("f2")
A3 = linear_system(4)


def rand_vec(ring, n, rng):
    pool = list(ring.payloads())
    return RVector(ring, [Elem(ring, pool[rng.randrange(len(pool))]) for _ in range(n)])


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


def test_decompose_in_D_examples():
    u = vector(Z6, [2, 3, 0, 1])
    v = vector(Z6, [0, 0, 0, 0])
    datum = decompose_in_D(u, v, 0, Z6.one())
    assert datum.terms == []
    rng = random.Random(1)
    done = 0
    while done < 100:
        v = rand_vec(Z6, 4, rng)
        if not u.dot(v).is_zero():
            continue
        done += 1
        datum = decompose_in_D(u, v, 0, Z6.one())
        acc = vector(Z6, [0, 0, 0, 0])
        for t in datum.terms:
            assert t.dot(u).is_zero()
            assert len(t.zero_positions()) >= 2
            acc = acc + t
        assert acc == v
    bad = vector(Z6, [2, 4, 0, 0])
    with pytest.raises(VdkError):
        decompose_in_D(bad, vector(Z6, [0, 0, 2, 2]), 0, Z6.one())


def test_x_tul_multiplier_zero_is_trivial():
    u = vector(Z6, [1, 2, 3, 0])
    w = vector(Z6, [2, 2, 0, 4])
    if not u.dot(w).is_zero():
        w = vector(Z6, [4, 1, 0, 0])
    z = basis_vector(Z6, 4, 0)
    b = z.dot(u)
    datum = decompose_with(u, w.scale(b), z, w)
    assert X_tul(datum, mult=Z6.zero()).is_empty()


def test_x_tul_one_matches_xgen_matrix():
    rng = random.Random(2)
    done = 0
    while done < 60:
        u = rand_vec(Z6, 4, rng)
        if lin_solve(list(u.entries), Z6.one()) is None:
            continue
        v = rand_vec(Z6, 4, rng)
        if not u.dot(v).is_zero():
            continue
        done += 1
        assert phi(X_tul_of(u, v, Z6.one())) == phi(X_gen(u, v))


def test_x_tul_one_matches_xgen_exact_f2():
    from steinberg.fp import WordTester

    tester = WordTester(A3, F2)
    vecs = [
        RVector(F2, [Elem(F2, (k >> i) & 1) for i in range(4)]) for k in range(1, 16)
    ]
    for u in vecs:
        for v in vecs + [vector(F2, [0] * 4)]:
            if not u.dot(v).is_zero():
                continue
            assert tester.exact_equal(X_tul_of(u, v, F2.one()), X_gen(u, v))


def test_xeqy_trivial_r():
    x = basis_vector(Z6, 4, 2)
    y = basis_vector(Z6, 4, 2)
    u = basis_vector(Z6, 4, 0)
    v = basis_vector(Z6, 4, 1)
    rec = xeqy_words(x, y, u, v, Z6.one(), Z6.zero())
    assert phi(rec.lhs).is_identity()
    assert phi(rec.rhs).is_identity()


def test_xeqy_hypothesis_violation():
    x = basis_vector(Z6, 4, 2)
    y = basis_vector(Z6, 4, 2)
    u = basis_vector(Z6, 4, 0)
    v = basis_vector(Z6, 4, 0)  # u^t v != 0
    with pytest.raises(VdkError):
        xeqy_words(x, y, u, v, Z6.one(), Z6.one())


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
    assert phi(coefficient_map(sd.pi, A3, word)).is_identity()
    ssym = SSymbol(u=basis_vector(f2e, 4, 2).scale(eps), v=ov)
    word = iota(ssym)
    assert phi(coefficient_map(sd.pi, A3, word)).is_identity()


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
    vB = RVector(f3, [Elem(f3, p.payload) for p in vloc.entries])
    res = t_map(f3, a, ideal, FSymbol(u=ov, v=vB), n=4)
    assert res.m == 0
    loc_mat = RMatrix(loc, 4, tuple(lam.p_fn(p) for p in phi(res.word).data))
    assert loc_mat == transvection(ov.vec, vloc)


def test_tmap_rejects_vectors_outside_ideal():
    B = make_ring("prod(f2,f3)")
    a = B.el((0, 1))
    ideal = FGIdeal(B, [a])
    loc, lam = localization(B, a)
    ov = basis_orbit_vector(loc, 4, 0)
    bad_v = RVector(B, [B.el((1, 0))] + [B.zero()] * 3)
    with pytest.raises(VdkError):
        t_map(B, a, ideal, FSymbol(u=ov, v=bad_v), n=4)
