import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laws import is_identity
from steinberg import words as W
from steinberg.matrices import RMatrix, unipotent
from steinberg.rings import Elem, FGIdeal, make_ring, split_data
from steinberg.roots import build_system
from steinberg.words import (
    SemidirectElement,
    StWord,
    WordError,
    coefficient_map,
    contragredient,
    phi,
    semidirect_commutator,
    simplify,
    transpose_anti,
    x_ij,
    z_generator,
)

A3 = build_system("A3")
Z6 = make_ring("z/6")


def rand_word(rng, length=8, ring=Z6, system=A3):
    pool = list(ring.payloads())
    letters = [
        (rng.randrange(len(system.roots)), Elem(ring, pool[rng.randrange(len(pool))]))
        for _ in range(length)
    ]
    return StWord(system, ring, letters)


def test_inverse_is_reversal_with_negation():
    w = x_ij(A3, Z6, 0, 1, 2) * x_ij(A3, Z6, 1, 2, 3)
    inv = w.inverse()
    assert inv.letters[0][1].payload == 3
    assert is_identity(phi(w * inv))


def test_commutator_of_identity_cancels():
    w = x_ij(A3, Z6, 0, 1, 2)
    e = W.empty(A3, Z6)
    assert simplify(W.commutator(w, e)).is_empty()


def test_same_root_additivity_matrix():
    for r in range(6):
        for s in range(6):
            lhs = phi(x_ij(A3, Z6, 0, 1, r) * x_ij(A3, Z6, 0, 1, s))
            assert lhs == phi(x_ij(A3, Z6, 0, 1, (r + s) % 6))


def test_chained_commutator_matrix():
    for r in range(6):
        for s in range(6):
            c = phi(W.commutator(x_ij(A3, Z6, 0, 1, r), x_ij(A3, Z6, 1, 2, s)))
            assert c == phi(x_ij(A3, Z6, 0, 2, (r * s) % 6))


def test_simplify_merges_and_cancels():
    w = x_ij(A3, Z6, 0, 1, 2) * x_ij(A3, Z6, 0, 1, 4)
    assert simplify(w).is_empty()
    w2 = x_ij(A3, Z6, 0, 1, 2) * x_ij(A3, Z6, 0, 1, 3)
    assert simplify(w2) == x_ij(A3, Z6, 0, 1, 5)


def test_simplify_preserves_phi_and_inverses_cancel():
    rng = random.Random(11)
    for _ in range(1000):
        w = rand_word(rng)
        assert phi(simplify(w)) == phi(w)
        assert is_identity(phi(w * w.inverse()))


def test_phi_is_homomorphism_sampled():
    rng = random.Random(13)
    for _ in range(300):
        a = rand_word(rng, 5)
        b = rand_word(rng, 5)
        assert phi(a * b) == phi(a) * phi(b)


def test_transpose_anti():
    w = x_ij(A3, Z6, 0, 1, 4)
    t = transpose_anti(w)
    assert phi(t) == phi(w).transpose()
    rng = random.Random(17)
    for _ in range(500):
        a = rand_word(rng, 4)
        b = rand_word(rng, 4)
        # anti-homomorphism: the transpose of a product reverses factors
        assert transpose_anti(a * b) == transpose_anti(b) * transpose_anti(a)
        assert phi(transpose_anti(a * b)) == (phi(a) * phi(b)).transpose()
        assert transpose_anti(transpose_anti(a)) == a


def test_transpose_anti_non_a_rejected():
    d4 = build_system("D4")
    z4 = make_ring("z/4")
    w = StWord(d4, z4, [(0, z4.el(1))])
    with pytest.raises(WordError):
        transpose_anti(w)


def test_contragredient_letter_map():
    d4 = build_system("D4")
    z4 = make_ring("z/4")
    root = d4.roots[0]
    w = StWord(d4, z4, [(0, z4.el(1)), (5, z4.el(3))])
    want = [(d4.index[-root], z4.el(1)), (d4.index[-d4.roots[5]], z4.el(3))]
    assert contragredient(w) == StWord(d4, z4, want)
    assert contragredient(x_ij(A3, Z6, 0, 1, 4)) == x_ij(A3, Z6, 1, 0, 2)
    rng = random.Random(23)
    for _ in range(200):
        a = rand_word(rng, 4)
        b = rand_word(rng, 4)
        # a homomorphism on words and an involution
        assert contragredient(a * b) == contragredient(a) * contragredient(b)
        assert contragredient(contragredient(a)) == a
        assert is_identity(phi(contragredient(a)).transpose() * phi(a))


def test_contragredient_e_rejected():
    e6 = build_system("E6")
    f2 = make_ring("f2")
    with pytest.raises(WordError):
        contragredient(StWord(e6, f2, [(0, f2.one())]))


def test_mismatched_words_rejected():
    f2 = make_ring("f2")
    with pytest.raises(WordError):
        x_ij(A3, Z6, 0, 1, 1) * x_ij(A3, f2, 0, 1, 1)


def test_z_generator():
    alpha = A3.roots[0]
    z = z_generator(A3, Z6, alpha, 2, 3)
    assert len(z.letters) == 3
    expected = (
        unipotent(A3, -alpha, Z6.el(3))
        * unipotent(A3, alpha, Z6.el(2))
        * unipotent(A3, -alpha, Z6.el(-3))
    )
    assert phi(z) == expected
    assert simplify(z_generator(A3, Z6, alpha, 2, 0)) == W.word(A3, Z6, [(alpha, 2)])


def test_z_generator_dies_in_quotient():
    # with s in the ideal, the relative generator maps to 1 mod I
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    sd = split_data(f2e, FGIdeal(f2e, [f2e.gen()]))
    for alpha in A3.roots[:4]:
        for r_p in f2e.payloads():
            z = z_generator(A3, f2e, alpha, f2e.gen(), Elem(f2e, r_p))
            reduced = coefficient_map(sd.pi, A3, z)
            assert is_identity(phi(reduced))


def _split_fixture():
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    sd = split_data(f2e, FGIdeal(f2e, [f2e.gen()]))
    return f2e, sd


def test_semidirect_multiplication_and_inverse():
    f2e, sd = _split_fixture()
    rng = random.Random(19)
    for _ in range(100):
        k1 = rand_word(rng, 3, ring=f2e)
        q1 = rand_word(rng, 3, ring=sd.quotient)
        x = SemidirectElement(sd, A3, k1, q1)
        ident = SemidirectElement(sd, A3, W.empty(A3, f2e), W.empty(A3, sd.quotient))
        assert (x * x.inverse()).phi_pair() == ident.phi_pair()
        assert (x.inverse() * x).phi_pair() == ident.phi_pair()


def test_semidirect_commutator_formula_matches_direct():
    f2e, sd = _split_fixture()
    rng = random.Random(23)
    for _ in range(200):
        x = SemidirectElement(sd, A3, rand_word(rng, 3, ring=f2e), rand_word(rng, 3, ring=sd.quotient))
        y = SemidirectElement(sd, A3, rand_word(rng, 3, ring=f2e), rand_word(rng, 3, ring=sd.quotient))
        assert semidirect_commutator(x, y).phi_pair() == W.commutator(x, y).phi_pair()


def test_word_serialization_roundtrip():
    w = x_ij(A3, Z6, 0, 1, 2) * x_ij(A3, Z6, 2, 3, 5)
    lit = w.to_literal()
    rebuilt = W.word(A3, Z6, [(idx, c) for idx, c in lit])
    assert rebuilt == w


@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 5)), max_size=10))
@settings(max_examples=80, deadline=None)
def test_simplify_is_idempotent(letters):
    w = StWord(A3, Z6, [(i, Z6.el(c)) for i, c in letters])
    s = simplify(w)
    assert simplify(s) == s
    assert phi(s) == phi(w)


def _unipotent_by_hand(system, root, c):
    """x_root(c) in the standard realization, from the root's coordinates."""
    ring = c.ring
    n = system.matrix_size()
    data = [ring.one_p if i == j else ring.zero_p for i in range(n) for j in range(n)]
    if not c.is_zero():
        if system.family == "A":
            data[root.coords.index(1) * n + root.coords.index(-1)] = c.payload
        else:
            (p, sp), (q, sq) = [(k + 1, x) for k, x in enumerate(root.coords) if x]
            i, j = sp * p, -sq * q
            pos = lambda k: k - 1 if k > 0 else n + k  # noqa: E731
            data[pos(i) * n + pos(j)] = c.payload
            data[pos(-j) * n + pos(-i)] = ring.p_neg(c.payload)
    return RMatrix(ring, n, tuple(data))


def _phi_by_products(w):
    """The product of the letters' unipotents, one matrix product a letter."""
    n = w.system.matrix_size()
    acc = RMatrix(w.ring, n, tuple(w.ring.one_p if i == j else w.ring.zero_p
                                   for i in range(n) for j in range(n)))
    for idx, c in w.letters:
        acc = acc * _unipotent_by_hand(w.system, w.system.roots[idx], c)
    return acc


@pytest.mark.parametrize("sysname", ["A2", "A3", "A4", "D4", "D5"])
@pytest.mark.parametrize(
    "ringspec", ["f2", "z/4", "z/6", "quo(poly(f2,X),[0,0,1])", "prod(f2,f3)"]
)
def test_phi_matches_product_of_unipotents(sysname, ringspec):
    system = build_system(sysname)
    ring = make_ring(ringspec)
    pool = list(ring.payloads())  # zero included, so words keep zero letters
    rng = random.Random(f"{sysname}/{ringspec}")
    for trial in range(30):
        letters = [
            (rng.randrange(len(system.roots)), Elem(ring, rng.choice(pool)))
            for _ in range(rng.randrange(0, 16))
        ]
        if trial == 0:
            letters = [(0, ring.zero())] * 3
        w = StWord(system, ring, letters)
        got, want = phi(w), _phi_by_products(w)
        assert got.data == want.data
        assert is_identity(phi(contragredient(w)).transpose() * phi(w))
    for root in system.roots:
        c = Elem(ring, pool[-1])
        assert unipotent(system, root, c).data == _unipotent_by_hand(system, root, c).data
