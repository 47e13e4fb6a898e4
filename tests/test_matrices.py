import random

import pytest

from laws import gram_hyperbolic, is_identity
from steinberg.matrices import (
    MatrixError,
    RMatrix,
    RVector,
    basis_vector,
    identity_matrix,
    matrix_group_order,
    right_multiplier,
    transvection,
    unipotent,
    vector,
)
from steinberg.rings import Elem, make_ring
from steinberg.roots import Root, RootSystemError, build_system
from steinberg.words import StWord, contragredient, empty, phi, x_ij


def test_unipotent_a_family():
    a3 = build_system("A3")
    z6 = make_ring("z/6")
    root = Root((1, -1, 0, 0))
    m = unipotent(a3, root, z6.el(5))
    assert m.data[0 * 4 + 1] == 5
    assert m.data[1 * 4 + 0] == z6.zero_p
    assert m.data[0 * 4 + 0] == z6.one_p


def test_unipotent_e_unsupported():
    e6 = build_system("E6")
    f2 = make_ring("f2")
    with pytest.raises(RootSystemError):
        unipotent(e6, e6.roots[0], f2.one())


def test_d4_unipotents_preserve_gram_exhaustive():
    d4 = build_system("D4")
    z4 = make_ring("z/4")
    J = gram_hyperbolic(z4, 4)
    for root in d4.roots:
        for x in range(4):
            G = unipotent(d4, root, z4.el(x))
            assert G.transpose() * J * G == J


def test_transvection_laws_random():
    z6 = make_ring("z/6")
    rng = random.Random(3)
    done = 0
    while done < 200:
        u = vector(z6, [rng.randrange(6) for _ in range(4)])
        v = vector(z6, [rng.randrange(6) for _ in range(4)])
        w = vector(z6, [rng.randrange(6) for _ in range(4)])
        if not (u.dot(v).is_zero() and u.dot(w).is_zero()):
            continue
        done += 1
        assert transvection(u, v) * transvection(u, w) == transvection(u, v + w)
        assert is_identity(transvection(u, v) * transvection(u, -v))
        # the contragredient law t(u,v)* = t(v,-u), that is t(v,-u)^t t(u,v) = 1
        assert is_identity(transvection(v, -u).transpose() * transvection(u, v))


def test_transvection_basis_case():
    a3 = build_system("A3")
    z6 = make_ring("z/6")
    u = basis_vector(z6, 4, 0)
    v = basis_vector(z6, 4, 1).scale(z6.el(4))
    assert transvection(u, v) == unipotent(a3, Root((1, -1, 0, 0)), z6.el(4))


def test_contragredient_identity_and_elementary():
    a3 = build_system("A3")
    z6 = make_ring("z/6")
    assert phi(contragredient(empty(a3, z6))) == identity_matrix(z6, 4)
    w = x_ij(a3, z6, 0, 1, 5)
    assert phi(contragredient(w)) == unipotent(a3, Root((-1, 1, 0, 0)), z6.el(1))


def test_inverse_by_factor_reversal():
    d4 = build_system("D4")
    z4 = make_ring("z/4")
    rng = random.Random(5)
    for _ in range(50):
        letters = [(rng.randrange(24), z4.el(rng.randrange(4))) for _ in range(4)]
        w = StWord(d4, z4, letters)
        m = phi(w)
        assert is_identity(m * phi(w.inverse()))
        assert is_identity(phi(contragredient(w)).transpose() * m)


def test_matrix_group_orders():
    f2 = make_ring("f2")
    a2 = build_system("A2")
    gens = [unipotent(a2, r, f2.one()) for r in a2.roots]
    assert matrix_group_order(gens) == 168
    f3 = make_ring("f3")
    gens3 = [unipotent(a2, r, f3.el(s)) for r in a2.roots for s in (1, 2)]
    assert matrix_group_order(gens3) == 5616  # |SL(3,3)|


def test_matrix_group_orders_over_f2_and_z4():
    # one closure for every ring: F2 had a bit-packed closure of its own
    a3, f2 = build_system("A3"), make_ring("f2")
    assert matrix_group_order([unipotent(a3, r, f2.one()) for r in a3.roots]) == 20160
    a2, z4 = build_system("A2"), make_ring("z/4")
    assert matrix_group_order([unipotent(a2, r, z4.one()) for r in a2.roots]) == 43008  # |SL(3,Z/4)|


def _dense(ring, rows):
    return RMatrix(ring, len(rows), tuple(ring.el(x).payload for row in rows for x in row))


def test_matrix_group_order_with_generators_that_are_not_unipotent():
    # <diag(-1,-1,1), permutation matrices> over F3: the monomial matrices
    # with entries +-1 whose signs multiply to 1, (Z/2)^2 x| S3 of order 24
    f3 = make_ring("f3")
    gens = [
        _dense(f3, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
        _dense(f3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        _dense(f3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    ]
    assert matrix_group_order(gens) == 24
    assert matrix_group_order(gens[:1]) == 2
    assert matrix_group_order(gens[1:]) == 6


@pytest.mark.parametrize("spec", ["z/6", "f3", "quo(poly(f2,X),[0,0,1])"])
def test_right_multiplier_matches_matrix_product(spec):
    ring = make_ring(spec)
    pool = list(ring.payloads())
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(60):
            m, g = (
                RMatrix(ring, n, tuple(p if (p := rng.choice(pool)) != ring.zero_p and rng.random() < 0.6
                                       else ring.zero_p for _ in range(n * n)))
                for _ in range(2)
            )
            assert right_multiplier(g)(m.data) == (m * g).data


def _ref_apply(ring, rows, vec):
    """rows * vec on nested lists of payloads, from p_add and p_mul alone."""
    out = []
    for row in rows:
        acc = ring.zero_p
        for a, b in zip(row, vec):
            acc = ring.p_add(acc, ring.p_mul(a, b))
        out.append(acc)
    return out


@pytest.mark.parametrize("spec", ["z/6", "f3", "quo(poly(f2,X),[0,0,1])", "prod(f2,f3)"])
def test_dense_matrix_matches_nested_lists(spec):
    # an independent reference for RMatrix: the product tests above lean on
    # RMatrix.__mul__ themselves
    ring = make_ring(spec)
    pool = list(ring.payloads())  # zero included
    rng = random.Random(spec)
    flat = lambda rows: tuple(p for row in rows for p in row)  # noqa: E731
    for n in range(1, 6):
        ident = [[ring.one_p if i == j else ring.zero_p for j in range(n)] for i in range(n)]
        for _ in range(40):
            a, b = (
                [[rng.choice(pool) if rng.random() < 0.7 else ring.zero_p for _ in range(n)] for _ in range(n)]
                for _ in range(2)
            )
            ma, mb = RMatrix(ring, n, flat(a)), RMatrix(ring, n, flat(b))
            product_cols = [_ref_apply(ring, a, col) for col in zip(*b)]
            assert (ma * mb).data == flat(zip(*product_cols))
            vec = [rng.choice(pool) for _ in range(n)]
            got = ma * RVector(ring, tuple(vec))
            assert list(got.data) == _ref_apply(ring, a, vec)
            assert ma.transpose().data == flat(zip(*a))
            assert is_identity(ma) == (a == ident)
        assert identity_matrix(ring, n).data == flat(ident)
        assert is_identity(RMatrix(ring, n, flat(ident)))
        for k in range(n * n):  # one entry off the identity
            data = list(flat(ident))
            data[k] = rng.choice([p for p in pool if p != data[k]])
            assert not is_identity(RMatrix(ring, n, tuple(data)))


@pytest.mark.parametrize("spec", ["z/6", "f3", "quo(poly(f2,X),[0,0,1])", "prod(f2,f3)"])
def test_payload_vectors_match_class_arithmetic(spec):
    # every vector operation against lists of payloads and the class p_*
    # methods alone, which on z/N also sidesteps the rings' lookup tables
    ring = make_ring(spec)
    cls = type(ring)
    add = lambda a, b: cls.p_add(ring, a, b)  # noqa: E731
    mul = lambda a, b: cls.p_mul(ring, a, b)  # noqa: E731
    neg = lambda a: cls.p_neg(ring, a)  # noqa: E731
    zero, one = ring.zero_p, ring.one_p
    pool = list(ring.payloads())
    rng = random.Random(spec)
    for n in range(1, 6):
        lists = [[zero] * n] + [[rng.choice(pool) for _ in range(n)] for _ in range(30)]
        for a in lists:
            b, c = rng.choice(lists), rng.choice(pool)
            u = vector(ring, [Elem(ring, p) for p in a])
            v = RVector(ring, tuple(b))
            assert u.data == tuple(a) and len(u) == n
            assert (u + v).data == tuple(add(x, y) for x, y in zip(a, b))
            assert (u - v).data == tuple(add(x, neg(y)) for x, y in zip(a, b))
            assert (-u).data == tuple(neg(x) for x in a)
            assert u.scale(Elem(ring, c)).data == tuple(mul(x, c) for x in a)
            acc = zero
            for x, y in zip(a, b):
                acc = add(acc, mul(x, y))
            assert u.dot(v) == Elem(ring, acc)
            assert u.zero_positions() == [i for i, x in enumerate(a) if x == zero]
            assert (u == v) == (a == b) and u == RVector(ring, tuple(a))
            assert hash(u) == hash(RVector(ring, tuple(a)))
            assert u != RVector(make_ring("z/1"), tuple(a))
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            m = RMatrix(ring, n, tuple(p for row in rows for p in row))
            want = []
            for row in rows:
                acc = zero
                for x, y in zip(row, a):
                    acc = add(acc, mul(x, y))
                want.append(acc)
            assert m.apply(u).data == tuple(want) == (m * u).data
            t = [[add(one if i == j else zero, mul(a[i], b[j])) for j in range(n)] for i in range(n)]
            assert transvection(u, v).data == tuple(p for row in t for p in row)
        assert vector(ring, [1, 0] * n).data == (one, zero) * n
        assert basis_vector(ring, n, n - 1).data == (zero,) * (n - 1) + (one,)


@pytest.mark.parametrize("op", ["add", "sub", "dot"])
@pytest.mark.parametrize("other", ["shorter", "other ring"])
def test_vector_ops_refuse_a_length_or_ring_mismatch(op, other):
    # zip would truncate: z/6 (1,2,3).(1,2) gave 5, and z/4 (1,2,3,3) plus
    # the F2[eps] vector of the same codes gave the z/4 vector (2,0,2,2)
    z4, z6, f2e = make_ring("z/4"), make_ring("z/6"), make_ring("quo(poly(f2,X),[0,0,1])")
    u, v = {
        "shorter": (RVector(z6, (1, 2, 3)), RVector(z6, (1, 2))),
        "other ring": (RVector(z4, (1, 2, 3, 3)), RVector(f2e, (1, 2, 3, 3))),
    }[other]
    with pytest.raises(MatrixError):
        {"add": u.__add__, "sub": u.__sub__, "dot": u.dot}[op](v)
    with pytest.raises(MatrixError):
        {"add": v.__add__, "sub": v.__sub__, "dot": v.dot}[op](u)


def test_matrix_apply_refuses_a_vector_of_another_ring():
    z4, f2e = make_ring("z/4"), make_ring("quo(poly(f2,X),[0,0,1])")
    with pytest.raises(MatrixError):
        identity_matrix(z4, 4) * RVector(f2e, (1, 2, 3, 3))
