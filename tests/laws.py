"""Reference checks the tests share: the ring and morphism laws on samples,
random payloads for rings that cannot be enumerated, the form the type-D
realization preserves, and the identity test for matrices."""

import itertools
import random

from steinberg.matrices import RMatrix, identity_matrix
from steinberg.rings import (
    FractionLocalization,
    PolyRing,
    SemidirectRing,
    UnsupportedRingError,
    ZRing,
    _strip,
)


def random_payload(ring, rng, depth=3):
    """A small random payload for infinite rings (bounded degree/height)."""
    if ring.is_finite:
        return rng.randrange(ring.size())
    if isinstance(ring, ZRing):
        return rng.randrange(-9, 10)
    if isinstance(ring, PolyRing):
        deg = rng.randrange(depth + 1)
        return _strip([random_payload(ring.base, rng, depth) for _ in range(deg + 1)], ring.base.zero_p)
    if isinstance(ring, FractionLocalization):
        return ring._canon(random_payload(ring.base, rng, depth), rng.randrange(3))
    if isinstance(ring, SemidirectRing):
        deg = rng.randrange(depth + 1)
        f = [ring.loc.zero_p] + [random_payload(ring.loc, rng, depth - 1) for _ in range(deg)]
        return (random_payload(ring.base, rng, depth), ring._fcanon(tuple(f)))
    raise UnsupportedRingError(f"cannot sample {ring.spec}")


def _sample_payloads(ring, count, rng):
    if ring.is_finite and ring.size() <= count:
        return list(ring.payloads())
    return [random_payload(ring, rng) for _ in range(count)]


def morphism_failures(m, samples=200, seed=0):
    """Sampled check that m preserves 0, 1, + and *."""
    rng = random.Random(seed)
    fails = []
    if m.p_fn(m.source.zero_p) != m.target.zero_p:
        fails.append("zero")
    if m.p_fn(m.source.one_p) != m.target.one_p:
        fails.append("one")
    pool = _sample_payloads(m.source, samples, rng)
    for x, y in zip(pool, reversed(pool)):
        if m.p_fn(m.source.p_add(x, y)) != m.target.p_add(m.p_fn(x), m.p_fn(y)):
            fails.append(("add", x, y))
        if m.p_fn(m.source.p_mul(x, y)) != m.target.p_mul(m.p_fn(x), m.p_fn(y)):
            fails.append(("mul", x, y))
    return fails


def ring_axiom_failures(ring, samples=1000, seed=0, exhaustive_limit=64):
    """Ring axioms on all triples (small finite rings) or random triples."""
    rng = random.Random(seed)
    fails = []
    if ring.is_finite and ring.size() <= exhaustive_limit:
        pool = list(ring.payloads())
        triples = itertools.product(pool, pool, pool)
    else:
        triples = (
            (random_payload(ring, rng), random_payload(ring, rng), random_payload(ring, rng))
            for _ in range(samples)
        )
    add, mul, neg = ring.p_add, ring.p_mul, ring.p_neg
    z, o = ring.zero_p, ring.one_p
    for x, y, w in triples:
        ok = (
            add(add(x, y), w) == add(x, add(y, w))
            and mul(mul(x, y), w) == mul(x, mul(y, w))
            and add(x, y) == add(y, x)
            and mul(x, y) == mul(y, x)
            and mul(x, add(y, w)) == add(mul(x, y), mul(x, w))
            and add(x, z) == x
            and mul(x, o) == x
            and add(x, neg(x)) == z
        )
        if not ok:
            fails.append((x, y, w))
            if len(fails) >= 5:
                break
    return fails


def gram_hyperbolic(ring, rank):
    """The anti-diagonal Gram matrix of the split even orthogonal form."""
    n = 2 * rank
    one, zero = ring.one_p, ring.zero_p
    return RMatrix(ring, n, tuple(one if j == n - 1 - i else zero for i in range(n) for j in range(n)))


def is_identity(m):
    """Whether the matrix m is the identity."""
    return m.data == identity_matrix(m.ring, m.n).data
