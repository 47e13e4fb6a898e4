import hashlib
import itertools

import pytest

from steinberg.roots import (
    Root,
    RootDatum,
    RootSystemError,
    _cocycle_data,
    _positive_system,
    a3_chain,
    build_system,
    structure_constant,
)


def test_root_counts():
    assert len(build_system("A2").roots) == 6
    assert len(build_system("A3").roots) == 12
    assert len(build_system("A4").roots) == 20
    assert len(build_system("D3").roots) == 12
    assert len(build_system("D4").roots) == 24
    assert len(build_system("D5").roots) == 40
    assert len(build_system("E6").roots) == 72
    assert len(build_system("E7").roots) == 126
    assert len(build_system("E8").roots) == 240


def test_norms_are_two():
    for name in ("A3", "D4", "E6"):
        assert all(r.norm2() == 2 for r in build_system(name).roots)


def test_unsupported_families():
    with pytest.raises(RootSystemError):
        build_system("B2")
    with pytest.raises(RootSystemError):
        build_system("A1")
    with pytest.raises(RootSystemError):
        build_system("E9")


def test_structure_constant_examples():
    a3 = build_system("A3")
    r12 = Root((1, -1, 0, 0))
    r23 = Root((0, 1, -1, 0))
    assert structure_constant(a3, r12, r23) == 1
    with pytest.raises(RootSystemError):
        structure_constant(a3, r12, Root((1, -1, 0, 0)))


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_sign_antisymmetry_exhaustive(name):
    datum = build_system(name)
    count = 0
    for al, be in itertools.product(datum.roots, repeat=2):
        if (al + be) in datum:
            count += 1
            assert datum.sign(al, be) == -datum.sign(be, al)
    assert count > 0


def test_e6_cocycle_antisymmetry():
    e6 = build_system("E6")
    seen = 0
    for al, be in itertools.product(e6.roots, repeat=2):
        if (al + be) in e6:
            assert e6.sign(al, be) == -e6.sign(be, al)
            seen += 1
            if seen >= 600:
                return
    assert seen


def _cyclic_sign_violations(datum):
    """(triples, violations) of N_{a,b} = N_{b,c} = N_{c,a} over the ordered
    triples of roots with a + b + c = 0 (Carter, Simple Groups of Lie Type,
    1972, Thm 4.1.2, with every root of squared length 2)."""
    triples = violations = 0
    for a, b in itertools.product(datum.roots, repeat=2):
        c = -(a + b)
        if c in datum:
            triples += 1
            violations += not (datum.sign(a, b) == datum.sign(b, c) == datum.sign(c, a))
    return triples, violations


@pytest.mark.parametrize(
    "name, triples",
    [("A2", 12), ("A3", 48), ("A4", 120), ("D4", 192), ("D5", 480), ("E6", 1440), ("E7", 4032), ("E8", 13440)],
)
def test_signs_are_cyclic_on_triples_summing_to_zero(name, triples):
    assert _cyclic_sign_violations(build_system(name)) == (triples, 0)


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_cyclic_sign_check_fails_on_one_flipped_sign(name):
    # flipping N_{a,b} and N_{b,a} keeps antisymmetry, but not the cycle
    datum = build_system(name)
    a, b = next((a, b) for a, b in itertools.product(datum.roots, repeat=2) if a + b in datum)
    sign = datum.sign(a, b)
    datum._signs[(datum.index[a], datum.index[b])] = -sign
    datum._signs[(datum.index[b], datum.index[a])] = sign
    assert _cyclic_sign_violations(datum)[1] > 0


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_root_string_coordinates_give_back_every_root(name):
    datum = build_system(name)
    coords, _ = _cocycle_data(datum)
    simple = _positive_system(datum)[1]
    for r in datum.roots:
        total = [0] * len(r.coords)
        for c, s in zip(coords[r], simple):
            total = [t + c * x for t, x in zip(total, s.coords)]
        assert Root(total) == r


# sha256 of the sign string: "+" or "-" for N_{a,b}, over the ordered pairs
# (a, b) of roots in root order with a + b a root
E_SIGN_TABLES = {
    "E6": "8da13f080b4adc565f3ae5c859ae0cb33d34850bdee5fa9183f9702011a2e526",
    "E7": "2dc19a296361ed02ba3986ef05721d7d417156c9dc765e0f4f532ce12637ddaa",
    "E8": "1ce2ded0cddad0a531eb2accc045415fa0402a13186c8f8c717d555e0c012af6",
}


@pytest.mark.parametrize("name", sorted(E_SIGN_TABLES))
def test_e_sign_tables_are_pinned(name):
    datum = build_system(name)
    signs = "".join(
        "+" if datum.sign(a, b) > 0 else "-"
        for a, b in itertools.product(datum.roots, repeat=2)
        if a + b in datum
    )
    assert hashlib.sha256(signs.encode()).hexdigest() == E_SIGN_TABLES[name]


def test_a_root_that_peels_to_no_simple_root_is_refused():
    # a and b are orthogonal, so a + b has squared length 4 and pairs to 2
    # with both: it is no sum of a root and a simple root
    a, b = Root((1, -1, 0, 0)), Root((0, 0, 1, -1))
    datum = RootDatum("E", 2, [a, b, a + b, -a, -b, -(a + b)])
    with pytest.raises(RootSystemError, match="peels to no positive root"):
        datum.sign(a, b)


def test_a3_chain_trivial_cases():
    a3 = build_system("A3")
    assert all(a3_chain(a3, r) is not None for r in a3.roots)
    a2 = build_system("A2")
    assert all(a3_chain(a2, r) is None for r in a2.roots)


def test_a3_chain_pairings_and_roots():
    for name in ("D4", "D5", "E6"):
        datum = build_system(name)
        for alpha in datum.roots:
            beta, gamma = a3_chain(datum, alpha)
            assert (alpha.dot(beta), beta.dot(gamma), alpha.dot(gamma)) == (-1, -1, 0)
            positive = [alpha, beta, gamma, alpha + beta, beta + gamma, alpha + beta + gamma]
            chain = set(positive) | {-r for r in positive}
            assert len(chain) == 12 and chain <= datum.root_set


def _chain_by_rational_pairings(datum, alpha):
    # the search a3_chain makes, on Root.dot over the exact coordinates
    for beta in datum.roots:
        if alpha.dot(beta) != -1:
            continue
        for gamma in datum.roots:
            if beta.dot(gamma) == -1 and alpha.dot(gamma) == 0:
                return beta, gamma
    return None


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "D3", "D4", "D5", "D6", "E6", "E7", "E8"])
def test_a3_chain_matches_the_rational_pairing_search(name):
    datum = build_system(name)
    assert all(
        datum.pairings()[i][j] == a.dot(b)
        for i, a in enumerate(datum.roots[:12])
        for j, b in enumerate(datum.roots)
    )
    for alpha in datum.roots:
        assert a3_chain(datum, alpha) == _chain_by_rational_pairings(datum, alpha)


def test_d_pair_convention():
    d4 = build_system("D4")
    root = Root((1, -1, 0, 0))
    assert d4.d_pair(root) == (1, 2)
    root = Root((0, 1, 1, 0))
    assert d4.d_pair(root) == (2, -3)
    root = Root((-1, 0, 0, -1))
    assert d4.d_pair(root) == (-1, 4)
