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
    assert a3.sign(r12, r23) == 1
    with pytest.raises(RootSystemError):
        a3.sign(r12, Root((1, -1, 0, 0)))


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
# (a, b) of roots in root order with a + b a root; the A and D tables are
# those the integer matrix commutators x_a(1) x_b(1) x_a(-1) x_b(-1) gave
SIGN_TABLES = {
    "A2": "af2c48d6aa86a48213f0fa13784a09daae2ee6422135221526e48a2f7d1917b2",
    "A3": "5c7947fbbe8ccf3f5476b94403d9abec7f8e321602a92f1b1a1e8562aeca251a",
    "A4": "39f4689bf21f83f03e81ea2dc7f4fe7fc3b8f0e5106648cf8885827f53a70461",
    "A5": "b5cc83be20d733c19df7faa35d91e787f3d454ea372887b88cb9855038215fe9",
    "D3": "ae379dde86d31df455e66790a3158ccdbff1b9734d1ab08f2132ce8e48b9e881",
    "D4": "9d8b35849ecfc0b7312a993f54428c814c2cdac5abd98f41e61d8ac6d4cf39de",
    "D5": "f6404885537e4b3d92a928b74d093911fbd950b2bd28a712234f3a29f0240aaf",
    "D6": "77d18a8d9039244065b608eb61bad70220076d734c0cf205a38cea30ff7e50ec",
    "E6": "8da13f080b4adc565f3ae5c859ae0cb33d34850bdee5fa9183f9702011a2e526",
    "E7": "2dc19a296361ed02ba3986ef05721d7d417156c9dc765e0f4f532ce12637ddaa",
    "E8": "1ce2ded0cddad0a531eb2accc045415fa0402a13186c8f8c717d555e0c012af6",
}


@pytest.mark.parametrize("name", sorted(SIGN_TABLES))
def test_e_sign_tables_are_pinned(name):
    datum = build_system(name)
    signs = "".join(
        "+" if datum.sign(a, b) > 0 else "-"
        for a, b in itertools.product(datum.roots, repeat=2)
        if a + b in datum
    )
    assert hashlib.sha256(signs.encode()).hexdigest() == SIGN_TABLES[name]


@pytest.mark.parametrize(
    "name, ri, change, refused",
    [
        ("D4", 5, lambda entries: (entries[0], entries[1][:2] + (-entries[1][2],)), 24),
        ("A3", 3, lambda entries: ((entries[0][0], entries[0][0], 1),), 12),
    ],
    ids=["D-second-sign-flipped", "A-made-diagonal"],
)
def test_a_changed_root_element_makes_its_brackets_refused(name, ri, change, refused):
    # one root element E = x(1) - 1 changed in one entry: the brackets that
    # read it are no longer +-E of the sum, and sign names the pair
    datum = build_system(name)
    datum.unipotent_entries(ri)  # fills the cache that is changed below
    entries = list(datum._unipotent_entries)
    entries[ri] = change(entries[ri])
    datum._unipotent_entries = tuple(entries)
    root = datum.roots[ri]
    seen = 0
    for a, b in itertools.product(datum.roots, repeat=2):
        if a + b not in datum:
            continue
        try:
            datum.sign(a, b)
        except RootSystemError as exc:
            assert root in (a, b, a + b) and f"{a},{b}" in str(exc)
            seen += 1
    assert seen == refused


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
