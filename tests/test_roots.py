import itertools

import pytest

from steinberg.roots import Root, RootSystemError, a3_chain, build_system, structure_constant


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
