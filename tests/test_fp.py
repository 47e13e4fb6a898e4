import dataclasses
import hashlib
import json
import random
from array import array

import numpy
import pytest

from steinberg.fp import (
    Presentation,
    PresentationError,
    WordTester,
    additive_basis,
    enumerate_steinberg,
    inverse_letters,
    k2_compute,
    noncentral_columns,
    orbit_with_witnesses,
    positive_generators,
    regular_table,
    relative_subgroup_index,
    sc_order,
    simple_root_generators,
    standardize,
    star_presentations,
    steinberg_presentation,
    todd_coxeter,
    tree_images,
    uplus_data,
)
from steinberg import fp, suites
from steinberg.matrices import Inconclusive, basis_vector, identity_matrix, matrix_group_order, unipotent
from steinberg.rings import Elem, FGIdeal, UnsupportedRingError, make_ring, split_data
from steinberg.roots import NoMatrixRealization, build_system
from steinberg.words import StWord, phi, x_ij

F2 = make_ring("f2")
A2 = build_system("A2")
A3 = build_system("A3")
F2E = "quo(poly(f2,X),[0,0,1])"  # F2[eps]
F4 = "quo(poly(f2,X),[1,1,1])"


def _coset_images(sp, tbl):
    """phi of the tree word of every coset of tbl: the walk k2_compute and
    regular_table make, on the right multipliers of uplus_data."""
    ident = identity_matrix(sp.ring, sp.system.matrix_size()).data
    return tree_images(tbl, uplus_data(sp).steps, ident)


def test_cyclic_three():
    t = todd_coxeter(Presentation(ngens=1, relators=((0, 0, 0),)))
    assert t.n == 3


def test_symmetric_three():
    t = todd_coxeter(Presentation(ngens=2, relators=((0, 0), (2, 2), (0, 2, 0, 2, 0, 2))))
    assert t.n == 6


def test_quaternion_eight():
    t = todd_coxeter(
        Presentation(ngens=2, relators=((0, 0, 0, 0), (0, 0, 3, 3), (3, 0, 2, 0)))
    )
    assert t.n == 8


def test_binary_icosahedral_central_extension():
    # order 120 with center Z/2: a collapse-prone case for coincidence bugs
    t = todd_coxeter(
        Presentation(
            ngens=2, relators=((0, 0, 0, 3, 3, 3, 3, 3), (0, 0, 0, 1, 3, 1, 3))
        )
    )
    assert t.n == 120


def test_subgroup_index():
    p = Presentation(ngens=2, relators=((0, 0), (2, 2), (0, 2, 0, 2, 0, 2)))
    t = todd_coxeter(p, subgroup_words=((0,),))
    assert t.n == 3


def test_cap_is_inconclusive():
    p = Presentation(ngens=2, relators=((0, 0), (2, 2), (0, 2, 0, 2, 0, 2)))
    with pytest.raises(Inconclusive):
        todd_coxeter(p, max_cosets=4)


def test_lookahead_path(monkeypatch):
    # HLT on St(A2,F3) peaks near 7,250 live cosets but defines more than
    # the 12,000 rows that max_cosets=8000 allows before a lookahead
    compactions = []
    compact = fp._compact

    def spy(*args):
        compactions.append(1)
        return compact(*args)

    monkeypatch.setattr(fp, "_compact", spy)
    t = todd_coxeter(steinberg_presentation(A2, make_ring("f3")).presentation, max_cosets=8000)
    assert compactions and t.n == 5616


def test_table_soundness_and_determinism():
    sp = steinberg_presentation(A2, F2)
    t1 = todd_coxeter(sp.presentation)
    t2 = todd_coxeter(sp.presentation)
    assert t1.table == t2.table
    # every column is a bijection and every relator fixes every coset
    n = t1.n
    assert len(t1.table) == n * t1.ncols
    for x in range(t1.ncols):
        assert sorted(t1.table[x::t1.ncols]) == list(range(n))
    for rel in sp.presentation.relators:
        assert [t1.trace(c, rel) for c in range(n)] == list(range(n))


def test_steinberg_presentation_counts():
    # lean closed form with m = |additive basis|: |Phi| * m generators;
    # per root m power and m(m-1)/2 commutation relators, and m^2 commutator
    # relators per unordered pair of distinct non-opposite roots, of which
    # there are |Phi|(|Phi|-2)/2.
    def closed_form(nroots, m):
        return nroots * (m + m * (m - 1) // 2) + nroots * (nroots - 2) // 2 * m * m

    # A2/f2: |Phi| = 6, m = 1: 6 generators, 6*1 + 12*1 = 18 relators
    sp = steinberg_presentation(A2, F2)
    assert sp.presentation.ngens == 6
    assert len(sp.presentation.relators) == closed_form(6, 1) == 18
    # A3/f3: |Phi| = 12, basis {1}: 12 generators
    f3 = make_ring("f3")
    sp3 = steinberg_presentation(A3, f3)
    assert sp3.presentation.ngens == 12
    assert len(sp3.presentation.relators) == closed_form(12, 1) == 72
    # A2/f2[eps]: basis {1, eps}, m = 2: 12 generators, 6*3 + 12*4 = 66 relators
    sp_eps = steinberg_presentation(A2, make_ring("quo(poly(f2,X),[0,0,1])"))
    assert sp_eps.presentation.ngens == 12
    assert len(sp_eps.presentation.relators) == closed_form(6, 2) == 66


@pytest.mark.parametrize(
    "spec, orders",
    [("z/1", []), ("z/4", [4]), ("f3", [3]), ("quo(poly(f2,X),[0,0,1])", [2, 2]), ("prod(f2,f3)", [3, 2])],
)
def test_additive_basis_normal_forms(spec, orders):
    ring = make_ring(spec)
    basis, got_orders, normal_form = additive_basis(ring)
    assert got_orders == orders
    assert set(normal_form) == set(ring.payloads())
    seen = set()
    for r, coeffs in normal_form.items():
        assert all(0 <= c < o for c, o in zip(coeffs, orders))
        total = ring.zero_p
        for c, b in zip(coeffs, basis):
            total = ring.p_add(total, ring.p_mul(ring.p_from_int(c), b))
        assert total == r
        seen.add(coeffs)
    assert len(seen) == len(normal_form)


def _full_relators(datum, ring):
    """The full presentation's relators over letters (root, payload, +-1):
    additivity for every (r, s) and the commutator formula for every ordered
    pair of distinct non-opposite roots and every (r, s)."""
    nonzero = [p for p in ring.payloads() if p != ring.zero_p]
    rels = []
    for ri in range(len(datum.roots)):
        for r in nonzero:
            for s in nonzero:
                rels.append(((ri, r, 1), (ri, s, 1), (ri, ring.p_add(r, s), -1)))
    for ai, alpha in enumerate(datum.roots):
        for bi, beta in enumerate(datum.roots):
            if ai == bi or beta == -alpha:
                continue
            gamma = alpha + beta
            for r in nonzero:
                for s in nonzero:
                    rel = ((ai, r, 1), (bi, s, 1), (ai, r, -1), (bi, s, -1))
                    if gamma in datum:
                        prod = ring.p_mul(r, s)
                        if datum.sign(alpha, beta) < 0:
                            prod = ring.p_neg(prod)
                        rel += ((datum.index[gamma], prod, -1),)
                    rels.append(rel)
    return rels


@pytest.mark.parametrize(
    "system, spec, order, enumerate_full",
    [
        ("A2", "f2", 168, True),
        ("A3", "f2", 20160, False),
        ("A2", "f3", 5616, True),  # |SL(3,3)|
        ("A2", "z/4", 86016, False),
        ("A2", "quo(poly(f2,X),[0,0,1])", 43008, False),
    ],
)
def test_lean_presentation_matches_full_family(system, spec, order, enumerate_full):
    # Every full relator, mapped letter by letter through the basis
    # expansion, is trivial in the lean group; the lean relators are
    # instances of full ones.  So the two presentations define isomorphic
    # groups.  The letters bypass word_letters' simplify, which would apply
    # additivity before the table is asked.
    system = build_system(system)
    ring = make_ring(spec)
    sp = steinberg_presentation(system, ring)
    tbl = enumerate_steinberg(sp)
    assert tbl.n == order
    full = _full_relators(system, ring)
    for rel in full:
        letters = ()
        for ri, pay, e in rel:
            word = sp.expansion[(ri, pay)]
            letters += word if e == 1 else inverse_letters(word)
        assert tbl.coset_of(letters) == 0, rel
    if enumerate_full:
        gen = {}
        for rel in full:
            for ri, pay, _ in rel:
                gen.setdefault((ri, pay), len(gen))
        pres = Presentation(
            ngens=len(gen),
            relators=tuple(tuple(2 * gen[(ri, pay)] + (e < 0) for ri, pay, e in rel) for rel in full),
        )
        assert todd_coxeter(pres).n == order


def test_st3_f2_order_and_k2():
    rep = k2_compute(A2, F2)
    assert rep.st_order == 168
    assert rep.image_order == 168 == rep.bfs_image_order
    assert rep.kernel_order == 1
    assert rep.central
    assert rep.st_order == rep.kernel_order * rep.image_order


def test_k2_nontrivial_kernel_z4():
    # the known Z/2 kernel over z/4: the enumerator must not collapse it
    z4 = make_ring("z/4")
    rep = k2_compute(A2, z4)
    assert rep.st_order == 86016
    assert rep.kernel_order == 2
    assert rep.image_order == 43008 == rep.bfs_image_order
    assert rep.central


@pytest.mark.parametrize("system, spec, sample", [("A2", "f3", None), ("A3", "f2", None), ("A2", "z/4", 2000)])
def test_coset_images_are_phi_of_tree_words(system, spec, sample):
    # the tree word of each coset carries 0 there, and its payload tuple is
    # phi of that word, a product of unipotents taken apart from the walk in
    # tree_images
    datum, ring = build_system(system), make_ring(spec)
    sp = steinberg_presentation(datum, ring)
    tbl = enumerate_steinberg(sp)
    mats = _coset_images(sp, tbl)
    key_of = {g: key for key, g in sp.gen_index.items()}
    cosets = range(tbl.n) if sample is None else random.Random(5).sample(range(tbl.n), sample)
    for c in cosets:
        word = tbl.rep_letters(c)
        assert tbl.coset_of(word) == c
        letters = []
        for x in word:
            ri, pay = key_of[x // 2]  # column 2g is generator g, 2g+1 its inverse
            xi = Elem(ring, pay)
            letters.append((ri, -xi if x % 2 else xi))
        assert mats[c] == phi(StWord(datum, ring, letters)).data


@pytest.mark.parametrize("system, spec", [("A2", "z/4"), ("A3", "f2"), ("A2", "f3")])
def test_k2_on_the_uplus_table_matches_the_regular_table(system, spec):
    # the regular-table route: phi of every element, the kernel as the fiber
    # of the identity and the image as the set of images
    datum, ring = build_system(system), make_ring(spec)
    sp = steinberg_presentation(datum, ring)
    tbl = enumerate_steinberg(sp)
    mats = _coset_images(sp, tbl)
    kernel = {c for c, m in enumerate(mats) if m == mats[0]}
    rep = k2_compute(datum, ring)
    assert (rep.st_order, rep.kernel_order, rep.image_order) == (tbl.n, len(kernel), len(set(mats)))
    assert rep.st_order == rep.kernel_order * rep.image_order
    assert rep.central and rep.image_route == "bfs"
    # each k_c is an element of K2, and they are pairwise distinct
    assert {tbl.coset_of(k) for k in rep.kernel_words} == kernel
    # k_c lies in its U+ coset c
    up = uplus_data(sp)
    assert [up.utbl.coset_of(k) for k in rep.kernel_words] == rep.kernel_cosets


@pytest.mark.parametrize("system, spec", [("A2", "z/4"), ("A3", "f2")])
def test_centrality_check_fails_for_a_noncentral_element(system, spec):
    sp = steinberg_presentation(build_system(system), make_ring(spec))
    utbl = uplus_data(sp).utbl
    rep = k2_compute(sp.system, sp.ring)
    assert all(noncentral_columns(utbl, k) == [] for k in rep.kernel_words)
    # x_alpha(1), the generator of column 0, in place of k
    assert noncentral_columns(utbl, (0,))


def test_kernel_count_that_does_not_divide_the_index_fails_factorization(monkeypatch):
    # one more matrix in U+_E: phi of U+ coset 5 is counted as a kernel
    # coset, and 2 does not divide [St : U+] = 21
    sp = steinberg_presentation(A2, F2)
    up = uplus_data(sp)
    fake = dataclasses.replace(up, index={**up.index, _coset_images(sp, up.utbl)[5]: 0})
    monkeypatch.setattr(fp, "uplus_data", lambda sp, max_cosets: fake)
    rep = k2_compute(A2, F2)
    assert up.utbl.n == 21 and rep.kernel_order == 2
    assert rep.st_order != rep.kernel_order * rep.image_order


@pytest.mark.parametrize("system, spec", [("A2", "f2"), ("A2", "f3"), ("A3", "f2"), ("A2", "z/4")])
def test_simple_root_bfs_is_the_all_roots_bfs(system, spec):
    sp = steinberg_presentation(build_system(system), make_ring(spec))
    cols = fp.column_unipotents(sp)
    simple = simple_root_generators(sp)
    assert len(simple) == 2 * sp.system.rank * len(additive_basis(sp.ring)[0])
    assert matrix_group_order([cols[2 * g] for g in simple]) == matrix_group_order(cols[0::2])


@pytest.mark.parametrize(
    "system, spec",
    [("A2", spec) for spec in ("z/1", "f2", "f3", "z/4", F2E, F4, "prod(f2,f2)")] + [("A3", "f2"), ("D3", "f2")],
)
def test_sc_formula_matches_the_bfs(system, spec):
    datum, ring = build_system(system), make_ring(spec)
    sp = steinberg_presentation(datum, ring)
    cols = fp.column_unipotents(sp)
    assert sc_order(datum, ring) == matrix_group_order([cols[2 * g] for g in simple_root_generators(sp)])


@pytest.mark.parametrize("system, spec, order", [("A2", "z/4", 43008), ("A3", "f2", 20160)])
def test_sc_order_in_type_a_matches_the_all_roots_bfs(system, spec, order, monkeypatch):
    datum, ring = build_system(system), make_ring(spec)
    gens = [unipotent(datum, r, ring.one()) for r in datum.roots]
    assert sc_order(datum, ring) == matrix_group_order(gens) == order
    # the formula decides once the BFS would pass its cap
    monkeypatch.setattr(fp, "BFS_CAP", 1000)
    rep = k2_compute(datum, ring)
    assert (rep.image_route, rep.bfs_image_order) == ("sc-formula", order)


def test_bfs_cap_counts_matrix_entries(monkeypatch):
    # |SL(5,2)| = 9,999,360 is under 10^7 elements, but its 25-entry tuples
    # are 2.5 x 10^8 entries: the formula decides, and no BFS starts
    def no_bfs(*args, **kwargs):
        raise AssertionError("image BFS started")

    monkeypatch.setattr(fp, "matrix_group_order", no_bfs)
    rep = k2_compute(build_system("A4"), F2)
    assert (rep.image_route, rep.bfs_image_order, rep.kernel_order) == ("sc-formula", 9_999_360, 1)


def test_sc_order_on_composite_moduli():
    assert sc_order(A2, make_ring("z/12")) == 43008 * 5616  # Z/4 x Z/3
    assert sc_order(A3, make_ring("z/4")) == 660_602_880 == 2**15 * 20160
    assert sc_order(A2, make_ring("z/1")) == 1


def test_sc_order_in_type_d_matches_the_all_roots_bfs(monkeypatch):
    d3 = build_system("D3")
    gens = [unipotent(d3, r, F2.one()) for r in d3.roots]
    assert sc_order(d3, F2) == matrix_group_order(gens) == 20160
    assert sc_order(build_system("D4"), F2) == 174_182_400  # O8+(2) in the ATLAS
    # the formula decides once the BFS would pass its cap
    monkeypatch.setattr(fp, "BFS_CAP", 1000)
    rep = k2_compute(d3, F2)
    assert (rep.image_route, rep.bfs_image_order, rep.image_order, rep.kernel_order) == (
        "sc-formula", 20160, 20160, 1
    )


def test_type_d_kernel_with_mu2_is_refused(monkeypatch):
    # St(D3,F3) = St(A3,F3) has K2 = 1, but the vector realization's kernel
    # also holds -1 in Spin(6, F3): two kernel cosets, never reported as K2.
    # The cap keeps a build that does not refuse out of the 6,065,280-element
    # image BFS.
    monkeypatch.setattr(fp, "BFS_CAP", 1000)
    z3 = make_ring("z/3")
    with pytest.raises(UnsupportedRingError, match="mu_2"):
        k2_compute(build_system("D3"), z3)
    assert k2_compute(A3, z3).kernel_order == 1
    report = suites.run_suite(suites.SuiteConfig(suite="k2-exact", systems=("D3",), rings=("z/3",)))
    (check,) = report.checks
    assert (check.inconclusive, report.verdict) == (1, "inconclusive")
    assert "mu_2" in check.info["reason"] and "st_order" not in check.info


def test_image_past_the_bfs_cap_takes_the_sc_formula(monkeypatch):
    # F2[eps] is local: |m| = 2 and q = 2, so |E| = 2^8 |SL(3, 2)|
    f2e = make_ring(F2E)
    monkeypatch.setattr(fp, "BFS_CAP", 100)
    rep = k2_compute(A2, f2e)
    assert (rep.image_route, rep.bfs_image_order, rep.kernel_order) == ("sc-formula", 43_008, 1)
    report = suites.run_suite(suites.SuiteConfig(suite="k2-exact", systems=("A2",), rings=(F2E,)))
    (check,) = report.checks
    assert (check.inconclusive, check.failures, report.verdict) == (0, [], "pass")
    assert check.info["st_order"] == rep.st_order == 672 * 64


def test_sc_formula_with_a_wrong_factor_fails_the_cross_check(monkeypatch):
    # drop |m_i|^(l+|Phi|): each local factor counted as its residue field
    right = fp.local_factors
    monkeypatch.setattr(fp, "local_factors", lambda ring: [(q, 1) for q, _ in right(ring)])
    monkeypatch.setattr(fp, "BFS_CAP", 100)
    report = suites.run_suite(suites.SuiteConfig(suite="k2-exact", systems=("A2",), rings=(F2E,)))
    (check,) = report.checks
    assert report.verdict == "fail" and not check.inconclusive
    assert [f["kind"] for f in check.failures] == ["bfs-cross-check"]
    assert (check.failures[0]["table"], check.failures[0]["bfs"]) == (43_008, 168)


def test_enumerate_steinberg_fills_the_uplus_memo(monkeypatch):
    sp = steinberg_presentation(A2, F2)
    enumerate_steinberg(sp)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated again")

    monkeypatch.setattr(fp, "todd_coxeter", no_enumeration)
    assert k2_compute(A2, F2).st_order == 168


def test_k2_compute_refuses_e_family_before_enumerating():
    with pytest.raises(NoMatrixRealization):
        k2_compute(build_system("E6"), F2, max_cosets=1000)


def test_e_family_is_refused_before_any_presentation_is_built(monkeypatch):
    # an E8 presentation has 114,960 relators and is thrown away on refusal
    def no_presentation(*args):
        raise AssertionError("a presentation was built")

    monkeypatch.setattr(fp, "steinberg_presentation", no_presentation)
    e6, f2e = build_system("E6"), make_ring(F2E)
    sd = split_data(f2e, FGIdeal(f2e, [f2e.gen()]))
    with pytest.raises(NoMatrixRealization, match="no matrix realization"):
        k2_compute(e6, F2)
    with pytest.raises(NoMatrixRealization, match="no matrix realization"):
        relative_subgroup_index(e6, f2e, sd)


def _sequential_standardize(nxt):
    """The one-state-at-a-time breadth-first renumbering from state 0."""
    number = {0: 0}
    order, table = [0], array("i")
    for s in order:  # the queue grows while it is read
        for t in nxt[s]:
            if t not in number:
                number[t] = len(order)
                order.append(t)
            table.append(number[t])
    return table


def _next_states(tbl):
    return numpy.frombuffer(tbl.table, numpy.intc).reshape(tbl.n, tbl.ncols)


@pytest.mark.parametrize(
    "system, spec", [("A2", "f2"), ("A3", "f2"), ("A2", "f3"), ("A2", "z/4"), ("A2", "quo(poly(f2,X),[0,0,1])")]
)
def test_standardize_is_the_sequential_breadth_first_pass(system, spec):
    # the regular table with its states relabelled at random, state 0 kept:
    # both passes give the numbering back, entry for entry
    tbl = enumerate_steinberg(steinberg_presentation(build_system(system), make_ring(spec)))
    rng = numpy.random.default_rng(7)
    label = numpy.concatenate([[0], 1 + rng.permutation(tbl.n - 1)]).astype(numpy.int32)
    nxt = numpy.empty((tbl.n, tbl.ncols), numpy.int32)
    nxt[label] = label[_next_states(tbl)]
    assert _sequential_standardize(nxt.tolist()) == standardize(nxt).table == tbl.table


def test_standardize_refuses_a_disconnected_table():
    # two copies of St(A2,F2) side by side: check 4 of the regular table
    nxt = _next_states(enumerate_steinberg(steinberg_presentation(A2, F2)))
    with pytest.raises(PresentationError, match="reaches 168 of 336 states"):
        standardize(numpy.concatenate([nxt, nxt + 168]))


def test_regular_table_refuses_a_schreier_element_outside_u_plus(monkeypatch):
    # phi of U+ coset 5 replaced by that of coset 6: check 3 fails
    sp = steinberg_presentation(A2, F2)
    up, walk = uplus_data(sp), fp.tree_images

    def corrupted(tbl, steps, start):
        mats = walk(tbl, steps, start)
        return mats[:5] + [mats[6]] + mats[6:] if steps is up.steps else mats

    monkeypatch.setattr(fp, "tree_images", corrupted)
    with pytest.raises(PresentationError, match="Schreier element of \\(\\d+, \\d+\\) is not in U\\+"):
        regular_table(sp)


def test_zero_ring_gives_trivial_group():
    z1 = make_ring("z/1")
    sp = steinberg_presentation(A2, z1)
    assert sp.presentation.ngens == 0
    t = todd_coxeter(sp.presentation)
    assert t.n == 1
    assert regular_table(sp).table == t.table == array("i")
    assert regular_table(sp).n == standardize(numpy.zeros((1, 0), numpy.int32)).n == 1


def test_word_letters_and_additivity_merge():
    sp = steinberg_presentation(A2, F2)
    tbl = enumerate_steinberg(sp)
    w1 = x_ij(A2, F2, 0, 1, 1) * x_ij(A2, F2, 0, 1, 1)
    assert tbl.coset_of(sp.word_letters(w1)) == 0
    w2 = x_ij(A2, F2, 0, 1, 1) * x_ij(A2, F2, 1, 2, 1)
    w3 = x_ij(A2, F2, 1, 2, 1) * x_ij(A2, F2, 0, 1, 1)
    assert tbl.coset_of(sp.word_letters(w2)) != tbl.coset_of(sp.word_letters(w3))


def test_word_tester_tiers():
    from steinberg.words import commutator

    a = commutator(x_ij(A3, F2, 0, 1, 1), x_ij(A3, F2, 1, 2, 1))
    b = x_ij(A3, F2, 0, 2, 1)
    c = x_ij(A3, F2, 1, 2, 1)
    tester = WordTester(A3, F2)
    assert tester.exact_equal(a, b) and not tester.exact_equal(a, c)
    assert tester.exact_trivial(a * b.inverse()) and not tester.exact_trivial(a * c.inverse())
    # a suite's word checks compare at its config's tier
    for policy, tier in (("exact", "exact"), ("matrix", "matrix")):
        equal, label = suites._word_test(suites.SuiteConfig(suite="xeqy", tier=policy), A3, F2)
        assert equal(a, b) and not equal(a, c) and label == tier


def test_relative_generation_a2():
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    sd = split_data(f2e, FGIdeal(f2e, [f2e.gen()]))
    rep = relative_subgroup_index(A2, f2e, sd)
    assert rep.index == rep.quotient_order == 168


def test_trivial_ideal_gives_full_order():
    # I = 0: the z-subgroup is trivial and the index is the group order
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    zero_ideal = FGIdeal(f2e, [])
    sd = split_data(f2e, zero_ideal)
    rep = relative_subgroup_index(A2, f2e, sd)
    sp = steinberg_presentation(A2, f2e)
    full = enumerate_steinberg(sp)
    assert rep.index == full.n


def test_orbit_with_witnesses():
    orbit = orbit_with_witnesses(F2, 4)
    assert len(orbit) == 15
    for key, ov in orbit.items():
        assert (phi(ov.witness) * basis_vector(F2, 4, 0)).data == key


@pytest.mark.parametrize("spec, n, size", [("f2", 4, 15), ("f3", 3, 26), ("z/4", 3, 56)])
def test_orbit_witness_and_orbit_share_one_search(spec, n, size):
    # each witness comes from the search that found its vector, and a cap
    # below the orbit is inconclusive
    ring = make_ring(spec)
    orbit = orbit_with_witnesses(ring, n)
    assert len(orbit) == size
    for key, ov in orbit.items():
        assert ov.vec.data == key
        assert (phi(ov.witness) * basis_vector(ring, n, 0)).data == key
    with pytest.raises(Inconclusive):
        orbit_with_witnesses(ring, n, node_cap=size - 1)


@pytest.mark.parametrize(
    "spec, n, digest",
    [
        ("f2", 4, "b071e1967db124954e5e05aa8d56a4d666de72825fe1ce0968b07c82ba1db0c5"),
        ("f3", 3, "437ffec5a493bc95e2058c580fd2414a37e077201596be6ec7efe7cf848d4408"),
        ("z/4", 3, "9067c8a88334fcb3e13d3df03d7bcec80d6508e05efcdab19489a1f96bbcdcd3"),
        (F2E, 4, "5ebd0fac2cc7ee43f2dad1cf6d11ac4137885e50765e73d13e67abf1497a3c50"),
        # the localization the exhaustive t-map check searches
        ("loc(prod(f2,f3),[0,1])", 4, "a95b4662de74b4f44d9bbdf89bb4d4444f248236034fbda9a68f0f3bacc24bb5"),
    ],
)
def test_orbit_search_keeps_its_order_and_witnesses(spec, n, digest):
    # the reports pass with any valid witness, so this pins the search
    # itself: the vectors in order of discovery, each with the first path found
    orbit = orbit_with_witnesses(make_ring(spec), n)
    data = [(key, ov.witness.to_literal()) for key, ov in orbit.items()]
    assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == digest


def test_star_presentation_domains():
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    fs = star_presentations(4, f2e, FGIdeal(f2e, [f2e.gen()]))
    orbit = orbit_with_witnesses(f2e, 4)
    assert len(orbit) == 240
    assert len(fs) == 1920
    assert {sym.u.vec.data for sym in fs} <= set(orbit)
    for sym in fs:
        assert sym.u.vec.dot(sym.v).is_zero()


@pytest.mark.parametrize(
    "system, spec, index",
    [
        ("A2", "f2", 21),
        ("A3", "f2", 315),
        ("A2", "f3", 208),
        ("A2", "z/4", 1344),
        ("A2", "quo(poly(f2,X),[0,0,1])", 672),
        ("D3", "f2", 315),  # the D-family realization
    ],
)
def test_regular_table_matches_whole_group_enumeration(system, spec, index):
    # the U+ route and HLT on the whole group give the same standardized
    # table, row for row; |St| = [St : U+] * |R|^|Phi+|
    datum, ring = build_system(system), make_ring(spec)
    sp = steinberg_presentation(datum, ring)
    assert uplus_data(sp).utbl.n == index
    npos = len(datum.roots) // 2
    assert len(positive_generators(sp)) == npos * len(additive_basis(ring)[0])
    tbl = regular_table(sp)
    assert tbl.n == index * len(list(ring.payloads())) ** npos
    assert tbl.table == todd_coxeter(sp.presentation).table


def _positive_relator(sp, length):
    """The first relator of `length` letters on two or more positive-root
    generators: a commutator relator among positive roots."""
    positive = set(positive_generators(sp))
    for k, rel in enumerate(sp.presentation.relators):
        gens = {x >> 1 for x in rel}
        if len(rel) == length and len(gens) > 1 and gens <= positive:
            return k
    raise AssertionError(f"no positive commutator relator of length {length}")


def _without(sp, k, replacement=()):
    rels = list(sp.presentation.relators)
    rels[k:k + 1] = [replacement] if replacement else []
    pres = dataclasses.replace(sp.presentation, relators=tuple(rels))
    return dataclasses.replace(sp, presentation=pres)


@pytest.mark.parametrize(
    "spec, length, error, match",
    [
        # [x_alpha(1), x_beta(1)] = x_{alpha+beta}(1) dropped: U+ is infinite
        ("f2", 5, Inconclusive, "live cosets exceeded"),
        # [x_alpha(1), x_{alpha+beta}(1)] = 1 dropped: U+ has 81 elements, 27 in E
        ("f3", 4, PresentationError, "has 81 elements, U\\+ in E 27"),
    ],
)
def test_regular_table_refuses_a_presentation_missing_a_u_plus_relator(spec, length, error, match):
    sp = steinberg_presentation(A2, make_ring(spec))
    with pytest.raises(error, match=match):
        regular_table(_without(sp, _positive_relator(sp, length)), max_cosets=2000)


def test_regular_table_refuses_a_relator_phi_does_not_kill():
    # over f3 the commutator [x_alpha(1), x_beta(1)] = x_{alpha+beta}(N) has a
    # sign; flipping it gives a presentation that does not map to E
    sp = steinberg_presentation(A2, make_ring("f3"))
    k = _positive_relator(sp, 6)
    rel = sp.presentation.relators[k]
    # [a, b] x_gamma(N)^{-1} becomes [a, b] x_gamma(N) = [a, b] x_gamma(-N)^{-1}
    with pytest.raises(PresentationError, match="phi does not kill"):
        regular_table(_without(sp, k, rel[:4] + inverse_letters(rel[4:])))


def test_regular_table_cap_is_checked_before_the_rows():
    # 1344 cosets of U+ times |U+_E| = 64 is 86016 > 50000: Inconclusive
    # from the size check, before the breadth-first pass builds a row
    sp = steinberg_presentation(A2, make_ring("z/4"))
    with pytest.raises(Inconclusive, match="1344 x 64 = 86016"):
        regular_table(sp, max_cosets=50_000)
