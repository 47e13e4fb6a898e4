import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laws import morphism_failures, random_payload, ring_axiom_failures
from steinberg import cli, rings
from steinberg.rings import (
    FINITE_MAX_SIZE,
    DivisibilityError,
    Elem,
    FGIdeal,
    RingSizeError,
    SpecError,
    UnsupportedRingError,
    lin_solve,
    localization,
    make_ring,
    quotient_ring,
    split_data,
    splitting_section,
    unique_divide,
)
from steinberg.vdk import _preimage_payload

RING_SPECS = [
    "z/6",
    "prod(z/2,z/3)",
    "quo(poly(f2,X),[0,0,1])",
    "loc(z/6,2)",
    "prod(f2,f3)",
    "z/9",
]


def test_make_ring_counts():
    assert make_ring("z/6").size() == 6
    assert make_ring("prod(z/2,z/3)").size() == 6
    assert not make_ring("poly(z/2,X)").is_finite
    assert make_ring("quo(poly(f2,X),[0,0,1])").size() == 4


def test_make_ring_interning():
    assert make_ring("z/6") is make_ring("z/6")
    assert make_ring("prod(z/2, z/3)") is make_ring("prod(z/2,z/3)")


# Every spec literal of src/, scripts/, perfbench/ and tests/, with the spec
# and size of its ring or the error that refuses it.
SPEC_TABLE = [
    ("z", "z", "infinite"),
    ("z/1", "z/1", 1),
    ("z/2", "z/2", 2),
    ("z/3", "z/3", 3),
    ("z/4", "z/4", 4),
    ("z/5", "z/5", 5),
    ("z/6", "z/6", 6),
    ("z/8", "z/8", 8),
    ("z/9", "z/9", 9),
    ("z/12", "z/12", 12),
    ("z/256", "z/256", 256),
    ("f2", "f2", 2),
    ("f3", "f3", 3),
    ("prod(f2,f2)", "prod(f2,f2)", 4),
    ("prod(f2,f3)", "prod(f2,f3)", 6),
    ("prod(f3,f2)", "prod(f3,f2)", 6),
    ("prod(z/2,z/3)", "prod(z/2,z/3)", 6),
    ("prod(z/2, z/3)", "prod(z/2,z/3)", 6),
    ("poly(f2,X)", "poly(f2,X)", "infinite"),
    ("poly(f3,X)", "poly(f3,X)", "infinite"),
    ("poly(z/2,X)", "poly(z/2,X)", "infinite"),
    ("poly(z,X)", "poly(z,X)", "infinite"),
    ("poly(loc(z,2),X)", "poly(loc(z,2),X)", "infinite"),
    ("quo(poly(f2,X),[0,0,1])", "quo(poly(f2,X),[0,0,1])", 4),
    ("quo(poly(f2,X),[1,1,1])", "quo(poly(f2,X),[1,1,1])", 4),
    ("quo(poly(f3,X),[0,0,1])", "quo(poly(f3,X),[0,0,1])", 9),
    ("quo(poly(f3,X),[1,0,1])", "quo(poly(f3,X),[1,0,1])", 9),
    ("quo(poly(f3,X),[1,0,0,0,1])", "quo(poly(f3,X),[1,0,0,0,1])", 81),
    ("quo(poly(z/4,X),[1,0,0,1])", "quo(poly(z/4,X),[1,0,0,1])", 64),
    ("loc(z,2)", "loc(z,2)", "infinite"),
    ("loc(z,0)", "z/1", 1),
    ("loc(z/4,2)", "loc(z/4,2)", 1),
    ("loc(z/6,2)", "loc(z/6,2)", 3),
    ("loc(prod(f2,f3),[0,1])", "loc(prod(f2,f3),[0,1])", 3),
    ("semi(z,2)", "semi(z,2)", "infinite"),
    ("semi(z/6,2)", "semi(z/6,2)", "infinite"),
    # refused: past the size cap, which z/N obeys too, prod/quo of an
    # infinite ring, or loc of a polynomial ring
    ("z/257", RingSizeError, None),
    ("z/300", RingSizeError, None),
    ("z/1000", RingSizeError, None),
    ("z/3037000499", RingSizeError, None),
    ("z/3037000500", RingSizeError, None),
    ("z/3298534883328", RingSizeError, None),
    ("loc(z/3298534883328,2)", RingSizeError, None),
    ("loc(z/1000000007,2)", RingSizeError, None),
    ("loc(z/1000003,2)", RingSizeError, None),
    ("prod(z/17,z/17)", RingSizeError, None),
    ("quo(poly(f2,X),[1,1,0,0,0,0,0,0,0,1])", RingSizeError, None),
    ("quo(poly(f3,X),[1,0,0,0,0,0,1])", RingSizeError, None),
    ("prod(z,f2)", SpecError, None),
    ("quo(poly(z,X),[1,0,1])", SpecError, None),
    ("loc(poly(z,X),[0,1])", UnsupportedRingError, None),
    # Python's rules for literals and grouping: a hex or underscored modulus,
    # parentheses, a trailing comma, a signed literal and a coefficient tuple
    ("z/0x10", "z/16", 16),
    ("z/1_0", "z/10", 10),
    ("z/(4)", "z/4", 4),
    ("(f2)", "f2", 2),
    ("prod(f2,f3,)", "prod(f2,f3)", 6),
    ("loc(z/6,-(2))", "loc(z/6,4)", 3),
    ("loc(z/6,+2)", "loc(z/6,2)", 3),
    ("quo(poly(f2,X),(0,0,1))", "quo(poly(f2,X),[0,0,1])", 4),
]


@pytest.mark.parametrize("text, spec, size", SPEC_TABLE)
def test_spec_table(text, spec, size):
    if isinstance(spec, type):
        with pytest.raises(spec):
            make_ring(text)
        return
    ring = make_ring(text)
    assert ring.spec == spec
    assert (ring.size() if ring.is_finite else "infinite") == size
    assert make_ring(spec) is ring


def test_bad_specs():
    adversarial = [
        "prod(" * 1200 + "f2" + ",f2)" * 1200,  # too many nested parentheses
        "loc(z/6," + "-" * 900 + "2)",  # recursion in ast.literal_eval
        "z" + "/6" * 900,
        "z" + "/6" * 100_000,  # RecursionError during AST construction
        "-" * 100_000 + "2",  # MemoryError from the parser
        "z/" + "7" * 5000,  # past the int digit limit
    ]
    others = ["{1:2}", "{1}", "None", "1j", "'a'", "2.5", "{[1]}"]
    edge = ["z/06", "z/٤", "f02", "f0003", "f٣", "poly(f2,1)", "poly(f2,lambda)", "poly(f2,True)", "z/-3", "z/4.0",
            "z/True", "z//4", "f2()", "prod(f2)", "prod(f2,f3,f2)", "prod(f2,f3=1)", "prod(*f2)", "loc(z/6,--2)",
            "loc(z/6,2)x", "prod(f2,f3)[0]", "__import__('os')", "lambda:1", "z/4;1", "", "Z"]
    for bad in ["z/", "f4", "prod(z/2)", "quo(z/4,[0,1])", "wat", *adversarial, *others, *edge,
                *(f"loc(z/6,{lit})" for lit in others), *(f"quo(poly(f2,X),{lit})" for lit in others)]:
        with pytest.raises(SpecError):
            make_ring(bad)


@pytest.mark.parametrize("spec", ["prod(" * 1200 + "f2" + ",f2)" * 1200, "z/" + "7" * 5000, "f02"],
                         ids=["1200-deep", "5000-digit-modulus", "leading-zero-field"])
def test_adversarial_spec_is_a_usage_error(spec, capsys):
    # the first two ended in a RecursionError and a ValueError traceback,
    # and f02 was read as f2
    assert cli.main(["--suite", "k2-exact", "--system", "A2", "--ring", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "bad ring spec" in err


@pytest.mark.parametrize("spec", ["z", "z/4", "prod(f2,f3)", "poly(f3,X)"])
@pytest.mark.parametrize("lit", [2.7, True, False, "2"])
def test_element_literals_are_ints(spec, lit):
    # int(lit) used to truncate 2.7 to 2 and read true as 1
    ring = make_ring(spec)
    with pytest.raises(SpecError):
        ring.from_literal(lit)
    with pytest.raises(SpecError):
        ring.el(lit)
    assert ring.from_literal(3) == ring.p_from_int(3)


def test_crt_isomorphism_exhaustive():
    # prod(z/2,z/3) is z/6 in disguise: the additive generator matches up
    z6 = make_ring("z/6")
    p = make_ring("prod(z/2,z/3)")
    iso = {}
    for k in range(6):
        iso[z6.el(k).payload] = p.el(k).payload
    assert len(set(iso.values())) == 6
    for a in range(6):
        for b in range(6):
            assert iso[z6.el(a + b).payload] == p.p_add(iso[a], iso[b])
            assert iso[z6.el(a * b).payload] == p.p_mul(iso[a], iso[b])


@pytest.mark.parametrize("spec", RING_SPECS)
def test_ring_axioms_exhaustive_or_sampled(spec):
    assert ring_axiom_failures(make_ring(spec)) == []


def test_axioms_on_infinite_rings():
    for spec in ["poly(z,X)", "loc(z,2)", "semi(z,2)", "poly(loc(z,2),X)"]:
        assert ring_axiom_failures(make_ring(spec), samples=400) == []


def test_localization_finite_idempotent():
    z6 = make_ring("z/6")
    loc, lam = localization(z6, z6.el(2))
    assert loc.to_literal(loc.one_p) == 4
    assert sorted(map(loc.to_literal, loc.payloads())) == [0, 2, 4]
    assert loc.to_literal(lam(z6.el(1)).payload) == 4
    # a becomes invertible
    a_img = lam(z6.el(2))
    assert any((a_img * x).payload == loc.one_p for x in loc.elements())
    assert morphism_failures(lam) == []


def _prime_powers(n):
    """The prime powers p^k that exactly divide n, as (p, p^k) pairs."""
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            out.append((p, q))
        p += 1
    return out


def _is_z_mod_n_image(ring, N, section):
    """Whether the section is an injective map of ring into z/N that
    respects + and *, so that the ring is its image."""
    add, mul, _ = ring.tables
    codes = range(ring.size())
    return len(set(section)) == len(section) and all(
        section[add[c][d]] == (section[c] + section[d]) % N and section[mul[c][d]] == section[c] * section[d] % N
        for c in codes
        for d in codes
    )


def test_localization_over_z_mod_n_is_the_idempotent_power(monkeypatch):
    # the power search of localization against e from the Chinese remainder
    # theorem: 1 modulo the prime powers of N prime to a, 0 modulo the rest;
    # the 2,080 rings are interned in a copy of the cache that ends with the test
    monkeypatch.setattr(rings, "_RING_CACHE", dict(rings._RING_CACHE))
    for N in range(1, 65):
        ring = make_ring(f"z/{N}")
        for a in range(N):
            e = 0
            for p, q in _prime_powers(N):
                if a % p:  # e = 1 mod q and 0 mod N/q
                    e += N // q * pow(N // q, -1, q)
            e %= N
            loc, lam = localization(ring, ring.el(a))
            assert loc.section[loc.one_p] == e, (N, a)
            assert loc.section == list(dict.fromkeys(x * e % N for x in range(N))), (N, a)
            assert _is_z_mod_n_image(loc, N, loc.section), (N, a)
            assert [loc.section[lam.p_fn(x)] for x in range(N)] == [x * e % N for x in range(N)], (N, a)


def test_quotient_of_z_mod_n_is_the_residues_mod_the_gcd(monkeypatch):
    # the generic first-member-of-each-coset ring against the closed form:
    # (g) = d*z/N for d = gcd(N, g), and x + (g) first reaches x mod d, for
    # every z/N with N <= 64 and every generator g; the 2,080 quotients are
    # cached in a copy that ends with the test
    monkeypatch.setattr(rings, "_QUOTIENT_CACHE", dict(rings._QUOTIENT_CACHE))
    for N in range(1, 65):
        ring = make_ring(f"z/{N}")
        for g in range(N):
            d = math.gcd(N, g)
            q, pi = quotient_ring(ring, FGIdeal(ring, [g]))
            assert q.section == list(range(d)), (N, g)
            assert [pi.p_fn(x) for x in range(N)] == [x % d for x in range(N)], (N, g)
            assert _is_z_mod_n_image(q, d, q.section), (N, g)


def _section_or_refusal(ring, g):
    try:
        sigma = splitting_section(ring, FGIdeal(ring, [g]))
    except UnsupportedRingError as exc:
        return str(exc)
    return sigma and [sigma.p_fn(q) for q in sigma.source.payloads()]


def test_splitting_section_of_z_mod_n_exists_when_the_gcd_is_1_or_n(monkeypatch):
    # z/N -> z/d for d = gcd(N, g) has a unital section exactly when d is 1
    # (the zero ring) or N (the identity), for every z/N with N <= 64 and
    # every generator g; a search is refused exactly when its (N/d)^(d - 2)
    # candidate tables pass a cap of 10^4 (with the stock 10^6 the searches
    # take minutes)
    monkeypatch.setattr(rings, "SECTION_CANDIDATE_CAP", 10**4)
    monkeypatch.setattr(rings, "_QUOTIENT_CACHE", dict(rings._QUOTIENT_CACHE))
    refused = 0
    for N in range(1, 65):
        ring = make_ring(f"z/{N}")
        for g in range(N):
            d = math.gcd(N, g)
            got = _section_or_refusal(ring, g)
            if d > 2 and (N // d) ** (d - 2) > 10**4:
                assert got == "section search space too large", (N, g)
                refused += 1
            else:
                assert got == (list(range(N)) if d == N else [0] if d == 1 else None), (N, g)
    assert refused > 0


@pytest.mark.parametrize(
    "spec",
    ["z/257", "f257", "f1000000000000000003", "z/300", "z/3298534883328", "loc(z/3298534883328,2)",
     "prod(z/17,z/17)", "quo(poly(f3,X),[1,0,0,0,0,0,1])"],
)
def test_a_finite_ring_past_the_cap_is_refused_at_once(spec, capsys):
    # z/N and fP are held to the cap like every finite ring, before their
    # tables are built, and fP before the trial division that tests p
    # (10^9 steps for f1000000000000000003); a 729-element quo() ring is
    # refused before its tables too
    t0 = time.perf_counter()
    with pytest.raises(RingSizeError):
        make_ring(spec)
    assert time.perf_counter() - t0 < 1
    assert cli.main(["--suite", "chevalley-relations", "--ring", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and f"at most {FINITE_MAX_SIZE} elements" in err


def test_localization_of_a_large_z_mod_n_is_refused_at_once(capsys):
    # z/1000000007 is past the cap, so no power of 2 is searched; a search
    # for the idempotent power 1 took minutes
    t0 = time.perf_counter()
    with pytest.raises(RingSizeError):
        make_ring("loc(z/1000000007,2)")
    assert cli.main(["--suite", "chevalley-relations", "--ring", "loc(z/1000000007,2)"]) == 2
    assert "at most 256 elements" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 10


def test_localization_kernel_is_annihilator():
    # ker(lam) = elements killed by a high power of a, checked exhaustively
    z6 = make_ring("z/6")
    loc, lam = localization(z6, z6.el(2))
    e = loc.section[loc.one_p]
    for p in z6.payloads():
        killed = lam.p_fn(p) == loc.zero_p
        annihilated = z6.p_mul(p, e) == 0
        assert killed == annihilated


def test_image_ring_payload_order():
    # the codes stand for the base elements in order of first appearance
    # under the image map; lin_solve tie-breaks, splitting sections and
    # sorted ideal lists depend on this order
    z12 = make_ring("z/12")
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    quotients = [
        quotient_ring(z12, FGIdeal(z12, [z12.el(2)]))[0],
        quotient_ring(z12, FGIdeal(z12, [z12.el(3)]))[0],
        quotient_ring(f2e, FGIdeal(f2e, [f2e.gen()]))[0],
    ]
    rings = [make_ring(s) for s in ("loc(z/6,2)", "loc(prod(f2,f3),[0,1])", "loc(z/4,2)")] + quotients
    assert [[r.to_literal(c) for c in r.payloads()] for r in rings] == [
        [0, 4, 2],
        [[0, 0], [0, 1], [0, 2]],
        [0],
        [0, 1],
        [0, 1, 2],
        [[], [1]],
    ]


def test_localization_nilpotent_gives_zero_ring():
    z4 = make_ring("z/4")
    loc, lam = localization(z4, z4.el(2))
    assert loc.size() == 1


def test_localization_integers():
    zz = make_ring("z")
    loc, lam = localization(zz, zz.el(2))
    assert lam(zz.el(3)).payload == (3, 0)
    half = loc.el([1, 1])
    assert (half + half) == loc.one()
    assert (half * loc.el(2)) == loc.one()
    # cross-multiplied equality through canonical forms
    assert loc.el([6, 1]) == loc.el(3)
    # the exponent is an int too: [1, true] used to give the payload (1, True)
    with pytest.raises(SpecError):
        loc.el([1, True])
    # at 0 the localization is the zero ring
    zero, lam0 = localization(zz, zz.el(0))
    assert zero is make_ring("z/1")
    assert lam0(zz.el(7)) == zero.zero() == zero.one()


def test_semidirect_ring_unit_and_products():
    s = make_ring("semi(z,2)")
    x = s.gen()
    r = s.el([5, [0, 3]])
    assert s.one() * r == r
    assert (x * x).payload[1][2] == s.loc.one_p
    s6 = make_ring("semi(z/6,2)")
    a = s6.el([3, [0, 4]])
    b = s6.el([2, [0, 2]])
    # (3, 4X)(2, 2X) = (0, (3*2+2*4)X + 8X^2) with coefficients in e*(z/6)
    assert s6.to_literal((a * b).payload) == [0, [0, 2, 2]]


def test_lin_solve_examples():
    z6 = make_ring("z/6")
    w = lin_solve([z6.el(2), z6.el(3)], z6.el(1))
    assert [x.payload for x in w] == [2, 1]
    assert lin_solve([z6.el(2), z6.el(4)], z6.el(1)) is None
    e1 = [z6.el(1), z6.el(0)]
    assert [x.payload for x in lin_solve(e1, z6.el(1))] == [1, 0]


def test_lin_solve_soundness_exhaustive_z6():
    z6 = make_ring("z/6")
    for a in range(6):
        for b in range(6):
            for target in range(6):
                got = lin_solve([z6.el(a), z6.el(b)], z6.el(target))
                brute = [
                    (x, y)
                    for x in range(6)
                    for y in range(6)
                    if (a * x + b * y) % 6 == target
                ]
                if got is None:
                    assert not brute
                else:
                    assert (got[0].payload, got[1].payload) == brute[0]


def test_lin_solve_unsupported_is_inconclusive():
    px = make_ring("poly(z/2,X)")
    with pytest.raises(UnsupportedRingError):
        lin_solve([px.gen()], px.one())
    zz = make_ring("z")
    with pytest.raises(UnsupportedRingError):
        lin_solve([zz.el(6), zz.el(10), zz.el(15)], zz.el(1))


def test_unique_divide():
    f23 = make_ring("prod(f2,f3)")
    ideal = FGIdeal(f23, [f23.el((0, 1))])
    a = f23.el((0, 1))
    m = f23.el((0, 2))
    assert unique_divide(ideal, a, m) == m
    assert unique_divide(ideal, a, f23.zero()).is_zero()
    z6 = make_ring("z/6")
    ideal3 = FGIdeal(z6, [z6.el(3)])
    with pytest.raises(DivisibilityError):
        unique_divide(ideal3, z6.el(2), z6.el(3))


def test_unique_divide_poisoned_cache_raises():
    f23 = make_ring("prod(f2,f3)")
    ideal = FGIdeal(f23, [f23.el((0, 1))])
    a = f23.el((0, 1))
    # a * (0,1) is (0,1), not (0,2): the cached map lies about the quotient
    c00, c01, c02 = (f23.from_literal(lit) for lit in ([0, 0], [0, 1], [0, 2]))
    ideal._div_cache[("fg", a.payload)] = {c00: c00, c01: c02, c02: c01}
    with pytest.raises(DivisibilityError):
        unique_divide(ideal, a, f23.el((0, 2)))


def test_unique_divide_roundtrip_exhaustive():
    f23 = make_ring("prod(f2,f3)")
    ideal = FGIdeal(f23, [f23.el((0, 1))])
    a = f23.el((0, 1))
    for x in ideal.elements():
        assert unique_divide(ideal, a, a * x) == x
        assert a * unique_divide(ideal, a, x) == x


def test_unique_divide_semidirect_kernel():
    s = make_ring("semi(z,2)")
    ideal = FGIdeal(s, kind="semi-kernel")
    x = s.gen()
    m = x * s.el(6)
    q = unique_divide(ideal, s.el(2), m)
    assert s.el(2) * q == m
    assert ideal.contains(m) is not None
    assert ideal.contains(s.one()) is None


def test_splitting_sections():
    f22 = make_ring("prod(f2,f2)")
    sig = splitting_section(f22, FGIdeal(f22, [f22.el((0, 1))]))
    assert sig is not None
    assert f22.to_literal(sig.p_fn(sig.source.one_p)) == [1, 1]
    f23 = make_ring("prod(f2,f3)")
    assert splitting_section(f23, FGIdeal(f23, [f23.el((0, 1))])) is None
    # an infinite ring has no quotient, section or membership test, (X) included
    px = make_ring("poly(f2,X)")
    ideal = FGIdeal(px, [px.gen()])
    for refused in (splitting_section, quotient_ring):
        with pytest.raises(UnsupportedRingError):
            refused(px, ideal)
    with pytest.raises(UnsupportedRingError):
        ideal.contains(px.gen())


def test_split_data_roundtrip():
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    sd = split_data(f2e, FGIdeal(f2e, [f2e.gen()]))
    assert sd.quotient.size() == 2
    for x in f2e.elements():
        assert sd.pi(sd.sigma(sd.pi(x))) == sd.pi(x)
        # the defect lands in the ideal
        assert sd.defect(x).payload in sd.ideal.payload_set()
    assert morphism_failures(sd.sigma) == []
    assert morphism_failures(sd.pi) == []


def test_splitting_section_reads_base_elements_through_the_section():
    # F3[eps] modulo (eps): the classes of 1 and 2 have the first members
    # 1 and 2, whose codes 3 and 6 differ from the class codes
    f3e = make_ring("quo(poly(f3,X),[0,0,1])")
    sd = split_data(f3e, FGIdeal(f3e, [f3e.gen()]))
    assert sd.quotient.section == [0, 3, 6]
    assert [f3e.to_literal(sd.sigma.p_fn(q)) for q in sd.quotient.payloads()] == [[], [1], [2]]
    assert all(sd.pi.p_fn(sd.sigma.p_fn(q)) == q for q in sd.quotient.payloads())
    assert morphism_failures(sd.sigma) == []


def test_quotient_ring_is_a_ring():
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    quo, pi = quotient_ring(f2e, FGIdeal(f2e, [f2e.gen()]))
    assert ring_axiom_failures(quo) == []


def test_quo_reduces_by_its_relator():
    f3i = make_ring("quo(poly(f3,X),[1,0,1])")  # X^2 = -1
    x = f3i.gen()
    assert (f3i.to_literal((x * x).payload), f3i.to_literal((x * x * x).payload)) == ([2], [0, 2])


def test_ideal_membership_certificates():
    z6 = make_ring("z/6")
    ideal = FGIdeal(z6, [z6.el(2), z6.el(3)])
    for x in z6.elements():
        cert = ideal.contains(x)
        assert cert is not None
        acc = z6.zero()
        for g, w in zip(ideal.gens, cert):
            acc = acc + g * w
        assert acc == x
    ideal2 = FGIdeal(z6, [z6.el(2)])
    assert ideal2.contains(z6.el(3)) is None


@given(
    st.integers(-40, 40),
    st.integers(0, 4),
    st.integers(-40, 40),
    st.integers(0, 4),
)
@settings(max_examples=120, deadline=None)
def test_fraction_localization_canonical(n1, k1, n2, k2):
    loc, lam = localization(make_ring("z"), 2)
    a = Elem(loc, loc._canon(n1, k1))
    b = Elem(loc, loc._canon(n2, k2))
    # payload equality must coincide with cross-multiplied fraction equality
    cross_equal = n1 * 2**k2 == n2 * 2**k1
    assert (a == b) == cross_equal


def _ref_loc_add(loc, x, y):
    # x/a^i + y/a^j = (x a^(k-i) + y a^(k-j)) / a^k with k = max(i, j)
    a, k = loc.a_payload, max(x[1], y[1])
    return loc._canon(x[0] * a ** (k - x[1]) + y[0] * a ** (k - y[1]), k)


def _ref_loc_mul(loc, x, y):
    return loc._canon(x[0] * y[0], x[1] + y[1])


def _ref_poly_add(loc, f, g):
    zero, n = loc.zero_p, max(len(f), len(g))
    out = [_ref_loc_add(loc, s, t) for s, t in zip(f + (zero,) * (n - len(f)), g + (zero,) * (n - len(g)))]
    while out and out[-1] == zero:
        out.pop()
    return tuple(out)


def _ref_poly_mul(loc, f, g):
    out = ()
    for i, s in enumerate(f):
        out = _ref_poly_add(loc, out, (loc.zero_p,) * i + tuple(_ref_loc_mul(loc, s, t) for t in g))
    return out


def _ref_semi_add(semi, x, y):
    return (x[0] + y[0], _ref_poly_add(semi.loc, x[1], y[1]))


def _ref_semi_mul(semi, x, y):
    # (r + f)(s + g) = rs + (lam(r) g + lam(s) f + f g)
    loc, (r, f), (s, g) = semi.loc, x, y
    mixed = _ref_poly_add(loc, _ref_poly_mul(loc, (loc._canon(r, 0),), g), _ref_poly_mul(loc, (loc._canon(s, 0),), f))
    return (r * s, _ref_poly_add(loc, mixed, _ref_poly_mul(loc, f, g)))


def test_fraction_and_semidirect_arithmetic_match_the_formulas():
    rng = random.Random(5)
    loc, semi = make_ring("loc(z,2)"), make_ring("semi(z,2)")
    locs = [loc.zero_p, loc.one_p, (3, 0), (-1, 2)] + [random_payload(loc, rng) for _ in range(40)]
    semis = [semi.zero_p, semi.one_p, (4, ()), semi.gen().payload] + [random_payload(semi, rng) for _ in range(30)]
    # pairs with and without denominators, and with and without ideal parts
    assert {x[1] == 0 for x in locs} == {True, False}
    assert {x[1] == () for x in semis} == {True, False}
    for x in locs:
        for y in locs:
            assert loc.p_add(x, y) == _ref_loc_add(loc, x, y)
            assert loc.p_mul(x, y) == _ref_loc_mul(loc, x, y)
    for x in semis:
        for y in semis:
            assert semi.p_add(x, y) == _ref_semi_add(semi, x, y)
            assert semi.p_mul(x, y) == _ref_semi_mul(semi, x, y)


@given(st.sampled_from(RING_SPECS), st.data())
@settings(max_examples=40, deadline=None)
def test_add_mul_closure_random(spec, data):
    ring = make_ring(spec)
    pool = list(ring.payloads())
    x = Elem(ring, data.draw(st.sampled_from(pool)))
    y = Elem(ring, data.draw(st.sampled_from(pool)))
    assert (x + y).payload in ring.payloads()
    assert (x * y).payload in ring.payloads()


def _f2eps_model(op, x, y):
    """F2[eps] on coefficient pairs, written out: the reference for its tables."""
    a = (x + (0, 0))[:2]
    b = (y + (0, 0))[:2]
    if op == "add":
        out = [(a[0] + b[0]) % 2, (a[1] + b[1]) % 2]
    else:
        out = [a[0] * b[0] % 2, (a[0] * b[1] + a[1] * b[0]) % 2]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _prod_f2_f3_model(op, x, y):
    if op == "add":
        return ((x[0] + y[0]) % 2, (x[1] + y[1]) % 3)
    return (x[0] * y[0] % 2, x[1] * y[1] % 3)


def _residue_model(n):
    """z/N on the residues 0..N-1, written out."""
    return lambda op, x, y: (x + y) % n if op == "add" else x * y % n


def _table_rings():
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    quo, _ = quotient_ring(f2e, FGIdeal(f2e, [f2e.gen()]))
    return [
        (f2e, _f2eps_model),
        (make_ring("prod(f2,f3)"), _prod_f2_f3_model),
        (make_ring("loc(prod(f2,f3),[0,1])"), _prod_f2_f3_model),
        (quo, _f2eps_model),  # F2[eps]/(eps) on the constants [] and [1]
        (make_ring("z/6"), _residue_model(6)),
        (make_ring("z/9"), _residue_model(9)),
        (make_ring("f5"), _residue_model(5)),
    ]


@pytest.mark.parametrize("index", range(7))
def test_table_arithmetic_matches_class_arithmetic(index):
    # the tables, read through the literals, against the arithmetic of the
    # construction written out on those literals
    ring, model = _table_rings()[index]

    def lit(c):
        out = ring.to_literal(c)
        return tuple(out) if isinstance(out, list) else out

    pool = list(ring.payloads())
    for x in pool:
        for y in pool:
            assert lit(ring.p_add(x, y)) == model("add", lit(x), lit(y))
            assert lit(ring.p_mul(x, y)) == model("mul", lit(x), lit(y))
    if isinstance(lit(0), int):  # z/N and fP: each code is its own residue
        assert list(map(lit, pool)) == pool
    assert ring_axiom_failures(ring) == []


FINITE_SPECS = [s for s in RING_SPECS if make_ring(s).is_finite] + [
    "f2",
    "z/12",
    "prod(f2,f2)",
    "quo(poly(f3,X),[1,0,1])",
    "quo(poly(f3,X),[1,0,0,0,1])",  # F3[X]/(X^4+1), 81 elements
    "quo(poly(z/4,X),[1,0,0,1])",
    "loc(prod(f2,f3),[0,1])",
    "loc(z/4,2)",
]


@pytest.mark.parametrize("spec", FINITE_SPECS)
def test_finite_ring_is_its_codes(spec):
    ring = make_ring(spec)
    assert list(ring.payloads()) == list(range(ring.size()))
    assert all(ring.from_literal(ring.to_literal(c)) == c for c in ring.payloads())
    assert make_ring(ring.spec) is ring
    assert ring_axiom_failures(ring) == []


def test_image_ring_section_inverts_the_projection():
    # over loc(z/6,2) the codes 0, 1, 2 stand for 0, 4, 2: a code read as a
    # base payload is wrong there
    z6 = make_ring("z/6")
    loc, lam = localization(z6, z6.el(2))
    assert loc.section == [0, 4, 2]
    for c in loc.payloads():
        assert lam.p_fn(loc.section[c]) == c
        pre = _preimage_payload(z6, lam, c)
        assert lam.p_fn(pre) == c and z6.p_mul(pre, 4) == pre


@pytest.mark.parametrize(
    "spec",
    [
        "prod(z/17,z/17)",
        "quo(poly(f2,X),[1,1,0,0,0,0,0,0,0,1])",
        "loc(z/1000003,2)",  # its base z/1000003 is past the cap
        "prod(z,f2)",
        "quo(poly(z,X),[1,0,1])",
    ],
)
def test_finite_rings_past_the_cap_or_infinite_are_refused(spec):
    with pytest.raises(SpecError):
        make_ring(spec)
    assert cli.main(["--suite", "k2-exact", "--system", "A2", "--ring", spec]) == 2


def _draw_finite_ring(data, depth):
    """A nested prod/quo/loc ring over f2, f3 and z/4, built from its spec,
    with at most FINITE_MAX_SIZE elements."""
    ring = make_ring(data.draw(st.sampled_from(["f2", "f3", "z/4"])))
    if depth == 0 or data.draw(st.booleans()):
        return ring
    kind = data.draw(st.sampled_from(["prod", "quo", "loc"]))
    if kind == "prod":
        other = _draw_finite_ring(data, depth - 1)
        if ring.size() * other.size() <= FINITE_MAX_SIZE:
            return make_ring(f"prod({ring.spec},{other.spec})")
        return ring
    inner = _draw_finite_ring(data, depth - 1)
    if kind == "loc":
        return make_ring(f"loc({inner.spec},{data.draw(st.integers(-3, 3))})")
    if inner.size() == 1:  # a monic relator over the zero ring is 0
        return inner
    deg = data.draw(st.integers(1, 3))
    if inner.size() ** deg > FINITE_MAX_SIZE:
        return inner
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=deg, max_size=deg))
    return make_ring(f"quo(poly({inner.spec},X),{coeffs + [1]})")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_nested_finite_rings(data):
    ring = _draw_finite_ring(data, 3)
    assert list(ring.payloads()) == list(range(ring.size()))
    assert all(ring.from_literal(ring.to_literal(c)) == c for c in ring.payloads())
    assert make_ring(ring.spec) is ring
    assert ring_axiom_failures(ring, samples=300, exhaustive_limit=16) == []


def test_quotient_ring_spec_names_its_ideal():
    z12 = make_ring("z/12")
    by2, _ = quotient_ring(z12, FGIdeal(z12, [z12.el(2)]))
    by3, _ = quotient_ring(z12, FGIdeal(z12, [z12.el(3)]))
    assert by2.spec == "quo_ideal(z/12,[2])"
    assert by3.spec == "quo_ideal(z/12,[3])"
    assert (by2.size(), by3.size()) == (2, 3)
    f2e = make_ring("quo(poly(f2,X),[0,0,1])")
    quo, _ = quotient_ring(f2e, FGIdeal(f2e, [f2e.gen()]))
    assert quo.spec == "quo_ideal(quo(poly(f2,X),[0,0,1]),[[0,1]])"


def test_fraction_localization_large_powers_are_units():
    # 2^70 is a unit of Z[1/2] with inverse 1/2^70; a cap of 64 powers said no
    loc = make_ring("loc(z,2)")
    big = (2**70, 0)
    assert loc.p_inv(big) == (1, 70)
    assert loc.p_try_div(loc.one_p, big) == (1, 70)
    assert loc.p_mul(big, (1, 70)) == loc.one_p
    assert loc.p_inv((1, 70)) == big
    assert loc.p_try_div(big, (1, 70)) == (2**140, 0)
    assert loc.p_inv((3 * 2**70, 0)) is None
    assert loc.p_try_div((3 * 2**70, 0), (3, 0)) == big
    assert loc.p_try_div(big, (3, 0)) is None


def test_fraction_localization_cap_is_inconclusive():
    # over semi(z,2) no bound is known: 3 divides no power of 2 among the
    # first 64, which decides nothing, so the search raises instead of saying no
    loc = make_ring("loc(semi(z,2),2)")
    three = loc.p_from_int(3)
    with pytest.raises(UnsupportedRingError):
        loc.p_inv(three)
    with pytest.raises(UnsupportedRingError):
        loc.p_try_div(loc.one_p, three)
    assert loc.p_inv(loc.p_from_int(4)) == (loc.base.one_p, 2) == ((1, ()), 2)
