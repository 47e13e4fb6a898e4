"""The constructive generator families behind the relative presentations.

Builds, as explicit Steinberg words over A_(n-1):

  * x_small(u, v): the basic element for orthogonal pairs with a zero slot,
    with matrix image exactly 1 + u v^t,
  * X_gen / Y_gen: the two "one nice argument" generator families,
  * tul_word: their localization-friendly extensions X_{u,v}(a) and
    Y_{u,v}(a), where unimodularity of the nice argument is relaxed to
    a in I(u),
  * the iota images of F/S symbols, the psi twist into the split extension,
    and the lifting map t_map that undoes a principal localization.

Everything carries its certificates (unimodularity witnesses, orbit words,
divisibility data) explicitly; nothing is re-derived implicitly.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

from . import words as W
from .matrices import RVector, basis_vector, vector
from .rings import localization, unique_divide
from .roots import build_system
from .words import StWord, contragredient, phi, simplify


class VdkError(Exception):
    pass


_SYSTEM_CACHE = {}


def linear_system(n):
    """The A_(n-1) datum for n x n matrices, cached."""
    if n not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[n] = build_system("A", n - 1)
    return _SYSTEM_CACHE[n]


# ---------------------------------------------------------------------------
# the word memo

# The words built in the open word_memo() scope, by payload key; None
# outside one.
_WORDS = None


@contextlib.contextmanager
def word_memo():
    """A scope in which x_small and tul_word build each word once, and
    decomposition_terms each term table (_memo).

    A word is keyed by its ring object and the payload tuples of its
    arguments; the ring is in the key because rings can share payloads
    (z/4 and F2[eps] both code their elements as 0..3).  Only built words
    are stored, so a call whose hypotheses fail raises every time, and
    words are immutable, so callers share them.  A term table lives as
    long as the words, so nothing carries over from one scope to the next.
    Outside a scope nothing is stored."""
    global _WORDS
    outer, _WORDS = _WORDS, {}
    try:
        yield
    finally:
        _WORDS = outer


def _memo(key, build):
    """The word or term table build() makes, stored under key in the open
    word_memo() scope and built once there."""
    if _WORDS is None:
        return build()
    word = _WORDS.get(key)
    if word is None:
        word = _WORDS[key] = build()
    return word


# ---------------------------------------------------------------------------
# the basic element x(u, v)


def x_small(u, v, index=None, mode=None):
    """A word with phi-image exactly 1 + u v^t.

    Needs u^t v = 0 and a zero coordinate in v (primary form) or in u
    (transpose-dual form).  The zero index defaults to the least one in v,
    then the least one in u; both can be forced for well-definedness
    experiments via `index`/`mode`.
    """
    n, ring = len(u), u.ring
    if ring is not v.ring or n != len(v):
        raise VdkError("x_small arguments must match")
    return _memo((ring, u.data, v.data, index, mode), lambda: _build_x_small(u, v, index, mode))


def _build_x_small(u, v, index, mode):
    ring = u.ring
    zero = ring.zero_p
    if ring.p_dot(u.data, v.data) != zero:
        raise VdkError("x_small needs u^t v = 0")
    if mode is None:
        if index is not None:
            raise VdkError("an explicit index needs an explicit mode")
        if zero in v.data:
            mode, index = "v", v.data.index(zero)
        elif zero in u.data:
            mode, index = "u", u.data.index(zero)
        else:
            raise VdkError("x_small needs a zero coordinate in u or v")
    if mode not in ("u", "v"):
        raise VdkError(f"unknown mode {mode!r}")
    a, b = (u, v) if mode == "v" else (v, u)
    if b.data[index] != zero:
        raise VdkError(f"{mode}[{index}] is not zero")
    return simplify(_x_small_primary(a, b, index, transpose=mode == "u"))


def _x_small_primary(u, v, i, transpose=False):
    # t(u,v) = t(e_i u_i, v) * t(u - e_i u_i, v), the second factor being
    # the commutator [col, row] of the "column" and "row" products at slot
    # i.  With `transpose`, the letters x_ab(c) become x_ba(c) in reverse
    # order, which transposes phi: transpose_anti's work, without its root
    # lookup per letter.  Zero letters are left out, as simplify drops them.
    ring = u.ring
    zero, (_, mul, neg) = ring.zero_p, ring.tables
    times, pneg = mul[u.data[i]].__getitem__, neg.__getitem__
    ud, vd = u.data, v.data
    others = [j for j in range(len(ud)) if j != i]
    col = [(j, i, ud[j]) for j in others]
    row = [(i, j, vd[j]) for j in others]
    letters = [(i, j, times(vd[j])) for j in others] + col + row
    letters += [(a, b, pneg(c)) for a, b, c in reversed(col)]
    letters += [(a, b, pneg(c)) for a, b, c in reversed(row)]
    if transpose:
        letters = [(b, a, c) for a, b, c in reversed(letters)]
    system = linear_system(len(ud))
    at, elem = system.ij_index(), ring.elem
    return StWord(system, ring, [(at[a, b], elem(c)) for a, b, c in letters if c != zero])


def _terms_word(kind, fixed, terms):
    """The simplified product of x(fixed, t) (kind "X") or x(t, fixed)
    (kind "Y") over the terms t, in order, over the ring of `fixed` and
    the linear system of its length."""
    pairs = ((fixed, t) for t in terms) if kind == "X" else ((t, fixed) for t in terms)
    letters = [x for a, b in pairs for x in x_small(a, b).letters]
    return simplify(StWord(linear_system(len(fixed)), fixed.ring, letters))


# ---------------------------------------------------------------------------
# canonical decompositions


def _one_ring(first, *rest):
    """The ring the vectors share; VdkError if they do not share one."""
    ring = first.ring
    for v in rest:
        if v.ring is not ring:
            raise VdkError("the vectors must live over one ring")
    return ring


def decomposition_terms(a, b, c):
    """[(e_p b_q - e_q b_p) * (a_p c_q - a_q c_p)]_{p<q}, the nonzero
    ones; sums to (c^t b) a - (a^t b) c.

    For a fixed b the term at (p, q) depends only on its coefficient, so
    the terms are read from a table per (ring, b) that maps each pair's
    coefficients to shared vectors (None for a zero term), filled as they
    are met and kept in the open word_memo() scope."""
    ring = _one_ring(a, b, c)
    zero, (add, mul, neg) = ring.zero_p, ring.tables
    ad, bd, cd = a.data, b.data, c.data
    n = len(bd)
    if not n == len(ad) == len(cd):
        raise VdkError(f"decomposition vectors must have one length, got {len(ad)}, {n}, {len(cd)}")
    table = _memo((ring, "terms", bd), lambda: [(p, q, {}) for p, q in itertools.combinations(range(n), 2)])
    out = []
    for p, q, terms in table:
        coef = add[mul[ad[p]][cd[q]]][neg[mul[ad[q]][cd[p]]]]
        if coef == zero:  # a zero term
            continue
        try:
            term = terms[coef]
        except KeyError:
            term = terms[coef] = _term(ring, bd, p, q, coef)
        if term is not None:
            out.append(term)
    return out


def _term(ring, bd, p, q, coef):
    """(e_p b_q - e_q b_p) * coef, or None when it is zero."""
    zero, (_, mul, neg) = ring.zero_p, ring.tables
    at_p, at_q = mul[coef][bd[q]], neg[mul[coef][bd[p]]]
    if at_p == zero and at_q == zero:
        return None
    data = [zero] * len(bd)
    data[p], data[q] = at_p, at_q
    return RVector(ring, tuple(data))


def canonical_decomposition(u, v, w):
    """Split u into terms u_pq orthogonal to v with two zero slots each.

    Needs n >= 4, w^t v = 1 and u^t v = 0; then the terms sum to u.
    """
    ring = _one_ring(u, v, w)
    if len(u) < 4:
        raise VdkError("canonical decomposition needs n >= 4")
    if ring.p_dot(w.data, v.data) != ring.one_p:
        raise VdkError("canonical decomposition needs w^t v = 1")
    if ring.p_dot(u.data, v.data) != ring.zero_p:
        raise VdkError("canonical decomposition needs u^t v = 0")
    return decomposition_terms(u, v, w)


def X_gen(u, v, cert):
    """Van der Kallen's generator for unimodular u: a word with phi-image
    t(u, v), given the certificate cert^t u = 1."""
    ring = _one_ring(u, v, cert)
    _check_cert(cert, u)
    if ring.p_dot(u.data, v.data) != ring.zero_p:
        raise VdkError("X_gen needs u^t v = 0")
    return _terms_word("X", u, decomposition_terms(v, u, cert))


def _check_cert(cert, x):
    got = x.ring.p_dot(cert.data, x.data)
    if got != x.ring.one_p:
        raise VdkError(f"certificate pairs to {x.ring.elem(got)!r}, not 1")


def Y_gen(u, v, cert):
    """The mirrored generator for unimodular v (cert^t v = 1): phi-image
    t(u, v).  Its terms are the canonical decomposition of u, which checks
    the hypotheses."""
    return _terms_word("Y", v, canonical_decomposition(u, v, cert))


# ---------------------------------------------------------------------------
# Tulenbaev words


def decompose_with(u, moving, cert, quotient):
    """The canonical decomposition of moving = quotient * (cert^t u), as a
    list of terms.

    Needs n >= 4, moving = quotient * b and u^t quotient = 0, which make
    u^t moving = 0 too.  These checks are all the terms need: every term
    is orthogonal to u and has two zero slots by construction, and with
    u^t quotient = 0 the terms sum to (cert^t u) quotient = moving."""
    if len(u) < 4:
        raise VdkError("decomposition needs n >= 4")
    ring = u.ring
    if quotient.scale(cert.dot(u)) != moving:
        raise VdkError("quotient does not reproduce the moving vector")
    if ring.p_dot(u.data, quotient.data) != ring.zero_p:
        raise VdkError("quotient is not orthogonal to u")
    return decomposition_terms(quotient, u, cert)


def _divide_vector(v, apow, ideal):
    """v / apow entrywise, inside an ideal that apow divides uniquely."""
    if apow.is_one():
        return v
    return vector(v.ring, [unique_divide(ideal, apow, x) for x in v.entries])


def tul_word(kind, fixed, moving, cert, quotient, mult=None):
    """Tulenbaev's X_{u,v}(a) = prod x(u, v_k a) (kind "X", fixed u, moving
    v; phi-image t(u, v a)) or Y_{u,v}(a) = prod x(u_k a, v) (kind "Y",
    fixed v, moving u; phi-image t(u a, v)), over the terms of
    decompose_with(fixed, moving, cert, quotient).

    The multiplier a defaults to cert^t fixed, the certified element the
    decomposition ran through, which is the common case (xeqy, the lifting
    map); identities like the conjugation law use an independent multiplier
    in I(u)."""
    if kind not in ("X", "Y"):
        raise VdkError(f"unknown Tulenbaev word kind {kind!r}")
    ring = _one_ring(fixed, moving, cert, quotient)
    a = cert.dot(fixed) if mult is None else ring.el(mult)

    def build():
        terms = decompose_with(fixed, moving, cert, quotient)
        return _terms_word(kind, fixed, [t.scale(a) for t in terms])

    return _memo((ring, kind, fixed.data, moving.data, cert.data, quotient.data, a.payload), build)


# ---------------------------------------------------------------------------
# the X = Y comparison data


@dataclass
class XeqYWords:
    lhs: StWord       # X_{u, v b^4 r}(b)
    rhs: StWord       # Y_{u b^4 r, v}(b)
    g_direct: StWord  # [Y_{-xbr, v}(b), X_{u, yb}(b)] multiplied out
    path_x: StWord    # the X-route evaluation of the commutator
    path_y: StWord    # the Y-route evaluation


def xeqy_words(x, y, u, v, b, r, zu, zv):
    """All five words of the two-route commutator computation.

    Hypotheses (checked exactly): u^t v = 0, x^t y = b, x^t v = 0,
    u^t y = 0, x^t u = 0, y^t v = 0, and the certificates zu^t u = b and
    zv^t v = b of b in I(u) and I(v).
    """
    ring = _one_ring(x, y, u, v, zu, zv)
    if len({len(x), len(y), len(u), len(v), len(zu), len(zv)}) != 1:
        raise VdkError("xeqy vectors must have one length")
    b = ring.el(b)
    r = ring.el(r)
    dot = ring.p_dot
    checks = [
        (u, v, ring.zero_p, "u^t v = 0"),
        (x, v, ring.zero_p, "x^t v = 0"),
        (u, y, ring.zero_p, "u^t y = 0"),
        (x, u, ring.zero_p, "x^t u = 0"),
        (y, v, ring.zero_p, "y^t v = 0"),
        (x, y, b.payload, "x^t y = b"),
        (zu, u, b.payload, "zu^t u = b"),
        (zv, v, b.payload, "zv^t v = b"),
    ]
    for s, t, want, tag in checks:
        if dot(s.data, t.data) != want:
            raise VdkError(f"hypothesis {tag} fails")

    # b is each word's default multiplier (zu^t u = zv^t v = b, checked
    # above); passing it spares tul_word pairing the certificate again
    def X(q):  # X_{u, q b}(b)
        return tul_word("X", u, q.scale(b), zu, q, mult=b)

    def Y(q):  # Y_{q b, v}(b)
        return tul_word("Y", v, q.scale(b), zv, q, mult=b)

    b3r = b * b * b * r
    vb3r, ub3r = v.scale(b3r), u.scale(b3r)
    lhs = X(vb3r)
    rhs = Y(ub3r)
    y1 = Y(x.scale(-r))
    g_direct = W.commutator(y1, X(y))
    # X route: conjugation rewrites the commutator as
    #   X_{u, yb + v b^4 r}(b) * X_{u, -yb}(b)
    px = X(y + vb3r) * X(-y)
    # Y route: Y_{-xbr, v}(b) * Y_{xbr + u b^4 r, v}(b)
    py = y1 * Y(x.scale(r) + ub3r)
    return XeqYWords(lhs=lhs, rhs=rhs, g_direct=simplify(g_direct),
                     path_x=simplify(px), path_y=simplify(py))


# ---------------------------------------------------------------------------
# generator symbols and the iota images


@dataclass
class OrbitVector:
    """A column in the elementary orbit of e_1, with its defining word."""

    vec: RVector
    witness: StWord
    # cert() once computed; left out of equality and repr
    _cert: RVector = field(default=None, init=False, repr=False, compare=False)

    def cert(self):
        """The certificate M* e_1 of vec = M e_1, M = phi(witness): its
        transpose pairs with vec to 1.  Computed once per object."""
        if self._cert is None:
            self._cert = phi(contragredient(self.witness)) * basis_vector(self.vec.ring, len(self.vec), 0)
        return self._cert

    @staticmethod
    def from_word(word, n):
        vec = phi(word) * basis_vector(word.ring, n, 0)
        return OrbitVector(vec=vec, witness=word)


@dataclass
class FSymbol:
    """F(u, v): u in the elementary orbit, v in I^n, u^t v = 0."""

    u: OrbitVector
    v: RVector


@dataclass
class SSymbol:
    """S(u, v): u in I^n, v in the elementary orbit, u^t v = 0."""

    u: RVector
    v: OrbitVector


def iota(sym):
    """Send F(u,v) to X(u,v) and S(u,v) to Y(u,v), as explicit words."""
    if isinstance(sym, FSymbol):
        return X_gen(sym.u.vec, sym.v, cert=sym.u.cert())
    if isinstance(sym, SSymbol):
        return Y_gen(sym.u, sym.v.vec, cert=sym.v.cert())
    raise VdkError(f"not a generator symbol: {sym!r}")


def basis_orbit_vector(ring, n, k):
    """e_k as an orbit vector (a three-letter word moves e_1 there)."""
    system = linear_system(n)
    if k == 0:
        return OrbitVector(basis_vector(ring, n, 0), W.empty(system, ring))
    word = W.from_ij_letters(system, ring, ((k, 0, 1), (0, k, -1), (k, 0, 1)))
    return OrbitVector.from_word(word, n)


# ---------------------------------------------------------------------------
# psi: St(n, R) -> St*(n, R, I) x| St(n, R/I)


def psi_map(split, n, i, j, xi):
    """psi(x_ij(xi)) = (X(e_i, e_j xi'), x_ij(pi(xi))) with xi' the ideal
    defect of xi; the pair lives in the split extension."""
    system = linear_system(n)
    ring = split.ring
    xi = ring.el(xi)
    defect = split.defect(xi)
    ei = basis_vector(ring, n, i)
    kernel = X_gen(ei, basis_vector(ring, n, j).scale(defect), cert=ei)
    quotient = W.x_ij(system, split.quotient, i, j, split.pi(xi))
    return W.SemidirectElement(split, system, kernel, quotient)


# ---------------------------------------------------------------------------
# the lifting map T


@dataclass
class TMapResult:
    word: StWord          # a word over B
    m: int
    lift_u: RVector       # lift of u a^m (resp. of v a^m for S symbols)
    lift_w: RVector
    kind: str


# the largest exponent m that t_map tries
LIFT_CAP = 8


def t_map(B, a, ideal, sym):
    """Lift a generator over B_a to a word over B along the localization.

    For F(u, v): find m and lifts with lam(~u) = u a^m, lam(~w) = w a^m,
    ~u^t v = 0 and ~w^t ~u = a^(2m); then the image is
    X_{~u, v/a^(3m)}(a^(2m)).  S symbols mirror this through Y.
    The ideal must be uniquely a-divisible.  Exhausting the cap raises
    VdkError (the search is inconclusive, not failed).
    """
    a = B.el(a)
    loc, lam = localization(B, a)
    if isinstance(sym, FSymbol):
        nice, moving, kind = sym.u, sym.v, "F"
    elif isinstance(sym, SSymbol):
        nice, moving, kind = sym.v, sym.u, "S"
    else:
        raise VdkError("t_map needs an F or S symbol")
    if moving.ring is not B:
        raise VdkError("the ideal-side vector must live over B")
    for entry in moving.entries:
        if ideal.contains(entry) is None:
            raise VdkError("moving vector has an entry outside the ideal")
    u = nice.vec
    w = nice.cert()
    moving_loc = RVector(loc, tuple(map(lam.p_fn, moving.data)))
    if not u.dot(moving_loc).is_zero():
        raise VdkError("generator pairing fails over the localization")
    lift = _find_lifts(B, a, lam, u, w, moving)
    if lift is None:
        raise VdkError(f"no admissible lift with m <= {LIFT_CAP} (inconclusive)")
    m, lu, lw = lift
    # lw^t lu = a^(2m), as _find_lifts checked
    target = _divide_vector(moving, a ** (3 * m), ideal)
    quotient = _divide_vector(target, a ** (2 * m), ideal)
    word = tul_word("X" if kind == "F" else "Y", lu, target, lw, quotient)
    return TMapResult(word=word, m=m, lift_u=lu, lift_w=lw, kind=kind)


def _find_lifts(B, a, lam, u, w, moving):
    n = len(u)
    loc = u.ring
    finite = B.is_finite
    kernel = None
    if finite:
        kernel = [p for p in B.payloads() if lam.p_fn(p) == loc.zero_p]
    for m in range(LIFT_CAP + 1):
        am = a**m
        base_u = _preimage_vector(B, lam, u, am)
        base_w = _preimage_vector(B, lam, w, am)
        if base_u is None or base_w is None:
            continue
        a2m = am * am
        if finite:
            for ku in itertools.product(kernel, repeat=n):
                cu = RVector(B, tuple(map(B.p_add, base_u.data, ku)))
                if not cu.dot(moving).is_zero():
                    continue
                for kw in itertools.product(kernel, repeat=n):
                    cw = RVector(B, tuple(map(B.p_add, base_w.data, kw)))
                    if cw.dot(cu) == a2m:
                        return m, cu, cw
        else:
            if base_u.dot(moving).is_zero() and base_w.dot(base_u) == a2m:
                return m, base_u, base_w
    return None


def _preimage_vector(B, lam, vec, am):
    """A canonical preimage of vec * am under the localization map."""
    scale, pmul = lam.p_fn(am.payload), lam.target.p_mul
    out = tuple(_preimage_payload(B, lam, pmul(x, scale)) for x in vec.data)
    return None if None in out else RVector(B, out)


def _preimage_payload(B, lam, target):
    if B.is_finite:
        # the canonical preimage of a code of e*B is the base code it stands for
        return lam.target.section[target]
    num, k = target
    return num if k == 0 else None
