"""Exact commutative rings with decidable equality.

Every ring here is a unital commutative ring whose elements are immutable
hashable payloads in a canonical form, so equality is literal payload
equality.  Finite rings expose a deterministic enumerator; everything
downstream (linear solving, ideal membership, splitting sections) leans on
that enumerator for reproducible tie-breaking.

Supported constructions, written in the spec grammar used by the CLI:

    z            integers
    z/N          integers mod N
    fP           prime field alias for z/P
    prod(S,T)    direct product of finite rings
    poly(S,V)    univariate polynomials over S
    quo(poly(S,V),[c0,c1,...])   quotient of a finite S by a monic relator
    loc(S,a)     localization by the powers of a
    semi(S,a)    S extended by the augmentation ideal V*S_a[V]

The grammar is a subset of Python expressions: make_ring reads a spec
with ast.parse and walks its nodes, and reads element literals with
ast.literal_eval; nothing is evaluated.  Python's rules for literals and
grouping therefore hold: z/0x10 is z/16, (f2) and prod(f2,f3,) are read,
and z/06, f02 and poly(f2,1) are refused.

Every finite ring has at most FINITE_MAX_SIZE elements and one
representation, a FiniteRing: its payloads are the ints 0..q-1 in
enumeration order, so sorting payloads puts them in enumeration order,
and its arithmetic is lookups in add, mul and neg lists built once from
the construction when it is made.  Four builders make one: z/N and fP
(the residues mod N, each the code of itself), a product, a quo() ring,
and the image of a finite ring under an idempotent map, which gives a
finite localization (the image of x -> x*e, for e the idempotent power
of a) and a quotient R/I by an ideal (the image of x -> the first
member of x + I).  The two image rings keep a section, the base code of
each of their codes.  Over an infinite domain with exact division (z, a
localization of z, or semi() of one) loc() gives fractions instead; it
refuses poly(S,V).  PolyRing holds the polynomial arithmetic that the
quo() tables and the ideal part of semi() use, and quo() reduces by its
monic relator.  Linear solving, quotients R/I and splitting sections
need a finite ring.
"""

from __future__ import annotations

import ast
import copy
import functools
import itertools
from dataclasses import dataclass


# A finite ring with more elements than this is refused when it is made.
# Its tables have |R|^2 entries each; the slowest build at the cap, a
# 256-element quotient of poly(f2,X), takes about 1.2 s (2-core Xeon).
FINITE_MAX_SIZE = 256

# Over a base other than Z, FractionLocalization tries this many powers of a
# in a division before it gives up.  No exact bound is known there, so the
# search raises UnsupportedRingError at the cap instead of answering "no";
# over Z the bit length of the divisor bounds the search exactly.
_POWER_CAP = 64


class RingError(Exception):
    pass


class SpecError(RingError):
    """Malformed or unsupported ring construction expression."""


class UnsupportedRingError(RingError):
    """The question is not decidable for this ring class (inconclusive)."""


class DivisibilityError(RingError):
    """Division requested in an ideal that is not uniquely divisible."""


class RingSizeError(SpecError):
    """A finite ring with more than FINITE_MAX_SIZE elements: a bad spec."""


# ---------------------------------------------------------------------------
# elements


class Elem:
    """A ring element: an owning ring plus a canonical hashable payload."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def __add__(self, other):
        other = self.ring.el(other)
        return self.ring.elem(self.ring.p_add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return self.ring.elem(self.ring.p_neg(self.payload))

    def __sub__(self, other):
        other = self.ring.el(other)
        return self.ring.elem(self.ring.p_add(self.payload, self.ring.p_neg(other.payload)))

    def __mul__(self, other):
        other = self.ring.el(other)
        return self.ring.elem(self.ring.p_mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not ring operations")
        acc = self.ring.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def is_zero(self):
        return self.payload == self.ring.zero_p

    def is_one(self):
        return self.payload == self.ring.one_p

    def __eq__(self, other):
        return (
            isinstance(other, Elem)
            and self.ring is other.ring
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash((id(self.ring), self.payload))

    def __repr__(self):
        return self.ring.p_repr(self.payload)


class _Row(functools.partial):
    """row[b] is func(a, b): one row of a _MethodTable."""

    __getitem__ = functools.partial.__call__


class _MethodTable:
    """A read-only table over the payload method `name` of a ring: view[a]
    is p_neg(a) for the unary method, and the row with view[a][b] =
    p_add(a, b) or p_mul(a, b) for a binary one.  The method is looked up
    at each read, not when the ring is made: rings are cached, and a
    wrapper set on the class afterwards (a tracer, a test spy) is called."""

    __slots__ = ("ring", "name")

    def __init__(self, ring, name):
        self.ring, self.name = ring, name

    def __getitem__(self, a):
        method = getattr(self.ring, self.name)
        return method(a) if self.name == "p_neg" else _Row(method, a)


class Ring:
    """Base class: payload-level arithmetic plus enumeration hooks.

    `tables` is the (add, mul, neg) triple indexed by payload that the
    vector, matrix and word kernels read inline: add[a][b], mul[a][b] and
    neg[a].  A finite ring holds them as lists; an infinite ring has
    _MethodTable views that call p_add, p_mul and p_neg.
    """

    is_finite = False
    exact_div = False  # p_try_div gives unique exact quotients

    def __init__(self, spec):
        self.spec = spec
        self.identities = {}  # n -> the n x n identity, kept by matrices.identity_matrix
        self.tables = tuple(_MethodTable(self, name) for name in ("p_add", "p_mul", "p_neg"))
        # elem(p), the Elem of payload p: a new one here, and one shared Elem
        # per code in a FiniteRing; a partial, not a method, as Elem
        # arithmetic calls it once per operation
        self.elem = functools.partial(Elem, self)

    # -- payload arithmetic, provided by subclasses
    def p_add(self, a, b):
        raise NotImplementedError

    def p_neg(self, a):
        raise NotImplementedError

    def p_mul(self, a, b):
        raise NotImplementedError

    def p_dot(self, xs, ys):
        """The sum of the products of xs and ys, payload by payload."""
        acc = zero = self.zero_p
        add, mul, _ = self.tables
        for a, b in zip(xs, ys):
            if a != zero and b != zero:  # x*0 and x+0 are exact
                acc = add[acc][mul[a][b]]
        return acc

    def p_from_int(self, n):
        raise NotImplementedError

    def p_try_div(self, a, b):
        """Payload q with b*q == a, or None.  Only meaningful if exact_div."""
        raise UnsupportedRingError(f"{self.spec}: no exact division")

    def p_repr(self, p):
        return repr(p)

    # -- element-level conveniences
    def el(self, x):
        if isinstance(x, Elem):
            if x.ring is not self:
                raise RingError(f"element of {x.ring.spec} used in {self.spec}")
            return x
        if _is_int(x):
            return Elem(self, self.p_from_int(x))
        return Elem(self, self.from_literal(x))

    def zero(self):
        return Elem(self, self.zero_p)

    def one(self):
        return Elem(self, self.one_p)

    # -- enumeration
    def payloads(self):
        raise UnsupportedRingError(f"{self.spec} is not enumerable")

    def elements(self):
        for p in self.payloads():
            yield Elem(self, p)

    def size(self):
        raise UnsupportedRingError(f"{self.spec} is infinite")

    # -- serialization
    def from_literal(self, lit):
        raise SpecError(f"cannot parse {lit!r} as element of {self.spec}")

    def to_literal(self, p):
        return p

    def __repr__(self):
        return f"Ring({self.spec})"


class ZRing(Ring):
    exact_div = True
    zero_p = 0
    one_p = 1

    def p_add(self, a, b):
        return a + b

    def p_neg(self, a):
        return -a

    def p_mul(self, a, b):
        return a * b

    def p_from_int(self, n):
        return n

    def p_try_div(self, a, b):
        if b == 0:
            return 0 if a == 0 else None
        q, r = divmod(a, b)
        return q if r == 0 else None

    def from_literal(self, lit):
        if not _is_int(lit):
            raise SpecError(f"integer literal must be an int, got {lit!r}")
        return lit


def _is_int(x):
    """An int literal; a JSON true or false is a bool, which is not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteRing(Ring):
    """A finite ring on the codes 0..q-1, with tables for its arithmetic.

    pays lists the construction's own payloads in its enumeration order,
    and code i stands for pays[i]; add and mul are the construction's
    arithmetic on them, literal and rep its literals and reprs, and parse
    reads a literal other than an int into one of its payloads.  All of
    them run here, once, to fill the add, mul and neg tables and the
    decode lists; the ring then computes on codes alone.
    """

    is_finite = True

    def __init__(self, spec, pays, add, mul, literal, rep, parse):
        super().__init__(spec)
        self._code = {p: i for i, p in enumerate(pays)}
        code = self._code.__getitem__
        add_table = [[code(add(x, y)) for y in pays] for x in pays]
        mul_table = [[code(mul(x, y)) for y in pays] for x in pays]
        identity = list(range(len(pays)))
        self.zero_p = add_table.index(identity)
        self.one_p = mul_table.index(identity)
        self.tables = (add_table, mul_table, [row.index(self.zero_p) for row in add_table])
        self.elem = [Elem(self, p) for p in identity].__getitem__
        self._ints = [self.zero_p]  # n*1 for 0 <= n < the characteristic
        while (n1 := add_table[self._ints[-1]][self.one_p]) != self.zero_p:
            self._ints.append(n1)
        self.literals = [literal(p) for p in pays]
        self.reprs = [rep(p) for p in pays]
        self._parse = parse

    def p_add(self, a, b):
        return self.tables[0][a][b]

    def p_neg(self, a):
        return self.tables[2][a]

    def p_mul(self, a, b):
        return self.tables[1][a][b]

    def p_from_int(self, n):
        return self._ints[n % len(self._ints)]

    def payloads(self):
        return range(len(self.tables[2]))

    def size(self):
        return len(self.tables[2])

    def from_literal(self, lit):
        if _is_int(lit):
            return self.p_from_int(lit)
        return self._code[self._parse(lit)]

    def to_literal(self, p):
        return copy.deepcopy(self.literals[p])

    def p_repr(self, p):
        return self.reprs[p]


def _strip(coeffs, zero):
    i = len(coeffs)
    while i and coeffs[i - 1] == zero:
        i -= 1
    return tuple(coeffs[:i])


class PolyRing(Ring):
    """Dense univariate polynomials; payload is a trailing-stripped tuple."""

    def __init__(self, base, var):
        super().__init__(f"poly({base.spec},{var})")
        self.base = base
        self.var = var
        self.zero_p = ()
        self.one_p = (base.one_p,)

    def p_add(self, f, g):
        n = max(len(f), len(g))
        bz = self.base.zero_p
        out = [
            self.base.p_add(f[i] if i < len(f) else bz, g[i] if i < len(g) else bz)
            for i in range(n)
        ]
        return _strip(out, bz)

    def p_neg(self, f):
        return tuple(self.base.p_neg(c) for c in f)

    def p_mul(self, f, g):
        if not f or not g:
            return ()
        bz = self.base.zero_p
        out = [bz] * (len(f) + len(g) - 1)
        padd, pmul = self.base.p_add, self.base.p_mul
        for i, a in enumerate(f):
            if a == bz:
                continue
            for j, b in enumerate(g):
                out[i + j] = padd(out[i + j], pmul(a, b))
        return _strip(out, bz)

    def p_from_int(self, n):
        return _strip([self.base.p_from_int(n)], self.base.zero_p)

    def gen(self):
        """The variable itself, as an element."""
        return Elem(self, (self.base.zero_p, self.base.one_p))

    def from_literal(self, lit):
        if isinstance(lit, (tuple, list)):
            return _strip([self.base.from_literal(c) for c in lit], self.base.zero_p)
        if _is_int(lit):
            return self.p_from_int(lit)
        raise SpecError(f"polynomial literal must be a coefficient list, got {lit!r}")

    def to_literal(self, p):
        return [self.base.to_literal(c) for c in p]

    def p_repr(self, p):
        if not p:
            return "0"
        base = self.base
        terms = []
        for i, c in enumerate(p):
            if c == base.zero_p:
                continue
            cs = base.p_repr(c)
            if i == 0:
                terms.append(cs)
            else:
                head = "" if c == base.one_p else cs + "*"
                terms.append(f"{head}{self.var}" + (f"^{i}" if i > 1 else ""))
        return "+".join(terms)


def _unit_inverse(ring, p):
    """Inverse of a payload, or None.  Search-based for finite rings."""
    if p == ring.one_p:
        return ring.one_p
    if ring.is_finite:
        for q in ring.payloads():
            if ring.p_mul(p, q) == ring.one_p:
                return q
        return None
    if isinstance(ring, FractionLocalization):
        return ring.p_inv(p)
    return None


def _check_size(spec, q):
    if q > FINITE_MAX_SIZE:
        raise RingSizeError(f"{spec}: a finite ring has at most {FINITE_MAX_SIZE} elements")


def _residues(spec, n):
    """z/N, or fP for n = P: the residues mod n, each the code of itself."""
    if spec in _RING_CACHE:
        return _RING_CACHE[spec]
    if n < 1:
        raise SpecError("modulus must be >= 1")
    _check_size(spec, n)

    def parse(lit):
        raise SpecError(f"element of {spec} must be an int, got {lit!r}")

    return _intern(
        FiniteRing(spec, range(n), lambda x, y: (x + y) % n, lambda x, y: x * y % n, int, repr, parse)
    )


def _product(a, b):
    """prod(a,b) of two finite rings; code i*|b|+j is the pair (i, j)."""
    spec = f"prod({a.spec},{b.spec})"
    if spec in _RING_CACHE:
        return _RING_CACHE[spec]
    if not (a.is_finite and b.is_finite):
        raise SpecError(f"{spec}: prod() takes finite rings")
    _check_size(spec, a.size() * b.size())

    def parse(lit):
        if isinstance(lit, (tuple, list)) and len(lit) == 2:
            return (a.from_literal(lit[0]), b.from_literal(lit[1]))
        raise SpecError(f"product element literal must be a pair, got {lit!r}")

    return _intern(
        FiniteRing(
            spec,
            list(itertools.product(a.payloads(), b.payloads())),
            lambda x, y: (a.p_add(x[0], y[0]), b.p_add(x[1], y[1])),
            lambda x, y: (a.p_mul(x[0], y[0]), b.p_mul(x[1], y[1])),
            lambda x: [a.to_literal(x[0]), b.to_literal(x[1])],
            lambda x: f"({a.p_repr(x[0])},{b.p_repr(x[1])})",
            parse,
        )
    )


def _quo_poly(polyring, relator):
    """poly(S,V) modulo a monic relator, for a finite S.

    The codes stand for the reduced coefficient tuples, in the order of
    itertools.product over S; these rings alone have gen(), the class of V.
    """
    base = polyring.base
    if len(relator) < 2:
        raise SpecError("relator must have degree >= 1")
    if relator[-1] != base.one_p:
        raise SpecError("relator must be monic")
    spec = f"quo({polyring.spec},{_lit_str(polyring.to_literal(relator))})"
    if spec in _RING_CACHE:
        return _RING_CACHE[spec]
    if not base.is_finite:
        raise SpecError(f"{spec}: quo() takes a polynomial ring over a finite ring")
    deg = len(relator) - 1
    _check_size(spec, base.size() ** deg)
    bz, padd, pmul, pneg = base.zero_p, base.p_add, base.p_mul, base.p_neg
    low = relator[:-1]

    def reduce(f):
        """f modulo the monic relator: subtract c*X^k times the relator,
        for c the leading coefficient, until the degree is below deg."""
        rem = list(f)
        while len(rem) > deg:
            c = rem.pop()
            if c != bz:
                k = len(rem) - deg
                for i, gc in enumerate(low):
                    rem[k + i] = padd(rem[k + i], pneg(pmul(c, gc)))
        return _strip(rem, bz)

    ring = FiniteRing(
        spec,
        [_strip(t, base.zero_p) for t in itertools.product(base.payloads(), repeat=deg)],
        polyring.p_add,
        lambda f, g: reduce(polyring.p_mul(f, g)),
        polyring.to_literal,
        polyring.p_repr,
        lambda lit: reduce(polyring.from_literal(lit)),
    )
    ring.gen = functools.partial(Elem, ring, ring.from_literal([0, 1]))
    return _intern(ring)


def _image_ring(spec, base, image):
    """The image of a finite base ring under image, an idempotent map of its
    codes that respects + and *.

    The codes follow the order in which the base enumeration first reaches
    each image; literals and reprs are the base's.  section[c] is the base
    code that code c stands for, and project maps a base code to its image's
    code.  With x -> x*e for the idempotent power e of a this is e*R, the
    finite model of R_a; with x -> the first member of x + I it is R/I.
    """
    section = list(dict.fromkeys(map(image, base.payloads())))
    ring = FiniteRing(
        spec,
        section,
        lambda x, y: image(base.p_add(x, y)),
        lambda x, y: image(base.p_mul(x, y)),
        base.to_literal,
        base.p_repr,
        lambda lit: image(base.from_literal(lit)),
    )
    ring.section = section
    code = ring._code
    ring.project = lambda x: code[image(x)]
    return ring


class FractionLocalization(Ring):
    """Fractions x/a^k over a domain with exact division; payload (num, k)."""

    def __init__(self, base, a_payload):
        if not base.exact_div:
            raise UnsupportedRingError(
                f"localization of {base.spec} by fractions needs an exact-division domain"
            )
        if a_payload == base.zero_p:
            raise SpecError("cannot build fraction localization at 0")
        super().__init__(f"loc({base.spec},{_lit_str(base.to_literal(a_payload))})")
        self.base = base
        self.a_payload = a_payload
        self.exact_div = True
        self.zero_p = (base.zero_p, 0)
        self.one_p = self._canon(base.one_p, 0)

    def _canon(self, num, k):
        if num == self.base.zero_p:
            return (self.base.zero_p, 0)
        while k > 0:
            q = self.base.p_try_div(num, self.a_payload)
            if q is None:
                break
            num = q
            k -= 1
        return (num, k)

    def _apow(self, k):
        p = self.base.one_p
        for _ in range(k):
            p = self.base.p_mul(p, self.a_payload)
        return p

    def p_add(self, x, y):
        if x[0] == self.base.zero_p:  # sums start from 0; skip the powers of a
            return y
        if not (x[1] or y[1]):  # (num, 0) is canonical, (zero, 0) included
            return (self.base.p_add(x[0], y[0]), 0)
        k = max(x[1], y[1])
        nx = self.base.p_mul(x[0], self._apow(k - x[1]))
        ny = self.base.p_mul(y[0], self._apow(k - y[1]))
        return self._canon(self.base.p_add(nx, ny), k)

    def p_neg(self, x):
        return (self.base.p_neg(x[0]), x[1]) if x[0] != self.base.zero_p else x

    def p_mul(self, x, y):
        if not (x[1] or y[1]):
            return (self.base.p_mul(x[0], y[0]), 0)
        return self._canon(self.base.p_mul(x[0], y[0]), x[1] + y[1])

    def p_from_int(self, n):
        return self._canon(self.base.p_from_int(n), 0)

    def project(self, p):
        return self._canon(p, 0)

    def p_inv(self, p):
        return self.p_try_div(self.one_p, p)

    def p_try_div(self, x, y):
        # x/y = (num_x * a^s / num_y) / a^(kx + s - ky) for the least s with
        # num_y | num_x * a^s.  Over Z the search is exact: such an s, if any,
        # is at most max_p e_p(num_y) < bit_length(num_y).  Elsewhere it stops
        # at _POWER_CAP powers.
        num_x, kx = x
        num_y, ky = y
        if num_y == self.base.zero_p:
            return self.zero_p if num_x == self.base.zero_p else None
        exact = isinstance(self.base, ZRing)
        for s in range(abs(num_y).bit_length() if exact else _POWER_CAP):
            q = self.base.p_try_div(num_x, num_y)
            if q is not None:
                e = kx + s - ky
                if e >= 0:
                    return self._canon(q, e)
                return self._canon(self.base.p_mul(q, self._apow(-e)), 0)
            num_x = self.base.p_mul(num_x, self.a_payload)
        if exact:
            return None
        raise UnsupportedRingError(
            f"{self.spec}: no power of {self.base.p_repr(self.a_payload)} among the first "
            f"{_POWER_CAP} gives a multiple of {self.base.p_repr(num_y)}"
        )

    def from_literal(self, lit):
        if isinstance(lit, (tuple, list)) and len(lit) == 2 and _is_int(lit[1]):
            return self._canon(self.base.from_literal(lit[0]), lit[1])
        return self._canon(self.base.from_literal(lit), 0)

    def to_literal(self, p):
        return [self.base.to_literal(p[0]), p[1]]

    def p_repr(self, p):
        num, k = p
        if k == 0:
            return self.base.p_repr(num)
        return f"{self.base.p_repr(num)}/{self.base.p_repr(self.a_payload)}^{k}"


class SemidirectRing(Ring):
    """R extended by the augmentation ideal V*R_a[V].

    Payloads are pairs (r, f) with r in the base and f a polynomial payload
    over the localization with zero constant term; the ideal part multiplies
    as honest polynomials while the base acts through the localization map.
    """

    def __init__(self, base, a_elem):
        loc, lam = localization(base, a_elem)
        super().__init__(f"semi({base.spec},{_lit_str(base.to_literal(a_elem.payload))})")
        self.base = base
        self.a_payload = a_elem.payload
        self.loc = loc
        self.ideal_poly = PolyRing(loc, "X")  # the arithmetic of the ideal part
        self._lam_p = lam.p_fn
        self.zero_p = (base.zero_p, ())
        self.one_p = (base.one_p, ())
        self.exact_div = base.exact_div

    def _fcanon(self, coeffs):
        out = _strip(coeffs, self.loc.zero_p)
        if out and out[0] != self.loc.zero_p:
            raise RingError("ideal part must have zero constant term")
        return out

    def p_add(self, x, y):
        return (self.base.p_add(x[0], y[0]), self.ideal_poly.p_add(x[1], y[1]))

    def p_neg(self, x):
        return (self.base.p_neg(x[0]), self.ideal_poly.p_neg(x[1]))

    def p_mul(self, x, y):
        r, f = x
        s, g = y
        if not (f or g):
            return (self.base.p_mul(r, s), ())
        P = self.ideal_poly
        mixed = P.p_add(P.p_mul((self._lam_p(r),), g), P.p_mul((self._lam_p(s),), f))
        return (self.base.p_mul(r, s), P.p_add(mixed, P.p_mul(f, g)))

    def p_from_int(self, n):
        return (self.base.p_from_int(n), ())

    def gen(self):
        """The augmentation variable V as an element."""
        return Elem(self, (self.base.zero_p, (self.loc.zero_p, self.loc.one_p)))

    def p_try_div(self, x, y):
        r0, f0 = y
        if f0 != ():
            return None
        rq = self.base.p_try_div(x[0], r0)
        if rq is None:
            return None
        lam_r0 = self._lam_p(r0)
        fq = []
        for c in x[1]:
            q = self.loc.p_try_div(c, lam_r0)
            if q is None:
                return None
            fq.append(q)
        return (rq, _strip(fq, self.loc.zero_p))

    def from_literal(self, lit):
        if isinstance(lit, (tuple, list)) and len(lit) == 2 and isinstance(lit[1], (tuple, list)):
            return (self.base.from_literal(lit[0]), self._fcanon(tuple(self.loc.from_literal(c) for c in lit[1])))
        if _is_int(lit):
            return self.p_from_int(lit)
        raise SpecError(f"semidirect element literal must be [base, [coeffs...]], got {lit!r}")

    def to_literal(self, p):
        return [self.base.to_literal(p[0]), [self.loc.to_literal(c) for c in p[1]]]

    def p_repr(self, p):
        r, f = p
        if not f:
            return self.base.p_repr(r)
        return f"({self.base.p_repr(r)}+{self.ideal_poly.p_repr(f)})"


def _lit_str(lit):
    # every to_literal gives an int or nested lists of ints
    return str(lit).replace(" ", "")


# ---------------------------------------------------------------------------
# morphisms


class RingMorphism:
    """A unital ring map, stored as a payload-level function."""

    def __init__(self, source, target, p_fn, name=""):
        self.source = source
        self.target = target
        self.p_fn = p_fn
        self.name = name

    def __call__(self, x):
        if x.ring is not self.source:
            raise RingError(f"morphism {self.name or '?'} applied to wrong ring")
        return Elem(self.target, self.p_fn(x.payload))

    def __repr__(self):
        return f"RingMorphism({self.source.spec} -> {self.target.spec})"


# ---------------------------------------------------------------------------
# the spec grammar


_RING_CACHE = {}


def make_ring(spec):
    """Build (and intern) a ring from a construction expression.

    The spec is read as a Python expression by ast.parse and walked by
    _build; nothing in it is evaluated.  Any failure of the parse or the
    walk, however deep or long the spec, is a SpecError.
    """
    key = "".join(spec.split())
    if key in _RING_CACHE:
        return _RING_CACHE[key]
    try:
        ring = _build(ast.parse(key, mode="eval").body)
    except (SyntaxError, ValueError, TypeError, RecursionError, MemoryError) as exc:
        raise SpecError(f"cannot parse ring spec: {type(exc).__name__}: {exc}") from None
    _RING_CACHE[key] = ring
    return ring


def _build(node):
    """The ring of a spec's expression node: the name z or fP, z/N with N an
    int literal, or a call head(ring, arg) of prod, poly, quo, loc or semi,
    whose arg is a ring, a variable name or an element literal, the last
    read by ast.literal_eval."""
    if isinstance(node, ast.Name):
        if node.id == "z":
            return _intern(ZRing("z"))
        digits = node.id[1:]  # as in z/N: ASCII digits, no leading zero
        if node.id[0] == "f" and digits.isascii() and digits.isdigit() and digits[0] != "0":
            p = int(digits)
            _check_size(node.id, p)  # before the trial division, which takes sqrt(p) steps
            if not _is_prime(p):
                raise SpecError(f"{node.id}: {p} is not prime")
            return _residues(node.id, p)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and getattr(node.left, "id", "") == "z":
        if not (isinstance(node.right, ast.Constant) and _is_int(node.right.value)):
            raise SpecError("z/ needs an integer modulus")
        return _residues(f"z/{node.right.value}", node.right.value)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) == 2 and not node.keywords:
        head, (first, second) = node.func.id, node.args
        if head == "prod":
            return _product(_build(first), _build(second))
        if head == "poly":
            if not isinstance(second, ast.Name):
                raise SpecError("poly() needs a variable name")
            return _intern(PolyRing(_build(first), second.id))
        if head in ("quo", "loc", "semi"):
            base, lit = _build(first), ast.literal_eval(second)
            if head == "quo":
                if not isinstance(base, PolyRing):
                    raise SpecError("quo() expects poly(...) as its first argument")
                return _quo_poly(base, base.from_literal(lit))
            if head == "loc":
                return localization(base, base.el(lit))[0]
            return _intern(SemidirectRing(base, base.el(lit)))
    raise SpecError(f"no ring construction at column {node.col_offset}")


def _intern(ring):
    return _RING_CACHE.setdefault(ring.spec, ring)


# ---------------------------------------------------------------------------
# localization and the semidirect extension


def localization(ring, a):
    """The ring a^-1 R together with the localization morphism.

    Finite rings use the idempotent-power model e*R; exact-division domains
    use reduced fractions.  A nilpotent a over a finite ring collapses to
    the zero ring (e = 0), which is the correct answer, not an error.
    """
    a = ring.el(a)
    if ring.is_finite:
        spec = f"loc({ring.spec},{_lit_str(ring.to_literal(a.payload))})"
        loc = _RING_CACHE.get(spec)
        if loc is None:
            e = a.payload  # the idempotent power of a
            while ring.p_mul(e, e) != e:
                e = ring.p_mul(e, a.payload)
            loc = _intern(_image_ring(spec, ring, functools.partial(ring.p_mul, e)))
    elif a.is_zero():
        zero = _residues("z/1", 1)
        return zero, RingMorphism(ring, zero, lambda p: zero.zero_p, name="lam_0")
    elif ring.exact_div:
        loc = _intern(FractionLocalization(ring, a.payload))
    else:
        raise UnsupportedRingError(f"localization of {ring.spec} is not supported")
    return loc, RingMorphism(ring, loc, loc.project, name="lam_a")


# ---------------------------------------------------------------------------
# ideals


class FGIdeal:
    """A finitely generated ideal (or one of the two registered named ones).

    kind "fg": membership by exact linear solving over the generators.
    kind "semi-kernel": the augmentation ideal of a SemidirectRing.
    """

    def __init__(self, ring, gens=(), kind="fg"):
        self.ring = ring
        self.gens = tuple(ring.el(g) for g in gens)
        self.kind = kind
        if kind == "semi-kernel" and not isinstance(ring, SemidirectRing):
            raise SpecError("semi-kernel ideal needs a SemidirectRing")
        self._elem_set = None
        self._div_cache = {}

    def key(self):
        return (self.ring.spec, self.kind, tuple(g.payload for g in self.gens))

    def contains(self, x):
        """A certificate list w with sum(g*w) == x, or None.

        For the named ideals membership is decided by canonical form and the
        certificate is the empty list.
        """
        x = self.ring.el(x)
        if self.kind == "semi-kernel":
            return [] if x.payload[0] == self.ring.base.zero_p else None
        return lin_solve(list(self.gens), x)

    def payload_set(self):
        """All payloads of the ideal (finite rings only), as a frozenset."""
        if self._elem_set is None:
            if not self.ring.is_finite:
                raise UnsupportedRingError("ideal enumeration needs a finite ring")
            seeds = {self.ring.p_mul(g.payload, r) for g in self.gens for r in self.ring.payloads()}
            seeds.add(self.ring.zero_p)
            closed = set(seeds)
            frontier = list(seeds)
            while frontier:
                nxt = []
                for x in frontier:
                    for s in seeds:
                        y = self.ring.p_add(x, s)
                        if y not in closed:
                            closed.add(y)
                            nxt.append(y)
                frontier = nxt
            self._elem_set = frozenset(closed)
        return self._elem_set

    def elements(self):
        for p in sorted(self.payload_set()):
            yield Elem(self.ring, p)

    def __repr__(self):
        if self.kind == "semi-kernel":
            return f"Ideal(semi-kernel of {self.ring.spec})"
        return f"Ideal({self.ring.spec}; {list(self.gens)})"


def lin_solve(u, b):
    """Solve sum(u_k * w_k) == b exactly; None when b is outside the ideal.

    Finite rings search exhaustively in enumerator order, so the answer is
    the lexicographically least solution.  An infinite ring raises
    UnsupportedRingError, which callers must surface as "inconclusive"
    rather than "no".
    """
    if not u:
        return [] if b.is_zero() else None
    ring = u[0].ring
    for x in u:
        if x.ring is not ring:
            raise RingError("lin_solve entries must share one ring")
    b = ring.el(b)
    if ring.is_finite:
        if ring.size() ** len(u) > 10**7:
            raise UnsupportedRingError("exhaustive linear solve too large")
        ups = [x.payload for x in u]
        for cand in itertools.product(ring.payloads(), repeat=len(u)):
            if ring.p_dot(ups, cand) == b.payload:
                return [Elem(ring, wp) for wp in cand]
        return None
    raise UnsupportedRingError(f"lin_solve over {ring.spec} is not supported")


def unique_divide(ideal, a, m):
    """The unique m' in the ideal with a*m' == m.

    Multiplication by a must be a bijection on the ideal; the bijectivity
    witness (the full inverse map for finite ideals, the inverse coefficient
    for the augmentation ideal) is cached on the ideal.
    """
    ring = ideal.ring
    a = ring.el(a)
    m = ring.el(m)
    if ideal.kind == "semi-kernel":
        if m.payload[0] != ring.base.zero_p:
            raise DivisibilityError("element is not in the augmentation ideal")
        if a.payload[1] != ():
            raise DivisibilityError("division only by base-ring elements")
        key = ("semi", a.payload)
        inv = ideal._div_cache.get(key)
        if inv is None:
            lam_a = ring._lam_p(a.payload[0])
            inv = _unit_inverse(ring.loc, lam_a)
            if inv is None:
                raise DivisibilityError(f"{a!r} does not act invertibly on the augmentation ideal")
            ideal._div_cache[key] = inv
        out = Elem(ring, (ring.base.zero_p, ring.ideal_poly.p_mul((inv,), m.payload[1])))
    else:
        if not ring.is_finite:
            raise UnsupportedRingError("unique_divide needs a finite ring or a named ideal")
        elems = ideal.payload_set()
        if m.payload not in elems:
            raise DivisibilityError("element is not in the ideal")
        key = ("fg", a.payload)
        inv_map = ideal._div_cache.get(key)
        if inv_map is None:
            inv_map = {}
            for x in elems:
                y = ring.p_mul(a.payload, x)
                if y in inv_map:
                    raise DivisibilityError("multiplication by a is not injective on the ideal")
                inv_map[y] = x
            if set(inv_map) != elems:
                raise DivisibilityError("multiplication by a is not surjective on the ideal")
            ideal._div_cache[key] = inv_map
        if m.payload not in inv_map:
            raise DivisibilityError("no quotient in the ideal")
        out = Elem(ring, inv_map[m.payload])
    if (a * out).payload != m.payload:
        raise DivisibilityError("the quotient does not multiply back to m")
    return out


# ---------------------------------------------------------------------------
# quotients and splitting sections


_QUOTIENT_CACHE = {}


def quotient_ring(ring, ideal):
    """(R/I, pi) for a finite ring, which maps each coset to its first
    member in enumeration order; an infinite ring raises
    UnsupportedRingError."""
    key = ideal.key()
    if key in _QUOTIENT_CACHE:
        return _QUOTIENT_CACHE[key]
    if ring.is_finite:
        gens = _lit_str([ring.to_literal(g.payload) for g in ideal.gens])
        spec = f"quo_ideal({ring.spec},{gens})"
        first = {}
        iset = ideal.payload_set()
        for p in ring.payloads():
            if p not in first:  # the first member of its coset
                for i in iset:
                    first[ring.p_add(p, i)] = p
        q = _image_ring(spec, ring, first.__getitem__)
        out = (q, RingMorphism(ring, q, q.project, name="pi"))
    else:
        raise UnsupportedRingError(f"quotient of {ring.spec} is not supported")
    _QUOTIENT_CACHE[key] = out
    return out


# the most candidate tables that splitting_section searches
SECTION_CANDIDATE_CAP = 10**6


def splitting_section(ring, ideal):
    """A unital ring section of R -> R/I, or None if no section exists.

    R must be finite; the search tries candidate maps in enumerator order,
    so the returned section is deterministic.  An infinite ring raises
    UnsupportedRingError.
    """
    if not ring.is_finite:
        raise UnsupportedRingError(f"no registered section for {ring.spec}")
    quo, pi = quotient_ring(ring, ideal)
    iset = sorted(ideal.payload_set())
    qcodes = quo.payloads()
    # sigma(q) must live in the fiber over q, section[q] + I; 0 and 1 are forced
    free = sum(q not in (quo.zero_p, quo.one_p) for q in qcodes)
    if free and len(iset)**free > SECTION_CANDIDATE_CAP:
        raise UnsupportedRingError("section search space too large")
    fibers = [
        [ring.zero_p] if q == quo.zero_p
        else [ring.one_p] if q == quo.one_p
        else [ring.p_add(quo.section[q], i) for i in iset]
        for q in qcodes
    ]
    for table in itertools.product(*fibers):
        if all(
            table[quo.p_add(x, y)] == ring.p_add(table[x], table[y])
            and table[quo.p_mul(x, y)] == ring.p_mul(table[x], table[y])
            for x in qcodes
            for y in qcodes
        ):
            return RingMorphism(quo, ring, table.__getitem__, name="sigma")
    return None


@dataclass
class SplitData:
    """A splitting ideal bundled with its quotient, projection and section."""

    ring: Ring
    ideal: FGIdeal
    quotient: Ring
    pi: RingMorphism
    sigma: RingMorphism

    def defect(self, x):
        """x - sigma(pi(x)); the part of x inside the ideal."""
        return x - self.sigma(self.pi(x))


def split_data(ring, ideal):
    """R/I with its projection and a splitting section; raises
    UnsupportedRingError when I does not split, since nothing built on the
    split extension applies then."""
    quo, pi = quotient_ring(ring, ideal)
    sigma = splitting_section(ring, ideal)
    if sigma is None:
        raise UnsupportedRingError(f"{ideal!r} is not a splitting ideal")
    return SplitData(ring, ideal, quo, pi, sigma)
