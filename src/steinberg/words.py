"""Words in Steinberg generators x_alpha(xi) and their matrix shadow.

A word is just a letter sequence; no rewriting beyond merging adjacent
same-root letters is ever attempted (naive confluent rewriting is unsound
when the kernel of phi is nontrivial).  Equality therefore comes in tiers:
syntactic after simplify, matrix equality under phi (a necessary
condition), and exact equality through a coset table when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import RMatrix, identity_matrix
from .rings import SplitData


class WordError(Exception):
    pass


class StWord:
    """A word over (system, ring); letters are (root index, coefficient)."""

    __slots__ = ("system", "ring", "letters")

    def __init__(self, system, ring, letters=()):
        self.system = system
        self.ring = ring
        self.letters = tuple(letters)

    def __mul__(self, other):
        _check_compat(self, other)
        return StWord(self.system, self.ring, self.letters + other.letters)

    def inverse(self):
        return StWord(
            self.system,
            self.ring,
            tuple((idx, -c) for idx, c in reversed(self.letters)),
        )

    def __len__(self):
        return len(self.letters)

    def is_empty(self):
        return not self.letters

    def key(self):
        return tuple((idx, c.payload) for idx, c in self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, StWord)
            and self.system is other.system
            and self.ring is other.ring
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((id(self.system), id(self.ring), self.key()))

    def to_literal(self):
        return [[idx, self.ring.to_literal(c.payload)] for idx, c in self.letters]

    def __repr__(self):
        if not self.letters:
            return "1"
        bits = []
        for idx, c in self.letters:
            bits.append(f"x[{self.system.roots[idx]}]({c!r})")
        return "*".join(bits)


def _check_compat(a, b):
    if a.system is not b.system or a.ring is not b.ring:
        raise WordError("words live over different (system, ring) pairs")


def word(system, ring, letters):
    """Build a word from (root, coefficient) pairs (roots or root indices)."""
    out = []
    for root, c in letters:
        idx = root if isinstance(root, int) else system.index[root]
        out.append((idx, ring.el(c)))
    return StWord(system, ring, out)


def x_ij(system, ring, i, j, c):
    """x_ij over an A-system, 0-based matrix indices (root e_i - e_j)."""
    return from_ij_letters(system, ring, ((i, j, c),))


def from_ij_letters(system, ring, letters):
    """Lift (i, j, coeff) matrix letters to a word, in the same order."""
    if system.family != "A":
        raise WordError("x_ij needs an A-family system")
    at = system.ij_index()
    return StWord(system, ring, tuple((at[i, j], ring.el(c)) for i, j, c in letters))


def empty(system, ring):
    return StWord(system, ring, ())


def conjugate(g, h):
    """g h g^-1 (left conjugation)."""
    return g * h * g.inverse()


def commutator(x, y):
    """Left-normed commutator x y x^-1 y^-1."""
    return x * y * x.inverse() * y.inverse()


def simplify(w):
    """Merge adjacent same-root letters and drop zero coefficients.

    Only the additivity relation and free cancellation are used, so the
    result is the same group element in every quotient where the letters
    make sense.
    """
    ring = w.ring
    zero, add = ring.zero_p, ring.tables[0]
    stack = []
    for idx, c in w.letters:
        p = c.payload
        if p == zero:
            continue
        if stack and stack[-1][0] == idx:
            q = stack.pop()[1].payload
            merged = add[q][p]
            if merged != zero:
                stack.append((idx, ring.elem(merged)))
        else:
            stack.append((idx, c))
    return StWord(w.system, ring, stack)


def phi(w):
    """The matrix image of a word: the product of its root unipotents.

    Right multiplication by 1 + c*e_ij adds c times column i to column j,
    so each letter costs a column operation, not a matrix product.  A
    D-type unipotent 1 + c*e_ab - c*e_(b',a') (x' the position of -x) is
    two of them: e_ab * e_(b',a') = 0 = e_(b',a') * e_ab, since b != b' and
    a' != a.
    """
    system, ring = w.system, w.ring
    n = system.matrix_size()
    zero, (add, mul, neg) = ring.zero_p, ring.tables
    entries = system.unipotent_entries
    starts = range(0, n * n, n)
    m = list(identity_matrix(ring, n).data)
    for idx, c in w.letters:
        p = c.payload
        if p == zero:
            continue
        for i, j, sign in entries(idx):
            times = mul[p if sign > 0 else neg[p]]  # the row v -> v * coef
            for r in starts:
                v = m[r + i]
                if v != zero:
                    m[r + j] = add[m[r + j]][times[v]]
    return RMatrix(ring, n, tuple(m))


def transpose_anti(w):
    """The letterwise transpose x_ij(r) -> x_ji(r) with the order reversed.

    An anti-homomorphism on words over an A-system: phi of the result is
    the transpose of phi(w).  It is an involution on canonical forms.
    """
    if w.system.family != "A":
        raise WordError("transpose is only defined for the A family")
    sys = w.system
    out = []
    for idx, c in reversed(w.letters):
        neg = sys.index[-sys.roots[idx]]
        out.append((neg, c))
    return StWord(sys, w.ring, out)


def contragredient(w):
    """The letterwise contragredient, in the same letter order: x_a(c) ->
    x_(-a)(-c) over an A-system and x_a(c) -> x_(-a)(c) over a D-system.

    phi of the result is (phi(w)^t)^-1, since M -> (M^t)^-1 is a
    homomorphism and takes each root unipotent to one at the opposite root:
    (1 + c*e_ij)^-t = 1 - c*e_ji in type A, and in type D
    (1 + c*e_ab - c*e_(b',a'))^-t = 1 + c*e_(a',b') - c*e_ba, which is
    x_(-a)(c) because -a has the entries of a mirrored, (a', b') then (b, a).
    """
    sys = w.system
    if sys.family not in ("A", "D"):
        raise WordError("the contragredient is only defined for the A and D families")
    negate = sys.family == "A"
    out = []
    for idx, c in w.letters:
        out.append((sys.index[-sys.roots[idx]], -c if negate else c))
    return StWord(sys, w.ring, out)


def z_generator(system, ring, alpha, s, r):
    """The relative generator: x_{-a}(r) x_a(s) x_{-a}(-r)."""
    s = ring.el(s)
    r = ring.el(r)
    ia = alpha if isinstance(alpha, int) else system.index[alpha]
    im = system.index[-system.roots[ia]]
    return StWord(system, ring, ((im, r), (ia, s), (im, -r)))


def coefficient_map(morphism, system, w):
    """Apply a ring morphism to every coefficient of a word."""
    return StWord(
        system,
        morphism.target,
        tuple((idx, morphism(c)) for idx, c in w.letters),
    )


# ---------------------------------------------------------------------------
# the split extension St(R) = St(R,I) x| St(R/I)


@dataclass
class SemidirectElement:
    """A pair (kernel word over R, quotient word over R/I) with the
    conjugation action running through the splitting section."""

    split: SplitData
    system: object
    kernel: StWord
    quotient: StWord

    def _lift(self, h):
        return coefficient_map(self.split.sigma, self.system, h)

    def __mul__(self, other):
        lifted = self._lift(self.quotient)
        return SemidirectElement(
            self.split,
            self.system,
            self.kernel * conjugate(lifted, other.kernel),
            self.quotient * other.quotient,
        )

    def inverse(self):
        lifted_inv = self._lift(self.quotient.inverse())
        return SemidirectElement(
            self.split,
            self.system,
            conjugate(lifted_inv, self.kernel.inverse()),
            self.quotient.inverse(),
        )

    def as_word(self):
        """The image in St(R) under (g, h) -> g * sigma^*(h)."""
        return self.kernel * self._lift(self.quotient)

    def phi_pair(self):
        return (phi(self.as_word()).data, phi(self.quotient).data)


def semidirect_commutator(x, y):
    """The closed form for a commutator in a split extension:

        [(a,b), (c,d)] = (a * (c conj by b) * (a^-1 conj by bdb^-1)
                            * (c^-1 conj by [b,d]),  [b,d])

    with all conjugations acting through the lifted quotient words.  Must
    agree with the directly multiplied commutator(x, y).
    """
    a, b = x.kernel, x.quotient
    c, d = y.kernel, y.quotient
    lift = x._lift
    part1 = conjugate(lift(b), c)
    part2 = conjugate(lift(b * d * b.inverse()), a.inverse())
    part3 = conjugate(lift(commutator(b, d)), c.inverse())
    return SemidirectElement(
        x.split,
        x.system,
        a * part1 * part2 * part3,
        commutator(b, d),
    )
