"""Simply-laced root systems with a fixed structure-constant convention.

A and D carry their standard matrix realizations (special linear and split
even orthogonal), and the sign table is read off the Lie bracket of the
root elements E = x(1) - 1 there, entry by entry.  The E family has no
matrix model here; its signs come from the bilinear cocycle on the root
lattice fixed in _cocycle_sign.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy


class RootSystemError(Exception):
    pass


class NoMatrixRealization(RootSystemError):
    """The root system has no matrix realization here (the E family), so no
    question about matrices can be asked of it."""


class Root:
    """A root, held as exact coordinates in the ambient Euclidean space."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(coords)

    def __add__(self, other):
        return Root(a + b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return Root(-a for a in self.coords)

    def __sub__(self, other):
        return Root(a - b for a, b in zip(self.coords, other.coords))

    def dot(self, other):
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def norm2(self):
        return self.dot(self)

    def __eq__(self, other):
        return isinstance(other, Root) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        return self.coords < other.coords

    def __repr__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class RootDatum:
    """A root system plus its sign table N_{a,b} on pairs with a+b a root."""

    def __init__(self, family, rank, roots):
        self.family = family
        self.rank = rank
        self.roots = tuple(roots)
        self.index = {r: i for i, r in enumerate(self.roots)}
        self.root_set = frozenset(self.roots)
        self._signs = {}
        self._cocycle = None
        self._unipotent_entries = None
        self._ij_index = None
        self._pairings = None

    @property
    def name(self):
        return f"{self.family}{self.rank}"

    def __contains__(self, root):
        return root in self.root_set

    def __len__(self):
        return len(self.roots)

    def matrix_size(self):
        if self.family == "A":
            return self.rank + 1
        if self.family == "D":
            return 2 * self.rank
        raise NoMatrixRealization(f"no matrix realization for family {self.family}")

    def pairings(self):
        """The ints <roots[i], roots[j]>, as rows by i: computed once, on
        doubled coordinates, which are integral in every family (E has
        half-integer ones)."""
        if self._pairings is None:
            doubled = numpy.array([[int(2 * c) for c in r.coords] for r in self.roots], dtype=numpy.int64)
            self._pairings = (doubled @ doubled.T // 4).tolist()
        return self._pairings

    def unipotent_entries(self, ri):
        """The entries (i, j, sign) of x_alpha(1) - 1 for alpha = roots[ri].

        In the standard realization x_alpha(c) = 1 + sum sign*c*e_ij: one
        entry for the A family, two for D, where x_(i,j)(c) = 1 + c*e_(i,j)
        - c*e_(-j,-i).
        """
        if self._unipotent_entries is None:
            self.matrix_size()  # raises for the E family
            entries = []
            for root in self.roots:
                if self.family == "A":
                    i, j = self.a_indices(root)
                    entries.append(((i, j, 1),))
                else:
                    i, j = self.d_pair(root)
                    pos = self.d_position
                    entries.append(((pos(i), pos(j), 1), (pos(-j), pos(-i), -1)))
            self._unipotent_entries = tuple(entries)
        return self._unipotent_entries[ri]

    def sign(self, alpha, beta):
        """N_{alpha,beta}, defined exactly when alpha+beta is a root."""
        gamma = alpha + beta
        if alpha not in self.root_set or beta not in self.root_set:
            raise RootSystemError("sign() arguments must be roots")
        if gamma not in self.root_set:
            raise RootSystemError(f"{alpha}+{beta} is not a root")
        key = (self.index[alpha], self.index[beta])
        cached = self._signs.get(key)
        if cached is None:
            cached = (_bracket_sign if self.family in ("A", "D") else _cocycle_sign)(self, alpha, beta)
            self._signs[key] = cached
        return cached

    def a_indices(self, root):
        """(i, j) with root = e_i - e_j, 0-based, for the A realization."""
        i = j = None
        for k, c in enumerate(root.coords):
            if c == 1:
                i = k
            elif c == -1:
                j = k
            elif c != 0:
                raise RootSystemError(f"{root} is not an A-type root")
        return i, j

    def ij_index(self):
        """For the A family, the map (i, j) -> index of the root e_i - e_j,
        0-based; built once."""
        if self._ij_index is None:
            self._ij_index = {self.a_indices(r): k for k, r in enumerate(self.roots)}
        return self._ij_index

    def d_pair(self, root):
        """The canonical signed pair (i, j) with |i| < |j| for a D-type root."""
        support = [(k + 1, c) for k, c in enumerate(root.coords) if c != 0]
        if len(support) != 2 or any(c not in (1, -1) for _, c in support):
            raise RootSystemError(f"{root} is not a D-type root")
        (p, cp), (q, cq) = support
        return cp * p, -cq * q

    def d_position(self, signed):
        """Index of basis vector `signed` in the (1..l, -l..-1) ordering."""
        l = self.rank
        return signed - 1 if signed > 0 else 2 * l + signed

    def __repr__(self):
        return f"RootDatum({self.name}, {len(self.roots)} roots)"


def build_system(family, rank=None):
    """Build A_l (l>=2), D_l (l>=3) or E_l (l in 6..8) with standard roots.

    Accepts either ("A", 3) or the compact name "A3".
    """
    if rank is None:
        name = family.strip().upper()
        if len(name) < 2 or not name[1:].isdigit():
            raise RootSystemError(f"cannot parse root system name {family!r}")
        family, rank = name[0], int(name[1:])
    family = family.upper()
    if family == "A":
        if rank < 2:
            raise RootSystemError("A needs rank >= 2")
        roots = [
            Root(tuple(1 if k == i else -1 if k == j else 0 for k in range(rank + 1)))
            for i in range(rank + 1)
            for j in range(rank + 1)
            if i != j
        ]
    elif family == "D":
        if rank < 3:
            raise RootSystemError("D needs rank >= 3")
        roots = []
        for i in range(rank):
            for j in range(i + 1, rank):
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    roots.append(
                        Root(tuple(si if k == i else sj if k == j else 0 for k in range(rank)))
                    )
    elif family == "E":
        if rank not in (6, 7, 8):
            raise RootSystemError("E needs rank 6, 7 or 8")
        roots = _e8_roots()
        if rank < 8:
            walls = [Root((0,) * 6 + (1, 1))]
            if rank == 6:
                walls.append(Root((0,) * 5 + (1, -1, 0)))
            roots = [r for r in roots if all(r.dot(w) == 0 for w in walls)]
    else:
        raise RootSystemError(f"family {family} is not simply laced or not supported")
    datum = RootDatum(family, rank, sorted(roots))
    expected = {"A": rank * (rank + 1), "D": 2 * rank * (rank - 1), "E": {6: 72, 7: 126, 8: 240}.get(rank)}
    if len(datum.roots) != expected[family]:
        raise RootSystemError(f"{family}{rank}: built {len(datum.roots)} roots, expected {expected[family]}")
    if any(r.norm2() != 2 for r in datum.roots):
        raise RootSystemError(f"{family}{rank}: a root does not have squared length 2")
    return datum


def _e8_roots():
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                roots.append(Root(tuple(si if k == i else sj if k == j else 0 for k in range(8))))
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(Root(tuple(half * s for s in signs)))
    return roots


# ---------------------------------------------------------------------------
# signs for A and D: the Lie bracket of the matrix realization


def _bracket_sign(datum, alpha, beta):
    """N with [E_alpha, E_beta] = N E_{alpha+beta} at every entry, where
    E_root = x_root(1) - 1 is read off unipotent_entries: the structure
    constant of the Chevalley basis (Carter, Simple Groups of Lie Type,
    1972, ch. 4), which the commutator formula of x_alpha(r), x_beta(s)
    carries."""
    ea, eb = datum.unipotent_entries(datum.index[alpha]), datum.unipotent_entries(datum.index[beta])
    bracket = {}
    for i, j, s in ea:
        for k, l, t in eb:
            if j == k:  # E_alpha E_beta
                bracket[i, l] = bracket.get((i, l), 0) + s * t
            if l == i:  # - E_beta E_alpha
                bracket[k, j] = bracket.get((k, j), 0) - s * t
    bracket = {at: v for at, v in bracket.items() if v}
    for n in (1, -1):
        if bracket == {(i, j): n * s for i, j, s in datum.unipotent_entries(datum.index[alpha + beta])}:
            return n
    raise RootSystemError(f"the bracket of {alpha},{beta} is not +-E_{alpha + beta}")


# ---------------------------------------------------------------------------
# signs for E: the bilinear cocycle on the root lattice


def _positive_system(datum):
    """The positive roots in height order, and the simple roots."""
    weights = [Fraction(2) ** (datum.rank - k) for k in range(len(datum.roots[0].coords))]

    def height(r):
        return sum(w * c for w, c in zip(weights, r.coords))

    for r in datum.roots:
        if height(r) == 0:
            raise RootSystemError("degenerate height functional")
    pos = sorted((r for r in datum.roots if height(r) > 0), key=height)
    pos_set = set(pos)
    simple = [
        g for g in pos
        if not any((g - p) in pos_set for p in pos if p != g)
    ]
    simple.sort()
    return pos, simple


def _cocycle_data(datum):
    """The simple-root coordinates of every root, and the bond matrix.

    A positive root beta that is not simple pairs to 1 with some simple
    alpha, since 2 = (beta, beta) = sum c_i (beta, alpha_i) with c_i >= 0;
    then beta - alpha = s_alpha(beta) is a positive root of lower height.
    So each coordinate vector is the one of the root below plus e_alpha,
    read in height order, and a negative root has the negated vector.
    """
    if datum._cocycle is None:
        pos, simple = _positive_system(datum)
        if len(simple) != datum.rank:
            raise RootSystemError("base extraction failed")
        coords = {s: tuple(int(i == k) for i in range(datum.rank)) for k, s in enumerate(simple)}
        for beta in pos:
            if beta in coords:
                continue
            k = next((k for k, a in enumerate(simple) if beta.dot(a) == 1), None)
            below = None if k is None else coords.get(beta - simple[k])
            if below is None:
                raise RootSystemError(f"{beta} peels to no positive root below it")
            coords[beta] = below[:k] + (below[k] + 1,) + below[k + 1 :]
        for beta in pos:
            coords[-beta] = tuple(-c for c in coords[beta])
        bond = [
            [1 if i <= j and simple[i].dot(simple[j]) != 0 else 0 for j in range(datum.rank)]
            for i in range(datum.rank)
        ]
        datum._cocycle = (coords, bond)
    return datum._cocycle


def _cocycle_sign(datum, alpha, beta):
    coords, bond = _cocycle_data(datum)
    m, n = coords[alpha], coords[beta]
    total = 0
    for i, mi in enumerate(m):
        if not mi:
            continue
        row = bond[i]
        for j, nj in enumerate(n):
            if nj and row[j]:
                total += mi * nj
    return -1 if total % 2 else 1


# ---------------------------------------------------------------------------
# A3 subsystems


def a3_chain(datum, alpha):
    """Roots (beta, gamma) with <alpha,beta> = <beta,gamma> = -1 and
    <alpha,gamma> = 0, the first in root order, or None.

    Such a chain is a base of type A3: a simply-laced root system is closed
    under its reflections, so alpha+beta = s_beta(alpha), beta+gamma and
    alpha+beta+gamma = s_gamma(alpha+beta) are roots, and with alpha, beta,
    gamma and the negatives they are the 12 roots of an A3 subsystem
    containing alpha.  Conversely every root of an A3 subsystem heads such
    a chain inside it, so None means alpha lies in no A3 subsystem.
    """
    pairings = datum.pairings()
    row_a = pairings[datum.index[alpha]]
    for bi, ab in enumerate(row_a):
        if ab != -1:
            continue
        for gi, bg in enumerate(pairings[bi]):
            if bg == -1 and row_a[gi] == 0:
                return datum.roots[bi], datum.roots[gi]
    return None

