"""Exact matrix models for the A and D families.

A matrix is the row-major tuple of its payloads over a rings.Ring, and
nothing here inverts one.  Every invertible matrix the workbench meets is the
image phi(w) of a word w in the Steinberg generators, so inverses and
contragredients are taken on the word (StWord.inverse and
words.contragredient) and mapped through phi, which stays exact over every
ring class.
"""

from __future__ import annotations

from .rings import Elem


class MatrixError(Exception):
    pass


class Inconclusive(Exception):
    """A search hit its cap; the answer is unknown, not `False`."""


class RVector:
    """Vector over a ring: `data` is the tuple of its payloads, zeros
    included, and is its own hash key.  vector() builds one from Elems or
    ints."""

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data

    def __len__(self):
        return len(self.data)

    @property
    def entries(self):
        """The entries as Elems, for the callers that need elements."""
        return list(map(self.ring.elem, self.data))

    def _match(self, other):
        if self.ring is not other.ring or len(self.data) != len(other.data):
            raise MatrixError("vector ring/length mismatch")

    def __add__(self, other):
        self._match(other)
        ring = self.ring
        add = ring.tables[0]
        return RVector(ring, tuple([add[a][b] for a, b in zip(self.data, other.data)]))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        ring = self.ring
        return RVector(ring, tuple(map(ring.tables[2].__getitem__, self.data)))

    def scale(self, c):
        ring = self.ring
        c = c.payload if type(c) is Elem and c.ring is ring else ring.el(c).payload
        return RVector(ring, tuple(map(ring.tables[1][c].__getitem__, self.data)))

    def dot(self, other):
        self._match(other)
        return self.ring.elem(self.ring.p_dot(self.data, other.data))

    def zero_positions(self):
        zero = self.ring.zero_p
        return [i for i, a in enumerate(self.data) if a == zero]

    def __eq__(self, other):
        return (
            isinstance(other, RVector)
            and self.ring is other.ring
            and self.data == other.data
        )

    def __hash__(self):
        return hash((id(self.ring), self.data))

    def to_literal(self):
        return [self.ring.to_literal(p) for p in self.data]

    def __repr__(self):
        return "vec[" + ",".join(map(self.ring.p_repr, self.data)) + "]"


def vector(ring, entries):
    """The vector of `entries`, each an Elem of `ring` or an int."""
    return RVector(ring, tuple(ring.el(x).payload for x in entries))


def basis_vector(ring, n, k):
    one, zero = ring.one_p, ring.zero_p
    return RVector(ring, tuple(one if i == k else zero for i in range(n)))


class RMatrix:
    """Square matrix over a ring: `data` is the row-major tuple of its n*n
    payloads, zeros included, and is its own hash key."""

    __slots__ = ("ring", "n", "data")

    def __init__(self, ring, n, data):
        self.ring = ring
        self.n = n
        self.data = data

    def __mul__(self, other):
        if isinstance(other, RVector):
            return self.apply(other)
        if self.ring is not other.ring or self.n != other.n:
            raise MatrixError("matrix shape/ring mismatch")
        ring, n = self.ring, self.n
        zero, (add, mul, _) = ring.zero_p, ring.tables
        brows = [tuple(enumerate(other.data[k:k + n])) for k in range(0, n * n, n)]
        out = []
        for r in range(0, n * n, n):
            row = [zero] * n
            for x, brow in zip(self.data[r:r + n], brows):
                if x == zero:
                    continue
                mx = mul[x]
                for j, y in brow:
                    if y != zero:
                        row[j] = add[row[j]][mx[y]]
            out.extend(row)
        return RMatrix(ring, n, tuple(out))

    def apply(self, vec):
        n = self.n
        if len(vec) != n or vec.ring is not self.ring:
            raise MatrixError("matrix/vector size/ring mismatch")
        ring, a, vp = self.ring, self.data, vec.data
        return RVector(ring, tuple(ring.p_dot(a[r:r + n], vp) for r in range(0, n * n, n)))

    def transpose(self):
        n = self.n
        return RMatrix(self.ring, n, tuple(p for j in range(n) for p in self.data[j::n]))

    def __eq__(self, other):
        return (
            isinstance(other, RMatrix)
            and self.ring is other.ring
            and self.n == other.n
            and self.data == other.data
        )

    def __hash__(self):
        return hash((id(self.ring), self.n, self.data))

    def __repr__(self):
        n, rep = self.n, self.ring.p_repr
        body = "; ".join(
            " ".join(rep(p) for p in self.data[r:r + n]) for r in range(0, n * n, n)
        )
        return f"[{body}]"


def identity_matrix(ring, n):
    """The n x n identity, made once per ring and size."""
    ident = ring.identities.get(n)
    if ident is None:
        one, zero = ring.one_p, ring.zero_p
        ident = ring.identities[n] = RMatrix(
            ring, n, tuple(one if k % (n + 1) == 0 else zero for k in range(n * n))
        )
    return ident


def unipotent(datum, root, xi):
    """The elementary root unipotent for the standard A/D realization."""
    n = datum.matrix_size()
    ring = xi.ring
    data = list(identity_matrix(ring, n).data)
    if not xi.is_zero():
        for i, j, sign in datum.unipotent_entries(datum.index[root]):
            data[i * n + j] = xi.payload if sign > 0 else ring.p_neg(xi.payload)
    return RMatrix(ring, n, tuple(data))


def transvection(u, v):
    """1 + u*v^t.  Orthogonality is the callers' business, not checked here."""
    if len(u) != len(v):
        raise MatrixError("transvection needs equal-length vectors")
    if u.ring is not v.ring:
        raise MatrixError("transvection vectors must share a ring")
    ring, n = u.ring, len(u)
    zero, (add, mul, _) = ring.zero_p, ring.tables
    data = list(identity_matrix(ring, n).data)
    for i, a in enumerate(u.data):
        if a == zero:
            continue
        ma = mul[a]  # row i of 1 + u v^t: e_i + a v, with one table lookup each
        for k, b in enumerate(v.data, i * n):
            data[k] = add[data[k]][ma[b]]
    return RMatrix(ring, n, tuple(data))


def right_multiplier(g):
    """The map m -> m*g on row-major payload tuples (RMatrix.data).

    Write g = 1 + N; then m*g = m + m*N, and each nonzero entry c of N at
    (i, j) adds c times column i of m to column j: a root unipotent costs
    one column operation per entry of RootDatum.unipotent_entries, as in
    words.phi.  Columns are read from m and written to a copy, so the rule
    holds for every g, not only for unipotents.
    """
    ring, n = g.ring, g.n
    padd, pmul, zero = ring.p_add, ring.p_mul, ring.zero_p
    minus_one = ring.p_neg(ring.one_p)
    cells = []  # (index of m[r][i], of m[r][j], c) per entry and row r
    for k, c in enumerate(g.data):
        i, j = divmod(k, n)
        if i == j:
            c = padd(c, minus_one)
        if c != zero:
            cells.extend((r + i, r + j, c) for r in range(0, n * n, n))

    def times_g(m):
        out = list(m)
        for src, dst, c in cells:
            a = m[src]
            if a != zero:
                out[dst] = padd(out[dst], pmul(a, c))
        return tuple(out)

    return times_g


def matrix_group_order(gens, cap=10**7):
    """|<gens>| by breadth-first closure on row-major payload tuples, one
    right_multiplier per generator; Inconclusive beyond the cap."""
    if not gens:
        return 1
    steps = [right_multiplier(g) for g in gens]
    ident = identity_matrix(gens[0].ring, gens[0].n).data
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for step in steps:
                prod = step(m)
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        raise Inconclusive("matrix group closure cap exceeded")
                    nxt.append(prod)
        frontier = nxt
    return len(seen)
