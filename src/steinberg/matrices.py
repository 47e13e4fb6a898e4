"""Exact matrix models for the A and D families.

Matrices are sparse payload dictionaries over a rings.Ring, and nothing
here inverts a matrix.  Every invertible matrix the workbench meets is the
image phi(w) of a word w in the Steinberg generators, so inverses and
contragredients are taken on the word (StWord.inverse and
words.contragredient) and mapped through phi, which stays exact over every
ring class.
"""

from __future__ import annotations

from .rings import Elem, UnsupportedRingError, lin_solve


class MatrixError(Exception):
    pass


class Inconclusive(Exception):
    """A search hit its cap; the answer is unknown, not `False`."""


class RVector:
    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = tuple(ring.el(x) for x in entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other):
        return RVector(self.ring, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return RVector(self.ring, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return RVector(self.ring, [-a for a in self.entries])

    def scale(self, c):
        c = self.ring.el(c)
        return RVector(self.ring, [a * c for a in self.entries])

    def dot(self, other):
        acc = self.ring.zero()
        for a, b in zip(self.entries, other.entries):
            acc = acc + a * b
        return acc

    def is_zero(self):
        return all(a.is_zero() for a in self.entries)

    def zero_positions(self):
        return [i for i, a in enumerate(self.entries) if a.is_zero()]

    def key(self):
        return tuple(a.payload for a in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, RVector)
            and self.ring is other.ring
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((id(self.ring), self.key()))

    def to_literal(self):
        return [self.ring.to_literal(a.payload) for a in self.entries]

    def __repr__(self):
        return "vec[" + ",".join(repr(a) for a in self.entries) + "]"


def vector(ring, entries):
    return RVector(ring, entries)


def basis_vector(ring, n, k, scale=1):
    return RVector(ring, [scale if i == k else 0 for i in range(n)])


class RMatrix:
    """Sparse square matrix over a ring."""

    __slots__ = ("ring", "n", "data", "_rows")

    def __init__(self, ring, n, data):
        self.ring = ring
        self.n = n
        self.data = data  # {(i, j): payload}, zero payloads never stored
        self._rows = None

    def rows(self):
        if self._rows is None:
            rows = {}
            for (i, j), p in self.data.items():
                rows.setdefault(i, []).append((j, p))
            self._rows = rows
        return self._rows

    def entry(self, i, j):
        return Elem(self.ring, self.data.get((i, j), self.ring.zero_p))

    def __mul__(self, other):
        if isinstance(other, RVector):
            return self.apply(other)
        if self.ring is not other.ring or self.n != other.n:
            raise MatrixError("matrix shape/ring mismatch")
        ring = self.ring
        padd, pmul, pz = ring.p_add, ring.p_mul, ring.zero_p
        orows = other.rows()
        out = {}
        for (i, k), a in self.data.items():
            row = orows.get(k)
            if not row:
                continue
            for j, b in row:
                key = (i, j)
                cur = out.get(key)
                v = pmul(a, b)
                out[key] = v if cur is None else padd(cur, v)
        return RMatrix(ring, self.n, {k: v for k, v in out.items() if v != pz})

    def apply(self, vec):
        if len(vec) != self.n:
            raise MatrixError("matrix/vector size mismatch")
        ring = self.ring
        padd, pmul, pz = ring.p_add, ring.p_mul, ring.zero_p
        out = [pz] * self.n
        vp = [x.payload for x in vec.entries]
        for (i, j), a in self.data.items():
            if vp[j] != pz:
                out[i] = padd(out[i], pmul(a, vp[j]))
        return RVector(ring, [Elem(ring, p) for p in out])

    def transpose(self):
        return RMatrix(self.ring, self.n, {(j, i): p for (i, j), p in self.data.items()})

    def is_identity(self):
        if len(self.data) != self.n:
            return False
        one = self.ring.one_p
        return all(self.data.get((i, i)) == one for i in range(self.n))

    def key(self):
        return (self.n, tuple(sorted((ij, p) for ij, p in self.data.items())))

    def __eq__(self, other):
        return (
            isinstance(other, RMatrix)
            and self.ring is other.ring
            and self.n == other.n
            and self.data == other.data
        )

    def __hash__(self):
        return hash((id(self.ring), self.key()))

    def flat(self):
        """The entries as one row-major tuple of n*n payloads, zeros included:
        a hashable key, and the form right_multiplier works on."""
        get, zero, n = self.data.get, self.ring.zero_p, self.n
        return tuple(get((i, j), zero) for i in range(n) for j in range(n))

    def to_dense(self):
        return [
            [self.ring.to_literal(self.data.get((i, j), self.ring.zero_p)) for j in range(self.n)]
            for i in range(self.n)
        ]

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.p_repr(self.data.get((i, j), self.ring.zero_p)) for j in range(self.n))
            for i in range(self.n)
        )
        return f"[{body}]"


def identity_matrix(ring, n):
    return RMatrix(ring, n, {(i, i): ring.one_p for i in range(n)})


def unipotent(datum, root, xi):
    """The elementary root unipotent for the standard A/D realization."""
    n = datum.matrix_size()
    ring = xi.ring
    data = {(i, i): ring.one_p for i in range(n)}
    if not xi.is_zero():
        for i, j, sign in datum.unipotent_entries(datum.index[root]):
            data[(i, j)] = xi.payload if sign > 0 else ring.p_neg(xi.payload)
    return RMatrix(ring, n, data)


def transvection(u, v):
    """1 + u*v^t.  Orthogonality is the callers' business, not checked here."""
    if len(u) != len(v):
        raise MatrixError("transvection needs equal-length vectors")
    if u.ring is not v.ring:
        raise MatrixError("transvection vectors must share a ring")
    ring = u.ring
    n = len(u)
    data = {(i, i): ring.one_p for i in range(n)}
    for i, a in enumerate(u.entries):
        if a.is_zero():
            continue
        for j, b in enumerate(v.entries):
            p = ring.p_mul(a.payload, b.payload)
            if p == ring.zero_p:
                continue
            cur = data.get((i, j), ring.zero_p)
            s = ring.p_add(cur, p)
            if s == ring.zero_p:
                data.pop((i, j), None)
            else:
                data[(i, j)] = s
    return RMatrix(ring, n, data)


def gram_hyperbolic(ring, rank):
    """The anti-diagonal Gram matrix of the split even orthogonal form."""
    n = 2 * rank
    return RMatrix(ring, n, {(i, n - 1 - i): ring.one_p for i in range(n)})


def is_unimodular(u):
    """A certificate w with w^t u = 1, or None; may raise UnsupportedRingError."""
    w = lin_solve(list(u.entries), u.ring.one())
    return None if w is None else RVector(u.ring, w)


def elementary_orbit_witness(u, node_cap=10**6):
    """Letters (i, j, r) with t_(i1 j1)(r1)*...*e_1 == u, or None.

    Finite rings run orbit_bfs until it reaches u; the integers use
    Euclidean reduction.  Exceeding the node cap raises Inconclusive rather
    than answering.
    """
    ring = u.ring
    n = len(u)
    if n < 3:
        raise MatrixError("orbit witness needs n >= 3")
    if ring.is_finite:
        target = u.key()
        parent = orbit_bfs(ring, n, node_cap, target)
        return orbit_letters(ring, parent, target) if target in parent else None
    if type(ring).__name__ == "ZRing":
        return _orbit_euclid(u)
    raise UnsupportedRingError(f"orbit search over {ring.spec} is not supported")


def orbit_bfs(ring, n, node_cap=10**6, target=None):
    """Breadth-first search of the elementary orbit of e_1 in R^n.

    Returns the parent map, in order of discovery: each payload tuple maps
    to (its parent, (i, j, r)), reached from the parent by adding r times
    slot j to slot i, and e_1 maps to None.  The moves are tried in
    (i, j, r) order and the first parent found is kept.  The search stops
    as soon as it reaches `target`; exceeding the node cap raises
    Inconclusive.
    """
    zero = ring.zero_p
    start = tuple(ring.one_p if i == 0 else zero for i in range(n))
    parent = {start: None}
    if target == start:
        return parent
    nonzero = [p for p in ring.payloads() if p != zero]
    moves = [(i, j, r) for i in range(n) for j in range(n) if i != j for r in nonzero]
    padd, pmul = ring.p_add, ring.p_mul
    queue = [start]
    for vec in queue:  # the queue grows while it is read
        for move in moves:
            i, j, r = move
            if vec[j] == zero:
                continue
            newv = list(vec)
            newv[i] = padd(newv[i], pmul(r, vec[j]))
            newv = tuple(newv)
            if newv in parent:
                continue
            parent[newv] = (vec, move)
            if newv == target:
                return parent
            if len(parent) > node_cap:
                raise Inconclusive("orbit search cap exceeded")
            queue.append(newv)
    return parent


def orbit_letters(ring, parent, state):
    """The moves from e_1 to `state` in an orbit_bfs parent map, last first:
    letters (i, j, r) whose product of t_ij(r), applied to e_1, gives it."""
    letters = []
    while parent[state] is not None:
        state, (i, j, r) = parent[state]
        letters.append((i, j, Elem(ring, r)))
    return letters


def _orbit_euclid(u):
    ring = u.ring
    vals = [x.payload for x in u.entries]
    n = len(vals)
    ops = []  # ops applied to u, in application order, driving it to e_1

    def apply(i, j, r):
        vals[i] += r * vals[j]
        ops.append((i, j, r))

    for j in range(1, n):
        # Euclid between slot 0 and slot j, always shrinking the larger one
        while vals[j] != 0:
            if vals[0] == 0:
                apply(0, j, 1)
            if abs(vals[j]) >= abs(vals[0]):
                apply(j, 0, -(vals[j] // vals[0]))
            else:
                apply(0, j, -(vals[0] // vals[j]))
    if vals[0] == -1:
        apply(1, 0, 1)
        apply(0, 1, -2)
        apply(1, 0, 1)
    if vals[0] != 1 or any(v != 0 for v in vals[1:]):
        return None
    # ops take u to e_1, so u = T_1^-1 ... T_k^-1 e_1: invert in place
    return [(i, j, ring.el(-r)) for i, j, r in ops]


def right_multiplier(g):
    """The map m -> m*g on flat row-major payload tuples (RMatrix.flat).

    Write g = 1 + N; then m*g = m + m*N, and each nonzero entry c of N at
    (i, j) adds c times column i of m to column j: a root unipotent costs
    one column operation per entry of RootDatum.unipotent_entries, as in
    words.phi.  Columns are read from m and written to a copy, so the rule
    holds for every g, not only for unipotents.
    """
    ring, n = g.ring, g.n
    padd, pmul, zero = ring.p_add, ring.p_mul, ring.zero_p
    minus_one = ring.p_neg(ring.one_p)
    cells = []  # (flat index of m[r][i], of m[r][j], c) per entry and row r
    for i in range(n):
        for j in range(n):
            c = g.data.get((i, j), zero)
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
    """|<gens>| by breadth-first closure on flat payload tuples, one
    right_multiplier per generator; Inconclusive beyond the cap."""
    if not gens:
        return 1
    steps = [right_multiplier(g) for g in gens]
    ident = identity_matrix(gens[0].ring, gens[0].n).flat()
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
