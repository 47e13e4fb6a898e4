"""Finite presentations, coset enumeration, and the exact equality tier.

`todd_coxeter` is a deterministic HLT-style Todd-Coxeter with immediate
coincidence handling and an optional lookahead/compaction pass when the
allocation budget is exceeded.  Completed tables are standardized by one
breadth-first renumbering (`standardize`, which `regular_table` shares), so
identical inputs give identical tables.

St(Phi, R) is never enumerated as a whole.  `uplus_data` enumerates the
right cosets of U+ = <x_alpha(b) : alpha > 0> (1,344 of them for
St(A2,Z/4), against 86,016 elements) and U+_E, the image of U+ in
E(Phi, R).  Everything exact is read off that pair, once two checks pass
(a failed check raises):

1. phi kills every relator, so phi is a homomorphism on the presented group.
2. The positive sub-presentation P+ (the relators whose letters are all
   positive) enumerates to exactly |U+_E| elements.  P+ maps onto U+ <= St,
   which phi maps onto U+_E; both maps are then injective, so K2 meets U+
   trivially.  This is a standard lemma (Steinberg, Lectures on Chevalley
   Groups, 1967; Milnor, Introduction to Algebraic K-Theory, 1971,
   section 9), checked here rather than cited.

Then |St| = [St : U+] |U+_E|, which `relative_subgroup_index` reads, and
`k2_compute` counts K2 as the U+ cosets that phi maps into U+_E and tests
its centrality in the U+ table.  `regular_table`, which `WordTester` reads,
labels each element g by (U+ g, u) with u in U+_E; the labels are a
bijection onto St by check 2, and two more checks guard the build:

3. Every Schreier element phi(w_c) X_x phi(w_{cx})^{-1} lies in U+_E.
4. The breadth-first pass (`standardize`) over the labels reaches
   index x |U+_E| of them.

A standardized regular table of a group on fixed generators is unique, so
the table is the one a whole-group enumeration would give, row for row.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass

import numpy

from . import words as W
from .matrices import (
    Inconclusive,
    RMatrix,
    RVector,
    identity_matrix,
    matrix_group_order,
    right_multiplier,
    unipotent,
)
from .rings import Elem, UnsupportedRingError
from .roots import _positive_system
from .words import simplify


class PresentationError(Exception):
    pass


@dataclass(frozen=True)
class Presentation:
    """Generators 0..ngens-1; letter 2g is generator g, 2g+1 its inverse."""

    ngens: int
    relators: tuple


def inverse_letters(wordletters):
    return tuple(l ^ 1 for l in reversed(wordletters))


# ---------------------------------------------------------------------------
# Todd-Coxeter

# Todd-Coxeter runs a lookahead pass and compacts its rows once it has
# defined more than max(ALLOC_FACTOR * max_cosets / 4, 10000) rows, dead
# ones included.
ALLOC_FACTOR = 6


class CosetTable:
    """A complete standardized coset table; coset 0 is the subgroup.

    `table` is one flat array('i') of ncols entries per coset: the image of
    coset c under column x is table[c * ncols + x].  A table without columns
    (the trivial group) has one coset.
    """

    def __init__(self, ncols, table):
        self.ncols = ncols
        self.table = table
        self.n = len(table) // ncols if ncols else 1
        self._tree = None

    def trace(self, coset, letters):
        table, ncols = self.table, self.ncols
        for l in letters:
            coset = table[coset * ncols + l]
        return coset

    def coset_of(self, letters):
        return self.trace(0, letters)

    def tree(self):
        """The breadth-first spanning tree from coset 0: the (parent, column)
        edge of each coset, None at coset 0.

        In a standardized table each coset d > 0 first appears, in row-major
        order, at its tree edge, in a row c < d, and after every coset below
        it; so one pass over the table finds the edges in coset order.
        """
        if self._tree is None:
            tree, ncols = [None], self.ncols
            for i, d in enumerate(self.table):
                if d == len(tree):
                    tree.append(divmod(i, ncols))
            if len(tree) != self.n:
                raise PresentationError("coset table is not standardized")
            self._tree = tree
        return self._tree

    def rep_letters(self, coset):
        """The spanning-tree word of a coset: letters carrying 0 there."""
        tree, letters = self.tree(), []
        while coset:
            coset, x = tree[coset]
            letters.append(x)
        return tuple(reversed(letters))


def standardize(nxt):
    """The standardized table of a complete next-state array.

    nxt is an int32 array of shape (n, ncols): state s goes to nxt[s, x]
    under column x.  States are renumbered in order of first appearance
    when the rows are read breadth-first from state 0 (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 5).  The pass
    runs one breadth-first level at a time: a level is the set of states
    first seen in the rows of the level before, read in row-major order,
    which is exactly the numbering of the one-state-at-a-time pass.  Raises
    PresentationError when state 0 does not reach all n states.
    """
    n, ncols = nxt.shape
    number = numpy.full(n, -1, numpy.int32)
    number[0] = 0
    levels = [numpy.zeros(1, numpy.int32)]
    count = 1
    while True:
        seen = nxt[levels[-1]].ravel()
        seen = seen[number[seen] < 0]
        if not seen.size:
            break
        fresh, first = numpy.unique(seen, return_index=True)
        fresh = fresh[numpy.argsort(first, kind="stable")]
        number[fresh] = numpy.arange(count, count + fresh.size, dtype=numpy.int32)
        count += fresh.size
        levels.append(fresh)
    if count != n:
        raise PresentationError(f"the breadth-first pass reaches {count} of {n} states")
    # the rows in their new order, renumbered, written straight into the table
    table = array("i", [0]) * (n * ncols)
    rows = numpy.frombuffer(table, numpy.intc).reshape(n, ncols)
    numpy.take(nxt, numpy.concatenate(levels), axis=0, out=rows, mode="clip")
    numpy.take(number, rows, out=rows, mode="clip")
    return CosetTable(ncols, table)


def todd_coxeter(pres, subgroup_words=(), max_cosets=10**6):
    """Enumerate cosets of <subgroup_words> in the presented group.

    Raises Inconclusive when the live-coset cap is hit; never reports a
    group infinite.  The returned table is standardized (breadth-first
    numbering), hence deterministic in the inputs alone.
    """
    ncols = 2 * pres.ngens
    rels = [(tuple(w), tuple(l ^ 1 for l in w)) for w in pres.relators]
    subs = [tuple(w) for w in subgroup_words]
    table = [[-1] * ncols]
    p = [0]
    live = 1

    def rep(k):
        while p[k] != k:
            p[k] = p[p[k]]
            k = p[k]
        return k

    def define(a, x):
        nonlocal live
        nu = len(table)
        table.append([-1] * ncols)
        p.append(nu)
        table[a][x] = nu
        table[nu][x ^ 1] = a
        live += 1
        if live > max_cosets:
            raise Inconclusive(f"live cosets exceeded {max_cosets}")
        return nu

    def merge(k, l, queue):
        nonlocal live
        k = rep(k)
        l = rep(l)
        if k == l:
            return
        mu, nu = (k, l) if k < l else (l, k)
        p[nu] = mu
        live -= 1
        queue.append(nu)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            row = table[gamma]
            for x in range(ncols):
                delta = row[x]
                if delta == -1:
                    continue
                table[delta][x ^ 1] = -1
                mu = rep(gamma)
                nu = rep(delta)
                tmx = table[mu][x]
                if tmx != -1:
                    merge(nu, tmx, queue)
                else:
                    tnxi = table[nu][x ^ 1]
                    if tnxi != -1:
                        merge(mu, tnxi, queue)
                    else:
                        table[mu][x] = nu
                        table[nu][x ^ 1] = mu

    def scan_and_fill(alpha, w, winv, fill=True):
        f, i = alpha, 0
        b, j = alpha, len(w) - 1
        while True:
            while i <= j:
                d = table[f][w[i]]
                if d == -1:
                    break
                f = d
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                d = table[b][winv[j]]
                if d == -1:
                    break
                b = d
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                return
            if not fill:
                return
            define(f, w[i])

    for w in subs:
        scan_and_fill(0, w, tuple(l ^ 1 for l in w))

    alloc_cap = max(ALLOC_FACTOR * max_cosets // 4, 10000)
    lookaheads = 0
    alpha = 0
    while alpha < len(table):
        if p[alpha] != alpha:
            alpha += 1
            continue
        dead = False
        for w, winv in rels:
            scan_and_fill(alpha, w, winv)
            if p[alpha] != alpha:
                dead = True
                break
        if not dead:
            row = table[alpha]
            for x in range(ncols):
                if row[x] == -1:
                    define(alpha, x)
        alpha += 1
        if len(table) > alloc_cap:
            if lookaheads >= 3:
                raise Inconclusive("allocation cap exceeded after lookahead")
            lookaheads += 1
            for beta in range(len(table)):
                if p[beta] != beta:
                    continue
                for w, winv in rels:
                    scan_and_fill(beta, w, winv, fill=False)
                    if p[beta] != beta:
                        break
            table, p, alpha = _compact(table, p, rep, ncols, alpha)
            alloc_cap = len(table) + alloc_cap

    # the live rows, their entries through rep and numbered 0..live-1 in row
    # order, standardized
    root = numpy.array([rep(k) for k in range(len(p))], numpy.int32)
    is_live = root == numpy.arange(len(p), dtype=numpy.int32)
    label = (numpy.cumsum(is_live, dtype=numpy.int32) - 1)[root]
    nxt = numpy.array([table[k] for k in numpy.flatnonzero(is_live).tolist()], numpy.int32)
    del table[:], p[:]  # copied; free them before the renumbering
    numpy.take(label, nxt, out=nxt, mode="clip")  # in place: "clip" is unbuffered
    return standardize(nxt)


def _compact(table, p, rep, ncols, alpha):
    old_live = [k for k in range(len(table)) if p[k] == k]
    remap = {old: new for new, old in enumerate(old_live)}
    new_table = []
    for old in old_live:
        row = table[old]
        new_table.append([-1 if d == -1 else remap[rep(d)] for d in row])
    new_alpha = sum(1 for k in old_live if k < alpha)
    return new_table, list(range(len(new_table))), new_alpha


# ---------------------------------------------------------------------------
# Steinberg presentations over finite rings


@dataclass
class SteinbergPresentation:
    system: object
    ring: object
    presentation: Presentation
    gen_index: dict  # (root_index, basis payload) -> generator number
    expansion: dict  # (root_index, payload) -> letters of x_alpha(payload)

    def word_letters(self, w):
        """Presentation letters of a word (after exact simplification)."""
        expansion = self.expansion
        out = []
        for idx, c in simplify(w).letters:
            out.extend(expansion[(idx, c.payload)])
        return tuple(out)


def additive_basis(ring):
    """A polycyclic generating sequence b_1..b_m of (R,+), greedy in payload order.

    Returns (basis, orders, normal_form).  The relative order o_i of b_i is
    the least o > 0 with o*b_i in <b_1..b_{i-1}>; normal_form maps every
    payload r to the unique (c_1..c_m) with r = sum c_i*b_i, 0 <= c_i < o_i.
    """
    zero = ring.zero_p
    normal_form = {zero: ()}
    basis, orders = [], []
    for b in ring.payloads():
        if b in normal_form:
            continue
        multiples = [zero, b]  # c*b for 0 <= c < o
        nxt = ring.p_add(b, b)
        while nxt not in normal_form:
            multiples.append(nxt)
            nxt = ring.p_add(nxt, b)
        basis.append(b)
        orders.append(len(multiples))
        normal_form = {
            ring.p_add(h, cb): coeffs + (c,)
            for h, coeffs in normal_form.items()
            for c, cb in enumerate(multiples)
        }
    return basis, orders, normal_form


def steinberg_presentation(datum, ring):
    """St(Phi, R) on the generators x_alpha(b), b in an additive basis of R.

    With b_1..b_m and relative orders o_i from `additive_basis`, the
    relators are, for every root alpha,

        x_alpha(b_i)^{o_i} = x_alpha(o_i b_i)
        [x_alpha(b_i), x_alpha(b_j)] = 1                       (i < j)

    and, for every unordered pair {alpha, beta} of distinct non-opposite
    roots and every (b_i, b_j),

        [x_alpha(b_i), x_beta(b_j)] = x_{alpha+beta}(N_{alpha,beta} b_i b_j)

    with a trivial right side when alpha+beta is not a root.  A letter
    x_alpha(r) stands for x_alpha(b_1)^{c_1}...x_alpha(b_m)^{c_m}, where
    (c_i) is the normal form of r; `expansion` holds these words.

    The group is the one of the full family (a generator per nonzero r;
    additivity and commutator relators for all r, s and all ordered root
    pairs).  Each relator above is an instance of the full family; the
    converse:
    - Collection brings every word in the b_i to normal form, so the
      per-root relators define a group of at most prod o_i = |R| elements.
      (R,+) satisfies them, so they present (R,+), and x_alpha(r)x_alpha(s)
      = x_alpha(r+s) follows.
    - The reversed pair is the inverse relator, as N_{beta,alpha} =
      -N_{alpha,beta}.
    - Bilinearity rests on [xy, z] = x[y,z]x^{-1}[x,z].  Take x, y in
      X_alpha and z in X_beta.  Then [y,z] lies in X_{alpha+beta}, which
      commutes with X_alpha: 2alpha+beta is never a root of a simply-laced
      system (its squared length is 6), so the pair {alpha, alpha+beta}
      contributes [x_alpha(b_i), x_{alpha+beta}(b_j)] = 1.  Hence
      [x_alpha(r + r'), x_beta(s)] = [x_alpha(r'), x_beta(s)]
      [x_alpha(r), x_beta(s)].  The second argument is symmetric, through
      [x, yz] = [x,y] y[x,z]y^{-1} with X_{alpha+beta} commuting with
      X_beta.  Induction on the normal forms gives every commutator relator
      of the full family from the basis ones.
    """
    if not ring.is_finite:
        raise UnsupportedRingError(f"presentations need a finite ring; {ring.spec} is infinite")
    basis, orders, normal_form = additive_basis(ring)
    m = len(basis)
    roots = datum.roots
    gen_index = {}
    expansion = {}
    relators = []
    for ri in range(len(roots)):
        first = 2 * ri * m  # letter of x_alpha(b_1), alpha = roots[ri]
        for i, b in enumerate(basis):
            gen_index[(ri, b)] = ri * m + i
        for r, coeffs in normal_form.items():
            letters = ()
            for i, c in enumerate(coeffs):
                letters += (first + 2 * i,) * c
            expansion[(ri, r)] = letters
        # (R,+) in the root subgroup
        for i, (b, o) in enumerate(zip(basis, orders)):
            power = ring.p_mul(ring.p_from_int(o), b)
            relators.append((first + 2 * i,) * o + inverse_letters(expansion[(ri, power)]))
        for i, j in itertools.combinations(range(m), 2):
            gi, gj = first + 2 * i, first + 2 * j
            relators.append((gi, gj, gi ^ 1, gj ^ 1))
    # one commutator relator per unordered non-opposite root pair and basis pair
    for ai, bi in itertools.combinations(range(len(roots)), 2):
        alpha, beta = roots[ai], roots[bi]
        if beta == -alpha:
            continue
        gamma = alpha + beta
        in_phi = gamma in datum
        sign = datum.sign(alpha, beta) if in_phi else 0
        gi = datum.index[gamma] if in_phi else None
        for i, r in enumerate(basis):
            for j, s in enumerate(basis):
                x, y = 2 * (ai * m + i), 2 * (bi * m + j)
                rel = (x, y, x ^ 1, y ^ 1)
                if in_phi:
                    prod = ring.p_mul(r, s)
                    if sign < 0:
                        prod = ring.p_neg(prod)
                    rel += inverse_letters(expansion[(gi, prod)])
                relators.append(rel)
    # short relators first: HLT then defines fewer cosets before the table
    # closes (31809 against 53210 on A3/f2), at the same speed
    relators.sort(key=len)
    pres = Presentation(ngens=len(roots) * m, relators=tuple(relators))
    return SteinbergPresentation(
        system=datum, ring=ring, presentation=pres, gen_index=gen_index, expansion=expansion
    )


# ---------------------------------------------------------------------------
# the U+ table, and the regular table of St(Phi, R) read off it


_MEMO = {}


def _memo_key(sp, max_cosets):
    return (sp.presentation.ngens, sp.presentation.relators, max_cosets)


def enumerate_steinberg(sp, max_cosets=10**6):
    """The regular table of St(Phi, R), built once per presentation."""
    key = _memo_key(sp, max_cosets)
    if key not in _MEMO:
        _MEMO[key] = regular_table(sp, max_cosets)
    return _MEMO[key]


def positive_generators(sp):
    """The generators x_alpha(b) with alpha > 0, in generator order."""
    roots = sp.system.roots
    positive = set(_positive_system(sp.system)[0])
    return sorted(g for (ri, _), g in sp.gen_index.items() if roots[ri] in positive)


def simple_root_generators(sp):
    """The generators x_alpha(b) with alpha or -alpha simple, in generator order.

    Their unipotents generate E(Phi, R), the group of all x_gamma(r).  In a
    simply-laced system every positive root gamma of height > 1 is beta +
    alpha_i with beta a root and alpha_i simple, and [x_beta(r),
    x_alpha_i(1)] = x_gamma(N r) with N = +-1; x_alpha_i(1) is a product of
    the x_alpha_i(b), so by induction on the height the group holds every
    x_gamma(r).  Negative roots are the same with -alpha_i.
    """
    roots = sp.system.roots
    simple = _positive_system(sp.system)[1]
    ends = set(simple) | {-a for a in simple}
    return sorted(g for (ri, _), g in sp.gen_index.items() if roots[ri] in ends)


@dataclass
class UPlus:
    """The U+ table of St(Phi, R) with U+_E, after checks 1 and 2."""

    cols: list  # the matrix of each table column (column_unipotents)
    steps: list  # right_multiplier of each column
    positive: list  # the St generator of each generator of P+
    ptbl: CosetTable  # the regular table of P+, which is U+ in St
    index: dict  # payload tuple of u in U+_E -> its element of ptbl
    utbl: CosetTable  # the right cosets of U+ in St

    @property
    def order(self):
        """|U+| = |U+_E|."""
        return self.ptbl.n

    def u_letters(self, j):
        """The P+ tree word of element j of U+_E, in St letters."""
        positive = self.positive
        return tuple(2 * positive[x >> 1] | (x & 1) for x in self.ptbl.rep_letters(j))


def uplus_data(sp, max_cosets=10**6):
    """Checks 1 and 2 of the module docstring, U+_E and the U+ table, built
    once per presentation and realization.

    The memo shares `enumerate_steinberg`'s dict and presentation key; the
    key also names the system and ring, since `index` holds matrices of one
    realization.  A root system without a matrix realization raises before
    anything is enumerated; each enumeration is capped at max_cosets.
    """
    key = ("uplus", sp.system.name, sp.ring.spec) + _memo_key(sp, max_cosets)
    if key in _MEMO:
        return _MEMO[key]
    ring, size = sp.ring, sp.system.matrix_size()
    pres = sp.presentation
    cols = column_unipotents(sp)
    steps = [right_multiplier(g) for g in cols]
    ident = identity_matrix(ring, size).data
    for rel in pres.relators:
        m = ident
        for x in rel:
            m = steps[x](m)
        if m != ident:
            raise PresentationError(f"phi does not kill the relator {rel}")

    # U+_E, indexed by the regular table of the positive sub-presentation P+
    positive = positive_generators(sp)
    new = {g: k for k, g in enumerate(positive)}
    prels = tuple(
        tuple(2 * new[x >> 1] | (x & 1) for x in rel)
        for rel in pres.relators
        if all(x >> 1 in new for x in rel)
    )
    ptbl = todd_coxeter(Presentation(ngens=len(positive), relators=prels), max_cosets=max_cosets)
    psteps = [steps[2 * g + e] for g in positive for e in (0, 1)]
    index = {m: i for i, m in enumerate(tree_images(ptbl, psteps, ident))}
    if len(index) != ptbl.n:
        raise PresentationError(f"U+ of the presentation has {ptbl.n} elements, U+ in E {len(index)}")

    utbl = todd_coxeter(pres, [(2 * g,) for g in positive], max_cosets=max_cosets)
    data = UPlus(cols, steps, positive, ptbl, index, utbl)
    _MEMO[key] = data
    return data


def regular_table(sp, max_cosets=10**6):
    """The standardized regular table of St(Phi, R), read off its U+ table.

    Each element g is the pair (c, u): its coset c = U+ g, and u = phi(g
    w_c^{-1}) in U+_E, where w_c is the tree word of c.  Right multiplication
    by column x sends (c, u) to (c x, u s), with the Schreier element
    s = phi(w_c) X_x phi(w_{cx})^{-1} in U+_E.  The pairs are a bijection
    with St exactly when U+ <= St maps injectively into E; see the module
    docstring for the four checks that make the table exact.
    """
    up = uplus_data(sp, max_cosets)
    ring, size = sp.ring, sp.system.matrix_size()
    cols, steps, ptbl, index, utbl = up.cols, up.steps, up.ptbl, up.index, up.utbl
    ncols, nu = utbl.ncols, ptbl.n
    total = utbl.n * nu
    if total > max_cosets:
        raise Inconclusive(f"|St| = {utbl.n} x {nu} = {total} exceeds max_cosets={max_cosets}")

    # phi(w_c) and its inverse, walked down the tree of the U+ table: the
    # transpose of phi(w_c)^{-1} = X^{-1} phi(w_parent)^{-1} is a right product
    ident = identity_matrix(ring, size).data
    mats = tree_images(utbl, steps, ident)
    tsteps = [right_multiplier(cols[x ^ 1].transpose()) for x in range(ncols)]
    invs = [RMatrix(ring, size, m).transpose() for m in tree_images(utbl, tsteps, ident)]

    # cell (c, x): its Schreier element s, as an element of U+_E
    cells = []
    for i, d in enumerate(utbl.table):
        c, x = divmod(i, ncols)
        s = RMatrix(ring, size, steps[x](mats[c])) * invs[d]
        j = index.get(s.data)
        if j is None:
            raise PresentationError(f"Schreier element of ({c}, {x}) is not in U+")
        cells.append(j)

    # the column u -> u s of each Schreier element met, traced on P+ all at once
    ptab = numpy.frombuffer(ptbl.table, numpy.intc).reshape(nu, ptbl.ncols)
    met, slot = numpy.unique(numpy.array(cells, numpy.int32), return_inverse=True)
    columns = numpy.empty((len(met), nu), numpy.int32)
    for k, j in enumerate(met.tolist()):
        col = numpy.arange(nu)
        for x in ptbl.rep_letters(j):
            col = ptab[col, x]
        columns[k] = col

    # element (c, u) is state c nu + u; column x sends it to (c x) nu + u s
    dest = numpy.frombuffer(utbl.table, numpy.intc).reshape(utbl.n, ncols) * numpy.int32(nu)
    nxt = numpy.empty((utbl.n, nu, ncols), numpy.int32)
    numpy.add(columns[slot.reshape(utbl.n, ncols)].transpose(0, 2, 1), dest[:, None, :], out=nxt)
    return standardize(nxt.reshape(total, ncols))


# ---------------------------------------------------------------------------
# exact-tier word testing


class WordTester:
    """Exact equality of words over one (system, finite ring) pair: equal
    cosets in the regular table of St.

    The exact table is built at the first exact comparison, so its time, or
    its Inconclusive past max_cosets, falls on the check that asked for it;
    a failed build is raised again at each later exact comparison."""

    def __init__(self, datum, ring, max_cosets=10**6):
        self.datum = datum
        self.ring = ring
        self.max_cosets = max_cosets
        self._built = None  # (presentation, table), or the Inconclusive
        # (word, coset) of the last left word traced; holding the word keeps
        # its id from being reused while the coset is kept
        self._left = None

    def table(self):
        """The presentation and its table, built at the first call."""
        if self._built is None:
            try:
                sp = steinberg_presentation(self.datum, self.ring)
                self._built = (sp, enumerate_steinberg(sp, max_cosets=self.max_cosets))
            except Inconclusive as exc:
                self._built = exc
        if isinstance(self._built, Inconclusive):
            raise self._built
        return self._built

    def exact_equal(self, w1, w2):
        """Whether w1 and w2 lie in one coset.  A check that compares one
        word with several passes it as w1 each time, and it is traced once."""
        sp, table = self.table()
        if self._left is None or self._left[0] is not w1:
            self._left = (w1, table.coset_of(sp.word_letters(w1)))
        return self._left[1] == table.coset_of(sp.word_letters(w2))

    def exact_trivial(self, w):
        sp, table = self.table()
        return table.coset_of(sp.word_letters(w)) == 0


# ---------------------------------------------------------------------------
# K2 extraction


@dataclass
class KernelReport:
    system: str
    ring: str
    st_order: int
    image_order: int
    kernel_order: int
    kernel_cosets: list  # the U+ cosets that meet K2, one element each
    kernel_words: list  # St letters of the element k_c of K2 in each
    central: bool
    witnesses: list
    bfs_image_order: int  # |E| by the image_route
    image_route: str  # "bfs" or "sc-formula"
    uplus_order: int  # |U+_E|


def column_unipotents(sp):
    """The matrix of each table column: column 2g is generator g, the root
    unipotent x_alpha(b) of its key (alpha, b) in sp.gen_index, and column
    2g+1 its inverse x_alpha(-b)."""
    datum, ring = sp.system, sp.ring
    cols = [None] * (2 * sp.presentation.ngens)
    for (ri, pay), g in sp.gen_index.items():
        xi = Elem(ring, pay)
        cols[2 * g] = unipotent(datum, datum.roots[ri], xi)
        cols[2 * g + 1] = unipotent(datum, datum.roots[ri], -xi)
    return cols


def tree_images(tbl, steps, start):
    """The image of every coset of the table, by coset: start at coset 0, and
    steps[x] of the parent's image at each spanning-tree edge c -> c*x.  On
    `UPlus.steps` from the identity, phi of each coset's tree word."""
    images = [start]
    for c, x in tbl.tree()[1:]:
        images.append(steps[x](images[c]))
    return images


# The image BFS holds one payload tuple of n^2 entries per element of E, so
# it is capped in entries, not in elements: the 943,488 3x3 matrices of
# SL(3, Z/6), 8.5 x 10^6 entries, peak at 170 MB.  The 25-entry SL(5,2) of
# A4 over F2 (2.5 x 10^8 entries) takes the formula instead.
BFS_CAP = 10**7


def k2_compute(datum, ring, max_cosets=10**6):
    """K2(Phi, R) = ker(St -> E) and its centrality, from the U+ table alone.

    Checks 1 and 2 of the module docstring (`uplus_data`) prove that U+
    meets K2 trivially.  A U+ coset U+ g maps into U+_E exactly when g lies
    in U+ K2, and U+ K2 is |K2| cosets of U+; so |K2| is the number of U+
    cosets c with phi(w_c) in U+_E, and |St| = [St : U+] |U+_E|.  In such
    a coset, k_c = u_c^{-1} w_c lies in K2, where u_c is the P+ tree word of
    phi(w_c).  It is central exactly when x k x^{-1} k^{-1} traces coset 0
    to coset 0 for every column x: the commutator lies in K2, since phi of it
    is 1, and the only element of K2 in U+ is 1.

    The image order is cross-checked apart from the table: by
    `matrix_group_order` on the unipotents of the +-simple roots when the
    image, counted in matrix entries, fits under BFS_CAP (image_route
    "bfs"), else by the order of the simply connected group over the local
    factors of R (`sc_order`, image_route "sc-formula").  max_cosets caps
    the U+ index, not |St|.

    In type D, phi is the vector realization in SO(2n, R), and the kernel
    it cuts out holds, beside K2, the image of ker(Spin -> SO) = mu_2(R) =
    {x : x^2 = 1}: over F3 the count is 2 where K2(D3, F3) = K2(A3, F3) = 1.
    So type D is refused, with UnsupportedRingError, unless mu_2(R) = {1}:
    R is then reduced of characteristic 2, and `sc_order` holds there.
    The refusal, and that of a root system without a matrix realization,
    comes before any presentation is built.
    """
    size = datum.matrix_size()  # NoMatrixRealization for the E family
    sp = steinberg_presentation(datum, ring)
    if datum.family == "D":
        mu2 = sum(1 for x in ring.payloads() if ring.p_mul(x, x) == ring.one_p)
        if mu2 > 1:
            raise UnsupportedRingError(
                f"the kernel of St({datum.name}, {ring.spec}) -> SO({size}) "
                f"holds mu_2(R), of order {mu2}, beside K2"
            )
    up = uplus_data(sp, max_cosets)
    utbl, nu = up.utbl, up.order
    kernel, words = [], []
    ident = identity_matrix(ring, size).data
    for c, m in enumerate(tree_images(utbl, up.steps, ident)):
        j = up.index.get(m)
        if j is not None:
            kernel.append(c)
            words.append(inverse_letters(up.u_letters(j)) + utbl.rep_letters(c))
    witnesses = [
        {"kernel_coset": c, "column": x}
        for c, k in zip(kernel, words)
        for x in noncentral_columns(utbl, k)
    ]
    st_order = utbl.n * nu
    image_order = utbl.n // len(kernel) * nu
    entries = size**2
    if st_order // len(kernel) * entries <= BFS_CAP:
        gens = [up.cols[2 * g] for g in simple_root_generators(sp)]
        bfs, route = matrix_group_order(gens, cap=BFS_CAP // entries), "bfs"
    else:
        bfs, route = sc_order(datum, ring), "sc-formula"
    return KernelReport(
        system=datum.name,
        ring=ring.spec,
        st_order=st_order,
        image_order=image_order,
        kernel_order=len(kernel),
        kernel_cosets=kernel,
        kernel_words=words,
        central=not witnesses,
        witnesses=witnesses,
        bfs_image_order=bfs,
        image_route=route,
        uplus_order=nu,
    )


def noncentral_columns(utbl, k):
    """The columns x for which x k x^{-1} k^{-1} does not trace coset 0 to
    coset 0 of the U+ table: for k in K2, the generators k fails to commute
    with."""
    kinv = inverse_letters(k)
    return [x for x in range(utbl.ncols) if utbl.coset_of((x,) + k + (x ^ 1,) + kinv)]


def local_factors(ring):
    """(q_i, |m_i|) for each local factor R_i = e_i R of a finite ring: the
    orders of its residue field and of its maximal ideal m_i, the
    nilpotents of R_i.  The e_i are the primitive idempotents: the e != 0
    with e^2 = e and ef in {0, e} for every idempotent f."""
    pays, mul, zero = list(ring.payloads()), ring.p_mul, ring.zero_p
    idempotents = [e for e in pays if mul(e, e) == e]
    factors = []
    for e in idempotents:
        if e != zero and all(mul(e, f) in (zero, e) for f in idempotents):
            part = [x for x in pays if mul(e, x) == x]
            nil = sum((ring.elem(x) ** len(pays)).is_zero() for x in part)
            factors.append((len(part) // nil, nil))
    return factors


def sc_order(datum, ring):
    """|E(Phi, R)| = prod_i |m_i|^(l+|Phi|) q_i^N prod_k (q_i^(d_k) - 1) over
    the local factors of R (`local_factors`).

    Over a field, E(Phi, F_q) = G_sc(Phi, F_q) has order q^N prod_k (q^(d_k)
    - 1), with N positive roots and the degrees d_k of Phi (Steinberg,
    Lectures on Chevalley Groups, 1967).  A local ring has E = G_sc
    (Matsumoto, Ann. Sci. ENS 2, 1969), and G_sc(Phi, R_i) -> G_sc(Phi,
    F_q_i) is onto with kernel of order |m_i|^(l+|Phi|), the dimension of G.

    In type D this counts the image of Spin, and phi lands in SO(2n, R).  The
    two agree since `k2_compute` refuses type D unless mu_2(R) = {1}, so R
    is reduced of characteristic 2, where Spin -> SO is injective.
    """
    datum.matrix_size()  # NoMatrixRealization for the E family
    rank, npos = datum.rank, len(datum.roots) // 2
    # 2, ..., l+1 for A_l; 2, 4, ..., 2l-2, l for D_l
    degrees = range(2, rank + 2) if datum.family == "A" else [*range(2, 2 * rank - 1, 2), rank]
    return math.prod(
        nil ** (rank + 2 * npos) * q**npos * math.prod(q**d - 1 for d in degrees)
        for q, nil in local_factors(ring)
    )


# ---------------------------------------------------------------------------
# relative generation by the z-family


@dataclass
class RelativeIndexReport:
    system: str
    ring: str
    index: int
    quotient_order: int


def relative_subgroup_index(datum, ring, split, max_cosets=10**6):
    """Index of <z_alpha(s, r)> in St(Phi, R) against |St(Phi, R/I)|, which
    is [St : U+] |U+_E| over R/I (`uplus_data`)."""
    datum.matrix_size()  # NoMatrixRealization for the E family
    sp = steinberg_presentation(datum, ring)
    upq = uplus_data(steinberg_presentation(datum, split.quotient), max_cosets)
    ideal_payloads = sorted(split.ideal.payload_set())
    subgroup = []
    for ri in range(len(datum.roots)):
        for s in ideal_payloads:
            if s == ring.zero_p:
                continue
            for r in ring.payloads():
                zw = W.z_generator(datum, ring, ri, Elem(ring, s), Elem(ring, r))
                subgroup.append(sp.word_letters(zw))
    tbl = todd_coxeter(sp.presentation, subgroup, max_cosets=max_cosets)
    return RelativeIndexReport(
        system=datum.name, ring=ring.spec, index=tbl.n, quotient_order=upq.utbl.n * upq.order
    )


# ---------------------------------------------------------------------------
# generator domains with witnesses


def orbit_with_witnesses(ring, n, node_cap=10**6):
    """Every vector in the elementary orbit of e_1 in R^n, with a witness word.

    The breadth-first search tries the moves (i, j, r), add r times slot j to
    slot i, in that order and keeps the first path to each vector: the vectors
    come in order of discovery, each with the word of the x_ij(r) on its path,
    last move first.  Past node_cap vectors it raises Inconclusive.
    """
    from .vdk import OrbitVector, linear_system

    zero = ring.zero_p
    start = tuple(ring.one_p if i == 0 else zero for i in range(n))
    nonzero = [Elem(ring, r) for r in ring.payloads() if r != zero]
    moves = [(i, j, r) for i in range(n) for j in range(n) if i != j for r in nonzero]
    padd, pmul = ring.p_add, ring.p_mul
    letters = {start: ()}  # each vector's moves, last first
    queue = [start]
    for vec in queue:  # the queue grows while it is read
        path = letters[vec]
        for move in moves:
            i, j, r = move
            if vec[j] == zero:
                continue
            newv = vec[:i] + (padd(vec[i], pmul(r.payload, vec[j])),) + vec[i + 1:]
            if newv in letters:
                continue
            letters[newv] = (move,) + path
            if len(letters) > node_cap:
                raise Inconclusive("orbit search cap exceeded")
            queue.append(newv)
    system = linear_system(n)
    return {
        vec: OrbitVector(vec=RVector(ring, vec), witness=W.from_ij_letters(system, ring, path))
        for vec, path in letters.items()
    }


# ---------------------------------------------------------------------------
# generator domains of the two relative presentations


def star_presentations(n, ring, ideal):
    """The F symbols (u, v) over (n, R, I), sorted by u: u in the orbit of e_1
    with its witness, v in I^n with u.v = 0.  They are the generator domain
    of the F presentation, and mirrored, (v, u), of the S one."""
    from .vdk import FSymbol

    orbit = orbit_with_witnesses(ring, n)
    ideal_payloads = sorted(ideal.payload_set())
    ivecs = [
        RVector(ring, tup)
        for tup in itertools.product(ideal_payloads, repeat=n)
    ]
    fs = []
    for key in sorted(orbit):
        ov = orbit[key]
        for v in ivecs:
            if ring.p_dot(ov.vec.data, v.data) == ring.zero_p:
                fs.append(FSymbol(u=ov, v=v))
    return fs
