"""Matroids, their lattices of flats, and the graded Moebius algebra.

A matroid is carried by its rank oracle; flats are enumerated by closure
BFS on int masks and assembled into a geometric lattice (atomicity and
semimodularity are checked).  Contractions are materialized as genuine
matroids on the ground set E - F relabelled order-isomorphically; the
sheaf machinery (klsc.matroid_ih) builds one only when it holds no
stored sheaf it may read for that interval.  A contraction M/F inherits
its flats and their ranks from M (they are the flats G >= F, minus F), so
only a matroid that is not a contraction runs the closure BFS; every
lattice is still built and checked geometric.  A matroid given by its bases answers rank and
closure queries on int bitmasks, a closure in one pass over the bases.

The graded Moebius algebra has basis y_F over the flats with

    y_F y_G = h^{rk F + rk G - rk(F v G)} y_{F v G},

where h is the degree-one equivariant parameter; y_F sits in half-degree
rk F.
"""

from __future__ import annotations

from klsc.errors import InvalidInputError, NotGeometricError
from klsc.field import GF, QQ, read_int
from klsc.linalg import RowSpace
from klsc.poset import RankedPoset


_bits = RankedPoset._bits


def _mask(elems):
    m = 0
    for e in elems:
        m |= 1 << e
    return m


class Matroid:
    """A loopless matroid given by a rank oracle on frozensets."""

    def __init__(self, n, rank_fn, tag=None, close=None):
        self.n = n
        self._rank_fn = rank_fn
        # optional closure on int masks, mask -> (closure mask, rank)
        self._close = close
        self._rank_cache = {}
        self.tag = tag
        self.rank = self.rank_of(frozenset(range(n)))
        self._flats = None
        self._lattice = None
        if self.rank_of(frozenset()) != 0:
            raise InvalidInputError("rank of the empty set must be 0")
        if any(self.rank_of(frozenset([e])) == 0 for e in range(n)):
            raise InvalidInputError("matroid has a loop")

    # -- construction ------------------------------------------------------------

    @staticmethod
    def from_bases(n, bases) -> "Matroid":
        n = read_int(n)
        bs = [frozenset(read_int(e) for e in b) for b in bases]
        if not bs:
            raise InvalidInputError("empty list of bases")
        size = len(bs[0])
        if any(len(b) != size for b in bs):
            raise InvalidInputError("bases of unequal size")
        if any(not b <= frozenset(range(n)) for b in bs):
            raise InvalidInputError("basis element out of range")
        masks = [_mask(b) for b in bs]
        bset = set(masks)
        union = 0
        for b in masks:
            union |= b
        # containing[x]: bit i set when the i-th basis contains x
        containing = [0] * n
        for i, b in enumerate(masks):
            for x in _bits(b):
                containing[x] |= 1 << i
        everyone = (1 << len(masks)) - 1
        for b1 in masks:
            # b2 passes at x in b1 when x is in b2 or b2 meets a y with
            # b1 - x + y a basis; fails[x] holds the b2 that pass neither way
            others = list(_bits(union & ~b1))
            fails = []
            for x in _bits(b1):
                rest = b1 ^ (1 << x)
                passing = containing[x]
                for y in others:
                    if (rest | 1 << y) in bset:
                        passing |= containing[y]
                if passing != everyone:
                    fails.append((x, everyone & ~passing))
            if fails:
                # the first b2 in input order, then its first x in b1
                first = min(f & -f for _, f in fails)
                x = next(x for x, f in fails if f & first)
                b2 = masks[first.bit_length() - 1]
                raise InvalidInputError(
                    f"bases violate the exchange axiom at {sorted(_bits(b1))}, "
                    f"{sorted(_bits(b2))}, element {x}"
                )

        def rank_fn(s):
            m = _mask(s)
            return max((m & b).bit_count() for b in masks)

        ground = (1 << n) - 1

        def close(m):
            # rk(S + e) > rk S exactly when e lies in a basis b with
            # |b & S| = rk S, so cl(S) adds every element outside them all
            r = union = 0
            for b in masks:
                k = (m & b).bit_count()
                if k > r:
                    r, union = k, b
                elif k == r:
                    union |= b
            return m | (ground & ~union), r

        return Matroid(n, rank_fn, close=close)

    @staticmethod
    def uniform(k, n) -> "Matroid":
        k, n = read_int(k), read_int(n)
        if not 1 <= k <= n:
            raise InvalidInputError("uniform matroid needs 1 <= k <= n")
        return Matroid(n, lambda s: min(len(s), k), tag=("uniform", k, n))

    @staticmethod
    def boolean(n) -> "Matroid":
        return Matroid(n, len, tag=("boolean", n))

    @staticmethod
    def from_matrix(columns, field=QQ) -> "Matroid":
        """Matroid of a point configuration: columns of a matrix over an
        exact field; rank = matrix rank of the chosen columns."""
        cols = [[field.parse(c) for c in col] for col in columns]
        if len({len(col) for col in cols}) > 1:
            raise InvalidInputError("matrix columns of unequal length")
        n = len(cols)

        def rank_fn(s):
            space = RowSpace(field, len(cols[0]) if cols else 0)
            for i in sorted(s):
                space.add(list(cols[i]))
            return space.dim

        return Matroid(n, rank_fn)

    @staticmethod
    def from_flats(n, flats) -> "Matroid":
        """From an explicit list of {"set": [...], "rank": r} records."""
        n = read_int(n)
        by_set = {}
        for rec in flats:
            by_set[frozenset(read_int(e) for e in rec["set"])] = read_int(rec["rank"])
        ground = frozenset(range(n))
        if ground not in by_set:
            raise InvalidInputError("the ground set must be a flat")
        if frozenset() not in by_set or by_set[frozenset()] != 0:
            raise InvalidInputError("the empty set must be a flat of rank 0")
        sets = sorted(by_set, key=lambda f: (len(f), sorted(f)))
        for a in sets:
            for b in sets:
                if a & b not in by_set:
                    raise InvalidInputError("flats are not closed under intersection")

        def closure(s):
            best = ground
            for f in sets:
                if s <= f and len(f) < len(best):
                    best = f
            return best

        def rank_fn(s):
            return by_set[closure(frozenset(s))]

        m = Matroid(n, rank_fn)
        if {frozenset(f) for f in m.flats()} != set(by_set):
            raise InvalidInputError("flat list is not the lattice of a matroid")
        return m

    @staticmethod
    def graphic(n_vertices, edges) -> "Matroid":
        """Cycle matroid of a graph; ground set = edge list indices."""
        edges = [tuple(e) for e in edges]

        def rank_fn(s):
            parent = list(range(n_vertices))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            r = 0
            for i in sorted(s):
                a, b = edges[i]
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    r += 1
            return r

        return Matroid(len(edges), rank_fn)

    @staticmethod
    def fano() -> "Matroid":
        """PG(2, 2): the subspace lattice of GF(2)^3, as the matroid of all
        seven nonzero vectors."""
        cols = [
            [b % 2, (b >> 1) % 2, (b >> 2) % 2]
            for b in range(1, 8)
        ]
        vecs = [[GF(2).from_int(c) for c in col] for col in cols]

        def rank_fn(s):
            space = RowSpace(GF(2), 3)
            for i in sorted(s):
                space.add(list(vecs[i]))
            return space.dim

        return Matroid(7, rank_fn, tag=("fano",))

    # -- rank, closure, flats -------------------------------------------------------

    def rank_of(self, s):
        s = frozenset(s)
        if s not in self._rank_cache:
            self._rank_cache[s] = self._rank_fn(s)
        return self._rank_cache[s]

    def _close_mask(self, m):
        """(closure of the set with int mask m, as a mask; its rank)."""
        if self._close is not None:
            return self._close(m)
        s = frozenset(_bits(m))
        r = self.rank_of(s)
        for e in _bits(((1 << self.n) - 1) & ~m):
            if self.rank_of(s | {e}) == r:
                m |= 1 << e
        return m, self.rank_of(frozenset(_bits(m)))

    def closure(self, s):
        return frozenset(_bits(self._close_mask(_mask(s))[0]))

    def flats(self):
        """All flats, sorted by (rank, sorted elements): closure BFS on int
        masks, which also records every flat's rank."""
        if self._flats is None:
            bottom, r = self._close_mask(0)
            if bottom:
                raise InvalidInputError("matroid has a loop")
            ranks = {bottom: r}
            frontier = [bottom]
            while frontier:
                nxt = []
                for f in frontier:
                    for e in _bits(((1 << self.n) - 1) & ~f):
                        g, r = self._close_mask(f | 1 << e)
                        if g not in ranks:
                            ranks[g] = r
                            nxt.append(g)
                frontier = nxt
            flats = []
            for m, r in ranks.items():
                f = frozenset(_bits(m))
                self._rank_cache[f] = r
                flats.append(f)
            self._flats = sorted(flats, key=lambda f: (self._rank_cache[f], sorted(f)))
        return self._flats

    def lattice(self) -> RankedPoset:
        """The lattice of flats as a ranked poset (validated geometric)."""
        if self._lattice is None:
            flats = self.flats()
            ranks = [self.rank_of(f) for f in flats]
            covers = []
            # flats are sorted by rank, so each one's covers follow it
            for i, f in enumerate(flats):
                for j in range(i + 1, len(flats)):
                    if ranks[j] > ranks[i] + 1:
                        break
                    if ranks[j] == ranks[i] + 1 and f < flats[j]:
                        covers.append((i, j))
            names = ["{" + ",".join(map(str, sorted(f))) + "}" for f in flats]
            poset = RankedPoset(ranks, covers, names=names)
            if not poset.is_geometric_lattice():
                raise NotGeometricError("lattice of flats is not geometric")
            self._lattice = poset
        return self._lattice

    def flat_index(self, f):
        flats = self.flats()
        return flats.index(frozenset(f))

    # -- contraction --------------------------------------------------------------------

    def contract(self, f) -> tuple["Matroid", dict]:
        """Contract by the flat f; the new ground set is E - f relabelled
        order-isomorphically to 0..m-1.  Returns (matroid, old -> new map).
        The contraction inherits its flats, the flats g >= f minus f, with
        ranks rk g - rk f, instead of enumerating them again through the
        chained rank oracle."""
        f = frozenset(f)
        if self.closure(f) != f:
            raise InvalidInputError("can only contract by a flat")
        rest = sorted(set(range(self.n)) - f)
        relabel = {e: i for i, e in enumerate(rest)}
        base_rank = self.rank_of(f)
        parent = self

        def rank_fn(s):
            lifted = frozenset(rest[i] for i in s)
            return parent.rank_of(lifted | f) - base_rank

        child = Matroid(len(rest), rank_fn)
        inherited = []
        for g in self.flats():
            if f <= g:
                h = frozenset(relabel[e] for e in g - f)
                child._rank_cache[h] = self.rank_of(g) - base_rank
                inherited.append(h)
        child._flats = sorted(inherited, key=lambda h: (child._rank_cache[h], sorted(h)))
        return child, relabel

    # -- structure tests ------------------------------------------------------------------

    def is_modular(self):
        """Every interval of the lattice of flats has as many atoms as
        coatoms."""
        L = self.lattice()
        for x in L.elements():
            for y in L.elements():
                if not L.lt(x, y):
                    continue
                atoms = sum(1 for z in L.covers_up[x] if L.leq(z, y))
                coatoms = sum(1 for z in L.covers_down[y] if L.leq(x, z))
                if atoms != coatoms:
                    return False
        return True

    def __repr__(self):
        return f"Matroid(n={self.n}, rank={self.rank}, tag={self.tag})"


def p_trivial_criterion(matroid: Matroid, p: int) -> bool:
    """The combinatorial test for mod-p triviality of the sheaf: the
    lattice is modular and no rank-2 interval has exactly 1 mod p middle
    elements."""
    GF(p)
    if not matroid.is_modular():
        return False
    L = matroid.lattice()
    for x in L.elements():
        for y in L.elements():
            if L.leq(x, y) and L.rank[y] - L.rank[x] == 2:
                middles = sum(
                    1
                    for z in L.interval(x, y)
                    if z != x and z != y
                )
                if middles % p == 1 % p:
                    return False
    return True


class MobiusAlgebra:
    """The graded Moebius algebra of the lattice of flats."""

    def __init__(self, matroid: Matroid):
        self.matroid = matroid
        self.lattice = matroid.lattice()
        self.flats = matroid.flats()

    def product(self, i, j):
        """y_i y_j = h^power y_join; returns (power, join index)."""
        L = self.lattice
        k = L.join(i, j)
        power = L.rank[i] + L.rank[j] - L.rank[k]
        return power, k
