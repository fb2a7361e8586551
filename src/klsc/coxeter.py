"""Crystallographic Coxeter groups, Bruhat order, and Bruhat graphs.

Scope is deliberately restricted to integer generalized Cartan matrices
whose Weyl group is finite, so all root arithmetic stays in integers.
Elements are represented by their matrices on the root lattice (in the
simple-root basis); the whole group is enumerated once by breadth-first
search, after which lengths, descents, reflections, and the Bruhat order
are table lookups.

Roots and edge labels are integer vectors in the simple-root basis, so
e.g. in type A3 the label e_1 - e_2 is stored as (1, 0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from klsc.errors import InvalidInputError
from klsc.field import read_int
from klsc.poset import RankedPoset

GROUP_SIZE_CAP = 10_000
INTERVAL_CAP = 2_000
_LENGTH_CAP = 100  # a finite crystallographic group of rank <= 8 never gets this long


_NAMED_OFFDIAG = {
    # type letter -> function(rank) -> {(i, j): a_ij for i != j}
}


def _cartan_named(letter, n):
    """Standard Cartan matrix for the named finite types."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain_links(pairs):
        for i, j, vij, vji in pairs:
            a[i][j] = vij
            a[j][i] = vji

    simple_chain = [(i, i + 1, -1, -1) for i in range(n - 1)]
    if letter == "A":
        chain_links(simple_chain)
    elif letter == "B":
        if n < 2:
            raise InvalidInputError("type B needs rank >= 2")
        chain_links(simple_chain[:-1])
        chain_links([(n - 2, n - 1, -1, -2)])
    elif letter == "C":
        if n < 2:
            raise InvalidInputError("type C needs rank >= 2")
        chain_links(simple_chain[:-1])
        chain_links([(n - 2, n - 1, -2, -1)])
    elif letter == "D":
        if n < 3:
            raise InvalidInputError("type D needs rank >= 3")
        chain_links(simple_chain[:-1])
        chain_links([(n - 3, n - 1, -1, -1)])
    elif letter == "E":
        if n not in (6, 7, 8):
            raise InvalidInputError("type E needs rank 6, 7 or 8")
        # node 0 attached to node 2 of the chain 1-2-3-...-(n-1)
        chain_links([(i, i + 1, -1, -1) for i in range(1, n - 1)])
        chain_links([(0, 3, -1, -1)])
    elif letter == "F":
        if n != 4:
            raise InvalidInputError("type F needs rank 4")
        chain_links([(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)])
    elif letter == "G":
        if n != 2:
            raise InvalidInputError("type G needs rank 2")
        chain_links([(0, 1, -1, -3)])
    else:
        raise InvalidInputError(
            f"unknown or non-crystallographic type {letter!r}; "
            "only integer Cartan data are supported"
        )
    return a


@dataclass(frozen=True)
class CartanDatum:
    """Integer generalized Cartan matrix; entry a[i][j] controls
    s_i(alpha_j) = alpha_j - a[i][j] alpha_i."""

    matrix: tuple
    label: str = ""

    @staticmethod
    def from_type(name: str) -> "CartanDatum":
        name = name.strip().upper()
        if len(name) < 2 or not name[1:].isdigit():
            raise InvalidInputError(f"cannot parse Cartan type {name!r}")
        letter, n = name[0], int(name[1:])
        return CartanDatum(
            tuple(tuple(r) for r in _cartan_named(letter, n)), label=name
        )

    @staticmethod
    def from_matrix(rows) -> "CartanDatum":
        try:
            m = [list(map(read_int, r)) for r in rows]
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"Cartan matrix must be rows of integers: {exc}") from exc
        n = len(m)
        for i in range(n):
            if len(m[i]) != n:
                raise InvalidInputError("Cartan matrix must be square")
            if m[i][i] != 2:
                raise InvalidInputError("Cartan matrix diagonal must be 2")
            for j in range(n):
                if i != j:
                    if m[i][j] > 0:
                        raise InvalidInputError("off-diagonal entries must be <= 0")
                    if (m[i][j] == 0) != (m[j][i] == 0):
                        raise InvalidInputError("zero pattern must be symmetric")
        return CartanDatum(tuple(tuple(r) for r in m), label="custom")

    @property
    def rank(self):
        return len(self.matrix)


def _generator_row(i, cartan_row):
    """Row i of a simple reflection's matrix, (delta_ij - cartan_row[j])_j,
    as its nonzero (j, entry) pairs; every other row is the identity's."""
    row = [(1 if i == j else 0) - a for j, a in enumerate(cartan_row)]
    return [(j, c) for j, c in enumerate(row) if c]


def _left_mul(row, i, m):
    """g * m for a generator g given by its row i (_generator_row): only
    row i of m changes, to the combination of m's rows that row names."""
    new = [0] * len(m)
    for j, c in row:
        for col, x in enumerate(m[j]):
            new[col] += c * x
    return m[:i] + (tuple(new),) + m[i + 1:]


class CoxeterGroup:
    """A finite crystallographic Coxeter group, fully enumerated.

    Elements are integers 0..|W|-1 in BFS (length-increasing) order;
    element 0 is the identity.  The BFS records left[s][x], the element
    s*x, for every generator s; products and inverses are then walks along
    reduced words through this table, and the matrices are read only for
    roots and coroots.
    """

    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        n = cartan.rank
        self.rank = n
        a = cartan.matrix
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        # s_i is the identity but for row i: (delta_ij - a_ij)_j on the root
        # lattice and (delta_ij - a_ji)_j on the coroot lattice
        gens = [_generator_row(i, a[i]) for i in range(n)]
        gens_co = [_generator_row(i, [a[j][i] for j in range(n)]) for i in range(n)]

        index = {eye: 0}
        mats = [eye]
        mats_co = [eye]
        lengths = [0]
        words = [()]
        # left multiplication by each generator; the BFS visits the elements
        # in index order, so left[s][x] is appended when x is visited
        left = [[] for _ in range(n)]
        frontier = [0]
        while frontier:
            new_frontier = []
            for x in frontier:
                for s in range(n):
                    m = _left_mul(gens[s], s, mats[x])
                    left[s].append(index.get(m, len(mats)))
                    if m not in index:
                        index[m] = len(mats)
                        mats.append(m)
                        mats_co.append(_left_mul(gens_co[s], s, mats_co[x]))
                        lengths.append(lengths[x] + 1)
                        words.append((s,) + words[x])
                        new_frontier.append(index[m])
                        if len(mats) > GROUP_SIZE_CAP:
                            raise InvalidInputError(
                                f"group exceeds the cap of {GROUP_SIZE_CAP} elements"
                            )
            if lengths[-1] > _LENGTH_CAP:
                raise InvalidInputError("Cartan datum does not generate a finite group")
            frontier = new_frontier
        self.matrices = mats
        self.matrices_co = mats_co
        self.length = lengths
        self.words = words
        self.size = len(mats)
        self.identity = 0
        self.left = left

        self._reflections = None
        self._bruhat_up = None

    # -- element plumbing --------------------------------------------------------

    def from_word(self, word):
        """Element of a (not necessarily reduced) word of 0-based generators."""
        x = self.identity
        for s in reversed(list(word)):
            if not 0 <= s < self.rank:
                raise InvalidInputError(f"generator index {s} out of range")
            x = self.left[s][x]
        return x

    def multiply(self, x, y):
        """The product xy, read from the tables: x's reduced word is applied
        to y one generator at a time through ``left``, with no matrices."""
        left = self.left
        for s in reversed(self.words[x]):
            y = left[s][y]
        return y

    def inverse(self, x):
        return self.from_word(tuple(reversed(self.words[x])))

    def has_left_descent(self, s, x):
        return self.length[self.left[s][x]] < self.length[x]

    def left_descents(self, x):
        return [s for s in range(self.rank) if self.has_left_descent(s, x)]

    # -- reflections and roots ------------------------------------------------------

    def reflections(self):
        """List of (element, positive root coords, positive coroot coords)."""
        if self._reflections is None:
            seen = {}
            for w in range(self.size):
                w_inv = self.inverse(w)
                for i in range(self.rank):
                    # t = w s_i w^-1
                    t = self.multiply(w, self.left[i][w_inv])
                    if t in seen:
                        continue
                    root = tuple(self.matrices[w][r][i] for r in range(self.rank))
                    coroot = tuple(self.matrices_co[w][r][i] for r in range(self.rank))
                    if any(c < 0 for c in root):
                        root = tuple(-c for c in root)
                        coroot = tuple(-c for c in coroot)
                    if any(c < 0 for c in root):
                        raise InvalidInputError("root with mixed signs; bad Cartan datum")
                    seen[t] = (root, coroot)
            self._reflections = sorted(
                (t, rc[0], rc[1]) for t, rc in seen.items()
            )
        return self._reflections

    # -- Bruhat order -----------------------------------------------------------------

    def bruhat_up(self):
        """Bitmask per element of everything >= it in Bruhat order."""
        if self._bruhat_up is None:
            covers_up = [[] for _ in range(self.size)]
            for t, _root, _coroot in self.reflections():
                for u in range(self.size):
                    v = self.multiply(t, u)
                    if self.length[v] == self.length[u] + 1:
                        covers_up[u].append(v)
            up = [1 << x for x in range(self.size)]
            for x in sorted(range(self.size), key=lambda i: -self.length[i]):
                m = up[x]
                for y in covers_up[x]:
                    m |= up[y]
                up[x] = m
            self._bruhat_up = up
        return self._bruhat_up

    def bruhat_leq(self, x, y):
        return bool(self.bruhat_up()[x] >> y & 1)

    def __repr__(self):
        return f"CoxeterGroup({self.cartan.label or 'custom'}, |W|={self.size})"


class BruhatInterval:
    """The interval [v, w] in Bruhat order, as a ranked poset (rank = length)."""

    def __init__(self, group: CoxeterGroup, v, w):
        if not group.bruhat_leq(v, w):
            raise InvalidInputError("interval is empty: v is not <= w")
        up = group.bruhat_up()
        elems = [
            x
            for x in range(group.size)
            if (up[v] >> x & 1) and (up[x] >> w & 1)
        ]
        if len(elems) > INTERVAL_CAP:
            raise InvalidInputError(f"interval larger than the cap {INTERVAL_CAP}")
        elems.sort(key=lambda x: (group.length[x], group.words[x]))
        self.group = group
        self.v = v
        self.w = w
        self.elements = elems
        self.pos = {x: i for i, x in enumerate(elems)}
        covers = []
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                if (
                    group.length[y] == group.length[x] + 1
                    and group.bruhat_leq(x, y)
                ):
                    covers.append((i, j))
        names = ["".join(str(s + 1) for s in group.words[x]) or "e" for x in elems]
        self.poset = RankedPoset([group.length[x] for x in elems], covers, names=names)

    def __len__(self):
        return len(self.elements)


def enumerate_interval(group: CoxeterGroup, v, w) -> BruhatInterval:
    return BruhatInterval(group, v, w)


@dataclass
class Edge:
    """A moment graph edge u -- v with u < v in Bruhat order."""

    u: int  # vertex indices into the graph's vertex list
    v: int
    label: tuple  # positive root, simple-root coordinates
    reflection: int  # group element id of the reflection


class MomentGraph:
    """The Bruhat graph of an interval: vertices are the interval's
    elements, edges join u and tu for reflections t, labelled by the
    positive root of t."""

    def __init__(self, interval: BruhatInterval):
        group = interval.group
        self.group = group
        self.interval = interval
        self.vertices = list(range(len(interval.elements)))
        self.lengths = [group.length[x] for x in interval.elements]
        edges = []
        for t, root, _coroot in group.reflections():
            for i, x in enumerate(interval.elements):
                y = group.multiply(t, x)
                j = interval.pos.get(y)
                if j is not None and group.length[y] > group.length[x]:
                    edges.append(Edge(i, j, root, t))
        edges.sort(key=lambda e: (e.u, e.v, e.label))
        self.edges = edges
        self.incident = [[] for _ in self.vertices]
        for k, e in enumerate(edges):
            self.incident[e.u].append(k)
            self.incident[e.v].append(k)
        self.top = interval.pos[interval.w]
        self.bottom = interval.pos[interval.v]

    def n_vertices(self):
        return len(self.vertices)

    def edges_at(self, i):
        return [self.edges[k] for k in self.incident[i]]

    def __repr__(self):
        return f"MomentGraph({self.n_vertices()} vertices, {len(self.edges)} edges)"


def bruhat_graph(group: CoxeterGroup, interval: BruhatInterval) -> MomentGraph:
    return MomentGraph(interval)


def p_gkm_check(graph: MomentGraph, p: int):
    """Whether, at every vertex, every pair of incident edge labels stays
    linearly independent over GF(p).  Returns (ok, witness or None) where
    the witness is (vertex, label1, label2)."""
    from klsc.field import GF

    GF(p)  # validates primality
    for i in graph.vertices:
        labels = [e.label for e in graph.edges_at(i)]
        reduced = [tuple(c % p for c in lab) for lab in labels]
        for a in range(len(reduced)):
            for b in range(a + 1, len(reduced)):
                if _parallel_mod_p(reduced[a], reduced[b], p):
                    return False, (i, labels[a], labels[b])
    return True, None


def _parallel_mod_p(x, y, p):
    if not any(x) or not any(y):
        return True
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            if (x[i] * y[j] - x[j] * y[i]) % p:
                return False
    return True


def r_polynomial(group: CoxeterGroup, v, w, _cache=None):
    """R-polynomial of the pair (v, w), by the Hecke-algebra recursion:
    R_{w,w} = 1, R_{v,w} = 0 unless v <= w, and for a left descent s of w,
    R_{v,w} = R_{sv,sw} if sv < v, else (t-1) R_{v,sw} + t R_{sv,sw}."""
    from klsc.poly import UniPoly

    cache = _cache if _cache is not None else group.__dict__.setdefault("_r_cache", {})
    key = (v, w)
    out = cache.get(key)
    if out is not None:
        return out
    if v == w:
        out = UniPoly.one()
    elif not group.bruhat_leq(v, w):
        out = UniPoly.zero()
    else:
        s = group.left_descents(w)[0]
        sw = group.left[s][w]
        sv = group.left[s][v]
        if group.length[sv] < group.length[v]:
            out = r_polynomial(group, sv, sw, cache)
        else:
            out = UniPoly((-1, 1)) * r_polynomial(group, v, sw, cache) + UniPoly(
                (0, 1)
            ) * r_polynomial(group, sv, sw, cache)
    cache[key] = out
    return out


# -- type A conveniences -----------------------------------------------------------


def word_from_permutation(perm):
    """Reduced word (0-based adjacent transpositions) for a one-line
    permutation of 1..n, via bubble sort; an independent oracle for type A."""
    p = list(perm)
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise InvalidInputError(f"{perm!r} is not a permutation of 1..{len(perm)}")
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i)
                changed = True
    word.reverse()
    return tuple(word)


def group_from_json(data) -> CoxeterGroup:
    if "type" in data:
        return CoxeterGroup(CartanDatum.from_type(data["type"]))
    if "cartan" in data:
        return CoxeterGroup(CartanDatum.from_matrix(data["cartan"]))
    raise InvalidInputError("coxeter JSON needs a 'type' or 'cartan' field")


def element_from_json(group: CoxeterGroup, word):
    """Accept a word of 1-based generator indices: a list of integers or
    of digit strings (as '--w 1,2,1' gives), or a string such as "121".
    Floats and booleans are refused."""
    if word in ("e", [], ()):
        return group.identity
    try:
        zero_based = [(int(s) if isinstance(s, str) else read_int(s)) - 1 for s in word]
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad word {word!r}") from exc
    for s in zero_based:
        if not 0 <= s < group.rank:
            raise InvalidInputError(f"generator {s + 1} out of range 1..{group.rank}")
    return group.from_word(zero_based)
