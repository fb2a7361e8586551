"""Finite ranked posets.

Elements are integers 0..n-1 with a strictly increasing rank function
along covers.  The order relation is stored as one bitmask per element
(up[x] = set of y >= x, down[x] = set of y <= x), which keeps interval and
upper-set queries cheap at the scales this package works at (a few
thousand elements).  One more mask per rank level lets joins and meets be
read off with a few bit operations.  The lattice tests make one set
lookup per pair (does it have a meet) and, on a graded poset, test
semimodularity only on the pairs of covers of a common element.
"""

from __future__ import annotations

import operator

from klsc.errors import InvalidInputError
from klsc.field import read_int
from klsc.poly import UniPoly

MAX_ELEMENTS = 10_000  # desk scale; dense reachability beyond this is out of scope


class RankedPoset:
    def __init__(self, ranks, covers, names=None):
        n = len(ranks)
        if n == 0:
            raise InvalidInputError("empty poset")
        if n > MAX_ELEMENTS:
            raise InvalidInputError(f"poset with {n} elements exceeds the desk-scale cap")
        self.n = n
        self.rank = [operator.index(r) for r in ranks]  # int() would truncate 1.5
        if any(r < 0 for r in self.rank):
            raise InvalidInputError("ranks must be non-negative")
        self.names = list(names) if names is not None else [str(i) for i in range(n)]
        cov = []
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidInputError("cover index out of range")
            if self.rank[b] <= self.rank[a]:
                raise InvalidInputError(
                    f"cover {a}->{b} does not increase rank "
                    f"({self.rank[a]} -> {self.rank[b]})"
                )
            cov.append((a, b))
        self.covers = sorted(set(cov))
        self.covers_up = [[] for _ in range(n)]
        self.covers_down = [[] for _ in range(n)]
        for a, b in self.covers:
            self.covers_up[a].append(b)
            self.covers_down[b].append(a)
        # up[x] as a bitmask of {y : x <= y}; computed by decreasing rank
        up = [1 << x for x in range(n)]
        for x in sorted(range(n), key=lambda i: -self.rank[i]):
            m = up[x]
            for y in self.covers_up[x]:
                m |= up[y]
            up[x] = m
        self.up = up
        down = [1 << x for x in range(n)]
        for x in sorted(range(n), key=lambda i: self.rank[i]):
            m = down[x]
            for y in self.covers_down[x]:
                m |= down[y]
            down[x] = m
        self.down = down
        # the elements of each rank present, by increasing rank
        levels = {}
        for x, r in enumerate(self.rank):
            levels[r] = levels.get(r, 0) | 1 << x
        order = sorted(levels)
        self._levels = [levels[r] for r in order]
        position = {r: i for i, r in enumerate(order)}
        self._level_of = [position[r] for r in self.rank]
        self._mobius_cache = {}
        self._geometric = None

    # -- basic queries ---------------------------------------------------------

    def leq(self, x, y):
        return bool(self.up[x] >> y & 1)

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def elements(self):
        return range(self.n)

    @staticmethod
    def _bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def interval(self, x, y):
        """Elements of [x, y], sorted by (rank, index)."""
        if not self.leq(x, y):
            raise InvalidInputError(f"{self.names[x]} is not <= {self.names[y]}")
        mask = self.up[x] & self.down[y]
        return sorted(self._bits(mask), key=lambda z: (self.rank[z], z))

    def interval_mask(self, x, y):
        return self.up[x] & self.down[y]

    def minimal_of(self, elems):
        """Minimal elements of a subset."""
        elems = list(elems)
        out = []
        for x in elems:
            if not any(self.lt(y, x) for y in elems):
                out.append(x)
        return sorted(out)

    def maximal_elements(self):
        return [x for x in range(self.n) if self.up[x] == 1 << x]

    def minimal_elements(self):
        return [x for x in range(self.n) if self.down[x] == 1 << x]

    def bottom(self):
        mins = self.minimal_elements()
        return mins[0] if len(mins) == 1 else None

    def top(self):
        maxs = self.maximal_elements()
        return maxs[0] if len(maxs) == 1 else None

    def rank_span(self):
        return max(self.rank) - min(self.rank)

    # -- counting ----------------------------------------------------------------

    def rank_sizes(self):
        """h_j = number of elements of rank j, j from min rank to max rank."""
        lo = min(self.rank)
        hi = max(self.rank)
        out = [0] * (hi - lo + 1)
        for r in self.rank:
            out[r - lo] += 1
        return out

    def top_heavy_check(self):
        """Whether h_j <= h_k whenever j <= k <= d-j.  Returns
        (ok, first violating (j, k) or None)."""
        h = self.rank_sizes()
        d = len(h) - 1
        for j in range(d + 1):
            for k in range(j, d - j + 1):
                if h[j] > h[k]:
                    return False, (j, k)
        return True, None

    # -- Moebius function and characteristic polynomials ---------------------------

    def mobius(self, x, y):
        """mu(x, y): mu(x,x) = 1 and sum over x <= z <= y of mu(x,z) = 0."""
        if not self.leq(x, y):
            raise InvalidInputError(f"{self.names[x]} is not <= {self.names[y]}")
        key = (x, y)
        cached = self._mobius_cache.get(key)
        if cached is not None:
            return cached
        if x == y:
            return 1
        total = 0
        for z in self._bits(self.interval_mask(x, y) & ~(1 << y)):
            total += self.mobius(x, z)
        val = -total
        self._mobius_cache[key] = val
        return val

    def characteristic_polynomial(self, x, y) -> UniPoly:
        """chi_{xy}(t) = sum over x <= z <= y of mu(x,z) t^{rk(y) - rk(z)}."""
        if not self.leq(x, y):
            raise InvalidInputError(f"{self.names[x]} is not <= {self.names[y]}")
        coeffs = [0] * (self.rank[y] - self.rank[x] + 1)
        for z in self._bits(self.interval_mask(x, y)):
            coeffs[self.rank[y] - self.rank[z]] += self.mobius(x, z)
        return UniPoly(coeffs)

    # -- structural tests ----------------------------------------------------------

    def is_eulerian(self):
        """Unique min and max, and every interval [x,y] with x < y has as
        many elements of even rank as of odd rank."""
        if self.bottom() is None or self.top() is None:
            return False
        for x in range(self.n):
            for y in self._bits(self.up[x] & ~(1 << x)):
                bal = 0
                for z in self._bits(self.interval_mask(x, y)):
                    bal += 1 if (self.rank[z] & 1) == 0 else -1
                if bal != 0:
                    return False
        return True

    def join(self, x, y):
        """Least upper bound, or None.  The upper bounds form the upper set
        up[x] & up[y].  Rank increases along the order, so a least element
        has the lowest rank in it; an element z of that rank is least
        exactly when up[z] is all of it."""
        mask = self.up[x] & self.up[y]
        levels = self._levels
        for i in range(max(self._level_of[x], self._level_of[y]), len(levels)):
            low = mask & levels[i]
            if low:
                z = low.bit_length() - 1
                return z if self.up[z] == mask else None
        return None

    def meet(self, x, y):
        """Greatest lower bound, or None; join with the order reversed."""
        mask = self.down[x] & self.down[y]
        levels = self._levels
        for i in range(min(self._level_of[x], self._level_of[y]), -1, -1):
            high = mask & levels[i]
            if high:
                z = high.bit_length() - 1
                return z if self.down[z] == mask else None
        return None

    def is_lattice(self):
        # with a top, every pair has an upper bound, and the meet of all
        # the upper bounds is the join.  x and y have a meet exactly when
        # their common lower bounds are the lower bounds of one element z,
        # i.e. down[x] & down[y] is some down[z]
        if self.bottom() is None or self.top() is None:
            return False
        down = self.down
        lower_sets = set(down)
        for x in range(self.n):
            dx = down[x]
            for y in range(x + 1, self.n):
                if dx & down[y] not in lower_sets:
                    return False
        return True

    def is_geometric_lattice(self):
        """Atomic and semimodular, with rank 0 bottom.  Computed once per
        poset."""
        if self._geometric is None:
            self._geometric = self._test_geometric()
        return self._geometric

    def _test_geometric(self):
        b = self.bottom()
        if b is None or self.top() is None or self.rank[b] != 0:
            return False
        # x is the join of the atoms below it exactly when the common upper
        # bounds of those atoms are the elements above x
        atom_ups = [(1 << a, self.up[a]) for a in self.covers_up[b]]
        for x in range(self.n):
            if x == b:
                continue
            common = self.up[b]
            for bit, up in atom_ups:
                if self.down[x] & bit:
                    common &= up
            if common != self.up[x]:
                return False
        rank = self.rank
        if any(rank[y] != rank[x] + 1 for x, y in self.covers):
            # the rank is not the length of the chains from the bottom, so
            # compare the ranks of every join and meet
            for x in range(self.n):
                for y in range(x + 1, self.n):
                    j = self.join(x, y)
                    m = self.meet(x, y)
                    if j is None or m is None or rank[j] + rank[m] > rank[x] + rank[y]:
                        return False
            return True
        # graded with the rank as its rank function: a lattice is
        # semimodular exactly when any two covers x, y of one element are
        # covered by x v y (Stanley, EC1, Prop. 3.3.2), i.e. have a common
        # upper cover, one level above theirs
        if not self.is_lattice():
            return False
        up, levels, level_of = self.up, self._levels, self._level_of
        for z in range(self.n):
            ups = self.covers_up[z]
            if len(ups) < 2:
                continue
            # two covers of z are not the unique top, so a level lies above
            above = levels[level_of[z] + 2]
            for i, x in enumerate(ups):
                ux = up[x] & above
                for y in ups[i + 1:]:
                    if not ux & up[y]:
                        return False
        return True

    # -- serialization ------------------------------------------------------------------

    @staticmethod
    def from_json(data):
        try:
            names = data["elements"]
            ranks = data["rank"]
            covers = data["covers"]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"poset JSON missing field: {exc}") from exc
        try:
            if len(names) != len(ranks):
                raise InvalidInputError("elements and rank arrays differ in length")
            ranks = [read_int(r) for r in ranks]
            return RankedPoset(ranks, [tuple(map(read_int, c)) for c in covers], names=names)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad poset JSON: {exc!r}") from exc

    def __repr__(self):
        return f"RankedPoset(n={self.n}, ranks 0..{max(self.rank)})"


class UpperSet:
    """An upper set of a ranked poset: x in Q and x <= y implies y in Q."""

    def __init__(self, poset, mask):
        self.poset = poset
        self.mask = int(mask)
        for x in RankedPoset._bits(self.mask):
            if poset.up[x] & ~self.mask:
                raise InvalidInputError("set is not upward closed")

    def __contains__(self, x):
        return bool(self.mask >> x & 1)

    def __iter__(self):
        return RankedPoset._bits(self.mask)

    def __len__(self):
        return bin(self.mask).count("1")

    def __eq__(self, other):
        return isinstance(other, UpperSet) and self.mask == other.mask

    def __repr__(self):
        return f"UpperSet({sorted(self)})"
