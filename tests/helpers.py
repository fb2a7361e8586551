"""Shared fixtures: small posets built by hand, independent of the library
code they are used to test."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from klsc.field import QQ
from klsc.poset import RankedPoset


def square_cone_face_poset():
    """Face poset of the cone over a square, ordered by reverse inclusion
    and ranked by codimension: bottom = the 3-dimensional cone sigma,
    top = the origin.  Built by hand from the face combinatorics."""
    # elements: 0=sigma; 1..4 facets; 5..8 rays r0..r3; 9 = origin
    names = ["sigma", "F01", "F12", "F23", "F30", "r0", "r1", "r2", "r3", "0"]
    ranks = [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    facet_rays = {1: (5, 6), 2: (6, 7), 3: (7, 8), 4: (8, 5)}
    covers = [(0, f) for f in (1, 2, 3, 4)]
    for f, rays in facet_rays.items():
        covers.extend((f, r) for r in rays)
    covers.extend((r, 9) for r in (5, 6, 7, 8))
    return RankedPoset(ranks, covers, names=names)


def simplex_cone_face_poset(d=3):
    """Face poset of a simplicial d-cone: subsets of d rays by reverse
    inclusion, ranked by codimension."""
    subsets = []
    for k in range(d + 1):
        subsets.extend(combinations(range(d), k))
    index = {s: i for i, s in enumerate(subsets)}
    ranks = [d - len(s) for s in subsets]
    covers = []
    for s in subsets:
        for t in subsets:
            if len(t) == len(s) - 1 and set(t) <= set(s):
                covers.append((index[s], index[t]))
    names = ["{" + ",".join(map(str, s)) + "}" for s in subsets]
    return RankedPoset(ranks, covers, names=names)


def uniform_flats_poset(k, n):
    """Lattice of flats of the uniform matroid U_{k,n}, by hand: subsets of
    size < k, plus the full ground set."""
    flats = []
    for size in range(k):
        flats.extend(frozenset(c) for c in combinations(range(n), size))
    flats.append(frozenset(range(n)))
    flats.sort(key=lambda f: (len(f), sorted(f)))
    index = {f: i for i, f in enumerate(flats)}
    ranks = [min(len(f), k) for f in flats]
    covers = []
    for f in flats:
        for g in flats:
            if ranks[index[g]] == ranks[index[f]] + 1 and f < g:
                covers.append((index[f], index[g]))
    names = ["{" + ",".join(map(str, sorted(f))) + "}" for f in flats]
    return RankedPoset(ranks, covers, names=names)


def brute_mobius(poset, x, y):
    """Independent Moebius recursion, straight from the definition."""
    if x == y:
        return 1
    total = 0
    for z in poset.interval(x, y):
        if z != y:
            total += brute_mobius(poset, x, z)
    return -total


def dense_matvec(rows, x, field):
    """A x for a dense matrix given by its rows, straight from the
    definition."""
    out = []
    for r in rows:
        acc = field.zero
        for a, b in zip(r, x):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


def mat_mul(a, b, n):
    """The product of two n x n matrices given as row tuples, straight
    from the definition."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def build_parser():
    """The argparse parser that klsc's command line used before its flag
    table, kept as the reference the table's parser is compared against."""
    import argparse

    from klsc.cli import _cmd_coxeter, _cmd_fan, _cmd_kls, _cmd_matroid, _cmd_validate

    def field_flags(p):
        p.add_argument("--char", type=int, default=0)
        p.add_argument("--compare-recursion", action="store_true")

    def common_flags(p):
        p.add_argument("--output")
        p.add_argument("--pretty", action="store_true")

    parser = argparse.ArgumentParser(prog="klsc")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kls")
    p.add_argument("--kernel", choices=["eulerian", "matroid", "coxeter"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--pair")
    common_flags(p)
    p.set_defaults(fn=_cmd_kls)

    p = sub.add_parser("fan")
    p.add_argument("action", choices=["g", "ih"])
    p.add_argument("--input", required=True)
    p.add_argument("--cone", type=int)
    common_flags(p)
    p.set_defaults(fn=_cmd_fan)

    p = sub.add_parser("matroid")
    p.add_argument("action", choices=["kl", "z"])
    p.add_argument("--input", required=True)
    p.add_argument("--all-flats", action="store_true")
    field_flags(p)
    common_flags(p)
    p.set_defaults(fn=_cmd_matroid)

    p = sub.add_parser("coxeter")
    p.add_argument("action", choices=["kl"])
    p.add_argument("--type")
    p.add_argument("--cartan")
    p.add_argument("--w", required=True)
    p.add_argument("--v", default="e")
    p.add_argument("--degree-bound", type=int, default=None)
    field_flags(p)
    common_flags(p)
    p.set_defaults(fn=_cmd_coxeter)

    p = sub.add_parser("validate")
    p.add_argument("--suite", default="desk")
    p.add_argument("--quiet", action="store_true")
    common_flags(p)
    p.set_defaults(fn=_cmd_validate)
    return parser


def _primitive(v, pivot):
    g = gcd(*v)
    if v[pivot] < 0:
        g = -g
    return [x // g for x in v]


class _EagerRowSpace:
    """The untagged QQ RowSpace as it was before its rows were kept
    semi-echelon: a reduced echelon basis of primitive int rows with
    positive pivots, where every add clears its new pivot column from all
    older rows.  Rows are replaced, never updated in place."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}

    def _reduce(self, v):
        d = lcm(*(Fraction(x).denominator for x in v))
        v = [int(Fraction(x) * d) for x in v]
        scale = d
        # the basis is fully reduced, so one pass in any order clears v
        for c, row in self.rows.items():
            a, pv = v[c], row[c]
            if a:
                v = [pv * x - a * y for x, y in zip(v, row)]
                scale *= pv
        return v, scale

    def reduce(self, v):
        w, scale = self._reduce(v)
        return [QQ.div(x, scale) for x in w]

    def add(self, v):
        w, _ = self._reduce(v)
        pivot = next((c for c, x in enumerate(w) if x), None)
        if pivot is None:
            return None
        w = _primitive(w, pivot)
        for c, row in self.rows.items():
            a = row[pivot]
            if a:
                self.rows[c] = _primitive([w[pivot] * x - a * y for x, y in zip(row, w)], c)
        self.rows[pivot] = w
        return pivot

    def basis(self):
        return [self.rows[c] for c in sorted(self.rows)]

    def copy(self):
        out = _EagerRowSpace(self.ncols)
        out.rows = dict(self.rows)
        return out


class _EagerTaggedRowSpace:
    """The tagged RowSpace as it was before its rows were kept sparse and
    semi-echelon: dense rows, kept fully reduced, where every add clears
    its new pivot column from all other rows and carries their tags
    along.  Over QQ a row is a primitive int list with a positive pivot,
    its content taken over its tag's entries too; over GF(p) a row has a
    unit pivot and entries mod p.  Vectors are lists or {column: value}
    dicts; tags are dicts of their nonzero entries."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.p = field.characteristic
        self.rows = {}  # pivot column -> row list
        self.tags = {}  # pivot column -> tag dict

    def _convert(self, v, tag):
        """(d*v as a list, d*tag as a new dict, d) with every entry an int,
        reduced mod p over GF(p), where d = 1."""
        if isinstance(v, dict):
            v = [v.get(j, 0) for j in range(self.ncols)]
        tag = {k: t for k, t in (tag or {}).items() if t}
        if self.p:
            tag = {k: t % self.p for k, t in tag.items() if t % self.p}
            return [int(x) % self.p for x in v], tag, 1
        d = lcm(*(Fraction(x).denominator for x in [*v, *tag.values()]))
        v = [int(Fraction(x) * d) for x in v]
        return v, {k: int(Fraction(t) * d) for k, t in tag.items()}, d

    def _combine(self, pv, v, tag, a, c):
        """(pv*v - a*row c, pv*tag - a*tag c), mod p over GF(p)."""
        v = [pv * x - a * y for x, y in zip(v, self.rows[c])]
        tag = {k: pv * t for k, t in tag.items()}
        for k, t in self.tags[c].items():
            tag[k] = tag.get(k, 0) - a * t
        if self.p:
            v = [x % self.p for x in v]
            tag = {k: t % self.p for k, t in tag.items()}
        return v, {k: t for k, t in tag.items() if t}

    def _reduce(self, v, tag):
        v, tag, scale = self._convert(v, tag)
        # the basis is fully reduced, so one pass in any order clears v
        for c, row in self.rows.items():
            a, pv = v[c], row[c]
            if a:
                v, tag = self._combine(pv, v, tag, a, c)
                scale *= pv
        return v, tag, scale

    def _normalise(self, v, tag, pivot):
        if self.p:
            inv = pow(v[pivot], -1, self.p)
            return (
                [x * inv % self.p for x in v],
                {k: t * inv % self.p for k, t in tag.items()},
            )
        g = gcd(*v, *tag.values())
        if v[pivot] < 0:
            g = -g
        return [x // g for x in v], {k: t // g for k, t in tag.items()}

    def reduce(self, v, tag=None):
        """(residual list, tag), both divided by the elimination's scale."""
        v, tag, scale = self._reduce(v, tag)
        div = self.field.div
        return [div(x, scale) for x in v], {k: div(t, scale) for k, t in tag.items()}

    def add(self, v, tag=None):
        v, tag, _ = self._reduce(v, tag)
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is None:
            return None
        v, tag = self._normalise(v, tag, pivot)
        hits = [c for c, row in self.rows.items() if row[pivot]]
        self.rows[pivot], self.tags[pivot] = v, tag
        for c in hits:
            row, rtag = self.rows[c], self.tags[c]
            row, rtag = self._combine(v[pivot], row, rtag, row[pivot], pivot)
            self.rows[c], self.tags[c] = self._normalise(row, rtag, c)
        return pivot
