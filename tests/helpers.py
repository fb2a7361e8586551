"""Shared fixtures: small posets built by hand, independent of the library
code they are used to test."""

from itertools import combinations

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
