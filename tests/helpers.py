"""Shared fixtures and oracles: small posets built by hand, independent
of the library code they are used to test, and the reference checks the
tests compare the library's output against (brute-force definitions,
section spaces computed the slow way, the generic engine's matroid
model)."""

import importlib.util
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from pathlib import Path

from klsc.errors import InconsistentSystemError, KlscError, TruncationBoundError
from klsc.fans import Fan, FanLocalModel
from klsc.field import GF, QQ
from klsc.graded import GradedModule, minimal_generator_degrees
from klsc.linalg import RowSpace, matvec, solve_linear
from klsc.matroids import Matroid
from klsc.momentsheaf import reduced_monomials
from klsc.poly import MultiPoly, monomials
from klsc.poset import RankedPoset
from klsc.sheaf import build_sheaf


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


# -- posets -----------------------------------------------------------------------


def boolean_lattice(n) -> RankedPoset:
    """The lattice of subsets of {0..n-1}, ranked by size."""
    ranks = [bin(s).count("1") for s in range(1 << n)]
    covers = []
    for s in range(1 << n):
        for i in range(n):
            if not s >> i & 1:
                covers.append((s, s | 1 << i))
    names = ["{" + ",".join(str(i) for i in range(n) if s >> i & 1) + "}" for s in range(1 << n)]
    return RankedPoset(ranks, covers, names=names)


def chain(length) -> RankedPoset:
    """A chain with the given number of covers (length+1 elements)."""
    return RankedPoset(list(range(length + 1)), [(i, i + 1) for i in range(length)])


def poset_json(poset):
    """The poset in the command line's poset JSON format."""
    return {
        "elements": list(poset.names),
        "rank": list(poset.rank),
        "covers": [list(c) for c in poset.covers],
    }


# -- linear algebra and graded modules ----------------------------------------------


def dense(v, n):
    """The list of the n entries of a vector: a dict of its nonzero
    entries (QQ) or a sequence such as an int64 array (GF(p))."""
    if not isinstance(v, dict):
        return list(v)
    out = [0] * n
    for c, a in v.items():
        out[c] = a
    return out


def contains(space, v):
    """Whether v lies in the span of a RowSpace: its residual is zero (a
    dict of the nonzero entries, or over GF(p) untagged an int64 array)."""
    residual = space.reduce(v)[0]
    return not any(residual.values() if isinstance(residual, dict) else residual)


def raising_maps_are_closed(module):
    """Whether every raising map carries the realized degree-i subspace of
    a GradedModule into the realized degree-(i+1) subspace."""
    for i in range(module.bound):
        target = RowSpace(module.field, module.ambient_dims[i + 1])
        for b in module.bases[i + 1]:
            target.add(b)
        for v in range(module.nvars):
            for b in module.bases[i]:
                if not contains(target, module.apply_raising(v, i, b)):
                    return False
    return True


def free_graded_module(field, nvars, shape, bound) -> GradedModule:
    """The free module on the generators of a FreeModuleShape, realized
    concretely with ambient coordinates (generator, monomial)."""
    gens = list(shape.degrees)
    layout = []  # per degree: list of (gen index, exponent tuple)
    for i in range(bound + 1):
        coords = []
        for gi, d in enumerate(gens):
            if d <= i:
                for m in monomials(nvars, i - d):
                    coords.append((gi, m))
        layout.append(coords)
    index = [{key: pos for pos, key in enumerate(coords)} for coords in layout]
    ambient_dims = [len(c) for c in layout]
    one = field.from_int(1)
    bases = [[{pos: one} for pos in range(n)] for n in ambient_dims]
    # a variable maps each monomial to one monomial: one entry per column
    raising = [
        [
            [
                [(index[i + 1][(gi, m[:var] + (m[var] + 1,) + m[var + 1 :])], one)]
                for gi, m in layout[i]
            ]
            for i in range(bound)
        ]
        for var in range(nvars)
    ]
    return GradedModule(field, nvars, bound, ambient_dims, bases, raising)


# -- the generic sheaf engine: section spaces the slow way ------------------------


def sections_over(sheaf, upper):
    """Degreewise dimensions of F(Q) for an UpperSet Q of a PosetSheaf."""
    return [len(sheaf.section_space(upper.mask, d)) for d in range(sheaf.bound + 1)]


def ambient_forms(model):
    """Per variable of the ambient ring, its linear form on R_y as a
    function of y: the coordinates x_a read in each cone's chart for a
    fan, the single variable h for a matroid."""
    if isinstance(model, FanLocalModel):
        return [
            lambda y, a=a: model.charts[y].ambient_var_forms()[a]
            for a in range(model.fan.ambient_dim)
        ]
    one = model.field.from_int(1)
    return [lambda y: [one]]


def sections_shape(sheaf, upper):
    """Minimal generator degrees of F(Q) over the ambient ring."""
    elems = sheaf._sorted_upper(upper.mask)
    forms = ambient_forms(sheaf.model)
    bases = [sheaf.section_space(upper.mask, d) for d in range(sheaf.bound + 1)]
    raising = [[sheaf.raising(elems, d, form_of) for d in range(sheaf.bound)] for form_of in forms]
    dims = [len(sheaf.layout(elems, d)) for d in range(sheaf.bound + 1)]
    module = GradedModule(sheaf.field, len(forms), sheaf.bound, dims, bases, raising)
    return minimal_generator_degrees(module)


def sections_poincare(sheaf, upper):
    return sections_shape(sheaf, upper).poincare()


def restriction_surjective(sheaf, big, small):
    """Flabbiness check: project a basis of F(big) to the coordinates of
    F(small) and compare ranks."""
    if small.mask & ~big.mask:
        raise ValueError("small set is not contained in the big one")
    big_elems = sheaf._sorted_upper(big.mask)
    small_elems = set(sheaf._sorted_upper(small.mask))
    ok = True
    for d in range(sheaf.bound + 1):
        big_layout = sheaf.layout(big_elems, d)
        pos = [c for c, key in enumerate(big_layout) if key[0] in small_elems]
        proj = RowSpace(sheaf.field, len(pos))
        for v in sheaf.section_space(big.mask, d):
            proj.add({i: v[c] for i, c in enumerate(pos) if c in v})
        if proj.dim != len(sheaf.section_space(small.mask, d)):
            ok = False
    return ok


class MatroidLocalModel:
    """Boundary module at a flat F: the quotient of the sections over the
    open interval (F, E] by the images of y_G for all flats G > F.  This
    is the construction klsc.matroid_ih runs, on the generic engine, so
    that the bespoke matroid sheaf can be cross-checked on small
    matroids."""

    def __init__(self, matroid, field=QQ):
        self.matroid = matroid
        self.field = field
        self.lattice = matroid.lattice()

    def nvars(self, x):
        return 1

    def boundary(self, x, view):
        field = self.field
        L = self.lattice
        bound = view.sheaf.bound
        layouts = [view.layout(d) for d in range(bound + 1)]
        positions = [{key: c for c, key in enumerate(lay)} for lay in layouts]

        def y_image(vec, d, g):
            """y_g acting on a degree-d section vector, landing in degree
            d + (rk g - rk x); the h-exponent of every kept coordinate
            rises by the shift."""
            shift = L.rank[g] - L.rank[x]
            out = {}
            for c, a in vec.items():
                h, gi, m = layouts[d][c]
                if L.leq(g, h):
                    out[positions[d + shift][(h, gi, (m[0] + shift,))]] = a
            return out

        above = [g for g in L.elements() if L.lt(x, g)]
        nspaces = []
        for d in range(bound + 1):
            nspace = RowSpace(field, len(layouts[d]))
            for g in above:
                shift = L.rank[g] - L.rank[x]
                if shift > d:
                    continue
                for v in view.bases[d - shift]:
                    nspace.add(y_image(v, d - shift, g))
            nspaces.append(nspace)

        # quotient coordinates: representatives of F_d modulo the y-span.
        # Together with the basis of N_d they are independent, the columns
        # of the system that to_quotient_coords solves
        reps = []
        columns = []
        for d in range(bound + 1):
            span = nspaces[d].copy()
            basis = []
            for v in view.bases[d]:
                if span.add(v) is not None:
                    basis.append(v)
            reps.append(basis)
            n = len(layouts[d])
            known = [dense(v, n) for v in nspaces[d].basis() + basis]
            columns.append([[v[c] for v in known] for c in range(n)])

        def to_quotient_coords(vec, d):
            try:
                x = solve_linear(columns[d], dense(vec, len(layouts[d])), field)
            except InconsistentSystemError as exc:
                raise TruncationBoundError("vector escapes the quotient basis") from exc
            return x[nspaces[d].dim :]

        ambient_dims = [len(reps[d]) for d in range(bound + 1)]
        one = field.from_int(1)
        bases = [[{c: one} for c in range(n)] for n in ambient_dims]
        # h acts on the quotient coordinates of each representative
        raising = [[]]
        for d in range(bound):
            h = view.sheaf.raising(view.elems, d, lambda y: [field.from_int(1)])
            cols = []
            for v in reps[d]:
                qc = to_quotient_coords(matvec(h, v, field), d + 1)
                cols.append([(r, a) for r, a in enumerate(qc) if not field.is_zero(a)])
            raising[0].append(cols)
        module = GradedModule(field, 1, bound, ambient_dims, bases, raising)
        # res takes quotient coordinates: its kernel is N_d, and the
        # representatives lift the module's coordinate vectors
        kernel = [nspaces[d].basis() for d in range(bound + 1)]
        rep_cols = [[list(v.items()) for v in reps[d]] for d in range(bound + 1)]
        return module, kernel, lambda d, v: matvec(rep_cols[d], v, field)


def build_matroid_sheaf_generic(matroid, field=QQ):
    """The matroid sheaf via the generic engine; returns (lattice, sheaf).
    Quadratic and unmemoized, for cross-validation on small matroids."""
    lattice = matroid.lattice()
    return lattice, build_sheaf(lattice, MatroidLocalModel(matroid, field))


# -- moment-graph sheaves: section spaces the slow way -----------------------------


def _stalk_layout(sheaf, verts, degree):
    layout = []
    for i in verts:
        for gi, gd in enumerate(sheaf.stalks[i]):
            if gd <= degree:
                for m in monomials(sheaf.nvars, degree - gd):
                    layout.append((i, gi, m))
    return layout


def section_dims(sheaf, verts, up_to):
    """Dimensions of the space of edge-compatible tuples of a
    MomentGraphSheaf over the given vertex set (an upper set of the
    interval), degree by degree, computed directly as a kernel.
    Quadratic in everything; meant for verification at small scale."""
    verts = set(verts)
    poset = sheaf.graph.interval.poset
    for i in verts:
        for j in sheaf.graph.vertices:
            if poset.lt(i, j) and j not in verts:
                raise KlscError("vertex set is not an upper set")
    maps = lower_maps(sheaf)
    dims = []
    for d in range(up_to + 1):
        layout = _stalk_layout(sheaf, sorted(verts), d)
        pos = {key: c for c, key in enumerate(layout)}
        space = RowSpace(sheaf.field, len(layout))
        for k, e in enumerate(sheaf.graph.edges):
            if e.u not in verts or e.v not in verts:
                continue
            for r in _edge_constraint_rows(sheaf, maps, k, d, layout, pos):
                space.add(r)
        dims.append(len(layout) - space.dim)
    return dims


def lower_maps(sheaf):
    """The lower-endpoint edge maps of a MomentGraphSheaf: edge index ->
    per generator of the stalk at the edge's lower vertex u, the component
    of its psi-image in that edge's module, as one reduced MultiPoly per
    generator of the stalk at the upper vertex."""
    out = {}
    for k, e in enumerate(sheaf.graph.edges):
        maps = []
        for img in sheaf.gen_images[e.u]:
            terms = [{} for _ in sheaf.stalks[e.v]]
            for (kk, j, m), c in img.items():
                if kk == k:
                    terms[j][m] = c
            maps.append([MultiPoly(sheaf.field, sheaf.nvars, t) for t in terms])
        out[k] = maps
    return out


def _edge_constraint_rows(sheaf, maps, k, degree, layout, pos):
    """Rows expressing 'image of m_u equals image of m_v in M_E' for edge
    k, as functionals on the stalk layout; maps are the lower_maps."""
    e = sheaf.graph.edges[k]
    ring = sheaf.edge_rings[k]
    field = sheaf.field
    nvars = sheaf.nvars
    # target coordinates: (gen j of stalk at e.v, reduced monomial)
    tcoords = []
    for j, gd in enumerate(sheaf.stalks[e.v]):
        if gd <= degree:
            for m in reduced_monomials(nvars, ring.pivot, degree - gd):
                tcoords.append((j, m))
    tpos = {key: c for c, key in enumerate(tcoords)}
    rows = [[field.zero] * len(layout) for _ in tcoords]
    # agreement: reduce(m_v part) - lower_map(m_u part) = 0 in M_E
    for c, (i, gi, m) in enumerate(layout):
        if i == e.v:
            red = ring.reduce(MultiPoly(field, nvars, {m: field.from_int(1)}))
            for em, cc in red.terms.items():
                row = rows[tpos[(gi, em)]]
                row[c] = field.add(row[c], cc)
        elif i == e.u:
            img = maps[k][gi]  # list of reduced MultiPoly
            mono = MultiPoly(field, nvars, {m: field.from_int(1)})
            for j, ip in enumerate(img):
                if ip.is_zero():
                    continue
                prod = ring.reduce(mono * ip)
                for em, cc in prod.terms.items():
                    row = rows[tpos[(j, em)]]
                    row[c] = field.sub(row[c], cc)
    return rows


def spanned_section_dims(sheaf, verts, up_to):
    """Degreewise dimensions of the span of the sheaf's generating
    sections, restricted to the given vertices."""
    verts = set(verts)
    dims = []
    for d in range(up_to + 1):
        layout = _stalk_layout(sheaf, sorted(verts), d)
        pos = {key: c for c, key in enumerate(layout)}
        space = RowSpace(sheaf.field, len(layout))
        for s in sheaf.sections:
            if s.degree > d:
                continue
            for m in monomials(sheaf.nvars, d - s.degree):
                space.add(_section_vector(sheaf, s, m, verts, pos))
        dims.append(space.dim)
    return dims


def _section_vector(sheaf, s, mono, verts, pos):
    field = sheaf.field
    v = [field.zero] * len(pos)
    mpoly = MultiPoly(field, sheaf.nvars, {mono: field.from_int(1)})
    for i, polys in s.parts.items():
        if i not in verts:
            continue
        for gi, p in enumerate(polys):
            if p.is_zero():
                continue
            for e, c in (mpoly * p).terms.items():
                v[pos[(i, gi, e)]] = c
    return v


def check_section_generators(sheaf, up_to=None):
    """Whether the degreewise span of the maintained generating set
    matches the honest edge-agreement kernel over the full vertex set;
    returns (ok, honest dims, spanned dims)."""
    up_to = sheaf.degree_bound if up_to is None else up_to
    honest = section_dims(sheaf, sheaf.graph.vertices, up_to)
    spanned = spanned_section_dims(sheaf, sheaf.graph.vertices, up_to)
    return honest == spanned, honest, spanned


# -- Coxeter groups -----------------------------------------------------------------


def longest_element(W):
    return max(range(W.size), key=lambda x: W.length[x])


def subword_leq(W, x, w):
    """Bruhat comparison via the subword property; exponential in the
    length of w."""
    word = W.words[w]
    lx = W.length[x]
    n = len(word)
    for mask in range(1 << n):
        if bin(mask).count("1") != lx:
            continue
        sub = [word[i] for i in range(n) if mask >> i & 1]
        if W.from_word(sub) == x:
            return True
    return lx == 0


def reflection_matrix_from_root(W, root, coroot):
    """Matrix of the reflection v -> v - <coroot, v> root on root coords."""
    a = W.cartan.matrix
    n = W.rank
    pair = [sum(coroot[j] * a[j][k] for j in range(n)) for k in range(n)]
    return tuple(
        tuple((1 if r == k else 0) - root[r] * pair[k] for k in range(n))
        for r in range(n)
    )


# -- fans and matroids --------------------------------------------------------------


def unimodular_image(fan, matrix):
    """The fan with every ray transformed by an invertible integer matrix
    (rows act on column vectors); such a matrix keeps rays primitive."""
    d = fan.ambient_dim
    rays = [tuple(sum(matrix[i][j] * r[j] for j in range(d)) for i in range(d)) for r in fan.rays]
    return Fan(d, rays, fan.cones)


def projective_geometry(q, d):
    """The matroid of all points of PG(d-1, q), whose lattice of flats is
    the lattice of subspaces of GF(q)^d."""
    field = GF(q)
    seen = {}
    for vec in product(range(q), repeat=d):
        if not any(vec):
            continue
        lead = next(v for v in vec if v)
        scaled = tuple(field.div(field.from_int(v), field.from_int(lead)) for v in vec)
        seen.setdefault(scaled, vec)
    cols = sorted(seen)

    def rank_fn(s):
        space = RowSpace(field, d)
        for i in sorted(s):
            space.add(list(cols[i]))
        return space.dim

    return Matroid(len(cols), rank_fn, tag=("pg", q, d))


def brute_flats(n, bases):
    """{flat: rank} of the matroid on 0..n-1 with the given bases, from
    the definitions: rk S is the largest |S & B| over the bases B, and S
    is a flat when adding any element outside it raises the rank.  Every
    one of the 2^n subsets is tested."""
    masks = [sum(1 << e for e in b) for b in bases]
    rank = [max((s & b).bit_count() for b in masks) for s in range(1 << n)]
    out = {}
    for s in range(1 << n):
        if all(rank[s | 1 << e] > rank[s] for e in range(n) if not s >> e & 1):
            out[frozenset(e for e in range(n) if s >> e & 1)] = rank[s]
    return out


def load_workloads():
    """perfbench/workloads.py, which imports nothing from klsc, loaded as a
    module: the seeded benchmark inputs in their canonical presentation."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def mobius_rho(A, i):
    """Restriction of the MobiusAlgebra A to the fixed point of flat i: a
    table flat j -> exponent of h, or None for zero."""
    L = A.lattice
    return {j: (L.rank[j] if L.leq(j, i) else None) for j in L.elements()}


def mobius_phi(A, i):
    """Restriction of A to the contraction at flat i: a table flat j ->
    (exponent of h, flat of the contraction as a frozenset)."""
    out = {}
    for j in A.lattice.elements():
        power, k = A.product(i, j)
        out[j] = (power, A.flats[k] - A.flats[i])
    return out


def is_commutative_associative(A):
    """Whether the product of the MobiusAlgebra A is commutative and
    associative, on every pair and triple of flats."""
    n = A.lattice.n
    for i in range(n):
        for j in range(n):
            if A.product(i, j) != A.product(j, i):
                return False
    for i, j, k in product(range(n), repeat=3):
        p1, a = A.product(i, j)
        p2, b = A.product(a, k)
        q1, c = A.product(j, k)
        q2, d = A.product(i, c)
        if (p1 + p2, b) != (q1 + q2, d):
            return False
    return True
