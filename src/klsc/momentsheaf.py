"""The canonical sheaf on a moment graph.

Given the Bruhat graph of an interval [v, w], this module computes, vertex
by vertex in decreasing length, the sheaf whose sections over an upper set
Q are tuples (m_u) of elements of free modules M_u agreeing in the edge
modules M_E = M_b / alpha_E M_b for every edge inside Q.  The stalk M_u is
the minimal free cover of the boundary module

    M_{du} = image( sections over {x > u}  ->  sum of M_E over edges at u ),

and over the rationals the Poincare polynomial of the reduced stalk at u is
the KLS-polynomial f_{u,w} of the interval.  Over GF(p) the same algorithm
runs whenever the graph is p-GKM, and the stalk Poincare polynomials are
the mod-p analogues, which may exceed the characteristic-zero degree bound.

The base ring is R = k[x_1..x_n] with n the rank of the Cartan datum; edge
labels are linear forms in these variables.  Edge modules are realized by
eliminating one variable (the pivot of the label), so their elements are
polynomials not involving the pivot.

Section spaces are carried as explicit generating sets: tuples of
polynomial vectors over the stalk generators.  Passing a vertex lifts each
generator across the new stalk (flabbiness) and adds the kernel of the
cover map; a lift that fails to exist would signal a broken invariant and
raises immediately.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add as _add

from klsc.coxeter import MomentGraph
from klsc.errors import DegreeBoundError, KlscError, PGKMError, TruncationBoundError
from klsc.field import QQ
from klsc.graded import FreeModuleShape
from klsc.linalg import RowSpace
from klsc.poly import MultiPoly, UniPoly, monomials


@lru_cache(maxsize=None)
def reduced_monomials(nvars, pivot, degree):
    """Monomials of the given degree with zero exponent at the pivot."""
    return tuple(m for m in monomials(nvars, degree) if m[pivot] == 0)


class EdgeRing:
    """R/alpha as polynomials with the pivot variable eliminated.

    The label alpha = sum c_j x_j is solved for its first nonzero
    coordinate, x_pivot = sum_{j != pivot} (-c_j / c_pivot) x_j, and a
    polynomial is reduced by substituting this form for x_pivot, in one
    pass that collects every term into a single dict.  Over QQ the
    substitution has int coefficients when c_pivot is 1, as for every label
    of types A, B and D; in types C and G some labels lead with a 2, and
    their reductions carry halves."""

    def __init__(self, field, nvars, label):
        coeffs = [field.from_int(c) for c in label]
        pivot = next(
            (i for i, c in enumerate(coeffs) if not field.is_zero(c)), None
        )
        if pivot is None:
            raise PGKMError(f"edge label {label} vanishes over {field!r}")
        self.field = field
        self.nvars = nvars
        self.pivot = pivot
        # x_pivot = sum of subst[j] x_j over j != pivot
        inv = field.inv(coeffs[pivot])
        subst = {}
        for j, c in enumerate(coeffs):
            if j != pivot and not field.is_zero(c):
                e = [0] * nvars
                e[j] = 1
                subst[tuple(e)] = field.neg(field.mul(inv, c))
        self._subst = MultiPoly(field, nvars, subst)
        self._powers = {0: MultiPoly.const(field, nvars, field.from_int(1))}

    def _subst_power(self, k):
        if k not in self._powers:
            self._powers[k] = self._subst_power(k - 1) * self._subst
        return self._powers[k]

    def reduce(self, poly: MultiPoly) -> MultiPoly:
        p = self.pivot
        if all(e[p] == 0 for e in poly.terms):
            return poly
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        out = {}
        for e, c in poly.terms.items():
            k = e[p]
            if k == 0:
                out[e] = add(out.get(e, zero), c)
                continue
            # c * x^e = c * x^rest * subst^k, where rest has no pivot
            rest = e[:p] + (0,) + e[p + 1:]
            for es, cs in self._subst_power(k).terms.items():
                key = tuple(map(_add, rest, es))
                out[key] = add(out.get(key, zero), mul(c, cs))
        return MultiPoly(f, self.nvars, out)

    def coeff_vector(self, poly, degree):
        mons = reduced_monomials(self.nvars, self.pivot, degree)
        idx = {m: i for i, m in enumerate(mons)}
        v = [self.field.zero] * len(mons)
        for e, c in poly.terms.items():
            v[idx[e]] = c
        return v


class Section:
    """A homogeneous section: per vertex, polynomial coefficients over that
    vertex's stalk generators."""

    __slots__ = ("degree", "parts")

    def __init__(self, degree, parts):
        self.degree = degree
        self.parts = parts  # vertex -> list of MultiPoly, one per stalk generator


class MomentGraphSheaf:
    """Result of the sheaf computation on a moment graph."""

    def __init__(self, graph, field, stalks, sections, edge_rings, lower_maps, bound):
        self.graph = graph
        self.field = field
        self.nvars = graph.group.rank
        self.stalks = stalks  # vertex -> list of generator degrees
        self.sections = sections  # generating set of global sections
        self.edge_rings = edge_rings  # edge index -> EdgeRing
        self.lower_maps = lower_maps  # edge index -> list of reduced images
        self.degree_bound = bound

    def stalk_shape(self, i) -> FreeModuleShape:
        return FreeModuleShape(self.stalks[i])

    def kl_from_sheaf(self, i) -> UniPoly:
        """Poincare polynomial of the reduced stalk at vertex i; over QQ
        this is the KLS-polynomial f_{x_i, w}."""
        return self.stalk_shape(i).poincare()

    def section_generator_degrees(self) -> FreeModuleShape:
        return FreeModuleShape(s.degree for s in self.sections)

    # -- honest degreewise section spaces (verification path) ------------------

    def _stalk_layout(self, verts, degree):
        layout = []
        for i in verts:
            for gi, gd in enumerate(self.stalks[i]):
                if gd <= degree:
                    for m in monomials(self.nvars, degree - gd):
                        layout.append((i, gi, m))
        return layout

    def section_dims(self, verts, up_to):
        """Dimensions of the space of edge-compatible tuples over the given
        vertex set (must be an upper set of the interval), degree by degree,
        computed directly as a kernel.  Quadratic in everything; meant for
        verification at small scale."""
        verts = set(verts)
        poset = self.graph.interval.poset
        for i in verts:
            for j in self.graph.vertices:
                if poset.lt(i, j) and j not in verts:
                    raise KlscError("vertex set is not an upper set")
        dims = []
        for d in range(up_to + 1):
            layout = self._stalk_layout(sorted(verts), d)
            pos = {key: c for c, key in enumerate(layout)}
            space = RowSpace(self.field, len(layout))
            for k, e in enumerate(self.graph.edges):
                if e.u not in verts or e.v not in verts:
                    continue
                for r in self._edge_constraint_rows(k, d, layout, pos):
                    space.add(r)
            dims.append(len(layout) - space.dim)
        return dims

    def _edge_constraint_rows(self, k, degree, layout, pos):
        """Rows expressing 'image of m_u equals image of m_v in M_E' for
        edge k, as functionals on the stalk layout."""
        e = self.graph.edges[k]
        ring = self.edge_rings[k]
        field = self.field
        target_gens = self.stalks[e.v]
        out = []
        # target coordinates: (gen j of stalk at e.v, reduced monomial)
        tcoords = []
        for j, gd in enumerate(target_gens):
            if gd <= degree:
                for m in reduced_monomials(self.nvars, ring.pivot, degree - gd):
                    tcoords.append((j, m))
        tpos = {key: c for c, key in enumerate(tcoords)}
        rows = [[field.zero] * len(layout) for _ in tcoords]
        # agreement: reduce(m_v part) - lower_map(m_u part) = 0 in M_E
        for c, (i, gi, m) in enumerate(layout):
            if i == e.v:
                red = ring.reduce(MultiPoly(field, self.nvars, {m: field.from_int(1)}))
                for em, cc in red.terms.items():
                    row = rows[tpos[(gi, em)]]
                    row[c] = field.add(row[c], cc)
            elif i == e.u:
                img = self.lower_maps[k][gi]  # list of reduced MultiPoly
                mono = MultiPoly(field, self.nvars, {m: field.from_int(1)})
                for j, ip in enumerate(img):
                    if ip.is_zero():
                        continue
                    prod = ring.reduce(mono * ip)
                    for em, cc in prod.terms.items():
                        row = rows[tpos[(j, em)]]
                        row[c] = field.sub(row[c], cc)
        return rows

    def check_section_generators(self, up_to=None):
        """Verify that the degreewise span of the maintained generating set
        matches the honest edge-agreement kernel over the full vertex set."""
        up_to = self.degree_bound if up_to is None else up_to
        honest = self.section_dims(self.graph.vertices, up_to)
        spanned = self.spanned_section_dims(self.graph.vertices, up_to)
        return honest == spanned, honest, spanned

    def spanned_section_dims(self, verts, up_to):
        verts = set(verts)
        dims = []
        for d in range(up_to + 1):
            layout = self._stalk_layout(sorted(verts), d)
            pos = {key: c for c, key in enumerate(layout)}
            space = RowSpace(self.field, len(layout))
            for s in self.sections:
                if s.degree > d:
                    continue
                for m in monomials(self.nvars, d - s.degree):
                    space.add(self._section_vector(s, m, verts, layout, pos))
            dims.append(space.dim)
        return dims

    def _section_vector(self, s, mono, verts, layout, pos):
        field = self.field
        v = [field.zero] * len(layout)
        mpoly = MultiPoly(field, self.nvars, {mono: field.from_int(1)})
        for i, polys in s.parts.items():
            if i not in verts:
                continue
            for gi, p in enumerate(polys):
                if p.is_zero():
                    continue
                for e, c in (mpoly * p).terms.items():
                    v[pos[(i, gi, e)]] = c
        return v


def compute_sheaf(graph: MomentGraph, field=QQ, degree_bound=None) -> MomentGraphSheaf:
    """Run the sheaf recursion on the graph, top down.

    Over a field of characteristic p the graph must be p-GKM; the degree
    bound defaults to twice the interval's rank span (the characteristic-0
    contract can fail, so the sweep is deliberately generous).  Over the
    rationals a boundary generator at half-degree >= length(w) - length(v)
    contradicts the degree contract and raises DegreeBoundError.
    """
    from klsc.coxeter import p_gkm_check

    field = field or QQ
    char_p = field.characteristic > 0
    if char_p:
        ok, witness = p_gkm_check(graph, field.characteristic)
        if not ok:
            raise PGKMError(f"graph is not {field.characteristic}-GKM at {witness}")

    nvars = graph.group.rank
    lengths = graph.lengths
    top_len = lengths[graph.top]
    span = top_len - min(lengths)
    if degree_bound is None:
        degree_bound = span + 1 if not char_p else 2 * span + 1

    edge_rings = {k: EdgeRing(field, nvars, e.label) for k, e in enumerate(graph.edges)}
    stalks = {}
    lower_maps = {}
    sections = []

    order = sorted(graph.vertices, key=lambda i: (-lengths[i], i))
    for v in order:
        up_edges = [k for k in graph.incident[v] if graph.edges[k].u == v]
        if lengths[v] == top_len:
            # maximal elements of the interval: stalk is R itself
            stalks[v] = [0]
            one = MultiPoly.const(field, nvars, field.from_int(1))
            sections.append(Section(0, {v: [one]}))
            continue
        r_v = top_len - lengths[v]
        sweep = min(degree_bound, r_v + 1) if not char_p else degree_bound
        _attach_vertex(
            graph, field, nvars, v, up_edges, edge_rings, stalks, lower_maps,
            sections, sweep, r_v, char_p,
        )
    return MomentGraphSheaf(
        graph, field, stalks, sections, edge_rings, lower_maps, degree_bound
    )


def _boundary_coords(graph, stalks, edge_rings, up_edges, degree):
    layout = []
    for k in up_edges:
        e = graph.edges[k]
        ring = edge_rings[k]
        for j, gd in enumerate(stalks[e.v]):
            if gd <= degree:
                for m in reduced_monomials(ring.nvars, ring.pivot, degree - gd):
                    layout.append((k, j, m))
    return layout, {key: c for c, key in enumerate(layout)}


def _boundary_vector(field, elt, layout, pos):
    v = [field.zero] * len(layout)
    for (k, j), poly in elt.items():
        for e, c in poly.terms.items():
            v[pos[(k, j, e)]] = c
    return v


def _res_image(graph, field, edge_rings, stalks, up_edges, section):
    """Restriction of a section to the edge modules at the new vertex."""
    out = {}
    for k in up_edges:
        e = graph.edges[k]
        ring = edge_rings[k]
        polys = section.parts.get(e.v)
        if polys is None:
            continue
        for j, p in enumerate(polys):
            if not p.is_zero():
                red = ring.reduce(p)
                if not red.is_zero():
                    out[(k, j)] = red
    return out


def _raise_boundary_elt(field, nvars, elt, var, edge_rings):
    out = {}
    for (k, j), poly in elt.items():
        raised = edge_rings[k].reduce(poly.mul_var(var))
        if not raised.is_zero():
            out[(k, j)] = raised
    return out


def _attach_vertex(
    graph, field, nvars, v, up_edges, edge_rings, stalks, lower_maps,
    sections, sweep, r_v, char_p,
):
    # boundary module spans, degree by degree, with new-generator detection
    res_by_degree = {}
    for s in sections:
        img = _res_image(graph, field, edge_rings, stalks, up_edges, s)
        if img:
            res_by_degree.setdefault(s.degree, []).append(img)

    basis_elts = []  # spanning set of the boundary module in the current degree
    gen_degrees = []
    gen_images = []  # boundary elements: psi-images of the new stalk generators
    for d in range(sweep + 1):
        layout, pos = _boundary_coords(graph, stalks, edge_rings, up_edges, d)
        space = RowSpace(field, len(layout))
        new_elts = []
        for elt in basis_elts:
            for var in range(nvars):
                relt = _raise_boundary_elt(field, nvars, elt, var, edge_rings)
                if relt and space.add(_boundary_vector(field, relt, layout, pos)) is not None:
                    new_elts.append(relt)
        for img in res_by_degree.get(d, ()):
            vec = _boundary_vector(field, img, layout, pos)
            if space.add(vec) is not None:
                new_elts.append(img)
                if not char_p and d >= r_v:
                    raise DegreeBoundError(graph.interval.poset.names[v], d, r_v)
                if d == sweep:
                    raise TruncationBoundError(
                        f"boundary generator at the sweep bound {sweep}; raise it"
                    )
                gen_degrees.append(d)
                gen_images.append(img)
        basis_elts = new_elts

    stalks[v] = gen_degrees
    # the lower-endpoint edge maps: component of each psi-image, reduced
    for k in up_edges:
        e = graph.edges[k]
        n_target = len(stalks[e.v])
        lower_maps[k] = [
            [img.get((k, j), MultiPoly.zero(field, nvars)) for j in range(n_target)]
            for img in gen_images
        ]

    # lift every maintained section across the new stalk, and collect the
    # kernel of the cover map; both happen degree by degree through a tagged
    # echelon of psi-images of the stalk's monomial basis
    new_sections = []
    psi_spaces = {}

    def psi_space(d):
        if d not in psi_spaces:
            layout, pos = _boundary_coords(graph, stalks, edge_rings, up_edges, d)
            space = RowSpace(field, len(layout), tagged=True)
            kernel_elts = []
            for gi, gd in enumerate(gen_degrees):
                if gd > d:
                    continue
                for m in monomials(nvars, d - gd):
                    elt = gen_images[gi]
                    mpoly = MultiPoly(field, nvars, {m: field.from_int(1)})
                    shifted = {}
                    for (k, j), poly in elt.items():
                        prod = edge_rings[k].reduce(mpoly * poly)
                        if not prod.is_zero():
                            shifted[(k, j)] = prod
                    vec = _boundary_vector(field, shifted, layout, pos)
                    tag = {(gi, m): field.from_int(1)}
                    res, rtag = space.reduce(vec, tag)
                    if any(res):
                        space.add(vec, tag)
                    else:
                        # psi(combination) = 0: a kernel element of the cover
                        kernel_elts.append(rtag)
            psi_spaces[d] = (space, kernel_elts, layout, pos)
        return psi_spaces[d]

    for s in sections:
        space, _, layout, pos = psi_space(s.degree)
        img = _res_image(graph, field, edge_rings, stalks, up_edges, s)
        vec = _boundary_vector(field, img, layout, pos)
        res, tag = space.reduce(vec)
        if any(res):
            raise KlscError(
                "section restriction escaped the boundary module; "
                "flabbiness invariant broken"
            )
        # vec = -sum(tag) over psi-image tags, so m_s = -sum(tag) over stalk coords
        polys = [MultiPoly.zero(field, nvars) for _ in gen_degrees]
        for (gi, m), c in tag.items():
            polys[gi] = polys[gi] + MultiPoly(field, nvars, {m: field.neg(c)})
        parts = dict(s.parts)
        if any(not p.is_zero() for p in polys):
            parts[v] = polys
        new_sections.append(Section(s.degree, parts))

    # kernel of the cover map, with its own minimal generators
    kernel_gens = []
    kernel_basis_by_degree = {}
    for d in range(sweep + 1):
        _, kernel_elts, _, _ = psi_space(d)
        # coordinates of (M_v)_d: (generator, monomial)
        coords = []
        for gi, gd in enumerate(gen_degrees):
            if gd <= d:
                for m in monomials(nvars, d - gd):
                    coords.append((gi, m))
        cpos = {key: c for c, key in enumerate(coords)}
        span = RowSpace(field, len(coords))
        for kv in kernel_basis_by_degree.get(d - 1, ()):
            for var in range(nvars):
                raised = {}
                for (gi, m), c in kv.items():
                    e = list(m)
                    e[var] += 1
                    raised[(gi, tuple(e))] = c
                vec = [field.zero] * len(coords)
                for key, c in raised.items():
                    vec[cpos[key]] = c
                span.add(vec)
        stored = []
        for kt in kernel_elts:
            vec = [field.zero] * len(coords)
            for key, c in kt.items():
                vec[cpos[key]] = c
            if span.add(vec) is not None:
                if d == sweep:
                    raise TruncationBoundError(
                        f"cover-kernel generator at the sweep bound {sweep}"
                    )
                kernel_gens.append((d, dict(kt)))
        # keep a basis of the kernel in this degree for raising
        kernel_basis_by_degree[d] = [dict(kt) for kt in kernel_elts]

    for d, kt in kernel_gens:
        polys = [MultiPoly.zero(field, nvars) for _ in gen_degrees]
        for (gi, m), c in kt.items():
            polys[gi] = polys[gi] + MultiPoly(field, nvars, {m: c})
        new_sections.append(Section(d, {v: polys}))

    sections.clear()
    sections.extend(new_sections)


def structure_ring_dims(graph: MomentGraph, field, up_to):
    """Degreewise dimensions of the structure ring of the graph: tuples
    (f_i) of polynomials, one per vertex, with f_u = f_v mod alpha_E for
    every edge."""
    nvars = graph.group.rank
    edge_rings = {k: EdgeRing(field, nvars, e.label) for k, e in enumerate(graph.edges)}
    dims = []
    for d in range(up_to + 1):
        mons = monomials(nvars, d)
        mpos = {m: i for i, m in enumerate(mons)}
        nverts = len(graph.vertices)
        width = nverts * len(mons)
        space = RowSpace(field, width)
        for k, e in enumerate(graph.edges):
            ring = edge_rings[k]
            rmons = reduced_monomials(nvars, ring.pivot, d)
            rpos = {m: i for i, m in enumerate(rmons)}
            rows = [[field.zero] * width for _ in rmons]
            for m in mons:
                red = ring.reduce(MultiPoly(field, nvars, {m: field.from_int(1)}))
                for em, c in red.terms.items():
                    rows[rpos[em]][e.u * len(mons) + mpos[m]] = c
                    rows[rpos[em]][e.v * len(mons) + mpos[m]] = field.neg(c)
            for r in rows:
                space.add(r)
        dims.append(width - space.dim)
    return dims
