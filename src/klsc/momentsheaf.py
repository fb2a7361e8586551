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
polynomial vectors over the stalk generators.  A boundary element at u is
a flat {(edge, target generator, monomial): coefficient} dict over the
edge modules' monomials.  Passing u runs one tagged elimination per degree
d (RowSpace, tagged mode), which finds the new generators, lifts the
sections and yields the kernel of the cover map at once:

* first the psi-images of the generators below d, on the monomial basis
  (gen, m) of the free cover: the image of (gen, m / x_j) one degree down
  raised by x_j, the last variable dividing m (EdgeRing.times_var).  They
  span x * (M_{du})_{d-1}; an image in the span of the earlier ones leaves
  its tag, an element of the cover kernel;
* then the restrictions of the degree-d sections: one outside the span is
  a new stalk generator, tagged (gen, 1); any other is the psi-image of its
  tag, which lifts the section across the new stalk (flabbiness).

The cover kernel's minimal generators, the kernel elements outside the
previous degree's kernel raised by every variable, become sections
supported at u.
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
        self._times = {}

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

    def times_var(self, var, m):
        """x_var * x^m in R/alpha, for a monomial m free of the pivot, as
        (monomial, coefficient) pairs.  It is a shift of m unless var is
        the pivot, which alone is substituted; cached per ring."""
        key = (var, m)
        out = self._times.get(key)
        if out is None:
            one = self.field.from_int(1)
            e = m[:var] + (m[var] + 1,) + m[var + 1:]
            if var == self.pivot:
                out = tuple(self.reduce(MultiPoly(self.field, self.nvars, {e: one})).terms.items())
            else:
                out = ((e, one),)
            self._times[key] = out
        return out


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
    for key, c in elt.items():
        v[pos[key]] = c
    return v


def _res_image(graph, edge_rings, up_edges, section):
    """Restriction of a section to the edge modules at the new vertex, as
    a flat {(edge, generator, monomial): coefficient} dict."""
    out = {}
    for k in up_edges:
        polys = section.parts.get(graph.edges[k].v)
        if polys is None:
            continue
        ring = edge_rings[k]
        for j, p in enumerate(polys):
            if not p.is_zero():
                for e, c in ring.reduce(p).terms.items():
                    out[(k, j, e)] = c
    return out


def _raise_boundary_elt(field, elt, var, edge_rings):
    """x_var times a boundary element, reduced edge by edge."""
    add, mul, is_zero = field.add, field.mul, field.is_zero
    out = {}
    for (k, j, m), c in elt.items():
        for e, a in edge_rings[k].times_var(var, m):
            key = (k, j, e)
            out[key] = add(out[key], mul(c, a)) if key in out else mul(c, a)
    return {key: c for key, c in out.items() if not is_zero(c)}


def _stalk_polys(field, nvars, ngens, coords):
    """Per generator, the polynomial of a {(generator, monomial):
    coefficient} dict."""
    terms = [{} for _ in range(ngens)]
    for (gi, m), c in coords.items():
        terms[gi][m] = c
    return [MultiPoly(field, nvars, t) for t in terms]


def _attach_vertex(
    graph, field, nvars, v, up_edges, edge_rings, stalks, lower_maps,
    sections, sweep, r_v, char_p,
):
    by_degree = {}
    for si, s in enumerate(sections):
        by_degree.setdefault(s.degree, []).append(si)
    one = field.from_int(1)
    origin = (0,) * nvars

    gen_degrees = []
    gen_images = []  # boundary elements: psi-images of the new stalk generators
    lifts = {}  # section index -> {(generator, monomial): coefficient} at v
    kernel_gens = []
    images = {}  # (generator, monomial) -> psi-image, in the current degree
    kernel = []  # tags of the cover kernel, a basis in the current degree
    for d in range(sweep + 1):
        layout, pos = _boundary_coords(graph, stalks, edge_rings, up_edges, d)
        space = RowSpace(field, len(layout), tagged=True)
        # psi on the monomial basis (gen, m) of the free cover in degree d,
        # generators below d first: the image of (gen, m / x_j) raised by
        # x_j, the last variable dividing m.  A dependent image leaves the
        # tag of a cover-kernel element.
        prev, images = images, {}
        prev_kernel, kernel = kernel, []
        for gi, gd in enumerate(gen_degrees):
            for m in monomials(nvars, d - gd):
                last = max(j for j, e in enumerate(m) if e)
                down = m[:last] + (m[last] - 1,) + m[last + 1:]
                img = _raise_boundary_elt(field, prev[(gi, down)], last, edge_rings)
                images[(gi, m)] = img
                vec = _boundary_vector(field, img, layout, pos)
                res, rtag = space.reduce(vec, {(gi, m): one})
                if any(res):
                    space.add(res, rtag)
                else:
                    kernel.append(rtag)
        # then the restrictions of the degree-d sections: one outside the
        # span is a new stalk generator, tagged (gen, 1); any other is the
        # psi-image of minus its residual's tag
        for si in by_degree.get(d, ()):
            img = _res_image(graph, edge_rings, up_edges, sections[si])
            if not img:
                continue
            res, rtag = space.reduce(_boundary_vector(field, img, layout, pos))
            if not any(res):
                lifts[si] = {key: field.neg(c) for key, c in rtag.items()}
                continue
            if not char_p and d >= r_v:
                raise DegreeBoundError(graph.interval.poset.names[v], d, r_v)
            if d == sweep:
                raise TruncationBoundError(
                    f"boundary generator at the sweep bound {sweep}; raise it"
                )
            gi = len(gen_degrees)
            gen_degrees.append(d)
            gen_images.append(img)
            images[(gi, origin)] = img
            rtag[(gi, origin)] = one
            space.add(res, rtag)
            lifts[si] = {(gi, origin): one}
        # minimal generators of the cover kernel: the kernel elements
        # outside the span of the previous degree's kernel raised by every
        # variable
        if not kernel:
            continue
        coords = []
        for gi, gd in enumerate(gen_degrees):
            if gd <= d:
                for m in monomials(nvars, d - gd):
                    coords.append((gi, m))
        cpos = {key: c for c, key in enumerate(coords)}
        span = RowSpace(field, len(coords))
        for kv in prev_kernel:
            for var in range(nvars):
                vec = [field.zero] * len(coords)
                for (gi, m), c in kv.items():
                    vec[cpos[(gi, m[:var] + (m[var] + 1,) + m[var + 1:])]] = c
                span.add(vec)
        for kt in kernel:
            vec = [field.zero] * len(coords)
            for key, c in kt.items():
                vec[cpos[key]] = c
            if span.add(vec) is not None:
                if d == sweep:
                    raise TruncationBoundError(
                        f"cover-kernel generator at the sweep bound {sweep}"
                    )
                kernel_gens.append((d, kt))

    stalks[v] = gen_degrees
    # the lower-endpoint edge maps: component of each psi-image, reduced
    for k in up_edges:
        n_target = len(stalks[graph.edges[k].v])
        lower_maps[k] = [
            _stalk_polys(
                field, nvars, n_target,
                {(j, m): c for (kk, j, m), c in img.items() if kk == k},
            )
            for img in gen_images
        ]

    # every section extends across the new stalk by its lift
    ngens = len(gen_degrees)
    new_sections = []
    for si, s in enumerate(sections):
        parts = dict(s.parts)
        if si in lifts:
            parts[v] = _stalk_polys(field, nvars, ngens, lifts[si])
        new_sections.append(Section(s.degree, parts))
    # and the kernel of the cover map is carried by sections supported at v
    for d, kt in kernel_gens:
        new_sections.append(Section(d, {v: _stalk_polys(field, nvars, ngens, kt)}))

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
