"""Rational polyhedral fans: cones, face lattices, conewise polynomials.

Cones are generated by primitive integer ray vectors.  Face enumeration
works by listing candidate facet hyperplanes (spanned by rays) and
intersecting them, which is entirely adequate at desk scale (ambient
dimension <= 5, a dozen rays).  All arithmetic is exact.

The face poset of a fan is ordered by reverse inclusion and ranked by
codimension, so for the fan of a single full cone the bottom element is
the cone itself and the top is the origin.

Polynomial functions on a cone are written in coordinates dual to a basis
of the cone's linear span chosen among its rays; restriction maps between
faces are linear substitutions in those coordinates.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from klsc.errors import InvalidInputError
from klsc.field import QQ, read_int
from klsc.graded import FreeModuleShape
from klsc.linalg import RowSpace, kernel_basis, solve_linear
from klsc.poly import MultiPoly, monomials
from klsc.poset import RankedPoset


def _primitive(vec):
    ints = [read_int(v) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        raise InvalidInputError("zero ray vector")
    ints = [v // g for v in ints]
    return tuple(ints)


def _rank_int(rows, ncols):
    space = RowSpace(QQ, ncols)
    for r in rows:
        space.add(r)
    return space.dim


class Cone:
    """A pointed rational cone, normalized to its extreme rays."""

    def __init__(self, rays, ambient_dim, _trusted=False):
        self.ambient_dim = ambient_dim
        if not _trusted:
            rays = tuple(sorted({_primitive(r) for r in rays}))
        self.rays = tuple(rays)
        self.dim = _rank_int(self.rays, ambient_dim) if self.rays else 0
        self._span_basis = None

    def span_basis(self):
        """An independent subset of the rays spanning the cone's span,
        chosen greedily in sorted ray order (deterministic)."""
        if self._span_basis is None:
            space = RowSpace(QQ, self.ambient_dim)
            basis = []
            for r in self.rays:
                if space.add(r) is not None:
                    basis.append(r)
            self._span_basis = basis
        return self._span_basis

    def facet_normals(self):
        """Primitive normals n with n.r >= 0 for all rays, each vanishing
        on a rank (dim-1) subset of rays; computed within the span."""
        k = self.dim
        d = self.ambient_dim
        if k == 0:
            return []
        span = self.span_basis()
        normals = {}
        # complement of the span, so candidate normals stay inside it
        span_perp = kernel_basis(span, d, QQ)
        for subset in itertools.combinations(self.rays, k - 1):
            if _rank_int(subset, d) != k - 1:
                continue
            # normal inside span: orthogonal to subset and to span-perp
            ker = kernel_basis(list(subset) + span_perp, d, QQ)
            if len(ker) != 1:
                continue
            n = tuple(ker[0].get(c, 0) for c in range(d))  # primitive already
            sides = [_dot(n, r) for r in self.rays]
            if all(s >= 0 for s in sides):
                normals[n] = True
            elif all(s <= 0 for s in sides):
                normals[tuple(-c for c in n)] = True
        return sorted(normals)

    def is_pointed(self):
        if self.dim == 0:
            return True
        return _rank_int(self.facet_normals(), self.ambient_dim) == self.dim

    def faces(self):
        """All faces, as tuples of rays (the full cone and the origin
        included).  Requires the cone to be pointed."""
        if not self.is_pointed():
            raise InvalidInputError("cone is not pointed")
        normals = self.facet_normals()
        seen = {self.rays: None}
        frontier = [self.rays]
        while frontier:
            nxt = []
            for rays in frontier:
                for n in normals:
                    sub = tuple(r for r in rays if _dot(n, r) == 0)
                    if sub != rays and sub not in seen:
                        seen[sub] = None
                        nxt.append(sub)
            frontier = nxt
        if () not in seen:
            seen[()] = None
        for r in self.rays:
            if (r,) not in seen:
                raise InvalidInputError(f"generator {r} is not an extreme ray")
        return sorted(seen, key=lambda f: (len(f), f))

    def extreme_rays(self):
        """Extreme rays of the cone generated by the input rays."""
        if self.dim == 0:
            return ()
        normals = self.facet_normals()
        out = []
        for r in self.rays:
            active = [n for n in normals if _dot(n, r) == 0]
            if _rank_int(active, self.ambient_dim) >= self.dim - 1:
                out.append(r)
        return tuple(out)

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={list(self.rays)})"


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _rationals_to_primitive(vec):
    den = lcm(*(v.denominator for v in vec))
    return _primitive([int(v * den) for v in vec])


class Fan:
    """A finite fan: a set of cones closed under taking faces, with
    pairwise intersections along common faces."""

    def __init__(self, ambient_dim, ray_vectors, cone_ray_ids):
        self.ambient_dim = ambient_dim
        self.rays = [tuple(r) for r in ray_vectors]
        # cones as sorted tuples of ray indices, deduplicated, face-closed
        self.cones = sorted(set(map(tuple, cone_ray_ids)), key=lambda c: (len(c), c))
        self.index = {c: i for i, c in enumerate(self.cones)}
        self._cone_objs = {}

    @staticmethod
    def from_cone(cone: Cone) -> "Fan":
        faces = cone.faces()
        ray_list = sorted({r for f in faces for r in f})
        ray_id = {r: i for i, r in enumerate(ray_list)}
        cone_ids = [tuple(sorted(ray_id[r] for r in f)) for f in faces]
        return Fan(cone.ambient_dim, ray_list, cone_ids)

    @staticmethod
    def from_max_cones(ambient_dim, ray_vectors, max_cones) -> "Fan":
        ambient_dim = read_int(ambient_dim)
        rays = [_primitive(r) for r in ray_vectors]
        if len(set(rays)) != len(rays):
            raise InvalidInputError("duplicate rays")
        ray_id = {r: i for i, r in enumerate(rays)}
        all_ids = set()
        for idxs in max_cones:
            idxs = [read_int(i) for i in idxs]
            if not all(0 <= i < len(rays) for i in idxs):
                raise InvalidInputError(f"cone {idxs}: ray index out of range")
            c = Cone([rays[i] for i in idxs], ambient_dim)
            if set(c.rays) != {rays[i] for i in idxs}:
                raise InvalidInputError(
                    f"cone {idxs}: listed rays are not exactly its extreme rays"
                )
            for f in c.faces():
                all_ids.add(tuple(sorted(ray_id[r] for r in f)))
        fan = Fan(ambient_dim, rays, sorted(all_ids))
        fan._validate_pairwise()
        return fan

    def _validate_pairwise(self):
        """Desk-scale fan validity: for every pair of maximal cones, some
        facet normal of one separates them along their common rays."""
        maxc = self.maximal_cones()
        for a, b in itertools.combinations(maxc, 2):
            ca, cb = self.cone_obj(a), self.cone_obj(b)
            common = set(self.cones[a]) & set(self.cones[b])
            if tuple(sorted(common)) not in self.index:
                raise InvalidInputError("common rays of two cones are not a face")
            cert = None
            for n in ca.facet_normals() + [
                tuple(-c for c in n) for n in cb.facet_normals()
            ]:
                if all(_dot(n, self.rays[i]) == 0 for i in common) and all(
                    _dot(n, r) >= 0 for r in ca.rays
                ) and all(_dot(n, r) <= 0 for r in cb.rays):
                    cert = n
                    break
            if cert is None and common != set(self.cones[a]) | set(self.cones[b]):
                raise InvalidInputError(
                    "no separating certificate for a pair of maximal cones"
                )

    def cone_obj(self, i) -> Cone:
        if i not in self._cone_objs:
            self._cone_objs[i] = Cone(
                [self.rays[j] for j in self.cones[i]], self.ambient_dim
            )
        return self._cone_objs[i]

    def n_cones(self):
        return len(self.cones)

    def dim_of(self, i):
        return self.cone_obj(i).dim

    def max_dim(self):
        return max(self.dim_of(i) for i in range(len(self.cones)))

    def maximal_cones(self):
        """Cones not properly contained in another cone of the fan."""
        out = []
        for i, c in enumerate(self.cones):
            if not any(
                set(c) < set(other) for other in self.cones
            ):
                out.append(i)
        return out

    def face_ids(self, i):
        """Indices of all faces of cone i (including itself)."""
        cset = set(self.cones[i])
        return [j for j, c in enumerate(self.cones) if set(c) <= cset]

    def subfan(self, cone_ids):
        """Closure of the given cones under faces, as a list of cone ids."""
        out = set()
        for i in cone_ids:
            out.update(self.face_ids(i))
        return sorted(out)

    def boundary_subfan(self, i):
        """All proper faces of cone i."""
        return [j for j in self.face_ids(i) if j != i]

    def counts_by_dimension(self):
        out = {}
        for i in range(len(self.cones)):
            out[self.dim_of(i)] = out.get(self.dim_of(i), 0) + 1
        return [out.get(d, 0) for d in range(self.max_dim() + 1)]

    def __repr__(self):
        return f"Fan(dim={self.ambient_dim}, cones={len(self.cones)})"


def face_lattice(rays, ambient_dim) -> Fan:
    """The fan of a single pointed cone and all of its faces."""
    cone = Cone(rays, ambient_dim)
    if not cone.is_pointed():
        raise InvalidInputError("cone is not pointed")
    return Fan.from_cone(cone)


def cone_over_polytope(vertices) -> Fan:
    """The fan of the cone over (polytope x {1}) and its faces.

    Vertices are rational vectors in dimension d-1; they must affinely
    span.  Interior (non-extreme) points are discarded."""
    vs = [tuple(QQ.parse(c) for c in v) for v in vertices]
    if not vs:
        raise InvalidInputError("empty vertex set")
    d = len(vs[0]) + 1
    if any(len(v) != d - 1 for v in vs):
        raise InvalidInputError("vertices of mixed dimension")
    rays = []
    for v in vs:
        lifted = list(v) + [QQ.from_int(1)]
        rays.append(_rationals_to_primitive(lifted))
    rays = sorted(set(rays))
    probe = Cone(rays, d)
    if probe.dim != d:
        raise InvalidInputError("vertices do not affinely span")
    extreme = probe.extreme_rays()
    return Fan.from_cone(Cone(extreme, d, _trusted=True))


def fan_face_poset(fan: Fan) -> RankedPoset:
    """Cones ordered by reverse inclusion, ranked by codimension inside
    the fan's maximal dimension."""
    dmax = fan.max_dim()
    ranks = [dmax - fan.dim_of(i) for i in range(fan.n_cones())]
    covers = []
    for i, ci in enumerate(fan.cones):
        for j, cj in enumerate(fan.cones):
            if fan.dim_of(j) == fan.dim_of(i) - 1 and set(cj) < set(ci):
                covers.append((i, j))
    names = ["(" + ",".join(map(str, c)) + ")" for c in fan.cones]
    return RankedPoset(ranks, covers, names=names)


# -- conewise polynomial functions ----------------------------------------------


class ConeChart:
    """Coordinates on the span of a cone: a span basis among its rays and
    the expression of ambient linear functionals in those coordinates."""

    def __init__(self, fan, cone_id):
        self.fan = fan
        self.cone_id = cone_id
        cone = fan.cone_obj(cone_id)
        self.nvars = cone.dim
        self.basis = cone.span_basis()  # integer columns b_1..b_k

    def ambient_var_forms(self):
        """Row a: the restriction of ambient coordinate x_a, as a linear
        form in the chart coordinates (coefficients = row a of the basis
        matrix)."""
        return [[b[a] for b in self.basis] for a in range(self.fan.ambient_dim)]

    def restriction_matrix(self, sub: "ConeChart"):
        """Matrix C with chart var u_i = sum_j C[i][j] w_j on the subspace
        spanned by sub's basis; i.e. solve B u = B_sub w columnwise."""
        rows = self.ambient_var_forms()
        cols = [solve_linear(rows, b, QQ) for b in sub.basis]
        # cols[j][i] = coefficient of u_i for w_j; transpose to rows per u_i
        return [[cols[j][i] for j in range(len(sub.basis))] for i in range(self.nvars)]


class StructureSections:
    """Sections of the structure sheaf on a subfan: tuples of polynomials
    on the maximal cones agreeing on pairwise common faces, with the
    module structure over the ambient polynomial ring."""

    def __init__(self, fan: Fan, cone_ids=None, bound=4):
        self.fan = fan
        self.bound = bound
        sub = fan.subfan(cone_ids if cone_ids is not None else range(fan.n_cones()))
        self.cone_ids = sub
        subset = set(sub)
        self.max_ids = [
            i for i in sub if not any(set(fan.cones[i]) < set(fan.cones[j]) for j in sub)
        ]
        self.charts = {i: ConeChart(fan, i) for i in self.max_ids}
        self._pair_faces = {}
        for a, b in itertools.combinations(self.max_ids, 2):
            common = tuple(sorted(set(fan.cones[a]) & set(fan.cones[b])))
            self._pair_faces[(a, b)] = fan.index[common]
        self.bases = []  # per degree: list of tuples of MultiPoly per max cone
        self._compute()

    def _compute(self):
        fan = self.fan
        field = QQ
        for d in range(self.bound + 1):
            layout = []
            for i in self.max_ids:
                for m in monomials(self.charts[i].nvars, d):
                    layout.append((i, m))
            nrows = []
            for (a, b), f in self._pair_faces.items():
                chart_f = ConeChart(fan, f)
                if chart_f.nvars == 0 and d > 0:
                    continue
                ra = self.charts[a].restriction_matrix(chart_f)
                rb = self.charts[b].restriction_matrix(chart_f)
                fmons = monomials(chart_f.nvars, d)
                fpos = {m: i for i, m in enumerate(fmons)}
                rows = [{} for _ in fmons]
                for c, (i, m) in enumerate(layout):
                    if i == a:
                        mat = ra
                        sign = field.from_int(1)
                    elif i == b:
                        mat = rb
                        sign = field.neg(field.from_int(1))
                    else:
                        continue
                    poly = MultiPoly(field, self.charts[i].nvars, {m: sign})
                    restricted = poly.substitute_linear(mat, chart_f.nvars)
                    for em, cc in restricted.terms.items():
                        rows[fpos[em]][c] = cc
                nrows.extend(rows)
            basis_d = []
            for vec in kernel_basis(nrows, len(layout), field):
                parts = {}
                for c in sorted(vec):
                    i, m = layout[c]
                    parts.setdefault(i, {})[m] = vec[c]
                basis_d.append(
                    {
                        i: MultiPoly(field, self.charts[i].nvars, terms)
                        for i, terms in parts.items()
                    }
                )
            self.bases.append(basis_d)

    def dims(self):
        return [len(b) for b in self.bases]

    def _vector(self, elem, pos):
        return {pos[(i, m)]: c for i, poly in elem.items() for m, c in poly.terms.items()}

    def generator_shape(self) -> FreeModuleShape:
        """Minimal generator degrees over the ambient polynomial ring."""
        field = QQ
        degrees = []
        for d in range(self.bound + 1):
            layout = []
            for i in self.max_ids:
                for m in monomials(self.charts[i].nvars, d):
                    layout.append((i, m))
            pos = {key: c for c, key in enumerate(layout)}
            space = RowSpace(field, len(layout))
            if d:
                for elem in self.bases[d - 1]:
                    for a in range(self.fan.ambient_dim):
                        raised = {}
                        for i, poly in elem.items():
                            form = self.charts[i].ambient_var_forms()[a]
                            lf = MultiPoly.linear_form(field, form)
                            prod = poly * lf
                            if not prod.is_zero():
                                raised[i] = prod
                        space.add(self._vector(raised, pos))
            base_dim = space.dim
            for elem in self.bases[d]:
                space.add(self._vector(elem, pos))
            degrees.extend([d] * (space.dim - base_dim))
        return FreeModuleShape(degrees)

    def is_free(self):
        shape = self.generator_shape()
        # compare true dimensions with those of the free module on the
        # generators over the ring of a maximal chart
        nv = self.fan.ambient_dim
        return self.dims() == shape.free_dims(nv, self.bound)


# -- the fan sheaf: local model for the generic recursion --------------------------


class FanLocalModel:
    """Boundary module at a cone tau = the sections of the sheaf over the
    proper faces of tau, viewed as a module over R_tau = polynomials on
    the span of tau."""

    def __init__(self, fan: Fan):
        self.fan = fan
        self.field = QQ
        self.charts = {i: ConeChart(fan, i) for i in range(fan.n_cones())}

    def nvars(self, x):
        return self.charts[x].nvars

    def boundary(self, x, view):
        from klsc.graded import GradedModule

        chart_x = self.charts[x]
        bound = view.sheaf.bound
        ambient_dims = [len(view.layout(d)) for d in range(bound + 1)]
        restr = {y: chart_x.restriction_matrix(self.charts[y]) for y in view.elems}
        raising = [
            [
                view.sheaf.raising(view.elems, d, lambda y: restr[y][v])
                for d in range(bound)
            ]
            for v in range(chart_x.nvars)
        ]
        module = GradedModule(
            self.field, chart_x.nvars, bound, ambient_dims, view.bases, raising
        )
        # the module is F(>x) itself: res is the identity
        return module, [[] for _ in range(bound + 1)], lambda d, v: v


def build_fan_sheaf(fan: Fan):
    """The sheaf of the fan via the generic recursion.  Returns
    (poset, sheaf); poset element i corresponds to cone i."""
    from klsc.sheaf import build_sheaf

    poset = fan_face_poset(fan)
    sheaf = build_sheaf(poset, FanLocalModel(fan))
    return poset, sheaf


def g_polynomial(vertices):
    """g-polynomial of the polytope with the given vertices, as the
    Poincare polynomial of the reduced sheaf stalk on the cone over it."""
    fan = cone_over_polytope(vertices)
    poset, sheaf = build_fan_sheaf(fan)
    bottom = poset.bottom()
    return sheaf.stalk_poincare(bottom)
