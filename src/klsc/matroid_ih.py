"""Intersection cohomology sheaves of matroids over k[h].

The sheaf on the lattice of flats assigns to the minimal open set above a
flat F the sections of the same construction for the contraction at F, so
the whole computation is organized around contractions: the sheaf of a
matroid is computed once per isomorphism class (uniform and boolean tags
collapse repeated contractions), and a parent reads its stalks and its
atom constraints out of its children.

Everything is degreewise linear algebra over the one-variable ring k[h],
in localization coordinates: a section over an upper set Q of the lattice
is the tuple of its components in the free stalk modules M_F, F in Q, and

* the sections over the punctured lattice L minus its bottom are the
  tuples whose restriction to [A, E] lies in the contraction's section
  space, for every atom A;
* the boundary module at the bottom is the quotient of those sections by
  the images of y_G for every flat G > bottom, where y_G scales the
  M_H-component by h^{rk G} when G <= H and kills it otherwise;
* the bottom stalk is the minimal free cover of that quotient, and its
  reduced Poincare polynomial is the KL-polynomial; the reduced global
  sections give the Z-polynomial.

Over GF(p) the same recursion runs unchanged except that boundary
generators at or above half-degree rk(E) - rk(F) are retained rather than
rejected; they are what make the mod-p polynomials differ.
"""

from __future__ import annotations

from klsc.errors import DegreeBoundError, TruncationBoundError
from klsc.field import QQ
from klsc.graded import FreeModuleShape, GradedModule
from klsc.linalg import RowSpace, kernel_basis, load_numpy, matvec
from klsc.matroids import Matroid
from klsc.poly import UniPoly

_MEMO = {}


def matroid_sheaf(matroid: Matroid, field=QQ) -> "MatroidIHSheaf":
    key = (matroid.canonical_key(), field.characteristic)
    if key not in _MEMO:
        _MEMO[key] = MatroidIHSheaf(matroid, field)
    return _MEMO[key]


class MatroidIHSheaf:
    """The sheaf of one matroid, with lazily extendable degree data."""

    def __init__(self, matroid: Matroid, field):
        self.matroid = matroid
        self.field = field
        self.rank = matroid.rank
        self.flats = matroid.flats()
        self.lattice = matroid.lattice()
        self.enforce = field.characteristic == 0
        self.np_vectors = field.characteristic > 0
        self._np = load_numpy() if self.np_vectors else None

        L = self.lattice
        self.leq = L.leq
        self.bottom = 0  # flats are sorted by rank, the empty flat first

        self.children = []  # (atom flat index, child sheaf, parent->child flat map)
        self.stalk_shapes = [None] * len(self.flats)
        if self.rank == 0:
            self.stalk_shapes[0] = (0,)
        else:
            atoms = [i for i in L.elements() if L.rank[i] == 1]
            for a in atoms:
                child_matroid, relabel = matroid.contract(self.flats[a])
                child = matroid_sheaf(child_matroid, field)
                fmap = {}
                for j in L.elements():
                    if L.leq(a, j):
                        image = frozenset(relabel[e] for e in self.flats[j] - self.flats[a])
                        fmap[j] = child.flats.index(image)
                self.children.append((a, child, fmap))
            for j in L.elements():
                if j == self.bottom:
                    continue
                a, child, fmap = next(
                    c for c in self.children if L.leq(c[0], j)
                )
                self.stalk_shapes[j] = child.stalk_shapes[fmap[j]]

        # per-degree data, extended on demand
        self._proper = []  # RowSpace of F(L - bottom) per degree
        self._new_f = []  # basis vectors new in this degree
        self._nspace = []  # span of the y-action images per degree
        self._lifts = []  # (degree, vector) per bottom stalk generator
        self._bottom_gens = []
        self._sect_dims = []
        self._z_gens = []
        self._full = {}
        self._annihilators = {}
        self._max_degree = -1

        if self.rank == 0:
            self._bottom_gens = [0]
        self._ensure(self.rank + 1)
        self.stalk_shapes[self.bottom] = tuple(self._bottom_gens)
        if self._z_gens and max(self._z_gens) > self.rank:
            raise TruncationBoundError(
                "global section generator above the lattice rank"
            )

    # -- coordinate layouts -----------------------------------------------------------

    def proper_layout(self, d):
        out = []
        for j in range(1, len(self.flats)):
            for gi, gd in enumerate(self.stalk_shapes[j]):
                if gd <= d:
                    out.append((j, gi))
        return out

    def full_layout(self, d):
        out = [
            (0, gi)
            for gi, gd in enumerate(self.stalk_shapes[0] or ())
            if gd <= d
        ]
        out.extend(self.proper_layout(d))
        return out

    @staticmethod
    def _reindex(vec, old_layout, new_pos, field, scale=None):
        out = [field.zero] * len(new_pos)
        for c, key in enumerate(old_layout):
            a = vec[c]
            if not field.is_zero(a):
                out[new_pos[key]] = a if scale is None else field.mul(a, scale)
        return out

    def _scatter(self, vec, positions, size):
        """Place vec[i] at positions[i] in a fresh vector of the given
        size; vectorized over GF(p), where vectors are arrays."""
        if self.np_vectors:
            out = self._np.zeros(size, dtype=self._np.int64)
            out[positions] = vec
            return out
        out = [0] * size
        for a, p in zip(vec, positions):
            if a:
                out[p] = a
        return out

    def _gather_scatter(self, vec, src_positions, dst_positions, size):
        """out[dst[i]] = vec[src[i]], zero elsewhere."""
        if self.np_vectors:
            out = self._np.zeros(size, dtype=self._np.int64)
            out[dst_positions] = vec[src_positions]
            return out
        out = [0] * size
        for s, d in zip(src_positions, dst_positions):
            if vec[s]:
                out[d] = vec[s]
        return out

    # -- the degree sweep ----------------------------------------------------------------

    def _ensure(self, d):
        while self._max_degree < d:
            self._extend_one()

    def _extend_one(self):
        d = self._max_degree + 1
        field = self.field
        if self.rank == 0:
            # single flat: sections are the free rank-one module
            self._sect_dims.append(1)
            if d == 0:
                self._z_gens.append(0)
            self._max_degree = d
            return

        layout = self.proper_layout(d)
        pos = {key: c for c, key in enumerate(layout)}
        size = len(layout)

        def shift_positions(src_layout):
            out = [pos[key] for key in src_layout]
            return self._np.array(out, dtype=self._np.intp) if self.np_vectors else out

        rows = []
        for a, child, fmap in self.children:
            child._ensure(d)
            child_layout = child.full_layout(d)
            child_ann = child.annihilator(d)
            inv = {v: k for k, v in fmap.items()}
            positions = [pos[(inv[cf], gi)] for (cf, gi) in child_layout]
            if self.np_vectors:
                positions = self._np.array(positions, dtype=self._np.intp)
            for func in child_ann:
                rows.append(self._scatter(func, positions, size))
        fspace = RowSpace(field, size)
        for v in kernel_basis(rows, size, field):
            fspace.add(v)
        self._proper.append(fspace)

        prev_shift = None
        if d:
            prev_shift = shift_positions(self.proper_layout(d - 1))

        # vectors new in this degree (not shifts of degree d-1 sections)
        shift_span = RowSpace(field, size)
        if d:
            for v in self._proper[d - 1].basis():
                shift_span.add(self._scatter(v, prev_shift, size))
        new = []
        for v in fspace.basis():
            if shift_span.add(v) is not None:
                new.append(v)
        self._new_f.append(new)

        # span of the y-action images: N_d = h N_{d-1} + sum y_G (new F)
        nspace = RowSpace(field, size)
        if d:
            for v in self._nspace[d - 1].basis():
                nspace.add(self._scatter(v, prev_shift, size))
        for g in range(1, len(self.flats)):
            rg = self.lattice.rank[g]
            if rg > d or not self._new_f[d - rg]:
                continue
            src_layout = self.proper_layout(d - rg)
            src_positions = []
            dst_positions = []
            for c, (h, gi) in enumerate(src_layout):
                if self.leq(g, h):
                    src_positions.append(c)
                    dst_positions.append(pos[(h, gi)])
            if self.np_vectors:
                src_positions = self._np.array(src_positions, dtype=self._np.intp)
                dst_positions = self._np.array(dst_positions, dtype=self._np.intp)
            for v in self._new_f[d - rg]:
                nspace.add(
                    self._gather_scatter(v, src_positions, dst_positions, size)
                )
        self._nspace.append(nspace)

        # minimal generators of the boundary quotient in this degree
        big = nspace.copy()
        if d:
            for v in self._proper[d - 1].basis():
                big.add(self._scatter(v, prev_shift, size))
        for v in fspace.basis():
            if big.add(v) is not None:
                if self.enforce and d >= self.rank:
                    raise DegreeBoundError(self.lattice.names[0], d, self.rank)
                if d == self.rank + 1:
                    raise TruncationBoundError(
                        "boundary generator at the sweep margin; raise the bound"
                    )
                self._bottom_gens.append(d)
                self._lifts.append((d, list(v)))

        n_bottom = sum(1 for g in self._bottom_gens if g <= d)
        self._sect_dims.append(n_bottom + nspace.dim)
        prev = self._sect_dims[d - 1] if d else 0
        gens = self._sect_dims[d] - prev
        if gens < 0:
            raise TruncationBoundError("section dimensions decreased")
        self._z_gens.extend([d] * gens)
        self._max_degree = d

    # -- derived data ---------------------------------------------------------------------

    def kl_polynomial(self) -> UniPoly:
        return FreeModuleShape(self.stalk_shapes[self.bottom]).poincare()

    def z_polynomial(self) -> UniPoly:
        return FreeModuleShape(self._z_gens).poincare()

    def stalk_poincare(self, flat_index) -> UniPoly:
        return FreeModuleShape(self.stalk_shapes[flat_index]).poincare()

    def global_shape(self) -> FreeModuleShape:
        return FreeModuleShape(self._z_gens)

    def section_dims(self, up_to):
        self._ensure(up_to)
        return list(self._sect_dims[: up_to + 1])

    def full_basis(self, d):
        """Echelon basis of the global sections at degree d, in full
        localization coordinates (bottom stalk block included)."""
        self._ensure(d)
        if d not in self._full:
            field = self.field
            if self.rank == 0:
                space = RowSpace(field, 1)
                space.add([field.from_int(1)])
                self._full[d] = space
                return space
            layout = self.full_layout(d)
            pos = {key: c for c, key in enumerate(layout)}
            proper_layout = self.proper_layout(d)
            fbasis = self._proper[d].basis()
            gens_active = [
                (gi, gd) for gi, gd in enumerate(self.stalk_shapes[0]) if gd <= d
            ]
            # unknowns: coefficients over fbasis, then bottom-stalk coords
            nf = len(fbasis)
            nm = len(gens_active)
            residuals = []
            nred = self._nspace[d]
            for v in fbasis:
                res, _ = nred.reduce(v)
                residuals.append(res)
            for gi, gd in gens_active:
                lift_deg, lift_vec = self._lifts[gi]
                shifted = self._reindex(
                    lift_vec,
                    self.proper_layout(lift_deg),
                    {key: c for c, key in enumerate(proper_layout)},
                    field,
                )
                res, _ = nred.reduce(shifted)
                residuals.append([field.neg(x) for x in res])
            rows = [
                [residuals[j][c] for j in range(nf + nm)]
                for c in range(len(proper_layout))
            ]
            space = RowSpace(field, len(layout))
            for sol in kernel_basis(rows, nf + nm, field):
                vec = [field.zero] * len(layout)
                for j in range(nf):
                    a = sol[j]
                    if field.is_zero(a):
                        continue
                    for c, key in enumerate(proper_layout):
                        x = fbasis[j][c]
                        if not field.is_zero(x):
                            vec[pos[key]] = field.add(vec[pos[key]], field.mul(a, x))
                for jj, (gi, gd) in enumerate(gens_active):
                    a = sol[nf + jj]
                    if not field.is_zero(a):
                        vec[pos[(0, gi)]] = a
                space.add(vec)
            if space.dim != self._sect_dims[d]:
                raise TruncationBoundError(
                    "global section basis dimension mismatch"
                )
            self._full[d] = space
        return self._full[d]

    def annihilator(self, d):
        """Functionals on the full layout vanishing exactly on the global
        sections at degree d."""
        if d not in self._annihilators:
            space = self.full_basis(d)
            self._annihilators[d] = kernel_basis(
                space.basis(), space.ncols, self.field
            )
        return self._annihilators[d]


# -- public operations ------------------------------------------------------------------


def kl_polynomial(matroid: Matroid, field=QQ) -> UniPoly:
    """The Kazhdan-Lusztig polynomial of the matroid: Poincare polynomial
    of the reduced bottom stalk of the sheaf."""
    return matroid_sheaf(matroid, field).kl_polynomial()


def z_polynomial_sheaf(matroid: Matroid, field=QQ) -> UniPoly:
    """The Z-polynomial: Poincare polynomial of the reduced global
    sections of the sheaf."""
    return matroid_sheaf(matroid, field).z_polynomial()


def all_stalk_polynomials(matroid: Matroid, field=QQ):
    """Flat index -> Poincare polynomial of the reduced stalk there."""
    sheaf = matroid_sheaf(matroid, field)
    return {j: sheaf.stalk_poincare(j) for j in range(len(sheaf.flats))}


def shifted_stalk_shape(matroid: Matroid, field=QQ) -> FreeModuleShape:
    """Multiset union over flats F of the stalk shape shifted by rk F; by
    the basis-lifting theorem this equals the global section shape."""
    sheaf = matroid_sheaf(matroid, field)
    degrees = []
    for j, f in enumerate(sheaf.flats):
        shift = sheaf.lattice.rank[j]
        degrees.extend(g + shift for g in sheaf.stalk_shapes[j])
    return FreeModuleShape(degrees)


# -- local model for the generic poset-sheaf engine (validation path) ---------------------


class MatroidLocalModel:
    """Boundary module at a flat F: the quotient of the sections over the
    open interval (F, E] by the images of y_G for all flats G > F.  This
    is the same construction the fast path runs; it exists so the generic
    engine can cross-check it on small matroids."""

    def __init__(self, matroid: Matroid, field=QQ):
        self.matroid = matroid
        self.field = field
        self.lattice = matroid.lattice()
        self.ambient_nvars = 1

    def nvars(self, x):
        return 1

    def ambient_var_form(self, y, a):
        return [self.field.from_int(1)]

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
            out = [field.zero] * len(layouts[d + shift])
            for c, (h, gi, m) in enumerate(layouts[d]):
                a = vec[c]
                if not field.is_zero(a) and L.leq(g, h):
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

        # quotient coordinates: representatives of F_d modulo the y-span
        reps = []
        for d in range(bound + 1):
            span = nspaces[d].copy()
            basis = []
            for v in view.bases[d]:
                if span.add(v) is not None:
                    basis.append(v)
            reps.append(basis)

        def to_quotient_coords(vec, d):
            tagged = RowSpace(field, len(layouts[d]), tagged=True)
            for v in nspaces[d].basis():
                tagged.add(v, {})
            for j, v in enumerate(reps[d]):
                tagged.add(v, {j: field.from_int(1)})
            res, tag = tagged.reduce(vec)
            if any(res):
                raise TruncationBoundError("vector escapes the quotient basis")
            out = [field.zero] * len(reps[d])
            for j, c in tag.items():
                out[j] = field.neg(c)
            return out

        ambient_dims = [len(reps[d]) for d in range(bound + 1)]
        bases = []
        for d in range(bound + 1):
            eye = []
            for c in range(ambient_dims[d]):
                v = [field.zero] * ambient_dims[d]
                v[c] = field.from_int(1)
                eye.append(v)
            bases.append(eye)
        # h acts on the quotient coordinates of each representative
        raising = [[]]
        for d in range(bound):
            h = view.sheaf.raising(view.elems, d, lambda y: [field.from_int(1)])
            rows = [[] for _ in range(ambient_dims[d + 1])]
            for j, v in enumerate(reps[d]):
                qc = to_quotient_coords(matvec(h, v, field), d + 1)
                for r, a in enumerate(qc):
                    if not field.is_zero(a):
                        rows[r].append((j, a))
            raising[0].append(rows)
        module = GradedModule(field, 1, bound, ambient_dims, bases, raising)

        def res(degree, svec):
            return to_quotient_coords(svec, degree)

        return module, res


def build_matroid_sheaf_generic(matroid: Matroid, field=QQ):
    """The matroid sheaf via the generic engine; returns (lattice, sheaf).
    Quadratic and unmemoized, for cross-validation on small matroids."""
    from klsc.sheaf import build_sheaf

    lattice = matroid.lattice()
    return lattice, build_sheaf(lattice, MatroidLocalModel(matroid, field))
