"""The generic sheaf recursion on a ranked poset.

Given a poset and a local model (a rule computing, for each element x, the
boundary module over the ring R_x from the sections already built above
x), this builds the sheaf element by element in decreasing rank:

* maximal elements get the free rank-one stalk R_x;
* otherwise M_dx := model.boundary(x, sections over {y > x}), the stalk is
  its minimal free cover M_x, and the sections over {y >= x} are the
  kernel of F({y > x}) + M_x -> M_dx.

Sections over an upper set Q are represented concretely by their
localization coordinates: a section is the tuple of its stalk components,
a vector in the direct sum over y in Q of the free modules M_y, and F(Q)
is cut out degreewise by membership of each sub-tuple in the already-built
minimal-open-set section spaces.  Restriction maps are then literally
coordinate projections, and flabbiness is a rank check.

There is no uniform recipe for the boundary module; each instantiation
(fans, matroid lattices) supplies its own through the LocalModel hooks.
What they share is the ring action: multiplication by a linear form on
localization coordinates is built in one place, ``PosetSheaf.raising``,
as sparse rows.  Local models use it for the raising maps of their
boundary modules, and ``sections_shape`` for the ambient ring.
"""

from __future__ import annotations

from klsc.errors import DegreeBoundError
from klsc.graded import (
    FreeModuleShape,
    GradedModule,
    minimal_generator_degrees,
    minimal_generators,
)
from klsc.linalg import RowSpace, kernel_basis
from klsc.poly import UniPoly, monomials
from klsc.poset import RankedPoset, UpperSet


class SectionView:
    """Degreewise bases of the sections over an upper set, in localization
    coordinates, handed to local models."""

    def __init__(self, sheaf, elems, bases):
        self.sheaf = sheaf
        self.elems = elems  # sorted element list of the (open) upper set
        self.bases = bases  # per degree: list of vectors

    def layout(self, degree):
        return self.sheaf.layout(self.elems, degree)

    def dim(self, degree):
        return len(self.bases[degree])


class PosetSheaf:
    """The computed sheaf: stalk shapes plus degreewise section spaces of
    the minimal open sets, everything else derived on demand."""

    def __init__(self, poset: RankedPoset, model, bound):
        self.poset = poset
        self.model = model
        self.field = model.field
        self.bound = bound
        self.stalks = {}  # element -> list of generator degrees
        self.spaces = {}  # element -> per degree RowSpace of S_x in P_x coords
        self._annihilators = {}

    # -- coordinates -------------------------------------------------------------

    def layout(self, elems, degree):
        """Localization coordinates over the given elements: one block per
        element y, coordinates (y, generator, monomial of R_y)."""
        out = []
        for y in elems:
            ny = self.model.nvars(y)
            for gi, gd in enumerate(self.stalks[y]):
                if gd <= degree:
                    for m in monomials(ny, degree - gd):
                        out.append((y, gi, m))
        return out

    def _sorted_upper(self, mask):
        elems = sorted(
            RankedPoset._bits(mask), key=lambda z: (self.poset.rank[z], z)
        )
        return elems

    # -- section spaces ------------------------------------------------------------

    def _annihilator(self, y, degree):
        """Functionals (rows) vanishing exactly on S_y at the given degree,
        in P_y coordinates."""
        key = (y, degree)
        if key not in self._annihilators:
            space = self.spaces[y][degree]
            n = space.ncols
            self._annihilators[key] = kernel_basis(space.basis(), n, self.field)
        return self._annihilators[key]

    def section_space(self, mask, degree) -> RowSpace:
        """Basis of F(Q) at the given degree, Q the upper set of the mask."""
        elems = self._sorted_upper(mask)
        layout = self.layout(elems, degree)
        pos = {key: c for c, key in enumerate(layout)}
        rows = []
        for y in self.poset.minimal_of(elems):
            sub_elems = self._sorted_upper(self.poset.up[y])
            sub_layout = self.layout(sub_elems, degree)
            positions = [pos[key] for key in sub_layout]
            for func in self._annihilator(y, degree):
                row = [self.field.zero] * len(layout)
                for c, val in zip(positions, func):
                    row[c] = val
                rows.append(row)
        space = RowSpace(self.field, len(layout))
        for v in kernel_basis(rows, len(layout), self.field):
            space.add(v)
        return space

    def sections_over(self, upper: UpperSet):
        """Degreewise dimensions of F(Q)."""
        return [self.section_space(upper.mask, d).dim for d in range(self.bound + 1)]

    def raising(self, elems, degree, form_of):
        """Multiplication by a linear form on the localization coordinates
        over elems, from the given degree to the next, as sparse rows in the
        format of GradedModule.raising; form_of(y) is the form in the
        variables of R_y."""
        field = self.field
        target = {key: c for c, key in enumerate(self.layout(elems, degree + 1))}
        rows = [[] for _ in target]
        for c, (y, gi, m) in enumerate(self.layout(elems, degree)):
            for j, coeff in enumerate(form_of(y)):
                if not field.is_zero(coeff):
                    e = m[:j] + (m[j] + 1,) + m[j + 1 :]
                    rows[target[(y, gi, e)]].append((c, coeff))
        return rows

    def sections_shape(self, upper: UpperSet) -> FreeModuleShape:
        """Minimal generator degrees of F(Q) over the ambient ring."""
        elems = self._sorted_upper(upper.mask)
        model = self.model
        spaces = [self.section_space(upper.mask, d) for d in range(self.bound + 1)]
        raising = [
            [
                self.raising(elems, d, lambda y: model.ambient_var_form(y, a))
                for d in range(self.bound)
            ]
            for a in range(model.ambient_nvars)
        ]
        dims, bases = [sp.ncols for sp in spaces], [sp.basis() for sp in spaces]
        module = GradedModule(self.field, model.ambient_nvars, self.bound, dims, bases, raising)
        return minimal_generator_degrees(module)

    def sections_poincare(self, upper: UpperSet) -> UniPoly:
        return self.sections_shape(upper).poincare()

    # -- stalks ------------------------------------------------------------------------

    def stalk_shape(self, x) -> FreeModuleShape:
        return FreeModuleShape(self.stalks[x])

    def stalk_poincare(self, x) -> UniPoly:
        return self.stalk_shape(x).poincare()

    def restriction_surjective(self, big: UpperSet, small: UpperSet):
        """Flabbiness check: project a basis of F(big) to the coordinates
        of F(small) and compare ranks."""
        if small.mask & ~big.mask:
            raise ValueError("small set is not contained in the big one")
        ok = True
        for d in range(self.bound + 1):
            big_space = self.section_space(big.mask, d)
            small_space = self.section_space(small.mask, d)
            big_elems = self._sorted_upper(big.mask)
            small_elems = self._sorted_upper(small.mask)
            big_layout = self.layout(big_elems, d)
            pos = [
                c
                for c, key in enumerate(big_layout)
                if key[0] in set(small_elems)
            ]
            proj = RowSpace(self.field, len(pos))
            for v in big_space.basis():
                proj.add([v[c] for c in pos])
            if proj.dim != small_space.dim:
                ok = False
        return ok


def build_sheaf(poset: RankedPoset, model) -> PosetSheaf:
    """Run the recursion over the whole poset.

    In characteristic zero a boundary generator in half-degree
    >= rank(top) - rank(x) is a hard error; in positive characteristic
    such generators are legal and retained.
    """
    enforce = model.field.characteristic == 0
    top_rank = max(poset.rank)
    bound = top_rank - min(poset.rank) + 1
    sheaf = PosetSheaf(poset, model, bound)
    order = sorted(poset.elements(), key=lambda x: (-poset.rank[x], x))
    for x in order:
        if poset.up[x] == 1 << x:
            _attach_maximal(sheaf, x)
            continue
        _attach(sheaf, x, top_rank, enforce)
    return sheaf


def _unit(field, n, i):
    v = [field.zero] * n
    v[i] = field.from_int(1)
    return v


def _attach_maximal(sheaf: PosetSheaf, x):
    field = sheaf.field
    sheaf.stalks[x] = [0]
    spaces = []
    for d in range(sheaf.bound + 1):
        n = len(monomials(sheaf.model.nvars(x), d))
        space = RowSpace(field, n)
        for c in range(n):
            space.add(_unit(field, n, c))
        spaces.append(space)
    sheaf.spaces[x] = spaces


def _attach(sheaf: PosetSheaf, x, top_rank, enforce):
    poset = sheaf.poset
    model = sheaf.model
    field = sheaf.field
    r_x = top_rank - poset.rank[x]

    open_mask = poset.up[x] & ~(1 << x)
    elems = sheaf._sorted_upper(open_mask)
    fspaces = [sheaf.section_space(open_mask, d) for d in range(sheaf.bound + 1)]
    view = SectionView(sheaf, elems, [sp.basis() for sp in fspaces])

    bmod, res = model.boundary(x, view)
    lifts = minimal_generators(bmod)
    degrees = [d for d, _ in lifts]
    if enforce and degrees and degrees[-1] >= r_x:
        raise DegreeBoundError(poset.names[x], degrees[-1], r_x)
    sheaf.stalks[x] = degrees

    nx = model.nvars(x)
    x_first = [x] + elems
    spaces = []
    psi = {}
    for d in range(sheaf.bound + 1):
        # psi on the monomial basis (gen, m) of the free cover: the lift of
        # gen raised by m, i.e. the image of (gen, m / v) one degree down
        # raised by v, the last variable dividing m
        prev, psi = psi, {}
        for gi, (gd, lift) in enumerate(lifts):
            if gd == d:
                psi[(gi, (0,) * nx)] = lift
            elif gd < d:
                for m in monomials(nx, d - gd):
                    v = max(j for j, e in enumerate(m) if e)
                    down = m[:v] + (m[v] - 1,) + m[v + 1 :]
                    psi[(gi, m)] = bmod.apply_raising(v, d - 1, prev[(gi, down)])
        cols, mvecs = list(psi), list(psi.values())

        # sections over P_x: pairs (s, m) with res(s) = psi(m)
        fbasis = fspaces[d].basis()
        amb = bmod.ambient_dims[d]
        nunk = len(fbasis) + len(cols)
        rows = [[field.zero] * nunk for _ in range(amb)]
        for j, s in enumerate(fbasis):
            rv = res(d, s)
            for r in range(amb):
                rows[r][j] = rv[r]
        for j, mv in enumerate(mvecs):
            for r in range(amb):
                rows[r][len(fbasis) + j] = field.neg(mv[r])
        sols = kernel_basis(rows, nunk, field)
        layout = sheaf.layout(x_first, d)
        pos = {key: c for c, key in enumerate(layout)}
        space = RowSpace(field, len(layout))
        open_layout = sheaf.layout(elems, d)
        for sol in sols:
            vec = [field.zero] * len(layout)
            for j, s in enumerate(fbasis):
                c = sol[j]
                if field.is_zero(c):
                    continue
                for cc, key in enumerate(open_layout):
                    if not field.is_zero(s[cc]):
                        vec[pos[key]] = field.add(vec[pos[key]], field.mul(c, s[cc]))
            for j, (gi, m) in enumerate(cols):
                c = sol[len(fbasis) + j]
                if not field.is_zero(c):
                    vec[pos[(x, gi, m)]] = c
            space.add(vec)
        spaces.append(space)
    sheaf.spaces[x] = spaces
