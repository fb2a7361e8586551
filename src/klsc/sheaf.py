"""The generic sheaf recursion on a ranked poset.

Given a poset and a local model (a rule computing, for each element x, the
boundary module over the ring R_x from the sections already built above
x), this builds the sheaf element by element in decreasing rank:

* maximal elements get the free rank-one stalk R_x, all of it sections;
* otherwise model.boundary(x, sections over {y > x}) describes the boundary
  module M_dx as a quotient res: F({y > x}) -> M_dx, the stalk is its
  minimal free cover psi: M_x -> M_dx, and the sections over {y >= x} are
  the pairs (m, s) with m in M_x, s in F({y > x}) and res(s) = psi(m).

The boundary contract: ``model.boundary(x, view)`` returns
``(module, kernel, section_of)``, where ``kernel[d]`` is a basis of the
degree-d sections over {y > x} that res sends to 0, and ``section_of(d, v)``
is a section over {y > x} whose image under res is the module vector v.
Spanning fact: ``kernel[d]`` together with ``section_of`` of a basis of
M_dx in degree d is a basis of F({y > x}) in degree d.  So (m, s) is a
section over {y >= x} exactly when s - section_of(psi(m)) lies in the span
of ``kernel[d]``, and the functionals cutting these sections out of the
coordinates (x block, then {y > x}) are, for each phi in the kernel of
``kernel[d]``, the vector -phi . section_of(psi(m)) over the monomial basis
m of M_x, followed by phi.  No system is solved for the sections at x.
Each functional is stored sparse, as the (position, value) pairs of its
nonzero entries, and the products phi . section_of(psi(m)) are taken one
psi image at a time against the phis' transposed supports, so they cost
the image's nonzeros.  When ``kernel[d]`` is empty (res is injective, as
for fans) the phis are the unit functionals, and no identity matrix is
built for them.

Sections over an upper set Q are represented concretely by their
localization coordinates: a section is the tuple of its stalk components,
a vector in the direct sum over y in Q of the free modules M_y, and F(Q)
is cut out degreewise by these functionals at each minimal element of Q.
``section_space`` returns that kernel's basis as ``kernel_basis`` hands it
out, already in reduced echelon form, so only the functionals' span
matters and no section space is eliminated twice.  Restriction maps are
then literally coordinate projections, and flabbiness is a rank check.

There is no uniform recipe for the boundary module; each instantiation
(fans, matroid lattices) supplies its own through the LocalModel hooks.
What they share is the ring action: multiplication by a linear form on
localization coordinates is built in one place, ``PosetSheaf.raising``,
as sparse columns, so that raising a vector costs its nonzeros.  Local
models use it for the raising maps of their boundary modules, and
``sections_shape`` for the ambient ring.
"""

from __future__ import annotations

from klsc.errors import DegreeBoundError
from klsc.graded import (
    FreeModuleShape,
    GradedModule,
    minimal_generator_degrees,
    minimal_generators,
)
from klsc.linalg import RowSpace, kernel_basis, matvec
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


class PosetSheaf:
    """The computed sheaf: stalk shapes plus degreewise section spaces of
    the minimal open sets, everything else derived on demand."""

    def __init__(self, poset: RankedPoset, model, bound):
        self.poset = poset
        self.model = model
        self.field = model.field
        self.bound = bound
        self.stalks = {}  # element -> list of generator degrees
        # element -> per degree: functionals cutting S_x out of P_x coords,
        # each a list of its nonzero (position, value) pairs
        self.annihilators = {}

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

    def section_space(self, mask, degree):
        """Basis of F(Q) at the given degree, Q the upper set of the mask:
        the kernel of the annihilators at Q's minimal elements, in the
        reduced echelon form kernel_basis hands out; each annihilator's
        pairs are scattered through the positions of its element's
        coordinates in Q's layout."""
        elems = self._sorted_upper(mask)
        layout = self.layout(elems, degree)
        pos = {key: c for c, key in enumerate(layout)}
        rows = []
        for y in self.poset.minimal_of(elems):
            sub_elems = self._sorted_upper(self.poset.up[y])
            sub_layout = self.layout(sub_elems, degree)
            positions = [pos[key] for key in sub_layout]
            for func in self.annihilators[y][degree]:
                row = [self.field.zero] * len(layout)
                for c, val in func:
                    row[positions[c]] = val
                rows.append(row)
        return kernel_basis(rows, len(layout), self.field)

    def sections_over(self, upper: UpperSet):
        """Degreewise dimensions of F(Q)."""
        return [len(self.section_space(upper.mask, d)) for d in range(self.bound + 1)]

    def raising(self, elems, degree, form_of):
        """Multiplication by a linear form on the localization coordinates
        over elems, from the given degree to the next, as sparse columns in
        the format of GradedModule.raising; form_of(y) is the form in the
        variables of R_y.  Column (y, gi, m) holds the coefficients of
        m * form_of(y)."""
        field = self.field
        target = {key: r for r, key in enumerate(self.layout(elems, degree + 1))}
        cols = []
        for y, gi, m in self.layout(elems, degree):
            cols.append(
                [
                    (target[(y, gi, m[:j] + (m[j] + 1,) + m[j + 1 :])], coeff)
                    for j, coeff in enumerate(form_of(y))
                    if not field.is_zero(coeff)
                ]
            )
        return cols

    def sections_shape(self, upper: UpperSet) -> FreeModuleShape:
        """Minimal generator degrees of F(Q) over the ambient ring."""
        elems = self._sorted_upper(upper.mask)
        model = self.model
        bases = [self.section_space(upper.mask, d) for d in range(self.bound + 1)]
        raising = [
            [
                self.raising(elems, d, lambda y: model.ambient_var_form(y, a))
                for d in range(self.bound)
            ]
            for a in range(model.ambient_nvars)
        ]
        dims = [len(self.layout(elems, d)) for d in range(self.bound + 1)]
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
        big_elems = self._sorted_upper(big.mask)
        small_elems = set(self._sorted_upper(small.mask))
        ok = True
        for d in range(self.bound + 1):
            big_layout = self.layout(big_elems, d)
            pos = [c for c, key in enumerate(big_layout) if key[0] in small_elems]
            proj = RowSpace(self.field, len(pos))
            for v in self.section_space(big.mask, d):
                proj.add([v[c] for c in pos])
            if proj.dim != len(self.section_space(small.mask, d)):
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
            sheaf.stalks[x] = [0]
            sheaf.annihilators[x] = [[] for _ in range(bound + 1)]
            continue
        _attach(sheaf, x, top_rank, enforce)
    return sheaf


def _attach(sheaf: PosetSheaf, x, top_rank, enforce):
    poset = sheaf.poset
    model = sheaf.model
    field = sheaf.field
    r_x = top_rank - poset.rank[x]

    open_mask = poset.up[x] & ~(1 << x)
    elems = sheaf._sorted_upper(open_mask)
    bases = [sheaf.section_space(open_mask, d) for d in range(sheaf.bound + 1)]
    view = SectionView(sheaf, elems, bases)

    bmod, kernel, section_of = model.boundary(x, view)
    lifts = minimal_generators(bmod)
    degrees = [d for d, _ in lifts]
    if enforce and degrees and degrees[-1] >= r_x:
        raise DegreeBoundError(poset.names[x], degrees[-1], r_x)
    sheaf.stalks[x] = degrees

    nx = model.nvars(x)
    one = field.from_int(1)
    annihilators = []
    psi = {}
    for d in range(sheaf.bound + 1):
        # psi on the monomial basis (gen, m) of the free cover: the lift of
        # gen raised by m, i.e. the image of (gen, m / v) one degree down
        # raised by v, the last variable dividing m.  Its keys are in the
        # order of the x block of layout([x] + elems, d)
        prev, psi = psi, {}
        for gi, (gd, lift) in enumerate(lifts):
            if gd == d:
                psi[(gi, (0,) * nx)] = lift
            elif gd < d:
                for m in monomials(nx, d - gd):
                    v = max(j for j, e in enumerate(m) if e)
                    down = m[:v] + (m[v] - 1,) + m[v + 1 :]
                    psi[(gi, m)] = bmod.apply_raising(v, d - 1, prev[(gi, down)])

        # annihilators of the pairs (m, section_of(psi(m)) + k), k in the
        # span of kernel[d] (module docstring): for each phi, its values
        # -phi . section_of(psi(m)) on the x block, then phi itself, as
        # (position, value) lists over layout([x] + elems, d)
        n = len(view.layout(d))
        if kernel[d]:
            phis = kernel_basis(kernel[d], n, field)
            supports = [[(c, a) for c, a in enumerate(phi) if a] for phi in phis]
        else:
            # the phis are the unit functionals, kernel_basis's identity,
            # which is read only through these supports
            supports = [[(c, one)] for c in range(n)]
        columns = [[] for _ in range(n)]
        for i, support in enumerate(supports):
            for c, a in support:
                columns[c].append((i, a))
        funcs = [[] for _ in supports]
        for k, mv in enumerate(psi.values()):
            heads = matvec(columns, section_of(d, mv), field, len(supports))
            for func, h in zip(funcs, heads):
                if h:
                    func.append((k, field.neg(h)))
        offset = len(psi)
        annihilators.append(
            [func + [(offset + c, a) for c, a in sup] for func, sup in zip(funcs, supports)]
        )
    sheaf.annihilators[x] = annihilators
