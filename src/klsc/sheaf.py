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
The products phi . section_of(psi(m)) are taken one psi image at a time
against the phis' transposed supports, so they cost the image's
nonzeros.  When ``kernel[d]`` is empty (res is injective, as for fans)
the phis are the unit functionals, and no identity matrix is built for
them.

Every vector the engine handles, over either field, is a dict of its
nonzero entries (position -> value): section bases, annihilators, psi
images and module vectors alike, and ``matvec`` takes and returns that
form.  Over QQ it is the form klsc.linalg hands out; over GF(p), where
kernel_basis hands out int64 arrays, ``_kernel`` reads them back sparse.

Sections over an upper set Q are represented concretely by their
localization coordinates: a section is the tuple of its stalk components,
a vector in the direct sum over y in Q of the free modules M_y, and F(Q)
is cut out degreewise by these functionals at each minimal element of Q.
``section_space`` returns that kernel's basis as ``kernel_basis`` hands it
out, already in reduced echelon form, so only the functionals' span
matters and no section space is eliminated twice.  Restriction maps are
then literally coordinate projections.

There is no uniform recipe for the boundary module; each instantiation
supplies its own through the local model's ``nvars`` and ``boundary``
hooks: fans here, and the matroid model that the test suite cross-checks
the bespoke matroid sheaf with.  What they share is the ring action:
multiplication by a linear form on localization coordinates is built in
one place, ``PosetSheaf.raising``, as sparse columns, so that raising a
vector costs its nonzeros.  Local models use it for the raising maps of
their boundary modules.
"""

from __future__ import annotations

from klsc.errors import DegreeBoundError
from klsc.graded import FreeModuleShape, minimal_generators
from klsc.linalg import kernel_basis, matvec
from klsc.poly import UniPoly, monomials
from klsc.poset import RankedPoset


class SectionView:
    """Degreewise bases of the sections over an upper set, in localization
    coordinates, handed to local models."""

    def __init__(self, sheaf, elems, bases):
        self.sheaf = sheaf
        self.elems = elems  # sorted element list of the (open) upper set
        self.bases = bases  # per degree: list of vectors, dicts of nonzeros

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
        # each a dict of its nonzero entries
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
        entries are scattered through the positions of its element's
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
                rows.append({positions[c]: val for c, val in func.items()})
        return _kernel(rows, len(layout), self.field)

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

    # -- stalks ------------------------------------------------------------------------

    def stalk_shape(self, x) -> FreeModuleShape:
        return FreeModuleShape(self.stalks[x])

    def stalk_poincare(self, x) -> UniPoly:
        return self.stalk_shape(x).poincare()


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
        # -phi . section_of(psi(m)) on the x block, then phi itself, over
        # layout([x] + elems, d)
        n = len(view.layout(d))
        if kernel[d]:
            phis = _kernel(kernel[d], n, field)
        else:
            # the phis are the unit functionals, kernel_basis's identity
            phis = [{c: one} for c in range(n)]
        columns = [[] for _ in range(n)]
        for i, phi in enumerate(phis):
            for c, a in phi.items():
                columns[c].append((i, a))
        funcs = [{} for _ in phis]
        for k, mv in enumerate(psi.values()):
            for i, h in matvec(columns, section_of(d, mv), field).items():
                funcs[i][k] = field.neg(h)
        offset = len(psi)
        annihilators.append(
            [func | {offset + c: a for c, a in phi.items()} for func, phi in zip(funcs, phis)]
        )
    sheaf.annihilators[x] = annihilators


def _kernel(rows, ncols, field):
    """kernel_basis with every vector a dict of its nonzero entries: over
    GF(p), where it hands out int64 arrays, they are read back sparse."""
    ker = kernel_basis(rows, ncols, field)
    if field.characteristic:
        ker = [{int(c): int(v[c]) for c in v.nonzero()[0]} for v in ker]
    return ker
