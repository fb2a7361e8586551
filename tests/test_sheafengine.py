"""The generic sheaf engine: base cases, boundary modules, annihilators,
determinism."""

import pytest

from klsc.fans import (
    Fan,
    FanLocalModel,
    build_fan_sheaf,
    cone_over_polytope,
    face_lattice,
    fan_face_poset,
)
from klsc.field import GF, QQ
from klsc.graded import (
    FreeModuleShape,
    GradedModule,
    minimal_generator_degrees,
    minimal_generators,
)
from klsc.linalg import RowSpace, kernel_basis, rref
from klsc.matroids import Matroid
from klsc.poset import UpperSet
from klsc.poly import MultiPoly, UniPoly, monomials
from klsc.sheaf import SectionView, build_sheaf
from klsc.validate import CUBE, PRISM, PYRAMID, SQUARE, simplex

from helpers import (
    MatroidLocalModel,
    build_matroid_sheaf_generic,
    contains,
    dense,
    raising_maps_are_closed,
    sections_over,
    sections_poincare,
    sections_shape,
)

SQUARE_CONE_RAYS = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]

FANS = {
    "simplex3": lambda: cone_over_polytope(simplex(3)),
    "square": lambda: cone_over_polytope(SQUARE),
    "pyramid": lambda: cone_over_polytope(PYRAMID),
    "prism": lambda: cone_over_polytope(PRISM),
    "cube": lambda: cone_over_polytope(CUBE),
    "four-orthant": lambda: Fan.from_max_cones(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    ),
}

MATROIDS = {
    "U(3,4)": lambda: Matroid.uniform(3, 4),
    "U(4,5)": lambda: Matroid.uniform(4, 5),
    "Fano": Matroid.fano,
}


def boundary_at(sheaf, x):
    """Re-run the model's boundary at x on the sections the engine built
    over {y > x}; returns the view and the model's (module, kernel,
    section_of)."""
    mask = sheaf.poset.up[x] & ~(1 << x)
    elems = sheaf._sorted_upper(mask)
    bases = [sheaf.section_space(mask, d) for d in range(sheaf.bound + 1)]
    view = SectionView(sheaf, elems, bases)
    return view, sheaf.model.boundary(x, view)


def boundary_module_at_bottom(poset, sheaf):
    """Re-derive the boundary module the engine built at the bottom."""
    _, (module, _, _) = boundary_at(sheaf, poset.bottom())
    return module


def fan_sections_by_kernel_solve(sheaf, x, d):
    """Reference for a fan: a basis of S_x, the sections over {y >= x} in
    degree d, in the coordinates of layout([x] + {y > x}), solved as the
    kernel of [s | -psi(m)] over a basis s of F(>x)_d and the monomial
    basis m of the free cover (res is the identity), then glued."""
    view, (module, _, _) = boundary_at(sheaf, x)
    nx = sheaf.model.nvars(x)
    psi = []
    for gd, lift in minimal_generators(module):
        for m in monomials(nx, d - gd) if gd <= d else ():
            vec, deg = lift, gd
            for v, e in enumerate(m):
                for _ in range(e):
                    vec = module.apply_raising(v, deg, vec)
                    deg += 1
            psi.append(vec)
    amb = module.ambient_dims[d]
    fbasis = [dense(s, amb) for s in view.bases[d]]
    psi = [dense(p, amb) for p in psi]
    rows = [[s[r] for s in fbasis] + [-p[r] for p in psi] for r in range(amb)]
    out = []
    for sol in kernel_basis(rows, len(fbasis) + len(psi), QQ):
        sol = dense(sol, len(fbasis) + len(psi))
        coeffs = sol[: len(fbasis)]
        glued = [sum(c * s[r] for c, s in zip(coeffs, fbasis)) for r in range(amb)]
        out.append(list(sol[len(fbasis) :]) + glued)
    return out


class TestBaseCases:
    def test_one_element_poset(self):
        fan = Fan(1, [], [()])
        poset, sheaf = build_fan_sheaf(fan)
        assert poset.n == 1
        assert sheaf.stalk_shape(0) == FreeModuleShape((0,))
        assert sections_poincare(sheaf, UpperSet(poset, 1)) == UniPoly.one()

    def test_maximal_elements_are_free_rank_one(self):
        fan = face_lattice(SQUARE_CONE_RAYS, 3)
        poset, sheaf = build_fan_sheaf(fan)
        top = poset.top()
        assert sheaf.stalk_shape(top) == FreeModuleShape((0,))


class TestBoundaryModules:
    def test_square_cone_boundary_cover_shape(self):
        fan = face_lattice(SQUARE_CONE_RAYS, 3)
        poset = fan_face_poset(fan)
        model = FanLocalModel(fan)
        sheaf = build_sheaf(poset, model)
        module = boundary_module_at_bottom(poset, sheaf)
        assert minimal_generator_degrees(module) == FreeModuleShape((0, 1))
        assert raising_maps_are_closed(module)  # raising maps stay inside the module

    def test_single_element_matroid_boundary(self):
        m = Matroid.uniform(1, 1)
        lattice = m.lattice()
        model = MatroidLocalModel(m)
        sheaf = build_sheaf(lattice, model)
        module = boundary_module_at_bottom(lattice, sheaf)
        assert minimal_generator_degrees(module) == FreeModuleShape((0,))
        assert module.dims() == [1, 0, 0]

    def test_u34_global_sections_via_engine(self):
        m = Matroid.uniform(3, 4)
        lattice = m.lattice()
        sheaf = build_sheaf(lattice, MatroidLocalModel(m))
        full = UpperSet(lattice, (1 << lattice.n) - 1)
        assert sections_shape(sheaf, full) == FreeModuleShape(
            (0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3)
        )
        assert sections_poincare(sheaf, full) == UniPoly((1, 6, 6, 1))


class TestAnnihilators:
    @pytest.mark.parametrize("name", sorted(FANS))
    def test_fan_annihilators_match_the_kernel_solve(self, name):
        poset, sheaf = build_fan_sheaf(FANS[name]())
        for x in poset.elements():
            elems = sheaf._sorted_upper(poset.up[x])
            for d in range(sheaf.bound + 1):
                n = len(sheaf.layout(elems, d))
                got = [dense(f, n) for f in sheaf.annihilators[x][d]]
                if poset.up[x] == 1 << x:
                    assert got == []
                    continue
                sections = fan_sections_by_kernel_solve(sheaf, x, d)
                expected = kernel_basis(sections, n, QQ)
                assert rref(got, n, QQ) == rref(expected, n, QQ), (name, x, d)

    @pytest.mark.parametrize(
        "name, field",
        [(n, QQ) for n in FANS] + [(n, f) for n in MATROIDS for f in (QQ, GF(2), GF(3))],
        ids=str,
    )
    def test_kernel_and_lifted_module_basis_are_a_basis(self, name, field):
        """kernel[d] and section_of of a basis of the boundary module lie
        in F(>x)_d, are independent and span it."""
        if name in FANS:
            poset, sheaf = build_fan_sheaf(FANS[name]())
        else:
            poset, sheaf = build_matroid_sheaf_generic(MATROIDS[name](), field)
        for x in poset.elements():
            if poset.up[x] == 1 << x:
                continue
            view, (module, kernel, section_of) = boundary_at(sheaf, x)
            for d in range(sheaf.bound + 1):
                ncols = len(view.layout(d))
                fspace = RowSpace(field, ncols)
                for s in view.bases[d]:
                    fspace.add(s)
                vectors = list(kernel[d]) + [section_of(d, b) for b in module.bases[d]]
                assert all(contains(fspace, v) for v in vectors), (name, x, d)
                span = RowSpace(field, ncols)
                for v in vectors:
                    span.add(v)
                assert span.dim == len(vectors) == fspace.dim, (name, x, d)


class TestRaising:
    def test_columns_are_products_with_the_form(self):
        # column (y, g, m) of the map holds the coefficients of m * form(y)
        poset, sheaf = build_fan_sheaf(face_lattice(SQUARE_CONE_RAYS, 3))
        elems = sheaf._sorted_upper(poset.up[poset.bottom()])

        def form_of(y):
            return sheaf.model.charts[y].ambient_var_forms()[2]

        for d in range(sheaf.bound):
            cols = sheaf.raising(elems, d, form_of)
            target = sheaf.layout(elems, d + 1)
            assert len(cols) == len(sheaf.layout(elems, d))
            for c, (y, gi, m) in enumerate(sheaf.layout(elems, d)):
                n = sheaf.model.nvars(y)
                prod = MultiPoly(QQ, n, {m: QQ.one}) * MultiPoly.linear_form(QQ, form_of(y))
                column = dict(cols[c])
                assert len(column) == len(cols[c])
                assert column == {
                    target.index((y, gi, e)): a for e, a in prod.terms.items()
                }


class TestSingleSweep:
    def test_raised_span_built_once_per_degree(self, monkeypatch):
        degrees = []
        original = GradedModule.raised_span

        def counting(module, i):
            degrees.append(i)
            return original(module, i)

        monkeypatch.setattr(GradedModule, "raised_span", counting)
        poset, sheaf = build_fan_sheaf(face_lattice(SQUARE_CONE_RAYS, 3))
        non_maximal = [x for x in poset.elements() if poset.up[x] != 1 << x]
        assert len(non_maximal) == 9 and sheaf.bound == 4
        assert len(degrees) == (sheaf.bound + 1) * len(non_maximal)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        fan = face_lattice(SQUARE_CONE_RAYS, 3)
        p1, s1 = build_fan_sheaf(fan)
        p2, s2 = build_fan_sheaf(fan)
        assert {x: s1.stalks[x] for x in p1.elements()} == {
            x: s2.stalks[x] for x in p2.elements()
        }
        full = UpperSet(p1, (1 << p1.n) - 1)
        assert sections_over(s1, full) == sections_over(s2, UpperSet(p2, (1 << p2.n) - 1))
