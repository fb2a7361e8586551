"""The generic sheaf engine: base cases, boundary modules, determinism."""

from klsc.fans import Fan, FanLocalModel, build_fan_sheaf, face_lattice, fan_face_poset
from klsc.field import QQ
from klsc.graded import FreeModuleShape, GradedModule, minimal_generator_degrees
from klsc.matroids import Matroid
from klsc.matroid_ih import MatroidLocalModel
from klsc.poset import UpperSet
from klsc.poly import MultiPoly, UniPoly
from klsc.sheaf import SectionView, build_sheaf

SQUARE_CONE_RAYS = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]


def boundary_module_at_bottom(poset, sheaf, model):
    """Re-derive the boundary module the engine built at the bottom."""
    x = poset.bottom()
    mask = poset.up[x] & ~(1 << x)
    elems = sheaf._sorted_upper(mask)
    bases = [
        sheaf.section_space(mask, d).basis() for d in range(sheaf.bound + 1)
    ]
    view = SectionView(sheaf, elems, bases)
    module, res = model.boundary(x, view)
    return module


class TestBaseCases:
    def test_one_element_poset(self):
        fan = Fan(1, [], [()])
        poset, sheaf = build_fan_sheaf(fan)
        assert poset.n == 1
        assert sheaf.stalk_shape(0) == FreeModuleShape((0,))
        assert sheaf.sections_poincare(UpperSet(poset, 1)) == UniPoly.one()

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
        module = boundary_module_at_bottom(poset, sheaf, model)
        assert minimal_generator_degrees(module) == FreeModuleShape((0, 1))
        assert module.validate()  # raising maps stay inside the module

    def test_single_element_matroid_boundary(self):
        m = Matroid.uniform(1, 1)
        lattice = m.lattice()
        model = MatroidLocalModel(m)
        sheaf = build_sheaf(lattice, model)
        module = boundary_module_at_bottom(lattice, sheaf, model)
        assert minimal_generator_degrees(module) == FreeModuleShape((0,))
        assert module.dims() == [1, 0, 0]

    def test_u34_global_sections_via_engine(self):
        m = Matroid.uniform(3, 4)
        lattice = m.lattice()
        sheaf = build_sheaf(lattice, MatroidLocalModel(m))
        full = UpperSet(lattice, (1 << lattice.n) - 1)
        assert sheaf.sections_shape(full) == FreeModuleShape(
            (0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3)
        )
        assert sheaf.sections_poincare(full) == UniPoly((1, 6, 6, 1))


class TestRaising:
    def test_columns_are_products_with_the_form(self):
        # column (y, g, m) of the map holds the coefficients of m * form(y)
        poset, sheaf = build_fan_sheaf(face_lattice(SQUARE_CONE_RAYS, 3))
        elems = sheaf._sorted_upper(poset.up[poset.bottom()])

        def form_of(y):
            return sheaf.model.ambient_var_form(y, 2)

        for d in range(sheaf.bound):
            rows = sheaf.raising(elems, d, form_of)
            target = sheaf.layout(elems, d + 1)
            assert len(rows) == len(target)
            for c, (y, gi, m) in enumerate(sheaf.layout(elems, d)):
                n = sheaf.model.nvars(y)
                prod = MultiPoly(QQ, n, {m: QQ.one}) * MultiPoly.linear_form(QQ, form_of(y))
                column = {r: a for r, row in enumerate(rows) for cc, a in row if cc == c}
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
        assert s1.sections_over(full) == s2.sections_over(UpperSet(p2, (1 << p2.n) - 1))
