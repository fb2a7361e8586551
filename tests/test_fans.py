"""Fans: face enumeration, conewise polynomials, the fan sheaf, g-polynomials."""

import pytest

from klsc.errors import InvalidInputError
from klsc.fans import (
    Fan,
    StructureSections,
    build_fan_sheaf,
    cone_over_polytope,
    face_lattice,
    fan_face_poset,
    g_polynomial,
)
from klsc.graded import FreeModuleShape
from klsc.kls import eulerian_kernel, solve_kls
from klsc.poly import UniPoly
from klsc.poset import UpperSet

from helpers import restriction_surjective, unimodular_image

SQUARE_CONE_RAYS = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
UNIT_SQUARE = [[0, 0], [1, 0], [0, 1], [1, 1]]
CUBE = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]


class TestFaceEnumeration:
    def test_square_cone_counts(self):
        fan = face_lattice(SQUARE_CONE_RAYS, 3)
        assert fan.counts_by_dimension() == [1, 4, 4, 1]

    def test_single_ray(self):
        fan = face_lattice([(1, 0)], 2)
        assert fan.counts_by_dimension() == [1, 1]

    def test_simplex_cone(self):
        fan = face_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert fan.counts_by_dimension() == [1, 3, 3, 1]

    def test_non_pointed_rejected(self):
        with pytest.raises(InvalidInputError):
            face_lattice([(1, 0), (-1, 0), (0, 1)], 2)

    def test_non_extreme_generator_rejected(self):
        with pytest.raises(InvalidInputError):
            face_lattice([(1, 0), (0, 1), (1, 1)], 2)

    def test_cone_over_square_is_square_cone(self):
        fan = cone_over_polytope(UNIT_SQUARE)
        assert fan.counts_by_dimension() == [1, 4, 4, 1]

    def test_cone_over_segment(self):
        fan = cone_over_polytope([[0], [1]])
        assert fan.counts_by_dimension() == [1, 2, 1]

    def test_cone_over_cube(self):
        fan = cone_over_polytope(CUBE)
        assert fan.counts_by_dimension() == [1, 8, 12, 6, 1]

    def test_interior_point_dropped(self):
        fan = cone_over_polytope(UNIT_SQUARE + [["1/2", "1/2"]])
        assert fan.counts_by_dimension() == [1, 4, 4, 1]

    def test_degenerate_vertices_rejected(self):
        with pytest.raises(InvalidInputError):
            cone_over_polytope([[0, 0], [1, 1], [2, 2]])

    def test_overlapping_cones_rejected(self):
        # cone(e1, e2) and cone(e1, e1+e2) overlap in a full-dimensional set
        with pytest.raises(InvalidInputError):
            Fan.from_max_cones(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])


class TestFanPoset:
    def test_square_cone_poset_is_eulerian(self):
        P = fan_face_poset(face_lattice(SQUARE_CONE_RAYS, 3))
        assert P.is_eulerian()
        assert P.rank_sizes() == [1, 4, 4, 1]

    def test_rank_is_codimension(self):
        fan = face_lattice(SQUARE_CONE_RAYS, 3)
        P = fan_face_poset(fan)
        for i in range(fan.n_cones()):
            assert P.rank[i] == 3 - fan.dim_of(i)


class TestStructureSections:
    def test_four_orthant_fan(self):
        fan = Fan.from_max_cones(
            2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
        )
        ss = StructureSections(fan, bound=4)
        assert ss.dims() == [1, 4, 8, 12, 16]
        assert ss.generator_shape() == FreeModuleShape((0, 1, 1, 2))
        assert ss.is_free()

    def test_single_cone_is_polynomial_ring(self):
        fan = face_lattice([(1, 0), (0, 1)], 2)
        ss = StructureSections(fan, bound=3)
        assert ss.dims() == [1, 2, 3, 4]
        assert ss.generator_shape() == FreeModuleShape((0,))

    def test_square_cone_boundary_module(self):
        fan = face_lattice(SQUARE_CONE_RAYS, 3)
        sigma = [i for i in range(fan.n_cones()) if fan.dim_of(i) == 3][0]
        ss = StructureSections(fan, fan.boundary_subfan(sigma), bound=4)
        # conewise functions on the boundary, as a module over QQ[x,y,z]:
        # minimal generators 1 and |x|
        assert ss.generator_shape() == FreeModuleShape((0, 1))


class TestFanSheaf:
    def test_simplicial_stalks_trivial(self):
        fan = face_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        poset, sheaf = build_fan_sheaf(fan)
        for x in poset.elements():
            assert sheaf.stalk_shape(x) == FreeModuleShape((0,))

    def test_square_cone_stalk(self):
        fan = face_lattice(SQUARE_CONE_RAYS, 3)
        poset, sheaf = build_fan_sheaf(fan)
        assert sheaf.stalk_shape(poset.bottom()) == FreeModuleShape((0, 1))

    def test_ray_stalk(self):
        fan = face_lattice([(1,)], 1)
        poset, sheaf = build_fan_sheaf(fan)
        assert sheaf.stalk_shape(poset.bottom()) == FreeModuleShape((0,))

    def test_simpliciality_criterion(self):
        # stalks are all trivial iff the fan is simplicial
        simplicial = face_lattice([(1, 0, 0), (0, 1, 0), (1, 1, 1)], 3)
        poset, sheaf = build_fan_sheaf(simplicial)
        assert all(sheaf.stalk_shape(x) == FreeModuleShape((0,)) for x in poset.elements())
        non_simplicial = face_lattice(SQUARE_CONE_RAYS, 3)
        poset2, sheaf2 = build_fan_sheaf(non_simplicial)
        assert any(sheaf2.stalk_shape(x) != FreeModuleShape((0,)) for x in poset2.elements())

    def test_flabbiness_square_cone(self):
        fan = face_lattice(SQUARE_CONE_RAYS, 3)
        poset, sheaf = build_fan_sheaf(fan)
        full = UpperSet(poset, (1 << poset.n) - 1)
        for x in poset.elements():
            assert restriction_surjective(sheaf, full, UpperSet(poset, poset.up[x]))


class TestGPolynomial:
    def test_square_both_routes(self):
        assert g_polynomial(UNIT_SQUARE) == UniPoly((1, 1))
        P = fan_face_poset(cone_over_polytope(UNIT_SQUARE))
        table = solve_kls(eulerian_kernel(P))
        assert table[(P.bottom(), P.top())] == UniPoly((1, 1))

    def test_simplex(self):
        assert g_polynomial([[0, 0], [1, 0], [0, 1]]) == UniPoly.one()

    def test_point(self):
        # a segment's cone in the line over a single point: 0-polytope
        assert g_polynomial([[]]) == UniPoly.one()

    def test_lattice_invariance(self):
        fan = face_lattice(SQUARE_CONE_RAYS, 3)
        m = [[1, 1, 0], [0, 1, 0], [1, 0, 1]]  # det 1
        fan2 = unimodular_image(fan, m)
        p1, s1 = build_fan_sheaf(fan)
        p2, s2 = build_fan_sheaf(fan2)
        shapes1 = sorted(tuple(s1.stalks[x]) for x in p1.elements())
        shapes2 = sorted(tuple(s2.stalks[x]) for x in p2.elements())
        assert shapes1 == shapes2
