"""Matroids, Moebius algebra, the matroid sheaf, and mod-p variants."""

import pytest

from klsc.errors import InvalidInputError
from klsc.field import GF
from klsc.graded import FreeModuleShape
from klsc.kls import matroid_kernel, monotonicity_check, solve_kls, z_polynomial
from klsc.matroids import Matroid, MobiusAlgebra, flats_from_bases, p_trivial_criterion
from klsc.matroid_ih import (
    all_stalk_polynomials,
    build_matroid_sheaf_generic,
    kl_polynomial,
    matroid_sheaf,
    shifted_stalk_shape,
    z_polynomial_sheaf,
)
from klsc.poly import UniPoly
from klsc.validate import matroid_corpus

from itertools import combinations


class TestConstruction:
    def test_u34_from_bases(self):
        m = flats_from_bases(4, [list(b) for b in combinations(range(4), 3)])
        assert len(m.flats()) == 12
        assert m.lattice().rank_sizes() == [1, 4, 6, 1]

    def test_u11(self):
        m = Matroid.from_bases(1, [[0]])
        assert len(m.flats()) == 2

    def test_boolean_from_bases(self):
        m = flats_from_bases(3, [[0, 1, 2]])
        assert len(m.flats()) == 8

    def test_exchange_violation_rejected(self):
        with pytest.raises(InvalidInputError):
            Matroid.from_bases(4, [[0, 1], [2, 3], [0, 2]][:2])

    def test_exchange_violation_message(self):
        with pytest.raises(InvalidInputError) as exc:
            Matroid.from_bases(4, [[0, 1], [2, 3], [1, 2]])
        assert str(exc.value) == "bases violate the exchange axiom at [0, 1], [2, 3], element 1"
        with pytest.raises(InvalidInputError) as exc:
            Matroid.from_bases(6, [[5, 4, 3], [0, 1, 2]])
        assert str(exc.value) == "bases violate the exchange axiom at [3, 4, 5], [0, 1, 2], element 3"

    def test_loop_rejected(self):
        with pytest.raises(InvalidInputError):
            Matroid(2, lambda s: 1 if 0 in s else 0)

    def test_from_matrix_realizes_u34(self):
        m = Matroid.from_matrix(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        )
        assert m.rank == 3 and len(m.flats()) == 12

    def test_from_matrix_rational_entries(self):
        m = Matroid.from_matrix([["1/2", 0], [0, "2/3"], ["1/2", "2/3"]])
        assert m.rank == 2 and len(m.flats()) == 5  # U_{2,3}

    def test_from_flats_roundtrip(self):
        m = Matroid.uniform(2, 3)
        records = [
            {"set": sorted(f), "rank": m.rank_of(f)} for f in m.flats()
        ]
        m2 = Matroid.from_flats(3, records)
        assert m2.flats() == m.flats()

    def test_graphic_k4(self):
        edges = list(combinations(range(4), 2))
        m = Matroid.graphic(4, edges)
        assert m.rank == 3
        assert m.lattice().rank_sizes() == [1, 6, 7, 1]

    def test_fano_is_subspace_lattice_of_f2_cubed(self):
        assert set(Matroid.fano().flats()) == set(
            Matroid.projective_geometry(2, 3).flats()
        )

    def test_graphic_k4_matches_vector_realization(self):
        edges = list(combinations(range(4), 2))
        graphic = Matroid.graphic(4, edges)
        cols = []
        for i, j in edges:
            v = [0, 0, 0, 0]
            v[i], v[j] = 1, -1
            cols.append(v)
        realized = Matroid.from_matrix(cols)
        assert graphic.flats() == realized.flats()
        assert kl_polynomial(graphic) == kl_polynomial(realized) == UniPoly((1, 1))

    def test_contraction_of_uniform(self):
        m = Matroid.uniform(3, 5)
        atom = next(f for f in m.flats() if len(f) == 1)
        c, relabel = m.contract(atom)
        assert c.tag == ("uniform", 2, 4)
        assert c.rank == 2 and c.n == 4


def bases_of(m):
    """The bases of a matroid, read off its rank oracle."""
    return [list(c) for c in combinations(range(m.n), m.rank) if m.rank_of(c) == m.rank]


def uninherited_contraction(m, f, relabel):
    """M/f from the contracted rank oracle alone, so its flats come from
    closure BFS and not from m's flats."""
    rest = sorted(relabel, key=relabel.get)
    base = m.rank_of(f)
    return Matroid(len(rest), lambda s: m.rank_of(frozenset(rest[i] for i in s) | f) - base)


def assert_same_matroid(got, want):
    assert got.n == want.n and got.rank == want.rank
    assert got.flats() == want.flats()
    assert [got.rank_of(g) for g in got.flats()] == [want.rank_of(g) for g in want.flats()]
    assert got.lattice().covers == want.lattice().covers
    assert got.lattice().names == want.lattice().names
    assert got.lattice().rank == want.lattice().rank


class TestContraction:
    def test_inherited_flats_match_closure_enumeration(self):
        """Every contraction of every desk-corpus matroid given by its
        bases, plus the Fano plane from its vectors, against the same
        contraction enumerated from its rank oracle."""
        matroids = [
            (label, Matroid.from_bases(m.n, bases_of(m))) for label, m in matroid_corpus()
        ]
        matroids.append(("fano vectors", Matroid.fano()))
        for label, m in matroids:
            for f in m.flats():
                child, relabel = m.contract(f)
                want = uninherited_contraction(m, f, relabel)
                assert_same_matroid(child, want)
                assert child.canonical_key() == want.canonical_key(), (label, f)

    def test_contractions_of_contractions(self):
        for m in (Matroid.fano(), Matroid.graphic(4, list(combinations(range(4), 2)))):
            for f in m.flats():
                child, _ = m.contract(f)
                for g in child.flats():
                    grandchild, relabel = child.contract(g)
                    assert_same_matroid(grandchild, uninherited_contraction(child, g, relabel))

    def test_contracting_a_non_flat_is_refused(self):
        with pytest.raises(InvalidInputError):
            Matroid.uniform(2, 3).contract({0, 1})

    def test_bitmask_rank_oracle_matches_bases(self):
        k4 = Matroid.graphic(4, list(combinations(range(4), 2)))
        wheel = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
        w4 = Matroid.graphic(5, wheel)
        for m in (k4, Matroid.fano(), w4):
            bases = [frozenset(b) for b in bases_of(m)]
            from_bases = Matroid.from_bases(m.n, [sorted(b) for b in bases])
            for size in range(m.n + 1):
                for s in combinations(range(m.n), size):
                    s = frozenset(s)
                    assert from_bases.rank_of(s) == max(len(s & b) for b in bases)


class TestMobiusAlgebra:
    def test_identity(self):
        A = MobiusAlgebra(Matroid.uniform(3, 4))
        bottom = A.lattice.bottom()
        for g in A.lattice.elements():
            assert A.product(bottom, g) == (0, g)

    def test_u34_product(self):
        m = Matroid.uniform(3, 4)
        A = MobiusAlgebra(m)
        i = m.flat_index({0, 1})
        j = m.flat_index({0, 2})
        power, k = A.product(i, j)
        assert power == 1 and k == A.lattice.top()

    def test_b2_atoms_multiply_to_top(self):
        m = Matroid.boolean(2)
        A = MobiusAlgebra(m)
        assert A.product(m.flat_index({0}), m.flat_index({1})) == (
            0,
            A.lattice.top(),
        )

    def test_rho(self):
        m = Matroid.uniform(3, 4)
        A = MobiusAlgebra(m)
        top = A.lattice.top()
        rho_top = A.rho(top)
        assert all(rho_top[j] == A.lattice.rank[j] for j in A.lattice.elements())
        f1 = m.flat_index({0})
        assert A.rho(f1)[m.flat_index({0, 1})] is None
        bottom = A.lattice.bottom()
        assert all(
            A.rho(bottom)[j] is None
            for j in A.lattice.elements()
            if j != bottom
        )

    def test_phi(self):
        m = Matroid.uniform(3, 4)
        A = MobiusAlgebra(m)
        f1 = m.flat_index({0})
        power, target = A.phi(f1)[m.flat_index({1, 2})]
        assert power == 0 and target == frozenset({1, 2, 3})
        power, target = A.phi(f1)[f1]
        assert power == 1 and target == frozenset()
        bottom = A.lattice.bottom()
        phi0 = A.phi(bottom)
        for j in A.lattice.elements():
            assert phi0[j] == (0, A.flats[j])

    def test_commutative_associative(self):
        assert MobiusAlgebra(Matroid.uniform(2, 4)).check_commutative_associative()


class TestSheaf:
    def test_single_element_matroid(self):
        s = matroid_sheaf(Matroid.uniform(1, 1))
        assert s.kl_polynomial() == UniPoly.one()
        assert s.global_shape() == FreeModuleShape((0, 1))
        # freeness: dims match the free module on {0,1} over one variable
        assert s.section_dims(3) == FreeModuleShape((0, 1)).free_dims(1, 3)

    def test_u34(self):
        s = matroid_sheaf(Matroid.uniform(3, 4))
        assert s.kl_polynomial() == UniPoly((1, 2))
        assert s.z_polynomial() == UniPoly((1, 6, 6, 1))
        assert s.stalk_shapes[0] == (0, 1, 1)
        assert s.global_shape() == FreeModuleShape(
            (0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3)
        )

    def test_b2_stalks_trivial(self):
        s = matroid_sheaf(Matroid.boolean(2))
        assert all(sh == (0,) for sh in s.stalk_shapes)

    def test_matches_recursion_on_small_corpus(self):
        for m in (Matroid.uniform(2, 4), Matroid.uniform(3, 5), Matroid.boolean(3)):
            s = matroid_sheaf(m)
            L = m.lattice()
            table = solve_kls(matroid_kernel(L))
            top = L.top()
            for j in L.elements():
                assert s.stalk_poincare(j) == table[(j, top)]
            assert s.z_polynomial() == z_polynomial(table, L.bottom(), top)

    def test_operation_wrappers(self):
        m = Matroid.uniform(3, 4)
        assert kl_polynomial(m) == UniPoly((1, 2))
        assert z_polynomial_sheaf(m) == UniPoly((1, 6, 6, 1))
        stalks = all_stalk_polynomials(m)
        L = m.lattice()
        table = solve_kls(matroid_kernel(L))
        assert stalks == {j: table[(j, L.top())] for j in L.elements()}

    def test_generic_engine_agrees_with_fast_path(self):
        for m in (Matroid.uniform(1, 2), Matroid.uniform(2, 3), Matroid.uniform(3, 4), Matroid.boolean(3)):
            lat, gsheaf = build_matroid_sheaf_generic(m)
            fast = matroid_sheaf(m)
            for j in lat.elements():
                assert tuple(gsheaf.stalks[j]) == fast.stalk_shapes[j]
            from klsc.poset import UpperSet
            full = UpperSet(lat, (1 << lat.n) - 1)
            assert gsheaf.sections_shape(full) == fast.global_shape()

    def test_statement_1_top_stalk(self):
        for m in (Matroid.uniform(3, 4), Matroid.fano()):
            s = matroid_sheaf(m)
            assert s.stalk_shapes[s.lattice.top()] == (0,)

    def test_statement_3_palindromic(self):
        for m in (Matroid.uniform(3, 4), Matroid.graphic(4, list(combinations(range(4), 2)))):
            s = matroid_sheaf(m)
            assert s.z_polynomial().reverse_check(m.rank)

    def test_statement_4_basis_lifting(self):
        for m in (Matroid.uniform(3, 4), Matroid.uniform(2, 4), Matroid.fano()):
            s = matroid_sheaf(m)
            assert s.global_shape() == shifted_stalk_shape(m)

    def test_monotonicity(self):
        L = Matroid.uniform(3, 5).lattice()
        ok, _ = monotonicity_check(solve_kls(matroid_kernel(L)))
        assert ok


class TestModP:
    def test_fano_p_polynomials(self):
        f = Matroid.fano()
        assert kl_polynomial(f, GF(2)) != UniPoly.one()
        assert kl_polynomial(f, GF(3)) == UniPoly.one()
        assert kl_polynomial(f, GF(5)) == UniPoly.one()

    def test_p_z_identity_and_palindromicity(self):
        for m in (Matroid.fano(), Matroid.uniform(3, 4)):
            for p in (2, 3):
                s = matroid_sheaf(m, GF(p))
                total = UniPoly.zero()
                for j in range(len(s.flats)):
                    total = total + s.stalk_poincare(j).shift(s.lattice.rank[j])
                assert total == s.z_polynomial()
                assert s.z_polynomial().reverse_check(m.rank)

    def test_triviality_criterion_vs_sheaf(self):
        one = UniPoly.one()
        for m in (
            Matroid.fano(),
            Matroid.uniform(3, 4),
            Matroid.uniform(2, 3),
            Matroid.boolean(3),
        ):
            for p in (2, 3, 5):
                s = matroid_sheaf(m, GF(p))
                trivial = all(
                    s.stalk_poincare(j) == one for j in range(len(s.flats))
                )
                assert trivial == p_trivial_criterion(m, p), (m, p)

    def test_u34_not_modular(self):
        assert not Matroid.uniform(3, 4).is_modular()
        for p in (2, 3, 5):
            assert not p_trivial_criterion(Matroid.uniform(3, 4), p)

    def test_u35_large_primes_agree_with_qq(self):
        # GF(3037000493), now rejected, gave 1 + 6t here through int64 overflow
        m = Matroid.uniform(3, 5)
        expected = UniPoly((1, 5))
        assert kl_polynomial(m) == expected
        for p in (101, 65521, 33554393):
            assert kl_polynomial(m, GF(p)) == expected

    def test_booleans_trivial_for_all_p(self):
        for n in (2, 3):
            m = Matroid.boolean(n)
            assert m.is_modular()
            for p in (2, 3, 5):
                assert p_trivial_criterion(m, p)
                assert kl_polynomial(m, GF(p)) == UniPoly.one()
