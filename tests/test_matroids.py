"""Matroids, Moebius algebra, the matroid sheaf, and mod-p variants."""

import inspect
import random
import sys

import pytest
from hypothesis import given, strategies as st

from klsc import matroid_ih
from klsc.errors import InvalidInputError, TruncationBoundError
from klsc.field import GF, QQ
from klsc.graded import FreeModuleShape
from klsc.kls import matroid_kernel, monotonicity_check, solve_kls, z_polynomial
from klsc.matroids import Matroid, MobiusAlgebra, flats_from_bases, p_trivial_criterion
from klsc.linalg import RowSpace, kernel_basis, rref
from klsc.matroid_ih import (
    FlatMasks,
    _image,
    all_stalk_polynomials,
    build_matroid_sheaf_generic,
    find_isomorphism,
    kl_polynomial,
    matroid_sheaf,
    shifted_stalk_shape,
    z_polynomial_sheaf,
)
from klsc.poly import UniPoly
from klsc.validate import matroid_corpus

from functools import lru_cache
from itertools import combinations, permutations
from math import comb


def _first_exchange_violation(n, bases):
    """The first (b1, b2, x) in input order with x in b1 - b2 and no y in
    b2 - b1 making b1 - x + y a basis: the exchange check as the triple
    loop it replaced, the reference for Matroid.from_bases."""
    sets = [frozenset(b) for b in bases]
    for b1 in sets:
        for b2 in sets:
            for x in sorted(b1 - b2):
                if not any(b1 - {x} | {y} in sets for y in b2 - b1):
                    return sorted(b1), sorted(b2), x
    return None


@st.composite
def _equal_size_families(draw):
    """(n, bases): 1-8 subsets of one size k of {0, ..., n-1}, n <= 6,
    repeats allowed, each in a drawn element order.  Most are not the
    bases of a matroid."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    subsets = st.sampled_from(list(combinations(range(n), k)))
    family = draw(st.lists(subsets, min_size=1, max_size=8))
    return n, [draw(st.permutations(b)) for b in family]


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

    @given(_equal_size_families())
    def test_exchange_check_matches_triple_loop(self, family):
        n, bases = family
        violation = _first_exchange_violation(n, bases)
        if violation is None:
            try:
                Matroid.from_bases(n, bases)
            except InvalidInputError as exc:  # a loop, say
                assert "exchange" not in str(exc)
            return
        b1, b2, x = violation
        with pytest.raises(InvalidInputError) as exc:
            Matroid.from_bases(n, bases)
        assert str(exc.value) == f"bases violate the exchange axiom at {b1}, {b2}, element {x}"

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
        """The generic engine's MatroidLocalModel takes the y-images of
        every section, the fast path only those of the bottom-stalk lifts;
        the Fano plane's bottom stalk over GF(2) has generators in degrees
        1 and 2."""
        cases = [
            (Matroid.uniform(1, 2), QQ),
            (Matroid.uniform(2, 3), QQ),
            (Matroid.uniform(3, 4), QQ),
            (Matroid.boolean(3), QQ),
            (Matroid.uniform(4, 5), QQ),
            (Matroid.fano(), GF(2)),
            (Matroid.uniform(3, 5), GF(3)),
        ]
        for m, field in cases:
            lat, gsheaf = build_matroid_sheaf_generic(m, field)
            fast = matroid_sheaf(m, field)
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


# -- the memo keyed by lattice isomorphism ------------------------------------------


def _graphic_from_bases(n_vertices, edges):
    m = Matroid.graphic(n_vertices, edges)
    return Matroid.from_bases(m.n, bases_of(m))


def _memo_inputs():
    k5 = list(combinations(range(5), 2))
    wheel = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
    return {
        "K4": lambda: _graphic_from_bases(4, list(combinations(range(4), 2))),
        "fano": Matroid.fano,
        "K5": lambda: _graphic_from_bases(5, k5),
        "K5-e": lambda: _graphic_from_bases(5, k5[:-1]),
        "W4": lambda: _graphic_from_bases(5, wheel),
    }


def _relabelled(m, seed):
    """m on a seeded permutation of its ground set; returns (matroid, perm)
    with element e of m presented as perm[e]."""
    perm = list(range(m.n))
    random.Random(seed).shuffle(perm)
    return Matroid.from_bases(m.n, [[perm[e] for e in b] for b in bases_of(m)]), perm


def _stalks_by_flat(sheaf):
    return {f: sheaf.stalk_poincare(j) for j, f in enumerate(sheaf.flats)}


def _rank3(n, lines):
    """The simple rank-3 matroid on n points whose lines with more than two
    points are the given ones."""
    records = [{"set": [], "rank": 0}] + [{"set": [i], "rank": 1} for i in range(n)]
    covered = set()
    for line in lines:
        records.append({"set": list(line), "rank": 2})
        covered |= {frozenset(p) for p in combinations(line, 2)}
    for p in combinations(range(n), 2):
        if frozenset(p) not in covered:
            records.append({"set": list(p), "rank": 2})
    records.append({"set": list(range(n)), "rank": 3})
    return Matroid.from_flats(n, records)


def _count_builds(monkeypatch):
    count = [0]
    init = matroid_ih.MatroidIHSheaf.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(matroid_ih.MatroidIHSheaf, "__init__", counted)
    return count


def _rank5_inputs():
    """Rank-5 matroids with a rank-2 flat F whose stalk, the KL polynomial
    of [F, E], is not 1: the triangles of the prism graph, with K4 above
    them, and the two coloops of U(3,4) + U(2,2), with U(3,4) above."""
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return {
        "prism": lambda: _graphic_from_bases(6, prism),
        "U(3,4)+U(2,2)": lambda: Matroid.from_bases(
            6, [list(b) + [4, 5] for b in combinations(range(4), 3)]
        ),
    }


def _unshared(m, field, monkeypatch):
    """(stalks by flat, Z-polynomial) of a build in which every search
    gives up at once and the memo is cleared before each contraction, so
    no two intervals share a sheaf."""
    with monkeypatch.context() as patch:
        contract = Matroid.contract

        def fresh_contract(self, f):
            matroid_ih._MEMO.clear()
            return contract(self, f)

        patch.setattr(Matroid, "contract", fresh_contract)
        patch.setattr(matroid_ih, "_SEARCH_STEPS", 0)
        matroid_ih._MEMO.clear()
        sheaf = matroid_sheaf(m, field)
        return _stalks_by_flat(sheaf), sheaf.z_polynomial()


def _moved(want, perm):
    """want for the copy of the matroid with element e presented as perm[e]."""
    stalks, z = want
    return {frozenset(perm[e] for e in f): poly for f, poly in stalks.items()}, z


def _sections_kept_by_automorphisms(sheaf, d):
    """Whether every automorphism of the sheaf's lattice, permuting the
    full coordinates (flat, generator) at degree d, maps the global
    sections onto themselves."""
    shape = FlatMasks.of(sheaf.lattice)
    layout = sheaf.full_layout(d)
    pos = {key: c for c, key in enumerate(layout)}
    space = _global_sections(sheaf, d)
    for sigma in permutations(range(shape.n)):
        images = [_image(mask, sigma) for mask in shape.masks]
        if not all(m in shape.index for m in images):
            continue
        moved = space.copy()
        for v in space.basis():
            w = [0] * len(layout)
            for c, (j, gi) in enumerate(layout):
                w[pos[(shape.index[images[j]], gi)]] = int(v[c])
            moved.add(w)
        if moved.dim != space.dim:
            return False
    return True


def _global_sections(sheaf, d):
    """The global sections at degree d in full coordinates, spanned by
    (0, n), n in N_d, and (e_i, h^(d - deg i) lift_i) for each bottom
    stalk generator i of degree <= d, each lift raised by _raised."""
    sheaf._ensure(d)
    layout = sheaf.full_layout(d)
    nm = len(layout) - len(sheaf.proper_layout(d))  # bottom generators come first
    space = RowSpace(sheaf.field, len(layout))
    for v in sheaf._nspace[d].basis():
        space.add([0] * nm + list(map(int, v)))
    for gi in range(nm):
        lift_deg, lift_vec = sheaf._lifts[gi]
        (shifted,) = _raised(sheaf, [lift_vec], lift_deg, d, sheaf.bottom)
        head = [0] * nm
        head[gi] = 1
        space.add(head + shifted)
    return space


class TestIsomorphismMemo:
    @pytest.mark.parametrize("name", sorted(_memo_inputs()))
    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_shared_sheaves_match_unshared_builds(self, name, p, monkeypatch):
        """Stalks at every flat and the Z-polynomial, for the matroid and
        a relabelling of it, with the memo on, against an unshared build."""
        field = GF(p) if p else QQ
        m = _memo_inputs()[name]()
        relabelled, perm = _relabelled(m, seed=sum(map(ord, name)))
        want = _unshared(m, field, monkeypatch)

        matroid_ih._MEMO.clear()
        shared = matroid_sheaf(m, field)
        assert (_stalks_by_flat(shared), shared.z_polynomial()) == want
        # the relabelled copy finds its intervals among the stored sheaves
        other = matroid_sheaf(relabelled, field)
        assert (_stalks_by_flat(other), other.z_polynomial()) == _moved(want, perm)
        if not p:
            L = m.lattice()
            table = solve_kls(matroid_kernel(L))
            assert all(shared.stalk_poincare(j) == table[(j, L.top())] for j in L.elements())

    @pytest.mark.parametrize(
        "name, p",
        [("prism", 0), ("prism", 2), ("U(3,4)+U(2,2)", 0), ("U(3,4)+U(2,2)", 2), ("U(3,4)+U(2,2)", 3)],
    )
    def test_stalk_bases_agree_across_chains(self, name, p, monkeypatch):
        """Rank-5 matroids with a rank-2 flat whose stalk is nontrivial,
        as given and relabelled, against an unshared build.  The sheaf of
        the contraction at an atom is built first as a root, which may
        read its own children through any isomorphism and so must not be
        read as a child of the rank-5 sheaf."""
        field = GF(p) if p else QQ
        m = _rank5_inputs()[name]()
        want = _unshared(m, field, monkeypatch)
        for seed in (None, 1):
            other, perm = (m, range(m.n)) if seed is None else _relabelled(m, seed)
            matroid_ih._MEMO.clear()
            matroid_sheaf(other.contract(other.flats()[1])[0], field)
            got = matroid_sheaf(other, field)
            assert (_stalks_by_flat(got), got.z_polynomial()) == _moved(want, perm), seed
            assert got.nested

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_automorphisms_fix_the_sections_of_settled_sheaves_only(self, p):
        """Permuting coordinates by a lattice automorphism keeps the global
        sections of a settled sheaf, which is what lets any isomorphism
        read one; for the lattice of U(3,4) it does not in degree 1."""
        field = GF(p) if p else QQ
        matroid_ih._MEMO.clear()
        for m in (Matroid.boolean(3), Matroid.uniform(2, 3), Matroid.uniform(2, 4)):
            s = matroid_sheaf(m, field)
            assert s.settled
            assert all(_sections_kept_by_automorphisms(s, d) for d in range(m.rank + 1))
        u34 = matroid_sheaf(Matroid.uniform(3, 4), field)
        assert not u34.settled
        assert not _sections_kept_by_automorphisms(u34, 1)

    def test_root_reads_children_through_any_isomorphism_only_when_safe(self):
        """The flats of rank >= 2 of K5 are settled, so its root reads the
        partition lattice of 4 (KL polynomial 1 + t) through arbitrary
        isomorphisms and is not nested; the prism graph has K4 above its
        triangles, so it reads those children naturally."""
        matroid_ih._MEMO.clear()
        k5 = matroid_sheaf(_memo_inputs()["K5"]())
        assert not k5.nested
        assert all(child.nested for _, child, _ in k5.children)
        assert matroid_sheaf(_rank5_inputs()["prism"]()).nested

    def test_isomorphism_maps_flats_to_an_isomorphic_lattice(self):
        for seed, (name, make) in enumerate(sorted(_memo_inputs().items())):
            m = make()
            other, _ = _relabelled(m, seed)
            src, dst = FlatMasks.of(m.lattice()), FlatMasks.of(other.lattice())
            sigma = find_isomorphism(src, dst)
            assert sorted(sigma) == list(range(src.n)), name
            fmap = [dst.index[_image(mask, sigma)] for mask in src.masks]
            assert sorted(fmap) == list(range(len(fmap)))
            A, B = m.lattice(), other.lattice()
            for i in A.elements():
                assert A.rank[i] == B.rank[fmap[i]]
                for j in A.elements():
                    assert A.leq(i, j) == B.leq(fmap[i], fmap[j]), (name, i, j)

    def test_search_rejects_non_isomorphic_lattices_with_equal_invariants(self, monkeypatch):
        """Two rank-3 matroids on 8 points with four 3-point lines each: a
        cycle of lines, and a triangle of lines with a fourth line through
        a point of it.  Every point lies on the same number of 3-point
        lines in both, so all the bucket invariants agree.  Enumerating
        rank-3 matroids on 6 and 7 points turns up no such pair."""
        cycle = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)]
        triangle = [(0, 1, 2), (2, 3, 4), (4, 5, 0), (1, 6, 7)]
        a = FlatMasks.of(_rank3(8, cycle).lattice())
        b = FlatMasks.of(_rank3(8, triangle).lattice())
        assert a.key == b.key
        lines = [frozenset(line) for line in cycle]
        target = {frozenset(line) for line in triangle}
        assert not any(
            {frozenset(p[i] for i in line) for line in lines} == target
            for p in permutations(range(8))
        )
        monkeypatch.setattr(matroid_ih, "_SEARCH_STEPS", 10**9)
        assert find_isomorphism(a, b) is None
        assert find_isomorphism(a, a) is not None

    def test_full_assignments_are_checked_flat_by_flat(self, monkeypatch):
        """Two families of atom sets with every pair of six atoms and four
        triples, each atom in two triples.  All lines have two atoms, so
        the line pruning passes every bijection; only the check that
        each set maps onto a set tells the families apart."""
        def family(triples):
            sets = [()] + [(i,) for i in range(6)] + list(combinations(range(6), 2))
            sets += triples + [tuple(range(6))]
            return FlatMasks([sum(1 << i for i in s) for s in sets])

        shared_pairs = [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)]
        shared_points = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]
        a, b = family(shared_pairs), family(shared_points)
        assert a.key == b.key
        assert not any(
            {frozenset(p[i] for i in t) for t in shared_pairs}
            == {frozenset(t) for t in shared_points}
            for p in permutations(range(6))
        )
        monkeypatch.setattr(matroid_ih, "_SEARCH_STEPS", 10**9)
        assert find_isomorphism(a, b) is None
        assert find_isomorphism(a, family(shared_pairs[::-1])) is not None

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        n = 200
        top = (1 << n) - 1
        a = FlatMasks([0] + [1 << i for i in range(n)] + [top])
        b = FlatMasks([0] + [1 << i for i in reversed(range(n))] + [top])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            sigma = find_isomorphism(a, b)
        finally:
            sys.setrecursionlimit(limit)
        assert sorted(sigma) == list(range(n))

    def test_search_out_of_steps_is_a_miss(self, monkeypatch):
        k5 = _memo_inputs()["K5"]()
        other, _ = _relabelled(k5, seed=5)
        src, dst = FlatMasks.of(k5.lattice()), FlatMasks.of(other.lattice())
        assert find_isomorphism(src, dst) is not None
        monkeypatch.setattr(matroid_ih, "_SEARCH_STEPS", 3)
        assert find_isomorphism(src, dst) is None

        L = k5.lattice()
        table = solve_kls(matroid_kernel(L))
        builds = _count_builds(monkeypatch)
        for steps in (0, 1):
            monkeypatch.setattr(matroid_ih, "_SEARCH_STEPS", steps)
            matroid_ih._MEMO.clear()
            builds[0] = 0
            s = matroid_sheaf(k5)
            assert builds[0] > 5
            assert all(s.stalk_poincare(j) == table[(j, L.top())] for j in L.elements())
            assert s.z_polynomial() == z_polynomial(table, L.bottom(), L.top())

    @pytest.mark.parametrize(
        "name, builds", [("K4", 4), ("fano", 4), ("K5", 5), ("K5-e", 7), ("W4", 7)]
    )
    def test_one_build_per_isomorphism_class(self, name, builds, monkeypatch):
        """One sheaf per isomorphism class of interval [F, E]: for K5 the
        partition lattices of 5, 4, 3, 2 and 1 points."""
        count = _count_builds(monkeypatch)
        matroid_ih._MEMO.clear()
        matroid_sheaf(_memo_inputs()[name]())
        assert count[0] == builds

    def test_matroid_sheaf_reuses_only_the_same_labelling(self):
        matroid_ih._MEMO.clear()
        m = _memo_inputs()["K4"]()
        s = matroid_sheaf(m)
        assert matroid_sheaf(Matroid.from_bases(m.n, bases_of(m))) is s
        other, _ = _relabelled(m, seed=1)
        assert matroid_sheaf(other) is not s
        # parallel classes {0, 1} and {1, 2}: equal atom masks, other flats
        a = Matroid.from_bases(3, [[0, 2], [1, 2]])
        b = Matroid.from_bases(3, [[0, 1], [0, 2]])
        assert FlatMasks.of(a.lattice()).masks == FlatMasks.of(b.lattice()).masks
        assert matroid_sheaf(a).flats == a.flats()
        assert matroid_sheaf(b).flats == b.flats() != a.flats()


class TestClosureFromBases:
    def test_one_pass_closure_matches_rank_oracle(self):
        """A matroid given by bases against the same rank oracle without
        the one-pass closure: every closure, the flats, their order and
        their ranks."""
        matroids = [m() for m in _memo_inputs().values()]
        matroids.append(Matroid.from_bases(5, [list(b) for b in combinations(range(5), 3)]))
        for m in matroids:
            if m._close is None:
                m = Matroid.from_bases(m.n, bases_of(m))
            oracle = Matroid(m.n, m._rank_fn)
            for size in range(m.n + 1):
                for s in combinations(range(m.n), size):
                    assert m.closure(s) == oracle.closure(s)
            assert m.flats() == oracle.flats()
            assert [m.rank_of(f) for f in m.flats()] == [oracle.rank_of(f) for f in oracle.flats()]
            assert m.lattice().covers == oracle.lattice().covers


def _full_basis_by_loops(sheaf, d):
    """The global sections at degree d, solved for as the pairs (m, s), s in
    F_d, whose residuals modulo N_d agree, and combined entry by entry with
    the field's scalar operations: an independent reference for
    MatroidIHSheaf.annihilator, which reads their annihilators off N_d and
    the lifts.  It reads F_d and N_d, so the sweep must have reached
    degree d.  A single flat's sections are its whole stalk."""
    field = sheaf.field
    layout = sheaf.full_layout(d)
    space = RowSpace(field, len(layout))
    if not sheaf.rank:
        space.add([field.from_int(1)])
        return space
    pos = {key: c for c, key in enumerate(layout)}
    proper_layout = sheaf.proper_layout(d)
    fbasis = sheaf.proper_basis(d)
    active = [gi for gi, gd in enumerate(sheaf.stalk_shapes[0]) if gd <= d]
    nred = sheaf._nspace[d]
    residuals = [nred.reduce(v)[0] for v in fbasis]
    for gi in active:
        lift_deg, lift_vec = sheaf._lifts[gi]
        (shifted,) = _raised(sheaf, [lift_vec], lift_deg, d, sheaf.bottom)
        residuals.append([field.neg(x) for x in nred.reduce(shifted)[0]])
    rows = [[r[c] for r in residuals] for c in range(len(proper_layout))]
    for sol in kernel_basis(rows, len(residuals), field):
        vec = [field.zero] * len(layout)
        for j, v in enumerate(fbasis):
            for c, key in enumerate(proper_layout):
                vec[pos[key]] = field.add(vec[pos[key]], field.mul(sol[j], v[c]))
        for jj, gi in enumerate(active):
            vec[pos[(0, gi)]] = sol[len(fbasis) + jj]
        space.add(vec)
    return space


def _ints(vectors):
    return [list(map(int, v)) for v in vectors]


class TestFullBasis:
    @pytest.mark.parametrize("p", [0, 2, 3, 65521])
    def test_combination_matches_scalar_loops(self, p):
        """annihilator(d), combined from N_d and the lifts, spans the
        kernel of the global sections solved for entry by entry, with one
        vector per dimension: its echelon form is that kernel's
        kernel_basis, and it has as many vectors.  For every sheaf a build
        memoizes and every degree up to its rank + 2, the degrees parents
        read.  U(1,2) has a rank-0 child and B3 is settled."""
        field = GF(p) if p else QQ
        inputs = (
            Matroid.fano(), Matroid.uniform(3, 5), Matroid.uniform(4, 5), _memo_inputs()["K4"](),
            Matroid.uniform(1, 2), Matroid.boolean(3),
        )
        for m in inputs:
            matroid_ih._MEMO.clear()
            matroid_sheaf(m, field)
            for bucket in list(matroid_ih._MEMO.values()):
                for _, s, _ in bucket:
                    for d in range(s.rank + 3):
                        got = s.annihilator(d)
                        ref = _full_basis_by_loops(s, d)
                        want = kernel_basis(ref.basis(), ref.ncols, field)
                        assert len(got) == len(want), (m, p, s.rank, d)
                        echelon, _ = rref(got, ref.ncols, field)
                        assert _ints(echelon) == _ints(want), (m, p, s.rank, d)


def _raised(sheaf, vectors, e, d, g):
    """The y_g-style images of vectors in degree e: their components at
    the flats above g, written into degree d entry by entry with the
    field's scalar operations.  With g the bottom every component is kept,
    which is multiplication by h^(d - e)."""
    field, L = sheaf.field, sheaf.lattice
    pos = {key: c for c, key in enumerate(sheaf.proper_layout(d))}
    kept = [(c, pos[(j, gi)]) for c, (j, gi) in enumerate(sheaf.proper_layout(e)) if L.leq(g, j)]
    for v in vectors:
        v = list(map(int, v))
        w = [field.zero] * len(pos)
        for c, t in kept:
            if v[c]:
                w[t] = field.from_int(v[c])
        yield w


def _y_span_of_every_section(sheaf):
    """N_d for every d <= rank + 1, fed by every section instead of the
    bottom-stalk lifts: h N_{d-1} + sum_G y_G(F_{d - rk G}), each image
    written entry by entry by _raised.  y_G keeps the components at the
    flats above G and raises their degree by rk G."""
    L = sheaf.lattice
    proper = [sheaf.proper_basis(d) for d in range(sheaf.rank + 2)]
    spans = []
    for d in range(sheaf.rank + 2):
        size = len(sheaf.proper_layout(d))
        # (source degree, flat whose up-set y keeps, vectors)
        sources = [(d - 1, sheaf.bottom, spans[d - 1].basis())] if d else []
        for g in range(1, len(sheaf.flats)):
            if L.rank[g] <= d:
                sources.append((d - L.rank[g], g, proper[d - L.rank[g]]))
        span = RowSpace(sheaf.field, size)
        for e, g, vectors in sources:
            for w in _raised(sheaf, vectors, e, d, g):
                if span.dim == size:
                    break  # nothing more to span
                span.add(w)
        spans.append(span)
    return spans


def _rref(space):
    return _ints(space.basis())


class TestYSpan:
    @pytest.mark.parametrize("name", sorted(_memo_inputs() | _rank5_inputs()))
    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_y_span_of_the_lifts_is_the_y_span_of_every_section(self, name, p):
        """The sweep feeds N only the y-images of the bottom-stalk lifts;
        for the input and every sheaf built on the way, N_d is the y-span
        of all sections in every degree d <= rank + 1.  And the sweep
        reduces F_d modulo N_d plus the lower lifts shifted to degree d,
        which must be N_d + h F_{d-1}."""
        field = GF(p) if p else QQ
        matroid_ih._MEMO.clear()
        matroid_sheaf((_memo_inputs() | _rank5_inputs())[name](), field)
        sheaves = [s for bucket in matroid_ih._MEMO.values() for _, s, _ in bucket]
        for s in sheaves:
            if s.rank == 0:
                continue
            want = _y_span_of_every_section(s)
            for d in range(s.rank + 2):
                assert _rref(s._nspace[d]) == _rref(want[d]), (s.matroid, d)
                with_h_f = want[d].copy()
                with_lifts = want[d].copy()
                if d:
                    for w in _raised(s, s.proper_basis(d - 1), d - 1, d, s.bottom):
                        with_h_f.add(w)
                for e, v in s._lifts:
                    if e < d:
                        with_lifts.add(*_raised(s, [v], e, d, s.bottom))
                assert _rref(with_h_f) == _rref(with_lifts), (s.matroid, d)

    def test_a_y_span_outside_the_sections_is_refused(self, monkeypatch):
        """If y_G forgot the top flat's component, its images would leave
        F; the sweep's check that N_d + h F_{d-1} lies in F_d refuses it."""
        gather_scatter = matroid_ih.MatroidIHSheaf._gather_scatter

        def drop_top(self, vec, src_positions, dst_positions, size):
            return gather_scatter(self, vec, src_positions[:-1], dst_positions[:-1], size)

        monkeypatch.setattr(matroid_ih.MatroidIHSheaf, "_gather_scatter", drop_top)
        matroid_ih._MEMO.clear()
        with pytest.raises(TruncationBoundError):
            matroid_sheaf(Matroid.uniform(3, 4))
        matroid_ih._MEMO.clear()


# -- a closed-form anchor for uniform matroids, with no lattice ---------------------


def _times_t_minus_1(coeffs):
    return [(coeffs[i - 1] if i else 0) - (coeffs[i] if i < len(coeffs) else 0)
            for i in range(len(coeffs) + 1)]


@lru_cache(maxsize=None)
def _uniform_kl(k, n):
    """Coefficients of P_{U(k,n)}, read off t^k P(1/t) - P(t) =
    sum_{1<=r<k} C(n,r) (t-1)^r P_{U(k-r,n-r)}(t) + chi_{U(k,n)}(t): the
    flats below E are the r-subsets with r < k, each with a Boolean
    localization and the contraction U(k-r, n-r), and chi_{U(k,n)}(t) =
    sum_{i<k} (-1)^i C(n,i) (t^(k-i) - 1).  P has degree below k/2, so its
    coefficients are minus those of the right side below k/2."""
    rhs = [0] * (k + 1)
    for i in range(k):
        rhs[k - i] += (-1) ** i * comb(n, i)
        rhs[0] -= (-1) ** i * comb(n, i)
    for r in range(1, k):
        term = list(_uniform_kl(k - r, n - r))
        for _ in range(r):
            term = _times_t_minus_1(term)
        for i, c in enumerate(term):
            rhs[i] += comb(n, r) * c
    return tuple(-c for c in rhs[: (k + 1) // 2])


class TestUniformAnchor:
    def test_fast_path(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert kl_polynomial(Matroid.uniform(k, n)) == UniPoly(_uniform_kl(k, n)), (k, n)

    def test_recursion_route(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                L = Matroid.uniform(k, n).lattice()
                table = solve_kls(matroid_kernel(L))
                assert table[(L.bottom(), L.top())] == UniPoly(_uniform_kl(k, n)), (k, n)

    def test_elias_proudfoot_wakefield(self):
        """P_{U(d,d+1)} has t^i-coefficient C(d-i-1, i) C(d+1, i) / (i+1)
        (Elias, Proudfoot and Wakefield, arXiv:1412.7408)."""
        for d in range(1, 10):
            want = [comb(d - i - 1, i) * comb(d + 1, i) // (i + 1) for i in range((d + 1) // 2)]
            assert UniPoly(_uniform_kl(d, d + 1)) == UniPoly(want), d
        assert _uniform_kl(7, 8) == (1, 20, 56, 14)
        assert _uniform_kl(9, 10) == (1, 35, 225, 300, 42)
