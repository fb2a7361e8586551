"""Ranked posets: order queries, Moebius function, Eulerian test, lattices."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from klsc.errors import InvalidInputError
from klsc.poly import UniPoly
from klsc.poset import RankedPoset, UpperSet, boolean_lattice, chain
from klsc.validate import matroid_corpus

from helpers import (
    brute_mobius,
    simplex_cone_face_poset,
    square_cone_face_poset,
    uniform_flats_poset,
)


def random_ranked_poset(seed, max_levels=4, max_width=4):
    """A random layered poset: levels of random width, random covers
    between consecutive levels (plus a chain edge to keep ranks honest)."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, max_width) for _ in range(rng.randint(1, max_levels))]
    ranks = []
    ids = []
    start = 0
    for r, size in enumerate(sizes):
        ids.append(list(range(start, start + size)))
        ranks.extend([r] * size)
        start += size
    covers = []
    for lower, upper in zip(ids, ids[1:]):
        for b in upper:
            a = rng.choice(lower)
            covers.append((a, b))
        for a in lower:
            for b in upper:
                if rng.random() < 0.4:
                    covers.append((a, b))
    return RankedPoset(ranks, sorted(set(covers)))


class TestBasics:
    def test_cover_must_increase_rank(self):
        with pytest.raises(InvalidInputError):
            RankedPoset([0, 0], [(0, 1)])

    def test_boolean_lattice_structure(self):
        B3 = boolean_lattice(3)
        assert B3.rank_sizes() == [1, 3, 3, 1]
        assert B3.is_lattice()
        assert B3.is_geometric_lattice()
        assert B3.join(1, 2) == 3  # {0} v {1} = {0,1}
        assert B3.meet(3, 5) == 1  # {0,1} ^ {0,2} = {0}

    def test_interval_and_upper_sets(self):
        B3 = boolean_lattice(3)
        assert sorted(B3.interval(0, 7)) == list(range(8))
        up = B3.upper_set(3)
        assert sorted(up) == [3, 7]
        opened = B3.open_upper_set(0)
        assert 0 not in opened and len(opened) == 7

    def test_upper_set_closure_validated(self):
        B2 = boolean_lattice(2)
        with pytest.raises(InvalidInputError):
            UpperSet(B2, 0b0001)  # {bottom} alone is not upward closed
        up = B2.upper_closure([1])
        assert sorted(up) == [1, 3]


class TestMobius:
    def test_mobius_diagonal(self):
        P = uniform_flats_poset(3, 4)
        for x in P.elements():
            assert P.mobius(x, x) == 1

    def test_b2_full_interval(self):
        B2 = boolean_lattice(2)
        assert B2.mobius(0, 3) == 1

    def test_u34_top(self):
        L = uniform_flats_poset(3, 4)
        assert L.n == 12
        bot, top = L.bottom(), L.top()
        assert brute_mobius(L, bot, top) == -3
        assert L.mobius(bot, top) == -3

    def test_inversion_exhaustive(self):
        for P in (
            boolean_lattice(3),
            uniform_flats_poset(3, 4),
            uniform_flats_poset(3, 6),
            square_cone_face_poset(),
        ):
            for x in P.elements():
                for y in P.elements():
                    if P.lt(x, y):
                        total = sum(P.mobius(x, z) for z in P.interval(x, y))
                        assert total == 0

    def test_matches_brute_oracle(self):
        L = uniform_flats_poset(2, 4)
        for x in L.elements():
            for y in L.elements():
                if L.leq(x, y):
                    assert L.mobius(x, y) == brute_mobius(L, x, y)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_inversion_on_random_posets(self, seed):
        P = random_ranked_poset(seed)
        for x in P.elements():
            for y in P.elements():
                if P.lt(x, y):
                    assert sum(P.mobius(x, z) for z in P.interval(x, y)) == 0


class TestEulerian:
    def test_square_cone_face_poset(self):
        assert square_cone_face_poset().is_eulerian()

    def test_chain_is_not(self):
        assert not chain(2).is_eulerian()

    def test_boolean_b3(self):
        assert boolean_lattice(3).is_eulerian()

    def test_flats_lattice_is_not(self):
        assert not uniform_flats_poset(3, 4).is_eulerian()


class TestCounting:
    def test_u34_rank_sizes(self):
        assert uniform_flats_poset(3, 4).rank_sizes() == [1, 4, 6, 1]

    def test_chain_rank_sizes(self):
        assert chain(4).rank_sizes() == [1, 1, 1, 1, 1]

    def test_top_heavy(self):
        ok, witness = uniform_flats_poset(3, 4).top_heavy_check()
        assert ok and witness is None
        single = RankedPoset([0], [])
        assert single.top_heavy_check()[0]

    def test_top_heavy_violation_located(self):
        # artificial poset with rank sizes [1, 3, 2, 3, 1]
        ranks = [0] + [1] * 3 + [2] * 2 + [3] * 3 + [4]
        covers = []
        covers += [(0, i) for i in (1, 2, 3)]
        covers += [(i, j) for i in (1, 2, 3) for j in (4, 5)]
        covers += [(i, j) for i in (4, 5) for j in (6, 7, 8)]
        covers += [(i, 9) for i in (6, 7, 8)]
        P = RankedPoset(ranks, covers)
        ok, witness = P.top_heavy_check()
        assert not ok and witness == (1, 2)


def brute_join(P, x, y):
    """The least common upper bound from leq alone, or None."""
    ups = [z for z in P.elements() if P.leq(x, z) and P.leq(y, z)]
    least = [z for z in ups if all(P.leq(z, u) for u in ups)]
    return least[0] if least else None


def brute_meet(P, x, y):
    downs = [z for z in P.elements() if P.leq(z, x) and P.leq(z, y)]
    greatest = [z for z in downs if all(P.leq(d, z) for d in downs)]
    return greatest[0] if greatest else None


def brute_is_lattice(P):
    return all(
        brute_join(P, x, y) is not None and brute_meet(P, x, y) is not None
        for x in P.elements()
        for y in P.elements()
    )


def brute_is_geometric(P):
    """A lattice with bottom of rank 0 in which every element is the join
    of the atoms below it and rk(x v y) + rk(x ^ y) <= rk x + rk y."""
    if not brute_is_lattice(P):
        return False
    elems = list(P.elements())
    bottom = next(b for b in elems if all(P.leq(b, z) for z in elems))
    if P.rank[bottom] != 0:
        return False
    atoms = [
        a for a in elems
        if a != bottom and not any(P.lt(bottom, z) and P.lt(z, a) for z in elems)
    ]
    for x in elems:
        j = bottom
        for a in atoms:
            if P.leq(a, x):
                j = brute_join(P, j, a)
        if j != x:
            return False
    return all(
        P.rank[brute_join(P, x, y)] + P.rank[brute_meet(P, x, y)] <= P.rank[x] + P.rank[y]
        for x in elems
        for y in elems
    )


def bounded(P):
    """P with a new bottom below and a new top above every element."""
    n = P.n
    ranks = [0] + [r + 1 for r in P.rank] + [max(P.rank) + 2]
    covers = [(a + 1, b + 1) for a, b in P.covers]
    covers += [(0, x + 1) for x in P.minimal_elements()]
    covers += [(x + 1, n + 1) for x in P.maximal_elements()]
    return RankedPoset(ranks, covers)


def n5():
    """The pentagon: 0 < a < b < 1 and 0 < c < 1."""
    return RankedPoset([0, 1, 2, 1, 3], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def atomic_not_semimodular():
    """Bottom; atoms a, b, c; x = a v b at rank 2; a top of rank 3 above x
    and c.  Every element is a join of atoms, but a v c is the top."""
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (4, 5), (3, 5)]
    return RankedPoset([0, 1, 1, 1, 2, 3], covers)


class TestLattices:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_matches_definitions_on_random_posets(self, seed, add_bounds):
        P = random_ranked_poset(seed)
        if add_bounds:
            P = bounded(P)
        for x in P.elements():
            for y in P.elements():
                assert P.join(x, y) == brute_join(P, x, y)
                assert P.meet(x, y) == brute_meet(P, x, y)
        assert P.is_lattice() == brute_is_lattice(P)
        assert P.is_geometric_lattice() == brute_is_geometric(P)

    def test_pentagon_is_a_lattice_but_not_semimodular(self):
        P = n5()
        assert P.is_lattice() and brute_is_lattice(P)
        assert P.join(2, 3) == 4 and P.meet(2, 3) == 0
        assert not P.is_geometric_lattice() and not brute_is_geometric(P)

    def test_chain_is_not_atomic(self):
        P = chain(2)
        assert P.is_lattice()
        assert not P.is_geometric_lattice() and not brute_is_geometric(P)

    def test_atomic_but_not_semimodular(self):
        P = atomic_not_semimodular()
        assert P.is_lattice()
        assert P.join(1, 2) == 4 and P.join(1, 3) == 5 and P.join(4, 3) == 5
        assert not P.is_geometric_lattice() and not brute_is_geometric(P)

    def test_desk_corpus_lattices_of_flats_are_geometric(self):
        for label, m in matroid_corpus():
            L = m.lattice()
            assert L.is_geometric_lattice(), label
            if L.n <= 40:
                assert brute_is_geometric(L), label
                for x in L.elements():
                    for y in L.elements():
                        assert L.join(x, y) == brute_join(L, x, y), label
                        assert L.meet(x, y) == brute_meet(L, x, y), label


class TestCharacteristicPolynomial:
    def test_rank_one(self):
        B1 = boolean_lattice(1)
        assert B1.characteristic_polynomial(0, 1) == UniPoly((-1, 1))

    def test_b2(self):
        B2 = boolean_lattice(2)
        assert B2.characteristic_polynomial(0, 3) == UniPoly((1, -2, 1))

    def test_u34(self):
        L = uniform_flats_poset(3, 4)
        assert L.characteristic_polynomial(L.bottom(), L.top()) == UniPoly((-3, 6, -4, 1))

    def test_vanishes_at_one_on_geometric_lattices(self):
        for L in (boolean_lattice(3), uniform_flats_poset(3, 4), uniform_flats_poset(2, 4)):
            assert L.is_geometric_lattice()
            for x in L.elements():
                for y in L.elements():
                    if L.lt(x, y):
                        assert L.characteristic_polynomial(x, y).eval_at_one() == 0

    def test_incomparable_pair_rejected(self):
        B2 = boolean_lattice(2)
        with pytest.raises(InvalidInputError):
            B2.characteristic_polynomial(1, 2)


class TestDerivedPosets:
    def test_subposet_interval(self):
        B3 = boolean_lattice(3)
        sub, old = B3.interval_poset(1, 7)
        assert sub.n == 4
        assert sub.rank_sizes() == [0, 1, 2, 1][1:]

    def test_dual_of_simplex_face_poset(self):
        P = simplex_cone_face_poset(3)
        assert P.is_eulerian()
        assert P.rank_sizes() == [1, 3, 3, 1]

    def test_json_roundtrip(self):
        P = square_cone_face_poset()
        Q = RankedPoset.from_json(P.to_json())
        assert Q.rank == P.rank and Q.covers == P.covers

    def test_dual(self):
        B3 = boolean_lattice(3)
        D = B3.dual()
        assert D.is_eulerian()
        assert D.rank_sizes() == [1, 3, 3, 1]
        assert D.leq(7, 0) and not D.leq(0, 7)
