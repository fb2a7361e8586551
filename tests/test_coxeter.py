"""Coxeter groups: enumeration, Bruhat order, Bruhat graphs, R-polynomials."""

import pytest

from klsc.coxeter import (
    CartanDatum,
    CoxeterGroup,
    bruhat_graph,
    element_from_json,
    enumerate_interval,
    p_gkm_check,
    r_polynomial,
    word_from_permutation,
)
from klsc.errors import InvalidInputError
from klsc.kls import coxeter_R_kernel, solve_kls, verify_kernel
from klsc.poly import UniPoly

from helpers import longest_element, reflection_matrix_from_root, subword_leq
from helpers import mat_mul as _mat_mul


def group(name):
    return CoxeterGroup(CartanDatum.from_type(name))


class TestEnumeration:
    def test_orders(self):
        assert group("A2").size == 6
        assert group("A3").size == 24
        assert group("B2").size == 8
        assert group("G2").size == 12

    def test_longest_element_length(self):
        assert group("A3").length[longest_element(group("A3"))] == 6
        assert group("B2").length[longest_element(group("B2"))] == 4

    def test_infinite_type_rejected(self):
        affine = [[2, -2], [-2, 2]]
        with pytest.raises(InvalidInputError):
            CoxeterGroup(CartanDatum.from_matrix(affine))

    def test_size_cap_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr("klsc.coxeter.GROUP_SIZE_CAP", 23)
        with pytest.raises(InvalidInputError, match="cap of 23"):
            group("A3")
        assert group("A2").size == 6

    def test_non_crystallographic_rejected(self):
        with pytest.raises(InvalidInputError):
            CartanDatum.from_type("H3")

    def test_word_roundtrip(self):
        W = group("A3")
        for x in range(W.size):
            assert W.from_word(W.words[x]) == x
            assert W.length[x] == len(W.words[x])

    def test_type_a_matches_permutation_count(self):
        W = group("A2")
        words = {W.from_word(word_from_permutation(p)) for p in
                 [(1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)]}
        assert len(words) == 6

    def test_inverse(self):
        W = group("B2")
        for x in range(W.size):
            assert W.multiply(x, W.inverse(x)) == W.identity


@pytest.mark.parametrize(
    "cartan",
    # custom: the transpose of G2's Cartan matrix, which no named type builds
    ["A3", "B3", "D4", "G2", [[2, -3], [-1, 2]]],
    ids=["A3", "B3", "D4", "G2", "custom"],
)
class TestProductTables:
    """Products, inverses and reflections are read from the tables; both
    routes use them, so they are checked against matrix products here."""

    @staticmethod
    def group_and_word_matrices(cartan):
        datum = (
            CartanDatum.from_type(cartan)
            if isinstance(cartan, str)
            else CartanDatum.from_matrix(cartan)
        )
        W = CoxeterGroup(datum)
        n = W.rank
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        # s_i(alpha_j) = alpha_j - a_ij alpha_i, on root coordinates
        a = datum.matrix
        gens = [
            tuple(
                tuple(int(r == j) - (a[i][j] if r == i else 0) for j in range(n))
                for r in range(n)
            )
            for i in range(n)
        ]
        mats = []
        for x in range(W.size):
            m = eye
            for s in reversed(W.words[x]):
                m = _mat_mul(gens[s], m, n)
            mats.append(m)
        return W, gens, mats, eye

    def test_left_and_inverse(self, cartan):
        W, gens, mats, eye = self.group_and_word_matrices(cartan)
        assert W.matrices == mats
        assert len(set(mats)) == W.size
        for x in range(W.size):
            for s in range(W.rank):
                assert mats[W.left[s][x]] == _mat_mul(gens[s], mats[x], W.rank)
            assert _mat_mul(mats[x], mats[W.inverse(x)], W.rank) == eye

    def test_multiply_every_pair(self, cartan):
        W, _, mats, _ = self.group_and_word_matrices(cartan)
        for x in range(W.size):
            for y in range(W.size):
                assert mats[W.multiply(x, y)] == _mat_mul(mats[x], mats[y], W.rank)

    def test_reflections_are_conjugates_of_generators(self, cartan):
        W, gens, mats, eye = self.group_and_word_matrices(cartan)
        n = W.rank
        position = {m: x for x, m in enumerate(mats)}
        expected = set()
        for w in range(W.size):
            # the inverse of a word's matrix is its reversed word's matrix
            inv = eye
            for s in W.words[w]:
                inv = _mat_mul(gens[s], inv, n)
            for i in range(n):
                expected.add(position[_mat_mul(_mat_mul(mats[w], gens[i], n), inv, n)])
        got = [t for t, _, _ in W.reflections()]
        assert len(got) == len(set(got))
        assert set(got) == expected
        for t, root, coroot in W.reflections():
            assert mats[t] == reflection_matrix_from_root(W, root, coroot)


class TestBruhatOrder:
    def test_subword_property_cross_check(self):
        for name in ("A2", "A3"):
            W = group(name)
            for x in range(W.size):
                for w in range(W.size):
                    assert W.bruhat_leq(x, w) == subword_leq(W, x, w)

    def test_interval_sizes(self):
        W = group("A2")
        assert len(enumerate_interval(W, W.identity, longest_element(W))) == 6
        w = longest_element(W)
        assert len(enumerate_interval(W, w, w)) == 1

    def test_interval_3412(self):
        W = group("A3")
        w = W.from_word(word_from_permutation((3, 4, 1, 2)))
        assert W.length[w] == 4
        iv = enumerate_interval(W, W.identity, w)
        assert len(iv) == 14

    def test_empty_interval_rejected(self):
        W = group("A2")
        a = W.from_word((0,))
        b = W.from_word((1,))
        with pytest.raises(InvalidInputError):
            enumerate_interval(W, a, b)

    def test_s3_interval_rank_sizes(self):
        W = group("A2")
        iv = enumerate_interval(W, W.identity, longest_element(W))
        assert iv.poset.rank_sizes() == [1, 2, 2, 1]


class TestBruhatGraph:
    def test_s3_edge_count(self):
        # brute force over all reflections t and elements u: 3 reflections,
        # each pairing up the 6 elements, gives 9 edges
        W = group("A2")
        iv = enumerate_interval(W, W.identity, longest_element(W))
        refls = [t for t, _, _ in W.reflections()]
        assert len(refls) == 3
        pairs = set()
        for t in refls:
            for u in range(W.size):
                v = W.multiply(t, u)
                pairs.add((min(u, v), max(u, v)))
        G = bruhat_graph(W, iv)
        assert len(G.edges) == len(pairs) == 9

    def test_single_cover_edge_label(self):
        W = group("A2")
        s = W.from_word((0,))
        iv = enumerate_interval(W, W.identity, s)
        G = bruhat_graph(W, iv)
        assert len(G.edges) == 1
        assert G.edges[0].label == (1, 0)  # alpha_1

    def test_a3_adjacent_transposition_label(self):
        W = group("A3")
        s1 = W.from_word((0,))
        iv = enumerate_interval(W, W.identity, s1)
        G = bruhat_graph(W, iv)
        lab = G.edges[0].label
        assert lab == (1, 0, 0)  # alpha_1, which is e_1 - e_2 in type A

    def test_labels_are_positive_roots(self):
        W = group("B2")
        iv = enumerate_interval(W, W.identity, longest_element(W))
        G = bruhat_graph(W, iv)
        for e in G.edges:
            assert all(c >= 0 for c in e.label)
            assert G.lengths[e.u] < G.lengths[e.v]

    def test_reflection_matrix_two_ways(self):
        for name in ("A3", "B2", "G2"):
            W = group(name)
            for t, root, coroot in W.reflections():
                assert W.matrices[t] == reflection_matrix_from_root(W, root, coroot)


class TestPGKM:
    def test_a2_mod_5(self):
        W = group("A2")
        iv = enumerate_interval(W, W.identity, longest_element(W))
        ok, _ = p_gkm_check(bruhat_graph(W, iv), 5)
        assert ok

    def test_rank_one_vacuous(self):
        W = group("A2")
        iv = enumerate_interval(W, W.identity, W.from_word((0,)))
        ok, _ = p_gkm_check(bruhat_graph(W, iv), 2)
        assert ok

    def test_b2_mod_2_fails(self):
        # B2 has roots alpha, beta, alpha+beta, alpha+2beta; the last is
        # parallel to alpha mod 2 and they meet at every vertex
        W = group("B2")
        iv = enumerate_interval(W, W.identity, longest_element(W))
        ok, witness = p_gkm_check(bruhat_graph(W, iv), 2)
        assert not ok
        vertex, lab1, lab2 = witness
        assert tuple((a - b) % 2 for a, b in zip(lab1, lab2)) == (0, 0)

    def test_a3_mod_2_holds(self):
        # all six positive roots of A3 are distinct mod 2, and distinct
        # nonzero vectors over GF(2) are never parallel
        W = group("A3")
        iv = enumerate_interval(W, W.identity, longest_element(W))
        ok, _ = p_gkm_check(bruhat_graph(W, iv), 2)
        assert ok


class TestRPolynomials:
    def test_cover(self):
        W = group("A2")
        s = W.from_word((0,))
        assert r_polynomial(W, W.identity, s) == UniPoly((-1, 1))

    def test_diagonal(self):
        W = group("A2")
        w = longest_element(W)
        assert r_polynomial(W, w, w) == UniPoly.one()

    def test_s3_full(self):
        W = group("A2")
        assert r_polynomial(W, W.identity, longest_element(W)) == UniPoly((-1, 2, -2, 1))

    def test_r_kernel_verifies(self):
        for name, wspec in (("A2", None), ("A3", (3, 4, 1, 2)), ("B2", None)):
            W = group(name)
            w = (
                longest_element(W)
                if wspec is None
                else W.from_word(word_from_permutation(wspec))
            )
            iv = enumerate_interval(W, W.identity, w)
            K = coxeter_R_kernel(iv)
            ok, witness = verify_kernel(K)
            assert ok, witness

    def test_kl_polynomials_s3_trivial(self):
        W = group("A2")
        iv = enumerate_interval(W, W.identity, longest_element(W))
        table = solve_kls(coxeter_R_kernel(iv))
        for pair in table.pairs():
            assert table[pair] == UniPoly.one()

    def test_kl_polynomial_3412(self):
        W = group("A3")
        w = W.from_word(word_from_permutation((3, 4, 1, 2)))
        iv = enumerate_interval(W, W.identity, w)
        table = solve_kls(coxeter_R_kernel(iv))
        e = iv.pos[W.identity]
        top = iv.pos[w]
        assert table[(e, top)] == UniPoly((1, 1))


class TestJson:
    def test_element_parsing(self):
        W = group("A2")
        assert element_from_json(W, "e") == W.identity
        assert element_from_json(W, [1, 2, 1]) == longest_element(W)
        with pytest.raises(InvalidInputError):
            element_from_json(W, [0, 1])
