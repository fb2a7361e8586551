"""The canonical sheaf on Bruhat graphs: stalks, sections, mod-p variants."""

import random

import pytest

from klsc.coxeter import (
    CartanDatum,
    CoxeterGroup,
    bruhat_graph,
    enumerate_interval,
    word_from_permutation,
)
from klsc.errors import PGKMError
from klsc.field import GF, QQ
from klsc.graded import FreeModuleShape
from klsc.kls import coxeter_R_kernel, solve_kls
from klsc.momentsheaf import EdgeRing, compute_sheaf, structure_ring_dims
from klsc.poly import MultiPoly, UniPoly, monomials

from helpers import (
    check_section_generators,
    longest_element,
    lower_maps,
    section_dims,
    spanned_section_dims,
)


def sheaf_for(name, w_perm=None, field=QQ, v=None):
    W = CoxeterGroup(CartanDatum.from_type(name))
    w = (
        longest_element(W)
        if w_perm is None
        else W.from_word(word_from_permutation(w_perm))
    )
    iv = enumerate_interval(W, v if v is not None else W.identity, w)
    return W, iv, compute_sheaf(bruhat_graph(W, iv), field)


def _random_poly(rng, field, nvars):
    """A polynomial of degree <= 4 with up to 8 terms; over QQ some
    coefficients are proper fractions."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        m = rng.choice(monomials(nvars, rng.randint(0, 4)))
        c = field.from_int(rng.randint(-4, 4))
        if field.characteristic == 0:
            c = field.div(c, rng.randint(1, 3))
        terms[m] = c
    return MultiPoly(field, nvars, terms)


@pytest.mark.parametrize("name, w_perm", [("A3", None), ("A3", [3, 4, 1, 2]), ("B2", None)])
def test_integral_sheaf_builds_no_rationals(name, w_perm):
    """Every label of types A and B leads with a 1, so over QQ each
    coefficient of the sections and of the restriction images is an int:
    integral QQ elements are ints (klsc.field), and no rational 1 enters."""
    _, _, sheaf = sheaf_for(name, w_perm)
    polys = [p for s in sheaf.sections for parts in s.parts.values() for p in parts]
    polys += [p for images in lower_maps(sheaf).values() for img in images for p in img]
    assert polys
    assert {type(c) for p in polys for c in p.terms.values()} == {int}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
@pytest.mark.parametrize(
    "cartan",
    # custom: the transpose of G2's Cartan matrix, which no named type builds
    ["A3", "B3", "G2", [[2, -3], [-1, 2]]],
    ids=["A3", "B3", "G2", "custom"],
)
def test_edge_reduce_is_substitution(cartan, field):
    """EdgeRing.reduce, on every edge label, equals composing with the
    linear map that sends x_pivot to the label's solved form and fixes the
    other variables (MultiPoly.substitute_linear)."""
    datum = (
        CartanDatum.from_type(cartan)
        if isinstance(cartan, str)
        else CartanDatum.from_matrix(cartan)
    )
    W = CoxeterGroup(datum)
    n = W.rank
    rng = random.Random(f"{cartan}:{field!r}")
    for label in sorted({root for _, root, _ in W.reflections()}):
        ring = EdgeRing(field, n, label)
        p = ring.pivot
        coeffs = [field.from_int(c) for c in label]
        assert p == min(j for j in range(n) if not field.is_zero(coeffs[j]))
        # x_j -> x_j for j != p, and x_p -> -sum_{j != p} (c_j / c_p) x_j
        matrix = [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]
        matrix[p] = [
            field.zero if j == p else field.neg(field.div(coeffs[j], coeffs[p]))
            for j in range(n)
        ]
        alpha = MultiPoly.linear_form(field, coeffs)
        for _ in range(6):
            poly = _random_poly(rng, field, n)
            reduced = ring.reduce(poly)
            assert reduced == poly.substitute_linear(matrix, n)
            assert all(e[p] == 0 for e in reduced.terms)
            assert ring.reduce(poly * alpha).is_zero()


class TestStalks:
    def test_rank_one_interval(self):
        W = CoxeterGroup(CartanDatum.from_type("A1"))
        iv = enumerate_interval(W, W.identity, W.from_word((0,)))
        sheaf = compute_sheaf(bruhat_graph(W, iv), QQ)
        assert sheaf.stalk_shape(iv.pos[W.identity]) == FreeModuleShape((0,))
        assert sheaf.kl_from_sheaf(iv.pos[W.identity]) == UniPoly.one()

    def test_s3_all_trivial(self):
        W, iv, sheaf = sheaf_for("A2")
        for i in range(len(iv)):
            assert sheaf.stalk_shape(i) == FreeModuleShape((0,))

    def test_top_stalk_is_one_generator(self):
        W, iv, sheaf = sheaf_for("B2")
        top = iv.pos[iv.w]
        assert sheaf.stalk_shape(top) == FreeModuleShape((0,))

    def test_s4_3412_singular_stalk(self):
        W, iv, sheaf = sheaf_for("A3", (3, 4, 1, 2))
        e = iv.pos[W.identity]
        assert sheaf.stalk_shape(e) == FreeModuleShape((0, 1))
        assert sheaf.kl_from_sheaf(e) == UniPoly((1, 1))


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", ["A2", "B2"])
    def test_full_interval_matches_recursion(self, name):
        W, iv, sheaf = sheaf_for(name)
        table = solve_kls(coxeter_R_kernel(iv))
        top = iv.pos[iv.w]
        for i in range(len(iv)):
            assert sheaf.kl_from_sheaf(i) == table[(i, top)], iv.poset.names[i]

    def test_3412_matches_recursion(self):
        W, iv, sheaf = sheaf_for("A3", (3, 4, 1, 2))
        table = solve_kls(coxeter_R_kernel(iv))
        top = iv.pos[iv.w]
        for i in range(len(iv)):
            assert sheaf.kl_from_sheaf(i) == table[(i, top)]


class TestSections:
    def test_sections_match_honest_kernel(self):
        for name in ("A2", "B2"):
            W, iv, sheaf = sheaf_for(name)
            ok, honest, spanned = check_section_generators(sheaf, up_to=4)
            assert ok, (honest, spanned)

    def test_flabbiness_on_s3(self):
        W, iv, sheaf = sheaf_for("A2")
        poset = iv.poset
        # restriction from the full vertex set onto each principal upper set
        for i in range(len(iv)):
            up = [j for j in range(len(iv)) if poset.leq(i, j)]
            honest = section_dims(sheaf, up, 3)
            spanned = spanned_section_dims(sheaf, up, 3)
            assert honest == spanned

    def test_global_generators_are_shifted_stalks(self):
        # triangular basis: generator degrees of the global sections are
        # the stalk generators shifted by length
        for name, perm in (("A2", None), ("A3", (3, 4, 1, 2))):
            W, iv, sheaf = sheaf_for(name, perm)
            expected = []
            base = min(sheaf.graph.lengths)
            for i in range(len(iv)):
                shift = sheaf.graph.lengths[i] - base
                expected.extend(d + shift for d in sheaf.stalks[i])
            assert FreeModuleShape(s.degree for s in sheaf.sections) == FreeModuleShape(expected)


class TestClassicalValues:
    def test_s5_45312_is_one_plus_t_squared(self):
        # the classical singular example in S5, an external anchor value
        from klsc.coxeter import word_from_permutation

        W = CoxeterGroup(CartanDatum.from_type("A4"))
        w = W.from_word(word_from_permutation((4, 5, 3, 1, 2)))
        iv = enumerate_interval(W, W.identity, w)
        assert len(iv) == 78
        sheaf = compute_sheaf(bruhat_graph(W, iv), QQ)
        table = solve_kls(coxeter_R_kernel(iv))
        e, top = iv.pos[W.identity], iv.pos[w]
        assert sheaf.kl_from_sheaf(e) == UniPoly((1, 0, 1))
        assert table[(e, top)] == UniPoly((1, 0, 1))
        for i in range(len(iv)):
            assert sheaf.kl_from_sheaf(i) == table[(i, top)]


    def test_b3_singular_interval(self):
        # type B: the shortest singular interval has KL polynomial 1 + t
        W = CoxeterGroup(CartanDatum.from_type("B3"))
        w = W.from_word((0, 1, 2, 1, 0))
        iv = enumerate_interval(W, W.identity, w)
        assert len(iv) == 20
        sheaf = compute_sheaf(bruhat_graph(W, iv), QQ)
        table = solve_kls(coxeter_R_kernel(iv))
        e, top = iv.pos[W.identity], iv.pos[w]
        assert sheaf.kl_from_sheaf(e) == UniPoly((1, 1)) == table[(e, top)]
        for i in range(len(iv)):
            assert sheaf.kl_from_sheaf(i) == table[(i, top)]


class TestStructureRing:
    def test_single_vertex(self):
        W = CoxeterGroup(CartanDatum.from_type("A2"))
        iv = enumerate_interval(W, W.identity, W.identity)
        G = bruhat_graph(W, iv)
        # no edges: dims of the polynomial ring in 2 variables
        assert structure_ring_dims(G, QQ, 3) == [1, 2, 3, 4]

    def test_a1_interval(self):
        W = CoxeterGroup(CartanDatum.from_type("A1"))
        iv = enumerate_interval(W, W.identity, W.from_word((0,)))
        G = bruhat_graph(W, iv)
        # pairs (f_e, f_s) in one variable with f_e = f_s mod alpha:
        # degree 0 forces equal constants, higher degrees are free
        assert structure_ring_dims(G, QQ, 3) == [1, 2, 2, 2]

    def test_s3_degree_zero_is_constants(self):
        W = CoxeterGroup(CartanDatum.from_type("A2"))
        iv = enumerate_interval(W, W.identity, longest_element(W))
        G = bruhat_graph(W, iv)
        dims = structure_ring_dims(G, QQ, 2)
        assert dims[0] == 1


class TestModP:
    def test_large_prime_matches_rationals_s3(self):
        W, iv, sheaf = sheaf_for("A2")
        for p in (5, 7):
            Wp, ivp, sheaf_p = sheaf_for("A2", field=GF(p))
            for i in range(len(iv)):
                assert sheaf_p.stalks[i] == sheaf.stalks[i]

    def test_3412_mod_small_primes(self):
        # the A3 graph is p-GKM even at p = 2, and the sheaf is unchanged
        for p in (2, 3, 5):
            W, iv, sheaf = sheaf_for("A3", (3, 4, 1, 2), field=GF(p))
            e = iv.pos[W.identity]
            assert sheaf.kl_from_sheaf(e) == UniPoly((1, 1))

    def test_b2_mod_3(self):
        # B2 fails 2-GKM but is 3-GKM; mod 3 matches the rationals
        W, iv, sheaf = sheaf_for("B2", field=GF(3))
        for i in range(len(iv)):
            assert sheaf.stalk_shape(i) == FreeModuleShape((0,))

    def test_non_pgkm_rejected(self):
        W = CoxeterGroup(CartanDatum.from_type("B2"))
        iv = enumerate_interval(W, W.identity, longest_element(W))
        with pytest.raises(PGKMError):
            compute_sheaf(bruhat_graph(W, iv), GF(2))

    def test_sections_honest_over_gf(self):
        W, iv, sheaf = sheaf_for("A2", field=GF(7))
        ok, honest, spanned = check_section_generators(sheaf, up_to=4)
        assert ok, (honest, spanned)

    def test_dihedral_g2_all_trivial(self):
        W, iv, sheaf = sheaf_for("G2")
        assert len(iv) == 12
        for i in range(len(iv)):
            assert sheaf.stalk_shape(i) == FreeModuleShape((0,))

    def test_subintervals_match_full_run(self):
        # stalks of [v, w] agree with the corresponding stalks of [e, w]
        W, iv, sheaf = sheaf_for("A3", (3, 4, 1, 2))
        x = iv.elements[1]  # an atom of the interval
        sub = enumerate_interval(W, x, iv.w)
        sub_sheaf = compute_sheaf(bruhat_graph(W, sub), QQ)
        for idx, elt in enumerate(sub.elements):
            assert sub_sheaf.stalks[idx] == sheaf.stalks[iv.pos[elt]]
