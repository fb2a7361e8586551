"""Kernel axioms, the KLS solver, Z-polynomials, inequality scans."""

import functools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from klsc.coxeter import CartanDatum, CoxeterGroup, enumerate_interval
from klsc.errors import (
    InvalidInputError,
    InvalidKernelError,
    NonEulerianError,
    NotGeometricError,
)
from klsc.fans import cone_over_polytope, fan_face_poset
from klsc.kls import (
    Kernel,
    coxeter_R_kernel,
    eulerian_kernel,
    kalai_check,
    matroid_kernel,
    monotonicity_check,
    solve_kls,
    verify_kernel,
    z_polynomial,
)
from klsc.matroids import Matroid
from klsc.poly import UniPoly
from klsc.poset import RankedPoset
from klsc.validate import matroid_corpus

from helpers import (
    boolean_lattice,
    chain,
    longest_element,
    simplex_cone_face_poset,
    square_cone_face_poset,
    uniform_flats_poset,
)


def one_element_kernel():
    P = RankedPoset([0], [])
    return Kernel(P, {})


class TestVerifyKernel:
    def test_square_cone_eulerian_kernel(self):
        K = eulerian_kernel(square_cone_face_poset())
        ok, witness = verify_kernel(K)
        assert ok and witness is None

    def test_one_element(self):
        ok, _ = verify_kernel(one_element_kernel())
        assert ok

    def test_perturbed_kernel_reports_witness(self):
        P = square_cone_face_poset()
        K = eulerian_kernel(P)
        bad = dict(K.table)
        x, y = 0, 5  # sigma < ray, r = 2
        bad[(x, y)] = bad[(x, y)] + UniPoly((0, 1))
        K2 = Kernel(P, {k: v for k, v in bad.items() if k[0] != k[1]})
        ok, witness = verify_kernel(K2)
        assert not ok
        assert witness[0] == "inversion"
        vx, vz = witness[1], witness[2]
        assert P.leq(vx, vz) and vx != vz

    def test_chain_with_wrong_table_fails(self):
        P = chain(2)
        K = Kernel(P, {
            (0, 1): UniPoly((-1, 1)),
            (1, 2): UniPoly((-1, 1)),
            (0, 2): UniPoly((1, -2, 1)),
        })
        ok, witness = verify_kernel(K)
        assert not ok  # the chain is not Eulerian, so (t-1)^r is not a kernel


class TestSolver:
    def test_square_cone_g_polynomial(self):
        P = square_cone_face_poset()
        table = solve_kls(eulerian_kernel(P))
        sigma, origin = P.bottom(), P.top()
        assert table[(sigma, origin)] == UniPoly((1, 1))

    def test_simplex_cone_all_ones(self):
        P = simplex_cone_face_poset(3)
        table = solve_kls(eulerian_kernel(P))
        one = UniPoly.one()
        for pair in table.pairs():
            assert table[pair] == one

    def test_u34_kl_polynomial(self):
        L = uniform_flats_poset(3, 4)
        table = solve_kls(matroid_kernel(L))
        assert table[(L.bottom(), L.top())] == UniPoly((1, 2))

    def test_relabelling_invariance(self):
        """The solved table is unique: solving a randomly relabelled copy
        gives the same polynomials pair by pair."""
        L = uniform_flats_poset(3, 4)
        table = solve_kls(matroid_kernel(L))
        rng = random.Random(7)
        perm = list(range(L.n))
        rng.shuffle(perm)  # perm[new] = old
        inv = {old: new for new, old in enumerate(perm)}
        covers = [(inv[a], inv[b]) for a, b in L.covers]
        L2 = RankedPoset([L.rank[perm[i]] for i in range(L.n)], covers)
        table2 = solve_kls(matroid_kernel(L2))
        for (x, y) in table.pairs():
            assert table2[(inv[x], inv[y])] == table[(x, y)]


class TestZPolynomial:
    def test_u34(self):
        L = uniform_flats_poset(3, 4)
        table = solve_kls(matroid_kernel(L))
        assert z_polynomial(table, L.bottom(), L.top()) == UniPoly((1, 6, 6, 1))

    def test_one_element(self):
        K = one_element_kernel()
        table = solve_kls(K)
        assert z_polynomial(table, 0, 0) == UniPoly.one()

    def test_boolean_is_binomial(self):
        for n in (2, 3, 4):
            B = boolean_lattice(n)
            table = solve_kls(matroid_kernel(B))
            expect = UniPoly.one()
            for _ in range(n):
                expect = expect * UniPoly((1, 1))
            assert z_polynomial(table, 0, B.top()) == expect
            for pair in table.pairs():
                assert table[pair] == UniPoly.one()

    def test_z_palindromic_on_geometric_lattices(self):
        for L in (uniform_flats_poset(3, 4), uniform_flats_poset(2, 4), boolean_lattice(3)):
            table = solve_kls(matroid_kernel(L))
            for x in L.elements():
                for y in L.elements():
                    if L.leq(x, y):
                        z = z_polynomial(table, x, y)
                        assert z.reverse_check(L.rank[y] - L.rank[x])


class TestKernelConstructors:
    def test_eulerian_rejects_non_eulerian(self):
        with pytest.raises(NonEulerianError):
            eulerian_kernel(chain(2))

    def test_eulerian_on_single_element(self):
        P = RankedPoset([0], [])
        K = eulerian_kernel(P)
        assert K[(0, 0)] == UniPoly.one()

    def test_matroid_rejects_non_geometric(self):
        with pytest.raises(NotGeometricError):
            matroid_kernel(square_cone_face_poset())

    def test_matroid_kernel_entries(self):
        B1 = boolean_lattice(1)
        K = matroid_kernel(B1)
        assert K[(0, 1)] == UniPoly((-1, 1))
        L = uniform_flats_poset(3, 4)
        K = matroid_kernel(L)
        assert K[(L.bottom(), L.top())] == UniPoly((-3, 6, -4, 1))
        ok, _ = verify_kernel(K)
        assert ok

    def test_b3_matroid_kernel_verifies(self):
        ok, _ = verify_kernel(matroid_kernel(boolean_lattice(3)))
        assert ok

    def test_cube_cone_eulerian_kernel_verifies(self):
        # 3-cube cone face poset := dual of the cube's face lattice with the
        # empty face; built from the boolean description of cube faces.
        from klsc.fans import cone_over_polytope, fan_face_poset
        verts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        fan = cone_over_polytope(verts)
        P = fan_face_poset(fan)
        ok, _ = verify_kernel(eulerian_kernel(P))
        assert ok


class TestNonNegativity:
    def test_all_three_kernel_families(self):
        # deep theorems say these are dimensions; scan the corpus
        tables = []
        tables.append(solve_kls(eulerian_kernel(square_cone_face_poset())))
        tables.append(solve_kls(matroid_kernel(uniform_flats_poset(3, 5))))
        from klsc.coxeter import CartanDatum, CoxeterGroup, enumerate_interval
        from klsc.kls import coxeter_R_kernel

        W = CoxeterGroup(CartanDatum.from_type("A3"))
        iv = enumerate_interval(W, W.identity, longest_element(W))
        tables.append(solve_kls(coxeter_R_kernel(iv)))
        for table in tables:
            for pair in table.pairs():
                assert table[pair].is_nonnegative()


class TestInequalities:
    def test_monotonicity_u34(self):
        L = uniform_flats_poset(3, 4)
        ok, witness = monotonicity_check(solve_kls(matroid_kernel(L)))
        assert ok and witness is None

    def test_monotonicity_single(self):
        ok, _ = monotonicity_check(solve_kls(one_element_kernel()))
        assert ok

    def test_kalai_square_cone(self):
        table = solve_kls(eulerian_kernel(square_cone_face_poset()))
        ok, witness = kalai_check(table)
        assert ok and witness is None

    def test_kalai_simplex(self):
        table = solve_kls(eulerian_kernel(simplex_cone_face_poset(3)))
        ok, _ = kalai_check(table)
        assert ok


# -- one column of the recursion ------------------------------------------------


def random_cone_face_poset(draw):
    """The face poset of the cone over a random lattice polytope: 3 to 7
    points in {0,1,2}^d, d = 2 or 3; points that do not affinely span are
    rejected, interior points dropped."""
    d = draw(st.sampled_from([2, 3]))
    point = st.tuples(*[st.integers(0, 2)] * d)
    points = draw(st.lists(point, min_size=d + 1, max_size=7, unique=True))
    try:
        fan = cone_over_polytope([list(p) for p in points])
    except InvalidInputError:
        assume(False)
    return fan_face_poset(fan)


@functools.cache
def matroid_lattices():
    """The desk corpus's lattices of flats, built once."""
    return [m.lattice() for _, m in matroid_corpus()]


@st.composite
def kernels(draw):
    """A kernel of one of the three families and an element of its poset."""
    family = draw(st.sampled_from(["eulerian", "corpus", "uniform", "coxeter"]))
    if family == "eulerian":
        kernel = eulerian_kernel(random_cone_face_poset(draw))
    elif family == "corpus":
        kernel = matroid_kernel(draw(st.sampled_from(matroid_lattices())))
    elif family == "uniform":
        n = draw(st.integers(1, 6))
        k = draw(st.integers(1, n))
        kernel = matroid_kernel(Matroid.uniform(k, n).lattice())
    else:
        group, intervals = draw(st.sampled_from(bruhat_intervals()))
        v, w = draw(st.sampled_from(intervals))
        kernel = coxeter_R_kernel(enumerate_interval(group, v, w))
    z = draw(st.integers(0, kernel.poset.n - 1))
    return kernel, z


@functools.cache
def bruhat_intervals():
    """(group, every pair v <= w) for A3 and B2."""
    out = []
    for name in ("A3", "B2"):
        W = CoxeterGroup(CartanDatum.from_type(name))
        pairs = [(v, w) for v in range(W.size) for w in range(W.size) if W.bruhat_leq(v, w)]
        out.append((W, pairs))
    return out


def column(P, z):
    return {(x, z) for x in P.elements() if P.leq(x, z)}


class TestColumnSolve:
    @settings(max_examples=60, deadline=None)
    @given(kernels())
    def test_column_matches_the_full_table(self, kernel_and_top):
        kernel, z = kernel_and_top
        full = solve_kls(kernel)
        col = solve_kls(kernel, top=z)
        assert set(col.pairs()) == column(kernel.poset, z)
        for pair in col.pairs():
            assert col[pair] == full[pair]

    @settings(max_examples=60, deadline=None)
    @given(kernels(), st.data())
    def test_column_solve_rejects_a_perturbed_kernel(self, kernel_and_top, data):
        """Adding t^j, j <= r, to kappa(x, top) adds it to the right side at
        (x, top), which then has no antisymmetric solution."""
        kernel, z = kernel_and_top
        P = kernel.poset
        below = sorted(x for x, _ in column(P, z) if x != z)
        assume(below)
        x = data.draw(st.sampled_from(below))
        j = data.draw(st.integers(0, kernel.r(x, z)))
        table = {pair: f for pair, f in kernel.table.items() if pair[0] != pair[1]}
        table[(x, z)] = table[(x, z)] + UniPoly.one().shift(j)
        with pytest.raises(InvalidKernelError):
            solve_kls(Kernel(P, table), top=z)

    def test_every_a3_b2_interval(self):
        """On every Bruhat interval [v, w] of A3 and B2, the column of w
        solved alone is the full table's."""
        for W, pairs in bruhat_intervals():
            for v, w in pairs:
                interval = enumerate_interval(W, v, w)
                kernel = coxeter_R_kernel(interval)
                top = interval.pos[w]
                full = solve_kls(kernel)
                col = solve_kls(kernel, top=top)
                assert set(col.pairs()) == column(interval.poset, top)
                assert all(col[pair] == full[pair] for pair in col.pairs())
