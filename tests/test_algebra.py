"""Fields, exact linear algebra, polynomials, graded modules."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from klsc.errors import (
    InconsistentSystemError,
    InvalidInputError,
    KlscError,
    TruncationBoundError,
)
from klsc.field import GF, MAX_CHARACTERISTIC, QQ
from klsc.graded import (
    FreeModuleShape,
    free_graded_module,
    minimal_generator_degrees,
)
from klsc.linalg import RowSpace, kernel_basis, matvec, rref, solve_linear
from klsc.poly import MultiPoly, UniPoly, monomial_space_dim, poly_reverse_check

from helpers import dense_matvec


# ints and Fractions, integral ones among the latter included
RATIONALS = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(max_denominator=12),
    st.integers(-50, 50).map(Fraction),
)


class TestFields:
    def test_rational_roundtrip(self):
        a = QQ.parse("-3/6")
        assert QQ.to_str(a) == "-1/2"
        assert QQ.to_str(QQ.parse("4/2")) == "2"
        assert QQ.eq(QQ.add(a, a), QQ.from_int(-1))

    def test_gf_arithmetic(self):
        F = GF(5)
        assert F.eq(F.mul(F.from_int(3), F.from_int(4)), F.from_int(2))
        assert F.eq(F.mul(F.inv(F.from_int(3)), F.from_int(3)), F.one)

    def test_rational_inverse_and_quotient_of_ints_are_exact(self):
        for x in (QQ.inv(3), QQ.div(1, 3)):
            assert x == Fraction(1, 3)
            assert not isinstance(x, float)

    def test_rational_one_names_the_backend(self):
        # type(QQ.one) is how the benchmark records the rational backend;
        # elements are built from from_int(1), the int
        assert QQ.one == 1
        assert type(QQ.one) is type(QQ.div(1, 2))
        assert type(QQ.one).__module__.split(".")[0] in ("fractions", "gmpy2")
        assert type(QQ.from_int(1)) is int

    def test_rational_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)

    def test_rational_from_int_refuses_non_integers(self):
        for bad in (1.5, Fraction(3, 2)):
            with pytest.raises(TypeError):
                QQ.from_int(bad)

    @given(RATIONALS, RATIONALS)
    def test_rational_scalars_match_fraction_reference(self, a, b):
        ra, rb = Fraction(a), Fraction(b)
        results = [
            (QQ.add(a, b), ra + rb),
            (QQ.sub(a, b), ra - rb),
            (QQ.mul(a, b), ra * rb),
            (QQ.neg(a), -ra),
        ]
        exact = []  # results that are ints exactly when they are integral
        if rb:
            exact += [(QQ.div(a, b), ra / rb), (QQ.inv(b), 1 / rb)]
        exact.append((QQ.parse(f"{ra.numerator * 3}/{ra.denominator * 3}"), ra))
        exact.append((QQ.parse(str(ra)), ra))
        if isinstance(a, int):
            exact += [(QQ.from_int(a), ra), (QQ.parse(a), ra)]
        for got, want in results + exact:
            assert got == want
            assert not isinstance(got, float)
        for got, want in exact:
            assert (type(got) is int) == (want.denominator == 1)

    def test_gf_requires_prime(self):
        with pytest.raises(Exception):
            GF(6)

    def test_gf_characteristic_cap(self):
        # 3037000493 is prime, but its int64 elimination overflowed
        for p in (3037000493, MAX_CHARACTERISTIC + 15, 2**61 - 1):
            with pytest.raises(InvalidInputError):
                GF(p)
        assert GF(LARGEST_PRIME).p == LARGEST_PRIME

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_field_axioms_sample(self, a, b, c):
        for field in (QQ, GF(7)):
            x, y, z = (field.from_int(v) for v in (a, b, c))
            assert field.eq(field.add(x, y), field.add(y, x))
            assert field.eq(
                field.mul(x, field.add(y, z)),
                field.add(field.mul(x, y), field.mul(x, z)),
            )


def _is_prime_ref(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _prime_at_most(n):
    while not _is_prime_ref(n):
        n -= 1
    return n


LARGEST_PRIME = _prime_at_most(MAX_CHARACTERISTIC - 1)


def _rank_mod_p(rows, p):
    """Gauss-Jordan elimination mod p on Python ints."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def _gf_systems(draw):
    """A prime below the cap and a product of two random matrices mod p,
    of inner dimension r, so ranks below full occur; entries lean to p-1,
    which maximizes the int64 products."""
    p = draw(
        st.one_of(
            st.just(2),
            st.just(LARGEST_PRIME),
            st.integers(2, MAX_CHARACTERISTIC - 1).map(_prime_at_most),
        )
    )
    nrows, ncols, r = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    a = [[draw(entry) for _ in range(r)] for _ in range(nrows)]
    b = [[draw(entry) for _ in range(ncols)] for _ in range(r)]
    rows = [
        [sum(a[i][k] * b[k][j] for k in range(r)) % p for j in range(ncols)]
        for i in range(nrows)
    ]
    return p, ncols, rows


@st.composite
def _gf2_systems(draw):
    """Rows of a random rank-r product mod 2, at widths on both sides of
    the byte and word boundaries, with each entry replaced by another
    representative of its class (-1 or 3 for a one, 2 or -2 for a zero)
    and each vector given as a list or as an int64 array."""
    ncols = draw(st.sampled_from([0, 1, 7, 8, 9, 65]))
    nrows, r = draw(st.integers(0, 10)), draw(st.integers(1, 5))
    bit = st.integers(0, 1)
    a = [[draw(bit) for _ in range(r)] for _ in range(nrows + 1)]
    b = [[draw(bit) for _ in range(ncols)] for _ in range(r)]
    lifts = {0: st.sampled_from([0, 0, 2, -2]), 1: st.sampled_from([1, 1, -1, 3])}
    vectors = []
    for i in range(nrows + 1):
        v = [draw(lifts[sum(a[i][k] * b[k][j] for k in range(r)) % 2]) for j in range(ncols)]
        vectors.append(np.array(v, dtype=np.int64) if draw(st.booleans()) else v)
    return ncols, vectors[:-1], vectors[-1]


def _gf2_reduce(basis, v):
    """v mod 2 minus its components along the reduced rows of basis."""
    v = [int(x) % 2 for x in v]
    for c, row in basis.items():
        if v[c]:
            v = [x ^ y for x, y in zip(v, row)]
    return v


def _fraction_reduce(basis, v):
    """v minus its combination of the unit-pivot rows, on Fractions."""
    v = [Fraction(x) for x in v]
    for c, row in basis.items():
        a = v[c]
        if a:
            v = [x - a * y for x, y in zip(v, row)]
    return v


def _fraction_rref(rows):
    """Gauss-Jordan elimination on Fractions: pivot column -> unit-pivot
    row of the reduced echelon form."""
    basis = {}
    for r in rows:
        v = _fraction_reduce(basis, r)
        piv = next((c for c, x in enumerate(v) if x), None)
        if piv is None:
            continue
        v = [x / v[piv] for x in v]
        for c, row in basis.items():
            if row[piv]:
                basis[c] = [x - row[piv] * y for x, y in zip(row, v)]
        basis[piv] = v
    return basis


@st.composite
def _qq_systems(draw):
    """A product of two random rational matrices of inner dimension r (so
    ranks below full occur), and target vectors: random ones and
    combinations of the rows."""
    ncols, nrows, r = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    a = [[draw(entry) for _ in range(r)] for _ in range(nrows)]
    b = [[draw(entry) for _ in range(ncols)] for _ in range(r)]
    rows = [
        [sum(a[i][k] * b[k][j] for k in range(r)) for j in range(ncols)]
        for i in range(nrows)
    ]
    targets = [[draw(entry) for _ in range(ncols)] for _ in range(2)]
    coeffs = [draw(entry) for _ in rows]
    targets.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
    return ncols, rows, targets


@st.composite
def _kernel_systems(draw):
    """(field, ncols, rows) for kernel_basis: QQ with int and Fraction
    entries, GF(2), GF(3) and GF(65521) with entries outside [0, p) too,
    widths 0-12.  The rows are no rows at all, zero rows, a random product
    of inner dimension r (so ranks below full occur) or a full-rank
    triangular matrix in shuffled row order; over GF(p) each row is a list
    or an int64 array."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(65521)]))
    p = field.characteristic
    ncols = draw(st.integers(0, 12))
    if p:
        entry = st.integers(-2 * p, 2 * p)
    else:
        entry = st.one_of(
            st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
        )
    shape = draw(st.sampled_from(["none", "zero", "product", "full"]))
    if shape == "none":
        rows = []
    elif shape == "zero":
        rows = [[0] * ncols for _ in range(draw(st.integers(1, 4)))]
    elif shape == "product":
        nrows, r = draw(st.integers(1, 8)), draw(st.integers(1, 6))
        a = [[draw(entry) for _ in range(r)] for _ in range(nrows)]
        b = [[draw(entry) for _ in range(ncols)] for _ in range(r)]
        rows = [
            [sum(a[i][k] * b[k][j] for k in range(r)) for j in range(ncols)]
            for i in range(nrows)
        ]
    else:
        unit = st.integers(1, p - 1) if p else st.sampled_from([-2, -1, 1, Fraction(1, 3), 3])
        rows = [
            [draw(unit) if j == i else draw(entry) if j > i else 0 for j in range(ncols)]
            for i in range(ncols)
        ]
        rows = draw(st.permutations(rows))
    if p:
        rows = [np.array(r, dtype=np.int64) if draw(st.booleans()) else r for r in rows]
    return field, ncols, rows


def _exact(vec):
    return all(isinstance(x, (int, Fraction)) for x in vec)


def _primitive(v, pivot):
    g = gcd(*v)
    if v[pivot] < 0:
        g = -g
    return [x // g for x in v]


class _EagerRowSpace:
    """The untagged QQ RowSpace as it was before its rows were kept
    semi-echelon: a reduced echelon basis of primitive int rows with
    positive pivots, where every add clears its new pivot column from all
    older rows.  Rows are replaced, never updated in place."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}

    def _reduce(self, v):
        d = lcm(*(Fraction(x).denominator for x in v))
        v = [int(Fraction(x) * d) for x in v]
        scale = d
        # the basis is fully reduced, so one pass in any order clears v
        for c, row in self.rows.items():
            a, pv = v[c], row[c]
            if a:
                v = [pv * x - a * y for x, y in zip(v, row)]
                scale *= pv
        return v, scale

    def reduce(self, v):
        w, scale = self._reduce(v)
        return [QQ.div(x, scale) for x in w]

    def add(self, v):
        w, _ = self._reduce(v)
        pivot = next((c for c, x in enumerate(w) if x), None)
        if pivot is None:
            return None
        w = _primitive(w, pivot)
        for c, row in self.rows.items():
            a = row[pivot]
            if a:
                self.rows[c] = _primitive([w[pivot] * x - a * y for x, y in zip(row, w)], c)
        self.rows[pivot] = w
        return pivot

    def basis(self):
        return [self.rows[c] for c in sorted(self.rows)]

    def copy(self):
        out = _EagerRowSpace(self.ncols)
        out.rows = dict(self.rows)
        return out


_ROWSPACE_OPS = ("add", "add", "add", "contains", "reduce", "dim", "basis", "rows", "copy")


@st.composite
def _rowspace_programs(draw):
    """(ncols, steps) for a run of RowSpace calls over QQ.  A step is (op,
    which space, vector, coefficients): with coefficients (a third of the
    steps) and earlier adds, the vector is instead that combination of the
    latest added vectors, so vectors in the span are common."""
    ncols = draw(st.integers(0, 7))
    entry = st.one_of(
        st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )
    step = st.tuples(
        st.sampled_from(_ROWSPACE_OPS),
        st.integers(0, 3),
        st.lists(entry, min_size=ncols, max_size=ncols),
        st.one_of(st.just([]), st.just([]), st.lists(st.integers(-2, 2), min_size=1, max_size=3)),
    )
    return ncols, draw(st.lists(step, max_size=30))


class TestLinalg:
    @given(_qq_systems())
    def test_qq_elimination_matches_fraction_reference(self, system):
        ncols, rows, targets = system
        ref = _fraction_rref(rows)
        space = RowSpace(QQ, ncols)
        tagged = RowSpace(QQ, ncols, tagged=True)
        for i, r in enumerate(rows):
            space.add(r)
            tagged.add(r, {i: QQ.one})
        assert space.dim == tagged.dim == len(ref)
        # primitive int rows with positive pivots, multiples of the reference
        for row in space.basis():
            piv = next(c for c, x in enumerate(row) if x)
            assert _exact(row) and gcd(*row) == 1 and row[piv] > 0
            assert [Fraction(x, row[piv]) for x in row] == ref[piv]
        for target in targets:
            expected = _fraction_reduce(ref, target)
            res, _ = space.reduce(target)
            assert res == expected and _exact(res)
            assert space.contains(target) == (not any(expected))
            # the tag rebuilds the residual: residual = target + sum tag_k * row_k
            res, tag = tagged.reduce(target)
            assert res == expected
            comb = [Fraction(x) for x in target]
            for k, c in tag.items():
                comb = [x + c * y for x, y in zip(comb, rows[k])]
            assert comb == expected and _exact(tag.values())
        ker = kernel_basis(rows, ncols, QQ)
        assert len(ker) == ncols - len(ref)
        assert len(rref(ker, ncols, QQ)[0]) == len(ker)
        for v in ker:
            assert not any(dense_matvec(rows, v, QQ))
        b = dense_matvec(rows, targets[0], QQ)
        x = solve_linear(rows, b, QQ)
        assert dense_matvec(rows, x, QQ) == b and _exact(x)

    @given(_kernel_systems())
    def test_kernel_basis_is_the_echelon_basis_of_the_kernel(self, system):
        """kernel_basis hands out, entry for entry, the basis a RowSpace of
        the kernel holds (reduced echelon form, increasing pivots, primitive
        ints with positive pivots over QQ, unit pivots over GF(p)), and
        every vector annihilates every row."""
        field, ncols, rows = system
        p = field.characteristic
        ker = kernel_basis(rows, ncols, field)
        space = RowSpace(field, ncols)
        for v in ker:
            space.add(v)
        assert space.dim == len(ker) == ncols - len(rref(rows, ncols, field)[0])
        if p:
            assert all(v.dtype == np.int64 and len(v) == ncols for v in ker)
            assert [list(map(int, v)) for v in ker] == [list(map(int, v)) for v in space.basis()]
        else:
            assert all(type(x) is int for v in ker for x in v)
            assert ker == space.basis()
        for r in rows:
            for v in ker:
                dot = sum(Fraction(a) * int(b) for a, b in zip(r, v))
                assert (dot % p if p else dot) == 0

    @settings(max_examples=300, deadline=None)
    @given(_rowspace_programs())
    def test_qq_rowspace_matches_eager_reference(self, program):
        """Interleaved add, contains, reduce, dim, basis, rows and copy on
        the semi-echelon QQ RowSpace give what the eager reference gives:
        the same pivots, residuals (values and types) and bases.  Copies
        are taken with back-substitution pending and grow on their own."""
        ncols, steps = program
        pairs = [(RowSpace(QQ, ncols), _EagerRowSpace(ncols))]
        added = []
        for op, which, vec, coeffs in steps:
            space, ref = pairs[which % len(pairs)]
            if coeffs and added:
                vec = [sum(c * a[j] for c, a in zip(coeffs, reversed(added))) for j in range(ncols)]
            if op == "add":
                assert space.add(vec) == ref.add(vec)
                added.append(vec)
            elif op == "contains":
                assert space.contains(vec) == (not any(ref.reduce(vec)))
            elif op == "reduce":
                res, tag = space.reduce(vec)
                expected = ref.reduce(vec)
                assert res == expected and tag is None
                assert list(map(type, res)) == list(map(type, expected))
            elif op == "dim":
                assert space.dim == len(ref.rows)
            elif op == "basis":
                assert space.basis() == ref.basis()
            elif op == "rows":
                assert space.rows == ref.rows
            else:
                pairs.append((space.copy(), ref.copy()))
        for space, ref in pairs:
            assert space.basis() == ref.basis()

    def test_qq_copy_taken_before_back_substitution(self):
        space = RowSpace(QQ, 4)
        assert space.add([0, 1, 1, 0]) == 1
        # the row of pivot 1 keeps its entry in the new pivot column 2
        assert space.add([0, 0, 2, 2]) == 2
        copy = space.copy()
        assert space.add([1, 0, 0, 0]) == 0
        assert space.basis() == [[1, 0, 0, 0], [0, 1, 0, -1], [0, 0, 1, 1]]
        assert copy.dim == 2 and not copy.contains([1, 0, 0, 0])
        assert copy.add([0, 0, 0, 3]) == 3
        assert copy.basis() == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert space.basis() == [[1, 0, 0, 0], [0, 1, 0, -1], [0, 0, 1, 1]]

    @pytest.mark.parametrize("tagged", [False, True])
    @pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["QQ", "GF2", "GF5"])
    def test_rowspace_refuses_a_vector_of_the_wrong_length(self, field, tagged):
        space = RowSpace(field, 3, tagged=tagged)
        space.add([1, 0, 1])
        for v in ([1, 0], [1, 0, 1, 1], np.array([1, 1]), np.array([0, 1, 1, 0])):
            with pytest.raises(ValueError):
                space.add(v)
            with pytest.raises(ValueError):
                space.reduce(v)
            with pytest.raises(ValueError):
                space.contains(v)
        assert space.dim == 1

    def test_qq_reduce_is_linear(self):
        # pivot entries 6 and 3, so reduction scales and divides back
        space = RowSpace(QQ, 4)
        space.add([2, 1, 0, 1])
        space.add([0, 3, 1, 1])
        assert sorted(r[c] for c, r in space.rows.items()) == [3, 6]
        u = [QQ.from_int(1), QQ.from_int(1), QQ.from_int(1), QQ.from_int(1)]
        w = [QQ.parse("1/2"), QQ.zero, QQ.from_int(2), QQ.from_int(-1)]
        res_u, _ = space.reduce(u)
        res_w, _ = space.reduce(w)
        res_uw, _ = space.reduce([2 * a + 3 * b for a, b in zip(u, w)])
        assert any(res_u) and any(res_w)
        assert res_uw == [2 * a + 3 * b for a, b in zip(res_u, res_w)]

    @given(_gf_systems())
    def test_gf_rank_matches_pure_python(self, system):
        p, ncols, rows = system
        space = RowSpace(GF(p), ncols)
        for r in rows:
            space.add(r)
        assert space.dim == _rank_mod_p(rows, p)

    @given(_gf2_systems())
    def test_gf2_elimination_matches_pure_python(self, system):
        ncols, rows, probe = system
        F = GF(2)
        space = RowSpace(F, ncols)
        ref = {}  # pivot column -> reduced row, by mod-2 Gauss-Jordan
        for r in rows:
            v = _gf2_reduce(ref, r)
            pivot = next((c for c, x in enumerate(v) if x), None)
            assert space.add(r) == pivot
            if pivot is not None:
                for c, row in ref.items():
                    if row[pivot]:
                        ref[c] = [x ^ y for x, y in zip(row, v)]
                ref[pivot] = v
        pivots = sorted(ref)
        assert space.dim == len(ref)
        assert [list(map(int, row)) for row in space.basis()] == [ref[c] for c in pivots]
        assert {c: list(map(int, row)) for c, row in space.rows.items()} == ref
        assert [list(map(int, row)) for row in rref(rows, ncols, F)[0]] == [ref[c] for c in pivots]
        assert rref(rows, ncols, F)[1] == pivots
        residual = _gf2_reduce(ref, probe)
        assert list(map(int, space.reduce(probe)[0])) == residual
        assert space.contains(probe) == (not any(residual))
        assert all(space.contains(r) for r in rows)
        kernel = kernel_basis(rows, ncols, F)
        assert len(kernel) == ncols - len(ref)
        assert all(sum(int(x) * y for x, y in zip(r, k)) % 2 == 0 for r in rows for k in kernel)
        # a copy grows on its own: the original keeps its rows
        free = [c for c in range(ncols) if c not in ref]
        if free:
            copy = space.copy()
            unit = [int(c == free[0]) for c in range(ncols)]
            assert copy.add(unit) == free[0]
            assert copy.dim == space.dim + 1
            assert not space.contains(unit)
            assert [list(map(int, row)) for row in space.basis()] == [ref[c] for c in pivots]

    def test_gf_elimination_refuses_int64_overflow(self):
        F = GF(LARGEST_PRIME)
        assert RowSpace(F, 1000).dim == 0
        with pytest.raises(KlscError):
            RowSpace(F, 2**14)

    def test_kernel_of_identity_is_zero(self):
        eye = [[QQ.one if i == j else QQ.zero for j in range(3)] for i in range(3)]
        assert kernel_basis(eye, 3, QQ) == []

    def test_matvec_reads_sparse_rows(self):
        rows = [[(0, QQ.from_int(2)), (2, QQ.parse("1/2"))], [], [(1, QQ.from_int(-1))]]
        x = [QQ.from_int(3), QQ.zero, QQ.from_int(4)]
        assert matvec(rows, x, QQ) == [QQ.from_int(8), QQ.zero, QQ.zero]

    def test_kernel_over_gf2_matches_enumeration(self):
        # kernel of [[1, -1]] over GF(2), oracle = enumerate all of GF(2)^2
        F = GF(2)
        m = [[F.from_int(1), F.from_int(-1)]]
        expected = [
            v
            for v in itertools.product(range(2), repeat=2)
            if all(F.is_zero(x) for x in dense_matvec(m, list(v), F))
            and any(v)
        ]
        assert expected == [(1, 1)]
        basis = kernel_basis(m, 2, F)
        assert len(basis) == 1
        assert list(basis[0]) == [1, 1]

    def test_solve_inconsistent_vs_zero_kernel(self):
        one = QQ.one
        # x = 0 and x = 1: inconsistent
        with pytest.raises(InconsistentSystemError):
            solve_linear([[one], [one]], [QQ.zero, one], QQ)
        # x = 1 is solvable even though the kernel is zero
        assert solve_linear([[one]], [one], QQ) == [one]

    def test_solve_refuses_mismatched_right_hand_side(self):
        with pytest.raises(ValueError):
            solve_linear([[1]], [1, 5], QQ)
        with pytest.raises(ValueError):
            solve_linear([], [1], QQ)
        with pytest.raises(ValueError):
            solve_linear([[1], [2]], [1], QQ)
        assert solve_linear([], [], QQ) == []

    @given(st.integers(0, 10_000))
    def test_row_order_does_not_change_rank(self, seed):
        rng = random.Random(seed)
        rows = [
            [QQ.from_int(rng.randint(-3, 3)) for _ in range(4)] for _ in range(5)
        ]
        r1 = len(rref(rows, 4, QQ)[0])
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert len(rref(shuffled, 4, QQ)[0]) == r1

    @given(st.integers(0, 10_000))
    def test_kernel_vectors_annihilate(self, seed):
        rng = random.Random(seed)
        F = GF(3)
        rows = [[F.from_int(rng.randint(0, 2)) for _ in range(5)] for _ in range(3)]
        for v in kernel_basis(rows, 5, F):
            assert all(F.is_zero(x) for x in dense_matvec(rows, v, F))
        ker = len(kernel_basis(rows, 5, F))
        assert ker == 5 - len(rref(rows, 5, F)[0])

    def test_tagged_reduction_recovers_combination(self):
        space = RowSpace(QQ, 3, tagged=True)
        v1 = [QQ.from_int(1), QQ.from_int(2), QQ.zero]
        v2 = [QQ.zero, QQ.from_int(1), QQ.from_int(1)]
        space.add(v1, {"a": QQ.one})
        space.add(v2, {"b": QQ.one})
        target = [QQ.from_int(2), QQ.from_int(5), QQ.from_int(1)]
        res, tag = space.reduce(target)
        assert not any(res)
        # target = -(tag) combination: residual = target - sum(-tag_k * v_k)
        comb = [QQ.zero] * 3
        for key, coeff in tag.items():
            vec = v1 if key == "a" else v2
            comb = [c - coeff * x for c, x in zip(comb, vec)]
        assert comb == target


class TestUniPoly:
    def test_reverse_check_examples(self):
        assert poly_reverse_check(UniPoly((1, 6, 6, 1)), 3)
        assert poly_reverse_check(UniPoly((1,)), 0)
        assert not poly_reverse_check(UniPoly((1, 2)), 3)

    def test_degree_of_zero(self):
        assert UniPoly.zero().degree == float("-inf")

    @given(st.lists(st.integers(-9, 9), max_size=6), st.integers(0, 8))
    def test_double_reverse_is_identity(self, coeffs, extra):
        f = UniPoly(coeffs)
        r = (f.degree if f else 0) + extra
        r = int(max(r, 0))
        assert f.reverse(r).reverse(r) == f

    def test_arithmetic(self):
        f = UniPoly((1, 1))
        assert f * f == UniPoly((1, 2, 1))
        assert f - f == UniPoly.zero()
        assert f.shift(2) == UniPoly((0, 0, 1, 1))
        assert (f * f).eval_at_one() == 4

    def test_dominates(self):
        assert UniPoly((1, 2)).dominates(UniPoly((1, 1)))
        assert not UniPoly((1, 0, 1)).dominates(UniPoly((0, 1)))


class TestMonomialDims:
    def test_examples(self):
        assert monomial_space_dim(1, 5) == 1
        assert monomial_space_dim(2, 2) == 3
        assert monomial_space_dim(3, 2) == 6

    @given(st.integers(0, 5), st.integers(0, 6))
    def test_matches_enumeration(self, d, i):
        count = sum(
            1
            for e in itertools.product(range(i + 1), repeat=d)
            if sum(e) == i
        ) if d else (1 if i == 0 else 0)
        assert monomial_space_dim(d, i) == count


class TestMultiPoly:
    def test_substitute_linear(self):
        # p(x, y) = x*y, substitute x -> u, y -> u + v
        p = MultiPoly.variable(QQ, 2, 0) * MultiPoly.variable(QQ, 2, 1)
        m = [[QQ.one, QQ.zero], [QQ.one, QQ.one]]
        q = p.substitute_linear(m, 2)
        u = MultiPoly.variable(QQ, 2, 0)
        v = MultiPoly.variable(QQ, 2, 1)
        assert q == u * u + u * v

    def test_coeff_vector_roundtrip(self):
        p = MultiPoly(QQ, 2, {(2, 0): QQ.from_int(3), (1, 1): QQ.from_int(-1)})
        vec = p.coeff_vector(2)
        assert MultiPoly.from_coeff_vector(QQ, 2, 2, vec) == p


class TestGradedModules:
    def test_free_module_is_its_own_cover(self):
        shape = FreeModuleShape((0, 1))
        mod = free_graded_module(QQ, 2, shape, bound=4)
        assert minimal_generator_degrees(mod) == shape
        assert mod.validate()

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=3), st.integers(1, 3))
    def test_cover_idempotent_on_free_modules(self, degrees, nvars):
        shape = FreeModuleShape(degrees)
        mod = free_graded_module(QQ, nvars, shape, bound=max(degrees) + 2)
        assert minimal_generator_degrees(mod) == shape

    def test_generator_at_bound_is_an_error(self):
        shape = FreeModuleShape((0, 3))
        mod = free_graded_module(QQ, 1, shape, bound=3)
        with pytest.raises(TruncationBoundError):
            minimal_generator_degrees(mod)

    def test_shape_poincare(self):
        assert FreeModuleShape((0, 1, 1)).poincare() == UniPoly((1, 2))
        assert FreeModuleShape(()).poincare() == UniPoly.zero()

    def test_free_dims(self):
        # free on {0,1,1,2} over 2 variables: dims 1, 4, 8, 12 (conewise 1,|x|,|y|,|xy|)
        dims = FreeModuleShape((0, 1, 1, 2)).free_dims(2, 3)
        assert dims == [1, 4, 8, 12]
