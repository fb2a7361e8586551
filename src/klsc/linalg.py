"""Exact dense linear algebra over a scalar field.

Vectors are plain Python lists of field elements, matrices are lists of
row vectors.  Everything reduces to one workhorse, :class:`RowSpace`, an
incrementally maintained reduced row echelon basis:

* add a vector, learn whether it enlarged the span;
* reduce a vector against the span (one pass, since the basis is kept
  fully reduced);
* optionally track, for every basis row, its expression over the vectors
  that were added ("tagged" mode), which is how generator provenance is
  recovered in the sheaf computations.

Row order never affects computed dimensions; pivots are always the
leftmost nonzero column, so results are deterministic.
"""

from __future__ import annotations

import numpy as np

from klsc.errors import InconsistentSystemError, KlscError


def _make_ops(field):
    """Field-specialized kernels for the inner loops.

    Over GF(p) the vectors are numpy int64 arrays reduced mod p (entries
    stay below p, all products below p^2, so int64 is exact); over the
    rationals they are plain lists of exact big rationals.
    """
    if field.characteristic == 0:

        def convert(v):
            return list(v)

        def axpy(v, c, row):
            # v - c*row, skipping zero entries of row
            return [x - c * y if y else x for x, y in zip(v, row)]

        def scale(v, c):
            return [c * x if x else x for x in v]

        def is_zero_vec(v):
            return not any(v)

        def first_nonzero(v):
            for c, x in enumerate(v):
                if x:
                    return c
            return None

    else:
        p = field.p

        def convert(v):
            if isinstance(v, np.ndarray):
                return v % p
            return np.fromiter((int(x) % p for x in v), dtype=np.int64, count=len(v))

        def axpy(v, c, row):
            return (v - int(c) * row) % p

        def scale(v, c):
            return (int(c) * v) % p

        def is_zero_vec(v):
            return not v.any()

        def first_nonzero(v):
            nz = np.nonzero(v)[0]
            return int(nz[0]) if len(nz) else None

    return convert, axpy, scale, is_zero_vec, first_nonzero


class RowSpace:
    """A subspace of field^ncols, stored as a reduced row echelon basis.

    Rows are indexed by pivot column; every pivot entry is 1 and every
    pivot column is zero in all other rows, so reducing a vector is a
    single pass over the stored rows.  Over GF(p) (untagged) a dense
    vectorized variant is used instead; see _GFRowSpace.
    """

    def __new__(cls, field, ncols, tagged=False):
        if cls is RowSpace and field.characteristic > 0 and not tagged:
            return super().__new__(_GFRowSpace)
        return super().__new__(cls)

    def __init__(self, field, ncols, tagged=False):
        self.field = field
        self.ncols = ncols
        self.rows = {}  # pivot column -> row vector
        self.tags = {} if tagged else None  # pivot column -> tag dict
        (
            self._convert,
            self._axpy,
            self._scale,
            self._is_zero_vec,
            self._first_nonzero,
        ) = _make_ops(field)

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        """Basis rows in increasing pivot order, as plain lists."""
        return [list(self.rows[c]) for c in sorted(self.rows)]

    def reduce(self, v, tag=None):
        """Reduce v modulo the span; returns (residual as a list, tag).

        In tagged mode the returned tag expresses residual = v_original -
        (combination of previously added vectors); callers that add
        vectors with their own tags can use it to recover coordinates.
        """
        v, tag = self._reduce_internal(v, tag)
        return list(v), tag

    def _reduce_internal(self, v, tag=None):
        v = self._convert(v)
        if self.tags is not None:
            tag = dict(tag) if tag else {}
        for c, row in self.rows.items():
            a = v[c]
            if a:
                v = self._axpy(v, a, row)
                if self.tags is not None:
                    self._tag_axpy(tag, a, self.tags[c])
        return v, tag

    def _tag_axpy(self, tag, a, other):
        """tag -= a * other, in place, dropping entries that become zero."""
        for k, t in other.items():
            prev = tag.get(k)
            nt = (prev - a * t) if prev is not None else -a * t
            if self.field.characteristic:
                nt %= self.field.p
            if nt:
                tag[k] = nt
            elif prev is not None:
                del tag[k]

    def add(self, v, tag=None):
        """Add v to the span.  Returns the new pivot column, or None if v
        was already in the span."""
        v, tag = self._reduce_internal(v, tag)
        pivot = self._first_nonzero(v)
        if pivot is None:
            return None
        inv = self.field.inv(v[pivot])
        if not self.field.eq(inv, self.field.one):
            v = self._scale(v, inv)
            if self.tags is not None:
                tag = {k: self._scalar_mul(inv, t) for k, t in tag.items()}
        # keep the basis fully reduced: clear the new pivot column everywhere
        for c, row in self.rows.items():
            a = row[pivot]
            if a:
                self.rows[c] = self._axpy(row, a, v)
                if self.tags is not None:
                    self._tag_axpy(self.tags[c], a, tag)
        self.rows[pivot] = v
        if self.tags is not None:
            self.tags[pivot] = tag
        return pivot

    def _scalar_mul(self, c, t):
        out = c * t
        if self.field.characteristic:
            out %= self.field.p
        return out

    def contains(self, v):
        res, _ = self._reduce_internal(v)
        return self._is_zero_vec(res)

    def copy(self):
        out = RowSpace(self.field, self.ncols, tagged=self.tags is not None)
        out.rows = {c: self._convert(r) for c, r in self.rows.items()}
        if self.tags is not None:
            out.tags = {c: dict(t) for c, t in self.tags.items()}
        return out


class _GFRowSpace(RowSpace):
    """Dense RowSpace over GF(p): rows live in one preallocated int64
    matrix, reduction is a single matrix-vector product, and clearing a
    new pivot column is one outer-product update.  Entries stay in [0, p),
    so a reduction sums at most ncols products below (p-1)^2; that sum
    must fit in int64, which the constructor checks."""

    def __init__(self, field, ncols, tagged=False):
        if ncols * (field.p - 1) ** 2 >= 2**63:
            raise KlscError(
                f"GF({field.p}) elimination with {ncols} columns would overflow int64"
            )
        self.field = field
        self.ncols = ncols
        self.p = field.p
        self._cap = 8
        self._buf = np.zeros((self._cap, max(ncols, 1)), dtype=np.int64)
        self._k = 0
        self._pivots = []
        self.tags = None

    @property
    def dim(self):
        return len(self._pivots)

    @property
    def rows(self):
        return {c: self._buf[i, : self.ncols] for i, c in enumerate(self._pivots)}

    def basis(self):
        """Basis rows in increasing pivot order, as int64 arrays."""
        order = sorted(range(self._k), key=lambda i: self._pivots[i])
        return [self._buf[i, : self.ncols].copy() for i in order]

    def _reduce_internal(self, v, tag=None):
        if isinstance(v, np.ndarray):
            v = v % self.p
        else:
            v = np.array(v, dtype=np.int64) % self.p
        if self._k:
            coeffs = v[self._pivots]
            nz = np.nonzero(coeffs)[0]
            if len(nz):
                v = (v - coeffs[nz] @ self._buf[nz, : self.ncols]) % self.p
        return v, tag

    def add(self, v, tag=None):
        v, _ = self._reduce_internal(v)
        nz = np.nonzero(v)[0]
        if not len(nz):
            return None
        pivot = int(nz[0])
        a = int(v[pivot])
        if a != 1:
            v = (v * pow(a, self.p - 2, self.p)) % self.p
        if self._k:
            col = self._buf[: self._k, pivot]
            nzr = np.nonzero(col)[0]
            if len(nzr):
                self._buf[nzr, : self.ncols] = (
                    self._buf[nzr, : self.ncols] - np.outer(col[nzr], v)
                ) % self.p
        if self._k == self._cap:
            self._cap *= 2
            newbuf = np.zeros((self._cap, max(self.ncols, 1)), dtype=np.int64)
            newbuf[: self._k] = self._buf[: self._k]
            self._buf = newbuf
        self._buf[self._k, : self.ncols] = v
        self._k += 1
        self._pivots.append(pivot)
        return pivot

    def contains(self, v):
        res, _ = self._reduce_internal(v)
        return not res.any()

    def copy(self):
        out = _GFRowSpace(self.field, self.ncols)
        out._cap = self._cap
        out._buf = self._buf.copy()
        out._k = self._k
        out._pivots = list(self._pivots)
        return out


def rref(rows, ncols, field):
    """Reduced row echelon form.  Returns (basis rows, pivot columns)."""
    space = RowSpace(field, ncols)
    for r in rows:
        space.add(r)
    row_map = space.rows
    pivots = sorted(row_map)
    return [list(row_map[c]) for c in pivots], pivots


def rank(rows, ncols, field):
    space = RowSpace(field, ncols)
    for r in rows:
        space.add(r)
    return space.dim


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel {x : A x = 0} of the matrix with the given
    rows.  The empty kernel is the empty list (not an error)."""
    basis, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    if field.characteristic and basis:
        mat = np.array(basis, dtype=np.int64)
        piv = np.array(pivots, dtype=np.intp)
        out = []
        for fc in free_cols:
            v = np.zeros(ncols, dtype=np.int64)
            v[fc] = 1
            v[piv] = (-mat[:, fc]) % field.p
            out.append(v)
        return out
    out = []
    for fc in free_cols:
        v = [field.zero] * ncols
        v[fc] = field.one
        # each pivot row: x_pivot + sum(row[c] x_c for free c) = 0
        for row, pc in zip(basis, pivots):
            a = row[fc]
            if a:
                v[pc] = field.neg(a)
        out.append(v)
    return out


def solve_linear(rows, b, field):
    """One solution x of A x = b, where A has the given rows.

    Raises InconsistentSystemError when the system has no solution; this
    is deliberately distinct from a solvable system whose kernel is zero.
    """
    ncols = len(rows[0]) if rows else len(b) * 0
    aug = [list(r) + [bv] for r, bv in zip(rows, b)]
    basis, pivots = rref(aug, ncols + 1, field)
    x = [field.zero] * ncols
    for row, pc in zip(basis, pivots):
        if pc == ncols:
            raise InconsistentSystemError("linear system has no solution")
        x[pc] = row[ncols]
    return x


def image_basis(rows, ncols, field):
    """Basis of the column space of the matrix, as vectors of length nrows."""
    nrows = len(rows)
    cols = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    basis, _ = rref(cols, nrows, field)
    return basis


def matvec(rows, x, field):
    out = []
    for r in rows:
        acc = field.zero
        for a, b in zip(r, x):
            if a and b:
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out

