"""Exact dense linear algebra over a scalar field.

Vectors are plain Python lists, matrices are lists of row vectors; the
one exception is ``matvec``, whose matrix is row-sparse.

Everything reduces to one workhorse, :class:`RowSpace`, an incrementally
maintained reduced row echelon basis:

* add a vector, learn whether it enlarged the span;
* reduce a vector against the span (one pass, since the basis is kept
  fully reduced);
* optionally track, for every basis row, its expression over the vectors
  that were added ("tagged" mode), which is how generator provenance is
  recovered in the sheaf computations.

Over QQ the elimination is fraction-free (Bareiss, Math. Comp. 22, 1968),
whichever rational backend is installed: every basis row is a primitive
vector of Python ints with a positive pivot entry, input vectors are
cleared of denominators on entry, and ``reduce`` divides by the scale it
accumulated once at the end, so its residual is exactly the one a
unit-pivot echelon gives.  Over GF(p) rows are numpy int64 arrays with
unit pivots.

Row order never affects computed dimensions; pivots are always the
leftmost nonzero column, so results are deterministic.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd, lcm

import numpy as np

from klsc.errors import InconsistentSystemError, KlscError


class RowSpace:
    """A subspace of field^ncols, stored as a reduced row echelon basis.

    Rows are indexed by pivot column and every pivot column is zero in all
    other rows, so reducing a vector is a single pass over the stored rows.
    Over QQ each row is a primitive int list with a positive pivot entry
    pv, kept with its nonzero (column, entry) pairs; reducing v against it
    computes pv*v - v[pivot]*row over those pairs only.  Over GF(p) a dense
    vectorized variant is used instead (see _GFRowSpace), or, in tagged
    mode, numpy rows with unit pivots (_GFTaggedRowSpace).
    """

    def __new__(cls, field, ncols, tagged=False):
        if cls is RowSpace and field.characteristic > 0:
            return super().__new__(_GFTaggedRowSpace if tagged else _GFRowSpace)
        return super().__new__(cls)

    def __init__(self, field, ncols, tagged=False):
        self.field = field
        self.ncols = ncols
        self.rows = {}  # pivot column -> row vector
        self.tags = {} if tagged else None  # pivot column -> tag dict
        self._support = {}  # pivot column -> nonzero (column, entry) pairs

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
        Both are divided by the elimination's scale once, here, so they
        are linear in v and exact (ints or rationals over QQ).
        """
        v, tag, scale = self._reduce_internal(v, tag)
        if scale != 1:
            div = self.field.div
            v = [div(x, scale) for x in v]
            if tag:
                tag = {k: div(t, scale) for k, t in tag.items()}
        return list(v), tag

    def _reduce_internal(self, v, tag=None):
        """(w, tag, s) with w = s*v - (a combination of the rows), zero in
        every pivot column, the tag carried along the same way, and s > 0."""
        rows, tags = self.rows, self.tags
        v, tag, scale = self._convert(v, None if tags is None else dict(tag or {}))
        # a step against one row scales v's other pivot entries by a positive
        # pv and leaves zero ones zero, so the rows to use are known upfront
        for c in list(compress(rows, map(v.__getitem__, rows))):
            a, pv = v[c], rows[c][c]
            v = self._combine(pv, v, a, c)
            if tags is not None:
                self._tag_combine(pv, tag, a, tags[c])
            scale *= pv
        return v, tag, scale

    @staticmethod
    def _convert(v, tag):
        """(d*v, d*tag, d) for the least d > 0 that makes every entry of v
        and of the tag an int.  The tag is a dict, updated in place, or
        None."""
        vals = list(tag.values()) if tag else ()
        if set(map(type, v)).union(map(type, vals)) <= {int}:
            return list(v), tag, 1
        ratios = [x.as_integer_ratio() for x in v]
        tag_ratios = [(k, t.as_integer_ratio()) for k, t in tag.items()] if tag else []
        d = lcm(*{q for _, q in ratios}, *{q for _, (_, q) in tag_ratios})
        for k, (p, q) in tag_ratios:
            tag[k] = p * (d // q)
        if d == 1:
            return [p for p, _ in ratios], tag, 1
        return [p * (d // q) for p, q in ratios], tag, d

    def _combine(self, pv, v, a, c):
        """pv*v - a*(row c); updates v in place when pv is 1."""
        if pv != 1:
            v = [pv * x for x in v]
        for j, y in self._support[c]:
            v[j] -= a * y
        return v

    def _tag_combine(self, pv, tag, a, other):
        """tag = pv*tag - a*other, in place, dropping entries that become
        zero."""
        p = self.field.characteristic
        if pv != 1:
            for k in tag:
                tag[k] *= pv
        for k, t in other.items():
            nt = tag.get(k, 0) - a * t
            if p:
                nt %= p
            if nt:
                tag[k] = nt
            else:
                tag.pop(k, None)

    @staticmethod
    def _first_nonzero(v):
        return next(compress(count(), v), None)

    @staticmethod
    def _normalise(v, tag, pivot):
        """Divide v by its content, and its tag with it, so that v is
        primitive with a positive pivot entry.  In tagged mode the content
        is taken over the tag's entries too, so tags stay integral."""
        g = gcd(*v, *tag.values()) if tag else gcd(*v)
        if v[pivot] < 0:
            g = -g
        if g != 1:
            v = [x // g for x in v]
            if tag:
                tag = {k: t // g for k, t in tag.items()}
        return v, tag

    def _store(self, c, row, tag):
        self.rows[c] = row
        self._support[c] = list(compress(enumerate(row), row))
        if tag is not None:
            self.tags[c] = tag

    def add(self, v, tag=None):
        """Add v to the span.  Returns the new pivot column, or None if v
        was already in the span."""
        v, tag, _ = self._reduce_internal(v, tag)
        pivot = self._first_nonzero(v)
        if pivot is None:
            return None
        v, tag = self._normalise(v, tag, pivot)
        pv = v[pivot]
        rows, tags = self.rows, self.tags
        hits = [c for c, row in rows.items() if row[pivot]]
        self._store(pivot, v, tag)
        # keep the basis fully reduced: clear the new pivot column everywhere
        for c in hits:
            a = rows[c][pivot]
            row = self._combine(pv, rows[c], a, pivot)
            if tags is not None:
                self._tag_combine(pv, tags[c], a, tag)
            self._store(c, *self._normalise(row, None if tags is None else tags[c], c))
        return pivot

    def contains(self, v):
        res, _, _ = self._reduce_internal(v)
        return self._first_nonzero(res) is None

    def copy(self):
        out = RowSpace(self.field, self.ncols, tagged=self.tags is not None)
        out.rows = {c: r.copy() for c, r in self.rows.items()}
        out._support = dict(self._support)
        if self.tags is not None:
            out.tags = {c: dict(t) for c, t in self.tags.items()}
        return out


class _GFTaggedRowSpace(RowSpace):
    """Tagged RowSpace over GF(p): rows are numpy int64 arrays reduced mod
    p with unit pivots, so every reduction step is v - a*row."""

    def _convert(self, v, tag):
        p = self.field.p
        if isinstance(v, np.ndarray):
            v = v % p
        else:
            v = np.fromiter((int(x) % p for x in v), dtype=np.int64, count=len(v))
        return v, tag, 1

    def _combine(self, pv, v, a, c):
        return (v - int(a) * self.rows[c]) % self.field.p

    @staticmethod
    def _first_nonzero(v):
        nz = np.nonzero(v)[0]
        return int(nz[0]) if len(nz) else None

    def _normalise(self, v, tag, pivot):
        p = self.field.p
        a = int(v[pivot])
        if a == 1:
            return v, tag
        inv = pow(a, p - 2, p)
        return (inv * v) % p, {k: inv * t % p for k, t in tag.items()}

    def _store(self, c, row, tag):
        self.rows[c] = row
        self.tags[c] = tag


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
        return v, tag, 1

    def add(self, v, tag=None):
        v, _, _ = self._reduce_internal(v)
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
        res, _, _ = self._reduce_internal(v)
        return not res.any()

    def copy(self):
        out = _GFRowSpace(self.field, self.ncols)
        out._cap = self._cap
        out._buf = self._buf.copy()
        out._k = self._k
        out._pivots = list(self._pivots)
        return out


def rref(rows, ncols, field):
    """Reduced row echelon form.  Returns (basis rows, pivot columns);
    over QQ the rows are primitive int vectors with positive pivots."""
    space = RowSpace(field, ncols)
    for r in rows:
        space.add(r)
    row_map = space.rows
    pivots = sorted(row_map)
    return [list(row_map[c]) for c in pivots], pivots


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel {x : A x = 0} of the matrix with the given
    rows.  The empty kernel is the empty list (not an error).  Over QQ the
    vectors are primitive int vectors, one per free column."""
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
        # each pivot row: pv*x_pivot + sum(row[c] x_c for free c) = 0
        terms = [(pc, row[fc], row[pc]) for row, pc in zip(basis, pivots) if row[fc]]
        m = lcm(*(pv for _, _, pv in terms))
        v = [0] * ncols
        v[fc] = m
        for pc, a, pv in terms:
            v[pc] = -a * (m // pv)
        g = gcd(*v)
        out.append([x // g for x in v] if g != 1 else v)
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
        x[pc] = field.div(row[ncols], row[pc])
    return x


def matvec(rows, x, field):
    """The product A x of a row-sparse matrix, each row a list of its
    nonzero (column, coefficient) pairs, with a dense vector."""
    out = []
    for r in rows:
        acc = field.zero
        for c, a in r:
            b = x[c]
            if b:
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out

