"""Exact dense linear algebra over a scalar field.

Vectors are plain Python lists, matrices are lists of row vectors; the
one exception is ``matvec``, whose matrix is row-sparse.

Everything reduces to one workhorse, :class:`RowSpace`, an incrementally
maintained echelon basis keyed by pivot column:

* add a vector, learn whether it enlarged the span;
* reduce a vector against the span;
* read the basis (``basis``, ``rows``) in reduced row echelon form;
* optionally track, for every basis row, its expression over the vectors
  that were added ("tagged" mode), which is how generator provenance is
  recovered in the sheaf computations.

Untagged, the rows are kept semi-echelon: add stores the reduced vector
and clears its pivot column from no older row.  Reading the basis clears
the pivot columns once, last pivot first (back-substitution), so the
reduced echelon form is paid for per read, not per add.  Tagged rows are
kept fully reduced, their tags carried along at every add.

``kernel_basis`` hands out a kernel in the form a RowSpace holding it
would: reduced echelon rows in increasing pivot order.  Eliminating the
columns last to first makes each free column's vector reduced as built,
so no caller eliminates a kernel a second time.

Over QQ the elimination is fraction-free (Bareiss, Math. Comp. 22, 1968),
whichever rational backend is installed: every basis row is a primitive
vector of Python ints with a positive pivot entry, input vectors are
cleared of denominators on entry, and ``reduce`` divides by the scale it
accumulated once at the end, so its residual is exactly the one a
unit-pivot echelon gives.  Integral QQ elements are Python ints
(klsc.field), so most input vectors are all ints and skip the clearing.
Untagged QQ rows and the vector being reduced keep only their nonzero
entries, so a step costs their nonzeros, not ncols.  A primitive reduced
echelon basis with positive pivots is unique, and so is the residual of
a vector once the pivot columns are fixed, so the deferred
back-substitution changes no basis, pivot or residual.
Over GF(2) every untagged row is one Python int with one byte per
column, so a reduction step is a single XOR (the packed rows of
Albrecht, Bard and Hart, ACM TOMS 37, 2010); over GF(p), p > 2, and in
tagged mode rows are numpy int64 arrays with unit pivots.
Either way the vectors handed out over GF(p) are int64 arrays.  numpy is
imported at the first GF(p) computation, so QQ-only runs never load it.

Row order never affects computed dimensions; pivots are always the
leftmost nonzero column, so results are deterministic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress, count
from math import gcd, lcm

from klsc.errors import InconsistentSystemError, KlscError

np = None  # numpy, bound by load_numpy at the first GF(p) computation


def load_numpy():
    """The numpy module, imported on the first call.  Only GF(p) work
    needs it, and importing it is most of a QQ-only CLI call's start-up."""
    global np
    if np is None:
        import numpy

        np = numpy
    return np


class RowSpace:
    """A subspace of field^ncols, stored as an echelon basis keyed by pivot
    column.

    Untagged over QQ, a row is a dict of its nonzero entries (column ->
    int), primitive with a positive pivot entry pv, and the rows are kept
    semi-echelon: each is zero before its pivot and in every pivot column
    that existed when it was added.  Reducing v walks the pivot columns
    where it is nonzero in increasing order, computing pv*v - v[c]*row
    over v's and the row's nonzero entries only; a row is zero before its
    pivot, so each step leaves the lower pivot columns of v clear.  add
    stores the reduced vector, made primitive, and does nothing else.  The
    older rows are cleared in the new pivot columns, last pivot first, only
    when rows or basis reads them, so a run of adds pays for that once and
    what is read is the reduced echelon form.

    In tagged mode every add clears its new pivot column from the other
    rows and carries their tags along, so the basis stays fully reduced;
    a QQ row is a primitive int list kept with its nonzero (column, entry)
    pairs.  Over GF(p) rows have unit pivots and live in _GFRowSpace
    (XOR-packed ints over GF(2), one int64 matrix otherwise), or, in tagged
    mode, in _GFTaggedRowSpace.
    """

    def __new__(cls, field, ncols, tagged=False):
        if field.characteristic > 0:
            load_numpy()
            if cls is RowSpace:
                return super().__new__(_GFTaggedRowSpace if tagged else _GFRowSpace)
        return super().__new__(cls)

    def __init__(self, field, ncols, tagged=False):
        self.field = field
        self.ncols = ncols
        self._rows = {}  # pivot column -> row (a dict untagged, a list tagged)
        self.tags = {} if tagged else None  # pivot column -> tag dict
        self._support = {}  # tagged: pivot column -> nonzero (column, entry) pairs
        self._clean = True  # untagged: every pivot column is zero in the other rows

    @property
    def dim(self):
        return len(self._rows)

    @property
    def rows(self):
        """Pivot column -> basis row, in reduced echelon form."""
        if self.tags is not None:
            return self._rows
        self._back_substitute()
        return {c: self._dense(row) for c, row in self._rows.items()}

    def basis(self):
        """Basis rows in increasing pivot order, as plain lists."""
        rows = self.rows
        return [list(rows[c]) for c in sorted(rows)]

    def _check_length(self, v):
        if len(v) != self.ncols:
            raise ValueError(f"vector of length {len(v)} in a space of {self.ncols} columns")

    def reduce(self, v, tag=None):
        """Reduce v modulo the span; returns (residual as a list, tag).

        In tagged mode the returned tag expresses residual = v_original -
        (combination of previously added vectors); callers that add
        vectors with their own tags can use it to recover coordinates.
        Both are divided by the elimination's scale once, here, so they
        are linear in v and exact (ints or rationals over QQ).
        """
        self._check_length(v)
        v, tag, scale = self._reduce_internal(v, tag)
        if scale != 1:
            div = self.field.div
            v = [div(x, scale) for x in v]
            if tag:
                tag = {k: div(t, scale) for k, t in tag.items()}
        return list(v), tag

    # -- untagged QQ: sparse semi-echelon rows ----------------------------------------

    def _dense(self, row):
        v = [0] * self.ncols
        for j, x in row.items():
            v[j] = x
        return v

    def _sparse_reduce(self, v):
        """(w, s): w = s*v - (a combination of the rows), as a dict of its
        nonzero int entries, zero in every pivot column, and s > 0.  v is
        cleared of denominators on entry."""
        w = dict(compress(enumerate(v), v))
        scale = 1
        if not set(map(type, w.values())) <= {int}:
            ratios = {j: x.as_integer_ratio() for j, x in w.items()}
            scale = lcm(*{q for _, q in ratios.values()})
            w = {j: p * (scale // q) for j, (p, q) in ratios.items()}
        hits = list(w.keys() & self._rows.keys())
        heapify(hits)
        w, s = self._eliminate(w, hits)
        return w, scale * s

    def _eliminate(self, w, hits):
        """(s*w - (a combination of the rows), s) for the dict w, cleared
        in the pivot columns on the heap hits, lowest first, and in those
        the steps bring in.  A step against the row of pivot c computes
        (pv*w - a*row)/g for a = w[c] and g = gcd(a, pv); it may update w
        in place."""
        rows = self._rows
        scale = 1
        while hits:
            c = heappop(hits)
            a = w.get(c)
            if a is None:  # cleared by an earlier step
                continue
            row = rows[c]
            pv = row[c]
            g = gcd(a, pv)
            if g != pv:
                m = pv // g
                w = {j: m * x for j, x in w.items()}
                scale *= m
            a //= g
            get = w.get
            for j, y in row.items():
                x = get(j)
                if x is None:
                    w[j] = -a * y
                    if j in rows:
                        heappush(hits, j)
                else:
                    x -= a * y
                    if x:
                        w[j] = x
                    else:
                        del w[j]
        return w, scale

    @staticmethod
    def _primitive(w, pivot):
        """w divided by its content, with a positive pivot entry."""
        g = gcd(*w.values())
        if w[pivot] < 0:
            g = -g
        return {j: x // g for j, x in w.items()} if g != 1 else w

    def _back_substitute(self):
        """Clear each pivot column in the other rows, last pivot first:
        the rows with later pivots are then reduced already, so a step
        against one clears its own pivot column and no other."""
        if self._clean:
            return
        rows = self._rows
        for c in sorted(rows, reverse=True):
            row = rows[c]
            hits = [j for j in row if j != c and j in rows]
            if hits:
                heapify(hits)
                rows[c] = self._primitive(self._eliminate(dict(row), hits)[0], c)
        self._clean = True

    # -- tagged: dense rows, kept fully reduced ----------------------------------------

    def _reduce_internal(self, v, tag=None):
        """(w, tag, s) with w = s*v - (a combination of the rows), zero in
        every pivot column, the tag carried along the same way, and s > 0."""
        if self.tags is None:
            w, scale = self._sparse_reduce(v)
            return self._dense(w), None, scale
        rows, tags = self._rows, self.tags
        v, tag, scale = self._convert(v, dict(tag or {}))
        # a step against one row scales v's other pivot entries by a positive
        # pv and leaves zero ones zero, so the rows to use are known upfront
        for c in list(compress(rows, map(v.__getitem__, rows))):
            a, pv = v[c], rows[c][c]
            v = self._combine(pv, v, a, c)
            self._tag_combine(pv, tag, a, tags[c])
            scale *= pv
        return v, tag, scale

    @staticmethod
    def _convert(v, tag):
        """(d*v, d*tag, d) for the least d > 0 that makes every entry of v
        and of the tag dict an int; the tag is updated in place.  All-int
        input, the common case, comes back at once with d = 1."""
        if set(map(type, v)).union(map(type, tag.values())) <= {int}:
            return list(v), tag, 1
        ratios = [x.as_integer_ratio() for x in v]
        tag_ratios = [(k, t.as_integer_ratio()) for k, t in tag.items()]
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
        primitive with a positive pivot entry.  The content is taken over
        the tag's entries too, so tags stay integral."""
        g = gcd(*v, *tag.values())
        if v[pivot] < 0:
            g = -g
        if g != 1:
            v = [x // g for x in v]
            tag = {k: t // g for k, t in tag.items()}
        return v, tag

    def _store(self, c, row, tag):
        self._rows[c] = row
        self._support[c] = list(compress(enumerate(row), row))
        self.tags[c] = tag

    # -- both modes ----------------------------------------------------------------------

    def add(self, v, tag=None):
        """Add v to the span.  Returns the new pivot column, or None if v
        was already in the span."""
        self._check_length(v)
        if self.tags is None:
            w, _ = self._sparse_reduce(v)
            if not w:
                return None
            pivot = min(w)
            self._rows[pivot] = self._primitive(w, pivot)
            self._clean = False
            return pivot
        v, tag, _ = self._reduce_internal(v, tag)
        pivot = self._first_nonzero(v)
        if pivot is None:
            return None
        v, tag = self._normalise(v, tag, pivot)
        pv = v[pivot]
        rows, tags = self._rows, self.tags
        hits = [c for c, row in rows.items() if row[pivot]]
        self._store(pivot, v, tag)
        # keep the basis fully reduced: clear the new pivot column everywhere
        for c in hits:
            a = rows[c][pivot]
            row = self._combine(pv, rows[c], a, pivot)
            self._tag_combine(pv, tags[c], a, tag)
            self._store(c, *self._normalise(row, tags[c], c))
        return pivot

    def contains(self, v):
        self._check_length(v)
        if self.tags is None:
            return not self._sparse_reduce(v)[0]
        res, _, _ = self._reduce_internal(v)
        return self._first_nonzero(res) is None

    def copy(self):
        out = RowSpace(self.field, self.ncols, tagged=self.tags is not None)
        if self.tags is None:
            # untagged rows are replaced, never updated in place, so a copy
            # may share them
            out._rows = dict(self._rows)
            out._clean = self._clean
        else:
            out._rows = {c: r.copy() for c, r in self._rows.items()}
            out._support = dict(self._support)
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
        return (v - int(a) * self._rows[c]) % self.field.p

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
        self._rows[c] = row
        self.tags[c] = tag


class _GFRowSpace(RowSpace):
    """Untagged RowSpace over GF(p), in one of two layouts chosen from p.

    Over GF(2) a row is one Python int holding one byte per column, the
    entry of column j in bit 8j, and the rows are keyed by pivot column in
    _xor.  A row's pivot is its lowest set bit.  Reducing v XORs in, lowest
    first, the row of each pivot column where v has a one; add stores the
    reduced vector as a new row and does nothing else.  The older rows are
    cleared in the new pivot columns, with one XOR per row and column, only
    when rows or basis reads them, so a run of adds pays for that once and
    what is read is the reduced echelon form.  Vectors are packed on entry
    with their entries taken mod 2, and unpacked to int64 arrays on the way
    out.

    Over GF(p), p > 2, rows live in one preallocated int64 matrix,
    reduction is a single matrix-vector product, and clearing a new pivot
    column is one outer-product update.  Entries stay in [0, p), so a
    reduction sums at most ncols products below (p-1)^2; that sum must fit
    in int64, which the constructor checks."""

    def __init__(self, field, ncols, tagged=False):
        if ncols * (field.p - 1) ** 2 >= 2**63:
            raise KlscError(
                f"GF({field.p}) elimination with {ncols} columns would overflow int64"
            )
        self.field = field
        self.ncols = ncols
        self.p = field.p
        self.tags = None
        self._pivots = []
        if self.p == 2:
            self._xor = {}  # pivot column -> packed row
            self._pivot_bits = 0  # bit 8c set for every pivot column c
            self._ones = int.from_bytes(b"\1" * ncols, "little")
        else:
            self._xor = None
            self._cap = 8
            self._buf = np.zeros((self._cap, max(ncols, 1)), dtype=np.int64)
            self._k = 0

    @property
    def dim(self):
        return len(self._pivots)

    @property
    def rows(self):
        if self._xor is not None:
            self._back_substitute()
            return dict(zip(self._xor, self._unpack(list(self._xor.values()))))
        return {c: self._buf[i, : self.ncols] for i, c in enumerate(self._pivots)}

    def basis(self):
        """Basis rows in increasing pivot order, as int64 arrays."""
        if self._xor is not None:
            self._back_substitute()
            return self._unpack([self._xor[c] for c in sorted(self._xor)])
        order = sorted(range(self._k), key=lambda i: self._pivots[i])
        return [self._buf[i, : self.ncols].copy() for i in order]

    # -- GF(2) packing ---------------------------------------------------------------

    def _pack(self, v):
        """v mod 2 as an int with the entry of column j in bit 8j."""
        if isinstance(v, np.ndarray):
            # the cast keeps each entry mod 256, so its low bit is v[j] mod 2
            return int.from_bytes(v.astype(np.uint8).tobytes(), "little") & self._ones
        return int.from_bytes(bytes([x & 1 for x in v]), "little")

    def _unpack(self, packed):
        """A list of packed rows as a list of int64 arrays."""
        n = self.ncols
        raw = b"".join([w.to_bytes(n, "little") for w in packed])
        return list(np.frombuffer(raw, np.uint8).reshape(len(packed), n).astype(np.int64))

    def _xor_reduce(self, w):
        """The packed w minus its components along the basis rows."""
        rows, bits = self._xor, self._pivot_bits
        # a row is zero below its pivot, so each step leaves the lower
        # pivot columns of w clear
        hits = w & bits
        while hits:
            low = hits & -hits
            w ^= rows[low.bit_length() >> 3]
            hits = w & bits
        return w

    def _back_substitute(self):
        """Clear each pivot column in the other rows, last pivot first:
        the rows with later pivots are then reduced already, so XOR-ing one
        in clears its own pivot column and no other."""
        rows, bits = self._xor, self._pivot_bits
        for c in sorted(rows, reverse=True):
            row = rows[c]
            hits = row & bits & ~(1 << 8 * c)
            while hits:
                low = hits & -hits
                row ^= rows[low.bit_length() >> 3]
                hits ^= low
            rows[c] = row

    # -- elimination -----------------------------------------------------------------

    def _reduce_internal(self, v, tag=None):
        if self._xor is not None:
            return self._unpack([self._xor_reduce(self._pack(v))])[0], tag, 1
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
        self._check_length(v)
        if self._xor is not None:
            w = self._xor_reduce(self._pack(v))
            if not w:
                return None
            low = w & -w
            pivot = low.bit_length() >> 3  # bit 8c has bit length 8c + 1
            self._xor[pivot] = w
            self._pivot_bits |= low
            self._pivots.append(pivot)
            return pivot
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
        self._check_length(v)
        if self._xor is not None:
            return not self._xor_reduce(self._pack(v))
        res, _, _ = self._reduce_internal(v)
        return not res.any()

    def copy(self):
        out = _GFRowSpace(self.field, self.ncols)
        out._pivots = list(self._pivots)
        if self._xor is not None:
            out._xor = dict(self._xor)
            out._pivot_bits = self._pivot_bits
        else:
            out._cap = self._cap
            out._buf = self._buf.copy()
            out._k = self._k
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
    rows, as the basis() of a RowSpace holding the kernel: reduced echelon
    form in increasing pivot order, primitive int lists with a positive
    pivot over QQ, int64 arrays with unit pivots over GF(p).  The empty
    kernel is the empty list (not an error).

    A's columns are eliminated last to first.  In those reversed
    coordinates the vector of a free column f is zero at the other free
    columns and after f; read forwards, it leads at f and is zero at the
    other free columns, the kernel's pivots, so it is already reduced."""
    if field.characteristic:
        space = RowSpace(field, ncols)
        for r in rows:
            space.add(r[::-1])
        pivots = sorted(space._pivots)
        pivot_set = set(pivots)
        free_cols = [c for c in range(ncols) if c not in pivot_set]
        out = np.zeros((len(free_cols), ncols), dtype=np.int64)
        out[range(len(free_cols)), free_cols] = 1
        if pivots and free_cols:
            mat = np.array(space.basis())
            out[:, pivots] = (-mat[:, free_cols].T) % field.p
        return list(out[::-1, ::-1].copy())
    basis, pivots = rref((r[::-1] for r in rows), ncols, field)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for fc in reversed(free_cols):
        # each pivot row: pv*x_pivot + sum(row[c] x_c for free c) = 0
        terms = [(pc, row[fc], row[pc]) for row, pc in zip(basis, pivots) if row[fc]]
        m = lcm(*(pv for _, _, pv in terms))
        v = [0] * ncols
        v[fc] = m
        for pc, a, pv in terms:
            v[pc] = -a * (m // pv)
        g = gcd(*v)
        out.append([x // g for x in reversed(v)] if g != 1 else v[::-1])
    return out


def solve_linear(rows, b, field):
    """One solution x of A x = b, where A has the given rows.

    Raises InconsistentSystemError when the system has no solution; this
    is deliberately distinct from a solvable system whose kernel is zero.
    Raises ValueError when b does not have one entry per row.
    """
    if len(b) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(b)} right-hand sides")
    ncols = len(rows[0]) if rows else 0
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

