"""Exact linear algebra over a scalar field.

Each field has one vector type.  Over QQ a vector is a dict of its
nonzero entries (column -> value); over GF(p) it is a numpy int64 array
with entries in [0, p).  Every QQ vector this module hands out (RowSpace
rows, bases and residuals, kernel_basis and rref rows, matvec products)
is such a dict; inputs may also be sequences of all their entries.  Two
uses take dicts over GF(p) too: tagged RowSpaces, and ``matvec``, whose
caller is the generic sheaf engine.  Its matrix is column-sparse: per
column, its nonzero (row, coefficient) pairs, so a product reads only
the columns where the input vector is nonzero.

Everything reduces to one workhorse, :class:`RowSpace`, an incrementally
maintained echelon basis keyed by pivot column:

* add a vector and learn whether it enlarged the span;
* reduce a vector against the span;
* read the basis (``basis``, ``rows``) in reduced row echelon form;
* optionally track, for every basis row, its expression over the vectors
  that were added ("tagged" mode), which is how generator provenance is
  recovered in the sheaf computations.

A row is a dict of its nonzero entries, and the rows are kept
semi-echelon: add stores the reduced vector and clears its pivot column
from no older row; reduce walks only the pivot columns where the vector
is nonzero, lowest first.  Reading the basis clears the pivot columns
once, last pivot first (back-substitution), so the reduced echelon form
is paid for per read, not per add.  A tag is a dict too, carried along
with its row.  One code path serves QQ and, in tagged mode, GF(p): over
QQ a row is primitive, over GF(p) it has a unit pivot and entries mod p.

``kernel_basis`` hands out a kernel in the form a RowSpace holding it
would: reduced echelon rows in increasing pivot order.  Eliminating the
columns last to first makes each free column's vector reduced as built,
so no caller eliminates a kernel a second time.

Over QQ the elimination is fraction-free (Bareiss, Math. Comp. 22, 1968),
whichever rational backend is installed: every basis row is a primitive
vector of Python ints with a positive pivot entry (in tagged mode,
primitive together with its tag), input vectors are cleared of
denominators on entry, and ``reduce`` divides by the scale it
accumulated once at the end, so its residual is exactly the one a
unit-pivot echelon gives.  Integral QQ elements are Python ints
(klsc.field), so most input vectors are all ints and skip the clearing.
A step costs the nonzeros of the row and of the vector being reduced,
not ncols.  The residual of a vector is unique once the pivot columns
are fixed, and so is a primitive (or unit-pivot) reduced echelon basis,
so the deferred back-substitution changes no basis, pivot or residual.
Untagged over GF(p) the rows live in _GFRowSpace: over GF(2) every row
is one Python int with one byte per column, so a reduction step is a
single XOR (the packed rows of Albrecht, Bard and Hart, ACM TOMS 37,
2010); over GF(p), p > 2, rows are numpy int64 arrays with unit pivots,
and the vectors these spaces hand out are int64 arrays.  numpy is
imported at the first untagged GF(p) space, so QQ-only runs and tagged
eliminations never load it.

Row order never affects computed dimensions; pivots are always the
leftmost nonzero column, so results are deterministic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
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
    column.  Vectors go in as dicts of their nonzero entries or as lists,
    and the rows, basis vectors and residuals it hands out are dicts of
    their nonzero entries; rows and basis vectors are the stored rows,
    which callers must not change.

    A row is a dict of its nonzero entries (column -> int): over QQ
    primitive with a positive pivot entry pv, over GF(p) reduced mod p
    with pv = 1.  The rows are kept semi-echelon: each is zero before its
    pivot and in every pivot column that existed when it was added.
    Reducing v walks the pivot columns where it is nonzero in increasing
    order, computing pv*v - v[c]*row over v's and the row's nonzero
    entries only; a row is zero before its pivot, so each step leaves the
    lower pivot columns of v clear.  add stores the reduced vector,
    normalised, and does nothing else.  The older rows are cleared in the
    new pivot columns, last pivot first, only when rows or basis reads
    them, so a run of adds pays for that once and what is read is the
    reduced echelon form.

    In tagged mode every row carries a tag, a dict expressing the row
    over the vectors that were added, updated along with it.  When the
    tags' keys stand for independent vectors, as they do when each key is
    added once, with a vector outside the span, the tag that reduce
    returns is the unique expression of v minus its residual over them,
    however far the rows were reduced.

    Untagged over GF(p) the rows live in _GFRowSpace instead (XOR-packed
    ints over GF(2), one int64 matrix otherwise), which hands out int64
    arrays.
    """

    def __new__(cls, field, ncols, tagged=False):
        if cls is RowSpace and field.characteristic > 0 and not tagged:
            load_numpy()
            return super().__new__(_GFRowSpace)
        return super().__new__(cls)

    def __init__(self, field, ncols, tagged=False):
        self.field = field
        self.ncols = ncols
        self._p = field.characteristic
        self._rows = {}  # pivot column -> row, a dict of its nonzero entries
        self.tags = {} if tagged else None  # pivot column -> tag dict
        self._clean = True  # every pivot column is zero in the other rows

    @property
    def dim(self):
        return len(self._rows)

    @property
    def rows(self):
        """Pivot column -> basis row, in reduced echelon form."""
        self._back_substitute()
        return dict(self._rows)

    def basis(self):
        """Basis rows in increasing pivot order."""
        self._back_substitute()
        return [self._rows[c] for c in sorted(self._rows)]

    def _check_length(self, v):
        if len(v) != self.ncols:
            raise ValueError(f"vector of length {len(v)} in a space of {self.ncols} columns")

    def _check_columns(self, v):
        """Refuse a dict with a column that is not an int in range(ncols)."""
        if v and not (set(map(type, v)) <= {int} and 0 <= min(v) and max(v) < self.ncols):
            raise ValueError(f"vector with a column outside range({self.ncols})")

    def reduce(self, v, tag=None):
        """Reduce v, a list or a dict of its nonzero entries (column ->
        value), modulo the span; returns (residual, tag), the residual a
        dict of its nonzero entries.

        In tagged mode the returned tag expresses residual = v_original -
        (combination of previously added vectors); callers that add
        vectors with their own tags can use it to recover coordinates.
        Both are divided by the elimination's scale once, here, so they
        are linear in v and exact (ints or rationals over QQ).
        """
        w, tag, scale = self._reduce_internal(v, tag)
        if scale != 1:
            div = self.field.div
            w = {j: div(x, scale) for j, x in w.items()}
            if tag:
                tag = {k: div(t, scale) for k, t in tag.items()}
        return w, tag

    def _reduce_internal(self, v, tag=None):
        """(w, tag, s): w = s*v - (a combination of the rows), as a dict of
        its nonzero entries, zero in every pivot column, with s > 0; in
        tagged mode the tag is carried along the same way (else None)."""
        w, tag, scale = self._entries(v, tag)
        hits = list(w.keys() & self._rows.keys())
        if not hits:
            return w, tag, scale
        heapify(hits)
        w, tag, s = self._eliminate(w, hits, tag)
        return w, tag, scale * s

    def _entries(self, v, tag):
        """(d*v as a new dict of its nonzero int entries, d*tag as a new
        dict or None untagged, d).  Over QQ d > 0 is the least that clears
        every denominator; all-int input, the common case, has d = 1.
        Over GF(p) entries are taken mod p and d = 1."""
        if isinstance(v, dict):
            self._check_columns(v)
            w = dict(v) if all(v.values()) else {j: x for j, x in v.items() if x}
        else:
            self._check_length(v)
            w = dict(compress(enumerate(v), v))
        if self.tags is not None:
            tag = {k: t for k, t in tag.items() if t} if tag else {}
        p = self._p
        if p:
            w = {j: x for j, x in ((j, int(x) % p) for j, x in w.items()) if x}
            return w, tag, 1
        types = set(map(type, w.values()))
        if tag:
            types.update(map(type, tag.values()))
        if types <= {int}:
            return w, tag, 1
        ratios = {j: x.as_integer_ratio() for j, x in w.items()}
        tag_ratios = {k: t.as_integer_ratio() for k, t in (tag or {}).items()}
        d = lcm(*{q for _, q in ratios.values()}, *{q for _, q in tag_ratios.values()})
        w = {j: n * (d // q) for j, (n, q) in ratios.items()}
        if tag is not None:
            tag = {k: n * (d // q) for k, (n, q) in tag_ratios.items()}
        return w, tag, d

    def _eliminate(self, w, hits, tag=None):
        """(s*w - (a combination of the rows), s*tag - (the same
        combination of their tags), s) for the int dict w, cleared in the
        pivot columns on the heap hits, lowest first, and in those the
        steps bring in.  A step against the row of pivot c computes
        (pv*w - a*row)/g for a = w[c] and g = gcd(a, pv); it may update w
        and tag in place.  Over GF(p), where pv = 1 and a is taken mod p,
        the entries grow by less than p^2 a step and are reduced mod p
        once, at the end, so both fields share the loop."""
        rows, tags, p = self._rows, self.tags, self._p
        scale = 1
        while hits:
            c = heappop(hits)
            a = w.get(c)
            if a is None:  # cleared by an earlier step
                continue
            if p:
                a %= p
                if not a:
                    del w[c]
                    continue
            row = rows[c]
            pv = row[c]
            g = gcd(a, pv)
            if g != pv:
                m = pv // g
                w = {j: m * x for j, x in w.items()}
                if tag is not None:
                    tag = {k: m * t for k, t in tag.items()}
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
            if tag is not None:
                get = tag.get
                for k, t in tags[c].items():
                    x = get(k, 0) - a * t
                    if x:
                        tag[k] = x
                    else:
                        del tag[k]  # tags hold no zeros, so k was there
        if p:
            w = {j: x for j, x in ((j, x % p) for j, x in w.items()) if x}
            if tag:
                tag = {k: t for k, t in ((k, t % p) for k, t in tag.items()) if t}
        return w, tag, scale

    def _normalise(self, w, tag, pivot):
        """w with a unit pivot entry over GF(p); over QQ, w divided by its
        content, with a positive pivot entry.  The tag is divided with it,
        and in tagged QQ mode the content is taken over the tag's entries
        too, so tags stay integral."""
        a = w[pivot]
        p = self._p
        if p:
            if a == 1:
                return w, tag
            inv = pow(a, -1, p)
            w = {j: x * inv % p for j, x in w.items()}
            return w, tag and {k: t * inv % p for k, t in tag.items()}
        g = gcd(*w.values(), *tag.values()) if tag else gcd(*w.values())
        if a < 0:
            g = -g
        if g == 1:
            return w, tag
        return {j: x // g for j, x in w.items()}, tag and {k: t // g for k, t in tag.items()}

    def _back_substitute(self):
        """Clear each pivot column in the other rows, last pivot first:
        the rows with later pivots are then reduced already, so a step
        against one clears its own pivot column and no other."""
        if self._clean:
            return
        rows, tags = self._rows, self.tags
        for c in sorted(rows, reverse=True):
            row = rows[c]
            hits = [j for j in row if j != c and j in rows]
            if hits:
                heapify(hits)
                tag = None if tags is None else dict(tags[c])
                w, tag, _ = self._eliminate(dict(row), hits, tag)
                rows[c], tag = self._normalise(w, tag, c)
                if tags is not None:
                    tags[c] = tag
        self._clean = True

    def add(self, v, tag=None):
        """Add v, a list or a dict of its nonzero entries, to the span.
        Returns the new pivot column, or None if v was already in the
        span."""
        w, tag, _ = self._reduce_internal(v, tag)
        if not w:
            return None
        pivot = min(w)
        self._rows[pivot], tag = self._normalise(w, tag, pivot)
        if tag is not None:
            self.tags[pivot] = tag
        self._clean = False
        return pivot

    def copy(self):
        out = RowSpace(self.field, self.ncols, tagged=self.tags is not None)
        # rows and tags are replaced, never updated in place, so a copy may
        # share them
        out._rows = dict(self._rows)
        if self.tags is not None:
            out.tags = dict(self.tags)
        out._clean = self._clean
        return out


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

    def _vector(self, v):
        """v, checked, with a dict spread out to an int64 array."""
        if not isinstance(v, dict):
            self._check_length(v)
            return v
        self._check_columns(v)
        out = np.zeros(self.ncols, dtype=np.int64)
        out[list(v)] = [int(x) % self.p for x in v.values()]
        return out

    def reduce(self, v, tag=None):
        """The residual of v modulo the span, as an int64 array, and None."""
        return self._reduce_internal(v)[0], None

    def _reduce_internal(self, v, tag=None):
        v = self._vector(v)
        if self._xor is not None:
            return self._unpack([self._xor_reduce(self._pack(v))])[0], tag, 1
        return self._reduce_dense(v), tag, 1

    def _reduce_dense(self, v):
        """p > 2: the checked v, mod p, minus its components along the rows,
        as an int64 array."""
        if isinstance(v, np.ndarray):
            v = v % self.p
        else:
            v = np.array(v, dtype=np.int64) % self.p
        if self._k:
            coeffs = v[self._pivots]
            nz = np.nonzero(coeffs)[0]
            if len(nz):
                v = (v - coeffs[nz] @ self._buf[nz, : self.ncols]) % self.p
        return v

    def add(self, v, tag=None):
        v = self._vector(v)
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
        v = self._reduce_dense(v)
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
    """Reduced row echelon form.  Returns (basis rows, pivot columns); over
    QQ the rows are primitive int vectors with positive pivots, as dicts of
    their nonzero entries, over GF(p) int64 arrays with unit pivots."""
    space = RowSpace(field, ncols)
    for r in rows:
        space.add(r)
    row_map = space.rows
    pivots = sorted(row_map)
    return [row_map[c] for c in pivots], pivots


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel {x : A x = 0} of the matrix with the given
    rows (dicts of their nonzero entries, or sequences), as the basis() of
    a RowSpace holding the kernel: reduced echelon form in increasing pivot
    order, primitive int vectors with a positive pivot as dicts of their
    nonzero entries over QQ, int64 arrays with unit pivots over GF(p).  The
    empty kernel is the empty list (not an error).

    A's columns are eliminated last to first.  In those reversed
    coordinates the vector of a free column f is zero at the other free
    columns and after f; read forwards, it leads at f and is zero at the
    other free columns, the kernel's pivots, so it is already reduced."""
    space = RowSpace(field, ncols)
    for r in rows:
        space.add({ncols - 1 - c: a for c, a in r.items()} if isinstance(r, dict) else r[::-1])
    if field.characteristic:
        pivots = sorted(space._pivots)
        pivot_set = set(pivots)
        free_cols = [c for c in range(ncols) if c not in pivot_set]
        out = np.zeros((len(free_cols), ncols), dtype=np.int64)
        out[range(len(free_cols)), free_cols] = 1
        if pivots and free_cols:
            mat = np.array(space.basis())
            out[:, pivots] = (-mat[:, free_cols].T) % field.p
        return list(out[::-1, ::-1].copy())
    # each pivot row: pv*x_pivot + sum(row[f] x_f over free f) = 0, so the
    # vector of free column f has m = lcm of the pv of the rows meeting f
    # at f and -row[f] * (m // pv) at each such row's pivot
    terms = {c: [] for c in range(ncols) if c not in space._rows}
    for pc, row in space.rows.items():
        for f, a in row.items():
            if f != pc:
                terms[f].append((pc, a, row[pc]))
    out = []
    for f in sorted(terms, reverse=True):
        m = lcm(*(pv for _, _, pv in terms[f]))
        v = {ncols - 1 - f: m}
        for pc, a, pv in terms[f]:
            v[ncols - 1 - pc] = -a * (m // pv)
        g = gcd(*v.values())
        out.append({c: x // g for c, x in v.items()} if g != 1 else v)
    return out


def solve_linear(rows, b, field):
    """One solution x of A x = b, where A has the given rows, as a list.

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
        rhs = row.get(ncols, field.zero) if isinstance(row, dict) else row[ncols]
        x[pc] = field.div(rhs, row[pc])
    return x


def matvec(cols, x, field):
    """The product A x of a column-sparse matrix, each column a list of its
    nonzero (row, coefficient) pairs, with a vector x; x and the product
    are dicts of their nonzero entries over either field.  Only the
    nonzero entries of x are read, so the product costs the entries of A
    in the columns where x is nonzero."""
    add, mul = field.add, field.mul
    out = {}
    for c, b in x.items():
        for r, a in cols[c]:
            out[r] = add(out[r], mul(a, b)) if r in out else mul(a, b)
    return {r: y for r, y in out.items() if y}
