"""Intersection cohomology sheaves of matroids over k[h].

The sheaf on the lattice of flats assigns to the minimal open set above a
flat F the sections of the same construction for the contraction at F,
whose lattice of flats is the interval [F, E].  A parent reads its stalks
and its atom constraints out of the sheaves of the intervals [A, E] over
its atoms A (its children), so _MEMO holds sheaves by the isomorphism
class of their lattice, each with its flats written as atom masks
(FlatMasks).  A parent writes [A, E] the same way straight off its own
lattice, picks the bucket by cheap invariants (atom count, flat sizes,
per-atom profile) and either finds an explicit atom bijection onto a
stored lattice (find_isomorphism), checked flat by flat, or matches a
stored sheaf's labelled flats; only on a miss does it contract and build.

Stalk bases.  A flat G of rank >= 2 lies over several atoms, and every
child over G must read the stalk at G in the same basis.  A chain of
children down to G fixes that basis as the bottom stalk of a stored sheaf
T together with an isomorphism from [G, E] to T's lattice; two chains can
differ by an automorphism of T's lattice, and automorphisms need not fix
T's stalk basis (they act on the t-coefficient of the lattice of U(3,4)
as the 2-dimensional S_4-module V_{2,2}).  The basis at G cannot depend on
the chain when G is settled:

* its stalk is one generator in degree 0.  Echelon bases are normalised,
  so every degree-0 generator lifts to the constant section with all
  coordinates 1, which every automorphism fixes;
* or [G, E] has rank <= 2.  Its automorphisms permute the atoms A and fix
  the top T, so they move a section in degree d >= 1 by differences of
  atom coordinates, which lie in the y-images (y_A of the constant section
  is e_A + e_T, shifted by h^(d-1)).  A generator in degree 1 lifts to the
  unit vector of the first atom, the same class for every sheaf and every
  isomorphism, and there are no generators in degree >= 2.

A sheaf is settled when all its flats are.  So a child is read through an
arbitrary isomorphism only where the chain cannot matter:

* a settled child goes through any isomorphism;
* the root, the sheaf matroid_sheaf builds, reads any child through any
  isomorphism when all its flats of rank >= 2 are settled: its other
  flats are atoms, each read by one child.  Such a root is not nested
  (MatroidIHSheaf.nested) and is never read as a child;
* every other child is the sheaf of the contraction relabelled
  order-isomorphically, found by its labelled flats, so all chains to G
  compose to the same relabelling of E - G and end at the one nested
  sheaf with those flats.

A search that runs past its fixed step budget counts as a miss: slower,
never wrong.  The public matroid_sheaf returns a sheaf indexed by the
matroid's own flats, so it reuses a stored one only when the flats agree.

Everything is degreewise linear algebra over the one-variable ring k[h],
in localization coordinates: a section over an upper set Q of the lattice
is the tuple of its components in the free stalk modules M_F, F in Q, and

* the sections over the punctured lattice L minus its bottom are the
  tuples whose restriction to [A, E] lies in the contraction's section
  space, for every atom A;
* the boundary module at the bottom is the quotient of those sections by
  the images N of y_G for every flat G > bottom, where y_G scales the
  M_H-component by h^{rk G} when G <= H and kills it otherwise.  N is
  generated over k[h] by the y-images of the bottom stalk's lifts alone,
  since y_G y_H is a power of h times y_{G v H};
* the bottom stalk is the minimal free cover of that quotient, and its
  reduced Poincare polynomial is the KL-polynomial; the reduced global
  sections give the Z-polynomial.

The boundary quotient, the global sections and their annihilators are
read off N and the lifts without a further solve:

* the minimal generators in degree d span F_d modulo N_d + h F_{d-1},
  and N_d + h F_{d-1} = N_d + sum over e < d of h^(d-e) span(lifts of
  degree e).  By induction on e: F_e lies in h F_{e-1} + N_e +
  span(lifts of degree e), since that is how the lifts are picked, and
  h N_{e-1} lies in N_e;
* a global section in degree d is a pair (m, s) with s in F_d and
  s - sum_i m_i h^(d - deg i) lift_i in N_d.  N_d lies in F_d and h F in
  F, so these pairs are spanned by (0, n), n in N_d, and
  (e_i, h^(d - deg i) lift_i);
* so a functional (a, phi) on those pairs vanishes on the global
  sections exactly when phi vanishes on N_d and a_i = -phi . h^(d - deg i)
  lift_i.  A parent reads a child only through the kernel of these
  annihilators, one for each vector phi of the kernel of N_d, so only
  their span matters.

All three take N_d + h F_{d-1} to lie in F_d; the sweep checks that in every
degree and raises TruncationBoundError otherwise.

Over GF(p) the same recursion runs unchanged except that boundary
generators at or above half-degree rk(E) - rk(F) are retained rather than
rejected; they are what make the mod-p polynomials differ.
"""

from __future__ import annotations

from operator import mul

from klsc.errors import DegreeBoundError, InconsistentSystemError, TruncationBoundError
from klsc.field import QQ
from klsc.graded import FreeModuleShape, GradedModule
from klsc.linalg import RowSpace, kernel_basis, load_numpy, matvec, solve_linear
from klsc.matroids import Matroid
from klsc.poly import UniPoly
from klsc.poset import RankedPoset

# (characteristic, FlatMasks.key) -> [(FlatMasks, sheaf, {flat: index}), ...]
_MEMO = {}
# candidate placements one isomorphism search may try before it gives up,
# which counts as a miss: slower, never wrong
_SEARCH_STEPS = 20_000

_bits = RankedPoset._bits


def _atom_masks(L, a):
    """{j: mask} over the flats j >= a of the lattice L, in index order:
    bit i of the mask is set when the i-th atom of [a, top], the flat
    L.covers_up[a][i], lies below j."""
    masks = dict.fromkeys(_bits(L.up[a]), 0)
    for i, b in enumerate(L.covers_up[a]):
        for j in _bits(L.up[b]):
            masks[j] |= 1 << i
    return masks


def _image(mask, sigma):
    out = 0
    for i in _bits(mask):
        out |= 1 << sigma[i]
    return out


class FlatMasks:
    """A geometric lattice as the atom masks of its flats, with the
    invariants that bucket it in the memo and prune the isomorphism
    search: the atom count, the sorted flat sizes and, per atom, how many
    flats of each size contain it."""

    def __init__(self, masks):
        self.masks = masks
        self.index = {m: i for i, m in enumerate(masks)}
        self.n = n = max(masks).bit_length()
        counts = [{} for _ in range(n)]
        for m in masks:
            size = m.bit_count()
            for i in _bits(m):
                counts[i][size] = counts[i].get(size, 0) + 1
        self.profile = [tuple(sorted(c.items())) for c in counts]
        self.key = (
            n,
            tuple(sorted(m.bit_count() for m in masks)),
            tuple(sorted(self.profile)),
        )
        self._lines = None

    @classmethod
    def of(cls, lattice):
        return cls(list(_atom_masks(lattice, 0).values()))

    @property
    def lines(self):
        """lines[x][y]: the mask of the least flat holding atoms x and y."""
        if self._lines is None:
            full = (1 << self.n) - 1
            lines = [[full] * self.n for _ in range(self.n)]
            for m in self.masks:
                atoms = list(_bits(m))
                for x in atoms:
                    row = lines[x]
                    for y in atoms:
                        row[y] &= m
            self._lines = lines
        return self._lines


class _OutOfSteps(Exception):
    pass


def find_isomorphism(src: FlatMasks, dst: FlatMasks):
    """An atom bijection sigma (a list) that maps the flats of src onto
    the flats of dst, or None when there is none or the search tries more
    than _SEARCH_STEPS placements.  Atom x may go to
    atom t only when their profiles agree and, for every atom y placed
    before, the lines xy and t sigma(y) have the same size and contain
    the same placed atoms; a full assignment must then map every flat to
    a flat.  The backtracking keeps its own stack, so the number of atoms
    is not bounded by the recursion limit."""
    if src.key != dst.key:
        return None
    n, src_lines, dst_lines = src.n, src.lines, dst.lines
    full = (1 << n) - 1
    sigma = []
    placed = 0  # the atoms of dst that sigma hits
    steps = 0

    def fits(x, t):
        nonlocal steps
        if dst.profile[t] != src.profile[x]:
            return False
        steps += 1
        if steps > _SEARCH_STEPS:
            raise _OutOfSteps
        row, drow = src_lines[x], dst_lines[t]
        for y in range(x):
            line, image = row[y], drow[sigma[y]]
            size = line.bit_count()
            if size != image.bit_count():
                return False
            # a two-atom line or the top holds no other placed atom to compare
            if 2 < size < n and _image(line & ((1 << x) - 1), sigma) != image & placed:
                return False
        return True

    tries = [_bits(full)]  # tries[x]: the images of atom x not tried yet
    try:
        while tries:
            x = len(sigma)
            if x == n:
                if all(_image(m, sigma) in dst.index for m in src.masks):
                    return sigma
                t = None
            else:
                t = next((t for t in tries[x] if fits(x, t)), None)
            if t is None:
                tries.pop()
                if sigma:
                    placed &= ~(1 << sigma.pop())
                continue
            sigma.append(t)
            placed |= 1 << t
            tries.append(_bits(full & ~placed))
    except _OutOfSteps:
        pass
    return None


def _memoize(sheaf, shape):
    entry = shape, sheaf, {f: i for i, f in enumerate(sheaf.flats)}
    _MEMO.setdefault((sheaf.field.characteristic, shape.key), []).append(entry)
    return sheaf


def matroid_sheaf(matroid: Matroid, field=QQ) -> "MatroidIHSheaf":
    """The sheaf of the matroid, indexed by the matroid's own flats.  A
    memoized sheaf is reused only when its flats are the matroid's;
    otherwise the sheaf is built as a root and memoized."""
    flats = matroid.flats()
    shape = FlatMasks.of(matroid.lattice())
    for _, sheaf, _ in _MEMO.get((field.characteristic, shape.key), ()):
        if sheaf.flats == flats:
            return sheaf
    return _memoize(MatroidIHSheaf(matroid, field, root=True), shape)


class MatroidIHSheaf:
    """The sheaf of one matroid, with lazily extendable degree data.

    A root reads children through any isomorphism when it may (see the
    module docstring); nested says whether it stayed safe to read as a
    child.  plain: every flat above the bottom is settled; settled: the
    bottom too."""

    def __init__(self, matroid: Matroid, field, root=False):
        self.matroid = matroid
        self.field = field
        self.rank = matroid.rank
        self.flats = matroid.flats()
        self.lattice = matroid.lattice()
        self.enforce = field.characteristic == 0
        self.np_vectors = field.characteristic > 0
        self._np = load_numpy() if self.np_vectors else None

        L = self.lattice
        self.leq = L.leq
        self.bottom = 0  # flats are sorted by rank, the empty flat first

        # (atom flat index, child sheaf, child flat -> parent flat)
        self.children = []
        self.stalk_shapes = [None] * len(self.flats)
        self._layouts = {}  # degree -> (proper layout, its positions)
        self._shifts = {}  # (e, d) -> _shift(e, d)
        self._full_layouts = {}  # degree -> full_layout(d)
        self.nested = True
        if self.rank == 0:
            self.stalk_shapes[0] = (0,)
        else:
            atoms = L.covers_up[self.bottom]
            picks = [self._child(a, root) for a in atoms]
            if root and not all(child.plain for child, _, _ in picks):
                # a flat of rank >= 2 is not settled: read the children
                # that are not settled through the natural map instead
                picks = [
                    pick if pick[2] or pick[0].settled else self._child(a, False)
                    for a, pick in zip(atoms, picks)
                ]
            self.nested = all(natural or child.settled for child, _, natural in picks)
            for a, (child, fmap, _) in zip(atoms, picks):
                self.children.append((a, child, {cf: j for j, cf in fmap.items()}))
                for j, cf in fmap.items():
                    if j != self.bottom and self.stalk_shapes[j] is None:
                        self.stalk_shapes[j] = child.stalk_shapes[cf]

        # per-degree data, extended on demand
        self._nspace = []  # span of the y-action images per degree
        self._lifts = []  # (degree, vector) per bottom stalk generator
        self._bottom_gens = []
        self._sect_dims = []
        self._z_gens = []
        self._annihilators = {}
        self._max_degree = -1

        if self.rank == 0:
            self._bottom_gens = [0]
        self._ensure(self.rank + 1)
        self.stalk_shapes[self.bottom] = tuple(self._bottom_gens)
        settled = [
            shape == (0,) or self.rank - r <= 2
            for shape, r in zip(self.stalk_shapes, L.rank)
        ]
        self.plain = all(settled[1:])
        self.settled = self.plain and settled[0]
        if self._z_gens and max(self._z_gens) > self.rank:
            raise TruncationBoundError(
                "global section generator above the lattice rank"
            )

    def _child(self, a, any_class):
        """(sheaf of the interval [a, top], map from the flats j >= a to
        that sheaf's flat indices, whether the map is the natural one).
        A stored nested sheaf is read through any isomorphism the search
        finds when it is settled, or any at all when any_class is set;
        otherwise a stored nested sheaf with the contraction's labelled
        flats is read through them, and failing both the contraction at
        flat a is built and memoized."""
        masks = _atom_masks(self.lattice, a)
        shape = FlatMasks(list(masks.values()))
        bucket = _MEMO.get((self.field.characteristic, shape.key), ())
        for stored, sheaf, _ in bucket:
            if sheaf.nested and (any_class or sheaf.settled):
                sigma = find_isomorphism(shape, stored)
                if sigma is not None:
                    fmap = {j: stored.index[_image(m, sigma)] for j, m in masks.items()}
                    return sheaf, fmap, False
        fa = self.flats[a]
        rest = sorted(set(range(self.matroid.n)) - fa)
        relabel = {e: i for i, e in enumerate(rest)}
        labelled = {j: frozenset(relabel[e] for e in self.flats[j] - fa) for j in masks}
        flats = set(labelled.values())
        for _, sheaf, index in bucket:
            if sheaf.nested and index.keys() == flats:
                return sheaf, {j: index[f] for j, f in labelled.items()}, True
        contracted, _ = self.matroid.contract(fa)
        child = MatroidIHSheaf(contracted, self.field)
        _memoize(child, FlatMasks.of(child.lattice))
        index = {f: i for i, f in enumerate(child.flats)}
        return child, {j: index[f] for j, f in labelled.items()}, True

    # -- coordinate layouts -----------------------------------------------------------

    def _proper_coords(self, d):
        """(layout, positions) of the stalks above the bottom: the (flat,
        generator) pairs with generator degree <= d, and each pair's
        coordinate.  Those stalks are fixed before the sweep starts."""
        if d not in self._layouts:
            layout = [
                (j, gi)
                for j in range(1, len(self.flats))
                for gi, gd in enumerate(self.stalk_shapes[j])
                if gd <= d
            ]
            self._layouts[d] = layout, {key: c for c, key in enumerate(layout)}
        return self._layouts[d]

    def proper_layout(self, d):
        return self._proper_coords(d)[0]

    def full_layout(self, d):
        """The bottom stalk's generators of degree <= d, then
        proper_layout(d).  Only read once __init__ has fixed the bottom
        stalk."""
        if d not in self._full_layouts:
            self._full_layouts[d] = [
                (0, gi) for gi, gd in enumerate(self.stalk_shapes[0]) if gd <= d
            ] + self.proper_layout(d)
        return self._full_layouts[d]

    def _shift(self, e, d):
        """Positions in proper_layout(d) of the coordinates of
        proper_layout(e), e <= d: multiplication by h^(d-e), for _scatter."""
        if (e, d) not in self._shifts:
            pos = self._proper_coords(d)[1]
            out = [pos[key] for key in self.proper_layout(e)]
            if self.np_vectors:
                out = self._np.array(out, dtype=self._np.intp)
            self._shifts[e, d] = out
        return self._shifts[e, d]

    def _scatter(self, vec, positions, size):
        """Place vec[i] at positions[i] in a fresh vector of the given
        size; vectorized over GF(p), where vectors are arrays."""
        if self.np_vectors:
            out = self._np.zeros(size, dtype=self._np.int64)
            out[positions] = vec
            return out
        out = [0] * size
        for a, p in zip(vec, positions):
            if a:
                out[p] = a
        return out

    def _stack(self, head, vec):
        """The full-layout vector with bottom stalk block head (a list)
        and proper block vec."""
        if self.np_vectors:
            return self._np.concatenate((self._np.array(head, dtype=self._np.int64), vec))
        return head + vec

    def _dot(self, u, v):
        """The scalar product of two vectors of one layout, reduced mod p
        over GF(p), where vectors are arrays with entries in [0, p)."""
        if self.np_vectors:
            return int(u @ v) % self.field.p
        return sum(map(mul, u, v))

    def _gather_scatter(self, vec, src_positions, dst_positions, size):
        """out[dst[i]] = vec[src[i]], zero elsewhere."""
        if self.np_vectors:
            out = self._np.zeros(size, dtype=self._np.int64)
            out[dst_positions] = vec[src_positions]
            return out
        out = [0] * size
        for s, d in zip(src_positions, dst_positions):
            if vec[s]:
                out[d] = vec[s]
        return out

    # -- the degree sweep ----------------------------------------------------------------

    def proper_basis(self, d):
        """F_d, the sections over L - bottom in degree d: the kernel of the
        children's annihilators, in the echelon form kernel_basis hands
        out.  The sweep reads it once and does not keep it; over GF(p) it
        would be the largest thing a sheaf holds."""
        layout, pos = self._proper_coords(d)
        rows = []
        for a, child, cmap in self.children:
            child._ensure(d)
            positions = [pos[(cmap[cf], gi)] for (cf, gi) in child.full_layout(d)]
            if self.np_vectors:
                positions = self._np.array(positions, dtype=self._np.intp)
            for func in child.annihilator(d):
                rows.append(self._scatter(func, positions, len(layout)))
        return kernel_basis(rows, len(layout), self.field)

    def _ensure(self, d):
        while self._max_degree < d:
            self._extend_one()

    def _extend_one(self):
        d = self._max_degree + 1
        field = self.field
        if self.rank == 0:
            # single flat: sections are the free rank-one module
            self._sect_dims.append(1)
            if d == 0:
                self._z_gens.append(0)
            self._max_degree = d
            return

        layout, pos = self._proper_coords(d)
        size = len(layout)
        fbasis = self.proper_basis(d)

        # span of the y-action images: N_d = h N_{d-1} + sum y_G (lifts of
        # degree d - rk G).  y_G y_H = h^(rk G + rk H - rk(G v H)) y_{G v H},
        # with exponent >= 0 since rank is semimodular, so y_G maps N into
        # N; and F_e lies in h F_{e-1} + N_e + span(lifts of degree e), by
        # the choice of lifts below.  So this is the y-span of every section.
        nspace = RowSpace(field, size)
        if d:
            for v in self._nspace[d - 1].basis():
                nspace.add(self._scatter(v, self._shift(d - 1, d), size))
        for g in range(1, len(self.flats)):
            e = d - self.lattice.rank[g]
            lifts = [v for lift_deg, v in self._lifts if lift_deg == e]
            if not lifts:
                continue
            src_layout = self.proper_layout(e)
            src_positions = []
            dst_positions = []
            for c, (h, gi) in enumerate(src_layout):
                if self.leq(g, h):
                    src_positions.append(c)
                    dst_positions.append(pos[(h, gi)])
            if self.np_vectors:
                src_positions = self._np.array(src_positions, dtype=self._np.intp)
                dst_positions = self._np.array(dst_positions, dtype=self._np.intp)
            for v in lifts:
                nspace.add(
                    self._gather_scatter(v, src_positions, dst_positions, size)
                )
        self._nspace.append(nspace)

        # minimal generators of the boundary quotient in this degree: F_d
        # modulo N_d + h F_{d-1} = N_d + sum_{e<d} h^(d-e) span(lifts of
        # degree e), by induction on e: F_e lies in h F_{e-1} + N_e +
        # span(lifts of degree e) by the choice of lifts below, and h N_{e-1}
        # lies in N_e.  Once F_d is added, big must be no larger than F_d.
        big = nspace.copy()
        for e, v in self._lifts:
            big.add(self._scatter(v, self._shift(e, d), size))
        for v in fbasis:
            if big.add(v) is not None:
                if self.enforce and d >= self.rank:
                    raise DegreeBoundError(self.lattice.names[0], d, self.rank)
                if d == self.rank + 1:
                    raise TruncationBoundError(
                        "boundary generator at the sweep margin; raise the bound"
                    )
                self._bottom_gens.append(d)
                # a copy: over GF(p) v is a view that would keep all of
                # F_d's kernel matrix alive
                self._lifts.append((d, v.copy()))
        if big.dim != len(fbasis):
            raise TruncationBoundError("N_d + h F_{d-1} is not inside the sections F_d")

        n_bottom = sum(1 for g in self._bottom_gens if g <= d)
        self._sect_dims.append(n_bottom + nspace.dim)
        prev = self._sect_dims[d - 1] if d else 0
        gens = self._sect_dims[d] - prev
        if gens < 0:
            raise TruncationBoundError("section dimensions decreased")
        self._z_gens.extend([d] * gens)
        self._max_degree = d

    # -- derived data ---------------------------------------------------------------------

    def kl_polynomial(self) -> UniPoly:
        return FreeModuleShape(self.stalk_shapes[self.bottom]).poincare()

    def z_polynomial(self) -> UniPoly:
        return FreeModuleShape(self._z_gens).poincare()

    def stalk_poincare(self, flat_index) -> UniPoly:
        return FreeModuleShape(self.stalk_shapes[flat_index]).poincare()

    def global_shape(self) -> FreeModuleShape:
        return FreeModuleShape(self._z_gens)

    def section_dims(self, up_to):
        self._ensure(up_to)
        return list(self._sect_dims[: up_to + 1])

    def annihilator(self, d):
        """Functionals on the full layout vanishing exactly on the global
        sections at degree d: -phi . h^(d - deg i) lift_i at each bottom
        generator i of degree <= d, then phi, for each phi in the kernel of
        N_d (module docstring).  They span the annihilator of the sections
        but are not in echelon form; parents read them only through a
        kernel.  A single flat's sections are its whole stalk."""
        if d not in self._annihilators:
            self._ensure(d)
            out = []
            if self.rank:
                size = len(self.proper_layout(d))
                shifted = [
                    self._scatter(v, self._shift(e, d), size) for e, v in self._lifts if e <= d
                ]
                for phi in kernel_basis(self._nspace[d].basis(), size, self.field):
                    head = [self.field.neg(self._dot(phi, s)) for s in shifted]
                    out.append(self._stack(head, phi))
            self._annihilators[d] = out
        return self._annihilators[d]


# -- public operations ------------------------------------------------------------------


def kl_polynomial(matroid: Matroid, field=QQ) -> UniPoly:
    """The Kazhdan-Lusztig polynomial of the matroid: Poincare polynomial
    of the reduced bottom stalk of the sheaf."""
    return matroid_sheaf(matroid, field).kl_polynomial()


def z_polynomial_sheaf(matroid: Matroid, field=QQ) -> UniPoly:
    """The Z-polynomial: Poincare polynomial of the reduced global
    sections of the sheaf."""
    return matroid_sheaf(matroid, field).z_polynomial()


def all_stalk_polynomials(matroid: Matroid, field=QQ):
    """Flat index -> Poincare polynomial of the reduced stalk there."""
    sheaf = matroid_sheaf(matroid, field)
    return {j: sheaf.stalk_poincare(j) for j in range(len(sheaf.flats))}


def shifted_stalk_shape(matroid: Matroid, field=QQ) -> FreeModuleShape:
    """Multiset union over flats F of the stalk shape shifted by rk F; by
    the basis-lifting theorem this equals the global section shape."""
    sheaf = matroid_sheaf(matroid, field)
    degrees = []
    for j, f in enumerate(sheaf.flats):
        shift = sheaf.lattice.rank[j]
        degrees.extend(g + shift for g in sheaf.stalk_shapes[j])
    return FreeModuleShape(degrees)


# -- local model for the generic poset-sheaf engine (validation path) ---------------------


class MatroidLocalModel:
    """Boundary module at a flat F: the quotient of the sections over the
    open interval (F, E] by the images of y_G for all flats G > F.  This
    is the same construction the fast path runs; it exists so the generic
    engine can cross-check it on small matroids."""

    def __init__(self, matroid: Matroid, field=QQ):
        self.matroid = matroid
        self.field = field
        self.lattice = matroid.lattice()
        self.ambient_nvars = 1

    def nvars(self, x):
        return 1

    def ambient_var_form(self, y, a):
        return [self.field.from_int(1)]

    def boundary(self, x, view):
        field = self.field
        L = self.lattice
        bound = view.sheaf.bound
        layouts = [view.layout(d) for d in range(bound + 1)]
        positions = [{key: c for c, key in enumerate(lay)} for lay in layouts]

        def y_image(vec, d, g):
            """y_g acting on a degree-d section vector, landing in degree
            d + (rk g - rk x); the h-exponent of every kept coordinate
            rises by the shift."""
            shift = L.rank[g] - L.rank[x]
            out = [field.zero] * len(layouts[d + shift])
            for c, (h, gi, m) in enumerate(layouts[d]):
                a = vec[c]
                if not field.is_zero(a) and L.leq(g, h):
                    out[positions[d + shift][(h, gi, (m[0] + shift,))]] = a
            return out

        above = [g for g in L.elements() if L.lt(x, g)]
        nspaces = []
        for d in range(bound + 1):
            nspace = RowSpace(field, len(layouts[d]))
            for g in above:
                shift = L.rank[g] - L.rank[x]
                if shift > d:
                    continue
                for v in view.bases[d - shift]:
                    nspace.add(y_image(v, d - shift, g))
            nspaces.append(nspace)

        # quotient coordinates: representatives of F_d modulo the y-span.
        # Together with the basis of N_d they are independent, the columns
        # of the system that to_quotient_coords solves
        reps = []
        columns = []
        for d in range(bound + 1):
            span = nspaces[d].copy()
            basis = []
            for v in view.bases[d]:
                if span.add(v) is not None:
                    basis.append(v)
            reps.append(basis)
            known = nspaces[d].basis() + basis
            columns.append([[v[c] for v in known] for c in range(len(layouts[d]))])

        def to_quotient_coords(vec, d):
            try:
                x = solve_linear(columns[d], vec, field)
            except InconsistentSystemError as exc:
                raise TruncationBoundError("vector escapes the quotient basis") from exc
            return x[nspaces[d].dim :]

        ambient_dims = [len(reps[d]) for d in range(bound + 1)]
        bases = []
        for d in range(bound + 1):
            eye = []
            for c in range(ambient_dims[d]):
                v = [field.zero] * ambient_dims[d]
                v[c] = field.from_int(1)
                eye.append(v)
            bases.append(eye)
        # h acts on the quotient coordinates of each representative
        raising = [[]]
        for d in range(bound):
            h = view.sheaf.raising(view.elems, d, lambda y: [field.from_int(1)])
            cols = []
            for v in reps[d]:
                qc = to_quotient_coords(matvec(h, v, field, len(layouts[d + 1])), d + 1)
                cols.append([(r, a) for r, a in enumerate(qc) if not field.is_zero(a)])
            raising[0].append(cols)
        module = GradedModule(field, 1, bound, ambient_dims, bases, raising)
        # res takes quotient coordinates: its kernel is N_d, and the
        # representatives lift the module's coordinate vectors
        kernel = [nspaces[d].basis() for d in range(bound + 1)]
        rep_cols = [
            [[(c, a) for c, a in enumerate(v) if a] for v in reps[d]] for d in range(bound + 1)
        ]
        return module, kernel, lambda d, v: matvec(rep_cols[d], v, field, len(layouts[d]))


def build_matroid_sheaf_generic(matroid: Matroid, field=QQ):
    """The matroid sheaf via the generic engine; returns (lattice, sheaf).
    Quadratic and unmemoized, for cross-validation on small matroids."""
    from klsc.sheaf import build_sheaf

    lattice = matroid.lattice()
    return lattice, build_sheaf(lattice, MatroidLocalModel(matroid, field))
