"""Graded modules over polynomial rings, degreewise, and minimal free covers.

A graded module is stored one half-degree at a time: an ambient coordinate
space, a basis of the realized subspace, and for each ring variable the
degree-raising map on ambient coordinates, kept column-sparse (per source
coordinate, the nonzero (row, coefficient) pairs of its image), since
multiplying by a variable touches only a few monomials; raising a vector
then costs its nonzeros, not the target's dimension.  The one nontrivial
operation is minimal generator extraction: the multiset of degrees in
which the module needs generators, i.e. the shape of its minimal free
cover,

    gens in degree i  =  dim M_i - dim( sum_v  v * M_{i-1} ).

Everything is truncated at a bound D; a generator detected at degree D
means the truncation was too small and is reported as an error rather
than silently accepted.
"""

from __future__ import annotations

from klsc.errors import TruncationBoundError
from klsc.linalg import RowSpace, matvec
from klsc.poly import UniPoly, monomial_space_dim


class FreeModuleShape:
    """Multiset of generator half-degrees of a free graded module."""

    __slots__ = ("degrees",)

    def __init__(self, degrees=()):
        ds = sorted(int(d) for d in degrees)
        if ds and ds[0] < 0:
            raise ValueError("generator degrees must be >= 0")
        object.__setattr__(self, "degrees", tuple(ds))

    def __setattr__(self, *a):
        raise AttributeError("FreeModuleShape is immutable")

    def __eq__(self, other):
        return isinstance(other, FreeModuleShape) and self.degrees == other.degrees

    def __hash__(self):
        return hash(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)

    def __repr__(self):
        return "{" + ",".join(str(d) for d in self.degrees) + "}"

    def poincare(self) -> UniPoly:
        """Sum of t^d over generators; the Poincare polynomial of the
        reduced module (module modulo positive-degree ring action)."""
        if not self.degrees:
            return UniPoly.zero()
        coeffs = [0] * (max(self.degrees) + 1)
        for d in self.degrees:
            coeffs[d] += 1
        return UniPoly(coeffs)

    def shifted(self, k) -> "FreeModuleShape":
        return FreeModuleShape(d + k for d in self.degrees)

    def union(self, other) -> "FreeModuleShape":
        return FreeModuleShape(tuple(self.degrees) + tuple(other.degrees))

    def free_dims(self, nvars, up_to):
        """Degreewise dimensions of the free module on these generators
        over a polynomial ring in nvars variables."""
        return [
            sum(
                monomial_space_dim(nvars, i - d)
                for d in self.degrees
                if d <= i
            )
            for i in range(up_to + 1)
        ]


class GradedModule:
    """A graded module presented degreewise in ambient coordinates.

    Fields
    ------
    field, nvars : the base polynomial ring descriptor
    bound : truncation half-degree D; degrees 0..D are realized
    ambient_dims : list of ambient coordinate dimensions, length D+1
    bases : per degree, a list of basis vectors of the realized subspace
    raising : raising[v][i] is multiplication by variable v from ambient
        degree i to i+1, as ambient_dims[i] sparse columns: raising[v][i][c]
        lists the (r, coefficient) pairs, r < ambient_dims[i+1], with a
        nonzero coefficient of output coordinate r in the image of
        coordinate c
    """

    def __init__(self, field, nvars, bound, ambient_dims, bases, raising):
        self.field = field
        self.nvars = nvars
        self.bound = bound
        self.ambient_dims = list(ambient_dims)
        self.bases = [list(b) for b in bases]
        self.raising = raising

    def dim(self, i):
        if i < 0:
            return 0
        return len(self.bases[i])

    def dims(self):
        return [len(b) for b in self.bases]

    def apply_raising(self, v, i, vec):
        """Multiply the degree-i ambient vector by variable v."""
        return matvec(self.raising[v][i], vec, self.field, self.ambient_dims[i + 1])

    def raised_span(self, i):
        """Span of sum_v v * M_{i-1} inside ambient degree i."""
        space = RowSpace(self.field, self.ambient_dims[i])
        if i == 0:
            return space
        for v in range(self.nvars):
            for b in self.bases[i - 1]:
                space.add(self.apply_raising(v, i - 1, b))
        return space

    def validate(self):
        """Check that every raising map carries the realized degree-i
        subspace into the realized degree-(i+1) subspace."""
        for i in range(self.bound):
            target = RowSpace(self.field, self.ambient_dims[i + 1])
            for b in self.bases[i + 1]:
                target.add(b)
            for v in range(self.nvars):
                for b in self.bases[i]:
                    if not target.contains(self.apply_raising(v, i, b)):
                        return False
        return True


def minimal_generators(module: GradedModule):
    """Minimal generators of the module, as (degree, lift) pairs.

    In each degree i the lifts are the basis vectors of M_i outside
    sum_v v*M_{i-1}, so there are dim M_i/(sum_v v*M_{i-1}) of them.  A
    generator found exactly at the truncation bound makes the answer
    unreliable (higher degrees were never realized), so it raises
    TruncationBoundError.
    """
    gens = []
    for i in range(module.bound + 1):
        space = module.raised_span(i)
        for b in module.bases[i]:
            if space.add(b) is not None:
                if i == module.bound:
                    raise TruncationBoundError(
                        f"minimal generator at truncation bound {module.bound}; raise the bound"
                    )
                gens.append((i, b))
    return gens


def minimal_generator_degrees(module: GradedModule) -> FreeModuleShape:
    """Generator degrees of the minimal free cover of the module."""
    return FreeModuleShape(d for d, _ in minimal_generators(module))


def free_graded_module(field, nvars, shape: FreeModuleShape, bound) -> GradedModule:
    """The free module on the given generators, realized concretely with
    ambient coordinates (generator, monomial)."""
    from klsc.poly import monomials

    gens = list(shape.degrees)
    layout = []  # per degree: list of (gen index, exponent tuple)
    for i in range(bound + 1):
        coords = []
        for gi, d in enumerate(gens):
            if d <= i:
                for m in monomials(nvars, i - d):
                    coords.append((gi, m))
        layout.append(coords)
    index = [{key: pos for pos, key in enumerate(coords)} for coords in layout]
    ambient_dims = [len(c) for c in layout]
    bases = []
    for i in range(bound + 1):
        eye = []
        for pos in range(ambient_dims[i]):
            v = [field.zero] * ambient_dims[i]
            v[pos] = field.from_int(1)
            eye.append(v)
        bases.append(eye)
    # a variable maps each monomial to one monomial: one entry per column
    one = field.from_int(1)
    raising = [
        [
            [
                [(index[i + 1][(gi, m[:var] + (m[var] + 1,) + m[var + 1 :])], one)]
                for gi, m in layout[i]
            ]
            for i in range(bound)
        ]
        for var in range(nvars)
    ]
    return GradedModule(field, nvars, bound, ambient_dims, bases, raising)
