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
    bases : per degree, a list of basis vectors of the realized subspace,
        each a dict of its nonzero entries
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

    def dims(self):
        return [len(b) for b in self.bases]

    def apply_raising(self, v, i, vec):
        """Multiply the degree-i ambient vector by variable v."""
        return matvec(self.raising[v][i], vec, self.field)

    def raised_span(self, i):
        """Span of sum_v v * M_{i-1} inside ambient degree i."""
        space = RowSpace(self.field, self.ambient_dims[i])
        if i == 0:
            return space
        for v in range(self.nvars):
            for b in self.bases[i - 1]:
                space.add(self.apply_raising(v, i - 1, b))
        return space


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
