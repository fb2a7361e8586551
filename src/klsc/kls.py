"""Kernels on ranked posets and the KLS recursion.

A kernel on a ranked poset P assigns to every pair x <= y a polynomial
kappa_xy(t) such that

* kappa_xx = 1,
* deg kappa_xy <= r_xy := rk(y) - rk(x),
* sum over x <= y <= z of t^{r_xy} kappa_xy(1/t) kappa_yz(t) = 0
  for every x < z.

Given a kernel there is a unique family f_xy(t) with f_xx = 1,
deg f_xy < r_xy / 2, and

    t^{r_xz} f_xz(1/t) = sum over x <= y <= z of kappa_xy(t) f_yz(t).

The solver reads the coefficients of f_xz off the top half of the right
side and then asserts the full identity, which is both the uniqueness
argument and a consistency check on the kernel.  Since f_xz depends only
on the f_yz with y in [x, z], each column z is closed: solve_kls solves
and asserts either every comparable pair, or only the pairs (x, top) of
one column when the caller reads nothing else (the CLI's route
comparisons and `fan ih`).

Three kernel families are provided: (t-1)^r on Eulerian posets,
characteristic polynomials of intervals on geometric lattices, and
R-polynomials on Bruhat intervals of Coxeter groups.
"""

from __future__ import annotations

from klsc.errors import (
    InvalidKernelError,
    InvalidInputError,
    NonEulerianError,
    NotGeometricError,
)
from klsc.poly import UniPoly
from klsc.poset import RankedPoset


class Kernel:
    """A candidate P-kernel: a table (x, y) -> UniPoly over comparable pairs.

    Pairs (x, x) are implicitly 1 and need not be stored.
    """

    def __init__(self, poset: RankedPoset, table, name="kernel"):
        self.poset = poset
        self.name = name
        self.table = {}
        one = UniPoly.one()
        for x in poset.elements():
            self.table[(x, x)] = one
        for (x, y), f in table.items():
            if not poset.leq(x, y):
                raise InvalidInputError("kernel table entry on incomparable pair")
            self.table[(x, y)] = f

    def r(self, x, y):
        return self.poset.rank[y] - self.poset.rank[x]

    def __getitem__(self, pair):
        return self.table[pair]

    def pairs(self):
        """All comparable pairs (x, y), x <= y."""
        P = self.poset
        for x in P.elements():
            for y in RankedPoset._bits(P.up[x]):
                yield (x, y)


def verify_kernel(kernel: Kernel):
    """Check the three kernel axioms.  Returns (True, None) or
    (False, description of the first violation)."""
    P = kernel.poset
    one = UniPoly.one()
    for x in P.elements():
        if kernel.table.get((x, x), one) != one:
            return False, ("normalization", x, x)
    for (x, y) in kernel.pairs():
        f = kernel.table.get((x, y))
        if f is None:
            return False, ("missing entry", x, y)
        if f.degree != float("-inf") and f.degree > kernel.r(x, y):
            return False, ("degree", x, y)
    for x in P.elements():
        for z in RankedPoset._bits(P.up[x] & ~(1 << x)):
            total = UniPoly.zero()
            for y in P._bits(P.interval_mask(x, z)):
                kxy = kernel.table[(x, y)]
                kyz = kernel.table[(y, z)]
                total = total + kxy.reverse(kernel.r(x, y)) * kyz
            if not total.is_zero():
                return False, ("inversion", x, z)
    return True, None


class KLSTable:
    """The solved family f_xy(t) attached to a kernel."""

    def __init__(self, poset: RankedPoset, table, kernel_name="kernel"):
        self.poset = poset
        self.table = table
        self.kernel_name = kernel_name

    def __getitem__(self, pair):
        return self.table[pair]

    def pairs(self):
        return self.table.keys()


def solve_kls(kernel: Kernel, top=None) -> KLSTable:
    """The unique KLS family of the kernel, or one column of it.

    f_xz depends only on the f_yz with y in [x, z], so each column z is
    solved on its own, from its top down.  With top=None every comparable
    pair is solved; with an element top, only the pairs (x, top) with
    x <= top, and the table holds exactly those.  For each solved pair,
    g := sum over x < y <= z of kappa_xy f_yz must equal t^r f_xz(1/t) -
    f_xz; the top coefficients of g determine f_xz and the rest of the
    identity is asserted.  An assertion failure means the table was not a
    kernel (or the recursion has no solution).
    """
    P = kernel.poset
    one = UniPoly.one()
    f = {}
    order = sorted(P.elements(), key=lambda x: (-P.rank[x], x))
    columns = P.elements() if top is None else (top,)
    for z in columns:
        f[(z, z)] = one
    for z in columns:
        for x in order:
            if x == z or not P.leq(x, z):
                continue
            r = kernel.r(x, z)
            g = UniPoly.zero()
            for y in P._bits(P.interval_mask(x, z) & ~(1 << x)):
                g = g + kernel.table[(x, y)] * f[(y, z)]
            # deg f < r/2 means top coefficient index i <= ceil(r/2) - 1
            half = (r + 1) // 2
            coeffs = [g[r - i] for i in range(half)]
            fxz = UniPoly(coeffs)
            if fxz.reverse(r) - fxz != g:
                raise InvalidKernelError(
                    f"KLS consistency failed at pair "
                    f"({P.names[x]}, {P.names[z]}); not a valid kernel"
                )
            f[(x, z)] = fxz
    return KLSTable(P, f, kernel_name=kernel.name)


def z_polynomial(table: KLSTable, x, z) -> UniPoly:
    """Z_xz(t) = sum over x <= y <= z of t^{r_xy} f_yz(t)."""
    P = table.poset
    if not P.leq(x, z):
        raise InvalidInputError(f"{P.names[x]} is not <= {P.names[z]}")
    total = UniPoly.zero()
    for y in P._bits(P.interval_mask(x, z)):
        total = total + table[(y, z)].shift(P.rank[y] - P.rank[x])
    return total


# -- the three kernel families ------------------------------------------------


def eulerian_kernel(poset: RankedPoset) -> Kernel:
    """kappa_xy = (t-1)^{r_xy}; a kernel precisely when the poset is Eulerian."""
    if not poset.is_eulerian():
        raise NonEulerianError("eulerian_kernel requires an Eulerian poset")
    tm1 = UniPoly((-1, 1))
    powers = [UniPoly.one()]
    for _ in range(poset.rank_span()):
        powers.append(powers[-1] * tm1)
    table = {}
    for x in poset.elements():
        for y in RankedPoset._bits(poset.up[x] & ~(1 << x)):
            table[(x, y)] = powers[poset.rank[y] - poset.rank[x]]
    return Kernel(poset, table, name="eulerian")


def matroid_kernel(lattice: RankedPoset) -> Kernel:
    """kappa_FG = characteristic polynomial of the interval [F, G], on a
    geometric lattice."""
    if not lattice.is_geometric_lattice():
        raise NotGeometricError("matroid_kernel requires a geometric lattice")
    table = {}
    for x in lattice.elements():
        for y in RankedPoset._bits(lattice.up[x] & ~(1 << x)):
            table[(x, y)] = lattice.characteristic_polynomial(x, y)
    return Kernel(lattice, table, name="matroid")


def coxeter_R_kernel(interval) -> Kernel:
    """R-polynomials of a Bruhat interval, as a kernel on the interval poset.

    interval is a coxeter.BruhatInterval; the R-polynomial table comes from
    the standard Hecke-algebra recursion (see coxeter.r_polynomial).
    """
    from klsc.coxeter import r_polynomial

    P = interval.poset
    table = {}
    for i, x in enumerate(interval.elements):
        for j in RankedPoset._bits(P.up[i] & ~(1 << i)):
            table[(i, j)] = r_polynomial(interval.group, x, interval.elements[j])
    return Kernel(P, table, name="coxeter-R")


# -- inequality scans -----------------------------------------------------------


def monotonicity_check(table: KLSTable):
    """Whenever x <= y <= z, f_xz - f_yz has non-negative coefficients:
    the polynomial grows as the lower index moves down.  (Surjectivity of
    the stalk maps M_x -> M_y is what forces this direction.)  Returns
    (ok, first violating triple or None)."""
    P = table.poset
    for x in P.elements():
        for z in RankedPoset._bits(P.up[x]):
            for y in P._bits(P.interval_mask(x, z)):
                if not table[(x, z)].dominates(table[(y, z)]):
                    return False, (x, y, z)
    return True, None


def kalai_check(table: KLSTable):
    """On a cone face poset (bottom = the cone, top = the origin): check
    f_{sigma,0} >= f_{sigma,tau} * f_{tau,0} coefficientwise for every face
    tau.  Returns (ok, first violating face or None)."""
    P = table.poset
    sigma = P.bottom()
    zero = P.top()
    if sigma is None or zero is None:
        raise InvalidInputError("kalai_check needs a bounded poset")
    target = table[(sigma, zero)]
    for tau in P.elements():
        prod = table[(sigma, tau)] * table[(tau, zero)]
        if not target.dominates(prod):
            return False, tau
    return True, None
