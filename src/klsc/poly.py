"""Univariate integer polynomials and sparse multivariate polynomials.

UniPoly is the carrier of every KLS-type polynomial in the package
(kernel entries, KL/g/Z-polynomials, Poincare polynomials of graded
modules).  Coefficients are plain Python ints; the coefficient of t^i
sits at index i and trailing zeros are trimmed.  The degree of the zero
polynomial is the distinguished marker float("-inf").

MultiPoly is a sparse multivariate polynomial over an exact field, used
for polynomial rings acting on graded modules (conewise polynomials on
fans, structure rings of moment graphs).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

NEG_INF = float("-inf")


class UniPoly:
    """Integer polynomial in one variable t, immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero():
        return UniPoly(())

    @staticmethod
    def one():
        return UniPoly((1,))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(tuple(self[i] + other[i] for i in range(n)))

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(tuple(self[i] - other[i] for i in range(n)))

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly(tuple(other * c for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return UniPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(tuple(out))

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t^k."""
        if not self.coeffs:
            return self
        return UniPoly((0,) * k + self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- reversal and comparisons ----------------------------------------------

    def reverse(self, r):
        """t^r * f(1/t), as a polynomial; requires deg f <= r."""
        if self.degree > r:
            raise ValueError(f"degree {self.degree} exceeds reversal index {r}")
        return UniPoly(tuple(self[r - i] for i in range(r + 1)))

    def reverse_check(self, r):
        """Whether t^r * f(1/t) = f(t) as polynomials (palindromic of degree r)."""
        if self.degree > r:
            return False
        return self.reverse(r) == self

    def is_nonnegative(self):
        return all(c >= 0 for c in self.coeffs)

    def dominates(self, other):
        """Coefficientwise self >= other."""
        return (self - other).is_nonnegative()

    # -- serialization -----------------------------------------------------------

    def coeff_list(self):
        """JSON-style coefficient array, lowest degree first."""
        return list(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    terms.append(t)
                elif c == -1:
                    terms.append(f"-{t}")
                else:
                    terms.append(f"{c}*{t}")
        return " + ".join(terms).replace("+ -", "- ")


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int):
    """All exponent tuples of the given total degree, in a fixed
    deterministic (lexicographic) order.  Degree 0 in 0 variables is the
    empty product; positive degree in 0 variables has none."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort()
    return tuple(out)


def monomial_space_dim(d: int, i: int) -> int:
    """Dimension C(d+i-1, i) of the degree-i part of a polynomial ring in
    d variables."""
    if d < 0 or i < 0:
        raise ValueError("negative arguments")
    if i == 0:
        return 1
    if d == 0:
        return 0
    num = 1
    den = 1
    for k in range(i):
        num *= d + i - 1 - k
        den *= k + 1
    return num // den


class MultiPoly:
    """Sparse multivariate polynomial over an exact field."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        t = {}
        if terms:
            for e, c in terms.items():
                if not field.is_zero(c):
                    t[tuple(e)] = c
        self.terms = t

    @staticmethod
    def zero(field, nvars):
        return MultiPoly(field, nvars)

    @staticmethod
    def const(field, nvars, c):
        return MultiPoly(field, nvars, {(0,) * nvars: c})

    @staticmethod
    def linear_form(field, coeffs):
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if not field.is_zero(c):
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return MultiPoly(field, n, terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(out.get(e, f.zero), c)
            if f.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(f, self.nvars, out)

    def __sub__(self, other):
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.sub(out.get(e, f.zero), c)
            if f.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(f, self.nvars, out)

    def __neg__(self):
        f = self.field
        return MultiPoly(f, self.nvars, {e: f.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        f = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(out.get(e, f.zero), f.mul(c1, c2))
                if f.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(f, self.nvars, out)

    def substitute_linear(self, matrix, new_nvars):
        """Compose with the linear map x_i -> sum_j matrix[i][j] u_j.

        matrix has self.nvars rows, each of length new_nvars.
        """
        f = self.field
        forms = [MultiPoly.linear_form(f, row) for row in matrix]
        powers = [{0: MultiPoly.const(f, new_nvars, f.from_int(1))} for _ in range(self.nvars)]

        def power(i, k):
            cache = powers[i]
            if k not in cache:
                cache[k] = power(i, k - 1) * forms[i]
            return cache[k]

        out = MultiPoly.zero(f, new_nvars)
        for e, c in self.terms.items():
            term = MultiPoly.const(f, new_nvars, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mon = "*".join(
                f"x{i}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            parts.append(f"{c}" + (f"*{mon}" if mon else ""))
        return " + ".join(parts)
