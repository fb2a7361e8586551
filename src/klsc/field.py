"""Exact scalar fields: the rationals and prime fields GF(p).

Every computation in this package runs over one of these two fields; there
is no floating point anywhere.  Rational scalars use gmpy2.mpq when
available and fractions.Fraction otherwise; QQ elimination (klsc.linalg)
runs on primitive integer rows of Python ints with either backend.

A field is a small stateless object exposing the arithmetic the linear
algebra layer needs.  Elements are plain Python objects; klsc.linalg
says which vector type holds them in each field.  Over GF(p) they are
ints in [0, p); GF(p) is supported for primes p < 2^25.  Over QQ an
integral element is a Python int (QQ.zero is 0, QQ.from_int is
operator.index, and QQ.div, QQ.inv and QQ.parse return an int whenever
the exact value is integral) and any other is an mpq/Fraction.  Ints
are closed under add, sub, mul and neg, so integral work builds no
rational at all, and QQ elimination (klsc.linalg) takes its all-int fast
path on it.

QQ.one alone is the backend's rational 1, so that type(QQ.one) names the
installed backend (perfbench/run.py records it, and perfbench/compare.py
refuses to compare runs on different backends).  Code that builds
elements therefore takes the unit as field.from_int(1), which is the int
1 over QQ and over GF(p) alike, and never reads field.one.
"""

from __future__ import annotations

import operator

try:
    from gmpy2 import mpq as _mpq

    _HAVE_GMPY2 = True
except ImportError:  # gmpy2 is an optional extra (klsc[gmpy2])
    from fractions import Fraction as _mpq

    _HAVE_GMPY2 = False

from klsc.errors import InvalidInputError


def read_int(value):
    """An integer read from input; floats, strings and booleans are
    refused, where int() would silently coerce them."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _exact(q):
    """The rational q as a Python int if it is integral, else q itself;
    reads only numerator and denominator, so either backend works."""
    return int(q.numerator) if q.denominator == 1 else q


class Rationals:
    """The field of rational numbers with exact arbitrary-precision arithmetic."""

    characteristic = 0
    name = "QQ"

    zero = 0
    one = _mpq(1)  # not the int: its type names the backend (module docstring)

    def __repr__(self):
        return "QQ"

    def from_int(self, n):
        return operator.index(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        # _mpq(a) keeps the quotient exact when a and b are both ints
        return _exact(_mpq(a) / b)

    def neg(self, a):
        return -a

    def inv(self, a):
        return _exact(1 / _mpq(a))

    def is_zero(self, a):
        return not a

    def parse(self, s):
        """Parse "p/q" or "p" (also accepts ints, but not booleans, which
        read_int refuses too)."""
        if isinstance(s, int) and not isinstance(s, bool):
            return int(s)
        if isinstance(s, str):
            s = s.strip()
            if "/" in s:
                num, den = s.split("/")
                den = int(den)
                if den == 0:
                    raise InvalidInputError("rational with zero denominator")
                return _exact(_mpq(int(num), den))
            return int(s)
        raise InvalidInputError(f"cannot parse rational from {s!r}")


# GF(p) elimination sums int64 products below (p-1)^2, so p is capped well
# below 2^32; the cap also bounds the trial division in _is_prime.
MAX_CHARACTERISTIC = 2**25


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field GF(p) for a prime p; elements are ints in [0, p)."""

    name = "GF"

    def __init__(self, p):
        if p >= MAX_CHARACTERISTIC:
            raise InvalidInputError(
                f"characteristic {p} is not supported; primes p < 2^25 are"
            )
        if not _is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"GF({self.p})"

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        return (a * pow(int(b), self.p - 2, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(int(a), self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, s):
        return int(s) % self.p


QQ = Rationals()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The prime field with p elements (cached per p)."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
