"""Exact scalar fields: the rationals and prime fields GF(p).

Every computation in this package runs over one of these two fields; there
is no floating point anywhere.  Rational scalars use gmpy2.mpq when
available and fractions.Fraction otherwise; QQ elimination (klsc.linalg)
runs on primitive integer rows of Python ints with either backend.

A field is a small stateless object exposing the arithmetic the linear
algebra layer needs.  Elements are plain Python objects (mpq/Fraction or
Python ints for QQ, ints in [0, p) for GF(p)), so vectors are ordinary
lists; QQ.div and QQ.inv stay exact on ints.  GF(p) is supported for
primes p < 2^25.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as _mpq

    _HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as _mpq

    _HAVE_GMPY2 = False

from klsc.errors import InvalidInputError


class Rationals:
    """The field of rational numbers with exact arbitrary-precision arithmetic."""

    characteristic = 0
    name = "QQ"

    def __init__(self):
        self.zero = _mpq(0)
        self.one = _mpq(1)

    def __repr__(self):
        return "QQ"

    def from_int(self, n):
        return _mpq(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        # _mpq(a) keeps the quotient exact when a and b are both ints
        return _mpq(a) / b

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.one / a

    def is_zero(self, a):
        return not a

    def eq(self, a, b):
        return a == b

    def as_int(self, a):
        """Return a as a Python int; raises if a is not integral."""
        num, den = a.numerator, a.denominator
        if den != 1:
            raise ValueError(f"{a} is not an integer")
        return int(num)

    def to_str(self, a):
        """Serialize in canonical lowest terms "p/q" (q > 0), or "p" if integral."""
        num, den = a.numerator, a.denominator
        if den == 1:
            return str(num)
        return f"{num}/{den}"

    def parse(self, s):
        """Parse "p/q" or "p" (also accepts ints)."""
        if isinstance(s, int):
            return _mpq(s)
        if isinstance(s, str):
            s = s.strip()
            if "/" in s:
                num, den = s.split("/")
                den = int(den)
                if den == 0:
                    raise InvalidInputError("rational with zero denominator")
                return _mpq(int(num), den)
            return _mpq(int(s))
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

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def as_int(self, a):
        return a % self.p

    def to_str(self, a):
        return str(a % self.p)

    def parse(self, s):
        return int(s) % self.p


QQ = Rationals()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The prime field with p elements (cached per p)."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
