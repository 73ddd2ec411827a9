"""Exact coefficient fields: the rationals and prime fields F_p.

Coefficients are plain Python values (sympy's PythonMPQ for QQ, ints in
[0, p) for F_p); the field objects only bundle the arithmetic, so polynomial
code stays agnostic.  In both fields a coefficient is zero exactly when it
is falsy, so hot loops test `if c`.  Field objects are immutable and
compare by value.

The vector engine of groebner.py computes in a working domain that each
field supplies through four methods: `integral` and `primitive` bring a
term tuple in, `cancel` gives the two multipliers of one reduction step,
and `monic` brings a reduced vector out.  Over QQ the working domain is
the integers: a vector is scaled to coprime integers, a step cancels the
head c*m against a head lc as (lc/g)*work - (c/g)*t*reducer with
g = gcd(c, lc), and a rational is built only by `monic`.  Every step
multiplies by nonzero constants, which change no span and no leading
term, and the reduced basis is the unique monic one, so the answer is the
one that rational arithmetic gives, while each coefficient operation is
an int operation (Geddes, Czapor & Labahn, Algorithms for Computer
Algebra, 1992, ch. 10).  Over F_p the working domain is the field:
nothing is scaled, and `cancel` is (1, c/lc).

PythonMPQ is named here rather than taken from sympy's ground-type switch,
so the coefficient type, and every answer, is the same whether or not gmpy2
is installed.  This is the one module that names a rational type: `coerce`
also takes a fractions.Fraction and converts it, since MPQ and Fraction
values do not mix in arithmetic.

The number theory of F_p comes from sympy.ntheory: `isprime` certifies p
below _MR_BOUND (how exactly is said there), and `sqrt_mod` gives square
roots, returning None exactly at the non-residues.
"""

import math
import operator
from fractions import Fraction

from sympy.external.pythonmpq import PythonMPQ
from sympy.ntheory import isprime, sqrt_mod

from .errors import EngineError


class RationalField:
    name = "QQ"
    characteristic = 0

    zero = PythonMPQ(0)
    one = PythonMPQ(1)

    def coerce(self, v):
        if isinstance(v, PythonMPQ):
            return v
        if isinstance(v, int):
            return PythonMPQ(int(v))  # int() turns a bool into 0 or 1
        if isinstance(v, Fraction):
            return PythonMPQ(v.numerator, v.denominator)
        raise EngineError(f"cannot coerce {v!r} into QQ")

    # the C operators themselves: no Python frame per coefficient operation
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def div(self, a, b):
        # truthiness, not == 0: comparing an MPQ with an int converts the int
        if not b:
            raise ZeroDivisionError("division by zero in QQ")
        return a / b

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverting zero in QQ")
        return 1 / a

    def fraction(self, num, den):
        if den == 0:
            raise EngineError("zero denominator in coefficient")
        return PythonMPQ(num, den)

    def sqrt(self, a):
        """A square root of a in QQ, or None: a = n/d in lowest terms is a
        square exactly when n and d are."""
        n, d = a.numerator, a.denominator
        if n < 0:
            return None
        rn, rd = math.isqrt(n), math.isqrt(d)
        return PythonMPQ(rn, rd) if rn * rn == n and rd * rd == d else None

    def is_negative(self, a):
        return a.numerator < 0

    def abs(self, a):
        return -a if a.numerator < 0 else a

    # the working domain of groebner's vector engine: the integers

    def integral(self, v):
        """(d, d*v) for a term tuple v, d the lcm of its denominators, so
        d*v has int coefficients.  Ints are taken as they are."""
        d = math.lcm(*(c.denominator for _, c in v))
        return d, tuple((m, c.numerator * (d // c.denominator)) for m, c in v)

    def primitive(self, w):
        """w, with int coefficients, divided by their gcd, signed so that
        its head is positive."""
        g = math.gcd(*(c for _, c in w))
        if w and w[0][1] < 0:
            g = -g
        return w if g in (0, 1) else tuple((m, c // g) for m, c in w)

    def cancel(self, c, lc):
        """(a, b) with a*c == b*lc, in lowest terms: a*work - b*t*reducer
        cancels work's head c*m against t times a reducer's head lc."""
        g = math.gcd(c, lc)
        return lc // g, c // g

    def monic(self, w):
        """The rational vector w / (w's head coefficient)."""
        lc = w[0][1]
        return tuple((m, self.fraction(c, lc)) for m, c in w)

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


# Below _MR_BOUND sympy's isprime is exact and deterministic: trial
# division, then Miller-Rabin with a base set proved sufficient on each
# range, these thirteen bases at the top of it (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", 2017).  With gmpy2 installed it runs
# BPSW in their place, proved exact below 2^64 and with no known
# counterexample above.  At or above the bound only a multiple of a base is
# decided (composite); any other n raises.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    if n >= _MR_BOUND and all(n % b for b in _MR_BASES):
        raise EngineError(f"cannot certify primality of {n}: above {_MR_BOUND}")
    return isprime(n)


class PrimeField:
    def __init__(self, p):
        if isinstance(p, bool) or not isinstance(p, int):
            raise EngineError(f"the characteristic must be an int, not {p!r}")
        if not _is_prime(p):
            raise EngineError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp({p})"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, v):
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, (PythonMPQ, Fraction)):
            return self.fraction(v.numerator, v.denominator)
        raise EngineError(f"cannot coerce {v!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverting zero in {self.name}")
        return pow(a, self.p - 2, self.p)

    def fraction(self, num, den):
        if den % self.p == 0:
            raise EngineError("zero denominator in coefficient")
        return self.div(num % self.p, den % self.p)

    def sqrt(self, a):
        """A square root of a in F_p, or None when a is not a square."""
        return sqrt_mod(a, self.p)

    def is_negative(self, a):
        # canonical representatives live in [0, p); nothing prints as negative
        return False

    def abs(self, a):
        return a

    # the working domain of groebner's vector engine: the field itself

    def integral(self, v):
        return 1, v

    def primitive(self, w):
        return w

    def cancel(self, c, lc):
        return 1, self.div(c, lc)

    def monic(self, w):
        if w[0][1] == 1:
            return w
        inv = self.inv(w[0][1])
        return tuple((m, c * inv % self.p) for m, c in w)

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def field_from_name(name):
    """Parse 'QQ' or 'Fp:7' / 'Fp(7)' into a field object."""
    text = name.strip()
    if text == "QQ":
        return QQ
    for prefix, suffix in (("Fp:", ""), ("Fp(", ")"), ("GF(", ")")):
        if text.startswith(prefix) and text.endswith(suffix) and len(text) > len(prefix) + len(suffix):
            body = text[len(prefix):len(text) - len(suffix)] if suffix else text[len(prefix):]
            if body.isdigit():
                return GF(int(body))
    raise EngineError(f"unknown field {name!r} (expected QQ or Fp:<p>)")
