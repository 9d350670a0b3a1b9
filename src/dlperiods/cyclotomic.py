"""Exact cyclotomic numbers: elements of Q(zeta_N) as rational vectors mod Phi_N.

A value carries its conductor; mixed-conductor arithmetic lifts both
operands into Q(zeta_lcm).  Equality and integrality tests are exact;
complex evaluation exists only as a smoke check.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import intpoly
from .errors import SizeCapError

CONDUCTOR_CAP = 10**6


def euler_phi(n: int) -> int:
    out = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            out -= out // d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out -= out // n
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Phi_n as an integer coefficient tuple, via iterated exact division of x^n - 1."""
    if n == 1:
        return (-1, 1)
    num = intpoly.monomial(n, 1)
    num = intpoly.sub(num, (1,))
    for d in range(1, n):
        if n % d == 0:
            num = intpoly.to_int_poly(intpoly.div_exact(num, cyclotomic_polynomial(d)))
    return num


def _reduce_mod_phi(coeffs, n):
    """Reduce a coefficient list (powers of zeta_n) mod Phi_n; returns length-phi(n) tuple."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    _, rem = intpoly.divmod(tuple(coeffs), phi)
    out = [Fraction(0)] * deg
    for i, c in enumerate(rem):
        out[i] = Fraction(c)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Cyclotomic:
    """An element of Q(zeta_N), coefficients w.r.t. 1, zeta, ..., zeta^(phi(N)-1)."""

    N: int
    coeffs: tuple

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(N: int = 1) -> "Cyclotomic":
        return Cyclotomic(N, (Fraction(0),) * euler_phi(N))

    @staticmethod
    def from_rational(x) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(x),))

    @staticmethod
    def zeta_power(N: int, k: int) -> "Cyclotomic":
        if N < 1 or N > CONDUCTOR_CAP:
            raise SizeCapError(f"conductor {N} out of range")
        k %= N
        return Cyclotomic(N, _reduce_mod_phi([0] * k + [1], N))

    # -- conversions ---------------------------------------------------------
    def lift(self, M: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_M), N | M (zeta_N = zeta_M^(M/N))."""
        if M == self.N:
            return self
        if M % self.N:
            raise ValueError(f"{self.N} does not divide {M}")
        if M > CONDUCTOR_CAP:
            raise SizeCapError(f"conductor {M} exceeds cap")
        step = M // self.N
        raw = [Fraction(0)] * (step * max(len(self.coeffs), 1))
        for i, c in enumerate(self.coeffs):
            raw[i * step] = c
        return Cyclotomic(M, _reduce_mod_phi(raw, M))

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        M = self.N * other.N // gcd(self.N, other.N)
        return self.lift(M), other.lift(M)

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.N, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.N, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Cyclotomic) else Cyclotomic.from_rational(-Fraction(other)))

    def __rsub__(self, other):
        return Cyclotomic.from_rational(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.N, tuple(Fraction(other) * c for c in self.coeffs))
        a, b = self._pair(other)
        return Cyclotomic(a.N, _reduce_mod_phi(intpoly.mul(a.coeffs, b.coeffs), a.N))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.N, tuple(c / Fraction(other) for c in self.coeffs))
        raise TypeError("division only by rationals")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def conj(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^(-1)."""
        raw = [Fraction(0)] * self.N
        for i, c in enumerate(self.coeffs):
            raw[(-i) % self.N] += c
        return Cyclotomic(self.N, _reduce_mod_phi(raw, self.N))

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def is_rational_integer(self) -> bool:
        return self.is_rational() and self.rational_value().denominator == 1

    def integer_value(self) -> int:
        v = self.rational_value()
        if v.denominator != 1:
            raise ValueError(f"{self} is not a rational integer")
        return v.numerator

    def to_complex(self) -> complex:
        """Floating approximation; smoke checks only, never authoritative."""
        z = cmath.exp(2j * cmath.pi / self.N)
        return sum(float(c) * z**i for i, c in enumerate(self.coeffs)) if self.coeffs else 0j

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.rational_value()})"
        terms = [f"{c}*z{self.N}^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Cyc(" + " + ".join(terms) + ")"


def cyclo(N: int, k: int) -> Cyclotomic:
    """zeta_N^k reduced mod Phi_N."""
    return Cyclotomic.zeta_power(N, k)


class RootOfUnitySum:
    """Accumulator for sums of c * zeta_N^k with integer weights.

    Keeps an unreduced length-N integer vector; `value()` reduces mod
    Phi_N once.  This is the hot path for character sums.
    """

    __slots__ = ("N", "vec")

    def __init__(self, N: int):
        self.N = N
        self.vec = [0] * N

    def add_root(self, k: int, weight: int = 1):
        self.vec[k % self.N] += weight

    def value(self) -> Cyclotomic:
        return Cyclotomic(self.N, _reduce_mod_phi(self.vec, self.N))
