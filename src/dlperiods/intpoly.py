"""Dense univariate polynomials over any coefficient ring.

Coefficient lists are tuples starting at the constant term. The zero
polynomial is the empty tuple. Every function takes the coefficient ring
as its last argument: a `FieldOps` for GF(q), a `PrimeField` for the GF(p)
arithmetic that builds the field tower, or nothing for Python's own
int/`Fraction` arithmetic. A ring is any object with `add`, `sub`, `neg`,
`mul` and `inv` methods whose zero and one are the integers 0 and 1.

Used for Green polynomials in q, Kostka polynomials in t, cyclotomic
polynomials, field moduli, characteristic polynomials and their factors.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import zip_longest

Poly = tuple


class _Rationals:
    """int/Fraction arithmetic, the ring used when none is given.

    Inverses of 1 and -1 stay integers, so division by a monic integer
    polynomial stays in the integers.
    """

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    @staticmethod
    def inv(a):
        return a if a in (1, -1) else Fraction(1, a)


_QQ = _Rationals()


def trim(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def add(a: Poly, b: Poly, ring=_QQ) -> Poly:
    plus = ring.add
    return trim(tuple(plus(x, y) for x, y in zip_longest(a, b, fillvalue=0)))


def neg(a: Poly, ring=_QQ) -> Poly:
    minus = ring.neg
    return tuple(minus(x) for x in a)


def sub(a: Poly, b: Poly, ring=_QQ) -> Poly:
    return add(a, neg(b, ring), ring)


def scale(a: Poly, c, ring=_QQ) -> Poly:
    if c == 0:
        return ()
    times = ring.mul
    return tuple(times(c, x) for x in a)


def mul(a: Poly, b: Poly, ring=_QQ) -> Poly:
    if not a or not b:
        return ()
    plus, times = ring.add, ring.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = plus(out[i + j], times(x, y))
    return trim(out)


def monomial(deg: int, c=1) -> Poly:
    return trim((0,) * deg + (c,))


def degree(a: Poly) -> int:
    return len(a) - 1


def evaluate(a: Poly, x, ring=_QQ):
    plus, times = ring.add, ring.mul
    acc = 0
    for c in reversed(a):
        acc = plus(times(acc, x), c)
    return acc


def divmod(a: Poly, b: Poly, ring=_QQ):
    """(quotient, remainder) of a by b; without a ring, the quotient is
    rational unless b's leading coefficient is 1 or -1."""
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    minus, times = ring.sub, ring.mul
    rem = list(trim(a))
    db = len(b) - 1
    inv_lead = 1 if b[-1] == 1 else ring.inv(b[-1])
    quo = [0] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db:
        c = times(rem[-1], inv_lead)
        shift = len(rem) - 1 - db
        quo[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] = minus(rem[shift + i], times(c, y))
        while rem and rem[-1] == 0:
            rem.pop()
    return trim(quo), tuple(rem)


def div_exact(a: Poly, b: Poly, ring=_QQ) -> Poly:
    q, r = divmod(a, b, ring)
    if r:
        raise ValueError(f"inexact polynomial division, remainder {r}")
    return q


def monic(a: Poly, ring=_QQ) -> Poly:
    a = trim(a)
    if not a or a[-1] == 1:
        return a
    return scale(a, ring.inv(a[-1]), ring)


def powmod(a: Poly, e: int, mod: Poly, ring=_QQ) -> Poly:
    """a^e reduced mod `mod`, by repeated squaring."""
    result = (1,)
    base = divmod(a, mod, ring)[1]
    while e:
        if e & 1:
            result = divmod(mul(result, base, ring), mod, ring)[1]
        base = divmod(mul(base, base, ring), mod, ring)[1]
        e >>= 1
    return result


def gcd(a: Poly, b: Poly, ring=_QQ) -> Poly:
    """A greatest common divisor (not normalized) by Euclid's algorithm."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, divmod(a, b, ring)[1]
    return a


def to_int_poly(a: Poly) -> Poly:
    out = []
    for c in a:
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            out.append(c.numerator)
        else:
            out.append(c)
    return trim(out)


def compose_neg(a: Poly) -> Poly:
    """p(q) -> p(-q)."""
    return trim(tuple(c if i % 2 == 0 else -c for i, c in enumerate(a)))
