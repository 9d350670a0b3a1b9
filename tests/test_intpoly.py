"""intpoly over its coefficient rings, checked against sympy as an independent oracle.

sympy is a test-only dependency; the library never imports it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlperiods import intpoly
from dlperiods.cyclotomic import cyclotomic_polynomial
from dlperiods.ffield import is_prime, make_field, ops_for
from dlperiods.matrixops import charpoly, factor_poly, is_invertible

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def from_sympy(poly, p=None):
    """sympy Poly -> intpoly tuple, constant term first, residues mod p if given."""
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    return intpoly.trim(c % p for c in coeffs) if p else intpoly.trim(coeffs)


def to_sympy(coeffs, p):
    return sympy.Poly(list(reversed(coeffs)), X, modulus=p)


def test_cyclotomic_polynomials_match_sympy():
    for n in range(1, 61):
        assert cyclotomic_polynomial(n) == from_sympy(sympy.Poly(sympy.cyclotomic_poly(n, X), X)), n


def test_field_moduli_are_the_least_irreducibles():
    fields = [(p, k) for p in range(2, 730) if is_prime(p) for k in range(1, 10) if p**k <= 729]
    for p, k in fields:
        mod = make_field(p, k).modulus
        assert len(mod) == k + 1 and mod[-1] == 1
        assert to_sympy(mod, p).is_irreducible, (p, k)
        code = sum(c * p**i for i, c in enumerate(mod[:-1]))
        for smaller in range(code):
            digits = [(smaller // p**i) % p for i in range(k)]
            assert not to_sympy(digits + [1], p).is_irreducible, (p, k, digits)


def random_invertible(ops, n, rng):
    while True:
        m = tuple(tuple(rng.randrange(ops.q) for _ in range(n)) for _ in range(n))
        if is_invertible(ops, m):
            return m


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_poly_matches_sympy_on_charpolys(p):
    ops = ops_for(make_field(p, 1))
    rng = random.Random(p)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            cp = charpoly(ops, random_invertible(ops, n, rng))
            _, factors = to_sympy(cp, p).factor_list()
            expected = sorted((intpoly.monic(from_sympy(f, p), ops), m) for f, m in factors)
            assert factor_poly(ops, cp) == expected, cp


GF9 = ops_for(make_field(3, 2))
gf9_polys = st.lists(st.integers(0, 8), max_size=7).map(intpoly.trim)


@given(gf9_polys, gf9_polys.filter(bool))
@settings(max_examples=200, deadline=None)
def test_gf9_division_round_trip(a, b):
    quo, rem = intpoly.divmod(a, b, GF9)
    assert len(rem) < len(b)
    assert intpoly.add(intpoly.mul(quo, b, GF9), rem, GF9) == a
