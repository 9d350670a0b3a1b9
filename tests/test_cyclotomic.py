import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlperiods import intpoly
from dlperiods.cyclotomic import (
    Cyclotomic,
    RootOfUnitySum,
    cyclo,
    cyclotomic_polynomial,
    euler_phi,
)


class TestCyclotomicPolynomial:
    def test_small_values(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_divides_xn_minus_1_and_degree(self):
        # spec invariant for N <= 200
        for n in range(1, 201):
            phi = cyclotomic_polynomial(n)
            assert len(phi) - 1 == euler_phi(n)
            xn1 = intpoly.sub(intpoly.monomial(n), (1,))
            q, r = intpoly.divmod(xn1, phi)
            assert r == ()


class TestRingOps:
    def test_primitive_cube_roots_sum(self):
        assert cyclo(3, 1) + cyclo(3, 2) == -1

    def test_geometric_sum_vanishes(self):
        total = Cyclotomic.zero(5)
        for k in range(5):
            total = total + cyclo(5, k)
        assert total == 0

    def test_power_wraps(self):
        assert cyclo(12, 12) == 1

    def test_cross_conductor_identity(self):
        # zeta_6 = -zeta_3^2
        assert cyclo(6, 1) == -1 * cyclo(3, 2)

    def test_conjugation(self):
        z = cyclo(7, 2)
        assert z.conj() == cyclo(7, 5)
        assert (z * z.conj()) == 1

    def test_rational_detection(self):
        z = cyclo(8, 1)
        assert not z.is_rational()
        assert (z * z.conj()).is_rational_integer()
        assert (cyclo(4, 2)) == -1

    def test_division_by_rational(self):
        z = (cyclo(3, 1) + cyclo(3, 2)) / 2
        assert z == Fraction(-1, 2)
        assert not z.is_rational_integer()

    def test_mixed_scalar_ops(self):
        z = cyclo(5, 1)
        assert (z + 1) - 1 == z
        assert 2 * z == z + z


class TestSmokeComplex:
    def test_agrees_with_complex_evaluation(self):
        # smoke check only: exactness is authoritative
        for n, k in [(3, 1), (5, 2), (8, 3), (12, 7)]:
            z = cyclo(n, k)
            expect = cmath.exp(2j * cmath.pi * k / n)
            assert abs(z.to_complex() - expect) < 1e-9

    def test_sum_matches_complex(self):
        z = cyclo(9, 1) + cyclo(9, 4) - 3
        expect = cmath.exp(2j * cmath.pi / 9) + cmath.exp(8j * cmath.pi / 9) - 3
        assert abs(z.to_complex() - expect) < 1e-9


class TestAccumulator:
    def test_matches_slow_path(self):
        acc = RootOfUnitySum(12)
        slow = Cyclotomic.zero(12)
        for k, w in [(0, 3), (5, -2), (5, 1), (11, 4)]:
            acc.add_root(k, w)
            slow = slow + w * cyclo(12, k)
        assert acc.value() == slow


@given(st.integers(1, 40), st.integers(0, 80), st.integers(0, 80))
@settings(max_examples=80, deadline=None)
def test_root_of_unity_multiplication(n, a, b):
    assert cyclo(n, a) * cyclo(n, b) == cyclo(n, a + b)


@given(st.integers(2, 30))
@settings(max_examples=29, deadline=None)
def test_full_character_sum_is_zero(n):
    total = Cyclotomic.zero(n)
    for k in range(n):
        total = total + cyclo(n, k)
    assert total == 0
