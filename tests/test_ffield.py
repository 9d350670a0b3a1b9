import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlperiods.errors import SizeCapError, UnsupportedError
from dlperiods.ffield import embedding, make_field, ops_for


def frobenius_fixed(spec, power):
    """Elements of the field fixed by a -> a^power."""
    ops = ops_for(spec)
    return [a for a in range(spec.q) if ops.pow(a, power) == a]


def norm(ops, a, sub_q, deg):
    """a * a^sub_q * ... * a^(sub_q^(deg-1))."""
    out = 1
    for i in range(deg):
        out = ops.mul(out, ops.pow(a, sub_q**i))
    return out


class TestMakeField:
    def test_prime_field_trivial_modulus(self):
        f = make_field(2, 1)
        assert f.modulus == (0, 1)  # x

    def test_gf4_modulus(self):
        # sieve over the 4 monic quadratics over GF(2): only x^2+x+1 is irreducible
        f = make_field(2, 2)
        assert f.modulus == (1, 1, 1)

    def test_gf9_modulus_least(self):
        # x^2+1 is irreducible over GF(3) and precedes x^2+x+2 in the sieve order
        f = make_field(3, 2)
        assert f.modulus == (1, 0, 1)

    def test_nonprime_rejected(self):
        with pytest.raises(UnsupportedError):
            make_field(4, 1)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            make_field(2, 30)


class TestArith:
    def test_char2(self):
        ops = ops_for(make_field(2, 1))
        assert ops.add(1, 1) == 0

    def test_gf4_generator_cubes_to_one(self):
        ops = ops_for(make_field(2, 2))
        g = ops.generator
        assert ops.mul(ops.mul(g, g), g) == 1

    def test_gf9_inverses_exhaustive(self):
        ops = ops_for(make_field(3, 2))
        for a in range(1, 9):
            assert ops.mul(a, ops.inv(a)) == 1

    def test_zero_inversion(self):
        ops = ops_for(make_field(5, 1))
        with pytest.raises(ZeroDivisionError):
            ops.inv(0)


class TestFieldAxiomsExhaustive:
    # spec invariant: for enumerable fields, associativity samples, inverses,
    # and |fixed(frobenius_q)| = q
    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (2, 6)])
    def test_field_axioms(self, p, k):
        f = make_field(p, k)
        ops = ops_for(f)
        es = list(range(f.q))
        sample = es if f.q <= 16 else es[:8] + es[-8:]
        for a in sample:
            for b in sample:
                assert ops.mul(a, b) == ops.mul(b, a)
                assert ops.add(a, b) == ops.add(b, a)
                for c in sample[:4]:
                    assert ops.mul(ops.mul(a, b), c) == ops.mul(a, ops.mul(b, c))
                    assert ops.mul(a, ops.add(b, c)) == ops.add(ops.mul(a, b), ops.mul(a, c))
        for a in es[1:]:
            assert ops.mul(a, ops.inv(a)) == 1

    @pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 2), (2, 6)])
    def test_frobenius_fixed_field_size(self, p, k):
        assert len(frobenius_fixed(make_field(p, k), p)) == p


class TestFrobenius:
    def test_gf4_fixed_set(self):
        assert frobenius_fixed(make_field(2, 2), 2) == [0, 1]

    def test_gf16_over_q4(self):
        assert len(frobenius_fixed(make_field(2, 4), 4)) == 4

    def test_involution_on_quadratic_extension(self):
        ops = ops_for(make_field(3, 2))
        for a in range(9):
            assert ops.pow(ops.pow(a, 3), 3) == a

    def test_is_additive_and_multiplicative(self):
        f = make_field(2, 4)
        ops = ops_for(f)
        for a in range(f.q):
            for b in range(0, f.q, 3):
                fa, fb = ops.pow(a, 2), ops.pow(b, 2)
                assert ops.pow(ops.add(a, b), 2) == ops.add(fa, fb)
                assert ops.pow(ops.mul(a, b), 2) == ops.mul(fa, fb)


class TestNorm:
    def test_two_term_product(self):
        ops = ops_for(make_field(3, 2))
        for a in range(9):
            assert norm(ops, a, 3, 2) == ops.pow(a, 1 + 3)
            assert ops.pow(norm(ops, a, 3, 2), 3) == norm(ops, a, 3, 2)  # lands in GF(3)

    def test_gf4_norm_onto_trivial_group(self):
        ops = ops_for(make_field(2, 2))
        for a in range(1, 4):
            assert norm(ops, a, 2, 2) == 1

    def test_gf9_norm_surjective_fibers(self):
        ops = ops_for(make_field(3, 2))
        from collections import Counter

        images = Counter(norm(ops, a, 3, 2) for a in range(1, 9))
        # GF(9)^x -> GF(3)^x surjective with fibers of size 4
        assert set(images) == {1, 2} and all(v == 4 for v in images.values())


class TestEmbedding:
    def test_embeds_as_subfield(self):
        sub, sup = make_field(2, 2), make_field(2, 4)
        emb = embedding(sub, sup)
        sub_ops, sup_ops = ops_for(sub), ops_for(sup)
        for a in range(sub.q):
            for b in range(sub.q):
                assert emb[sub_ops.mul(a, b)] == sup_ops.mul(emb[a], emb[b])
                assert emb[sub_ops.add(a, b)] == sup_ops.add(emb[a], emb[b])
        assert emb[0] == 0 and emb[1] == 1
        assert len(set(emb)) == sub.q

    def test_image_is_frobenius_fixed_subfield(self):
        sub, sup = make_field(3, 1), make_field(3, 2)
        emb = embedding(sub, sup)
        sup_ops = ops_for(sup)
        assert set(emb) == {a for a in range(sup.q) if sup_ops.pow(a, 3) == a}

    def test_no_embedding(self):
        with pytest.raises(UnsupportedError):
            embedding(make_field(2, 2), make_field(2, 3))


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_gf9_ring_axioms_hypothesis(a, b, c):
    ops = ops_for(make_field(3, 2))
    assert ops.mul(a, ops.add(b, c)) == ops.add(ops.mul(a, b), ops.mul(a, c))
    assert ops.add(a, ops.neg(a)) == 0
