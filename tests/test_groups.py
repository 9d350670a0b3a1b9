import random

import pytest

from dlperiods.errors import SizeCapError
from dlperiods.groups import (
    GroupSpec,
    ProductGroup,
    ProductSpec,
    centralizer_type,
    group,
    group_order,
)
from dlperiods.oracles import centralizer, conjugate_into, nset


def G(family, n, q):
    return group(GroupSpec(family, n, q))


class TestOrders:
    def test_closed_form_values(self):
        assert group_order(GroupSpec("GL", 2, 2)) == 6
        assert group_order(GroupSpec("U", 2, 2)) == 18
        assert group_order(GroupSpec("GL", 3, 3)) == 11232
        assert group_order(GroupSpec("U", 4, 2)) == 77760
        assert group_order(GroupSpec("GL", 1, 7)) == 6
        for q in (2, 3, 4, 5):
            assert group_order(GroupSpec("U", 1, q)) == q + 1

    @pytest.mark.parametrize(
        "family,n,q",
        [("GL", 1, 2), ("GL", 2, 2), ("GL", 2, 3), ("GL", 3, 2), ("U", 1, 2), ("U", 1, 3), ("U", 2, 2), ("U", 2, 3), ("U", 3, 2)],
    )
    def test_enumeration_matches_formula(self, family, n, q):
        g = G(family, n, q)
        assert len(g.elements()) == group_order(g.spec)
        assert len({g.key(x) for x in g.elements()}) == g.order()

    def test_u4_f2_enumeration(self):
        g = G("U", 4, 2)
        assert len(g.elements()) == 77760

    def test_cap_refusal(self):
        with pytest.raises(SizeCapError):
            G("GL", 4, 5).elements()


class TestGroupLaws:
    @pytest.mark.parametrize("family,n,q", [("GL", 2, 3), ("U", 2, 2), ("U", 3, 2)])
    def test_closure_and_inverses(self, family, n, q):
        g = G(family, n, q)
        els = g.elements()
        idx = g.index()
        rng = random.Random(7)
        trials = min(10_000, len(els) ** 2)
        for _ in range(trials // 10):
            a, b = rng.choice(els), rng.choice(els)
            assert g.key(g.mul(a, b)) in idx
            assert g.key(g.inv(a)) in idx
            assert g.mul(a, g.inv(a)) == g.identity

    @pytest.mark.parametrize("family,n,q", [("GL", 2, 2), ("GL", 2, 3), ("U", 2, 2), ("U", 2, 3)])
    def test_frobenius_fixes_rational_points(self, family, n, q):
        g = G(family, n, q)
        for x in g.elements():
            assert g.frobenius(x) == x
            assert g.is_rational(x)

    def test_frobenius_is_homomorphism(self):
        g = G("U", 2, 3)
        els = g.elements()
        rng = random.Random(3)
        for _ in range(200):
            a, b = rng.choice(els), rng.choice(els)
            assert g.frobenius(g.mul(a, b)) == g.mul(g.frobenius(a), g.frobenius(b))


class TestJordan:
    def test_unipotent_input(self):
        g = G("GL", 2, 3)
        u = ((1, 1), (0, 1))
        s, uu = g.jordan(u)
        assert s == g.identity and uu == u

    def test_semisimple_input(self):
        g = G("GL", 2, 3)
        t = ((2, 0), (0, 1))
        s, u = g.jordan(t)
        assert s == t and u == g.identity

    def test_spec_example_order_six(self):
        # g = -I * [[1,1],[0,1]] in GL_2(F_3): s = -I, u = [[1,1],[0,1]] via e = 3
        g = G("GL", 2, 3)
        elt = ((2, 2), (0, 2))
        assert g.element_order(elt) == 6
        s, u = g.jordan(elt)
        assert s == ((2, 0), (0, 2))
        assert u == ((1, 1), (0, 1))

    @pytest.mark.parametrize("family,q", [("GL", 2), ("U", 2)])
    def test_uniqueness_exhaustive(self, family, q):
        g = G(family, 2, q)
        for elt in g.elements():
            s, u = g.jordan(elt)
            assert g.mul(s, u) == elt and g.mul(u, s) == elt
            assert g.is_semisimple(s) and g.is_unipotent(u)
            # uniqueness: any commuting semisimple/unipotent pair multiplying to elt equals (s, u)
            for s2 in g.elements():
                if not g.is_semisimple(s2):
                    continue
                u2 = g.mul(g.inv(s2), elt)
                if g.is_unipotent(u2) and g.mul(s2, u2) == g.mul(u2, s2) == elt:
                    assert s2 == s and u2 == u

    def test_jordan_types(self):
        g = G("GL", 3, 2)
        assert g.jordan_type(g.identity) == (1, 1, 1)
        u = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
        assert g.jordan_type(u) == (3,)
        u2 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        assert g.jordan_type(u2) == (2, 1)


class TestCentralizerType:
    def test_split_regular_gl2(self):
        g = G("GL", 2, 3)
        t = centralizer_type(g, ((2, 0), (0, 1)))
        assert sorted((f.family, f.m, f.d) for f in t.factors) == [("GL", 1, 1), ("GL", 1, 1)]

    def test_nonsplit_semisimple_gl2(self):
        for q in (2, 3):
            g = G("GL", 2, q)
            elt = next(
                x for x in g.elements() if g.is_semisimple(x) and len(centralizer_type(g, x).factors) == 1 and centralizer_type(g, x).factors[0].d == 2
            )
            assert centralizer_type(g, elt).order(q) == q * q - 1
            assert len(centralizer(g, elt)) == q * q - 1

    def test_central_in_u(self):
        g = G("U", 2, 2)
        t = centralizer_type(g, g.identity)
        assert [(f.family, f.m, f.d) for f in t.factors] == [("U", 2, 1)]

    @pytest.mark.parametrize("family,n,q", [("GL", 2, 3), ("GL", 3, 2), ("U", 2, 3), ("U", 3, 2)])
    def test_order_formula_matches_bruteforce(self, family, n, q):
        g = G(family, n, q)
        seen = set()
        for elt in g.elements():
            if not g.is_semisimple(elt):
                continue
            cid = g.class_of(elt)
            if cid in seen:
                continue
            seen.add(cid)
            ct = centralizer_type(g, elt)
            assert ct.order(q) == len(centralizer(g, elt)), f"class of {elt}"


class TestScans:
    def test_nset_identity_split_torus(self):
        g = G("GL", 2, 2)
        torus_keys = {g.key(((1, 0), (0, 1)))}  # split torus of GL_2(F_2) is trivial
        members, cent, reps = nset(g, g.identity, torus_keys)
        # N(1, T)^F = G^F, single coset of the centralizer G^F
        assert len(members) == 6 and len(cent) == 6 and len(reps) == 1

    def test_nset_regular_semisimple(self):
        g = G("GL", 2, 3)
        diag = [((a, 0), (0, b)) for a in (1, 2) for b in (1, 2)]
        torus_keys = {g.key(t) for t in diag}
        s = ((2, 0), (0, 1))
        members, cent, reps = nset(g, s, torus_keys)
        assert len(cent) == 4  # the split torus
        assert len(reps) == 2  # Weyl group of the split torus

    def test_nset_empty(self):
        g = G("GL", 2, 3)
        torus_keys = {g.key(((1, 0), (0, 1)))}
        u = ((1, 1), (0, 1))
        members, cent, reps = nset(g, u, torus_keys)
        assert members == [] and reps == []

    def test_conjugate_into(self):
        g = G("GL", 2, 3)
        diag_keys = {g.key(((a, 0), (0, b))) for a in (1, 2) for b in (1, 2)}
        s = ((0, 1), (2, 0))  # eigenvalues in F_3: x^2 = 2 has no root -> not conjugate
        w = conjugate_into(g, ((2, 0), (0, 1)), diag_keys)
        assert w is not None
        assert conjugate_into(g, ((1, 1), (0, 1)), diag_keys) is None


class TestProduct:
    def test_product_ops(self):
        spec = ProductSpec((GroupSpec("GL", 1, 3), GroupSpec("GL", 2, 3)))
        pg = ProductGroup(spec)
        assert pg.order() == 2 * 48
        els = pg.elements()
        assert len(els) == 96
        a = els[5]
        assert pg.mul(a, pg.inv(a)) == pg.identity
        assert pg.is_rational(a)
