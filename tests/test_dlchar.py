import random
from fractions import Fraction

import pytest

from dlperiods.cyclotomic import Cyclotomic, cyclo
from dlperiods.dlchar import (
    ProductDL,
    _abstract_order_multiset,
    _element_order_multiset,
    dl_table,
    dl_value,
    engine,
    inner_product,
)
from dlperiods.errors import IntegrityError
from dlperiods.green import degree_poly
from dlperiods.groups import GroupSpec, group
from dlperiods.intpoly import evaluate as poly_eval
from dlperiods.oracles import nset
from dlperiods.tori import TorusCharacter, TorusClass, characters, instantiate, torus_classes

# every (family, n, q) whose torus classes all build
CATALOGUE = [(f, n, q) for f in ("GL", "U") for n in (1, 2, 3) for q in (2, 3, 4, 5)] + [
    (f, 4, q) for f in ("GL", "U") for q in (2, 3)
]


def torus(family, n, q, parts):
    return instantiate(TorusClass(family, n, tuple(parts)), GroupSpec(family, n, q))


class TestRankOne:
    def test_gl1_is_the_character(self):
        t = torus("GL", 1, 5, (1,))
        for chi in characters(t):
            for g in t.group.elements():
                assert dl_value(t, chi, g) == chi.evaluate(g)

    def test_u1_is_the_character(self):
        t = torus("U", 1, 3, (1,))
        for chi in characters(t):
            for g in t.group.elements():
                assert dl_value(t, chi, g) == chi.evaluate(g)

    def test_gl1_level_two_composes_norm(self):
        t = torus("GL", 1, 3, (1,))
        lvl = t.level(2)
        chi = characters(t)[1]
        for g in lvl.elements:
            assert dl_value(t, chi, g, nu=2) == chi.evaluate(lvl.norm(g))


class TestPrincipalSeries:
    def test_gl2_split_general_position_full_table(self):
        q = 3
        G = group(GroupSpec("GL", 2, q))
        t = torus("GL", 2, q, (1, 1))
        from dlperiods.oracles import parabolic_members

        B = parabolic_members(G, (1, 1))
        chi = TorusCharacter(t, (0, 1))  # alpha = 1, beta = sign: general position
        digs = {}

        def chi_tilde(b):
            diag = ((b[0][0], 0), (0, b[1][1]))
            return chi.evaluate(diag)

        for rep, size in G.conjugacy_classes():
            # brute-force induced character from B
            total = Cyclotomic.zero(1)
            count = 0
            for x in G.elements():
                y = G.conj(rep, x)
                if G.key(y) in {G.key(b) for b in B}:
                    pass
            bkeys = {G.key(b): b for b in B}
            for x in G.elements():
                y = G.conj(rep, x)
                if G.key(y) in bkeys:
                    total = total + chi_tilde(y)
                    count += 1
            ind = total / len(B)
            assert dl_value(t, chi, rep) == ind

    def test_spec_example_values(self):
        # split T, chi = (alpha, beta) general position, g = diag(a,b):
        # value = alpha(a)beta(b) + alpha(b)beta(a)
        q = 3
        t = torus("GL", 2, q, (1, 1))
        chi = TorusCharacter(t, (1, 0))
        g = ((2, 0), (0, 1))
        a_idx, b_idx = t.coords[t.group.key(g)]
        expect = cyclo(2, 1 * a_idx + 0 * b_idx) + cyclo(2, 0 * a_idx + 1 * b_idx)
        assert dl_value(t, chi, g) == expect


class TestDegreeLaw:
    # every torus class of the catalogue builds: odd-q unitary tori once
    # failed with "block generator not rational"
    @pytest.mark.parametrize("family,n,q", CATALOGUE)
    def test_value_at_identity(self, family, n, q):
        for cls in torus_classes(family, n):
            t = instantiate(cls, GroupSpec(family, n, q))
            expect = poly_eval(degree_poly(family, n, cls.parts), q)
            for chi in characters(t)[:3]:
                got = dl_value(t, chi, t.group.identity)
                assert got == expect, (cls, chi, expect, got)


class TestOrderMultiset:
    @pytest.mark.parametrize("family,n,q", CATALOGUE)
    def test_torus_matches_the_abstract_group(self, family, n, q):
        for cls in torus_classes(family, n):
            t = instantiate(cls, GroupSpec(family, n, q))
            els = t.level(1).elements
            got = _element_order_multiset(els, t.group.ops, cap=len(els) + 1)
            assert got == _abstract_order_multiset(cls.cyclic_orders(q)), cls

    def test_cap(self):
        t = torus("GL", 4, 3, (4,))  # cyclic of order 80
        els, ops = t.level(1).elements, t.group.ops
        assert _element_order_multiset(els, ops, cap=80)[80] == 32
        with pytest.raises(IntegrityError):
            _element_order_multiset(els, ops, cap=79)


class TestSmallTables:
    def test_gl2_f2_matches_s3_characters(self):
        # GL_2(F_2) = S_3: classes of sizes 1, 3, 2
        t_split = torus("GL", 2, 2, (1, 1))
        t_non = torus("GL", 2, 2, (2,))
        G = t_split.group
        classes = G.conjugacy_classes()
        assert sorted(size for _, size in classes) == [1, 2, 3]
        split_table = {size: v for (_, size, v) in dl_table(t_split, characters(t_split)[0])}
        assert split_table[1] == 3 and split_table[3] == 1 and split_table[2] == 0  # 1 + St
        theta = characters(t_non)[1]
        non_table = {size: v for (_, size, v) in dl_table(t_non, theta)}
        assert non_table[1] == -1 and non_table[3] == 1 and non_table[2] == -1  # -(sign-like cuspidal)

    def test_u2_f2_weighted_row_sums_are_integers(self):
        t = torus("U", 2, 2, (1, 1))
        G = t.group
        for chi in characters(t):
            total = Cyclotomic.zero(1)
            for rep, size, v in dl_table(t, chi):
                total = total + size * v
            # |G| <R, 1> must be an integer multiple of |G|
            assert total.is_rational_integer()
            assert total.integer_value() % G.order() == 0

    def test_general_position_norm_one(self):
        q = 3
        t = torus("GL", 2, q, (2,))
        G = t.group
        # chi in general position on C_8: chi^q != chi means e*q != e mod 8
        chi = TorusCharacter(t, (1,))
        table = dl_table(t, chi)
        ip = inner_product(G, table, table)
        assert ip == 1

    def test_self_inner_products_positive_integers(self):
        for family, parts in [("GL", (1, 1)), ("GL", (2,)), ("U", (1, 1)), ("U", (2,))]:
            t = torus(family, 2, 3, parts)
            for chi in characters(t)[:4]:
                table = dl_table(t, chi)
                ip = inner_product(t.group, table, table)
                assert ip.is_rational_integer() and ip.integer_value() >= 1


class TestVanishingAndInvariance:
    @pytest.mark.parametrize("family,q", [("GL", 2), ("GL", 3), ("U", 2), ("U", 3)])
    def test_charpoly_matching_agrees_with_scan(self, family, q):
        # class of s meets T^F iff some torus element shares its char polynomial
        for parts in [(1, 1), (2,)]:
            t = torus(family, 2, q, parts)
            G = t.group
            eng = engine(t)
            for rep, _ in G.conjugacy_classes():
                s, _u = G.jordan(rep)
                members, _, _ = nset(G, s, t.keys)
                assert bool(members) == bool(eng.torus_matches(s))

    @pytest.mark.parametrize("family,q", [("GL", 2), ("U", 2)])
    def test_vanishing_off_meeting_classes(self, family, q):
        for parts in [(1, 1), (2,)]:
            t = torus(family, 2, q, parts)
            G = t.group
            eng = engine(t)
            for chi in characters(t)[:3]:
                for rep, _ in G.conjugacy_classes():
                    s, _ = G.jordan(rep)
                    if not eng.torus_matches(s):
                        assert dl_value(t, chi, rep) == 0

    def test_conjugation_invariance(self):
        t = torus("U", 2, 3, (2,))
        G = t.group
        chi = characters(t)[2]
        rng = random.Random(11)
        els = G.elements()
        for _ in range(60):
            g, x = rng.choice(els), rng.choice(els)
            assert dl_value(t, chi, g) == dl_value(t, chi, G.conj(g, x))

    @pytest.mark.parametrize("family,q,parts", [("GL", 3, (1, 1)), ("GL", 3, (2,)), ("U", 2, (1, 1)), ("U", 2, (2,))])
    def test_engine_cosets_match_bruteforce_nset(self, family, q, parts):
        t = torus(family, 2, q, parts)
        G = t.group
        eng = engine(t)
        for rep, _ in G.conjugacy_classes():
            s, u = G.jordan(rep)
            members, cent, reps = nset(G, s, t.keys)
            assert len(reps) == len(eng.torus_matches(s))
            if members:
                assert len(members) == len(cent) * len(reps)
                # the gamma-sum from scan cosets equals the engine's data
                scan_ts = sorted(G.key(G.conj(s, g)) for g in reps)
                assert scan_ts == sorted(k for k, _ in eng.gamma_data(s, u))


class TestProduct:
    def test_product_values_multiply(self):
        t1 = torus("GL", 1, 3, (1,))
        t2 = torus("GL", 2, 3, (2,))
        chi1, chi2 = characters(t1)[1], characters(t2)[3]
        pdl = ProductDL([t1, t2])
        g = (t1.group.elements()[1], t2.group.elements()[17])
        assert pdl.value([chi1, chi2], g) == dl_value(t1, chi1, g[0]) * dl_value(t2, chi2, g[1])
