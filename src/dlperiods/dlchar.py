"""Exact Deligne-Lusztig virtual character values via the Jordan formula.

For g = su the value is a sum over rational classes of torus elements
matching s.  Since every semisimple centralizer in GL_n / U_n is
connected, rational conjugacy of semisimple elements is detected by
characteristic polynomials, and the left cosets of N(s,T)^F under the
centralizer correspond one to one with the elements t of T^F conjugate
to s.  For each match the evaluator takes one conjugation witness x
(a rational invertible solution of s x = x t), transports u, classifies
the pair (class of T inside the centralizer of t, Jordan type of the
transported unipotent in each centralizer factor) and multiplies the
corresponding Green values.

All caches are per torus level and independent of the character, so
character sweeps reuse every scan.
"""

from __future__ import annotations

from functools import lru_cache

from . import matrixops as mx
from .cyclotomic import Cyclotomic, RootOfUnitySum
from .errors import IntegrityError
from .green import green_value
from .groups import (
    CentralizerFactor,
    centralizer_type,
    eigenspace_basis,
    factor_entry_degree,
    jordan_partition,
)
from .tori import TorusCharacter, TorusInstance, TorusLevel


def _element_order_multiset(mats, ops, cap):
    from collections import Counter

    ident = mx.mat_id(len(mats[0]))
    out = Counter()
    for m in mats:
        acc, o = m, 1
        while acc != ident:
            acc = mx.mat_mul(ops, acc, m)
            o += 1
            if o > cap:
                raise IntegrityError("restricted torus element order ran past the cap")
        out[o] += 1
    return out


@lru_cache(maxsize=None)
def _abstract_order_multiset(orders: tuple):
    """Element-order multiset of prod C_{o_i}."""
    from collections import Counter
    from itertools import product as iproduct
    from math import gcd

    out = Counter()
    for tup in iproduct(*(range(o) for o in orders)):
        l = 1
        for a, o in zip(tup, orders):
            oo = o // gcd(a, o)
            l = l * oo // gcd(l, oo)
        out[l] += 1
    return out


class DLEngine:
    """Character-independent evaluation data for one torus at one level."""

    def __init__(self, level: TorusLevel):
        self.level = level
        self.G = level.group
        self.q = self.G.q  # group parameter at this level
        self._by_charpoly = {}
        for t in level.elements:
            cp = mx.charpoly(self.G.ops, t)
            self._by_charpoly.setdefault(cp, []).append(t)
        self._profiles = {}
        self._gamma = {}

    # -- conjugacy search ---------------------------------------------------
    def torus_matches(self, s):
        """Elements t of T^F rationally conjugate to s (same char polynomial)."""
        return self._by_charpoly.get(mx.charpoly(self.G.ops, s), [])

    def _witness(self, s, t):
        """One x in G^F with s x = x t.  Exists whenever charpolys agree."""
        G = self.G
        if s == t:
            return G.identity
        ops = G.ops
        n = G.n
        rows = []
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for a in range(n):
                    for b in range(n):
                        c = 0
                        if j == b:
                            c = ops.add(c, s[i][a])
                        if i == a:
                            c = ops.sub(c, t[b][j])
                        row[a * n + b] = c
                rows.append(tuple(row))
        for flat in mx.nonzero_span(ops, mx.kernel_basis(ops, rows)):
            x = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
            if not mx.is_invertible(ops, x):
                continue
            if G.spec.family == "U" and not G.is_rational(x):
                continue
            assert G.mul(s, x) == G.mul(x, t)
            return x
        raise IntegrityError("no rational conjugation witness despite matching class data")

    # -- classification of T inside the centralizer of t ---------------------
    def profile(self, t):
        """Per centralizer factor of t: (factor, subspace basis, entry degree,
        class of T inside the factor as a partition)."""
        kt = self.G.key(t)
        if kt in self._profiles:
            return self._profiles[kt]
        G = self.G
        ct = centralizer_type(G, t)
        out = []
        check = 1
        for fac in ct.factors:
            basis = eigenspace_basis(G, t, fac)
            deg = factor_entry_degree(G, fac)
            assert len(basis) == fac.m * deg, "eigenspace dimension mismatch"
            image = {}
            for x in self.level.elements:
                r = mx.restrict_to_subspace(G.ops, x, basis)
                image[tuple(v for row in r for v in row)] = r
            mu = self._match_partition(fac, list(image.values()))
            check *= len(image)
            out.append((fac, basis, deg, mu))
        assert check == len(self.level.elements), "torus does not split along the centralizer factors"
        self._profiles[kt] = out
        return out

    def _match_partition(self, fac: CentralizerFactor, mats):
        from .green import partitions_of

        Q = self.q**fac.d
        actual = _element_order_multiset(mats, self.G.ops, cap=len(mats) + 1)
        hits = []
        for mu in partitions_of(fac.m):
            orders = tuple(Q**p - 1 if fac.family == "GL" else Q**p - (-1) ** p for p in mu)
            total = 1
            for o in orders:
                total *= o
            if total != len(mats):
                continue
            if _abstract_order_multiset(orders) == actual:
                hits.append(mu)
        if len(hits) != 1:
            raise IntegrityError(f"torus class in factor {fac} not uniquely matched: {hits}")
        return hits[0]

    # -- the formula ----------------------------------------------------------
    def gamma_data(self, s, u):
        """[(t_key, green integer)] over the coset representatives for g = su."""
        G = self.G
        cache_key = (G.key(s), G.key(u))
        if cache_key in self._gamma:
            return self._gamma[cache_key]
        out = []
        for t in self.torus_matches(s):
            prof = self.profile(t)
            if u == G.identity:
                green = 1
                for fac, _, _, mu in prof:
                    green *= green_value(fac.family, fac.m, mu, (1,) * fac.m, self.q**fac.d)
            else:
                x = self._witness(s, t)
                ut = G.conj(u, x)
                green = 1
                for fac, basis, deg, mu in prof:
                    jt = self._jordan_in_factor(ut, basis, deg, fac.m)
                    green *= green_value(fac.family, fac.m, mu, jt, self.q**fac.d)
            out.append((G.key(t), green))
        self._gamma[cache_key] = out
        return out

    def _jordan_in_factor(self, ut, basis, deg, m):
        ops = self.G.ops
        r = mx.restrict_to_subspace(ops, ut, basis)
        return jordan_partition(ops, mx.mat_sub(ops, r, mx.mat_id(len(basis))), m, deg)

    def value(self, chi: TorusCharacter, g) -> Cyclotomic:
        """R_{T, chi o N^nu}(g) at this level, exact."""
        G = self.G
        s, u = G.jordan(g)
        data = self.gamma_data(s, u)
        N = chi.conductor
        if not data:
            return Cyclotomic.zero(1)
        acc = RootOfUnitySum(N)
        for t_key, green in data:
            coords = self.level.norm_coords[t_key]
            acc.add_root(chi.root_exponent(coords), green)
        return acc.value()


@lru_cache(maxsize=None)
def engine(torus: TorusInstance, nu: int = 1) -> DLEngine:
    return DLEngine(torus.level(nu))


def dl_value(torus: TorusInstance, chi: TorusCharacter, g, nu: int = 1) -> Cyclotomic:
    """R_{T,chi}^{G,nu}(g), the Deligne-Lusztig virtual character value."""
    return engine(torus, nu).value(chi, g)


def dl_table(torus: TorusInstance, chi: TorusCharacter):
    """[(class rep, class size, value)] over the conjugacy classes of G^F."""
    G = torus.group
    eng = engine(torus, 1)
    return [(rep, size, eng.value(chi, rep)) for rep, size in G.conjugacy_classes()]


def inner_product(G, table1, table2):
    """<f1, f2> from two dl_table outputs over the same group."""
    total = Cyclotomic.zero(1)
    for (_, size, v1), (_, _, v2) in zip(table1, table2):
        total = total + size * (v1 * v2.conj())
    total = total / G.order()
    return total


class ProductDL:
    """R for a product group: componentwise engines, values multiply."""

    def __init__(self, tori, nus=None):
        self.tori = tuple(tori)
        nus = nus or (1,) * len(self.tori)
        self.engines = tuple(engine(t, nu) for t, nu in zip(self.tori, nus))

    def value(self, chis, g) -> Cyclotomic:
        out = Cyclotomic.from_rational(1)
        for eng, chi, gi in zip(self.engines, chis, g):
            out = out * eng.value(chi, gi)
        return out
