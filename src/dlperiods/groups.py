"""GL_n(F_q) and U_n(F_q) as explicit matrix groups with Frobenius.

GL_n(F_q) lives in matrices over GF(q); U_n(F_q) in matrices over
GF(q^2) with the identity Hermitian form, so rationality is exactly
sigma(g)^T g = I where sigma is the entrywise q-power.  Everything at
desk scale is an honest scan over enumerated rational points; U_n is
enumerated by orthonormal-column backtracking, never by filtering the
ambient GL_n(F_{q^2}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import intpoly
from . import matrixops as mx
from .errors import SizeCapError, UnsupportedError
from .ffield import factorize, make_field, ops_for

ENUM_CAP = 10**7
GL_FILTER_CAP = 2**22


def _prime_power(q: int):
    f = factorize(q)
    if len(f) != 1:
        raise UnsupportedError(f"q={q} is not a prime power")
    ((p, m),) = f.items()
    return p, m


@dataclass(frozen=True)
class GroupSpec:
    """A finite reductive group GL_n(F_q) or U_n(F_q) (identity Hermitian form)."""

    family: str
    n: int
    q: int

    def __post_init__(self):
        if self.family not in ("GL", "U"):
            raise UnsupportedError(f"family {self.family!r} not supported")
        if self.n < 1 or self.n > 4:
            raise UnsupportedError(f"rank n={self.n} outside 1..4")
        _prime_power(self.q)

    def __repr__(self):
        return f"{self.family}{self.n}(F{self.q})"


def group_order(spec) -> int:
    """Closed-form |G^F|."""
    if isinstance(spec, ProductSpec):
        out = 1
        for f in spec.factors:
            out *= group_order(f)
        return out
    q, n = spec.q, spec.n
    out = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= q**i - 1 if spec.family == "GL" else q**i - (-1) ** i
    return out


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple

    def __repr__(self):
        return " x ".join(repr(f) for f in self.factors)


class Group:
    """Concrete G^F for one GroupSpec: element ops plus enumeration services."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.n = spec.n
        self.q = spec.q
        self.p, self.m = _prime_power(spec.q)
        deg = self.m if spec.family == "GL" else 2 * self.m
        self.field = make_field(self.p, deg)
        self.ops = ops_for(self.field)
        self.identity = mx.mat_id(self.n)
        self._elements = None
        self._index = None
        self._classes = None
        self._jordan = {}
        self._gens = None
        self._use_bytes = self.field.q <= 256

    # -- basic element operations ------------------------------------------------
    def key(self, g):
        flat = [x for row in g for x in row]
        return bytes(flat) if self._use_bytes else tuple(flat)

    def mul(self, a, b):
        return mx.mat_mul(self.ops, a, b)

    def inv(self, a):
        return mx.mat_inv(self.ops, a)

    def power(self, a, e):
        return mx.mat_pow(self.ops, a, e)

    def conj(self, g, x):
        """x^-1 g x."""
        return self.mul(self.mul(mx.mat_inv(self.ops, x), g), x)

    def star(self, g):
        """Conjugate transpose sigma(g)^T (U only meaningful)."""
        return mx.transpose(mx.entrywise_pow(self.ops, g, self.q))

    def frobenius(self, g, q=None):
        """The q-Frobenius (default: the group's own q): entrywise q-power for
        GL, form-twisted for U.  A smaller q gives a root of the group's
        Frobenius, as on the torus levels."""
        sig = mx.entrywise_pow(self.ops, g, q or self.q)
        if self.spec.family == "GL":
            return sig
        return mx.transpose(mx.mat_inv(self.ops, sig))

    def is_rational(self, g) -> bool:
        if self.spec.family == "GL":
            return all(self.ops.pow(x, self.q) == x for row in g for x in row)
        return self.mul(self.star(g), g) == self.identity

    def order(self) -> int:
        return group_order(self.spec)

    # -- enumeration ----------------------------------------------------------------
    def elements(self):
        if self._elements is None:
            total = self.order()
            if total > ENUM_CAP:
                raise SizeCapError(f"|{self.spec}| = {total} exceeds enumeration cap {ENUM_CAP}")
            elems = self._enumerate_gl() if self.spec.family == "GL" else self._enumerate_u()
            assert len(elems) == total, f"enumeration {len(elems)} != order formula {total}"
            self._elements = tuple(elems)
        return self._elements

    def index(self):
        if self._index is None:
            self._index = {self.key(g): i for i, g in enumerate(self.elements())}
        return self._index

    def _enumerate_gl(self):
        n, Q = self.n, self.field.q
        if Q ** (n * n) > GL_FILTER_CAP:
            raise SizeCapError(f"GL enumeration space {Q}^{n * n} too large")
        out = []
        rows_all = list(mx.nonzero_span(self.ops, self.identity))
        # build row by row, keeping partial rank full
        def rec(rows):
            if len(rows) == n:
                out.append(tuple(rows))
                return
            for r in rows_all:
                cand = rows + [r]
                if mx.mat_rank(self.ops, cand) == len(cand):
                    rec(cand)

        rec([])
        return out

    def _enumerate_u(self):
        """Backtracking over orthonormal columns for the identity Hermitian form."""
        n = self.n
        ops = self.ops

        def herm(x, y):
            acc = 0
            for a, b in zip(x, y):
                if a and b:
                    acc = ops.add(acc, ops.mul(ops.pow(a, self.q), b))
            return acc

        out = []

        def rec(cols):
            j = len(cols)
            if j == n:
                out.append(tuple(zip(*cols)))  # columns -> row tuples
                return
            if cols:
                rows = [tuple(ops.pow(c, self.q) for c in col) for col in cols]
                basis = mx.kernel_basis(ops, rows)
            else:
                basis = self.identity
            for v in mx.nonzero_span(ops, basis):
                if herm(v, v) == 1:
                    rec(cols + [v])

        rec([])
        return out

    # -- structure ----------------------------------------------------------------
    def element_order(self, g) -> int:
        n = self.order()
        e = n
        for t in factorize(n):
            while e % t == 0 and self.power(g, e // t) == self.identity:
                e //= t
        return e

    def jordan(self, g):
        """Unique commuting (semisimple, unipotent) factorization via CRT powers, memoised per key(g)."""
        k = self.key(g)
        if k not in self._jordan:
            self._jordan[k] = self._jordan_uncached(g)
        return self._jordan[k]

    def _jordan_uncached(self, g):
        o = self.element_order(g)
        a = 0
        while o % self.p == 0:
            o //= self.p
            a += 1
        m = o
        if a == 0:
            return g, self.identity
        pa = self.p**a
        if m == 1:
            return self.identity, g
        # e = 0 mod p^a, 1 mod m
        e = (pow(pa, -1, m) * pa) % (pa * m)
        s = self.power(g, e)
        u = self.mul(g, self.inv(s))
        return s, u

    def is_semisimple(self, g) -> bool:
        return self.element_order(g) % self.p != 0

    def is_unipotent(self, g) -> bool:
        return self._nilpotent(mx.mat_sub(self.ops, g, self.identity))

    def _nilpotent(self, d) -> bool:
        acc = d
        for _ in range(self.n):
            if all(x == 0 for row in acc for x in row):
                return True
            acc = self.mul(acc, d)
        return all(x == 0 for row in acc for x in row)

    def jordan_type(self, u):
        """Partition of n from ranks of (u-1)^k."""
        return jordan_partition(self.ops, mx.mat_sub(self.ops, u, self.identity), self.n)

    def generators(self):
        if self._gens is None:
            target = self.order()
            gens, closure = [], {self.key(self.identity)}
            for g in self.elements():
                if self.key(g) in closure:
                    continue
                gens.append(g)
                closure = self._mulclose(gens)
                if len(closure) == target:
                    break
            self._gens = tuple(gens)
        return self._gens

    def _mulclose(self, gens):
        seen = {self.key(self.identity)}
        frontier = [self.identity]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    k = self.key(y)
                    if k not in seen:
                        seen.add(k)
                        new.append(y)
            frontier = new
        return seen

    def conjugacy_classes(self):
        """[(representative, class size)], stable order; class id accessible via class_of."""
        if self._classes is None:
            gens = self.generators()
            seen = set()
            classes = []
            class_map = {}
            for g in self.elements():
                kg = self.key(g)
                if kg in seen:
                    continue
                orbit = {kg}
                frontier = [g]
                while frontier:
                    new = []
                    for x in frontier:
                        for h in gens:
                            y = self.conj(x, h)
                            ky = self.key(y)
                            if ky not in orbit:
                                orbit.add(ky)
                                new.append(y)
                    frontier = new
                cid = len(classes)
                classes.append((g, len(orbit)))
                for k in orbit:
                    class_map[k] = cid
                seen |= orbit
            self._classes = (classes, class_map)
        return self._classes[0]

    def class_of(self, g) -> int:
        self.conjugacy_classes()
        return self._classes[1][self.key(g)]


def jordan_partition(ops, d, m: int, deg: int = 1):
    """Jordan type of the unipotent 1 + d, a partition of m, from the ranks
    of the powers of the nilpotent d counted in units of deg (the degree of
    the factor field over the matrix entry field)."""
    dim = len(d)
    ranks = [dim]
    acc = mx.mat_id(dim)
    for _ in range(m):
        acc = mx.mat_mul(ops, acc, d)
        ranks.append(mx.mat_rank(ops, acc))
    assert ranks[m] == 0, "not unipotent"
    assert all(rk % deg == 0 for rk in ranks), "rank not divisible by the factor field degree"
    franks = [rk // deg for rk in ranks] + [0]
    parts = []
    for k in range(m, 0, -1):
        parts.extend([k] * (franks[k - 1] - 2 * franks[k] + franks[k + 1]))
    assert sum(parts) == m
    return tuple(parts)


@lru_cache(maxsize=None)
def group(spec: GroupSpec) -> Group:
    return Group(spec)


# ---------------------------------------------------------------------------
# product groups


class ProductGroup:
    """Direct product; elements are tuples of factor matrices, all ops factor-wise."""

    def __init__(self, spec: ProductSpec):
        self.spec = spec
        self.groups = tuple(group(f) for f in spec.factors)
        self.identity = tuple(g.identity for g in self.groups)

    def key(self, g):
        return tuple(G.key(x) for G, x in zip(self.groups, g))

    def mul(self, a, b):
        return tuple(G.mul(x, y) for G, x, y in zip(self.groups, a, b))

    def inv(self, a):
        return tuple(G.inv(x) for G, x in zip(self.groups, a))

    def power(self, a, e):
        return tuple(G.power(x, e) for G, x in zip(self.groups, a))

    def frobenius(self, g):
        return tuple(G.frobenius(x) for G, x in zip(self.groups, g))

    def is_rational(self, g):
        return all(G.is_rational(x) for G, x in zip(self.groups, g))

    def order(self):
        return group_order(self.spec)

    def elements(self):
        if self.order() > ENUM_CAP:
            raise SizeCapError(f"|{self.spec}| exceeds enumeration cap")
        from itertools import product as iproduct

        return list(iproduct(*(G.elements() for G in self.groups)))

    def jordan(self, g):
        parts = [G.jordan(x) for G, x in zip(self.groups, g)]
        return tuple(s for s, _ in parts), tuple(u for _, u in parts)


# ---------------------------------------------------------------------------
# semisimple centralizer types


@dataclass(frozen=True)
class CentralizerFactor:
    family: str  # GL or U
    m: int  # rank of the factor
    d: int  # field power: GL_m(F_{q^d}) or U_m(F_{q^d})
    orbit_key: tuple  # canonical minimal-polynomial data of the eigenvalue orbit

    def order(self, q: int) -> int:
        qq = q**self.d
        out = qq ** (self.m * (self.m - 1) // 2)
        for i in range(1, self.m + 1):
            out *= qq**i - 1 if self.family == "GL" else qq**i - (-1) ** i
        return out


@dataclass(frozen=True)
class CentralizerType:
    factors: tuple  # of CentralizerFactor

    def order(self, q: int) -> int:
        out = 1
        for f in self.factors:
            out *= f.order(q)
        return out


def _tau_poly(ops, f, q):
    """Roots mu -> mu^{-q}: reverse, normalize monic, raise coefficients to q."""
    rev = intpoly.monic(tuple(reversed(f)), ops)
    return tuple(ops.pow(c, q) for c in rev)


def centralizer_type(G: Group, s) -> CentralizerType:
    """Type of C_G(s)^0 from the eigenvalue Frobenius-orbit structure of s.

    GL: each irreducible factor of the characteristic polynomial of degree d
    with multiplicity m contributes GL_m(F_{q^d}).  U: a factor fixed by
    mu -> mu^{-q} contributes U_m(F_{q^d}) (d is then odd); a swapped pair of
    degree-d' factors contributes GL_m(F_{q^{2d'}}).
    """
    cp = mx.charpoly(G.ops, s)
    factors = mx.factor_poly(G.ops, cp)
    out = []
    if G.spec.family == "GL":
        for f, mult in factors:
            out.append(CentralizerFactor("GL", mult, len(f) - 1, (f,)))
    else:
        done = set()
        fdict = dict(factors)
        for f, mult in factors:
            if f in done:
                continue
            tf = _tau_poly(G.ops, f, G.q)
            if tf == f:
                d = len(f) - 1
                assert d % 2 == 1, "self-paired orbit must have odd degree"
                out.append(CentralizerFactor("U", mult, d, (f,)))
                done.add(f)
            else:
                assert fdict.get(tf) == mult, "tau-paired factors must share multiplicity"
                d = len(f) - 1
                key = tuple(sorted((f, tf)))
                out.append(CentralizerFactor("GL", mult, 2 * d, key))
                done.add(f)
                done.add(tf)
    out.sort(key=lambda fac: (fac.family, -fac.m, fac.d, fac.orbit_key))
    return CentralizerType(tuple(out))


def eigenspace_basis(G: Group, s, factor: CentralizerFactor):
    """Basis over the matrix entry field of the s-isotypic subspace of the factor.

    For a swapped GL-type pair inside U only one polynomial of the pair is
    used: the unipotent parts act with equal Jordan type on both halves.
    """
    f = factor.orbit_key[0]
    M = mx.poly_at_matrix(G.ops, f, s)
    return mx.kernel_basis(G.ops, M)


def factor_entry_degree(G: Group, factor: CentralizerFactor) -> int:
    """[factor field : matrix entry field]: divide entry-field ranks by this."""
    if G.spec.family == "GL":
        return factor.d
    return factor.d if factor.family == "U" else factor.d // 2
