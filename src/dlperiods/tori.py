"""F-stable maximal tori of GL_n and U_n, their rational points and characters.

Torus classes are partitions of n (twisted Weyl classes).  An instance is
built block by block: a part lambda of a GL-torus is the multiplication
action of GF(q^lambda)^x on itself; an odd part of a U-torus is the
norm-one subgroup of GF(q^{2*lambda})^x acting on the trace Hermitian form;
an even part is a hyperbolic pair W + W^* carrying GF(q^lambda)^x.  U-blocks
are assembled on a block-diagonal Gram matrix and conjugated into the
identity form by an explicit hermitian Gram-Schmidt base change.

Block generators are normalized so that the canonical generator of the
central GF(q)^x (GL) or norm-one C_{q+1} (U) is always the same fixed power
of the block generator; catalog data that mixes blocks relies on this.

T^{F^nu} for extension levels is enumerated inside the commutant algebra of
the block data (no torus is ever re-derived from closures of finite sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from . import matrixops as mx
from .cyclotomic import Cyclotomic, cyclo
from .errors import IntegrityError, SizeCapError, UnsupportedError
from .ffield import embedding, make_field, ops_for
from .groups import Group, GroupSpec, group

CHARACTER_LIST_CAP = 10**6
LEVEL_COMBO_CAP = 2**21


def partitions(n: int):
    """Partitions of n, descending parts, in reverse-lex order."""
    if n == 0:
        return [()]
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(n, n, [])
    return out


@dataclass(frozen=True)
class TorusClass:
    family: str
    n: int
    parts: tuple

    def __post_init__(self):
        if tuple(sorted(self.parts, reverse=True)) != self.parts or sum(self.parts) != self.n:
            raise UnsupportedError(f"{self.parts} is not a partition of {self.n}")

    def cyclic_orders(self, q: int) -> tuple:
        if self.family == "GL":
            return tuple(q**lam - 1 for lam in self.parts)
        return tuple(q**lam - (-1) ** lam for lam in self.parts)

    def sigma(self) -> int:
        """F_q-rank of the torus."""
        if self.family == "GL":
            return len(self.parts)
        return sum(1 for lam in self.parts if lam % 2 == 0)

    def refine(self, nu: int) -> "TorusClass":
        """Class of the same torus over F_{q^nu}: parts split along gcd(part, nu)."""
        new = []
        for lam in self.parts:
            g = gcd(lam, nu)
            new.extend([lam // g] * g)
        return TorusClass(self.family, self.n, tuple(sorted(new, reverse=True)))

    def label(self) -> str:
        return "+".join(str(p) for p in self.parts)

    def __repr__(self):
        return f"{self.family}{self.n}-torus[{self.label()}]"


def torus_classes(family: str, n: int):
    if n > 4:
        raise UnsupportedError("torus classes catalogued for n <= 4 only")
    return [TorusClass(family, n, p) for p in partitions(n)]


def class_from_label(family: str, n: int, label: str) -> TorusClass:
    if label == "split":
        parts = (1,) * n
    elif label == "nonsplit" and n == 2:
        parts = (2,)
    elif label == "coxeter":
        parts = (n,)
    else:
        parts = tuple(sorted((int(x) for x in label.replace(" ", "").split("+")), reverse=True))
    return TorusClass(family, n, parts)


# ---------------------------------------------------------------------------
# block construction helpers


def _gfp_digits(v: int, p: int, length: int):
    out = []
    for _ in range(length):
        out.append(v % p)
        v //= p
    return out


def _solve_subfield_combination(L, sub, emb, targets, powers):
    """Write each target as a sub-field combination of the given power basis.

    Solves over GF(p): target = sum_i c_i * powers[i] with c_i in emb(sub).
    Returns per-target coefficient tuples (sub-field encodings).
    """
    Lops = ops_for(L)
    p = L.p
    cols = []
    for d in powers:
        for b in range(sub.k):
            cols.append(_gfp_digits(Lops.mul(emb[p**b], d), p, L.k))
    gfp = ops_for(make_field(p, 1))
    out = []
    for t in targets:
        try:
            sol = mx.solve_in_span(gfp, cols, _gfp_digits(t, p, L.k))
        except ValueError:
            raise IntegrityError("element not in subfield span") from None
        coeffs = []
        for i in range(len(powers)):
            v = 0
            for b in range(sub.k - 1, -1, -1):
                v = v * p + sol[i * sub.k + b]
            coeffs.append(v)
        out.append(tuple(coeffs))
    return out


def _normalized_generator(L, target_order: int, sub_gen_image: int, sub_order: int):
    """Generator d of the order-`target_order` subgroup of L^x with
    d^(target_order/sub_order) = sub_gen_image."""
    Lops = ops_for(L)
    d0 = Lops.elem_of_order(target_order)
    k = target_order // sub_order
    if k == 0 or target_order == 1:
        return d0
    t = Lops.dlog(sub_gen_image, d0)
    assert t % k == 0, "canonical subgroup generator not a k-th power pattern"
    r = t // k
    assert gcd(r, sub_order) == 1, "subfield generator image not of full order"
    j = r % sub_order
    if j == 0:
        j = sub_order
    while gcd(j, target_order) != 1:
        j += sub_order
    d = Lops.pow(d0, j)
    assert Lops.pow(d, k) == sub_gen_image
    return d


def _canonical_subgen(field, order: int) -> int:
    """Canonical element of multiplicative order `order`: table generator power."""
    return ops_for(field).elem_of_order(order)


def _embed_block(full_n, start, mat):
    """Place a small block matrix into an identity n x n matrix at `start`."""
    m = len(mat)
    rows = []
    for i in range(full_n):
        row = []
        for j in range(full_n):
            if start <= i < start + m and start <= j < start + m:
                row.append(mat[i - start][j - start])
            else:
                row.append(1 if i == j else 0)
        rows.append(tuple(row))
    return tuple(rows)


def _projection(full_n, start, size):
    return tuple(
        tuple(1 if (i == j and start <= i < start + size) else 0 for j in range(full_n)) for i in range(full_n)
    )


@dataclass
class _Block:
    kind: str  # gl | u_odd | u_even
    part: int
    start: int
    order: int
    gen: tuple  # full-size generator matrix
    idems: tuple  # full-size idempotent matrices spanning the block commutant


def _gl_block(G: Group, lam: int):
    q = G.q
    base = G.field
    L = make_field(base.p, base.k * lam)
    emb = embedding(base, L)
    u0 = _canonical_subgen(base, q - 1)
    gamma = _normalized_generator(L, q**lam - 1, emb[u0], q - 1)
    Lops = ops_for(L)
    powers = [Lops.pow(gamma, i) for i in range(lam)]
    (coeffs,) = _solve_subfield_combination(L, base, emb, [Lops.pow(gamma, lam)], powers)
    comp = tuple(
        tuple(coeffs[i] if j == lam - 1 else (1 if i == j + 1 else 0) for j in range(lam)) for i in range(lam)
    )
    return comp, q**lam - 1


def _u_odd_block(G: Group, lam: int):
    """Norm-one multiplication block on GF(q^{2 lam}) with the trace Hermitian form."""
    q = G.q
    K = G.field  # GF(q^2)
    L = make_field(K.p, K.k * lam)
    emb = embedding(K, L)
    x0 = _canonical_subgen(K, q + 1)
    delta = _normalized_generator(L, q**lam + 1, emb[x0], q + 1)
    Lops = ops_for(L)
    powers = [Lops.pow(delta, i) for i in range(lam)]
    (coeffs,) = _solve_subfield_combination(L, K, emb, [Lops.pow(delta, lam)], powers)
    comp = tuple(
        tuple(coeffs[i] if j == lam - 1 else (1 if i == j + 1 else 0) for j in range(lam)) for i in range(lam)
    )
    # Gram of h(x, y) = Tr_{L/K}(x^{q^lam} * y) in the delta-power basis,
    # semilinear in the first argument as _hermitian_gram_schmidt reads it
    emb_inv = {v: i for i, v in enumerate(emb)}
    qq = q * q
    gram = []
    for i in range(lam):
        row = []
        for j in range(lam):
            z = Lops.mul(Lops.pow(powers[i], q**lam), powers[j])
            tr = 0
            for t in range(lam):
                tr = Lops.add(tr, Lops.pow(z, qq**t))
            row.append(emb_inv[tr])
        gram.append(tuple(row))
    return comp, tuple(gram), q**lam + 1


def _u_even_block(G: Group, lam: int):
    """Hyperbolic block W + W^* carrying GF(q^lam)^x, Gram [[0, I], [I, 0]]."""
    q = G.q
    K = G.field
    half = lam // 2
    L = make_field(K.p, K.k * half)  # GF(q^lam), contains K since lam is even
    emb = embedding(K, L)
    x0 = _canonical_subgen(K, q + 1)
    eps = _normalized_generator(L, q**lam - 1, emb[x0], q + 1)
    Lops = ops_for(L)
    powers = [Lops.pow(eps, i) for i in range(half)]
    (coeffs,) = _solve_subfield_combination(L, K, emb, [Lops.pow(eps, half)], powers)
    M = tuple(
        tuple(coeffs[i] if j == half - 1 else (1 if i == j + 1 else 0) for j in range(half)) for i in range(half)
    )
    Kops = ops_for(K)
    Mstar_inv = mx.mat_inv(Kops, mx.transpose(mx.entrywise_pow(Kops, M, q)))
    blk = tuple(
        tuple(
            (M[i][j] if i < half and j < half else Mstar_inv[i - half][j - half] if i >= half and j >= half else 0)
            for j in range(lam)
        )
        for i in range(lam)
    )
    gram = tuple(
        tuple(1 if (abs(i - j) == half) else 0 for j in range(lam)) for i in range(lam)
    )
    return blk, gram, q**lam - 1


def _hermitian_gram_schmidt(G: Group, J):
    """Base change P with P* J P = I for a nondegenerate Hermitian J over GF(q^2)."""
    ops = G.ops
    n = G.n
    q = G.q

    def phi(x, y):
        acc = 0
        for i in range(n):
            if x[i]:
                xi = ops.pow(x[i], q)
                for j in range(n):
                    if J[i][j] and y[j]:
                        acc = ops.add(acc, ops.mul(xi, ops.mul(J[i][j], y[j])))
        return acc

    basis = []
    while len(basis) < n:
        crows = []
        for v in basis:
            vq = tuple(ops.pow(x, q) for x in v)
            crows.append(tuple(mx.mat_vec(ops, mx.transpose(J), vq)))
        comp = mx.kernel_basis(ops, crows) if crows else G.identity
        found = None
        for v in mx.nonzero_span(ops, comp):
            nv = phi(v, v)
            if nv != 0:
                found = (v, nv)
                break
        assert found is not None, "no anisotropic vector: degenerate form?"
        v, nv = found
        assert ops.pow(nv, q) == nv, "Hermitian norm not in the fixed field"
        log_nv = ops.log[nv]
        assert log_nv % (q + 1) == 0
        c = ops.exp[log_nv // (q + 1)]
        v = tuple(ops.mul(ops.inv(c), x) for x in v)
        assert phi(v, v) == 1
        basis.append(v)
    P = tuple(zip(*basis))  # columns are the orthonormal basis
    return P


# ---------------------------------------------------------------------------


class TorusInstance:
    """An F-stable maximal torus with enumerated T^F and exact coordinates."""

    def __init__(self, cls: TorusClass, G: Group):
        if cls.family != G.spec.family or cls.n != G.spec.n:
            raise UnsupportedError(f"class {cls} does not match group {G.spec}")
        self.cls = cls
        self.group = G
        self.q = G.q
        self.orders = cls.cyclic_orders(G.q)
        self.sigma = cls.sigma()
        self.blocks = self._build_blocks()
        self._verify_generators()
        self.elements, self.coords = self._enumerate()
        self.keys = frozenset(self.coords)
        self._levels = {}
        self._verify_instance()

    # -- construction -------------------------------------------------------
    def _build_blocks(self):
        G = self.group
        blocks = []
        start = 0
        if G.spec.family == "GL":
            for lam in self.cls.parts:
                comp, order = _gl_block(G, lam)
                blocks.append(
                    _Block("gl", lam, start, order, _embed_block(G.n, start, comp), (_projection(G.n, start, lam),))
                )
                start += lam
            return tuple(blocks)
        # U: build on a block Gram, then conjugate into the identity form
        raw = []
        gram_blocks = []
        for lam in self.cls.parts:
            if lam % 2 == 1:
                comp, gram, order = _u_odd_block(G, lam)
                idems = ("whole",)
            else:
                comp, gram, order = _u_even_block(G, lam)
                idems = ("half", "half2")
            raw.append((lam, comp, order, idems))
            gram_blocks.append(gram)
        n = G.n
        J = [[0] * n for _ in range(n)]
        start = 0
        for gb in gram_blocks:
            m = len(gb)
            for i in range(m):
                for j in range(m):
                    J[start + i][start + j] = gb[i][j]
            start += m
        J = tuple(tuple(row) for row in J)
        P = _hermitian_gram_schmidt(G, J)
        Pinv = mx.mat_inv(G.ops, P)

        def conj(mat):
            return mx.mat_mul(G.ops, mx.mat_mul(G.ops, Pinv, mat), P)

        start = 0
        for lam, comp, order, idems in raw:
            gen = conj(_embed_block(n, start, comp))
            if idems == ("whole",):
                projs = (conj(_projection(n, start, lam)),)
            else:
                projs = (
                    conj(_projection(n, start, lam // 2)),
                    conj(_projection(n, start + lam // 2, lam // 2)),
                )
            kind = "u_odd" if lam % 2 == 1 else "u_even"
            blocks.append(_Block(kind, lam, start, order, gen, projs))
            start += lam
        return tuple(blocks)

    def _verify_generators(self):
        G = self.group
        for b in self.blocks:
            if not G.is_rational(b.gen):
                raise IntegrityError(f"block generator of {self.cls} not rational in {G.spec}")
            if G.power(b.gen, b.order) != G.identity:
                raise IntegrityError("block generator order too small")
        for a in self.blocks:
            for b in self.blocks:
                if G.mul(a.gen, b.gen) != G.mul(b.gen, a.gen):
                    raise IntegrityError("block generators do not commute")

    def _enumerate(self):
        G = self.group
        total = 1
        for m in self.orders:
            total *= m
        if total > CHARACTER_LIST_CAP:
            raise SizeCapError(f"|T^F| = {total} exceeds cap")
        gen_powers = []
        for b in self.blocks:
            pw = [G.identity]
            for _ in range(b.order - 1):
                pw.append(G.mul(pw[-1], b.gen))
            gen_powers.append(pw)
        elements, coords = [], {}
        idx = [0] * len(self.blocks)
        while True:
            m = gen_powers[0][idx[0]]
            for bi in range(1, len(self.blocks)):
                m = G.mul(m, gen_powers[bi][idx[bi]])
            elements.append(m)
            coords[G.key(m)] = tuple(idx)
            for bi in range(len(self.blocks) - 1, -1, -1):
                idx[bi] += 1
                if idx[bi] < self.orders[bi]:
                    break
                idx[bi] = 0
            else:
                break
        if len(coords) != total:
            raise IntegrityError(f"torus enumeration collapsed: {len(coords)} of {total}")
        return tuple(elements), coords

    def _verify_instance(self):
        G = self.group
        for b, m in zip(self.blocks, self.orders):
            if G.element_order(b.gen) != m:
                raise IntegrityError("cyclic order mismatch")
        # commutant dimension n: block data spans an n-dimensional algebra
        vecs = []
        for b in self.blocks:
            size = b.part if b.kind != "u_even" else b.part // 2
            for e in b.idems:
                acc = e
                for j in range(size):
                    vecs.append(tuple(x for row in acc for x in row))
                    acc = mx.mat_mul(G.ops, acc, b.gen)
        if mx.mat_rank(G.ops, vecs) != G.n:
            raise IntegrityError("torus commutant has wrong dimension (not maximal?)")

    # -- basic services ------------------------------------------------------
    def element(self, coords):
        G = self.group
        m = G.identity
        for b, a, o in zip(self.blocks, coords, self.orders):
            m = G.mul(m, G.power(b.gen, a % o))
        return m

    def subgroup(self, exponent_gens):
        """All elements of the subgroup generated by the given exponent tuples."""
        G = self.group
        seen = {G.key(G.identity): (0,) * len(self.orders)}
        frontier = [(0,) * len(self.orders)]
        gens = [tuple(g % m for g, m in zip(gen, self.orders)) for gen in exponent_gens]
        while frontier:
            new = []
            for c in frontier:
                for g in gens:
                    nc = tuple((a + b) % m for a, b, m in zip(c, g, self.orders))
                    k = G.key(self.element(nc))
                    if k not in seen:
                        seen[k] = nc
                        new.append(nc)
            frontier = new
        return [self.element(c) for c in sorted(seen.values())]

    def algebra_basis(self):
        G = self.group
        basis = []
        for b in self.blocks:
            size = b.part if b.kind != "u_even" else b.part // 2
            for e in b.idems:
                acc = e
                for _ in range(size):
                    basis.append(acc)
                    acc = mx.mat_mul(G.ops, acc, b.gen)
        return basis

    # -- extension levels ---------------------------------------------------
    def level(self, nu: int) -> "TorusLevel":
        if nu not in self._levels:
            self._levels[nu] = TorusLevel(self, nu)
        return self._levels[nu]


class TorusLevel:
    """T^{F^nu} of the same matrix torus, with the norm map back to T^F."""

    def __init__(self, base: TorusInstance, nu: int):
        self.base = base
        self.nu = nu
        G0 = base.group
        if nu == 1:
            self.group = G0
            self.elements = base.elements
            self.keys = base.keys
            self.norm_coords = dict(base.coords)
            return
        if G0.spec.family == "U" and nu % 2 == 0:
            raise UnsupportedError("U-group extensions supported for odd nu only (G^{F^nu} changes type)")
        self.group = group(GroupSpec(G0.spec.family, G0.spec.n, G0.q**nu))
        G = self.group
        emb = embedding(G0.field, G.field)
        self._emb = emb

        def lift(mat):
            return tuple(tuple(emb[x] for x in row) for row in mat)

        basis = [lift(b) for b in base.algebra_basis()]
        n = G.n
        Q = G.field.q
        if Q ** len(basis) > LEVEL_COMBO_CAP:
            raise SizeCapError(f"level-{nu} torus enumeration space {Q}^{len(basis)} too large")
        ops = G.ops
        elements = []
        for flat in mx.nonzero_span(ops, [sum(bm, ()) for bm in basis]):
            m = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            if not mx.is_invertible(ops, m):
                continue
            if G.spec.family == "U" and not G.is_rational(m):
                continue
            elements.append(m)
        expected = 1
        for lam in base.cls.parts:
            g = gcd(lam, nu)
            lam2 = lam // g
            o = G0.q ** (nu * lam2) - 1 if G0.spec.family == "GL" else G0.q ** (nu * lam2) - (-1) ** lam2
            expected *= o**g
        if len(elements) != expected:
            raise IntegrityError(f"|T^(F^{nu})| = {len(elements)} but refined class predicts {expected}")
        self.elements = tuple(elements)
        self.keys = frozenset(G.key(m) for m in elements)
        base_embedded = {G.key(lift(t)): base.coords[G0.key(t)] for t in base.elements}
        if not set(base_embedded) <= self.keys:
            raise IntegrityError("base torus points missing from the extension")
        self.norm_coords = {}
        q0 = G0.q
        for m in elements:
            acc, cur = m, m
            for _ in range(nu - 1):
                cur = G.frobenius(cur, q0)
                acc = G.mul(acc, cur)
            k = G.key(acc)
            if k not in base_embedded:
                raise IntegrityError("norm map left the base torus")
            self.norm_coords[G.key(m)] = base_embedded[k]

    def norm(self, t):
        """N^nu(t) as an element of the base torus."""
        return self.base.element(self.norm_coords[self.group.key(t)])


@lru_cache(maxsize=None)
def instantiate(cls: TorusClass, spec: GroupSpec) -> TorusInstance:
    return TorusInstance(cls, group(spec))


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class TorusCharacter:
    """chi(t) = prod zeta_{m_i}^(e_i a_i) for coordinates (a_i) of t."""

    torus: TorusInstance
    exponents: tuple

    def __post_init__(self):
        if len(self.exponents) != len(self.torus.orders):
            raise UnsupportedError("exponent tuple length mismatch")

    @property
    def conductor(self) -> int:
        return lcm(*self.torus.orders)

    def root_exponent(self, coords) -> int:
        N = self.conductor
        return sum(e * a * (N // m) for e, a, m in zip(self.exponents, coords, self.torus.orders)) % N

    def evaluate(self, t) -> Cyclotomic:
        coords = self.torus.coords[self.torus.group.key(t)]
        return cyclo(self.conductor, self.root_exponent(coords))

    def is_trivial(self) -> bool:
        return all(e % m == 0 for e, m in zip(self.exponents, self.torus.orders))

    def __repr__(self):
        return f"chi{self.exponents}@{self.torus.cls.label()}"


def characters(T: TorusInstance):
    total = 1
    for m in T.orders:
        total *= m
    if total > CHARACTER_LIST_CAP:
        raise SizeCapError("too many characters to list")
    out = []
    idx = [0] * len(T.orders)
    while True:
        out.append(TorusCharacter(T, tuple(idx)))
        for bi in range(len(T.orders) - 1, -1, -1):
            idx[bi] += 1
            if idx[bi] < T.orders[bi]:
                break
            idx[bi] = 0
        else:
            break
    return out


class RestrictedCharacter:
    """A torus character restricted to a subgroup of T^F."""

    def __init__(self, chi: TorusCharacter, subgroup_elements):
        T = chi.torus
        G = T.group
        keys = {G.key(t) for t in subgroup_elements}
        if not keys <= T.keys:
            raise UnsupportedError("restriction domain is not inside T^F")
        for a in subgroup_elements:
            for b in subgroup_elements:
                if G.key(G.mul(a, b)) not in keys:
                    raise UnsupportedError("restriction domain is not a subgroup")
        self.chi = chi
        self.elements = tuple(subgroup_elements)

    def evaluate(self, t) -> Cyclotomic:
        return self.chi.evaluate(t)

    def is_trivial(self) -> bool:
        return all(self.chi.evaluate(t) == 1 for t in self.elements)


def restrict_character(chi: TorusCharacter, subgroup_elements) -> RestrictedCharacter:
    return RestrictedCharacter(chi, subgroup_elements)
