"""Exact arithmetic in finite-field towers GF(p^k).

Elements are encoded as integers in [0, p^k): the residue polynomial
c_0 + c_1 x + ... + c_{k-1} x^{k-1} is stored as c_0 + c_1 p + ... +
c_{k-1} p^{k-1}.  The modulus of GF(p^k) is the monic irreducible of
degree k whose coefficient tuple has the least integer encoding, so
every run reproduces the same tower bit for bit.

Multiplication, inversion and discrete logs go through exp/log tables
for fields up to 2^16 elements; larger fields (up to the 2^24 cap) fall
back to direct polynomial arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import intpoly
from .errors import SizeCapError, UnsupportedError

FIELD_SIZE_CAP = 2**24
TABLE_CAP = 2**16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> dict:
    """Prime factorization by trial division, {prime: exponent}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class PrimeField:
    """GF(p) as an intpoly coefficient ring on the residues 0..p-1.

    It builds the moduli and the exp/log tables, so it cannot be a FieldOps.
    """

    def __init__(self, p: int):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)


def _is_irreducible(mod, p):
    """Monic mod of degree k is irreducible iff x^{p^k} = x (mod) and
    gcd(x^{p^{k/t}} - x, mod) = 1 for each prime t | k."""
    k = len(mod) - 1
    if k == 1:
        return True
    ring = PrimeField(p)
    x = (0, 1)
    if intpoly.sub(intpoly.powmod(x, p**k, mod, ring), x, ring):
        return False
    for t in factorize(k):
        d = k // t
        g = intpoly.gcd(intpoly.sub(intpoly.powmod(x, p**d, mod, ring), x, ring), mod, ring)
        if len(g) - 1 != 0:
            return False
    return True


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^k) with a fixed monic irreducible modulus (coefficient tuple, constant first)."""

    p: int
    k: int
    modulus: tuple

    @property
    def q(self) -> int:
        return self.p**self.k

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldSpec:
    """The canonical GF(p^k): least monic irreducible modulus of degree k."""
    if not is_prime(p):
        raise UnsupportedError(f"p={p} is not prime")
    if k < 1:
        raise UnsupportedError(f"extension degree k={k} must be >= 1")
    if p**k > FIELD_SIZE_CAP:
        raise SizeCapError(f"field size {p}^{k} exceeds cap 2^24")
    for m in range(p**k):
        coeffs = []
        mm = m
        for _ in range(k):
            coeffs.append(mm % p)
            mm //= p
        mod = tuple(coeffs) + (1,)
        if _is_irreducible(mod, p):
            return FieldSpec(p, k, mod)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldOps:
    """Computational engine for one FieldSpec; operates on int-encoded elements."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.k = spec.k
        self.q = spec.q
        self._mod = spec.modulus
        self._prime = PrimeField(spec.p)
        self.exp = None
        self.log = None
        self.generator = None
        if self.q <= TABLE_CAP:
            self._build_tables()

    # -- raw polynomial fallback -------------------------------------------------
    def _decode(self, a):
        c, p = [], self.p
        for _ in range(self.k):
            c.append(a % p)
            a //= p
        return intpoly.trim(c)

    def _encode(self, poly):
        v = 0
        for c in reversed(poly):
            v = v * self.p + c
        return v

    def _raw_mul(self, a, b):
        prod = intpoly.mul(self._decode(a), self._decode(b), self._prime)
        return self._encode(intpoly.divmod(prod, self._mod, self._prime)[1])

    def _build_tables(self):
        qm1 = self.q - 1
        prime_factors = list(factorize(qm1)) if qm1 > 1 else []
        g = None
        for cand in range(1, self.q):
            if all(self._raw_pow(cand, qm1 // t) != 1 for t in prime_factors) or qm1 == 1:
                g = cand
                break
        assert g is not None
        exp = [1] * qm1
        for i in range(1, qm1):
            exp[i] = self._raw_mul(exp[i - 1], g)
        log = [0] * self.q
        for i, v in enumerate(exp):
            log[v] = i
        self.exp, self.log, self.generator = exp, log, g

    def _raw_pow(self, a, e):
        return self._encode(intpoly.powmod(self._decode(a), e, self._mod, self._prime))

    # -- public int ops ------------------------------------------------------------
    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        p, out, mult = self.p, 0, 1
        for _ in range(self.k):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.p == 2:
            return a
        p, out, mult = self.p, 0, 1
        for _ in range(self.k):
            out += ((-(a % p)) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self.exp is not None:
            return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return self._raw_mul(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self.exp is not None:
            return self.exp[(-self.log[a]) % (self.q - 1)]
        return self._raw_pow(a, self.q - 2)

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return 0
        if self.exp is not None:
            return self.exp[(self.log[a] * e) % (self.q - 1)]
        if e < 0:
            return self._raw_pow(self.inv(a), -e)
        return self._raw_pow(a, e)

    def dlog(self, a, base=None):
        """Discrete log of a (nonzero) w.r.t. base (default: table generator)."""
        if a == 0:
            raise ZeroDivisionError("dlog of zero")
        if self.exp is None:
            raise SizeCapError(f"discrete logs unavailable for fields over {TABLE_CAP} elements")
        la = self.log[a]
        if base is None:
            return la
        lb = self.log[base]
        qm1 = self.q - 1
        # solve lb * t = la mod q-1
        import math

        g = math.gcd(lb, qm1)
        if la % g:
            raise ValueError("element not in the cyclic group generated by base")
        return (la // g) * pow(lb // g, -1, qm1 // g) % (qm1 // g)

    def order(self, a):
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        n = self.q - 1
        for t, e in factorize(n).items():
            for _ in range(e):
                if self.pow(a, n // t) == 1:
                    n //= t
                else:
                    break
        return n

    def elem_of_order(self, m):
        """Canonical element of multiplicative order m: generator^((q-1)/m)."""
        if (self.q - 1) % m:
            raise ValueError(f"no element of order {m} in {self.spec}")
        if self.exp is None:
            raise SizeCapError("needs tables")
        return self.exp[(self.q - 1) // m] if m > 1 else 1


@lru_cache(maxsize=None)
def ops_for(spec: FieldSpec) -> FieldOps:
    return FieldOps(spec)


@lru_cache(maxsize=None)
def embedding(sub: FieldSpec, sup: FieldSpec):
    """Entry map GF(p^k1) -> GF(p^k2), k1 | k2: the least root of sub's modulus.

    Returns a tuple `emb` with emb[v] = image of v, deterministic per pair.
    """
    if sub.p != sup.p or sup.k % sub.k != 0:
        raise UnsupportedError(f"no embedding {sub} -> {sup}")
    if sub == sup:
        return tuple(range(sub.q))
    f = ops_for(sup)
    root = next((cand for cand in range(sup.q) if intpoly.evaluate(sub.modulus, cand, f) == 0), None)
    assert root is not None, "modulus has no root in the extension"
    images = []
    for v in range(sub.q):
        acc, vv, power = 0, v, 1
        for _ in range(sub.k):
            digit = vv % sub.p
            vv //= sub.p
            acc = f.add(acc, f.mul(digit % sub.p, power))
            power = f.mul(power, root)
        images.append(acc)
    return tuple(images)
