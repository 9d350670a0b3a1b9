"""Matrix arithmetic over a finite field.

Matrices are tuples of row tuples of int-encoded field elements and are
always paired with the FieldOps of their entry field.  Sizes stay tiny
(n <= 4 per group factor) so everything is direct: Leibniz determinants,
Gauss-Jordan inverses, exhaustive polynomial factor sieves.  Polynomials
over the field are `intpoly` tuples with the FieldOps as their ring.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from . import intpoly
from .errors import SizeCapError
from .ffield import FieldOps, FieldSpec, ops_for


def mat_id(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(ops: FieldOps, A, B):
    n, m, r = len(A), len(B), len(B[0]) if B else 0
    add, mul = ops.add, ops.mul
    Bt = tuple(zip(*B))
    out = []
    for row in A:
        orow = []
        for col in Bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def mat_vec(ops: FieldOps, A, v):
    add, mul = ops.add, ops.mul
    out = []
    for row in A:
        acc = 0
        for x, y in zip(row, v):
            if x and y:
                acc = add(acc, mul(x, y))
        out.append(acc)
    return tuple(out)


def mat_pow(ops: FieldOps, A, e: int):
    n = len(A)
    if e < 0:
        A, e = mat_inv(ops, A), -e
    result = mat_id(n)
    while e:
        if e & 1:
            result = mat_mul(ops, result, A)
        A = mat_mul(ops, A, A)
        e >>= 1
    return result


def mat_add(ops: FieldOps, A, B):
    return tuple(tuple(ops.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(ops: FieldOps, A, B):
    return tuple(tuple(ops.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(ops: FieldOps, c, A):
    return tuple(tuple(ops.mul(c, x) for x in row) for row in A)


def transpose(A):
    return tuple(zip(*A))


def entrywise_pow(ops: FieldOps, A, e: int):
    return tuple(tuple(ops.pow(x, e) for x in row) for row in A)


def _rref(ops: FieldOps, rows):
    """Row-reduce a list of row tuples; returns (rref rows, pivot columns)."""
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ops.inv(rows[r][c])
        rows[r] = [ops.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def mat_rank(ops: FieldOps, A) -> int:
    if not A:
        return 0
    reduced, _ = _rref(ops, A)
    return len(reduced)


def kernel_basis(ops: FieldOps, A):
    """Basis of the right kernel {v : Av = 0}."""
    if not A:
        return [tuple()]
    n_cols = len(A[0])
    reduced, pivots = _rref(ops, A)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n_cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = ops.neg(reduced[r][fc])
        basis.append(tuple(v))
    return basis


def mat_inv(ops: FieldOps, A):
    n = len(A)
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    reduced, pivots = _rref(ops, aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(reduced[i][n:]) for i in range(n))


def is_invertible(ops: FieldOps, A) -> bool:
    return mat_rank(ops, A) == len(A)


def restrict_to_subspace(ops: FieldOps, A, basis):
    """Matrix of A on span(basis) w.r.t. basis (the span must be A-invariant)."""
    cols = [mat_vec(ops, A, b) for b in basis]
    M = [list(b) for b in basis]  # rows = basis vectors
    sol_rows = []
    for img in cols:
        coeffs = solve_in_span(ops, M, img)
        sol_rows.append(coeffs)
    # sol_rows[j] = coordinates of A*basis_j; matrix columns are images
    return tuple(zip(*sol_rows))


def solve_in_span(ops: FieldOps, basis_rows, target):
    """Coordinates of target in the basis (rows); ValueError if it lies outside the span."""
    aug = [list(row) + [t] for row, t in zip(zip(*basis_rows), target)]
    rows = [list(r) for r in aug]
    ncols = len(basis_rows)
    reduced, pivots = _rref(ops, rows)
    sol = [0] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            raise ValueError("vector outside span")
        sol[pc] = reduced[r][ncols]
    return tuple(sol)


def nonzero_span(ops: FieldOps, basis):
    """Every nonzero F_Q-combination of the basis vectors, in code order.

    The coefficients of code = 1, 2, ..., Q^len(basis) - 1 are its base-Q
    digits, the first basis vector least significant.
    """
    Q = ops.q
    add, mul = ops.add, ops.mul
    zero = (0,) * len(basis[0]) if basis else ()
    for code in range(1, Q ** len(basis)):
        v, rest = zero, code
        for b in basis:
            rest, c = divmod(rest, Q)
            if c:
                v = tuple(add(x, mul(c, y)) for x, y in zip(v, b))
        yield v


# ---------------------------------------------------------------------------
# polynomials with coefficients in the field (intpoly tuples, ring = FieldOps)


def poly_at_matrix(ops: FieldOps, a, M):
    """a(M) by Horner's rule."""
    n = len(M)
    acc = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    for c in reversed(a):
        acc = mat_mul(ops, acc, M)
        if c:
            acc = mat_add(ops, acc, mat_scale(ops, c, mat_id(n)))
    return acc


def charpoly(ops: FieldOps, A):
    """det(xI - A) by Leibniz expansion; fine for n <= 4."""
    n = len(A)
    total = ()
    for perm in permutations(range(n)):
        sign_swaps = _perm_parity(perm)
        term = (1,)
        for i in range(n):
            j = perm[i]
            entry = (ops.neg(A[i][j]), 1) if i == j else (ops.neg(A[i][j]),)
            term = intpoly.mul(term, intpoly.trim(entry), ops)
        if sign_swaps:
            term = intpoly.neg(term, ops)
        total = intpoly.add(total, term, ops)
    return total


def _perm_parity(perm) -> bool:
    seen = [False] * len(perm)
    odd = False
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            odd = not odd
    return odd


@lru_cache(maxsize=None)
def monic_irreducibles(spec: FieldSpec, d: int):
    """All monic irreducibles of degree d over the field, ascending encoding."""
    ops = ops_for(spec)
    if spec.q**d > 10**5:
        raise SizeCapError(f"irreducible sieve over {spec} at degree {d} too large")
    smaller = [f for dd in range(1, d) for f in monic_irreducibles(spec, dd)]
    out = []
    for tail in product(range(spec.q), repeat=d):
        f = tuple(tail) + (1,)
        if any(not intpoly.divmod(f, g, ops)[1] for g in smaller if len(g) - 1 <= d // 2):
            continue
        out.append(f)
    return tuple(out)


def factor_poly(ops: FieldOps, f):
    """Factor into monic irreducibles by trial division; [(irred, multiplicity)]."""
    f = intpoly.monic(f, ops)
    out = []
    d = 1
    while len(f) - 1 > 0:
        if len(f) - 1 < 2 * d:
            out.append((f, 1))
            break
        progressed = False
        for g in monic_irreducibles(ops.spec, d):
            mult = 0
            while True:
                q, r = intpoly.divmod(f, g, ops)
                if r:
                    break
                f, mult = q, mult + 1
            if mult:
                out.append((g, mult))
                progressed = True
            if len(f) - 1 < d:
                break
        d += 1
        if d > 8 and not progressed:
            raise AssertionError("factorization ran away")
    # merge duplicates (possible when the tail branch fires after partial splits)
    merged = {}
    for g, m in out:
        merged[g] = merged.get(g, 0) + m
    return sorted(merged.items())
