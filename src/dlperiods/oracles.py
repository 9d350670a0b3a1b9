"""Independent brute-force constructions of R_{T,1} used as oracles.

Nothing here touches the Green combinatorics.  For GL_n the virtual
characters R_{T_rho,1} are assembled from parabolic permutation characters
with coefficients solved from the symmetric-group side (Kostka numbers are
recounted as raw tableau counts).  For U_2 the two torus characters come
from fixed isotropic-line counts: Ind_B(1) for the quasi-split torus and
2*triv - Ind_B(1) for the anisotropic one.  U_3's quasi-split column is
again an isotropic-line count.  The brute-force scans over G^F that tests
compare the library against (centralizers, transporters into a torus)
live here too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import matrixops as mx
from .green import kostka_number, partitions_of, sym_char
from .groups import Group, GroupSpec, group


def parabolic_members(G: Group, composition):
    """Block upper triangular subgroup P for the ordered composition."""
    cuts = []
    acc = 0
    for c in composition:
        acc += c
        cuts.append(acc)

    def in_p(g):
        for i in range(G.n):
            for j in range(G.n):
                if g[i][j] != 0:
                    bi = next(b for b, cut in enumerate(cuts) if i < cut)
                    bj = next(b for b, cut in enumerate(cuts) if j < cut)
                    if bi > bj:
                        return False
        return True

    return tuple(g for g in G.elements() if in_p(g))


def permutation_character(G: Group, subgroup_members, sub_order: int):
    """Values of Ind_P^G(1) on conjugacy classes.

    #(transporter of g into P) = |C_G(g)| * |P meet class(g)|, so the induced
    value is |G| * |P meet class(g)| / (|class(g)| * |P|): one pass over P.
    """
    classes = G.conjugacy_classes()
    counts = [0] * len(classes)
    for p in subgroup_members:
        counts[G.class_of(p)] += 1
    total = G.order()
    vals = {}
    for cid, (_, size) in enumerate(classes):
        num = total * counts[cid]
        assert num % (size * sub_order) == 0
        vals[cid] = num // (size * sub_order)
    return vals


@lru_cache(maxsize=None)
def _parabolic_coefficients(n: int, rho: tuple):
    """Solve sum_lam c_lam K_{mu,lam} = chi^mu(rho) over the rationals."""
    plist = partitions_of(n)
    K = [[Fraction(kostka_number(mu, lam)) for lam in plist] for mu in plist]
    target = [Fraction(sym_char(mu, rho)) for mu in plist]
    m = len(plist)
    aug = [K[i] + [target[i]] for i in range(m)]
    # plain Gaussian elimination over Q
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        row += 1
    assert row == m, "Kostka matrix must be invertible"
    sol = [aug[i][m] for i in range(m)]
    return dict(zip(plist, sol))


def gl_rti_class_values(n: int, q: int, rho: tuple):
    """R_{T_rho,1} of GL_n(F_q) on conjugacy classes via parabolic induction only."""
    G = group(GroupSpec("GL", n, q))
    coeffs = _parabolic_coefficients(n, tuple(sorted(rho, reverse=True)))
    total = {cid: Fraction(0) for cid in range(len(G.conjugacy_classes()))}
    for lam, c in coeffs.items():
        if c == 0:
            continue
        P = parabolic_members(G, lam)
        pc = permutation_character(G, P, len(P))
        for cid, v in pc.items():
            total[cid] += c * v
    out = {}
    for cid, v in total.items():
        assert v.denominator == 1
        out[cid] = v.numerator
    return out


def isotropic_lines(G: Group):
    """Projective isotropic lines for the identity Hermitian form."""
    ops = G.ops
    n, q = G.n, G.q
    lines = []
    seen = set()
    for v in mx.nonzero_span(ops, G.identity):
        # normalize: first nonzero entry 1
        lead = next(i for i in range(n) if v[i])
        if v[lead] != 1:
            continue
        if v in seen:
            continue
        norm = 0
        for x in v:
            if x:
                norm = ops.add(norm, ops.mul(ops.pow(x, q), x))
        if norm == 0:
            lines.append(v)
            seen.add(v)
    return lines


def u_ind_b_values(n: int, q: int):
    """Ind_B^G(1) for U_n as fixed isotropic-line counts, per conjugacy class.

    Valid as the full flag permutation character for n = 2, 3 where the flag
    variety is the isotropic-line variety.
    """
    assert n in (2, 3)
    G = group(GroupSpec("U", n, q))
    lines = isotropic_lines(G)
    line_set = {line: None for line in lines}

    def line_of(v):
        lead = next(i for i in range(len(v)) if v[i])
        inv = G.ops.inv(v[lead])
        return tuple(G.ops.mul(inv, x) for x in v)

    vals = {}
    for cid, (rep, _) in enumerate(G.conjugacy_classes()):
        count = 0
        for line in lines:
            if line_of(mx.mat_vec(G.ops, rep, line)) in line_set:
                if line_of(mx.mat_vec(G.ops, rep, line)) == line:
                    count += 1
        vals[cid] = count
    return vals


def u2_rti_class_values(q: int, rho: tuple):
    """R_{T_rho,1} for U_2(F_q): Ind_B(1) and its reflection 2*triv - Ind_B(1)."""
    G = group(GroupSpec("U", 2, q))
    ind = u_ind_b_values(2, q)
    if rho == (2,):
        return ind
    assert rho == (1, 1)
    return {cid: 2 - v for cid, v in ind.items()}


# ---------------------------------------------------------------------------
# scans over G^F


def centralizer(G: Group, s):
    """All x in G^F commuting with s."""
    return tuple(x for x in G.elements() if G.mul(x, s) == G.mul(s, x))


def nset(G: Group, s, torus_keys):
    """All x in G^F with x^-1 s x in T^F, plus left-coset count data.

    Returns (members, centralizer_elements, coset_reps).
    """
    members = []
    for x in G.elements():
        if G.key(G.conj(s, x)) in torus_keys:
            members.append(x)
    cent = centralizer(G, s) if members else ()
    reps, used = [], set()
    for x in members:
        kx = G.key(x)
        if kx in used:
            continue
        reps.append(x)
        for z in cent:
            used.add(G.key(G.mul(z, x)))
    if members:
        assert len(members) == len(reps) * len(cent), "coset decomposition mismatch"
    return members, cent, reps


def conjugate_into(G: Group, g, target_keys):
    """Some x in G^F with x^-1 g x in the target set, or None."""
    for x in G.elements():
        if G.key(G.conj(g, x)) in target_keys:
            return x
    return None
