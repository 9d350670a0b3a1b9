"""Workload definitions, input generation and output checks.

Everything here is computed by the benchmark itself, without importing the
library: random elements with its own mod-p rank, value digests, and the
integer vector behind <R, R>.

Each workload has fixed inputs: the same characters and the same elements in
every run, so that every run does the same work and the outputs can be
digested against a reference.  `--seed` sets the order in which they are
visited.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Part:
    """One group's share of a workload."""

    kind: str  # "sweep": DL tables over all classes; "values": dl_value at sampled elements
    family: str
    n: int
    q: int
    characters: int  # characters per torus class, evenly spaced; 0 means all
    sample: int = 0  # sampled elements on a values part, besides the identity

    @property
    def group(self) -> str:
        return f"{self.family}{self.n}(F{self.q})"


# A workload is solved part by part, in order, in one process.
WORKLOADS = {
    "unitary": (Part("sweep", "U", 2, 5, characters=0), Part("values", "U", 3, 3, characters=0, sample=2)),
    "values-gl4f3": (Part("values", "GL", 4, 3, characters=2, sample=5),),
}

SAMPLE_STREAM = "perfbench sample"  # fixed random stream of the sampled elements, see WORKLOADS.md

# The first 2 semisimple draws of SAMPLE_STREAM over U3(F3), its elements
# sorted by Group.key; entries are the library's codes of F9.  Written out so
# that no solve has to enumerate the group (checked by the benchmark's tests).
U3F3_SAMPLE = (
    ((0, 7, 8), (1, 0, 0), (0, 4, 5)),
    ((5, 7, 0), (1, 1, 7), (2, 2, 7)),
)


def instance_label(group, parts) -> str:
    return f"{group}[{'+'.join(map(str, parts))}]"


def character_indices(size: int, k: int):
    """k evenly spaced indices into a character list of this size (all if k is 0)."""
    if not k or k >= size:
        return list(range(size))
    return [i * size // k for i in range(k)]


def visiting_order(seed: int, items):
    """The items in the order the run with this seed visits them."""
    out = list(items)
    random.Random(f"order:{seed}").shuffle(out)
    return out


def rank_mod_p(m, p: int) -> int:
    """Rank of an integer matrix modulo a prime p."""
    rows = [[x % p for x in row] for row in m]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_invertible(rng: random.Random, n: int, p: int):
    """A uniformly random element of GL_n(F_p), by rejection."""
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if rank_mod_p(m, p) == n:
            return m


def gl_sample(n: int, p: int, count: int):
    """The first `count` uniform draws of GL_n(F_p) from the fixed stream."""
    rng = random.Random(SAMPLE_STREAM)
    return [random_invertible(rng, n, p) for _ in range(count)]


def semisimple_sample(elements, key, is_semisimple, count: int):
    """The first `count` semisimple draws from the fixed stream, over the
    elements sorted by key (so the sample does not depend on the order in
    which the library enumerates them)."""
    pool = sorted(elements, key=key)
    rng = random.Random(SAMPLE_STREAM)
    out = []
    while len(out) < count:
        g = pool[rng.randrange(len(pool))]
        if is_semisimple(g):
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# value canonical forms and checks


def canonical(value, conductor: int) -> str:
    """Exact text form of a value, written in Q(zeta_conductor)."""
    v = value.lift(conductor)
    return ",".join(str(c) for c in v.coeffs)


def table_digest(rows) -> str:
    """Digest of a sweep instance: rows are (class size, [value text per character]).

    Rows are sorted, so the digest depends on the class function, not on the
    order of the classes or the choice of representatives.
    """
    h = hashlib.sha256()
    for size, texts in sorted(rows):
        h.update(f"{size}|{';'.join(texts)}\n".encode())
    return h.hexdigest()


def text_digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def integer_coeffs(value):
    """Integer coefficients of a cyclotomic integer, or None if one is not integral."""
    out = []
    for c in value.coeffs:
        if c.denominator != 1:
            return None
        out.append(c.numerator)
    return out


def weighted_norm_vector(sized_values, conductor: int):
    """sum size * v * conj(v) as an unreduced vector on powers of zeta_conductor.

    Values must already be written in Q(zeta_conductor) with integer
    coefficients; returns None if one is not.
    """
    acc = [0] * conductor
    for size, value in sized_values:
        coeffs = integer_coeffs(value.lift(conductor))
        if coeffs is None:
            return None
        nz = [(i, a) for i, a in enumerate(coeffs) if a]
        for i, a in nz:
            for j, b in nz:
                acc[(i - j) % conductor] += size * a * b
    return acc


def median(xs):
    s = sorted(xs)
    k = len(s)
    return s[k // 2] if k % 2 else (s[k // 2 - 1] + s[k // 2]) / 2
