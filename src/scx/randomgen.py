"""Seeded instance generators for the property campaigns.

Every generator takes an explicit random.Random so that an instance is
reconstructible from (campaign seed, trial index) alone; trial_rng
derives the per-trial stream by hashing both through sha256, which keeps
streams independent of each other and of Python's hash randomization.

The complex recipe: pick n in [4, n_max] and a top missing cardinality
d+1 with d in [1, d_max], keep each (d+1)-subset with probability 1/2
(one cardinality is automatically an antichain), and with probability
1/4 mix in a lower cardinality kept at rate 1/4, dropping the larger
sets they sit inside.  Empty draws are rerolled.

Bounds that no draw can meet (n_max below 4 or d_max below 1 for the
complexes, n_max below 5 for linear and below 6 for mixed matroids) are
refused with a ValueError naming the parameter, before any draw.
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations

from .complexes import Complex, Partition, from_missing_faces
from .domination import VectorRepresentation, index_sets, total_domination
from .matroids import LinearMatroid, UniformMatroid

__all__ = [
    "trial_rng",
    "random_complex",
    "random_complex_pair",
    "random_single_layer_complex",
    "random_representation",
    "random_partition",
    "random_linear_matroid",
    "random_matroid",
]

#: Random linear matroids are over F_3 and rerolled below rank 2.
LINEAR_MODULUS = 3
LINEAR_MIN_RANK = 2


def trial_rng(seed: int, trial: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def random_complex(rng: random.Random, n_max: int = 7, d_max: int = 3,
                   n: int | None = None, mixed: bool = True) -> Complex:
    """A complex with at least one missing face, per the module recipe."""
    if n is None:
        _at_least("n_max", n_max, 4)
    _at_least("d_max", d_max, 1)
    while True:
        nn = n if n is not None else rng.randint(4, n_max)
        d = rng.randint(1, min(d_max, nn - 1))
        fam = [s for s in combinations(range(nn), d + 1) if rng.random() < 0.5]
        if mixed and d >= 2 and rng.random() < 0.25:
            low = rng.randint(2, d)
            extra = [s for s in combinations(range(nn), low) if rng.random() < 0.25]
            if extra:
                fam = [s for s in fam
                       if not any(set(e) <= set(s) for e in extra)] + extra
        if fam:
            return from_missing_faces(nn, sorted(fam, key=lambda s: (len(s), s)))


def random_complex_pair(rng: random.Random, n_max: int = 7, d_max: int = 3) -> list:
    """Two complexes on one vertex count drawn from [4, n_max]."""
    _at_least("n_max", n_max, 4)
    n = rng.randint(4, n_max)
    return [random_complex(rng, n_max, d_max, n=n) for _ in range(2)]


def random_single_layer_complex(rng: random.Random, n_max: int = 6,
                                d_max: int = 3) -> Complex:
    """All missing faces of one cardinality, rerolled until a totally
    dominating set exists (every vertex inside some missing face)."""
    _at_least("n_max", n_max, 4)
    _at_least("d_max", d_max, 1)
    while True:
        n = rng.randint(4, n_max)
        d = rng.randint(1, min(d_max, n - 1))
        fam = [s for s in combinations(range(n), d + 1) if rng.random() < 0.5]
        if not fam:
            continue
        x = from_missing_faces(n, fam)
        if not math.isinf(total_domination(x)):
            return x


def random_representation(rng: random.Random, x: Complex) -> VectorRepresentation:
    """Valid by construction: the anchor coordinate of every vector is a
    shared rational >= 1, so constrained inner products stay >= 1; the
    remaining coordinates are arbitrary nonnegative noise.  Entries are
    drawn as (numerator, denominator) pairs and handed over as integer
    rows times the lcm of their reduced denominators."""
    width = rng.randint(1, 3)
    scaled = {}
    for sigma in index_sets(x):
        anchor = (rng.randint(2, 6), rng.randint(1, 2))
        rows = [
            [anchor] + [(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(width - 1)]
            for _ in range(x.n)
        ]
        d = math.lcm(*{q // math.gcd(p, q) for row in rows for p, q in row})
        scaled[sigma] = (tuple(tuple(p * d // q for p, q in row) for row in rows), d)
    return VectorRepresentation._from_scaled(x, scaled)


def random_partition(rng: random.Random, n: int, m: int) -> Partition:
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= classes <= {n}, got {m}")
    verts = list(range(n))
    rng.shuffle(verts)
    cuts = sorted(rng.sample(range(1, n), m - 1))
    classes = []
    prev = 0
    for c in cuts + [n]:
        classes.append(verts[prev:c])
        prev = c
    return Partition(classes)


def random_linear_matroid(rng: random.Random, n_max: int = 9) -> LinearMatroid:
    """Nonzero random columns over F_3 (loopless), rerolled below rank 2."""
    _at_least("n_max", n_max, 5)
    while True:
        n = rng.randint(5, n_max)
        height = rng.randint(3, 4)
        cols = []
        for _ in range(n):
            c = (0,) * height
            while not any(c):
                c = tuple(rng.randrange(LINEAR_MODULUS) for _ in range(height))
            cols.append(c)
        m = LinearMatroid(LINEAR_MODULUS, cols)
        if m.full_rank >= LINEAR_MIN_RANK:
            return m


def random_matroid(rng: random.Random, n_max: int = 9):
    """A uniform matroid one time in three, else linear over F_3."""
    _at_least("n_max", n_max, 6)
    if rng.random() < 1 / 3:
        n = rng.randint(6, n_max)
        return UniformMatroid(rng.randint(2, min(4, n - 1)), n)
    return random_linear_matroid(rng, n_max=n_max)
