"""Certified multi-modular rank of exact rational matrices, by sparse elimination.

A matrix is ranked as ``SparseRows`` (each row's columns and integer
values, zeros optional): ``homology`` reads coboundaries off their
signed incidences, ``matroids.LinearMatroid`` hands over its chosen
columns to rank modulo its own prime (checked by the same primality
test), and other input (rows or arrays of integers, Fractions or
integral floats) is converted, each row cleared of denominators.

Modulo a prime p < 2**31, each incoming row is reduced on its largest
column by the stored row pivoting there, as in persistence reduction,
until it vanishes or is stored with a leading 1; rows are {column:
residue} dicts, and more than ``MAX_FILL`` stored entries raise a
ValueError giving the shape.  The rank modulo p is at most the rank
over Q, so the largest rank r seen is a lower bound, exact when r =
min(m, n).  Otherwise primes are added until their product P exceeds
the Hadamard bound H on every (r+1)-minor, the smaller of the products
of the r+1 largest squared row norms and of the r+1 largest squared
column norms (for a degree-k coboundary: k+2, and the coface counts).
A nonzero (r+1)-minor would be divisible by P, and |minor| <= H < P
leaves only zero: the rank is r, deterministically.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

__all__ = ["SparseRows", "rank_exact", "rank_first_prime"]

#: Most entries the stored rows of one elimination may hold, about 100
#: bytes each in dicts; pg33's 72540 x 9360 d_2 stores 34686.
MAX_FILL = 1 << 20


def _is_prime(q: int) -> bool:
    """Whether q is prime: Miller-Rabin with bases 2, 3, 5 and 7, which
    is deterministic below 3,215,031,751 (Jaeschke 1993)."""
    if q < 2:
        return False
    for a in (2, 3, 5, 7):
        if q % a == 0:
            return q == a
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


#: Primes below 2**31 found so far, largest first; ``_primes`` extends
#: it, so each candidate is tested once per process.
_PRIMES: list[int] = []
_PRIMES_LOCK = threading.Lock()


def _primes():
    """Primes below 2**31 (and above 10), largest first."""
    i = 0
    while True:
        if i == len(_PRIMES):
            with _PRIMES_LOCK:
                if i == len(_PRIMES):
                    q = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
                    while q > 10 and not _is_prime(q):
                        q -= 2
                    if q <= 10:
                        return
                    _PRIMES.append(q)
        yield _PRIMES[i]
        i += 1


class SparseRows(NamedTuple):
    """An integer matrix by its entries, zeros optional: ``rows`` yields
    the pair (columns, values) of each row in order, on every pass over
    it, and one values list may serve many rows."""

    shape: tuple[int, int]
    rows: Iterable

    def squared_norms(self) -> tuple[list[int], list[int]]:
        """Exact squared norms of the rows and of the columns, largest first."""
        rows, cols = [], [0] * self.shape[1]
        for cs, vs in self.rows:
            rows.append(sum(v * v for v in vs))
            for c, v in zip(cs, vs):
                cols[c] += v * v
        return sorted(rows, reverse=True), sorted(cols, reverse=True)


def _int_row(row) -> list[int]:
    """One row as Python ints, its denominators cleared."""
    conv = []
    for e in row:
        if isinstance(e, float) and not e.is_integer():
            raise ValueError("rank_exact needs exact integer or rational entries")
        conv.append(Fraction(e))
    den = math.lcm(*(f.denominator for f in conv))
    return [int(f * den) for f in conv]


def _sparse(mat) -> SparseRows:
    """``mat`` itself when it is SparseRows, otherwise its integer rows
    in that form."""
    if isinstance(mat, SparseRows):
        return mat
    rows = [_int_row(r) for r in (mat.tolist() if hasattr(mat, "tolist") else mat)]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    return SparseRows((len(rows), len(rows[0]) if rows else 0),
                      [([j for j, e in enumerate(r) if e], [e for e in r if e]) for r in rows])


def _rank_mod(a: SparseRows, p: int) -> int:
    """Rank of ``a`` modulo p, rows reduced on their largest column."""
    n = a.shape[1]
    pivots: dict[int, dict[int, int]] = {}
    fill = 0
    for cols, vals in a.rows:
        row = {c: r for c, v in zip(cols, vals) if (r := v % p)}
        while row:
            c = max(row)
            pivot = pivots.get(c)
            if pivot is None:
                if row[c] != 1:
                    inv = pow(row[c], -1, p)
                    row = {j: v * inv % p for j, v in row.items()}
                pivots[c] = row
                fill += len(row)
                if fill > MAX_FILL:
                    raise ValueError(f"sparse elimination of a {a.shape[0]} x {n} matrix stores "
                                     f"more than the budget of {MAX_FILL} entries")
                break
            f = row[c]
            for j, v in pivot.items():
                w = (row.get(j, 0) - f * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
        if len(pivots) == n:
            break
    return len(pivots)


def rank_first_prime(mat) -> int:
    """Rank modulo the first prime of ``rank_exact`` (2**31 - 1): a lower
    bound on the rank over Q, which ``rank_exact`` accepts as ``first``."""
    return _rank_mod(_sparse(mat), next(_primes()))


def rank_exact(mat, first: int | None = None) -> int:
    """Rank over the rationals, certified by primes and a Hadamard bound.

    ``mat`` is SparseRows, or nested rows or an array holding integers,
    Fractions or integral floats, whose rows are cleared of denominators
    first.  Anything else (1.5, nan, inf) raises ValueError.  ``first``,
    when given, is ``rank_first_prime`` of the same matrix, and that
    elimination is not repeated.
    """
    a = _sparse(mat)
    full = min(a.shape)
    if full == 0:
        return 0
    rank, product, rows, cols = 0, 1, None, None
    for i, p in enumerate(_primes()):
        rank = max(rank, first if i == 0 and first is not None else _rank_mod(a, p))
        if rank == full:
            return rank
        if rows is None:
            rows, cols = a.squared_norms()
        product *= p
        if product * product > min(math.prod(rows[: rank + 1]), math.prod(cols[: rank + 1])):
            return rank
    raise ArithmeticError("the primes below 2**31 cannot certify this rank")
