"""Certified multi-modular rank of exact rational matrices, by sparse elimination.

A matrix is ranked as ``SparseRows`` (each row's columns and integer
values, zeros optional): ``homology`` builds coboundary rows from the
face masks, ``matroids.LinearMatroid`` hands over its chosen columns
to rank modulo its own prime (checked by the same primality test), and
other input (rows or arrays of integers, Fractions or integral floats)
is converted, each row cleared of denominators.

Modulo a prime p < 2**31, each incoming row is reduced on its largest
column by the stored row pivoting there, as in persistence reduction,
until it vanishes or is stored with a leading 1; rows are {column:
residue} dicts, and more than ``MAX_FILL`` stored entries raise a
ValueError giving the shape.  The rank modulo p is at most the rank over
Q, so the largest rank r seen is a lower bound.  A caller that knows an
upper bound on the rank over Q passes it as ``bound`` (for a coboundary:
f_k minus the rank of the one below, since it squares to zero), and
every prime's elimination stops once it holds min(m, n, bound) pivots:
no row left could add one.  A modular rank that reaches that number is
the rank over Q.  Otherwise primes are added until their product P
exceeds the Hadamard bound H on every (r+1)-minor, the smaller of the
products of the r+1 largest squared row norms and of the r+1 largest
squared column norms (for a degree-k coboundary: k+2, and the coface
counts).  A nonzero (r+1)-minor would be divisible by P, and |minor| <=
H < P leaves only zero: the rank is r, deterministically.

``psd_rank`` decides positive semidefiniteness of a symmetric integer
matrix exactly, by fraction-free symmetric elimination (Bareiss, Sylvester's
identity and integer-preserving Gaussian elimination, 1968) on positive
diagonal pivots.  After each pivot every entry left is the pivots'
principal minor (positive) times the Schur complement's entry
(Sylvester's determinant identity), computed with one exact division by
the previous pivot, so it stays an integer with the sign of the Schur
complement's.  By Sylvester's law of inertia the matrix is PSD iff no
diagonal left turns negative and a diagonal left at zero has a zero row,
and its rank is then the number of pivots.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

__all__ = ["SparseRows", "psd_rank", "rank_exact"]

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


def _primes():
    """Primes below 2**31 (and above 10), largest first: the Mersenne
    prime 2**31 - 1, then the odd numbers below it that pass
    ``_is_prime``.  Most ranks stop at the first, which takes no test."""
    yield 2**31 - 1
    for q in range(2**31 - 3, 10, -2):
        if _is_prime(q):
            yield q


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


def _rank_mod(a: SparseRows, p: int, bound: int | None = None) -> int:
    """Rank of ``a`` modulo p, rows reduced on their largest column.

    The elimination stops once it holds min(n, bound) pivots, so
    ``bound`` must be an upper bound on that rank; the rank returned
    is then still exact (the rows left unread could add no pivot)."""
    n = a.shape[1]
    stop = n if bound is None else min(n, bound)
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
        if len(pivots) >= stop:
            break
    return len(pivots)


def rank_exact(mat, bound: int | None = None) -> int:
    """Rank over the rationals, certified by primes and a Hadamard bound.

    ``mat`` is SparseRows, or nested rows or an array holding integers,
    Fractions or integral floats, whose rows are cleared of denominators
    first.  Anything else (1.5, nan, inf) raises ValueError.  ``bound``,
    when given, must bound the rank over Q from above; each prime's
    elimination stops at min(m, n, bound) pivots, and the first modular
    rank to reach that number is returned.
    """
    a = _sparse(mat)
    full = min(a.shape) if bound is None else min(*a.shape, bound)
    if full == 0:
        return 0
    rank, product, rows, cols = 0, 1, None, None
    for p in _primes():
        rank = max(rank, _rank_mod(a, p, full))
        if rank == full:
            return rank
        if rows is None:
            rows, cols = a.squared_norms()
        product *= p
        if product * product > min(math.prod(rows[: rank + 1]), math.prod(cols[: rank + 1])):
            return rank
    raise ArithmeticError("the primes below 2**31 cannot certify this rank")


def psd_rank(rows) -> int | None:
    """Rank of the symmetric integer matrix ``rows`` (a sequence of rows
    of Python ints) when it is positive semidefinite; None when it is
    not.  Each step pivots on the largest diagonal left; any negative
    diagonal answers None at once, and when the largest is 0 the matrix
    left must be all zeros (a PSD matrix has no nonzero entry in a
    zero-diagonal row), or the answer is None.  A matrix that is not
    square and symmetric raises ValueError; the input is not modified."""
    a = [list(r) for r in rows]
    if any(len(r) != len(a) for r in a) or list(map(list, zip(*a))) != a:
        raise ValueError("psd_rank needs a square symmetric matrix")
    prev, rank = 1, 0
    while a:
        diag = [r[i] for i, r in enumerate(a)]
        if min(diag) < 0:
            return None
        piv = max(diag)
        if piv == 0:
            return rank if not any(map(any, a)) else None
        p = diag.index(piv)
        prow = a.pop(p)
        del prow[p]
        for i, r in enumerate(a):
            f = r.pop(p)
            a[i] = [(piv * v - f * w) // prev for v, w in zip(r, prow)]
        prev = piv
        rank += 1
    return rank
