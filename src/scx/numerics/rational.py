"""Certified multi-modular rank of exact rational matrices.

rank_exact gives the rank over the rationals.  Rows with fractions are
cleared of denominators row by row, which leaves the rank alone, and
the integer matrix is eliminated modulo primes p < 2**31 in numpy int64
(every product of two residues stays below 2**62).  The rank modulo p
never exceeds the rank over Q, so the largest rank r seen is a lower
bound; it is exact at once when r = min(m, n).  Otherwise primes are
added until their product P exceeds the Hadamard bound H on every
(r+1)-minor: the smaller of the products of the r+1 largest row norms
and of the r+1 largest column norms.  A nonzero (r+1)-minor would be
divisible by every prime used (the rank is at most r modulo each), so
by P, and |minor| <= H < P leaves only zero: the rank is r.  The
comparison P**2 > H**2 is made on exact Python integers.  The answer
is deterministic, never probabilistic.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

import numpy as np

__all__ = ["rank_exact", "rank_first_prime"]


def _is_prime(q: int) -> bool:
    """Miller-Rabin for odd q > 7 with bases 2, 3, 5, 7, which is
    deterministic below 3.2e9."""
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


def _as_int_rows(mat) -> list[list[int]]:
    """Rows of Python ints, each row's denominators cleared."""
    if hasattr(mat, "tolist"):
        rows = mat.tolist()
    else:
        rows = [list(r) for r in mat]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    out = []
    for row in rows:
        conv = []
        for e in row:
            if isinstance(e, float):
                if not e.is_integer():
                    raise ValueError("rank_exact needs exact integer or rational entries")
                e = int(e)
            conv.append(Fraction(e))
        den = math.lcm(*(f.denominator for f in conv)) if conv else 1
        out.append([int(f * den) for f in conv])
    return out


def _as_int_matrix(mat) -> np.ndarray:
    """The matrix as int64 when it is an integer ndarray that fits,
    otherwise as an object array of Python ints, each row cleared of
    denominators."""
    if isinstance(mat, np.ndarray) and mat.ndim == 2 and np.can_cast(mat.dtype, np.int64):
        return mat.astype(np.int64, copy=False)
    rows = _as_int_rows(mat)
    out = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    if rows:
        out[:] = rows
    return out


def _squared_norms(a: np.ndarray, axis: int) -> list[int]:
    """Exact squared norms of the rows (axis=1) or columns (axis=0),
    largest first."""
    if a.dtype != object:
        big = max(int(a.max()), -int(a.min()))
        if big * big * max(a.shape) >= 2**63:
            a = a.astype(object)
    return sorted((a * a).sum(axis=axis).tolist(), reverse=True)


def _rank_mod(a: np.ndarray, p: int) -> int:
    """Rank modulo p of an int64 matrix with entries in [0, p); ``a`` is
    overwritten."""
    m, n = a.shape
    r = 0
    for j in range(n):
        nz = np.flatnonzero(a[r:, j])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        if nz.size > 1:
            pivot = a[r, j:] * pow(int(a[r, j]), -1, p) % p
            rows = r + nz[1:]
            a[rows, j:] = (a[rows, j:] - np.outer(a[rows, j], pivot)) % p
        r += 1
        if r == m:
            break
    return r


def _oriented(mat) -> np.ndarray:
    """The integer matrix, transposed if need be to have no more columns
    than rows: elimination runs along the shorter side."""
    a = _as_int_matrix(mat)
    if a.shape[1] > a.shape[0]:
        a = a.T
    return np.ascontiguousarray(a)


def rank_first_prime(mat) -> int:
    """Rank modulo the first prime of ``rank_exact`` (2**31 - 1): a lower
    bound on the rank over Q, which ``rank_exact`` accepts as ``first``."""
    a = _oriented(mat)
    if 0 in a.shape:
        return 0
    p = next(_primes())
    return _rank_mod((a % p).astype(np.int64, copy=False), p)


def rank_exact(mat, first: int | None = None) -> int:
    """Rank over the rationals, certified by primes and a Hadamard bound.

    Integer ndarrays are reduced modulo each prime in numpy; any other
    input (nested lists, float or object arrays) must
    hold integers, Fractions or integral floats, and its rows are
    cleared of denominators first.  Anything else (1.5, nan, inf)
    raises ValueError.  ``first``, when given, is ``rank_first_prime``
    of the same matrix, and that elimination is not repeated.
    """
    a = _oriented(mat)
    full = min(a.shape)
    if full == 0:
        return 0
    rank, product, rows, cols = 0, 1, None, None
    for i, p in enumerate(_primes()):
        if i == 0 and first is not None:
            rank = first
        else:
            rank = max(rank, _rank_mod((a % p).astype(np.int64, copy=False), p))
        if rank == full:
            return rank
        if rows is None:
            rows, cols = _squared_norms(a, 1), _squared_norms(a, 0)
        product *= p
        if product * product > min(math.prod(rows[: rank + 1]), math.prod(cols[: rank + 1])):
            return rank
    raise ArithmeticError("the primes below 2**31 cannot certify this rank")
