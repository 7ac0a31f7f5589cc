"""Eigenvalues of dense symmetric matrices: cyclic Jacobi sweeps, block by block.

``distinct_blocks`` is the package's one block split, read here and by
the exact PSD certificates of ``homology``.  A union-find over the
nonzero entries cuts the matrix into the connected components of its
pattern; with no entry coupling two principal blocks, the spectrum is
the union of theirs, and permuting them onto the diagonal is the
permutation step of Parlett-Reinsch balancing.  Each distinct block is
kept once, with the indices of its copies.  A matrix that is one block is returned as itself and a block
of side 1 as a view of its diagonal entry; larger blocks are copied
out.  When the distinct blocks' sides cubed sum past ``MAX_BLOCK_WORK``
= 2**21 (one block of side 128: a 0.6 s Jacobi solve, 0.15 s per exact
PSD test, on a 2-CPU x86-64 VM), the split raises a ValueError naming
the matrix side, the block count, the largest side and the budget
before any block is solved or tested.  The benchmark's largest block
has side 42.

``eigenvalues_sym`` solves each distinct block once, in place, and puts
its eigenvalues at each copy's rows before one stable sort.  Rotations
of different blocks touch disjoint entries, so each block ends as it
would inside the whole matrix after the same number of sweeps.  One
numpy kernel applies the rotations with vectorized column updates.

Convergence: a block's sweeps stop once its off-diagonal Frobenius norm
drops below tol = 1e-12 times its own Frobenius norm.  The squares of
these norms sum to the squares of the whole matrix's, so the whole
off-diagonal meets the same bound, and by Weyl's inequality every
eigenvalue is within tol (plus rounding) of the input's: an absolute
bound, not one relative to each eigenvalue.  A sweep skips the entries
of magnitude at most tol/m on a block of side m (Rutishauser's
threshold); were all of them that small, the off-diagonal norm would be
at most tol * sqrt((m-1)/m) and the sweeps would stop, so the skip
moves neither the stopping test nor the bound.  More than 100 sweeps
on a block raises EigenError, never a silent wrong answer.

Dense matrices alive at once: the input, never written to, and the
float64 working copy of the block being rotated.  The input is
validated and split in its own dtype (integer entries need no
finiteness test; input that is not an integer or float array, such as
a list of Fractions, is converted to float64 first), and each distinct
block is copied to float64 (an integer Laplacian converts exactly): a
matrix that is one block is copied whole, a split one block by block.
The symmetry test holds m x m booleans, an eighth of an int64 or
float64 copy.  The split reads the two index arrays of ``np.nonzero``,
not an m x m mask; the convergence test squares, in place, the strict
upper triangle of the block it rotates, gathered through one boolean
mask.
"""

from __future__ import annotations

import math

from .._lazy import lazy_import

np = lazy_import("numpy")

SWEEP_LIMIT = 100
OFF_TOL = 1e-12

#: Most work one split may hand on: the distinct blocks' sides cubed, summed.
MAX_BLOCK_WORK = 1 << 21


class EigenError(RuntimeError):
    """Eigensolver failed to converge within its sweep limit."""


def _off_norm(a, upper) -> float:
    """Frobenius norm of the off-diagonal of the symmetric ``a``.  The
    mask picks the strict upper triangle row by row, the order of
    ``np.triu_indices``, and the squares are taken in place."""
    off = a[upper]
    np.square(off, out=off)
    return math.sqrt(2.0 * float(np.sum(off)))


def _jacobi(a, tol):
    """Rotate ``a`` in place; sweeps used, or -1 if not converged within
    ``SWEEP_LIMIT`` sweeps."""
    m = a.shape[0]
    upper = ~np.tri(m, dtype=bool)  # strictly above the diagonal
    skip = tol / m  # entries all this small already pass the stopping test
    for sweep in range(SWEEP_LIMIT):
        if _off_norm(a, upper) <= tol:
            return sweep
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = float(a[p, q])
                if abs(apq) <= skip:
                    continue
                app = float(a[p, p])
                aqq = float(a[q, q])
                # |theta| < m / OFF_TOL past the skip; should it overflow (tol = 0),
                # it is inf as a Python float, with no warning, and t = 0.
                theta = (aqq - app) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                tau = s / (1.0 + c)
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = colp - s * (colq + tau * colp)
                a[:, q] = colq + s * (colp - tau * colq)
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
    if _off_norm(a, upper) <= tol:
        return SWEEP_LIMIT
    return -1


def _blocks(a):
    """Connected components of the nonzero pattern of the symmetric ``a``.

    A union-find over ``np.nonzero(a)`` that relabels the smaller set on
    each union and stops once a single set is left.  Returns ascending
    index arrays, ordered by their smallest index."""
    m = a.shape[0]
    label = list(range(m))  # each index's set, named by one of its members
    members = [[i] for i in range(m)]
    sets = m
    rows, cols = np.nonzero(a)
    for i, j in zip(rows.tolist(), cols.tolist()):
        li, lj = label[i], label[j]
        if li != lj:
            if len(members[li]) < len(members[lj]):
                li, lj = lj, li
            for k in members[lj]:
                label[k] = li
            members[li] += members[lj]
            sets -= 1
            if sets == 1:
                return [np.arange(m)]
    blocks, seen = [], set()
    for i in range(m):  # the first index met of each set is its smallest
        if label[i] not in seen:
            seen.add(label[i])
            blocks.append(np.array(sorted(members[label[i]])))
    return blocks


def distinct_blocks(a):
    """Pairs (block, copies), one per distinct principal block of the
    nonzero pattern of the symmetric ``a`` (equal blocks have equal
    bytes); each row of ``copies`` is one copy's ascending indices in
    ``a``.  A ValueError past ``MAX_BLOCK_WORK``."""
    m = a.shape[0]
    blocks = _blocks(a)
    if len(blocks) == 1:
        pairs = [(a, blocks[0][None])]
    else:
        found = {}
        for idx in blocks:
            i = idx[0]
            b = a[i:i + 1, i:i + 1] if len(idx) == 1 else a[np.ix_(idx, idx)]
            found.setdefault(b.tobytes(), (b, []))[1].append(idx)
        pairs = [(b, np.array(copies)) for b, copies in found.values()]
    work = sum(len(b) ** 3 for b, _ in pairs)
    if work > MAX_BLOCK_WORK:
        raise ValueError(f"{m} x {m} matrix: {len(blocks)} block(s), {len(pairs)} distinct, "
                         f"largest side {max(len(b) for b, _ in pairs)}; sides cubed sum "
                         f"to {work}, above the budget of {MAX_BLOCK_WORK}")
    return pairs


def eigenvalues_sym(mat):
    """Sorted eigenvalues of a finite, exactly symmetric matrix; a
    ValueError past the work budget of ``distinct_blocks``."""
    a = np.asarray(mat)
    if a.dtype.kind not in "iuf":  # objects, booleans, ...: converted first
        a = np.array(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    if a.dtype.kind == "f" and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")
    m = a.shape[0]
    w = np.empty(m)
    for b, copies in distinct_blocks(a):
        b = b.astype(np.float64)  # the block's working copy; mat is not touched
        # rotated in place against its own Frobenius norm; side 1 is diagonal
        if len(b) > 1 and _jacobi(b, OFF_TOL * float(np.linalg.norm(b))) < 0:
            raise EigenError(f"Jacobi did not converge within {SWEEP_LIMIT} sweeps "
                             f"(block side {len(b)} of matrix side {m})")
        w[copies] = np.diag(b)
    return np.sort(w, kind="stable")
