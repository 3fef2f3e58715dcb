"""Counting kernels: the black-count comparisons every other module pays for.

Per-code counts serve the solver and take tuples or lists: `black_count`
is paid on every query, while `partial_match_count` builds, once per search,
the running counts of a rotation's matches on the fixed positions, so that
each of the search's queries finds its own by prefix differences in O(1).
`partition_by_black` serves minimax over many small feasible sets of tuples,
and counts inline with `sum(map(eq, ...))` instead of calling `black_count`:
over thousands of small codes that is faster, and it keeps it free of calls
through this module's globals.  The adversary's kernels, `code_matrix` and
`min_black_filter`, work on one numpy matrix holding a code per row; numpy is
imported inside them (`_numpy`), so importing permmind never loads it.
Length validation happens in the callers, not here.  `active_backend` names
the implementation for benchmark metadata; there is only this one.
"""

import os
from itertools import accumulate
from operator import eq

OPEN = 0

active_backend = "pure"


def _numpy():
    """numpy, imported on first use.

    numpy's OpenBLAS starts a worker thread per further CPU at load, and each
    one busy-waits for about 0.2 s of CPU before it sleeps, competing with the
    caller's own work.  These kernels use no BLAS, so the first import runs
    with OPENBLAS_NUM_THREADS=1, unless the environment already sets it; the
    environment is restored afterwards.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        import numpy
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return numpy


def black_count(a, b):
    """Number of positions where the two codes agree."""
    count = 0
    for x, y in zip(a, b):
        if x == y:
            count += 1
    return count


def partial_match_count(code, partial):
    """Running counts of the positions where `code` agrees with `partial`: a
    list of n + 1 ints whose entry i counts positions 1..i, so the last is
    the total.  Colors are 1..k, so an OPEN entry of `partial` never counts."""
    return [0, *accumulate(map(eq, code, partial))]


def code_matrix(n, k):
    """Every code of n distinct colors from 1..k, one per row of an (N, n)
    matrix of the smallest unsigned dtype holding k, in the lexicographic
    order of `itertools.permutations(range(1, k + 1), n)`.

    Grows the codes one column at a time.  Each prefix row is followed by
    every color it has not used yet, in increasing order; `unused` holds
    those colors, one sorted row per prefix.
    """
    np = _numpy()

    dtype = np.min_scalar_type(k)
    matrix = np.empty((1, 0), dtype=dtype)
    unused = np.arange(1, k + 1, dtype=dtype)[None, :]
    for width in range(n):
        choices = k - width
        grown = np.empty((len(matrix), choices, width + 1), dtype=dtype)
        grown[:, :, :width] = matrix[:, None, :]
        grown[:, :, width] = unused
        matrix = grown.reshape(-1, width + 1)
        if width + 1 < n:
            # the child taking its parent's j-th unused color keeps the others
            keep = np.arange(choices - 1)
            keep = keep + (keep >= np.arange(choices)[:, None])
            unused = unused[:, keep].reshape(-1, choices - 1)
    return matrix


def min_black_filter(matrix, guess):
    """Smallest black count any row of `matrix` scores against `guess`, as a
    plain int, plus the rows that score exactly that, in input order.  Raises
    on an empty matrix.  Counts column by column into the smallest dtype
    holding n, so the only scratch is two length-N vectors."""
    np = _numpy()

    if not len(matrix):
        raise ValueError("empty member matrix")
    counts = np.zeros(len(matrix), dtype=np.min_scalar_type(matrix.shape[1]))
    for column, color in zip(matrix.T, guess):
        counts += column == color
    best = counts.min()
    return int(best), matrix[counts == best]


def partition_by_black(members, guess):
    """Group members by their black count against `guess`, in input order."""
    parts = {}
    for m in members:
        parts.setdefault(sum(map(eq, m, guess)), []).append(m)
    return parts
