"""Counting kernels: the black-count comparisons every other module pays for.

Per-code counts serve the solver and take tuples or lists: `black_count`
scans two codes.  Position i agrees with exactly one rotation, so a code's
`rotation_profile` lists, for each rotation j, the sorted positions where the
code agrees with it, and `partial_match_count` counts a guess spliced from
rotation runs against that profile with two bisects per run, never looking
at the n pegs.  It is the only run-count kernel: the oracle and the audit
count spliced guesses on the secret's profile, and the solver counts every
search guess's fixed matches on the partial's profile, which
`solver.apply_found_component` keeps up to date as pegs are fixed.
`black_count` counts with `sum(map(eq, a, b))`.  Minimax works on code
indices: `black_row` counts one guess against every code of a board and
writes that same expression inline, only to save a call per code, and
`partition_by_black` groups the many small feasible sets of indices by such
a row.  The adversary's kernels, `code_matrix` and `min_black_filter`, work
on one numpy matrix holding a code per row, stored column by column so that
each count and each filter runs over contiguous columns.  The filter
consumes its input: it must be writeable, the survivors are compacted into
its first rows, and the rows past them are left unspecified.  numpy is
imported inside these kernels (`_numpy`), so importing permmind never loads
it.  Length validation happens in the callers, not here.  `active_backend`
names the implementation for benchmark metadata; there is only this one.
"""

import math
import os
from bisect import bisect_left, bisect_right
from operator import eq

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
    return sum(map(eq, a, b))


def rotation_profile(code, k):
    """A dict mapping each rotation j to the positions, in increasing order,
    where `code` agrees with it: position i agrees with rotation
    ((i - y_i) mod k) + 1 alone.  OPEN entries agree with no rotation and
    are skipped, so a partial solution has a profile too."""
    profile = {}
    for i, y in enumerate(code, 1):
        if y:
            profile.setdefault((i - y) % k + 1, []).append(i)
    return profile


def partial_match_count(profile, runs):
    """Positions where the code of `profile` agrees with the splice of
    `runs`, flat triples j, a, b meaning rotation j on positions a..b: two
    bisects per run into rotation j's positions.  An empty run, b = a - 1,
    counts 0."""
    get = profile.get
    total = 0
    for i in range(0, len(runs), 3):
        positions = get(runs[i])
        if positions:
            total += bisect_right(positions, runs[i + 2]) - bisect_left(positions, runs[i + 1])
    return total


def code_matrix(n, k):
    """Every code of n distinct colors from 1..k, one per row of an (N, n)
    matrix of the smallest unsigned dtype holding k, in the lexicographic
    order of `itertools.permutations(range(1, k + 1), n)`.

    The matrix is stored column by column (Fortran order), in one (n, N)
    array allocated once and returned transposed.  In that order column w
    lists each length-w prefix's unused colors in turn, in increasing order,
    each held for all perm(k - w - 1, n - w - 1) suffixes that follow it:
    each column is written in place by broadcasting.  `unused` holds those
    colors, one sorted row per prefix.  Beyond the matrix the build needs
    scratch for the last `unused`, one column, and for the one it is taken
    from, a (k - n + 1)-th of a column: about two columns on square boards,
    little more than one on wide ones.
    """
    np = _numpy()

    dtype = np.min_scalar_type(k)
    columns = np.empty((n, math.perm(k, n)), dtype=dtype)
    unused = np.arange(1, k + 1, dtype=dtype)[None, :]
    for width in range(n):
        columns[width].reshape(unused.size, -1)[...] = unused.reshape(-1, 1)
        if width + 1 < n:
            # the child taking its parent's j-th unused color keeps the others;
            # `np.take`, unlike fancy indexing, writes them with no temporary
            choices = k - width
            keep = np.arange(choices - 1)
            keep = keep + (keep >= np.arange(choices)[:, None])
            unused = np.take(unused, keep, axis=1).reshape(-1, choices - 1)
    return columns.T


# Rows per gather in `min_black_filter`.  Its scratch is freed chunk by
# chunk, and glibc keeps freed blocks below its mmap threshold resident: of
# 2**14 to 2**20, 2**16 gave the adversary the lowest peak RSS.
FILTER_CHUNK = 2**16


def min_black_filter(matrix, guess):
    """Smallest black count any row of `matrix` scores against `guess`, as a
    plain int, plus the rows that score exactly that, in input order.  Raises
    on an empty matrix.

    Filters in place: `matrix` must be writeable and is consumed.  The
    survivors are moved to its first rows and returned as the view
    `matrix[:kept]` of the same buffer; the rows past them are left
    unspecified.  Counts over the rows of `matrix.T`, contiguous for a
    column-major matrix such as `code_matrix`'s, into the smallest dtype
    holding n, through one bool scratch reused for every column's hits and
    then for the survivor mask.  Survivors are moved FILTER_CHUNK rows at a
    time, so beside those two bytes per row the only scratch is one chunk's
    indices and one chunk of a column; nothing moves while every row so far
    has survived.  The result's columns stay contiguous, so a whole game
    filters contiguous columns.  A row-major matrix is filtered the same,
    only slower."""
    np = _numpy()

    if not len(matrix):
        raise ValueError("empty member matrix")
    columns = matrix.T
    total = len(matrix)
    counts = np.zeros(total, dtype=np.min_scalar_type(matrix.shape[1]))
    hits = np.empty(total, dtype=bool)
    for column, color in zip(columns, guess):
        np.equal(column, color, out=hits)
        counts += hits
    best = counts.min()
    survivors = np.equal(counts, best, out=hits)
    kept = 0
    for start in range(0, total, FILTER_CHUNK):
        stop = min(start + FILTER_CHUNK, total)
        rows = np.flatnonzero(survivors[start:stop])
        if kept == start and len(rows) == stop - start:
            kept = stop  # every row so far survived: nothing moves
            continue
        for column in columns:
            column[kept : kept + len(rows)] = column[start:stop][rows]
        kept += len(rows)
    return int(best), matrix[:kept]


def black_row(codes, guess):
    """The black count of `guess` against each code of `codes`, as `bytes`
    (so codes of at most 255 positions): row[i] counts codes[i]."""
    return bytes([sum(map(eq, code, guess)) for code in codes])


def partition_by_black(members, row):
    """Group member indices by their count in `row`, a `black_row`, keeping
    input order within each group and in the order groups first appear."""
    parts = {}
    for m in members:
        parts.setdefault(row[m], []).append(m)
    return parts
