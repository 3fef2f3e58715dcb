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
writes that same expression inline, only to save a call per code; the
adversary's filter counts a decoded set with it.  `partition_by_black` groups
the many small feasible sets of indices by such a row.  The adversary's
kernels work on a `CodeSet`, a set of codes of one board numbered in
lexicographic order: `code_set` holds a whole board, and `min_black_filter`
answers a guess with a new set, leaving its input as it was.  A large set
is one int with a bit per code, counted a position at a time with big-int
AND, OR and XOR; a small one holds its codes as tuples and counts them one
by one.  The kernels use the standard library alone.  Length validation
happens in the callers, not here.  `active_backend` names the
implementation for benchmark metadata; there is only this one.
"""

import math
from bisect import bisect_left, bisect_right
from operator import eq

active_backend = "pure"


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


class _Board:
    """The codes of n distinct colors from 1..k, numbered from 0 in the
    lexicographic order of `itertools.permutations(range(1, k + 1), n)`.

    The codes sharing a first color c are the `block` indices from
    (c - 1) * block on, and their last n - 1 colors, each color above c
    lowered by one, run through `sub`, the (n - 1, k - 1) board, in its
    order.  So the hit mask of color c at position w >= 1, whose bit i is set
    when code i holds c there, is c - 1 copies of `sub`'s mask of c - 1 at
    w - 1, one per first color below c, then a block left empty for c
    itself, then k - c copies of `sub`'s mask of c at w - 1.  `hits` builds
    a mask so, by shift/OR doubling (`_repeat`); the sub-boards keep theirs
    in `_hits`, so a game pays for each of its masks only once.
    """

    def __init__(self, n, k):
        self.k = k
        self.size = math.perm(k, n)
        self.block = math.perm(k - 1, n - 1)
        self.sub = _Board(n - 1, k - 1) if n > 1 else None
        self._hits = {}

    def hits(self, w, c):
        """The hit mask of color c (from 1) at position w (from 0)."""
        block = self.block
        if w == 0:
            return ((1 << block) - 1) << ((c - 1) * block)
        sub = self.sub
        below = _repeat(sub.cached_hits(w - 1, c - 1), block, c - 1) if c > 1 else 0
        above = _repeat(sub.cached_hits(w - 1, c), block, self.k - c) if c < self.k else 0
        return below | above << (c * block)

    def cached_hits(self, w, c):
        mask = self._hits.get((w, c))
        if mask is None:
            mask = self._hits[w, c] = self.hits(w, c)
        return mask

    def code(self, index):
        """The code numbered `index`."""
        unused = list(range(1, self.k + 1))
        code = []
        board = self
        while board is not None:
            color, index = divmod(index, board.block)
            code.append(unused.pop(color))
            board = board.sub
        return tuple(code)


def _repeat(block, width, count):
    """`count` copies of a `width`-bit block side by side, by doubling.  The
    block stops doubling once no higher bit of `count` needs it: that last
    doubling would build an int of up to twice the result's bits, all of it
    thrown away."""
    out = 0
    while True:
        if count & 1:
            out = out << width | block
        count >>= 1
        if not count:
            return out
        block |= block << width
        width *= 2


# Each byte value's flag: 1 when any of its bits is set.
_NONZERO = bytes([0] + [1] * 255)


def _indices(mask):
    """The positions of the set bits of `mask`, in increasing order: its
    nonzero bytes are found with `bytes.find`, in C."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    flags = data.translate(_NONZERO)
    out = []
    i = flags.find(1)
    while i >= 0:
        byte = data[i]
        while byte:
            low = byte & -byte
            out.append(8 * i + low.bit_length() - 1)
            byte ^= low
        i = flags.find(1, i + 1)
    return out


class CodeSet:
    """A set of codes of one board, held either as `mask`, an int whose bit
    i is set when the board's code i is in the set, or, once few codes are
    left, as `codes`, the codes themselves in lexicographic order.  A value:
    nothing changes it after it is built.  `len` and iteration see the codes
    as tuples, in lexicographic order."""

    __slots__ = ("board", "mask", "codes", "_len")

    def __init__(self, board, mask=None, codes=None):
        self.board = board
        self.mask = mask
        self.codes = codes
        self._len = len(codes) if mask is None else mask.bit_count()

    def __len__(self):
        return self._len

    def __iter__(self):
        if self.codes is None:
            return map(self.board.code, _indices(self.mask))
        return iter(self.codes)


def code_set(n, k):
    """Every code of n distinct colors from 1..k."""
    board = _Board(n, k)
    return CodeSet(board, mask=(1 << board.size) - 1)


# `min_black_filter` counts a set by mask while it holds more than a
# 2**-DECODE_SHIFT share of its board, and decodes it below that: a mask
# answer costs about n full-board hit masks, and a decoded one a few
# microseconds a code.  Whole games by `verify_lower_bound_play`, best of
# several, in ms, on an Intel Xeon VM with Python 3.11.7:
#
#   shift     (9,9)  (6,12)  (10,10)  (2,1000)
#   9           6.8     7.9     59.9       268
#   10          4.6     7.4     53.7       238
#   11          5.1     6.8     53.2       208
#   12          5.4     6.7     69.2       202
#   never      18.9    12.7      311       212
DECODE_SHIFT = 11


def min_black_filter(codes, guess):
    """Smallest black count any code of the `CodeSet` `codes` scores against
    `guess`, as a plain int, plus the `CodeSet` of the codes that score
    exactly that.  Raises on an empty set.

    A set of at most a 2**-DECODE_SHIFT share of its board, or one already
    decoded, is counted code by code, and the survivors keep their codes.  A
    larger set is counted by mask: each position's hit mask, restricted to
    the set, holds the codes that agree with the guess there.  When those
    masks do not cover the whole set, the answer is 0 and the uncovered codes
    survive.
    Otherwise the masks are added into a bit-sliced counter, whose plane j
    holds bit j of each code's count, and the smallest count is read from the
    top plane down: at each plane, the codes with a 0 bit, if any, are the
    ones that can still be smallest."""
    if not len(codes):
        raise ValueError("empty code set")
    board, live = codes.board, codes.mask
    if live is None or len(codes) <= board.size >> DECODE_SHIFT:
        members = list(codes)
        counts = black_row(members, guess)
        best = min(counts)
        kept = [code for code, count in zip(members, counts) if count == best]
        return best, CodeSet(board, codes=kept)
    hits = [board.hits(w, c) & live for w, c in enumerate(guess)]
    covered = 0
    for hit in hits:
        covered |= hit
    if covered != live:
        return 0, CodeSet(board, mask=live ^ covered)
    planes = []
    for carry in hits:
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    best = 0
    for j in reversed(range(len(planes))):
        low = live & ~planes[j]
        if low:
            live = low
        else:
            best |= 1 << j
    return best, CodeSet(board, mask=live)


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
