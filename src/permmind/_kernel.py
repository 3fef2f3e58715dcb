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
is held by first color: for each color that still begins one of its codes,
an int with a bit per code of the board with one hole and one color fewer.
It is counted block by block with big-int AND, OR and XOR against that
smaller board's hit masks, which are built once per game, so no answer
builds a mask as long as the whole board.  A small set holds its codes as
tuples and counts them one by one.  The kernels use the standard library
alone.  Length validation happens in the callers, not here.
`active_backend` names the implementation for benchmark metadata; there is
only this one.
"""

import math
from bisect import bisect_left, bisect_right
from itertools import chain
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
    order.  So within the block of c, the codes holding color g at
    position w >= 1 are `sub`'s codes holding g - 1 at w - 1 when c < g,
    and those holding g there when c > g; none hold c.  `hits` lays those
    block masks side by side, by shift/OR doubling (`_repeat`), into the
    hit mask whose bit i is set when code i holds g at w.  Only sub-boards
    build masks for a game, and `cached_hits` keeps each one, so a game
    pays for it once.
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

    def codes(self, c, mask):
        """The codes of first color c whose last n - 1 colors are the
        `sub`-board codes in `mask`, in order.  The other k - 1 colors are
        listed once for the block, and each code pops its later colors, by
        their digits, from a copy of that list."""
        others = [*range(1, c), *range(c + 1, self.k + 1)]
        sub = self.sub
        for index in _indices(mask):
            unused = others[:]
            code = [c]
            board = sub
            while board is not None:
                color, index = divmod(index, board.block)
                code.append(unused.pop(color))
                board = board.sub
            yield tuple(code)


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
    """A set of codes of one board.  While many codes are left it is
    `blocks`, a dict from each first color c that begins a code of the set,
    in ascending order, to an int whose bit i is set when the code of c
    over `board.sub`'s code i is in the set (see `_Board`); an emptied
    block has no entry.  A whole board is k entries sharing one int.  Once
    few codes are left the set is `codes`, the codes themselves in
    lexicographic order.  Nothing changes a set after it is built.  `len`
    and iteration see the codes as tuples, in lexicographic order, decoded
    block by block."""

    __slots__ = ("board", "blocks", "codes", "_len")

    def __init__(self, board, blocks=None, codes=None):
        self.board = board
        self.blocks = blocks
        self.codes = codes
        self._len = len(codes) if blocks is None else sum(map(int.bit_count, blocks.values()))

    def __len__(self):
        return self._len

    def __iter__(self):
        if self.blocks is None:
            return iter(self.codes)
        return chain.from_iterable(self.board.codes(c, mask) for c, mask in self.blocks.items())


def code_set(n, k):
    """Every code of n distinct colors from 1..k."""
    board = _Board(n, k)
    full = (1 << board.block) - 1
    return CodeSet(board, blocks=dict.fromkeys(range(1, k + 1), full))


# `min_black_filter` counts a set by block while it holds more than a
# 2**-DECODE_SHIFT share of its board, and decodes it below that: a block
# answer costs about n - 1 ANDs of each live block with a sub-board hit mask,
# and a decoded one a few microseconds a code.  Whole games by
# `verify_lower_bound_play`, best of 11, in ms, on an Intel Xeon VM with
# Python 3.11.7; the last column is the four boards of the adversary_wide
# benchmark, (9,9), (8,9), (7,10) and (6,12), one after another:
#
#   shift     (9,9)  (6,12)  (10,10)  (2,1000)  four boards
#   9          1.87    1.77    18.13       212         7.25
#   10         1.17    1.64     7.36       200         5.41
#   11         1.17    1.18     7.35       219         5.06
#   12         1.22    1.24     6.57       207         4.74
#   13         1.09    1.19     6.32       204         4.47
#   14         1.09    1.13     6.10       199         4.24
#   15         1.09    1.10     6.05       210         4.44
#   16         1.08    1.15     6.50       210         4.46
#   never      1.37    1.19     7.56       207         5.21
DECODE_SHIFT = 14


def _least(hits, live):
    """The smallest count any code of `live` reaches, a code's count being
    the number of `hits` masks holding it, and the mask of the codes that
    reach it.  The masks are added into a bit-sliced counter, whose plane j
    holds bit j of each code's count, and the smallest count is read from
    the top plane down: at each plane, the codes with a 0 bit, if any, are
    the ones that can still be smallest."""
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
    return best, live


def min_black_filter(codes, guess):
    """Smallest black count any code of the `CodeSet` `codes` scores against
    `guess`, as a plain int, plus the `CodeSet` of the codes that score
    exactly that.  Raises on an empty set.

    A set of at most a 2**-DECODE_SHIFT share of its board, or one already
    decoded, is counted code by code, and the survivors keep their codes.  A
    larger set is counted block by block.  In the block of first color c,
    position 0 hits every code when the guess starts with c, and position
    w >= 1, of guess color g, hits the codes in the sub-board's mask of
    g - 1 at w - 1 when c < g and of g when c > g (see `_Board`); the top
    board never builds a mask of its own.  When some block's hits do not
    cover it, the answer is 0 and the uncovered codes of every block
    survive.  Otherwise each block's least count comes from `_least`, and
    the blocks reaching the smallest of them keep the codes that do."""
    if not len(codes):
        raise ValueError("empty code set")
    board = codes.board
    if codes.blocks is None or len(codes) <= board.size >> DECODE_SHIFT:
        members = list(codes)
        counts = black_row(members, guess)
        best = min(counts)
        kept = [code for code, count in zip(members, counts) if count == best]
        return best, CodeSet(board, codes=kept)
    colors = iter(guess)
    first = next(colors)
    sub, k = board.sub, board.k
    # each later position's color g and the sub-board masks that the blocks
    # below g and above it see
    masks = [
        (g, sub.cached_hits(w, g - 1) if g > 1 else 0, sub.cached_hits(w, g) if g < k else 0)
        for w, g in enumerate(colors)
    ]
    best, kept, uncovered = None, {}, {}
    for c, live in codes.blocks.items():
        hits = [live] if c == first else []
        for g, below, above in masks:
            if c != g:
                hit = (below if c < g else above) & live
                if hit:
                    hits.append(hit)
        covered = 0
        for hit in hits:
            covered |= hit
        if covered != live:
            uncovered[c] = live ^ covered
        elif not uncovered:
            count, low = _least(hits, live)
            if best is None or count < best:
                best, kept = count, {c: low}
            elif count == best:
                kept[c] = low
    if uncovered:
        return 0, CodeSet(board, blocks=uncovered)
    return best, CodeSet(board, blocks=kept)


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
