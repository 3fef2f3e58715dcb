"""Core types and feedback arithmetic for black-peg Mastermind without
repeated colors.

A code places n pairwise distinct colors from 1..k into n holes.  Feedback
for a guess is the black count alone: the number of positions where guess and
secret hold the same color.

The rotations sigma^1..sigma^k are the right circular shifts of (1, 2, ..., k)
truncated to the first n entries: sigma^j holds color ((i - j) mod k) + 1 at
position i; `GameConfig.rotation(j)` slices it from one doubled cycle.
The config caches that cycle, and its palette, in its instance dict, outside
its equality, hashing and pickling.
Across the k rotations every color appears exactly once at every position,
which forces their black counts against any fixed secret to sum to exactly n.
That identity lets the solver buy the last rotation's count for free and is
rechecked by the transcript auditor.

Partial solutions use 0 (OPEN) for holes whose color is still unknown.

Position i agrees with exactly one rotation, ((i - y_i) mod k) + 1 for a code
y, and every guess of the solver's searches is spliced from rotation slices
and at most two single pegs.  A `Splice` is such a code held as its board and
its runs alone (rotation j on positions a..b), never as its n colors.  Its
constructor, in the loop that checks the runs tile the board, decides once
whether their color arcs on the k-cycle are disjoint, so validation reduces
to reading that verdict; a black count reduces to two bisects per run into
the other code's rotation profile (`_kernel.partial_match_count`), and a
transcript event holds the splice itself.
The solver asks its opening rotations and later search guesses as splices
on boards of at least `solver.SPLICE_MIN_HOLES` holes; every other code is
a plain tuple and takes the plain paths.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from . import _kernel

OPEN = 0


class InvalidCodeError(ValueError):
    """A code breaks the rules: wrong length, color out of range, or duplicate.

    `reason` is one of 'length', 'range', 'duplicate'.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class InconsistentOracleError(RuntimeError):
    """The recorded answers cannot all be true for any injective secret."""


class CapacityError(RuntimeError):
    """A requested enumeration exceeds the configured state limit, or a board
    is too large to play (`solver.check_board`)."""


class GameConfig:
    """Board shape: n holes and k colors, exact ints with 2 <= n <= k.

    Immutable: equality, hashing, `repr` and pickling see (n, k) alone.  The
    cached `palette` and `cycle` live in the instance dict, outside all four,
    so a config that has built them equals, hashes and pickles like one that
    has not.
    """

    __slots__ = ("n", "k", "__dict__")

    def __init__(self, n: int, k: int):
        for name, size in (("n", n), ("k", k)):
            if type(size) is not int:  # bools, floats and strings are not sizes
                raise ValueError(f"{name} must be an int, got {size!r}")
        if n < 2:
            raise ValueError(f"need at least 2 holes, got n={n}")
        if k < n:
            raise ValueError(f"need at least as many colors as holes, got n={n}, k={k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError(f"GameConfig is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GameConfig is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if type(other) is GameConfig:
            return self.n == other.n and self.k == other.k
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.k))

    def __repr__(self):
        return f"GameConfig(n={self.n}, k={self.k})"

    def __reduce__(self):
        # the sizes only, never the cached palette or cycle
        return GameConfig, (self.n, self.k)

    @cached_property
    def palette(self) -> frozenset:
        """The colors 1..k, cached in the instance dict: equality, hashing,
        `repr` and pickling ignore it."""
        return frozenset(range(1, self.k + 1))

    @cached_property
    def cycle(self) -> tuple:
        """The colors 1..k twice over, cached like `palette`: 2k slots whose
        slices are the rotations and the runs of every `Splice`."""
        return tuple(range(1, self.k + 1)) * 2

    def rotation(self, j: int) -> tuple:
        """Rotation j, 1 <= j <= k: color ((i - j) mod k) + 1 at position i."""
        start = (1 - j) % self.k
        return self.cycle[start : start + self.n]


def validate_code(code, config: GameConfig) -> None:
    """Raise InvalidCodeError on the first violation (length, range, duplicate).

    Two stages give one verdict.  The fast test runs at C speed: once every
    entry is an exact int (bools, floats and numpy ints are not colors), the
    entries meet the palette 1..k in n distinct colors exactly when the code
    is valid.  The type test comes first, so no unhashable entry is ever
    hashed.  A `Splice` takes an O(1) test that never looks at its n colors:
    it must be a splice of this board, whose constructor found its color
    arcs disjoint (`Splice.injective`).
    A code the fast test refuses is checked, and its first violation named
    in position order, by the loop.
    """
    n = config.n
    if type(code) is Splice:
        if code.injective and (code.config is config or code.config == config):
            return
    elif (
        len(code) == n
        and set(map(type, code)) == {int}
        and len(config.palette.intersection(code)) == n
    ):
        return
    if len(code) != n:
        raise InvalidCodeError("length", f"code has {len(code)} entries, expected {n}")
    seen = set()
    for pos, color in enumerate(code, start=1):
        if type(color) is not int or not 1 <= color <= config.k:
            raise InvalidCodeError(
                "range", f"color {color!r} at position {pos} is outside 1..{config.k}"
            )
        if color in seen:
            raise InvalidCodeError(
                "duplicate", f"color {color} appears more than once (position {pos})"
            )
        seen.add(color)


def black(w, x) -> int:
    """Black count: positions where the two codes agree."""
    if len(w) != len(x):
        raise ValueError(f"code length mismatch: {len(w)} != {len(x)}")
    return _kernel.black_count(w, x)


def open_matches(total_black: int, fixed: int) -> int:
    """Matches of a guess on still-open positions, given its full black count
    and its `fixed` matches on the positions already identified.

    Raises InconsistentOracleError when the result would be negative, which
    means the answers and the fixed components cannot both be right.
    """
    diff = total_black - fixed
    if diff < 0:
        raise InconsistentOracleError(
            f"answer {total_black} is below the {fixed} matches already fixed"
        )
    return diff


class Splice:
    """A code spliced from rotation slices, held as its board and its runs.

    The runs are given flat: j, a, b for each run in position order, meaning
    "rotation j on positions a..b"; an empty run, b = a - 1, is dropped from
    `runs`.  A peg of color c at position p is the one-position run of
    rotation ((p - c) mod k) + 1.  The colors are never stored: iterating
    chains the runs' arcs of the board's `cycle`, and a splice pickles as its
    board and runs, so unpickling builds it anew.  A splice has the plain
    tuple's length, and equals and hashes like it.  Raises ValueError when
    the runs do not tile 1..n.

    The loop that checks the tiling also takes each nonempty run's color
    arc, and `injective` keeps whether the arcs are pairwise disjoint, that
    is, whether no color repeats (`_arcs_disjoint`).  A splice that repeats
    a color is still built; `validate_code` refuses it.
    """

    __slots__ = ("config", "runs", "injective")

    def __init__(self, config: GameConfig, runs):
        k = config.k
        kept = ()
        arcs = []
        end = 0
        it = iter(runs)
        for j, a, b in zip(it, it, it):
            if not (a == end + 1 and b >= end and 0 < j <= k):
                raise ValueError(f"run ({j}, {a}, {b}) does not continue positions 1..{end}")
            if b > end:
                kept += (j, a, b)
                arcs.append(((a - j) % k, b - a + 1))
                end = b
        if len(runs) % 3 or end != config.n:
            raise ValueError(f"runs {runs} do not tile positions 1..{config.n}")
        _set_splice_config(self, config)
        _set_splice_runs(self, kept)
        _set_splice_injective(self, _arcs_disjoint(arcs, k))

    def __setattr__(self, name, value):
        raise AttributeError(f"Splice is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Splice is immutable: cannot delete {name!r}")

    def __len__(self):
        return self.runs[-1]  # the last run ends at n

    def __iter__(self):
        cycle = self.config.cycle
        arcs = _arcs(self.runs, self.config.k)
        return chain.from_iterable([cycle[start : start + length] for start, length in arcs])

    def __eq__(self, other):
        if isinstance(other, (tuple, Splice)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Splice(runs={self.runs})"

    def __reduce__(self):
        return Splice, (self.config, self.runs)


# An immutable class's `__setattr__` raises, so `Splice`'s constructor sets
# each slot through the slot's own descriptor, bound once here: three
# `object.__setattr__` calls would cost about a fifth of a splice.
_set_splice_config = Splice.config.__set__
_set_splice_runs = Splice.runs.__set__
_set_splice_injective = Splice.injective.__set__


def _arcs(runs, k: int) -> list:
    """The color arc of each run (j, a, b), as (start, length): b - a + 1
    consecutive colors of the k-cycle, from color index (a - j) mod k."""
    it = iter(runs)
    return [((a - j) % k, b - a + 1) for j, a, b in zip(it, it, it)]


def _arcs_disjoint(arcs, k: int) -> bool:
    """Whether the color arcs (start, length) of a splice's nonempty runs
    share no color of the k-cycle.  After sorting the arcs by start, each
    must end before the next starts, and the last, wrapped past k, before
    the first."""
    arcs = sorted(arcs)
    end = arcs[-1][0] + arcs[-1][1] - k
    for start, length in arcs:
        if start < end:
            return False
        end = start + length
    return True


class TranscriptEvent:
    """One recorded fact: a code and its black count.

    The code is a tuple, or the `Splice` that was asked, kept as its runs.
    Queried events were answered by the codemaker; derived events were priced
    without spending a guess (the rotation sum, or the zero counts that
    follow once a rotation has pinned the secret down).  Events compare by
    their three fields and are unhashable, since a transcript may edit them.
    """

    __slots__ = ("guess", "black", "derived")

    def __init__(self, guess, black: int, derived: bool = False):
        self.guess = guess
        self.black = black
        self.derived = derived

    def __eq__(self, other):
        if type(other) is TranscriptEvent:
            return (self.guess, self.black, self.derived) == (
                other.guess, other.black, other.derived
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return (
            f"TranscriptEvent(guess={self.guess!r}, black={self.black!r}, "
            f"derived={self.derived!r})"
        )


def first_miscount(events, code, config: GameConfig) -> int | None:
    """Index of the first event whose recorded count is not its black count
    against `code`, a code of the board `config`, or None.  Spliced events
    of that board are counted by run, on `code`'s rotation profile, built at
    the first of them (`_kernel.partial_match_count`); every other event is
    counted by `black`.  Raises ValueError when `code` does not have the
    board's n entries."""
    if len(code) != config.n:
        raise ValueError(f"code length mismatch: {config.n} != {len(code)}")
    profile = None
    for idx, ev in enumerate(events):
        guess = ev.guess
        # `is` first: a game's splices share its config object
        if type(guess) is Splice and (guess.config is config or guess.config == config):
            if profile is None:
                profile = _kernel.rotation_profile(code, config.k)
            count = _kernel.partial_match_count(profile, guess.runs)
        else:
            count = black(guess, code)
        if count != ev.black:
            return idx
    return None


class Transcript:
    """Ordered audit trail of one game on `config`, begun empty.

    `terminal_swaps` counts `find_first`'s first/last swaps at l = n.
    A working record, compared by identity: compare its `events` to compare
    two games."""

    def __init__(self, config: GameConfig):
        self.config = config
        self.events = []
        self.terminal_swaps = 0

    def record(self, guess, count: int, derived: bool = False) -> None:
        """Append an event holding the guess: a `Splice` as it is, any other
        code as a tuple.  Raises ValueError unless `count` is an exact int
        in 0..n."""
        if type(count) is not int:  # bools, floats and numpy ints are not counts
            raise ValueError(f"black count {count!r} is a {type(count).__name__}, not an int")
        if not 0 <= count <= self.config.n:
            raise ValueError(f"black count {count} outside 0..{self.config.n}")
        if type(guess) is not Splice:
            guess = tuple(guess)
        self.events.append(TranscriptEvent(guess, count, derived))

    @property
    def query_count(self) -> int:
        return sum(1 for ev in self.events if not ev.derived)
