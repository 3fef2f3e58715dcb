"""Core types and feedback arithmetic for black-peg Mastermind without
repeated colors.

A code places n pairwise distinct colors from 1..k into n holes.  Feedback
for a guess is the black count alone: the number of positions where guess and
secret hold the same color.

The rotation family sigma^1..sigma^k consists of the right circular shifts of
(1, 2, ..., k) truncated to the first n entries, so sigma^1 is the identity
prefix and sigma^(j+1) shifts sigma^j one step.  Across the family every
color appears exactly once at every position, which forces the family's black
counts against any fixed secret to sum to exactly n.  That identity lets the
solver buy the last rotation's count for free and is rechecked by the
transcript auditor.

Partial solutions use 0 (OPEN) for holes whose color is still unknown.

Position i agrees with exactly one rotation, ((i - y_i) mod k) + 1 for a code
y, and every guess of the solver's searches is spliced from rotation slices
and at most two single pegs.  A `Splice` is such a code held as its runs
alone (rotation j on positions a..b), never as its n colors, so validation
reduces to checking that the runs' color arcs on the k-cycle are disjoint, a
black count to counting each run's rotation in the other code's rotation
profile (`_kernel`), and a transcript event holds the splice itself.  The
solver asks splices on boards of at least `solver.SPLICE_MIN_HOLES` holes;
every other code is a plain tuple and takes the plain paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
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
    """A requested enumeration exceeds the configured state limit, or a
    board's rotation family exceeds FAMILY_LIMIT."""


@dataclass(frozen=True)
class GameConfig:
    """Board shape: n holes and k colors with 2 <= n <= k."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 holes, got n={self.n}")
        if self.k < self.n:
            raise ValueError(
                f"need at least as many colors as holes, got n={self.n}, k={self.k}"
            )

    @cached_property
    def palette(self) -> frozenset:
        """The colors 1..k, cached on the instance.  It is not a field, so
        equality, hashing and `repr` ignore it."""
        return frozenset(range(1, self.k + 1))

    def __getstate__(self):
        # pickle the fields only, never the cached palette
        return {f.name: getattr(self, f.name) for f in fields(self)}


def validate_code(code, config: GameConfig) -> None:
    """Raise InvalidCodeError on the first violation (length, range, duplicate).

    Two stages give one verdict.  The fast test runs at C speed: once every
    entry is an exact int (bools, floats and numpy ints are not colors), the
    entries meet the palette 1..k in n distinct colors exactly when the code
    is valid.  The type test comes first, so no unhashable entry is ever
    hashed.  A `Splice` of the board takes a test that never looks at its n
    colors: its runs' color arcs must be pairwise disjoint.  A code the fast
    test refuses is checked, and its first violation named in position
    order, by the loop.
    """
    n = config.n
    if type(code) is Splice:
        k = config.k
        if len(code) == n and len(code.rotations) == k and _arcs_disjoint(code.runs, k):
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


# Most colors, n * k, the rotation family of a board may hold: 128 MB of
# tuple slots, reached at n = k = 4096.
FAMILY_LIMIT = 2**24


@lru_cache(maxsize=4)
def rotation_family(config: GameConfig) -> tuple:
    """All k rotation codes as a tuple indexed by j-1.

    Each is a slice of one doubled cycle (1..k, 1..k), so the whole family
    shares k int objects.  Raises CapacityError, before it allocates, when
    the family would hold more than FAMILY_LIMIT colors.  Only the last four
    boards' families stay cached, so a process that plays many boards does
    not keep them all.
    """
    n, k = config.n, config.k
    if n * k > FAMILY_LIMIT:
        raise CapacityError(
            f"the rotation family of n={n}, k={k} would hold n*k = {n * k} colors, "
            f"limit is {FAMILY_LIMIT}"
        )
    cycle = tuple(range(1, k + 1)) * 2
    starts = ((1 - j) % k for j in range(1, k + 1))
    return tuple(cycle[s : s + n] for s in starts)


class Splice:
    """A code spliced from rotation slices, held as the runs it came from.

    The runs are given flat: j, a, b for each run in position order, meaning
    "rotation j on positions a..b"; an empty run, b = a - 1, is dropped from
    `runs`.  A peg of color c at position p is the one-position run of
    rotation ((p - c) mod k) + 1.  `rotations` must be the board's
    `rotation_family`.  The colors are never stored: iterating chains the
    rotation slices.  A splice has the plain tuple's length, and equals and
    hashes like it.  Raises ValueError when the runs do not tile 1..n.
    """

    __slots__ = ("rotations", "runs")

    def __init__(self, rotations, runs):
        kept = ()
        end = 0
        it = iter(runs)
        for j, a, b in zip(it, it, it):
            if not (a == end + 1 and b >= end and 0 < j <= len(rotations)):
                raise ValueError(f"run ({j}, {a}, {b}) does not continue positions 1..{end}")
            if b > end:
                kept += (j, a, b)
                end = b
        n = len(rotations[0])
        if len(runs) % 3 or end != n:
            raise ValueError(f"runs {runs} do not tile positions 1..{n}")
        object.__setattr__(self, "rotations", rotations)
        object.__setattr__(self, "runs", kept)

    def __setattr__(self, name, value):
        raise AttributeError(f"Splice is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Splice is immutable: cannot delete {name!r}")

    def __len__(self):
        return self.runs[-1]  # the last run ends at n

    def __iter__(self):
        rots = self.rotations
        it = iter(self.runs)
        return chain.from_iterable([rots[j - 1][a - 1 : b] for j, a, b in zip(it, it, it)])

    def __eq__(self, other):
        if isinstance(other, (tuple, Splice)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Splice(runs={self.runs})"

    def __reduce__(self):
        return Splice, (self.rotations, self.runs)


def _arcs_disjoint(runs, k: int) -> bool:
    """Whether no color repeats across nonempty runs.  Run (j, a, b) shows the
    colors of an arc of the k-cycle: b - a + 1 consecutive colors, starting
    at color index (a - j) mod k.  After sorting by start, each arc must end
    before the next starts, and the last, wrapped past k, before the first."""
    it = iter(runs)
    arcs = sorted([((a - j) % k, b - a + 1) for j, a, b in zip(it, it, it)])
    end = arcs[-1][0] + arcs[-1][1] - k
    for start, length in arcs:
        if start < end:
            return False
        end = start + length
    return True


@dataclass(slots=True)
class TranscriptEvent:
    """One recorded fact: a code and its black count.

    The code is a tuple, or the `Splice` that was asked, kept as its runs.
    Queried events were answered by the codemaker; derived events were priced
    without spending a guess (the rotation-family sum, or counts that follow
    once the secret is already pinned down).
    """

    guess: tuple
    black: int
    derived: bool = False


def first_miscount(events, code) -> int | None:
    """Index of the first event whose recorded count is not its black count
    against `code`, or None.  Spliced events are counted by run, on `code`'s
    rotation profile, built at the first of them."""
    profile = None
    for idx, ev in enumerate(events):
        guess = ev.guess
        if type(guess) is Splice:
            if profile is None:
                profile = _kernel.rotation_profile(code, len(guess.rotations))
            count = _kernel.profile_count(profile, guess.runs)
        else:
            count = black(guess, code)
        if count != ev.black:
            return idx
    return None


@dataclass
class Transcript:
    """Ordered audit trail of one game."""

    config: GameConfig
    events: list = field(default_factory=list)
    notes: list[tuple] = field(default_factory=list)

    def record(self, guess, count: int, derived: bool = False):
        """Append and return an event holding the guess: a `Splice` as it
        is, any other code as a tuple."""
        if not 0 <= count <= self.config.n:
            raise ValueError(f"black count {count} outside 0..{self.config.n}")
        if type(guess) is not Splice:
            guess = tuple(guess)
        event = TranscriptEvent(guess, count, derived)
        self.events.append(event)
        return event

    @property
    def query_count(self) -> int:
        return sum(1 for ev in self.events if not ev.derived)

    def queried_events(self) -> list:
        return [ev for ev in self.events if not ev.derived]
