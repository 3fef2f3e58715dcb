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
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

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
    """A requested enumeration exceeds the configured state limit."""


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
    hashed.  A code the fast test refuses is therefore invalid, and the loop
    runs only to name its first violation in position order.
    """
    n = config.n
    if (
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


def black_partial(w, partial) -> int:
    """Black count of `w` against the fixed entries of a partial solution."""
    if len(w) != len(partial):
        raise ValueError(f"length mismatch: {len(w)} != {len(partial)}")
    return _kernel.partial_match_count(w, partial)


def open_matches(total_black: int, w, partial) -> int:
    """Matches of `w` on still-open positions, given its full black count.

    Raises InconsistentOracleError when the result would be negative, which
    means the answers and the fixed components cannot both be right.
    """
    fixed = black_partial(w, partial)
    diff = total_black - fixed
    if diff < 0:
        raise InconsistentOracleError(
            f"answer {total_black} is below the {fixed} matches already fixed"
        )
    return diff


def rotation(j: int, config: GameConfig) -> tuple:
    """The j-th rotation code, 1 <= j <= k.

    rotation(1) is (1, 2, ..., n); each next index shifts the underlying
    k-cycle one step to the right before truncating to n entries.
    """
    if not 1 <= j <= config.k:
        raise ValueError(f"rotation index {j} outside 1..{config.k}")
    n, k = config.n, config.k
    return tuple(((i - j) % k) + 1 for i in range(1, n + 1))


@lru_cache(maxsize=None)
def rotation_family(config: GameConfig) -> tuple:
    """All k rotation codes as a tuple indexed by j-1."""
    return tuple(rotation(j, config) for j in range(1, config.k + 1))


@dataclass
class TranscriptEvent:
    """One recorded fact: a code and its black count.

    Queried events were answered by the codemaker; derived events were priced
    without spending a guess (the rotation-family sum, or counts that follow
    once the secret is already pinned down).
    """

    guess: tuple
    black: int
    derived: bool = False


@dataclass
class Transcript:
    """Ordered audit trail of one game."""

    config: GameConfig
    events: list[TranscriptEvent] = field(default_factory=list)
    notes: list[tuple] = field(default_factory=list)

    def record(self, guess, count: int, derived: bool = False) -> TranscriptEvent:
        if not 0 <= count <= self.config.n:
            raise ValueError(f"black count {count} outside 0..{self.config.n}")
        event = TranscriptEvent(tuple(guess), count, derived)
        self.events.append(event)
        return event

    @property
    def query_count(self) -> int:
        return sum(1 for ev in self.events if not ev.derived)

    def queried_events(self) -> list[TranscriptEvent]:
        return [ev for ev in self.events if not ev.derived]
