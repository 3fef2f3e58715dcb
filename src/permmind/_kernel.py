"""Counting kernels: the black-count comparisons every other module pays for.

Per-code counts (`black_count`, `partial_match_count`) serve the solver's
per-query path; board-wide ones (`min_black_filter`, `partition_by_black`)
serve the adversary and minimax over whole feasible sets.  Codes may be
tuples or lists.  Length validation happens in the callers, not here.

The board-wide kernels count inline with `sum(map(eq, ...))` instead of
calling `black_count`: over thousands of small codes that is faster, and it
keeps them free of calls through this module's globals.  `active_backend`
names the implementation for benchmark metadata; there is only this one.
"""

from operator import eq

OPEN = 0

active_backend = "pure"


def black_count(a, b):
    """Number of positions where the two codes agree."""
    count = 0
    for x, y in zip(a, b):
        if x == y:
            count += 1
    return count


def partial_match_count(code, partial):
    """Number of positions where `code` agrees with a non-open entry of `partial`."""
    count = 0
    for x, p in zip(code, partial):
        if p != OPEN and x == p:
            count += 1
    return count


def min_black_filter(members, guess):
    """Smallest black count any member scores against `guess`, plus the members
    that score exactly that, in input order.  Raises on an empty member list."""
    if not members:
        raise ValueError("empty member list")
    counts = [sum(map(eq, m, guess)) for m in members]
    best = min(counts)
    survivors = [m for m, c in zip(members, counts) if c == best]
    return best, survivors


def partition_by_black(members, guess):
    """Group members by their black count against `guess`, in input order."""
    parts = {}
    for m in members:
        parts.setdefault(sum(map(eq, m, guess)), []).append(m)
    return parts
