"""Exhaustive verification and exact game-tree search.

`exhaustive_verify` replays the solver against every possible secret of a
board and audits each game: right answer, internally consistent transcript,
and query budget respected where it is promised.  `minimax_value` computes
the true worst-case query count of an optimal codebreaker by searching the
full game tree; it is exponential and guarded accordingly, but on tiny
boards it brackets what the solver achieves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _kernel
from .codemaker import (
    StaticCodemaker,
    _check_capacity,
    all_injective_codes,
    injective_code_count,
)
from .core import CapacityError, GameConfig, Transcript, black, rotation, rotation_family
from .solver import bound_enforced, query_bound, solve

MINIMAX_SOFT_LIMIT = 32
MINIMAX_HARD_LIMIT = 120


def check_transcript(transcript: Transcript, secret=None) -> int | None:
    """Index of the first event inconsistent with the rules, or None.

    With a secret given, every recorded count (derived ones included) must
    equal the true black count.  Independently of the secret, if the events
    open with the full rotation family those k counts must sum to n, because
    every color appears on each position exactly once across the family;
    a violation there reports the index completing the family.
    """
    config = transcript.config
    n, k = config.n, config.k
    events = transcript.events
    if secret is not None:
        for idx, ev in enumerate(events):
            if black(ev.guess, secret) != ev.black:
                return idx
    family = rotation_family(config)
    if len(events) >= k and tuple(ev.guess for ev in events[:k]) == family:
        if sum(ev.black for ev in events[:k]) != n:
            return k - 1
    return None


@dataclass
class VerificationReport:
    """Outcome of replaying the solver against every secret of one board."""

    config: GameConfig
    total: int
    bound: int
    bound_enforced: bool
    max_queries: int = 0
    query_histogram: dict[int, int] = field(default_factory=dict)
    failures: list[tuple] = field(default_factory=list)
    terminal_swaps: int = 0
    terminal_swap_first_matches: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        bound_note = "enforced" if self.bound_enforced else "reported only"
        return (
            f"n={self.config.n} k={self.config.k}: {self.total} secrets, "
            f"max {self.max_queries} queries, bound {self.bound} ({bound_note}), "
            f"{verdict}"
        )


def exhaustive_verify(
    config: GameConfig,
    solver=solve,
    max_states: int | None = None,
) -> VerificationReport:
    """Replay the solver against every secret and audit each game.

    Failures are collected, not raised: ("wrong_secret", secret, got),
    ("bad_transcript", secret, event_index) and, on boards where the budget
    is promised, ("over_budget", secret, queries).  The report also counts
    the games that needed the degenerate first/last swap in the opening
    binary search, and in how many of those the swapped-in first peg was
    itself correct (it never should be; the swap exists because that peg was
    already proven wrong).
    """
    _check_capacity(config, max_states, "exhaustive verification")
    bound = query_bound(config)
    report = VerificationReport(
        config=config,
        total=injective_code_count(config),
        bound=bound,
        bound_enforced=bound_enforced(config),
    )
    for secret in all_injective_codes(config):
        oracle = StaticCodemaker(secret, config)
        recovered, transcript = solver(oracle, config)
        queries = transcript.query_count
        report.query_histogram[queries] = report.query_histogram.get(queries, 0) + 1
        if queries > report.max_queries:
            report.max_queries = queries
        if recovered != secret:
            report.failures.append(("wrong_secret", secret, recovered))
        bad = check_transcript(transcript, secret)
        if bad is not None:
            report.failures.append(("bad_transcript", secret, bad))
        if report.bound_enforced and queries > bound:
            report.failures.append(("over_budget", secret, queries))
        for note in transcript.notes:
            if note[0] == "terminal_swap":
                report.terminal_swaps += 1
                if rotation(note[1], config)[0] == secret[0]:
                    report.terminal_swap_first_matches += 1
    return report


def _resolvable_within(depth: int, branch: int) -> int:
    """Most secrets any strategy can pin down in at most `depth` queries,
    given at most `branch` non-winning answers per query."""
    total = 1
    for _ in range(depth - 1):
        total = 1 + branch * total
    return total


def _depth_floor(size: int, branch: int) -> int:
    depth = 1
    while _resolvable_within(depth, branch) < size:
        depth += 1
    return depth


def minimax_value(config: GameConfig, allow_large: bool = False) -> int:
    """Exact worst-case query count of an optimal codebreaker.

    Full min-max over the game tree: every injective code may be guessed at
    every step, the answer splits the feasible set, and the game ends the
    moment the guess is the secret itself.  Exponential; boards beyond 32
    codes need allow_large, beyond 120 they are refused outright.
    """
    count = injective_code_count(config)
    if count > MINIMAX_HARD_LIMIT:
        raise CapacityError(
            f"game-tree search over {count} codes is out of reach (limit {MINIMAX_HARD_LIMIT})"
        )
    if count > MINIMAX_SOFT_LIMIT and not allow_large:
        raise CapacityError(
            f"game-tree search over {count} codes needs allow_large (soft limit {MINIMAX_SOFT_LIMIT})"
        )
    codes = tuple(all_injective_codes(config))
    n, k = config.n, config.k
    # answer n wins; n-1 cannot happen between distinct permutations when k == n
    branch = n - 1 if k == n else n
    memo: dict[tuple, int] = {}

    def value(feasible: tuple) -> int:
        if len(feasible) == 1:
            return 1
        if len(feasible) == 2:
            return 2
        if feasible in memo:
            return memo[feasible]
        floor = _depth_floor(len(feasible), branch)
        members = set(feasible)
        ordered = list(feasible) + [x for x in codes if x not in members]
        best = None
        for x in ordered:
            parts = _kernel.partition_by_black(feasible, x)
            if len(parts) == 1 and n not in parts:
                continue  # answer is forced, the guess teaches nothing
            worst = 0
            abandoned = False
            for ans, part in sorted(parts.items(), key=lambda kv: (-len(kv[1]), kv[0])):
                cost = 1 if ans == n else 1 + value(tuple(part))
                if cost > worst:
                    worst = cost
                if best is not None and worst >= best:
                    abandoned = True
                    break
            if not abandoned and (best is None or worst < best):
                best = worst
                if best == floor:
                    break
        memo[feasible] = best
        return best

    return value(codes)


def minimax_value_naive(config: GameConfig) -> int:
    """Reference implementation: plain recursion, no memo, no pruning, no
    shortcuts.  Only for cross-checking minimax_value on the tiniest boards.
    """
    if injective_code_count(config) > 10:
        raise CapacityError("the naive search is for cross-checks on tiny boards only")
    codes = tuple(all_injective_codes(config))
    n = config.n

    def value(feasible: tuple) -> int:
        if len(feasible) == 1:
            return 1
        best = None
        for x in codes:
            parts = _kernel.partition_by_black(feasible, x)
            if len(parts) == 1 and n not in parts:
                continue
            worst = max(
                1 if ans == n else 1 + value(tuple(part))
                for ans, part in parts.items()
            )
            if best is None or worst < best:
                best = worst
        return best

    return value(codes)
