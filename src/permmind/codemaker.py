"""Codemaker oracles and the adversarial lower-bound machinery.

`StaticCodemaker` answers for a fixed secret.  `AdversaryCodemaker` commits
to nothing: it keeps the set of secrets consistent with everything answered
so far, always answers with the smallest black count any remaining secret
would produce, and discards the rest.  Played against, it forces the
codebreaker to spend at least n queries when k == n and at least k queries
when k > n; `verify_lower_bound_play` runs such a game and checks, on the
adversary's transcript, the answer floors the argument rests on (answer at
query m is at most m when k == n, and below n before query k when k > n).

The adaption procedure is the constructive heart of that argument:
`adapt_secret(config, queries, secret)` takes the query history and a
current notional secret and builds another secret that keeps every earlier
black count but strictly lowers the latest one, proving the adversary could
have answered lower all along.  It is one chain walk over two color pools:
the colors on which the current query and secret agree when k == n, and
every color when k > n.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from . import _kernel
from .core import (
    GameConfig,
    InconsistentOracleError,
    CapacityError,
    Splice,
    black,
    validate_code,
)
from .solver import CodemakerOracle, solve

DEFAULT_STATE_LIMIT = 10**6


class LemmaViolationError(RuntimeError):
    """An adversary answer broke a floor the lower-bound argument relies on."""


def injective_code_count(config: GameConfig) -> int:
    return math.perm(config.k, config.n)


def all_injective_codes(config: GameConfig):
    """All codes for the board, in lexicographic order."""
    return itertools.permutations(range(1, config.k + 1), config.n)


def random_injective_code(config: GameConfig, rng) -> tuple:
    """Uniformly random code, via a partial Fisher-Yates shuffle of 1..k."""
    pool = list(range(1, config.k + 1))
    for i in range(config.n):
        j = rng.randrange(i, config.k)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(pool[: config.n])


def _check_capacity(config: GameConfig, max_states: int | None, what: str) -> int:
    count = injective_code_count(config)
    limit = DEFAULT_STATE_LIMIT if max_states is None else max_states
    if count > limit:
        raise CapacityError(
            f"{what} would enumerate {count} codes, limit is {limit} "
            "(raise it with --max-states)"
        )
    return count


class StaticCodemaker(CodemakerOracle):
    """Honest oracle for a fixed secret.

    A `Splice` of the board is answered by run, two bisects each into the
    secret's rotation profile, built at the first one; other guesses by a
    scan.
    """

    def __init__(self, secret, config: GameConfig | None = None):
        secret = tuple(secret)
        if config is None:
            # only exact ints can be colors; GameConfig and validate_code
            # name whatever else is wrong with the secret
            colors = [c for c in secret if type(c) is int]
            config = GameConfig(len(secret), max([len(secret), *colors]))
        validate_code(secret, config)
        super().__init__(config)
        self.secret = secret

    @cached_property
    def profile(self) -> dict:
        return _kernel.rotation_profile(self.secret, self.config.k)

    def _respond(self, guess: tuple) -> int:
        if type(guess) is Splice and guess.config.k == self.config.k:
            return _kernel.partial_match_count(self.profile, guess.runs)
        return black(guess, self.secret)


class AdversaryCodemaker(CodemakerOracle):
    """Oracle that answers with the smallest black count still consistent.

    Keeps the feasible set explicitly, so nothing it says is ever a lie about
    every remaining secret, and the game cannot end until the set is a
    singleton (only then can an answer reach n).  The set is an (N, n) numpy
    matrix of codes in lexicographic order, stored column by column
    (`_kernel.code_matrix`): n bytes per code while k <= 255.  Each answer
    filters it in place (`_kernel.min_black_filter`), so `feasible` is a
    view of the first rows of the one buffer built at the start, and the
    rows of that buffer past it are unspecified; a caller that keeps a set
    across later answers must copy it.
    """

    def __init__(self, config: GameConfig, max_states: int | None = None):
        _check_capacity(config, max_states, "adversary play")
        super().__init__(config)
        self.feasible = _kernel.code_matrix(config.n, config.k)

    def _respond(self, guess: tuple) -> int:
        """The smallest black count in the feasible set; the codes scoring it
        become the new set.  The set never empties: the filter keeps at
        least one row of a non-empty matrix."""
        count, self.feasible = _kernel.min_black_filter(self.feasible, guess)
        return count


def adapt_secret(config: GameConfig, queries, secret) -> tuple:
    """Replacement secret that keeps all earlier black counts and strictly
    lowers the current one.

    `queries` holds x^1..x^m, the last one current, and `secret` is y^m.  An
    empty history raises ValueError and an invalid code InvalidCodeError.

    Starts at the first position where the current query and secret agree
    and walks a chain: each position takes the smallest color from the pool
    never tried there, and the walk moves on to the position the secret
    holds that color at.  It stops when the color closes a cycle, and the
    cycle is rewritten, so the result is again injective; or when the color
    is unused by the secret, and the whole chain is rewritten.

    The board picks the pool.  For k == n it is the colors on which the
    current query and secret agree, and there must be at least m+1 of them;
    every color is in the secret, so only a cycle can end the walk.  The
    earlier counts are sure to be kept when no earlier query agrees with the
    secret on any agreement position, because the rewrite touches only those
    positions.  For k > n the pool is every color, the current query must be
    the current secret, and an untried color exists at every position as
    long as m < k.  Both required premises raise ValueError when they fail.
    """
    if not queries:
        raise ValueError("need at least one query")
    for q in queries:
        validate_code(q, config)
    validate_code(secret, config)
    y, current, m = secret, queries[-1], len(queries)
    if config.k == config.n:
        pool = {c for c, x in zip(y, current) if c == x}
        if len(pool) < m + 1:
            raise ValueError(f"need at least {m + 1} agreeing colors, have {len(pool)}")
    elif current != y:
        raise ValueError("with spare colors the current query must be the current secret")
    else:
        pool = config.palette
    start = next(i for i in range(1, config.n + 1) if y[i - 1] == current[i - 1])
    unused = config.palette - set(y)

    def untried(position: int) -> int:
        options = pool - {q[position - 1] for q in queries}
        if not options:
            raise ValueError(f"no replacement color available at position {position}")
        return min(options)

    positions = [start]
    colors = [untried(start)]
    seen = set()
    while colors[-1] not in seen and colors[-1] not in unused:
        seen.add(y[positions[-1] - 1])
        positions.append(y.index(colors[-1]) + 1)
        colors.append(untried(positions[-1]))
        if len(positions) > config.n:
            raise RuntimeError("replacement chain failed to close")
    closing = colors[-1]
    first = 0 if closing in unused else positions.index(y.index(closing) + 1)
    z = list(y)
    for pos, color in zip(positions[first:], colors[first:]):
        z[pos - 1] = color
    return tuple(z)


def verify_lower_bound_play(
    config: GameConfig,
    solver=solve,
    max_states: int | None = None,
) -> tuple[int, list[tuple[int, int]]]:
    """Play the solver against the adversary and audit the answer floors.

    Returns (queries_used, trace) where trace lists (query_index, answer),
    read from the adversary's transcript.  Raises LemmaViolationError if an
    answer exceeds its floor: when k == n the m-th answer must stay at most
    m; when k > n every answer before the k-th must stay below n.
    """
    oracle = AdversaryCodemaker(config, max_states=max_states)
    secret, _ = solver(oracle, config)
    if len(oracle.feasible) != 1 or tuple(map(int, oracle.feasible[0])) != secret:
        raise InconsistentOracleError(
            "game ended before the feasible set was a verified singleton"
        )
    queried = oracle.transcript.queried_events()
    trace = [(m, ev.black) for m, ev in enumerate(queried, start=1)]
    n, k = config.n, config.k
    floor = n if k == n else k
    if len(trace) < floor:
        raise LemmaViolationError(
            f"game ended after {len(trace)} queries, below the {floor}-query floor"
        )
    for m, answer in trace:
        if k == n:
            if answer > m:
                raise LemmaViolationError(
                    f"query {m} was answered {answer}, above the floor {m}"
                )
        elif m < k and answer >= n:
            raise LemmaViolationError(
                f"query {m} was answered {answer}, which should be impossible before query {k}"
            )
    return len(trace), trace
