"""Codemaker oracles and the adaption behind the adversary's lower bound.

`StaticCodemaker` answers for a fixed secret.  `AdversaryCodemaker` commits
to nothing: it keeps the set of secrets consistent with everything answered
so far, always answers with the smallest black count any remaining secret
would produce, and discards the rest.  Played against, it forces the
codebreaker to spend at least k queries (n when k = n).  Playing such a game
and checking it, floors and audit, is `bruteforce.verify_lower_bound_play`,
beside the other checkers.

The adaption procedure is the constructive heart of that argument:
`adapt_secret(config, queries, secret)` takes the query history and a
current notional secret and builds another secret that keeps every earlier
black count but strictly lowers the latest one, proving the adversary could
have answered lower all along.  It is one chain walk over two color pools:
the colors on which the current query and secret agree when k == n, and
every color when k > n.

The capacity helpers `capped_count`, `count_text` and `check_capacity`
are public: the brute-force module refuses huge boards with them too.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from . import _kernel
from .core import CapacityError, GameConfig, Splice, validate_code
from .solver import CodemakerOracle

DEFAULT_STATE_LIMIT = 10**6
# counts past this are written as "more than" it: no message spells out a
# count of thousands of digits
COUNT_CAP = 10**30


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


def capped_count(config: GameConfig, limit: int) -> int:
    """k!/(k-n)!, multiplied out factor by factor until the product is past
    both `limit` and COUNT_CAP.  So the result exceeds `limit` exactly when
    the true count does, and it is the true count whenever that is at most
    COUNT_CAP; a huge board costs a few multiplications, not a huge int."""
    count = 1
    for factor in range(config.k, config.k - config.n, -1):
        count *= factor
        if count > limit and count > COUNT_CAP:
            break
    return count


def count_text(count: int) -> str:
    """A count from `capped_count` as messages write it."""
    return str(count) if count <= COUNT_CAP else f"more than {COUNT_CAP}"


def check_capacity(config: GameConfig, max_states: int | None, what: str) -> None:
    limit = DEFAULT_STATE_LIMIT if max_states is None else max_states
    count = capped_count(config, limit)
    if count > limit:
        raise CapacityError(
            f"{what} would enumerate {count_text(count)} codes, limit is {limit} "
            "(raise it with --max-states)"
        )


class StaticCodemaker(CodemakerOracle):
    """Honest oracle for a fixed secret on the board `config`, a required
    argument: k is not a property of a secret.

    A `Splice` of the board is answered by run, two bisects each into the
    secret's rotation profile, built at the first one; other guesses by
    `_kernel.black_count`, since validation has matched their lengths.
    """

    def __init__(self, secret, config: GameConfig):
        secret = tuple(secret)
        validate_code(secret, config)
        super().__init__(config)
        self.secret = secret

    @cached_property
    def profile(self) -> dict:
        return _kernel.rotation_profile(self.secret, self.config.k)

    def _respond(self, guess: tuple) -> int:
        if type(guess) is Splice and (guess.config is self.config or guess.config == self.config):
            return _kernel.partial_match_count(self.profile, guess.runs)
        return _kernel.black_count(guess, self.secret)


class AdversaryCodemaker(CodemakerOracle):
    """Oracle that answers with the smallest black count still consistent.

    Keeps the feasible set explicitly, so nothing it says is ever a lie about
    every remaining secret, and the game cannot end until the set is a
    singleton (only then can an answer reach n).  The set is a
    `_kernel.CodeSet` of the board's codes in lexicographic order: while
    many remain, one int per first color still in play, a bit per code of
    the board with one hole and one color fewer; the codes themselves once
    few do.  Each answer replaces it with the set of the codes scoring the
    answer (`_kernel.min_black_filter`), counted block by block, and
    changes no earlier set.
    """

    def __init__(self, config: GameConfig, max_states: int | None = None):
        check_capacity(config, max_states, "adversary play")
        super().__init__(config)
        self.feasible = _kernel.code_set(config.n, config.k)

    def _respond(self, guess: tuple) -> int:
        """The smallest black count in the feasible set; the codes scoring it
        become the new set.  The set never empties: the filter keeps at
        least one code of a non-empty set."""
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
    # tuple copies: a Splice validates but cannot be indexed
    queries = [tuple(q) for q in queries]
    y, current, m = tuple(secret), queries[-1], len(queries)
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
