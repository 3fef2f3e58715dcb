"""Every checker of finished games, and exact game-tree search.

`replay` plays the solver against each secret it is given, drawing them one
at a time, and audits each game (`audit_game`): right answer, internally
consistent transcript, and query budget respected.  `exhaustive_verify`
replays every possible secret of a board; the command line's `bench` and
`solve` audit their games the same way.  `verify_lower_bound_play` plays the
solver against the adversary, checks the answer floors the lower bound rests
on and then audits that game too.  `minimax_value` computes the true
worst-case query count of an optimal codebreaker by searching the full game
tree; it is exponential and guarded accordingly, but on tiny boards it
brackets what the solver achieves.
"""

from __future__ import annotations

from itertools import chain, permutations
from operator import itemgetter

from . import _kernel
from .codemaker import (
    AdversaryCodemaker,
    LemmaViolationError,
    StaticCodemaker,
    all_injective_codes,
    capped_count,
    check_capacity,
    count_text,
)
from .core import (
    CapacityError,
    GameConfig,
    InconsistentOracleError,
    Transcript,
    first_miscount,
)
from .solver import SolverInvariantError, query_bound, solve

MINIMAX_SOFT_LIMIT = 32
MINIMAX_HARD_LIMIT = 120


def check_transcript(transcript: Transcript, secret=None) -> int | None:
    """Index of the first event inconsistent with the rules, or None.

    With a secret given, every recorded count (derived ones included) must
    equal the true black count.  Independently of the secret, if the events
    open with rotations 1..k of the board those k counts must sum to n,
    because every color appears on each position exactly once across them;
    a violation there reports the index completing them.
    """
    config = transcript.config
    n, k = config.n, config.k
    events = transcript.events
    if secret is not None:
        bad = first_miscount(events, secret, config)
        if bad is not None:
            return bad
    # the sum is the cheap test: only a sum other than n needs the opening
    # recognised as rotations 1..k, spliced or not, by its colors
    opening = events[:k]
    if (
        len(opening) == k
        and sum(ev.black for ev in opening) != n
        and all(ev.guess == config.rotation(j) for j, ev in enumerate(opening, start=1))
    ):
        return k - 1
    return None


def audit_game(secret, recovered, transcript: Transcript, queries: int) -> list[tuple]:
    """Failures of one finished game that asked `queries` queries:
    ("wrong_secret", secret, recovered), ("bad_transcript", secret,
    event_index) and ("over_budget", secret, queries)."""
    failures = []
    if recovered != secret:
        failures.append(("wrong_secret", secret, recovered))
    bad = check_transcript(transcript, secret)
    if bad is not None:
        failures.append(("bad_transcript", secret, bad))
    if queries > query_bound(transcript.config):
        failures.append(("over_budget", secret, queries))
    return failures


class VerificationReport:
    """Outcome of replaying the solver against the secrets of one board.

    Built from the board alone, before any game: `bound` is its
    `query_bound`, every count starts at 0 and `replay` adds each game.
    A working record, compared by identity.
    """

    def __init__(self, config: GameConfig):
        self.config = config
        self.total = 0
        self.bound = query_bound(config)
        self.max_queries = 0
        self.query_histogram = {}
        self.failures = []
        self.terminal_swaps = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"n={self.config.n} k={self.config.k}: {self.total} secrets, "
            f"max {self.max_queries} queries, bound {self.bound}, {verdict}"
        )


def replay(config: GameConfig, secrets, solver=solve) -> VerificationReport:
    """Play and audit one game per secret, drawing each as it is played.

    Failures are collected, not raised, as audit_game reports them.  Apart
    from them the report keeps only counts (its `total`, the query
    histogram, the sum of the games' `Transcript.terminal_swaps`), so a
    passing replay's memory does not grow with the number of secrets.
    `failures` does grow with every failing game; it stays a full list
    because `perfbench/workloads.py` counts the failed secrets from it.
    """
    report = VerificationReport(config)
    for secret in secrets:
        recovered, transcript = solver(StaticCodemaker(secret, config), config)
        queries = transcript.query_count
        report.total += 1
        report.query_histogram[queries] = report.query_histogram.get(queries, 0) + 1
        if queries > report.max_queries:
            report.max_queries = queries
        report.failures.extend(audit_game(secret, recovered, transcript, queries))
        report.terminal_swaps += transcript.terminal_swaps
    return report


def exhaustive_verify(
    config: GameConfig,
    solver=solve,
    max_states: int | None = None,
) -> VerificationReport:
    """Replay the solver against every secret of the board and audit each
    game (`replay`), once the board passes the capacity guard."""
    check_capacity(config, max_states, "exhaustive verification")
    return replay(config, all_injective_codes(config), solver)


def verify_lower_bound_play(
    config: GameConfig,
    solver=solve,
    max_states: int | None = None,
) -> tuple[int, list[tuple[int, int]]]:
    """Play the solver against the adversary, check the answer floors and
    audit the game.

    Returns (queries_used, trace) where trace lists (query_index, answer),
    read from the adversary's transcript.  Raises, in this order:
    CapacityError if the board has more codes than `max_states` allows;
    InconsistentOracleError if the game ends before the feasible set is a
    singleton; LemmaViolationError if the game asks fewer than k queries
    (n when k = n), or if an answer exceeds its floor: the m-th at most m
    when k == n, below n before the k-th if k > n; SolverInvariantError if
    `audit_game` finds the game at fault against the remaining secret, on
    the adversary's transcript: a wrong secret recovered, a recorded count
    the secret contradicts, or more queries than `query_bound`.
    """
    oracle = AdversaryCodemaker(config, max_states=max_states)
    recovered, _ = solver(oracle, config)
    if len(oracle.feasible) != 1:
        raise InconsistentOracleError(
            "game ended before the feasible set was a verified singleton"
        )
    queried = [ev for ev in oracle.transcript.events if not ev.derived]
    trace = [(m, ev.black) for m, ev in enumerate(queried, start=1)]
    n, k = config.n, config.k
    if len(trace) < k:
        raise LemmaViolationError(
            f"game ended after {len(trace)} queries, below the {k}-query floor"
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
    # the oracle's transcript holds the answers the adversary actually gave
    failures = audit_game(next(iter(oracle.feasible)), recovered, oracle.transcript, len(trace))
    if failures:
        raise SolverInvariantError(f"adversary game failed its audit: {failures}")
    return len(trace), trace


def _depth_floors(count: int, branch: int) -> list[int]:
    """floors[size], for size 0..count, is the least d >= 1 with
    1 + branch + ... + branch**(d - 1) >= size: with at most `branch`
    non-winning answers per query, no strategy settles more secrets than
    that sum in d queries."""
    floors = []
    depth, within = 1, 1
    for size in range(count + 1):
        while within < size:
            depth += 1
            within = 1 + branch * within
        floors.append(depth)
    return floors


def _position_symmetries(config: GameConfig) -> list[tuple]:
    """The symmetries of a board before any guess, one per relabelling of
    positions, identity first.

    A symmetry is (sigma, getter, pi) and moves a code y to y' with
    y'[sigma[j]] = pi[y[j]]; `getter` is `itemgetter` of sigma's inverse, so
    y' = getter(pi applied to y).  `pi` is indexed by color and reads 0 for
    every color no guess has used yet.  Those colors are interchangeable, so
    one symmetry stands for every relabelling of them among themselves, and a
    code moved by it is known only up to that relabelling: with its unused
    colors blanked to 0.  Before any guess, every color reads 0.
    """
    blank = (0,) * (config.k + 1)
    symmetries = []
    for sigma in permutations(range(config.n)):
        inverse = sorted(range(config.n), key=sigma.__getitem__)
        symmetries.append((sigma, itemgetter(*inverse), blank))
    return symmetries


def _fixing(symmetries: list[tuple], guess: tuple) -> list[tuple]:
    """The symmetries that also fix `guess`, each extended to the colors
    `guess` uses for the first time, identity still first.

    symmetries[0] is the identity, so its `pi` reads c for every used color c
    and 0 for the others: `target` is the guess with its unused colors
    blanked.  A symmetry fixes the guess, for some relabelling of the unused
    colors, exactly when it moves the guess onto `target` the same way: used
    colors land on themselves, and unused colors land where the guess has
    unused colors.  That relabelling sends guess[j] to guess[sigma[j]].
    """
    identity = symmetries[0][2]
    target = tuple(map(identity.__getitem__, guess))
    kept = []
    for sigma, getter, pi in symmetries:
        if getter(tuple(map(pi.__getitem__, guess))) == target:
            grown = list(pi)
            for j, color in enumerate(guess):
                if not pi[color]:
                    grown[color] = guess[sigma[j]]
            kept.append((sigma, getter, tuple(grown)))
    return kept


def _orbit_ids(codes, symmetries: list[tuple]) -> list[int]:
    """Each code's orbit id under `symmetries`: the index of the first code,
    in the order of `codes`, whose blanked form is among the code's images.

    A code's blanked form is the identity's image of it (unused colors read
    0), and its images are its blanked images under every symmetry.  The
    symmetries form a group acting on blanked forms, so the images of two
    codes are equal or disjoint; only the first code of each orbit is moved
    through every symmetry.
    """
    identity = symmetries[0][2]
    label: dict[tuple, int] = {}
    ids = []
    for i, code in enumerate(codes):
        orbit = label.get(tuple(map(identity.__getitem__, code)))
        if orbit is None:
            orbit = i
            for _, getter, pi in symmetries:
                label[getter(tuple(map(pi.__getitem__, code)))] = i
        ids.append(orbit)
    return ids


class _Orbits:
    """One list of symmetries, the orbit id of every code under it
    (`_orbit_ids`), each orbit's first code in code order, and, in `after`,
    the `_Orbits` of the symmetries that also fix each guess tried under it."""

    __slots__ = ("symmetries", "ids", "firsts", "after")

    def __init__(self, codes, symmetries: list[tuple]):
        self.symmetries = symmetries
        self.ids = _orbit_ids(codes, symmetries)
        self.firsts = [i for i, orbit in enumerate(self.ids) if orbit == i]
        self.after: dict[int, _Orbits] = {}


def minimax_value(config: GameConfig, allow_large: bool = False) -> int:
    """Exact worst-case query count of an optimal codebreaker.

    Full min-max over the game tree: every injective code may be guessed at
    every step, the answer splits the feasible set, and the game ends the
    moment the guess is the secret itself.  Exponential; boards beyond 32
    codes need allow_large, beyond 120 they are refused outright.

    The search runs on indices into `codes`, the board's codes in
    lexicographic order: feasible sets, and the memo's keys, are sorted
    tuples of indices.  The first time a code is tried as a guess, its
    counts against every code are kept as one `_kernel.black_row`, and each
    partition groups indices by that row.

    The search tries one guess per orbit of the symmetries that fix every
    guess made so far.  Relabelling positions and colors, on guess and
    secret together, keeps every black count, so such a symmetry maps the
    feasible set onto itself, and it maps the game after guess y onto the
    game after the image of y: the two guesses cost the same.  Before the
    first guess every code lies in one orbit, so only codes[0] is tried.
    After it, a symmetry is a relabelling of positions plus the relabelling
    of used colors it forces, at most n! of them (`_fixing`); colors no guess
    has used are interchangeable, so a code's orbit is found by blanking
    them.  The same list of symmetries recurs at many nodes, so each distinct
    one labels every code with an orbit id once (`_Orbits`), and the list
    after each guess is kept with it.  A node tries the first member of each
    orbit in the order of the feasible set, then of the remaining codes.
    The value of a feasible set does not depend on how the search reached
    it, so the memo stays keyed by the exact set.

    Guesses are pruned by a counting floor before any part is searched.  With
    at most `branch` non-winning answers per query, no strategy settles more
    than 1 + branch + ... + branch**(d - 1) secrets in d queries, so
    `floors[|F|]`, tabulated by size in one pass by `_depth_floors`, is a
    lower bound on the value of any feasible set F.  A guess costs at least 1
    plus the value of its largest part not answered n, so once a best guess
    is known, a guess with 1 + floors[largest] >= best cannot beat it and is
    skipped unsearched; the same floor for the whole set ends the search
    early.  Values are unchanged: only the search into hopeless guesses goes.
    `minimax_value_naive` tries every code and is the reference.
    """
    # the hard limit exceeds the soft one, so one capped count serves both
    count = capped_count(config, MINIMAX_HARD_LIMIT)
    if count > MINIMAX_HARD_LIMIT:
        raise CapacityError(
            f"game-tree search over {count_text(count)} codes is out of reach "
            f"(limit {MINIMAX_HARD_LIMIT})"
        )
    if count > MINIMAX_SOFT_LIMIT and not allow_large:
        raise CapacityError(
            f"game-tree search over {count} codes needs allow_large "
            f"(command line: --allow-large; soft limit {MINIMAX_SOFT_LIMIT})"
        )
    codes = tuple(all_injective_codes(config))
    n, k = config.n, config.k
    # answer n wins; n-1 cannot happen between distinct permutations when k == n
    branch = n - 1 if k == n else n
    floors = _depth_floors(len(codes), branch)
    rows: list[bytes | None] = [None] * len(codes)
    memo: dict[tuple, int] = {}
    # every distinct list of kept symmetries, by its (sigma, pi) pairs
    known: dict[tuple, _Orbits] = {}

    def after(orbits: _Orbits, guess: int) -> _Orbits:
        found = orbits.after.get(guess)
        if found is None:
            kept = _fixing(orbits.symmetries, codes[guess])
            key = tuple((sigma, pi) for sigma, _, pi in kept)
            found = known.get(key)
            if found is None:
                found = known[key] = _Orbits(codes, kept)
            orbits.after[guess] = found
        return found

    def value(feasible: tuple, orbits: _Orbits, guess) -> int:
        # `orbits` are those of the symmetries fixing every guess before
        # `guess`, which left `feasible`; the ones after it are found only
        # for a new set
        if len(feasible) == 1:
            return 1
        if len(feasible) == 2:
            return 2
        if feasible in memo:
            return memo[feasible]
        if guess is not None:
            orbits = after(orbits, guess)
        floor = floors[len(feasible)]
        ids = orbits.ids
        tried = set()
        best = None
        for x in chain(feasible, orbits.firsts):
            orbit = ids[x]
            if orbit in tried:
                continue  # a symmetric guess was tried already
            tried.add(orbit)
            row = rows[x]
            if row is None:
                row = rows[x] = _kernel.black_row(codes, codes[x])
            parts = _kernel.partition_by_black(feasible, row)
            if len(parts) == 1 and n not in parts:
                continue  # answer is forced, the guess teaches nothing
            if best is not None:
                # the part answered n holds the guess alone, never more than
                # another part, so the largest part is one not answered n
                largest = max(map(len, parts.values()))
                if 1 + floors[largest] >= best:
                    continue  # its largest part alone costs as much as `best`
            worst = 0
            for ans, part in sorted(parts.items(), key=lambda kv: (-len(kv[1]), kv[0])):
                cost = 1 if ans == n else 1 + value(tuple(part), orbits, x)
                if cost > worst:
                    worst = cost
                if best is not None and worst >= best:
                    break  # abandoned: it cannot beat `best`
            else:
                best = worst
                if best == floor:
                    break
        memo[feasible] = best
        return best

    return value(tuple(range(len(codes))), _Orbits(codes, _position_symmetries(config)), None)


def minimax_value_naive(config: GameConfig) -> int:
    """Reference implementation: plain recursion, no memo, no pruning, no
    shortcuts.  Only for cross-checking minimax_value on the tiniest boards.
    """
    if capped_count(config, 12) > 12:
        raise CapacityError("the naive search is for cross-checks on tiny boards only")
    codes = tuple(all_injective_codes(config))
    rows = [_kernel.black_row(codes, x) for x in codes]
    n = config.n

    def value(feasible: tuple) -> int:
        if len(feasible) == 1:
            return 1
        best = None
        for row in rows:
            parts = _kernel.partition_by_black(feasible, row)
            if len(parts) == 1 and n not in parts:
                continue
            worst = max(
                1 if ans == n else 1 + value(tuple(part))
                for ans, part in parts.items()
            )
            if best is None or worst < best:
                best = worst
        return best

    return value(tuple(range(len(codes))))
