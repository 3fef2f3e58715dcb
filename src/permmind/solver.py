"""Adaptive codebreaker for black-peg Mastermind without repeated colors.

The strategy opens by querying the first k-1 rotation codes; the last
rotation's count is derived from the rotation identity (the k counts always
sum to n).  It then repeatedly converts one still-open position into a known
component and finishes by enumerating the at most two completions that agree
with every recorded answer.

Each conversion is a short binary search built on an "active" rotation pair:
an index j whose rotation still hides open matches while its successor
rotation r hides none.  Splicing a stretch of rotation r into a guess is then
guaranteed to contribute nothing, so the answer isolates which half of the
spliced interval still carries an open match of rotation j.  Three variants
cover the cases: nothing fixed yet (find_first), at least one component fixed
and k == n (find_next, which routes the search around a pivot color that is
already placed), and k > n (find_next_many_colors, which needs no pivot
because neighbouring rotations already differ by a color that is absent from
one of them).

Total queries stay within query_bound(config):
(n-3)*ceil(log2 n) + floor((5n-2)/2) when k == n, and
(n-2)*ceil(log2 n) + k + 1 when k > n.

Colors and slots of rotations are arithmetic (`core`); `check_board`
refuses boards too large to play before anything is asked.  The opening and
the later searches ask `Splice`s from SPLICE_MIN_HOLES holes on; find_first,
find_first_uniform and the endgame, once per game each, ask plain tuples.

Nothing is rescanned per search: `apply_found_component` keeps the fixed
positions bucketed by rotation, the placed colors and the pivot up to date,
so each query's fixed matches cost two bisects per run
(`_kernel.partial_match_count`) and `select_active_index` resumes where it
left off.  A game is then O(n log n + k) small steps.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from bisect import insort

from ._kernel import partial_match_count
from .core import (
    OPEN,
    CapacityError,
    GameConfig,
    InconsistentOracleError,
    Splice,
    Transcript,
    first_miscount,
    open_matches,
    validate_code,
)

# Boards with at least this many holes ask their opening rotations and the
# guesses of every search after the first as `Splice`s; smaller boards ask
# plain tuples.  A splice costs a fixed few microseconds to build, validate,
# answer, record and audit, where a tuple costs time in proportion to n.
# Timed per query over whole games with their audit (min of 11 runs, two
# sessions, 2-CPU Xeon VM, Python 3.11.7), splices break even at n = 32 to
# 48 on square boards and 32 to 40 on wide ones (k = 1.25n); at n = 64 they
# take 0.75 and 0.51-0.67 of the tuples' time, at n = 96 0.53-0.59 and
# 0.44-0.46.  Any threshold from 48 to 64 plays the benchmarked boards (at
# most 9 holes, or 256) alike.
SPLICE_MIN_HOLES = 64

# Largest query_bound of a board the solver plays.  A game costs about one
# small step per query, O(n log n + k), so the bound measures its work:
# n = k = 16384 may ask 270,293 queries and plays in seconds, while
# (2, 8388608) would ask 8.4 million.  Larger boards are refused before
# anything is asked.
QUERY_LIMIT = 2**19


class SolverInvariantError(RuntimeError):
    """Internal bookkeeping broke; this is a bug, not a bad oracle."""


class CodemakerOracle(ABC):
    """Answering side of one game.

    Validates every guess, range-checks every answer, and records both into a
    transcript shared with the solver.
    """

    def __init__(self, config: GameConfig):
        self.config = config
        self.transcript = Transcript(config)

    def answer(self, guess) -> int:
        validate_code(guess, self.config)
        count = self._respond(guess)
        if type(count) is not int:
            raise InconsistentOracleError(
                f"answer {count!r} is a {type(count).__name__}, not an int"
            )
        if not 0 <= count <= self.config.n:
            raise InconsistentOracleError(
                f"answer {count} outside 0..{self.config.n}"
            )
        self.transcript.record(guess, count)
        return count

    @abstractmethod
    def _respond(self, guess: tuple) -> int:
        """Return the black count for a validated guess."""


class SolverState:
    """Everything the codebreaker knows mid-game.

    `partial` holds the identified components (OPEN elsewhere);
    `v` tracks how many open-position matches each rotation still hides and is
    decremented exactly once per identified component.  The rest is kept up
    to date by `apply_found_component` alone, so no search rescans the
    partial: `fixed` is its rotation profile (`_kernel.rotation_profile`),
    `placed` the set of its colors and `pivot` the smallest of them, None
    until one is placed.  `scan_from` is where `select_active_index`
    resumes.

    Built from the oracle alone, knowing nothing: every position OPEN, no
    rotation counts, nothing solved.  `initial_phase` then fills in `v` and
    `solved_secret`, so no caller can start from views of the fixed pegs
    that disagree.  A working record, compared by identity.
    """

    def __init__(self, oracle: CodemakerOracle):
        config = oracle.config
        self.config = config
        self.oracle = oracle
        self.partial = [OPEN] * config.n
        self.v = []
        self.solved_secret = None
        self.fixed = {}
        self.placed = set()
        self.pivot = None
        self.scan_from = 1

    @property
    def transcript(self) -> Transcript:
        return self.oracle.transcript

    def open_count(self) -> int:
        return self.config.n - len(self.placed)


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def _bisect(a: int, b: int, in_prefix) -> int:
    """Halve a..b down to one position.  `in_prefix(l)` says whether that
    position lies in a..l-1; it is called at most ceil_log2(b - a + 1) times."""
    while b > a:
        l = (a + b + 1) // 2
        if in_prefix(l):
            b = l - 1
        else:
            a = l
    return a


def _phase_budgets(n: int) -> dict[str, int]:
    """Most queries each phase after the opening may ask on an n-hole board;
    `solve` raises SolverInvariantError when one asks more."""
    log_n = ceil_log2(n)
    return {
        "find_first": 2 * log_n,
        "find_first_uniform": n // 2 + 1,
        "find_next": 1 + ceil_log2(n - 1),
        "find_next_many_colors": log_n,
        "endgame": 2,
    }


def check_board(config: GameConfig) -> None:
    """Raise CapacityError when query_bound(config) exceeds QUERY_LIMIT."""
    bound = query_bound(config)
    if bound > QUERY_LIMIT:
        raise CapacityError(
            f"a board of n={config.n}, k={config.k} may ask {bound} queries, "
            f"limit is {QUERY_LIMIT}"
        )


def query_bound(config: GameConfig) -> int:
    """Worst-case queries the solver may spend on this board."""
    n, k = config.n, config.k
    if k == n:
        return (n - 3) * ceil_log2(n) + (5 * n - 2) // 2
    return (n - 2) * ceil_log2(n) + k + 1


def bound_enforced(config: GameConfig) -> bool:
    """Always True: query_bound is promised on every board.

    Kept only because the benchmark harness (`perfbench/workloads.py`) still
    calls it; no module of permmind does.  Delete it with those calls.
    """
    return True


def initial_phase(oracle: CodemakerOracle) -> SolverState:
    """Query rotations 1..k-1 and derive the last count from the rotation sum.

    Plays on a fresh `SolverState(oracle)` and returns it with `v` set to
    the k counts.  If some rotation answers n the secret is that rotation:
    no other rotation shares a color with it at any position, so the
    remaining counts are derived as 0 instead of queried and the state comes
    back with `solved_secret` set.  Raises CapacityError first on a board
    past QUERY_LIMIT.
    """
    config = oracle.config
    check_board(config)
    n, k = config.n, config.k
    state = SolverState(oracle)
    ask = oracle.answer
    spliced = n >= SPLICE_MIN_HOLES
    secret = None
    counts = []
    for j in range(1, k):
        rot = Splice(config, (j, 1, n)) if spliced else config.rotation(j)
        if secret is None:
            ans = ask(rot)
            counts.append(ans)
            if ans == n:
                secret = tuple(rot)
        else:
            state.transcript.record(rot, 0, derived=True)
            counts.append(0)
    last = n - sum(counts)
    if last < 0:
        raise InconsistentOracleError(
            f"rotation answers sum to {sum(counts)}, more than the {n} matches available"
        )
    last_rot = Splice(config, (k, 1, n)) if spliced else config.rotation(k)
    state.transcript.record(last_rot, last, derived=True)
    counts.append(last)
    state.v = counts
    state.solved_secret = secret
    return state


def select_active_index(state: SolverState) -> tuple[int, int]:
    """Smallest j whose rotation still hides open matches while its cyclic
    successor hides none.  Returns (j, successor).

    One exists while a position is open, whatever the oracle answers:
    sum(v) is the number of open positions, since the opening derives the
    last count as n minus the others and `apply_found_component` lowers both
    by one, never below zero.  So some v is positive, and all are only when
    k == n and every v is 1, an opening `find_first_uniform` takes instead.

    The scan resumes at `state.scan_from`, below which no rotation is
    active, and leaves it at the j it returns.  This is safe because v only
    falls, by one, at the j `apply_found_component` fixes: that can make
    only j - 1 active, whose successor is j (rotation k, the successor of
    rotation 1, lies at the scan's end anyway), so it lowers `scan_from` to
    max(j - 1, 1).  A game's scans then cover O(n + k) entries in all, not
    O(k) per search.
    """
    v, k = state.v, state.config.k
    for j in range(state.scan_from, k + 1):
        if v[j - 1] and not v[j % k]:
            state.scan_from = j
            return j, j % k + 1
    raise SolverInvariantError(f"no active rotation pair in v = {v}")


def find_first(state: SolverState, j: int) -> int:
    """Leftmost position where rotation j agrees with the secret.

    Only used before anything is fixed and only for k == n.  Guesses splice
    the all-wrong successor rotation r over positions l..n and park r's first
    color on position l; a positive answer then proves a match inside the
    prefix of rotation j.  An answer of exactly 1 is ambiguous (the parked
    color itself may sit correctly), so the parked peg is swapped with the
    next position, cyclically, and that answer settles it.  Costs at most
    2*ceil(log2 n) queries.
    """
    config = state.config
    n, k = config.n, config.k
    r = j % k + 1
    rj, rr = config.rotation(j), config.rotation(r)
    c = rr[0]  # the parked color
    ask = state.oracle.answer

    def in_prefix(l):
        guess = rj[: l - 1] + (c,) + rr[l:]
        s = ask(guess)
        if s == 1:
            # r's color at i + 1 is j's at i, so for l < n the swap parks c
            # at l + 1.  At l = n the guess is rotation j itself, and the
            # zero answer that moved a to n-1 left its one match at n-1 or
            # n.  A match at n-1 survives the first/last swap, so the answer
            # is positive.  A match at n means rj[n-1] == y_n, so
            # rj[0] != y_n, and rj[n-1] != y_1: the answer is 0.
            if l == n:
                state.transcript.terminal_swaps += 1
            s = ask(_swapped(guess, l, l % n + 1))
        return s > 0

    return _bisect(1, n, in_prefix)


def _swapped(code: tuple, i: int, j: int) -> tuple:
    """`code` with its pegs at positions i and j (1-based) exchanged."""
    out = list(code)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def find_first_uniform(state: SolverState) -> int:
    """Position where the identity rotation is correct, for the special
    opening in which every rotation answered exactly 1.

    Swapping a pair of identity pegs answers 0 exactly when the identity's
    unique match sits inside the pair.  One more swap against a known-wrong
    position tells which of the two it is.  Costs at most floor(n/2) + 1
    queries.

    No secret on an even board answers 1 to every rotation: each position
    would then match exactly one rotation and each rotation one position,
    so i -> (i - y_i) mod n would be a bijection onto 0..n-1.  Its values
    would sum to n(n-1)/2, which is n/2 mod n for even n, yet the i - y_i
    sum to 0.  Such answers are rejected before anything is asked.
    """
    n = state.config.n
    if n % 2 == 0:
        raise InconsistentOracleError(
            f"no secret on {n} holes answers 1 to every rotation"
        )
    ident = state.config.rotation(1)
    ask = state.oracle.answer
    for p in range(1, n, 2):
        if ask(_swapped(ident, p, p + 1)) == 0:
            w = 3 if p == 1 else 1  # lowest position known to hold a wrong identity peg
            return p if ask(_swapped(ident, p, w)) == 0 else p + 1
    return n  # the unpaired last position is the match


def find_next(state: SolverState, j: int) -> int:
    """An open position where rotation j agrees with the secret, once at
    least one component is fixed and k == n.

    The pivot c is the smallest already-identified color.  A first probe
    moves c to the front of rotation j and reveals whether the open matches
    sit left or right of c's slot l_j; the binary search then splices
    rotation j against its successor around the pivot.  After the probe
    the interval is 1..l_j or l_j+1..n (rotation r holds c at l_j + 1),
    so it has at most n - 1 positions; with no probe (l_j == n) it has n,
    and ceil(log2 n) <= 1 + ceil(log2(n - 1)).  Costs at most
    1 + ceil(log2(n - 1)) queries.
    """
    config = state.config
    n, k = config.n, config.k
    r = j % k + 1
    c = state.pivot
    if c is None:
        raise SolverInvariantError("find_next needs an identified component as pivot")
    lj = (c + j - 2) % k + 1  # the slot where rotation j holds c
    fixed = state.fixed
    ask = state.oracle.answer
    spliced = n >= SPLICE_MIN_HOLES
    if not spliced:
        rj, rr = config.rotation(j), config.rotation(r)
    a, b = 0, lj  # the left side; the right side rebinds them below

    def in_prefix(l):
        # rotation r on 1..a and l+1..b, rotation j on a+1..l-1 and b+1..n,
        # and on l the pivot, the one-peg run of its rotation p there
        p = (l - c) % k + 1
        runs = (r, 1, a, j, a + 1, l - 1, p, l, l, r, l + 1, b, j, b + 1, n)
        if spliced:
            guess = Splice(config, runs)
            runs = guess.runs  # its empty runs dropped
        else:
            guess = rr[:a] + rj[a : l - 1] + (c,) + rr[l:b] + rj[b:]
        return open_matches(ask(guess), partial_match_count(fixed, runs)) > 0

    # the probe is the left-side guess at l = 1: rotation r holds rotation
    # j's colors shifted one slot right, so its 2..l_j are rj's 1..l_j-1
    if lj == n or not in_prefix(1):
        return _bisect(1, lj, in_prefix)
    a, b = lj, n
    return _bisect(lj + 1, n, in_prefix)


def find_next_many_colors(state: SolverState, j: int) -> int:
    """An open position where rotation j agrees with the secret, for k > n.

    Neighbouring rotations differ by a color that is missing from one of
    them, so prefix-of-successor plus suffix-of-j is injective as it stands
    and no pivot is needed.  Costs at most ceil(log2 n) queries.
    """
    config = state.config
    n, k = config.n, config.k
    r = j % k + 1
    fixed = state.fixed
    ask = state.oracle.answer
    spliced = n >= SPLICE_MIN_HOLES
    if not spliced:
        rj, rr = config.rotation(j), config.rotation(r)

    def in_prefix(l):
        # rotation r on 1..l-1, rotation j on l..n; a positive count puts the
        # match in l..n, so the answer's sense is inverted
        runs = (r, 1, l - 1, j, l, n)
        if spliced:
            guess = Splice(config, runs)
            runs = guess.runs  # its empty runs dropped
        else:
            guess = rr[: l - 1] + rj[l - 1 :]
        return open_matches(ask(guess), partial_match_count(fixed, runs)) == 0

    return _bisect(1, n, in_prefix)


def apply_found_component(state: SolverState, j: int, m: int) -> None:
    """Fix position m to rotation j's color there and retire one of j's
    remaining open matches.

    The only code that updates what a fixed peg changes: `partial`, `v`,
    the partial's profile `fixed` (m joins rotation j's positions),
    `placed`, `pivot` and `scan_from` (see `select_active_index`).

    A search that lands on a fixed position or a placed color was misled by
    answers no secret gives, so those raise InconsistentOracleError; a
    rotation with nothing left to spend can only come from the caller."""
    color = (m - j) % state.config.k + 1
    if state.partial[m - 1] != OPEN:
        raise InconsistentOracleError(f"position {m} is already fixed")
    if color in state.placed:
        raise InconsistentOracleError(f"color {color} is already placed")
    if state.v[j - 1] <= 0:
        raise SolverInvariantError(f"rotation {j} has no open matches left to spend")
    state.partial[m - 1] = color
    state.v[j - 1] -= 1
    state.placed.add(color)
    if state.pivot is None or color < state.pivot:
        state.pivot = color
    insort(state.fixed.setdefault(j, []), m)
    if j <= state.scan_from:  # lower it to max(j - 1, 1)
        state.scan_from = j - 1 or 1


def endgame(state: SolverState) -> tuple:
    """Enumerate the completions consistent with every recorded answer and
    guess them in ascending order, the order `itertools.product` yields them
    in over ascending options at ascending open positions.  At most two can
    remain, so this costs at most 2 queries, the winning guess included."""
    config = state.config
    n, k = config.n, config.k
    opens = [i for i in range(1, n + 1) if state.partial[i - 1] == OPEN]
    if len(opens) > 2:
        raise SolverInvariantError(f"endgame entered with {len(opens)} open positions")
    used = state.placed
    live = [j for j in range(1, k + 1) if state.v[j - 1] > 0]
    options = [sorted({(i - j) % k + 1 for j in live} - used) for i in opens]
    events = state.transcript.events
    candidates = []
    for combo in itertools.product(*options):
        if len(set(combo)) != len(combo):
            continue
        z = list(state.partial)
        for pos, color in zip(opens, combo):
            z[pos - 1] = color
        z = tuple(z)
        if first_miscount(events, z, config) is None:
            candidates.append(z)
    if not candidates:
        raise InconsistentOracleError("no completion matches the answers given")
    if len(candidates) > 2:
        raise SolverInvariantError(
            f"{len(candidates)} completions remain consistent; bookkeeping is broken"
        )
    for z in candidates:
        if state.oracle.answer(z) == n:
            return z
    raise InconsistentOracleError("every consistent completion was rejected")


def _run_phase(state: SolverState, phase, budget: int, *args):
    """Run one phase and raise if it asked more than `budget` queries.  Phases
    after the opening record no derived events, so new events are queries."""
    events = state.transcript.events
    before = len(events)
    result = phase(state, *args)
    spent = len(events) - before
    if spent > budget:
        raise SolverInvariantError(f"{phase.__name__} asked {spent} queries, budget {budget}")
    return result


def solve(oracle: CodemakerOracle, config: GameConfig | None = None) -> tuple[tuple, Transcript]:
    """Play one full game and return (secret, transcript).

    Each search and the endgame must stay within the cost its docstring
    states; an overrun raises SolverInvariantError.
    """
    if config is not None and config != oracle.config:
        raise ValueError(f"config {config} does not match oracle config {oracle.config}")
    n, k = oracle.config.n, oracle.config.k
    state = initial_phase(oracle)
    if state.solved_secret is not None:
        return state.solved_secret, state.transcript
    budgets = _phase_budgets(n)
    if k == n and state.open_count() > 2:
        if all(c == 1 for c in state.v):
            j = 1
            m = _run_phase(state, find_first_uniform, budgets["find_first_uniform"])
        else:
            j, _ = select_active_index(state)
            m = _run_phase(state, find_first, budgets["find_first"], j)
        apply_found_component(state, j, m)
    if k == n:
        search, budget = find_next, budgets["find_next"]
    else:
        search, budget = find_next_many_colors, budgets["find_next_many_colors"]
    while state.open_count() > 2:
        j, _ = select_active_index(state)
        m = _run_phase(state, search, budget, j)
        apply_found_component(state, j, m)
    secret = _run_phase(state, endgame, budgets["endgame"])
    return secret, state.transcript
