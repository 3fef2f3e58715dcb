"""Adaptive codebreaker for black-peg Mastermind without repeated colors.

The strategy opens by querying the first k-1 rotation codes; the last
rotation's count is derived from the family identity (the k counts always sum
to n).  It then repeatedly converts one still-open position into a known
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
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from .core import (
    OPEN,
    GameConfig,
    InconsistentOracleError,
    Transcript,
    black,
    open_matches,
    rotation_family,
    validate_code,
)


class SolverInvariantError(RuntimeError):
    """Internal bookkeeping broke; this is a bug, not a bad oracle."""


class CodemakerOracle(ABC):
    """Answering side of one game.

    Validates every guess, range-checks every answer, and records both into a
    transcript shared with the solver.
    """

    def __init__(self, config: GameConfig, transcript: Transcript | None = None):
        self.config = config
        self.transcript = transcript if transcript is not None else Transcript(config)

    def answer(self, guess) -> int:
        guess = tuple(guess)
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


@dataclass
class SolverState:
    """Everything the codebreaker knows mid-game.

    `partial` holds the identified components (OPEN elsewhere);
    `rotation_answers` are the raw black counts of the rotation family;
    `v` tracks how many open-position matches each rotation still hides and is
    decremented exactly once per identified component.
    """

    config: GameConfig
    oracle: CodemakerOracle
    partial: list[int]
    v: list[int] = field(default_factory=list)
    rotation_answers: list[int] = field(default_factory=list)
    solved_secret: tuple | None = None

    @property
    def transcript(self) -> Transcript:
        return self.oracle.transcript

    @property
    def rotations(self) -> tuple:
        return rotation_family(self.config)

    def open_count(self) -> int:
        return self.partial.count(OPEN)

    def ask(self, guess) -> int:
        return self.oracle.answer(guess)

    def ask_open(self, guess) -> int:
        """Query a guess and return its open-position match count."""
        return open_matches(self.ask(guess), guess, self.partial)

    def record_derived(self, code, count: int) -> None:
        self.transcript.record(code, count, derived=True)


def _successor(j: int, k: int) -> int:
    return j + 1 if j < k else 1


def _resolve_config(oracle: CodemakerOracle, config: GameConfig | None) -> GameConfig:
    if config is not None and config != oracle.config:
        raise ValueError(f"config {config} does not match oracle config {oracle.config}")
    return oracle.config


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def query_bound(config: GameConfig) -> int:
    """Worst-case queries the solver may spend on this board.

    For k == n the formula degenerates below n = 4 and is reported but not
    enforced there.
    """
    n, k = config.n, config.k
    if k == n:
        return (n - 3) * ceil_log2(n) + (5 * n - 2) // 2
    return (n - 2) * ceil_log2(n) + k + 1


def bound_enforced(config: GameConfig) -> bool:
    """Whether query_bound is a hard promise for this board.

    With k == n the binary searches' disambiguation overhead can outgrow the
    formula on tiny boards, so for n <= 3 the bound is reported, not promised.
    """
    n, k = config.n, config.k
    if k > n:
        return True
    return n >= 4


def initial_phase(oracle: CodemakerOracle, config: GameConfig | None = None) -> SolverState:
    """Query rotations 1..k-1 and derive the last count from the family sum.

    If some rotation answers n the secret is already pinned: the remaining
    family counts are then derived instead of queried and the state comes
    back with `solved_secret` set.
    """
    config = _resolve_config(oracle, config)
    n, k = config.n, config.k
    state = SolverState(config=config, oracle=oracle, partial=[OPEN] * n)
    rots = state.rotations
    secret = None
    counts = []
    for j in range(1, k):
        rot = rots[j - 1]
        if secret is None:
            ans = state.ask(rot)
            counts.append(ans)
            if ans == n:
                secret = rot
        else:
            cnt = black(rot, secret)
            state.record_derived(rot, cnt)
            counts.append(cnt)
    last = n - sum(counts)
    if last < 0:
        raise InconsistentOracleError(
            f"rotation answers sum to {sum(counts)}, more than the {n} matches available"
        )
    state.record_derived(rots[k - 1], last)
    counts.append(last)
    state.rotation_answers = list(counts)
    state.v = list(counts)
    state.solved_secret = secret
    return state


def select_active_index(state: SolverState) -> tuple[int, int]:
    """Smallest j whose rotation still hides open matches while its cyclic
    successor hides none.  Returns (j, successor)."""
    v, k = state.v, state.config.k
    for j in range(1, k + 1):
        r = _successor(j, k)
        if v[j - 1] > 0 and v[r - 1] == 0:
            return j, r
    if all(c == 0 for c in v) and state.open_count() > 0:
        raise InconsistentOracleError(
            "every rotation is exhausted but open positions remain"
        )
    raise InconsistentOracleError(
        "no rotation with matches left sits next to one without"
    )


def find_first(state: SolverState, j: int) -> int:
    """Leftmost position where rotation j agrees with the secret.

    Only used before anything is fixed and only for k == n.  Guesses splice
    the all-wrong successor rotation r over positions l..n and park r's first
    color on position l; a positive answer then proves a match inside the
    prefix of rotation j.  An answer of exactly 1 is ambiguous (the parked
    color itself may sit correctly), so the parked peg is swapped with a peg
    known to be wrong and the answer of that swap settles it.  Costs at most
    2*ceil(log2 n) queries.
    """
    n = state.config.n
    k = state.config.k
    r = _successor(j, k)
    rots = state.rotations
    rj, rr = rots[j - 1], rots[r - 1]
    a, b, m = 1, n, n
    while b > a:
        l = (a + b + 1) // 2
        guess = rj[: l - 1] + (rr[0],) + rr[l:]
        s = state.ask(guess)
        if s == 1:
            if l < n:
                swap = rj[:l] + (rr[0],) + rr[l + 1 :]
            else:
                # Degenerate split: the guess above was rotation j itself, so
                # swap its first and last pegs.  Sound only because reaching
                # l == n required an earlier answer proving the prefix wrong;
                # the exhaustive suite double-checks that via this note.
                swap = (rr[0],) + rj[1 : n - 1] + (rj[0],)
                state.transcript.notes.append(("terminal_swap", j))
            s = state.ask(swap)
        if s > 0:
            b = l - 1
            if b < m:
                m = b
        else:
            a = l
    return m


def _swapped(code: tuple, i: int, j: int) -> tuple:
    out = list(code)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def find_first_uniform(state: SolverState) -> int:
    """Position where the identity rotation is correct, for the special
    opening in which every rotation answered exactly 1.

    Swapping a pair of identity pegs answers 0 exactly when the identity's
    unique match sits inside the pair.  One more swap against a known-wrong
    position tells which of the two it is.  Costs at most floor(n/2) + 1
    queries; with an even hole count the last pair needs no probe of its own.
    """
    n = state.config.n
    if n < 3:
        raise InconsistentOracleError("uniform rotation counts are impossible on two holes")
    ident = state.rotations[0]
    pairs = [(2 * t - 1, 2 * t) for t in range(1, n // 2 + 1)]
    hit = None
    for idx, pair in enumerate(pairs):
        if n % 2 == 0 and idx == len(pairs) - 1:
            # every earlier pair answered nonzero, so the match sits here
            hit = pair
            break
        if state.ask(_swapped(ident, *pair)) == 0:
            hit = pair
            break
    if hit is None:
        return n  # odd hole count: the unpaired last position is the match
    p, q = hit
    w = 3 if p == 1 else 1  # lowest position known to hold a wrong identity peg
    return p if state.ask(_swapped(ident, p, w)) == 0 else q


def find_next(state: SolverState, j: int) -> int:
    """An open position where rotation j agrees with the secret, once at
    least one component is fixed and k == n.

    The pivot c is the smallest already-identified color.  A first probe
    moves c to the front of rotation j and reveals whether the open matches
    sit left or right of c's slot l_j; the binary search then splices
    rotation j against its successor around the pivot.  Costs at most
    1 + ceil(log2 n) queries.
    """
    config = state.config
    n, k = config.n, config.k
    r = _successor(j, k)
    rots = state.rotations
    rj, rr = rots[j - 1], rots[r - 1]
    fixed = [c for c in state.partial if c != OPEN]
    if not fixed:
        raise SolverInvariantError("find_next needs an identified component as pivot")
    c = min(fixed)
    lj = rj.index(c) + 1
    lr = rr.index(c) + 1
    if lj == n:
        left_side = True
    else:
        probe = (c,) + rj[: lj - 1] + rj[lj:]
        left_side = state.ask_open(probe) == 0
    if left_side:
        a, b = 1, lj
    else:
        a, b = lr, n
    m = n
    while b > a:
        l = (a + b + 1) // 2
        if left_side:
            guess = rj[: l - 1] + (c,) + rr[l:lj] + rj[lj:]
        else:
            guess = rr[: lr - 1] + rj[lr - 1 : l - 1] + (c,) + rr[l:]
        s = state.ask_open(guess)
        if s > 0:
            b = l - 1
            if b < m:
                m = b
        else:
            a = l
    return m


def find_next_many_colors(state: SolverState, j: int) -> int:
    """An open position where rotation j agrees with the secret, for k > n.

    Neighbouring rotations differ by a color that is missing from one of
    them, so prefix-of-successor plus suffix-of-j is injective as it stands
    and no pivot is needed.  Costs at most ceil(log2 n) queries.
    """
    config = state.config
    n, k = config.n, config.k
    r = _successor(j, k)
    rots = state.rotations
    rj, rr = rots[j - 1], rots[r - 1]
    a, b, m = 1, n, 1
    while b > a:
        l = (a + b + 1) // 2
        guess = rr[: l - 1] + rj[l - 1 :]
        s = state.ask_open(guess)
        if s > 0:
            a = l
            if a > m:
                m = a
        else:
            b = l - 1
    return m


def apply_found_component(state: SolverState, j: int, m: int) -> None:
    """Fix position m to rotation j's color there and retire one of j's
    remaining open matches."""
    color = state.rotations[j - 1][m - 1]
    if state.partial[m - 1] != OPEN:
        raise SolverInvariantError(f"position {m} is already fixed")
    if color in state.partial:
        raise SolverInvariantError(f"color {color} is already placed")
    if state.v[j - 1] <= 0:
        raise SolverInvariantError(f"rotation {j} has no open matches left to spend")
    state.partial[m - 1] = color
    state.v[j - 1] -= 1


def endgame(state: SolverState) -> tuple:
    """Enumerate the completions consistent with every recorded answer and
    guess them in sorted order.  At most two can remain; the winning guess
    counts as a query like any other."""
    config = state.config
    n, k = config.n, config.k
    rots = state.rotations
    opens = [i for i in range(1, n + 1) if state.partial[i - 1] == OPEN]
    if len(opens) > 2:
        raise SolverInvariantError(f"endgame entered with {len(opens)} open positions")
    if opens:
        used = {c for c in state.partial if c != OPEN}
        live = [j for j in range(1, k + 1) if state.v[j - 1] > 0]
        options = [
            sorted({rots[j - 1][i - 1] for j in live} - used) for i in opens
        ]
        events = state.transcript.events
        candidates = []
        for combo in itertools.product(*options):
            if len(set(combo)) != len(combo):
                continue
            z = list(state.partial)
            for pos, color in zip(opens, combo):
                z[pos - 1] = color
            z = tuple(z)
            if all(black(z, ev.guess) == ev.black for ev in events):
                candidates.append(z)
    else:
        candidates = [tuple(state.partial)]
    candidates.sort()
    if not candidates:
        raise InconsistentOracleError("no completion matches the answers given")
    if len(candidates) > 2:
        raise SolverInvariantError(
            f"{len(candidates)} completions remain consistent; bookkeeping is broken"
        )
    for z in candidates:
        if state.ask(z) == n:
            return z
    raise InconsistentOracleError("every consistent completion was rejected")


def solve(oracle: CodemakerOracle, config: GameConfig | None = None) -> tuple[tuple, Transcript]:
    """Play one full game and return (secret, transcript)."""
    config = _resolve_config(oracle, config)
    n, k = config.n, config.k
    state = initial_phase(oracle, config)
    if state.solved_secret is not None:
        return state.solved_secret, state.transcript
    if k == n and state.open_count() > 2:
        if all(c == 1 for c in state.v):
            j = 1
            m = find_first_uniform(state)
        else:
            j, _ = select_active_index(state)
            m = find_first(state, j)
        apply_found_component(state, j, m)
    while state.open_count() > 2:
        j, _ = select_active_index(state)
        m = find_next(state, j) if k == n else find_next_many_colors(state, j)
        apply_found_component(state, j, m)
    secret = endgame(state)
    return secret, state.transcript
