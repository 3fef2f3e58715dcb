"""Strategy internals: opening, binary searches, endgame, budgets."""

import functools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from permmind import (
    CapacityError,
    GameConfig,
    InconsistentOracleError,
    SolverInvariantError,
    Splice,
    StaticCodemaker,
    all_injective_codes,
    black,
    bound_enforced,
    check_transcript,
    query_bound,
    solve,
    validate_code,
)
import permmind._kernel
import permmind.solver
from permmind._kernel import rotation_profile
from permmind.core import OPEN, open_matches
from permmind.solver import (
    CodemakerOracle,
    SolverState,
    _bisect,
    _phase_budgets,
    apply_found_component,
    ceil_log2,
    check_board,
    endgame,
    find_first,
    find_first_uniform,
    find_next,
    find_next_many_colors,
    initial_phase,
    select_active_index,
)
from util import all_rotations


class ScriptedOracle(CodemakerOracle):
    """Answers from a fixed list; for driving single functions down chosen
    branches without a consistent board behind them."""

    def __init__(self, config, answers):
        super().__init__(config)
        self.answers = list(answers)

    def _respond(self, guess):
        return self.answers.pop(0)


class RandomOracle(CodemakerOracle):
    """Answers uniformly random counts: a codemaker that lies at will."""

    def __init__(self, config, rng):
        super().__init__(config)
        self.rng = rng

    def _respond(self, guess):
        return self.rng.randint(0, self.config.n)


class FixedOnlyOracle(CodemakerOracle):
    """Counts only the agreements with the state's fixed positions, so no
    search ever sees an open match: a codemaker that denies every one."""

    def __init__(self, state):
        super().__init__(state.config)
        self.state = state

    def _respond(self, guess):
        return black(guess, self.state.partial)


def state_for(secret, config):
    return initial_phase(StaticCodemaker(secret, config))


def check_search_results(monkeypatch, name):
    """Wrap the search `solver.<name>`, which `solve` looks up each time it
    runs the phase, so that every position it returns is checked against the
    oracle's secret.  Returns the list of (secret, j, m) it has checked."""
    search = getattr(permmind.solver, name)
    calls = []

    @functools.wraps(search)
    def checked(state, j):
        m = search(state, j)
        secret = state.oracle.secret
        assert state.config.rotation(j)[m - 1] == secret[m - 1], (secret, j, m)
        calls.append((secret, j, m))
        return m

    monkeypatch.setattr(permmind.solver, name, checked)
    return calls


def play_every_secret(config):
    for secret in all_injective_codes(config):
        assert solve(StaticCodemaker(secret, config), config)[0] == secret


def worked_example_state():
    """The worked n = 8 example after the opening, with three components
    fixed: 2 at position 5 (rotation 4), 5 and 6 at 7 and 8 (rotation 3)."""
    state = state_for((7, 1, 4, 3, 2, 8, 5, 6), GameConfig(8, 8))
    for j, m in ((4, 5), (3, 7), (3, 8)):
        apply_found_component(state, j, m)
    assert state.partial == [OPEN, OPEN, OPEN, OPEN, 2, OPEN, 5, 6]
    assert state.v == [0, 2, 1, 0, 0, 0, 1, 1]
    return state


class TestBounds:
    @pytest.mark.parametrize(
        "n,expected", [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (64, 6), (256, 8)]
    )
    def test_ceil_log2(self, n, expected):
        assert ceil_log2(n) == expected
        assert expected == math.ceil(math.log2(n))

    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (4, 4, 11),
            (8, 8, 34),
            (64, 64, 525),
            (256, 256, 2663),
            (3, 5, 8),
            (4, 6, 11),
            (4, 8, 13),
        ],
    )
    def test_query_bound(self, n, k, expected):
        assert query_bound(GameConfig(n, k)) == expected

    def test_enforcement(self):
        # the benchmark harness gates every board's query count on this
        assert bound_enforced(GameConfig(2, 2))
        assert bound_enforced(GameConfig(3, 3))
        assert bound_enforced(GameConfig(4, 4))
        assert bound_enforced(GameConfig(2, 3))

    @given(*[st.integers(min_value=1, max_value=300)] * 3)
    @example(7, 7, 7)
    def test_bisect_halves_to_the_target(self, x, y, z):
        a, t, b = sorted((x, y, z))
        asked = []

        def in_prefix(l):
            asked.append(l)
            return l > t

        assert _bisect(a, b, in_prefix) == t
        # ceil_log2(1) == 0: a one-position interval asks nothing
        assert len(asked) <= ceil_log2(b - a + 1)

    def test_enforced_budgets_prove_the_bound(self):
        # The most a game can cost with every phase inside its budget:
        # opening k - 1, one search per position but the last two (the first
        # square-board one is find_first or find_first_uniform), endgame.
        # Where that exceeds query_bound, the promise rests on replay
        # (n <= 8) or on sampled games alone (n = 10..13).
        unproved = []
        for n in range(2, 10**5 + 1):
            budgets = _phase_budgets(n)
            first = max(budgets["find_first"], budgets["find_first_uniform"])
            searches = max(n - 2, 0)
            for k in (n, n + 1, 2 * n):
                if k > n:
                    spent = searches * budgets["find_next_many_colors"]
                elif searches:
                    spent = first + (searches - 1) * budgets["find_next"]
                else:
                    spent = 0
                if k - 1 + spent + budgets["endgame"] > query_bound(GameConfig(n, k)):
                    unproved.append((n, k))
        assert unproved == [(n, n) for n in [*range(3, 9), *range(10, 14)]]

    def test_find_next_budget_needs_no_max(self):
        # ceil(log2 n) <= 1 + ceil(log2(n - 1)): of the two terms of the
        # search's cost, the first is the larger on every board
        for n in range(2, 10**5 + 1):
            assert _phase_budgets(n)["find_next"] == max(1 + ceil_log2(n - 1), ceil_log2(n))


class TestInitialPhase:
    def test_small_wide_board(self):
        state = state_for((2, 1), GameConfig(2, 3))
        assert state.v == [0, 1, 1]
        assert state.transcript.query_count == 2
        assert len(state.transcript.events) == 3
        assert state.transcript.events[-1].derived

    def test_worked_example_answers(self):
        state = state_for((7, 1, 4, 3, 2, 8, 5, 6), GameConfig(8, 8))
        assert state.v == [0, 2, 3, 1, 0, 0, 1, 1]
        assert state.transcript.query_count == 7
        assert state.solved_secret is None

    def test_early_solve_on_rotation_secret(self):
        config = GameConfig(5, 5)
        secret = config.rotation(3)
        state = state_for(secret, config)
        assert state.solved_secret == secret
        assert state.transcript.query_count == 3
        # the remaining family counts are filled in as derived events
        assert len(state.transcript.events) == 5
        assert sum(ev.black for ev in state.transcript.events) == 5

    def test_a_pinned_opening_derives_zeros_without_counting(self, monkeypatch):
        # once rotation j answers n, rotations j+1..k share no color with it
        # at any position: their counts are recorded as 0, never counted
        config = GameConfig(1024, 1024)
        j = 3
        secret = config.rotation(j)
        oracle = StaticCodemaker(secret, config)

        def no_count(*args):
            pytest.fail("a black count was computed")

        monkeypatch.setattr(permmind._kernel, "black_count", no_count)
        state = initial_phase(oracle)
        monkeypatch.undo()
        events = state.transcript.events
        assert state.solved_secret == secret
        assert state.transcript.query_count == j
        derived = events[j:]
        assert len(derived) == config.k - j
        assert all(ev.derived and ev.black == 0 for ev in derived)
        assert check_transcript(state.transcript, secret) is None

    def test_overreporting_oracle_detected(self):
        oracle = ScriptedOracle(GameConfig(3, 3), [2, 2])
        with pytest.raises(InconsistentOracleError):
            initial_phase(oracle)

    @pytest.mark.parametrize(
        "mistyped,match",
        [
            (1.0, "not an int"),
            (2.7, "not an int"),
            ("1", "not an int"),
            (True, "not an int"),
            (4, "outside 0..3"),
            (-1, "outside 0..3"),
        ],
        ids=["1.0", "2.7", "1", "True", "4", "-1"],
    )
    def test_mistyped_answer_rejected(self, mistyped, match):
        oracle = ScriptedOracle(GameConfig(3, 3), [mistyped])
        with pytest.raises(InconsistentOracleError, match=match):
            oracle.answer((1, 2, 3))
        assert oracle.transcript.query_count == 0


class TestSolverState:
    def test_defaults_are_fresh_per_state(self):
        config = GameConfig(4, 4)
        oracle = StaticCodemaker((2, 1, 4, 3), config)
        one, two = (SolverState(oracle) for _ in range(2))
        assert one.config == oracle.config and one.oracle is oracle
        assert one.partial == [OPEN] * 4
        assert (one.v, one.fixed, one.placed) == ([], {}, set())
        assert (one.solved_secret, one.pivot, one.scan_from) == (None, None, 1)
        assert one.partial is not two.partial
        assert one.v is not two.v and one.fixed is not two.fixed
        assert one.placed is not two.placed
        one.partial[0] = 2
        one.v.append(1)
        one.fixed[1] = [2]
        one.placed.add(3)
        assert two.partial == [OPEN] * 4
        assert (two.v, two.fixed, two.placed) == ([], {}, set())


class TestSelectActiveIndex:
    def _state_with_v(self, v, n=8):
        config = GameConfig(n, n)
        state = SolverState(StaticCodemaker(tuple(range(1, n + 1)), config))
        state.v = list(v)
        return state

    def test_worked_example_vector(self):
        state = self._state_with_v([0, 2, 1, 0, 0, 0, 1, 1])
        assert select_active_index(state) == (3, 4)

    def test_single_match_variant(self):
        state = self._state_with_v([0, 0, 1, 0, 0, 0, 1, 0])
        assert select_active_index(state) == (3, 4)

    def test_wraparound(self):
        state = self._state_with_v([0, 0, 0, 0, 0, 0, 0, 3])
        assert select_active_index(state) == (8, 1)

    @pytest.mark.parametrize("v", [[0] * 8, [1] * 8], ids=["exhausted", "no_boundary"])
    def test_missing_active_pair_is_a_solver_bug(self, v):
        # no oracle can bring solve here: sum(v) tracks the open positions
        state = self._state_with_v(v)
        with pytest.raises(SolverInvariantError, match="v = "):
            select_active_index(state)

    @staticmethod
    def _reference(v, k):
        # the plain scan over j = 1..k, with the successor written out
        for j in range(1, k + 1):
            r = j + 1 if j < k else 1
            if v[j - 1] > 0 and v[r - 1] == 0:
                return j, r
        return None

    @given(st.integers(min_value=2, max_value=40).flatmap(lambda k: st.one_of(
        st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k),
        # v[0] == 0 and every other entry positive: only (k, 1) is active
        st.lists(st.integers(min_value=1, max_value=3), min_size=k - 1, max_size=k - 1).map(
            lambda rest: [0, *rest]
        ),
    )))
    @example([0, 0])
    @example([3, 1])
    @example([0, 2, 1])
    def test_agrees_with_the_plain_scan(self, v):
        k = len(v)
        state = self._state_with_v(v, n=k)
        expected = self._reference(v, k)
        if expected is None:
            with pytest.raises(SolverInvariantError, match="v = "):
                select_active_index(state)
        else:
            assert select_active_index(state) == expected


class TestFindFirst:
    def test_replay_plain(self):
        # y = (2,1,4,3): rotation answers (0,2,0,2), active index 2
        state = state_for((2, 1, 4, 3), GameConfig(4, 4))
        j, r = select_active_index(state)
        assert (j, r) == (2, 3)
        m = find_first(state, j)
        assert m == 2
        asked = [(ev.guess, ev.black) for ev in state.transcript.events[4:]]
        assert asked == [
            ((4, 1, 3, 2), 1),  # split at 3; answer 1 is ambiguous
            ((4, 1, 2, 3), 2),  # swap settles it: the match is in the prefix
            ((4, 3, 1, 2), 0),
        ]
        assert state.transcript.terminal_swaps == 0

    def test_replay_degenerate_last_split(self):
        # y = (1,2,4,3): the split reaches l == n, whose guess is rotation 2
        # itself; the first/last swap resolves it and is counted
        state = state_for((1, 2, 4, 3), GameConfig(4, 4))
        j, _ = select_active_index(state)
        assert j == 2
        m = find_first(state, j)
        assert m == 4
        asked = [(ev.guess, ev.black) for ev in state.transcript.events[4:]]
        assert asked == [
            ((4, 1, 3, 2), 0),
            ((4, 1, 2, 3), 1),
            ((3, 1, 2, 4), 0),
        ]
        assert state.transcript.terminal_swaps == 1

    def test_all_boards_find_a_true_component(self, monkeypatch):
        # wherever solve runs the opening search, the position it returns
        # must really carry rotation j's color in the secret
        calls = check_search_results(monkeypatch, "find_first")
        for n in (4, 5, 6):
            before = len(calls)
            play_every_secret(GameConfig(n, n))
            assert len(calls) > before


class TestFindFirstUniform:
    def test_replay_odd_board(self):
        state = state_for((1, 3, 5, 2, 4), GameConfig(5, 5))
        assert state.v == [1, 1, 1, 1, 1]
        m = find_first_uniform(state)
        assert m == 1
        asked = [(ev.guess, ev.black) for ev in state.transcript.events[5:]]
        assert asked == [
            ((2, 1, 3, 4, 5), 0),  # match is inside the first pair
            ((3, 2, 1, 4, 5), 0),  # swapping 1 away kept it: position 1 it is
        ]

    def test_all_uniform_secrets(self):
        for n in (3, 5, 7):
            config = GameConfig(n, n)
            fam = all_rotations(config)
            uniform = [
                y
                for y in all_injective_codes(config)
                if all(black(rot, y) == 1 for rot in fam)
            ]
            assert uniform, f"no uniform-answer secrets for n={n}"
            for secret in uniform:
                state = state_for(secret, config)
                m = find_first_uniform(state)
                assert secret[m - 1] == m, (secret, m)

    def test_even_boards_have_no_uniform_secrets(self):
        # the rotation index hit by position i is a bijection only when n is
        # odd, so the uniform opening cannot arise on even square boards
        for n in (4, 6):
            config = GameConfig(n, n)
            fam = all_rotations(config)
            assert not any(
                all(black(rot, y) == 1 for rot in fam)
                for y in all_injective_codes(config)
            )

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_boards_rejected_before_asking(self, n):
        # every v == 1 is impossible on an even board, so the search raises
        # at once: the oracle has no answers to give
        config = GameConfig(n, n)
        state = SolverState(ScriptedOracle(config, []))
        state.v = [1] * n
        with pytest.raises(InconsistentOracleError):
            find_first_uniform(state)
        assert state.transcript.events == []


class TestFindNext:
    def test_replay_worked_example(self):
        state = worked_example_state()
        j, r = select_active_index(state)
        assert (j, r) == (3, 4)
        m = find_next(state, j)
        assert m == 1
        tail = state.transcript.events[8:]
        assert [(ev.guess, ev.black) for ev in tail] == [
            ((2, 7, 8, 1, 3, 4, 5, 6), 2),
            ((7, 8, 2, 1, 3, 4, 5, 6), 3),
            ((7, 2, 8, 1, 3, 4, 5, 6), 3),
        ]
        opens = [open_matches(ev.black, black(ev.guess, state.partial)) for ev in tail]
        assert opens == [0, 1, 1]

    def test_replay_pivot_at_last_slot(self):
        # pivot color 1 sits on the last slot of rotation 4, so the left
        # side is known without a probe
        state = state_for((2, 1, 4, 3), GameConfig(4, 4))
        apply_found_component(state, 2, 2)
        assert state.partial == [OPEN, 1, OPEN, OPEN]
        assert state.v == [0, 1, 0, 2]
        m = find_next(state, 4)
        assert m == 1
        asked = [ev.guess for ev in state.transcript.events[4:]]
        assert asked == [(2, 3, 1, 4), (2, 1, 3, 4)]

    def test_needs_a_fixed_component(self):
        state = state_for((2, 1, 4, 3), GameConfig(4, 4))
        with pytest.raises(SolverInvariantError):
            find_next(state, 2)

    def test_denied_open_matches_land_on_the_pivot(self):
        # no positive answer on the left side leaves the bound at l_j, where
        # rotation j holds the pivot color, so placing it is refused
        state = worked_example_state()
        state.oracle = FixedOnlyOracle(state)
        m = find_next(state, 3)
        assert state.config.rotation(3)[m - 1] == 2
        with pytest.raises(InconsistentOracleError):
            apply_found_component(state, 3, m)


class TestFindNextManyColors:
    def test_replay_worked_example(self):
        config = GameConfig(4, 5)
        state = state_for((2, 4, 1, 5), config)
        assert state.v == [0, 0, 1, 1, 2]
        j, _ = select_active_index(state)
        assert j == 5
        m = find_next_many_colors(state, j)
        assert m == 4
        asked = [ev.guess for ev in state.transcript.events[5:]]
        assert asked == [(1, 2, 4, 5), (1, 2, 3, 5)]

    def test_finds_true_components_everywhere(self, monkeypatch):
        # every search solve runs returns a position carrying rotation j's
        # color in the secret
        calls = check_search_results(monkeypatch, "find_next_many_colors")
        for n, k in ((3, 5), (4, 6), (2, 4)):
            before = len(calls)
            play_every_secret(GameConfig(n, k))
            # on two holes solve goes from the opening straight to the endgame
            assert (len(calls) > before) == (n > 2)


@st.composite
def board_and_secret(draw):
    """A square or wide board of 3 to 12 holes, or the 64-hole board, where
    the searches ask splices, and a secret of it."""
    kind = draw(st.sampled_from(["square", "wide", "spliced"]))
    if kind == "spliced":
        n = k = 64
    else:
        n = draw(st.integers(min_value=3, max_value=12))
        k = n if kind == "square" else draw(st.integers(min_value=n + 1, max_value=2 * n))
    secret = tuple(draw(st.permutations(range(1, k + 1)))[:n])
    return GameConfig(n, k), secret


def check_kept_state(state):
    """The state `apply_found_component` keeps up to date equals a rescan of
    `partial` and `v`."""
    partial, v, k = state.partial, state.v, state.config.k
    assert state.fixed == rotation_profile(partial, k)
    assert state.placed == set(partial) - {OPEN}
    assert state.pivot == min(state.placed, default=None)
    assert state.open_count() == partial.count(OPEN)
    active = [j for j in range(1, k + 1) if v[j - 1] and not v[j % k]]
    if active:
        assert select_active_index(state) == (active[0], active[0] % k + 1)
    else:
        with pytest.raises(SolverInvariantError):
            select_active_index(state)


class TestApplyFoundComponent:
    @settings(deadline=None, max_examples=60)
    @given(board_and_secret())
    def test_kept_state_matches_a_rescan(self, drawn):
        config, secret = drawn
        fixes = []

        def checked(state, j, m):
            apply_found_component(state, j, m)
            check_kept_state(state)
            fixes.append(m)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(permmind.solver, "apply_found_component", checked)
            recovered, _ = solve(StaticCodemaker(secret, config), config)
        assert recovered == secret
        # every game fixes a peg per search, unless the opening pins it down
        assert len(fixes) == config.n - 2 or secret in all_rotations(config)

    def test_updates_partial_and_v(self):
        state = state_for((2, 1, 4, 3), GameConfig(4, 4))
        apply_found_component(state, 2, 2)
        assert state.partial == [OPEN, 1, OPEN, OPEN]
        assert state.v == [0, 1, 0, 2]
        assert (state.fixed, state.placed, state.pivot) == ({2: [2]}, {1}, 1)

    def test_rejects_refixing_position(self):
        state = state_for((2, 1, 4, 3), GameConfig(4, 4))
        apply_found_component(state, 2, 2)
        with pytest.raises(InconsistentOracleError):
            apply_found_component(state, 4, 2)

    def test_rejects_duplicate_color(self):
        state = state_for((2, 1, 4, 3), GameConfig(4, 4))
        apply_found_component(state, 2, 2)
        # rotation 4 holds color 1 at position 4 as well
        with pytest.raises(InconsistentOracleError):
            apply_found_component(state, 4, 4)

    def test_rejects_spent_rotation(self):
        state = state_for((2, 1, 4, 3), GameConfig(4, 4))
        with pytest.raises(SolverInvariantError):
            apply_found_component(state, 1, 1)


class TestEndgame:
    @pytest.mark.parametrize("n,k", [(5, 5), (6, 6), (4, 6), (5, 7)])
    def test_completions_are_asked_in_ascending_order(self, monkeypatch, n, k):
        # Two completions the endgame cannot tell apart answer every earlier
        # query alike, so both secrets' games reach it with the same list:
        # the later one's game asks both.  Over every secret of a board,
        # each endgame that asks two asks them ascending exactly when each
        # list it walks is ascending.  Square boards never leave two: the
        # completions (a, b) and (b, a) of two open positions agree with
        # different rotations, whose counts are on record.
        asked = []
        original = permmind.solver.endgame

        @functools.wraps(original)
        def recorded(state):
            start = len(state.transcript.events)
            result = original(state)
            asked.append([ev.guess for ev in state.transcript.events[start:]])
            return result

        monkeypatch.setattr(permmind.solver, "endgame", recorded)
        config = GameConfig(n, k)
        for secret in all_injective_codes(config):
            assert solve(StaticCodemaker(secret, config), config)[0] == secret
        pairs = [guesses for guesses in asked if len(guesses) == 2]
        assert bool(pairs) == (k > n)
        assert all(first < second for first, second in pairs)

    def test_rejects_too_many_open_positions(self):
        state = state_for((2, 1, 4, 3), GameConfig(4, 4))
        with pytest.raises(SolverInvariantError):
            endgame(state)

    def test_fully_fixed_code_is_asked_once(self):
        state = state_for((2, 1, 4, 3), GameConfig(4, 4))
        state.partial = [2, 1, 4, 3]
        before = state.transcript.query_count
        assert endgame(state) == (2, 1, 4, 3)
        assert state.transcript.query_count == before + 1

    def test_fully_fixed_code_is_checked_against_answers(self):
        # rotation 1 answered 0, but (1, 2, 4, 3) agrees with it twice
        state = state_for((2, 1, 4, 3), GameConfig(4, 4))
        state.partial = [1, 2, 4, 3]
        before = state.transcript.query_count
        with pytest.raises(InconsistentOracleError, match="no completion"):
            endgame(state)
        assert state.transcript.query_count == before

    def test_more_than_two_completions_is_the_solvers_fault(self):
        # bookkeeping that places color 1 alone on (3,5) and keeps every
        # rotation live admits the 4 other colors at both open positions:
        # 4 * 3 completions, which an empty transcript cannot tell apart
        config = GameConfig(3, 5)
        state = SolverState(ScriptedOracle(config, []))
        state.partial = [1, 0, 0]
        state.placed = {1}
        state.v = [1] * 5
        with pytest.raises(SolverInvariantError, match="12 completions remain consistent"):
            endgame(state)
        assert state.transcript.events == []

    def test_contradictory_answers_detected(self):
        # both remaining candidates are denied: nothing can be the secret
        config = GameConfig(2, 2)
        oracle = ScriptedOracle(config, [1, 0, 0])
        with pytest.raises(InconsistentOracleError):
            solve(oracle, config)


class TestSolve:
    def test_two_holes_need_two_queries(self):
        config = GameConfig(2, 2)
        for secret in ((1, 2), (2, 1)):
            recovered, transcript = solve(StaticCodemaker(secret, config), config)
            assert recovered == secret
            assert transcript.query_count <= 2

    def test_rotation_secrets_solved_during_opening(self):
        config = GameConfig(6, 6)
        for j, secret in enumerate(all_rotations(config), start=1):
            if j == config.k:
                continue  # the last rotation is never queried directly
            recovered, transcript = solve(StaticCodemaker(secret, config), config)
            assert recovered == secret
            assert transcript.query_count == j

    def test_lying_oracle_is_never_blamed_on_the_solver(self):
        # random answers must end in a recovered code or InconsistentOracleError
        rng = random.Random(4)
        for _ in range(3000):
            n = rng.randint(2, 9)
            config = GameConfig(n, n + rng.randint(0, 2))
            try:
                solve(RandomOracle(config, rng), config)
            except InconsistentOracleError:
                pass

    def test_config_mismatch_rejected(self):
        oracle = StaticCodemaker((2, 1, 3), GameConfig(3, 3))
        with pytest.raises(ValueError):
            solve(oracle, GameConfig(4, 4))

    @pytest.mark.parametrize("wide", [False, True], ids=["square", "wide"])
    def test_fixed_counts_are_black_counts_on_the_partial(self, monkeypatch, wide):
        # the searches count a guess's fixed matches by run, on the partial's
        # profile kept by apply_found_component; each must equal a fresh
        # count against the partial
        states, counts = [], []

        def recording_initial_phase(oracle):
            state = initial_phase(oracle)
            states.append(state)
            return state

        def checked_open_matches(total_black, fixed):
            state = states[-1]
            assert fixed == black(state.transcript.events[-1].guess, state.partial)
            counts.append(fixed)
            return open_matches(total_black, fixed)

        monkeypatch.setattr(permmind.solver, "initial_phase", recording_initial_phase)
        monkeypatch.setattr(permmind.solver, "open_matches", checked_open_matches)
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(3, 40)
            config = GameConfig(n, n + rng.randint(1, n) if wide else n)
            secret = tuple(rng.sample(range(1, config.k + 1), n))
            assert solve(StaticCodemaker(secret, config), config)[0] == secret
        assert len(states) == 60
        assert max(counts) > 1

    @pytest.mark.parametrize(
        "n,k", [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (3, 5), (4, 6), (2, 3), (2, 4)]
    )
    def test_every_secret_within_phase_budgets(self, n, k):
        # solve itself raises SolverInvariantError when a phase overspends
        config = GameConfig(n, k)
        for secret in all_injective_codes(config):
            recovered, transcript = solve(StaticCodemaker(secret, config), config)
            assert recovered == secret
            assert sum(not ev.derived for ev in transcript.events[:k]) <= k - 1
            assert transcript.query_count <= query_bound(config)

    @pytest.mark.parametrize(
        "phase,n,k,secret",
        [
            pytest.param("find_first", 8, 8, (7, 1, 4, 3, 2, 8, 5, 6), id="find_first-8"),
            pytest.param("find_first_uniform", 5, 5, (1, 3, 5, 2, 4), id="find_first_uniform-5"),
            pytest.param("find_next", 8, 8, (7, 1, 4, 3, 2, 8, 5, 6), id="find_next-8"),
            pytest.param(
                "find_next_many_colors", 8, 9, (7, 1, 4, 3, 2, 8, 5, 6),
                id="find_next_many_colors-9",
            ),
            pytest.param("endgame", 8, 8, (7, 1, 4, 3, 2, 8, 5, 6), id="endgame-8"),
        ],
    )
    def test_phase_overspend_raises(self, monkeypatch, phase, n, k, secret):
        original = getattr(permmind.solver, phase)

        @functools.wraps(original)
        def overspending(state, *args):
            for _ in range(5):
                state.oracle.answer(state.config.rotation(1))
            return original(state, *args)

        monkeypatch.setattr(permmind.solver, phase, overspending)
        config = GameConfig(n, k)
        with pytest.raises(SolverInvariantError, match=f"^{phase} asked"):
            solve(StaticCodemaker(secret, config), config)


class LyingCodemaker(StaticCodemaker):
    """Answers for its secret, except that query `lie_at` (1-based) is told
    one too high, or one too low when it is already n."""

    def __init__(self, secret, config, lie_at):
        super().__init__(secret, config)
        self.lie_at = lie_at

    def _respond(self, guess):
        count = super()._respond(guess)
        if self.transcript.query_count + 1 == self.lie_at:
            count += 1 if count < self.config.n else -1
        return count


class RecordingCodemaker(StaticCodemaker):
    """An honest oracle that keeps every guess it was asked, as a tuple."""

    def __init__(self, secret, config):
        super().__init__(secret, config)
        self.asked = []

    def _respond(self, guess):
        self.asked.append(tuple(guess))
        return super()._respond(guess)


class TestSplicedBoards:
    """From SPLICE_MIN_HOLES holes on, the solver asks and records splices."""

    BOARDS = [(64, 64), (64, 80)]  # at SPLICE_MIN_HOLES

    @pytest.mark.parametrize("n,k", BOARDS)
    def test_recorded_guesses_are_the_asked_ones(self, monkeypatch, n, k):
        # find_first and the endgame ask tuples, every other phase splices
        spans = {}

        def spanned(phase):
            @functools.wraps(phase)
            def run(state, *args):
                start = len(state.transcript.events)
                result = phase(state, *args)
                spans[phase.__name__] = range(start, len(state.transcript.events))
                return result

            return run

        for name in ("find_first", "endgame"):
            monkeypatch.setattr(permmind.solver, name, spanned(getattr(permmind.solver, name)))
        config = GameConfig(n, k)
        rng = random.Random(n + k)
        for _ in range(20):
            spans.clear()
            secret = tuple(rng.sample(range(1, k + 1), n))
            oracle = RecordingCodemaker(secret, config)
            recovered, transcript = solve(oracle, config)
            assert recovered == secret
            queried = [ev for ev in transcript.events if not ev.derived]
            assert [ev.guess for ev in queried] == oracle.asked
            assert [ev.black for ev in queried] == [black(g, secret) for g in oracle.asked]
            events = transcript.events
            # the opening's k events come first; on a square board find_first's
            # queries follow them, and the endgame's at most 2 end the game
            first = spans.get("find_first", range(k, k))
            assert first.start == k and len(first) <= 2 * ceil_log2(n)
            assert bool(first) == (k == n)
            last = spans["endgame"]
            assert last.stop == len(events) and 1 <= len(last) <= 2
            tuples = [i for i, ev in enumerate(events) if type(ev.guess) is not Splice]
            assert tuples == [*first, *last]

    @pytest.mark.parametrize("n,k", BOARDS)
    def test_a_secret_the_opening_pins_comes_back_as_a_tuple(self, n, k):
        config = GameConfig(n, k)
        secret = config.rotation(3)  # rotation 3 answers n
        recovered, transcript = solve(StaticCodemaker(secret, config), config)
        assert type(recovered) is tuple and recovered == secret
        assert transcript.query_count == 3

    @pytest.mark.parametrize("n,k", BOARDS)
    def test_a_lie_is_caught(self, n, k):
        config = GameConfig(n, k)
        rng = random.Random(n * k)
        secret = tuple(rng.sample(range(1, k + 1), n))
        queries = solve(StaticCodemaker(secret, config), config)[1].query_count
        # in the opening, in the first searches, midway and at the last search
        for lie_at in (1, k // 2, k + 1, k + 5, queries // 2, queries - 2):
            with pytest.raises(InconsistentOracleError):
                solve(LyingCodemaker(secret, config, lie_at), config)

    @pytest.mark.parametrize(
        "n,k", [(4, 4), (5, 5), (6, 6), (4, 6), (5, 7)]
    )
    def test_small_boards_splice_the_same_guesses(self, monkeypatch, n, k):
        # every secret, played on tuples and then with every board spliced
        config = GameConfig(n, k)
        secrets = list(all_injective_codes(config))
        plain = [solve(StaticCodemaker(secret, config), config)[1] for secret in secrets]
        monkeypatch.setattr(permmind.solver, "SPLICE_MIN_HOLES", 2)
        for secret, expected in zip(secrets, plain):
            recovered, transcript = solve(StaticCodemaker(secret, config), config)
            assert recovered == secret
            assert transcript.events == expected.events
            assert transcript.terminal_swaps == expected.terminal_swaps
            assert type(transcript.events[0].guess) is Splice

    @pytest.mark.parametrize("n,k", BOARDS + [(65, 65), (100, 131)])
    def test_large_boards_splice_the_tuple_guesses(self, monkeypatch, n, k):
        config = GameConfig(n, k)
        rng = random.Random(n - k)
        secrets = [tuple(rng.sample(range(1, k + 1), n)) for _ in range(3)]
        spliced = [solve(StaticCodemaker(secret, config), config)[1] for secret in secrets]
        monkeypatch.setattr(permmind.solver, "SPLICE_MIN_HOLES", n + 1)
        for secret, expected in zip(secrets, spliced):
            transcript = solve(StaticCodemaker(secret, config), config)[1]
            assert not any(type(ev.guess) is Splice for ev in transcript.events)
            assert transcript.events == expected.events

    @pytest.mark.parametrize("n,k", BOARDS)
    def test_every_splice_of_a_game_is_found_injective(self, n, k):
        config = GameConfig(n, k)
        secret = tuple(random.Random(n + 2 * k).sample(range(1, k + 1), n))
        transcript = solve(StaticCodemaker(secret, config), config)[1]
        spliced = [ev.guess for ev in transcript.events if type(ev.guess) is Splice]
        assert len(spliced) > k
        for splice in spliced:
            assert splice.injective
            validate_code(tuple(splice), config)

    def test_a_large_transcript_holds_runs_not_codes(self):
        # 256 pegs a query would take 4.6 MB here; runs take about 15 ints
        config = GameConfig(256, 256)
        secret = tuple(random.Random(1).sample(range(1, 257), 256))
        tracemalloc.start()
        try:
            _, transcript = solve(StaticCodemaker(secret, config), config)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert transcript.query_count > 2000
        assert held < 1_000_000


class TestCheckBoard:
    def test_refuses_past_the_limit(self):
        # a board is played while its query bound is at most 2**19: n = k =
        # 29961 (bound 524,271) and (2, 524287) (bound 2**19) are, one more
        # hole or color is refused before anything is asked
        check_board(GameConfig(16384, 16384))
        check_board(GameConfig(29961, 29961))
        check_board(GameConfig(2, 2**19 - 1))
        with pytest.raises(CapacityError, match="may ask 524289 queries, limit is 524288"):
            check_board(GameConfig(29962, 29962))
        with pytest.raises(CapacityError, match="may ask 524289 queries, limit is 524288"):
            check_board(GameConfig(2, 2**19))
        # the wide boards an n * k limit let through: 8.4 M opening queries,
        # and 10**6 of them
        with pytest.raises(CapacityError, match="may ask 8388609 queries"):
            check_board(GameConfig(2, 2**23))
        with pytest.raises(CapacityError, match="may ask 1000005 queries"):
            check_board(GameConfig(4, 10**6))

    def test_the_opening_refuses_before_asking(self):
        config = GameConfig(4, 10**6)
        oracle = ScriptedOracle(config, [])
        with pytest.raises(CapacityError, match="limit is 524288"):
            solve(oracle, config)
        assert oracle.transcript.events == []
