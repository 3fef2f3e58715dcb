"""Strategy internals: opening, binary searches, endgame, budgets."""

import functools
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from permmind import (
    OPEN,
    GameConfig,
    InconsistentOracleError,
    SolverInvariantError,
    SolverState,
    StaticCodemaker,
    all_injective_codes,
    apply_found_component,
    black,
    bound_enforced,
    ceil_log2,
    endgame,
    find_first,
    find_first_uniform,
    find_next,
    find_next_many_colors,
    initial_phase,
    open_matches,
    query_bound,
    rotation_family,
    select_active_index,
    solve,
)
import permmind.solver
from permmind.solver import CodemakerOracle, _bisect, _phase_budgets


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


def state_for(secret, config=None):
    oracle = StaticCodemaker(secret, config)
    return initial_phase(oracle)


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


class TestInitialPhase:
    def test_small_wide_board(self):
        state = state_for((2, 1), GameConfig(2, 3))
        assert state.v == [0, 1, 1]
        assert state.transcript.query_count == 2
        assert len(state.transcript.events) == 3
        assert state.transcript.events[-1].derived

    def test_worked_example_answers(self):
        state = state_for((7, 1, 4, 3, 2, 8, 5, 6))
        assert state.v == [0, 2, 3, 1, 0, 0, 1, 1]
        assert state.transcript.query_count == 7
        assert state.solved_secret is None

    def test_early_solve_on_rotation_secret(self):
        config = GameConfig(5, 5)
        secret = rotation_family(config)[2]
        state = state_for(secret, config)
        assert state.solved_secret == secret
        assert state.transcript.query_count == 3
        # the remaining family counts are filled in as derived events
        assert len(state.transcript.events) == 5
        assert sum(ev.black for ev in state.transcript.events) == 5

    def test_overreporting_oracle_detected(self):
        oracle = ScriptedOracle(GameConfig(3, 3), [2, 2])
        with pytest.raises(InconsistentOracleError):
            initial_phase(oracle)

    @pytest.mark.parametrize("mistyped", [1.0, 2.7, "1", True])
    def test_mistyped_answer_rejected(self, mistyped):
        oracle = ScriptedOracle(GameConfig(3, 3), [mistyped])
        with pytest.raises(InconsistentOracleError, match="not an int"):
            oracle.answer((1, 2, 3))
        assert oracle.transcript.query_count == 0


class TestSelectActiveIndex:
    def _state_with_v(self, v, n=8):
        config = GameConfig(n, n)
        state = SolverState(config=config, oracle=StaticCodemaker(tuple(range(1, n + 1)), config), partial=[OPEN] * n)
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


class TestFindFirst:
    def test_replay_plain(self):
        # y = (2,1,4,3): rotation answers (0,2,0,2), active index 2
        state = state_for((2, 1, 4, 3))
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
        assert state.transcript.notes == []

    def test_replay_degenerate_last_split(self):
        # y = (1,2,4,3): the split reaches l == n, whose guess is rotation 2
        # itself; the first/last swap resolves it and leaves a note
        state = state_for((1, 2, 4, 3))
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
        assert state.transcript.notes == [("terminal_swap", 2)]

    def test_all_boards_find_a_true_component(self):
        # wherever the opening search is used, the position it returns must
        # really carry rotation j's color in the secret
        for n in (4, 5, 6):
            config = GameConfig(n, n)
            fam = rotation_family(config)
            for secret in all_injective_codes(config):
                state = state_for(secret, config)
                if state.solved_secret is not None or all(c == 1 for c in state.v):
                    continue
                j, _ = select_active_index(state)
                m = find_first(state, j)
                assert fam[j - 1][m - 1] == secret[m - 1], (secret, j, m)


class TestFindFirstUniform:
    def test_replay_odd_board(self):
        state = state_for((1, 3, 5, 2, 4))
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
            fam = rotation_family(config)
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
            fam = rotation_family(config)
            assert not any(
                all(black(rot, y) == 1 for rot in fam)
                for y in all_injective_codes(config)
            )

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_boards_rejected_before_asking(self, n):
        # every v == 1 is impossible on an even board, so the search raises
        # at once: the oracle has no answers to give
        config = GameConfig(n, n)
        state = SolverState(
            config=config, oracle=ScriptedOracle(config, []), partial=[OPEN] * n
        )
        state.v = [1] * n
        with pytest.raises(InconsistentOracleError):
            find_first_uniform(state)
        assert state.transcript.events == []


class TestFindNext:
    def test_replay_worked_example(self):
        secret = (7, 1, 4, 3, 2, 8, 5, 6)
        state = state_for(secret)
        state.partial = [OPEN, OPEN, OPEN, OPEN, 2, OPEN, 5, 6]
        state.v = [0, 2, 1, 0, 0, 0, 1, 1]
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
        state = state_for((2, 1, 4, 3))
        state.partial = [OPEN, 1, OPEN, OPEN]
        state.v = [0, 1, 0, 2]
        m = find_next(state, 4)
        assert m == 1
        asked = [ev.guess for ev in state.transcript.events[4:]]
        assert asked == [(2, 3, 1, 4), (2, 1, 3, 4)]

    def test_needs_a_fixed_component(self):
        state = state_for((2, 1, 4, 3))
        with pytest.raises(SolverInvariantError):
            find_next(state, 2)

    def test_denied_open_matches_land_on_the_pivot(self):
        # no positive answer on the left side leaves the bound at l_j, where
        # rotation j holds the pivot color, so placing it is refused
        state = state_for((7, 1, 4, 3, 2, 8, 5, 6))
        state.partial = [OPEN, OPEN, OPEN, OPEN, 2, OPEN, 5, 6]
        state.v = [0, 2, 1, 0, 0, 0, 1, 1]
        state.oracle = FixedOnlyOracle(state)
        m = find_next(state, 3)
        assert state.rotations[2][m - 1] == 2
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

    def test_finds_true_components_everywhere(self):
        for n, k in ((3, 5), (4, 6), (2, 4)):
            config = GameConfig(n, k)
            fam = rotation_family(config)
            for secret in all_injective_codes(config):
                state = state_for(secret, config)
                if state.solved_secret is not None:
                    continue
                j, _ = select_active_index(state)
                m = find_next_many_colors(state, j)
                assert fam[j - 1][m - 1] == secret[m - 1], (secret, j, m)


class TestApplyFoundComponent:
    def test_updates_partial_and_v(self):
        state = state_for((2, 1, 4, 3))
        apply_found_component(state, 2, 2)
        assert state.partial == [OPEN, 1, OPEN, OPEN]
        assert state.v == [0, 1, 0, 2]

    def test_rejects_refixing_position(self):
        state = state_for((2, 1, 4, 3))
        apply_found_component(state, 2, 2)
        with pytest.raises(InconsistentOracleError):
            apply_found_component(state, 4, 2)

    def test_rejects_duplicate_color(self):
        state = state_for((2, 1, 4, 3))
        apply_found_component(state, 2, 2)
        # rotation 4 holds color 1 at position 4 as well
        with pytest.raises(InconsistentOracleError):
            apply_found_component(state, 4, 4)

    def test_rejects_spent_rotation(self):
        state = state_for((2, 1, 4, 3))
        with pytest.raises(SolverInvariantError):
            apply_found_component(state, 1, 1)


class TestEndgame:
    def test_rejects_too_many_open_positions(self):
        state = state_for((2, 1, 4, 3))
        with pytest.raises(SolverInvariantError):
            endgame(state)

    def test_fully_fixed_code_is_asked_once(self):
        state = state_for((2, 1, 4, 3))
        state.partial = [2, 1, 4, 3]
        before = state.transcript.query_count
        assert endgame(state) == (2, 1, 4, 3)
        assert state.transcript.query_count == before + 1

    def test_fully_fixed_code_is_checked_against_answers(self):
        # rotation 1 answered 0, but (1, 2, 4, 3) agrees with it twice
        state = state_for((2, 1, 4, 3))
        state.partial = [1, 2, 4, 3]
        before = state.transcript.query_count
        with pytest.raises(InconsistentOracleError, match="no completion"):
            endgame(state)
        assert state.transcript.query_count == before

    def test_contradictory_answers_detected(self):
        # both remaining candidates are denied: nothing can be the secret
        config = GameConfig(2, 2)
        oracle = ScriptedOracle(config, [1, 0, 0])
        with pytest.raises(InconsistentOracleError):
            solve(oracle, config)


class TestSolve:
    def test_two_holes_need_two_queries(self):
        for secret in ((1, 2), (2, 1)):
            recovered, transcript = solve(StaticCodemaker(secret))
            assert recovered == secret
            assert transcript.query_count <= 2

    def test_rotation_secrets_solved_during_opening(self):
        config = GameConfig(6, 6)
        for j, secret in enumerate(rotation_family(config), start=1):
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
        oracle = StaticCodemaker((2, 1, 3))
        with pytest.raises(ValueError):
            solve(oracle, GameConfig(4, 4))

    @pytest.mark.parametrize("wide", [False, True], ids=["square", "wide"])
    def test_fixed_counts_are_black_counts_on_the_partial(self, monkeypatch, wide):
        # the searches count a guess's fixed matches from running counts built
        # once per search; each must equal a fresh count against the partial
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
                state.ask(state.rotations[0])
            return original(state, *args)

        monkeypatch.setattr(permmind.solver, phase, overspending)
        config = GameConfig(n, k)
        with pytest.raises(SolverInvariantError, match=f"^{phase} asked"):
            solve(StaticCodemaker(secret, config), config)
