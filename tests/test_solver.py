"""Strategy internals: opening, binary searches, endgame, budgets."""

import math

import pytest

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
from permmind.solver import CodemakerOracle
from util import solve_with_budget_audit


class ScriptedOracle(CodemakerOracle):
    """Answers from a fixed list; for driving single functions down chosen
    branches without a consistent board behind them."""

    def __init__(self, config, answers):
        super().__init__(config)
        self.answers = list(answers)

    def _respond(self, guess):
        return self.answers.pop(0)


def state_for(secret, config=None):
    oracle = StaticCodemaker(secret, config)
    return initial_phase(oracle, oracle.config)


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
        assert not bound_enforced(GameConfig(2, 2))
        assert not bound_enforced(GameConfig(3, 3))
        assert bound_enforced(GameConfig(4, 4))
        assert bound_enforced(GameConfig(2, 3))

    def test_midpoint_rounds_up(self):
        # the split point is written (a + b + 1) // 2 for ceil((a + b) / 2)
        for a in range(1, 40):
            for b in range(a, 40):
                assert (a + b + 1) // 2 == math.ceil((a + b) / 2)


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

    def test_exhausted_rotations_with_open_positions(self):
        state = self._state_with_v([0] * 8)
        with pytest.raises(InconsistentOracleError):
            select_active_index(state)

    def test_no_boundary(self):
        state = self._state_with_v([1] * 8)
        with pytest.raises(InconsistentOracleError):
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

    def test_even_branch_with_scripted_answers(self):
        # unreachable through real boards, still exercised: on an even board
        # the last pair is taken without its own probe
        config = GameConfig(4, 4)
        state = SolverState(
            config=config,
            oracle=ScriptedOracle(config, [2, 0]),
            partial=[OPEN] * 4,
        )
        state.v = [1, 1, 1, 1]
        assert find_first_uniform(state) == 3
        assert [ev.guess for ev in state.transcript.events] == [
            (2, 1, 3, 4),  # pair (1,2) probe, nonzero: match not here
            (3, 2, 1, 4),  # pair (3,4) taken free; swap against position 1
        ]
        config = GameConfig(4, 4)
        state = SolverState(
            config=config,
            oracle=ScriptedOracle(config, [2, 1]),
            partial=[OPEN] * 4,
        )
        state.v = [1, 1, 1, 1]
        assert find_first_uniform(state) == 4

    def test_rejects_two_holes(self):
        config = GameConfig(2, 2)
        state = SolverState(
            config=config, oracle=ScriptedOracle(config, []), partial=[OPEN] * 2
        )
        state.v = [1, 1]
        with pytest.raises(InconsistentOracleError):
            find_first_uniform(state)


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
        opens = [open_matches(ev.black, ev.guess, state.partial) for ev in tail]
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
        with pytest.raises(SolverInvariantError):
            apply_found_component(state, 4, 2)

    def test_rejects_duplicate_color(self):
        state = state_for((2, 1, 4, 3))
        apply_found_component(state, 2, 2)
        # rotation 4 holds color 1 at position 4 as well
        with pytest.raises(SolverInvariantError):
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

    def test_config_mismatch_rejected(self):
        oracle = StaticCodemaker((2, 1, 3))
        with pytest.raises(ValueError):
            solve(oracle, GameConfig(4, 4))

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 5), (6, 6), (3, 5), (4, 6), (2, 3), (2, 4)])
    def test_every_secret_within_phase_budgets(self, n, k):
        config = GameConfig(n, k)
        for secret in all_injective_codes(config):
            oracle = StaticCodemaker(secret, config)
            recovered, transcript = solve_with_budget_audit(oracle, config)
            assert recovered == secret
            replay = solve(StaticCodemaker(secret, config), config)
            assert replay[0] == secret
            assert replay[1].query_count == transcript.query_count
