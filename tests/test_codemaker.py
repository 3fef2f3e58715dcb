"""Oracles, the adversarial codemaker, and secret adaption."""

import math
import random
import tracemalloc
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from permmind import (
    AdversaryCodemaker,
    CapacityError,
    CodemakerOracle,
    GameConfig,
    InconsistentOracleError,
    InvalidCodeError,
    LemmaViolationError,
    SolverInvariantError,
    Splice,
    StaticCodemaker,
    Transcript,
    adapt_secret,
    all_injective_codes,
    black,
    injective_code_count,
    random_injective_code,
    solve,
    validate_code,
    verify_lower_bound_play,
)
from permmind import _kernel
from permmind.codemaker import COUNT_CAP, capped_count, count_text
from permmind._kernel import black_count
from util import make_same_colors_instance, make_spare_colors_instance, overspend_on_2x2


class TestStaticCodemaker:
    def test_answers_black_counts(self):
        oracle = StaticCodemaker((2, 1, 4, 3), GameConfig(4, 4))
        assert oracle.answer((1, 2, 3, 4)) == 0
        assert oracle.answer((2, 1, 3, 4)) == 2
        assert oracle.answer((2, 1, 4, 3)) == 4
        assert oracle.transcript.query_count == 3

    def test_board_is_required(self):
        # k is not a property of a secret: none is guessed from it
        with pytest.raises(TypeError):
            StaticCodemaker((2, 1, 4, 3))
        config = GameConfig(4, 6)  # the secret does not use color 6
        oracle = StaticCodemaker((2, 1, 4, 3), config)
        assert oracle.config is config
        assert solve(oracle, config)[0] == (2, 1, 4, 3)

    def test_bad_secrets_are_named_against_the_board(self):
        config = GameConfig(2, 4)
        for secret, reason in (((), "length"), (("a", "b"), "range"), ((3, 3), "duplicate")):
            with pytest.raises(InvalidCodeError) as exc:
                StaticCodemaker(secret, config)
            assert exc.value.reason == reason

    def test_explicit_config_validates_secret(self):
        with pytest.raises(InvalidCodeError):
            StaticCodemaker((1, 5), GameConfig(2, 4))

    def test_rejects_bad_guess(self):
        oracle = StaticCodemaker((2, 1, 3), GameConfig(3, 3))
        with pytest.raises(InvalidCodeError):
            oracle.answer((1, 2))
        with pytest.raises(InvalidCodeError):
            oracle.answer((1, 1, 2))


class TestEnumeration:
    def test_counts(self):
        assert injective_code_count(GameConfig(4, 4)) == 24
        assert injective_code_count(GameConfig(3, 5)) == 60
        assert injective_code_count(GameConfig(2, 8)) == 56

    def test_enumeration_is_sorted_and_complete(self):
        config = GameConfig(2, 3)
        codes = list(all_injective_codes(config))
        assert codes == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        for code in codes:
            validate_code(code, config)

    def test_random_code_is_valid_and_seeded(self):
        config = GameConfig(4, 9)
        a = [random_injective_code(config, random.Random(7)) for _ in range(20)]
        b = [random_injective_code(config, random.Random(7)) for _ in range(20)]
        assert a == b
        for code in a:
            validate_code(code, config)
        assert any(color > 4 for code in a for color in code)


class _TupleAdversary(CodemakerOracle):
    """Reference adversary: the feasible set as a list of tuples, filtered by
    the smallest `black_count`."""

    def __init__(self, config):
        super().__init__(config)
        self.feasible = list(all_injective_codes(config))

    def _respond(self, guess):
        counts = list(map(black_count, self.feasible, repeat(guess)))
        best = min(counts)
        self.feasible = [code for code, c in zip(self.feasible, counts) if c == best]
        return best


@st.composite
def small_boards(draw):
    """A board of at most 720 codes."""
    k = draw(st.integers(min_value=2, max_value=27))
    n = draw(st.integers(min_value=2, max_value=k).filter(lambda n: math.perm(k, n) <= 720))
    return GameConfig(n, k)


class TestAdversary:
    def test_three_hole_game_trace(self):
        config = GameConfig(3, 3)
        queries, trace = verify_lower_bound_play(config)
        assert queries == 5
        assert trace == [(1, 0), (2, 0), (3, 1), (4, 3), (5, 3)]

    def test_feasible_shrinks_and_never_empties(self):
        config = GameConfig(4, 4)
        oracle = AdversaryCodemaker(config)
        sizes = [len(oracle.feasible)]
        for guess in ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)):
            answer = oracle.answer(guess)
            assert 0 <= answer <= 4
            sizes.append(len(oracle.feasible))
        assert sizes[0] == 24
        assert all(s > 0 for s in sizes)
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_answers_stay_consistent_with_survivors(self):
        config = GameConfig(3, 4)
        oracle = AdversaryCodemaker(config)
        answered = []
        for guess in ((1, 2, 3), (2, 3, 4), (4, 1, 2)):
            answered.append((guess, oracle.answer(guess)))
        for secret in oracle.feasible:
            for guess, answer in answered:
                assert black(guess, secret) == answer

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_square_board_floors(self, n):
        config = GameConfig(n, n)
        queries, trace = verify_lower_bound_play(config)
        assert queries >= n
        for m, answer in trace:
            assert answer <= m

    @pytest.mark.parametrize("n,k", [(2, 3), (2, 4), (3, 5)])
    def test_wide_board_floors(self, n, k):
        config = GameConfig(n, k)
        queries, trace = verify_lower_bound_play(config)
        assert queries >= k
        for m, answer in trace:
            if m < k:
                assert answer < n

    @pytest.mark.parametrize("n,k", [(4, 4), (4, 6), (2, 300)])
    def test_wide_colors_play_like_the_tuple_reference(self, n, k):
        # square, narrow-wide, and 300 colors, whose 89,700 codes are held
        # in first-color blocks until the last few are decoded
        config = GameConfig(n, k)
        _, played = solve(AdversaryCodemaker(config), config)
        _, expected = solve(_TupleAdversary(config), config)
        assert played.events == expected.events

    @pytest.mark.parametrize("n,k", [(9, 9), (6, 12)])
    def test_first_answer_filters_in_place(self, n, k):
        # the first answer scans every code: the sub-board hit masks the
        # guess needs, built once for the game, and one block's hits and
        # counter planes at a time, never a copy of the codes
        config = GameConfig(n, k)
        tracemalloc.start()
        try:
            oracle = AdversaryCodemaker(config)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            oracle.answer(tuple(range(1, n + 1)))
            added = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert added <= 3 * injective_code_count(config) + 2**20

    @pytest.mark.parametrize("n,k", [(9, 9), (6, 12)])
    def test_whole_game_peaks_under_4_bytes_per_code(self, n, k):
        # the board's blocks, the sub-boards' cached hit masks and one
        # block's masks at a time, a bit per code each, never a byte per code
        # per hole
        config = GameConfig(n, k)
        tracemalloc.start()
        try:
            verify_lower_bound_play(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * injective_code_count(config)

    @given(small_boards(), st.sampled_from([0, 4, _kernel.DECODE_SHIFT]), st.data())
    @settings(deadline=None)
    def test_random_guesses_answer_like_the_tuple_reference(self, config, shift, data):
        # answer by answer, the count and the whole feasible set in order;
        # shift 0 decodes the board at the first answer, 4 partway through
        oracle, reference = AdversaryCodemaker(config), _TupleAdversary(config)
        colors = range(1, config.k + 1)
        guesses = data.draw(st.lists(st.permutations(colors), min_size=1, max_size=12))
        with mock.patch.object(_kernel, "DECODE_SHIFT", shift):
            for guess in guesses:
                guess = tuple(guess[: config.n])
                assert oracle.answer(guess) == reference.answer(guess)
                assert list(oracle.feasible) == reference.feasible
                if len(reference.feasible) == 1:
                    break

    @pytest.mark.parametrize("n,k,queries", [(9, 9, 37), (6, 12, 23)])
    def test_large_board_lower_bound_play(self, n, k, queries):
        assert verify_lower_bound_play(GameConfig(n, k))[0] == queries

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            AdversaryCodemaker(GameConfig(4, 4), max_states=10)

    def test_audit_rejects_unfinished_game(self):
        def lazy_solver(oracle, config):
            oracle.answer((1, 2, 3))
            return (1, 2, 3), oracle.transcript

        with pytest.raises(InconsistentOracleError):
            verify_lower_bound_play(GameConfig(3, 3), solver=lazy_solver)

    def test_audit_alarms_on_early_finish(self):
        # a hypothetical solver finishing below the floor must trip the alarm
        def fake_solver(oracle, config):
            oracle.feasible = [(1, 2, 3)]
            transcript = Transcript(config)
            transcript.record((1, 2, 3), 3)
            return (1, 2, 3), transcript

        with pytest.raises(LemmaViolationError):
            verify_lower_bound_play(GameConfig(3, 3), solver=fake_solver)

        # on a wide board the floor is k: n = 2 queries fall one short of 3
        def wide_solver(oracle, config):
            oracle.feasible = [(1, 2)]
            oracle.transcript.record((2, 1), 0)
            oracle.transcript.record((1, 2), 2)
            return (1, 2), oracle.transcript

        with pytest.raises(LemmaViolationError, match="below the 3-query floor"):
            verify_lower_bound_play(GameConfig(2, 3), solver=wide_solver)

    def test_audit_alarms_on_overhigh_answer(self):
        # an answer above its floor must trip the alarm even in a long game,
        # on a square board and, with k > n, for an answer of n before query k
        cases = [
            (GameConfig(3, 3), (1, 2, 3), [((1, 2, 3), 2), ((1, 2, 3), 1), ((1, 2, 3), 1)],
             "above the floor 1"),
            (GameConfig(2, 3), (1, 2), [((1, 2), 2), ((2, 1), 0), ((1, 2), 2)],
             "impossible before query 3"),
        ]
        for config, secret, events, match in cases:
            def fake_solver(oracle, config):
                oracle.feasible = [secret]
                for guess, answer in events:
                    oracle.transcript.record(guess, answer)
                return secret, oracle.transcript

            with pytest.raises(LemmaViolationError, match=match):
                verify_lower_bound_play(config, solver=fake_solver)


    def test_audit_fails_an_over_budget_game(self):
        # four queries keep every floor but pass the (2,2) bound of 3
        with pytest.raises(SolverInvariantError, match="over_budget"):
            verify_lower_bound_play(GameConfig(2, 2), solver=overspend_on_2x2)

    def test_audit_fails_a_miscounted_transcript(self):
        # the third query claims (1,2) scores 1 against the remaining (2,1)
        def miscounting_solver(oracle, config):
            oracle.answer((1, 2))
            oracle.answer((2, 1))
            oracle.transcript.record((1, 2), 1)
            return (2, 1), oracle.transcript

        with pytest.raises(SolverInvariantError, match="bad_transcript"):
            verify_lower_bound_play(GameConfig(2, 2), solver=miscounting_solver)

    def test_audit_fails_a_wrong_secret(self):
        def wrong_solver(oracle, config):
            oracle.answer((1, 2))
            oracle.answer((2, 1))
            return (1, 2), oracle.transcript

        with pytest.raises(SolverInvariantError, match="wrong_secret"):
            verify_lower_bound_play(GameConfig(2, 2), solver=wrong_solver)


class TestCapacity:
    @given(
        st.integers(min_value=2, max_value=80).flatmap(
            lambda k: st.tuples(st.integers(min_value=2, max_value=k), st.just(k))
        ),
        st.data(),
    )
    def test_capped_count_refuses_like_the_exact_count(self, board, data):
        config = GameConfig(*board)
        exact = injective_code_count(config)
        limit = data.draw(
            st.one_of(
                st.integers(min_value=-1, max_value=10**40),
                st.sampled_from([0, 12, 120, 10**6, COUNT_CAP - 1, COUNT_CAP, COUNT_CAP + 1]),
                st.integers(min_value=-2, max_value=2).map(lambda d: exact + d),
            )
        )
        capped = capped_count(config, limit)
        assert (capped > limit) == (exact > limit)
        assert capped <= exact
        if exact <= COUNT_CAP:
            assert capped == exact and count_text(capped) == str(exact)
        else:
            assert capped > COUNT_CAP and count_text(capped) == f"more than {COUNT_CAP}"


class TestAdaptSecretInput:
    def test_needs_a_query(self):
        with pytest.raises(ValueError):
            adapt_secret(GameConfig(3, 3), (), (1, 2, 3))

    @pytest.mark.parametrize(
        "queries,secret",
        [
            (((1, 2, 2),), (1, 2, 3)),
            (((1, 2, 3), (1, 2)), (1, 2, 3)),
            (((1, 2, 3),), (1, 2, 4)),
            (((1, 2, 3),), (3, 3, 1)),
        ],
        ids=["duplicate_query", "short_earlier_query", "secret_out_of_range", "duplicate_secret"],
    )
    def test_invalid_code_rejected(self, queries, secret):
        with pytest.raises(InvalidCodeError):
            adapt_secret(GameConfig(3, 3), queries, secret)

    def test_wide_board_without_untried_color_rejected(self):
        # position 1 has seen every color of (2,3), so the premise m < k fails
        with pytest.raises(ValueError, match="no replacement color available at position 1"):
            adapt_secret(GameConfig(2, 3), [(2, 1), (3, 1), (1, 2)], (1, 2))

    @pytest.mark.parametrize("k", [64, 80])
    def test_splices_adapt_like_their_tuples(self, k):
        # validate_code accepts a Splice, so the walk must not index one
        config = GameConfig(64, k)
        queries = [Splice(config, (2, 1, 64)), Splice(config, (1, 1, 64))]
        secret = Splice(config, (1, 1, 64))
        z = adapt_secret(config, queries, secret)
        assert z == adapt_secret(config, [tuple(q) for q in queries], tuple(secret))
        assert type(z) is tuple
        assert black(queries[0], z) == black(queries[0], secret)
        assert black(queries[1], z) < 64


class TestAdaptSameColors:
    def test_worked_example(self):
        assert adapt_secret(GameConfig(4, 4), ((1, 2, 3, 4),), (1, 2, 3, 4)) == (2, 1, 3, 4)

    def test_square_board_draws_from_agreeing_colors(self):
        assert adapt_secret(GameConfig(3, 3), ((1, 2, 3),), (1, 2, 3)) == (2, 1, 3)

    def test_earlier_queries_rule_out_their_colors(self):
        # 1 and 2 were tried at position 1, so it takes 3; position 3 then
        # takes 1, the smallest color not tried there, closing the cycle
        queries = ((2, 1, 4, 3), (1, 2, 3, 4))
        assert adapt_secret(GameConfig(4, 4), queries, (1, 2, 3, 4)) == (3, 2, 1, 4)

    def test_requires_enough_agreement(self):
        with pytest.raises(ValueError):
            adapt_secret(GameConfig(3, 3), ((1, 2, 3),), (1, 3, 2))

    def test_random_instances_keep_postconditions(self):
        rng = random.Random(42)
        for _ in range(200):
            config, queries, secret = make_same_colors_instance(rng)
            z = adapt_secret(config, queries, secret)
            validate_code(z, config)
            for q in queries[:-1]:
                assert black(q, z) == black(q, secret)
            assert black(queries[-1], z) < black(queries[-1], secret)


class TestAdaptSpareColors:
    def test_chain_escapes_into_unused_color(self):
        assert adapt_secret(GameConfig(2, 3), ((2, 3),), (2, 3)) == (1, 3)

    def test_chain_closes_a_cycle(self):
        assert adapt_secret(GameConfig(2, 3), ((1, 2),), (1, 2)) == (2, 1)

    def test_requires_agreement_somewhere(self):
        with pytest.raises(ValueError):
            adapt_secret(GameConfig(2, 3), ((1, 2),), (2, 1))

    def test_requires_query_to_be_the_secret(self):
        # the walk would pick the secret's own color at position 2 and hand
        # the secret back unchanged, with the count still 4
        with pytest.raises(ValueError):
            adapt_secret(GameConfig(6, 12), ((1, 2, 3, 4, 5, 6),), (2, 1, 3, 4, 5, 6))

    def test_random_instances_keep_postconditions(self):
        rng = random.Random(43)
        for _ in range(200):
            config, queries, secret = make_spare_colors_instance(rng)
            z = adapt_secret(config, queries, secret)
            validate_code(z, config)
            for q in queries[:-1]:
                assert black(q, z) == black(q, secret)
            assert black(queries[-1], z) < black(queries[-1], secret)
