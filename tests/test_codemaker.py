"""Oracles, the adversarial codemaker, and secret adaption."""

import random
import tracemalloc
from itertools import repeat

import pytest

from permmind import (
    AdversaryCodemaker,
    CapacityError,
    CodemakerOracle,
    GameConfig,
    InconsistentOracleError,
    InvalidCodeError,
    LemmaViolationError,
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
from permmind._kernel import black_count
from util import make_same_colors_instance, make_spare_colors_instance


class TestStaticCodemaker:
    def test_answers_black_counts(self):
        oracle = StaticCodemaker((2, 1, 4, 3))
        assert oracle.answer((1, 2, 3, 4)) == 0
        assert oracle.answer((2, 1, 3, 4)) == 2
        assert oracle.answer((2, 1, 4, 3)) == 4
        assert oracle.transcript.query_count == 3

    def test_config_inference(self):
        assert StaticCodemaker((2, 1, 4, 3)).config == GameConfig(4, 4)
        assert StaticCodemaker((5, 1)).config == GameConfig(2, 5)

    def test_config_inference_names_bad_secrets(self):
        with pytest.raises(ValueError, match="need at least 2 holes"):
            StaticCodemaker(())
        with pytest.raises(InvalidCodeError) as exc:
            StaticCodemaker(("a", "b"))
        assert exc.value.reason == "range"

    def test_explicit_config_validates_secret(self):
        with pytest.raises(InvalidCodeError):
            StaticCodemaker((1, 5), GameConfig(2, 4))

    def test_rejects_bad_guess(self):
        oracle = StaticCodemaker((2, 1, 3))
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
        # square, narrow-wide, and k > 255, which stores the codes as uint16
        config = GameConfig(n, k)
        _, played = solve(AdversaryCodemaker(config), config)
        _, expected = solve(_TupleAdversary(config), config)
        assert played.events == expected.events

    def test_feasible_set_stays_column_major(self):
        # every filter counts contiguous columns only while each column of the
        # set stays contiguous
        layouts = []

        def contiguous_columns(matrix):
            return matrix.strides[0] == matrix.itemsize

        class Watched(AdversaryCodemaker):
            def _respond(self, guess):
                count = super()._respond(guess)
                layouts.append(contiguous_columns(self.feasible))
                return count

        config = GameConfig(5, 6)
        oracle = Watched(config)
        assert contiguous_columns(oracle.feasible)
        solve(oracle, config)
        assert layouts and all(layouts)

    @pytest.mark.parametrize("n,k", [(9, 9), (6, 12)])
    def test_first_answer_filters_in_place(self, n, k):
        # the first answer scans every code: a count and a mask byte per code
        # and one chunk of scratch beside the matrix, never a survivor copy or
        # 8-byte indices per survivor
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

    def test_audit_alarms_on_overhigh_answer(self):
        # an answer above its floor must trip the alarm even in a long game
        def fake_solver(oracle, config):
            oracle.feasible = [(1, 2, 3)]
            for answer in (2, 1, 1):
                oracle.transcript.record((1, 2, 3), answer)
            return (1, 2, 3), oracle.transcript

        with pytest.raises(LemmaViolationError):
            verify_lower_bound_play(GameConfig(3, 3), solver=fake_solver)


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
