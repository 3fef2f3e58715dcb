"""Board primitives: validation, counting, rotations, transcripts."""

import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permmind import (
    GameConfig,
    InconsistentOracleError,
    InvalidCodeError,
    Splice,
    StaticCodemaker,
    Transcript,
    TranscriptEvent,
    black,
    check_transcript,
    solve,
    validate_code,
)
from permmind.core import OPEN, open_matches
from permmind._kernel import black_count, partial_match_count, rotation_profile
from util import all_rotations


@st.composite
def board_and_codes(draw, max_k=9, count=2):
    k = draw(st.integers(min_value=2, max_value=max_k))
    n = draw(st.integers(min_value=2, max_value=k))
    codes = [tuple(draw(st.permutations(range(1, k + 1)))[:n]) for _ in range(count)]
    return GameConfig(n, k), codes


@st.composite
def board_and_splice(draw, max_k=12):
    """A board and a splice of its rotations.  Half are random runs, whose
    color arcs often overlap; half are one-peg runs, some spelling an
    injective code.  Empty runs are slipped in at random."""
    k = draw(st.integers(min_value=2, max_value=max_k))
    n = draw(st.integers(min_value=2, max_value=k))
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), max_size=4)))
        bounds = [0, *cuts, n]
        js = [draw(st.integers(min_value=1, max_value=k)) for _ in bounds[1:]]
    else:
        bounds = list(range(n + 1))
        if draw(st.booleans()):
            code = draw(st.permutations(range(1, k + 1)))[:n]
        else:
            code = draw(st.lists(st.integers(min_value=1, max_value=k), min_size=n, max_size=n))
        js = [(p - c) % k + 1 for p, c in enumerate(code, start=1)]
    runs = []
    for j, a, b in zip(js, bounds, bounds[1:]):
        if draw(st.booleans()):
            runs += [draw(st.integers(min_value=1, max_value=k)), a + 1, a]  # empty
        runs += [j, a + 1, b]
    return GameConfig(n, k), tuple(runs)


def _verdict(code, config):
    try:
        validate_code(code, config)
    except InvalidCodeError as exc:
        return exc.reason, str(exc)
    return None


class TestSplice:
    @given(board_and_splice())
    def test_equals_the_concatenated_rotation_slices(self, drawn):
        config, runs = drawn
        splice = Splice(config, runs)
        it = iter(runs)
        rotation = config.rotation
        assert splice == tuple(c for j, a, b in zip(it, it, it) for c in rotation(j)[a - 1 : b])
        assert hash(splice) == hash(tuple(splice))
        it = iter(splice.runs)
        assert all(b >= a for _, a, b in zip(it, it, it))  # empty runs dropped

    @given(board_and_splice())
    def test_validation_agrees_with_the_plain_tuple(self, drawn):
        config, runs = drawn
        splice = Splice(config, runs)
        plain = _verdict(tuple(splice), config)
        assert _verdict(splice, config) == plain
        # the arc test alone decides a splice of the board's own rotations
        assert splice.injective == (plain is None)

    # color blocks (first color, length) in position order, on boards whose
    # runs tile them in two
    @pytest.mark.parametrize(
        "n,k,blocks,code,injective",
        [
            pytest.param(4, 6, [(3, 2), (1, 2)], (3, 4, 1, 2), True, id="touching"),
            pytest.param(4, 6, [(1, 2), (5, 2)], (1, 2, 5, 6), True, id="touching-across-the-wrap"),
            pytest.param(4, 6, [(1, 2), (2, 2)], (1, 2, 2, 3), False, id="overlapping-by-one"),
            pytest.param(
                5, 6, [(1, 2), (5, 3)], (1, 2, 5, 6, 1), False,
                id="overlapping-by-one-across-the-wrap",
            ),
            pytest.param(6, 6, [(4, 3), (1, 3)], (4, 5, 6, 1, 2, 3), True, id="full-square-board"),
            pytest.param(
                6, 6, [(4, 3), (2, 3)], (4, 5, 6, 2, 3, 4), False, id="full-square-board-repeating"
            ),
            pytest.param(5, 6, [(3, 2), (6, 3)], (3, 4, 6, 1, 2), True, id="one-color-unused"),
            pytest.param(
                5, 6, [(3, 2), (1, 3)], (3, 4, 1, 2, 3), False, id="one-color-unused-repeating"
            ),
        ],
    )
    def test_two_run_verdict(self, n, k, blocks, code, injective):
        config = GameConfig(n, k)
        runs, a = (), 1
        for c, length in blocks:  # color c at position a is rotation ((a - c) mod k) + 1
            runs += ((a - c) % k + 1, a, a + length - 1)
            a += length
        splice = Splice(config, runs)
        assert splice.runs == runs and splice == code
        assert splice.injective is injective
        assert (_verdict(tuple(splice), config) is None) is injective
        assert _verdict(splice, config) == _verdict(tuple(splice), config)

    def test_refuses_an_arc_wrapping_onto_another(self):
        config = GameConfig(3, 4)
        # rotation 2 on 1..2 shows 4 1, wrapping past k; the peg at 3 repeats 1
        splice = Splice(config, (2, 1, 2, 3, 3, 3))
        assert splice == (4, 1, 1)
        assert _verdict(splice, config) == (
            "duplicate", "color 1 appears more than once (position 3)"
        )
        # unpickling rebuilds the splice, and with it the verdict
        copied = pickle.loads(pickle.dumps(splice))
        assert copied.runs == splice.runs and copied.injective is False
        assert _verdict(copied, config) == _verdict(splice, config)

    @given(board_and_splice(), st.data())
    def test_run_count_is_the_black_count(self, drawn, data):
        config, runs = drawn
        n, k = config.n, config.k
        splice = Splice(config, runs)
        code = tuple(data.draw(st.permutations(range(1, k + 1)))[:n])
        opened = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        partial = tuple(OPEN if o else c for o, c in zip(opened, code))
        for other in (code, partial):
            profile = rotation_profile(other, k)
            count = black_count(tuple(splice), other)
            # the drawn runs keep their empty runs, which count 0
            assert partial_match_count(profile, runs) == count
            assert partial_match_count(profile, splice.runs) == count

    @given(board_and_splice(), st.data())
    def test_rejects_runs_that_do_not_tile(self, drawn, data):
        config, runs = drawn
        n, k = config.n, config.k
        i = 3 * data.draw(st.integers(min_value=0, max_value=len(runs) // 3 - 1))
        j, a, b = runs[i : i + 3]
        broken = data.draw(
            st.sampled_from(
                [
                    runs[:i] + runs[i + 3 :] if b >= a else runs + (j, n + 1, n + 1),  # gap
                    runs[:i] + (j, a + 1, b) + runs[i + 3 :] if b >= a else runs[:-1],  # gap
                    runs[:i] + (j, a - 1, b) + runs[i + 3 :],  # overlap
                    runs[:i] + (j, a, a - 2) + runs[i + 3 :],  # reversed
                    runs + (1, n + 1, n + 1),  # past n
                    runs[:-3] + (runs[-3], runs[-2], n - 1),  # short of n
                    runs[:-1],  # a torn triple
                    runs[:i] + (0, a, b) + runs[i + 3 :],  # no rotation 0
                    runs[:i] + (k + 1, a, b) + runs[i + 3 :],  # nor k + 1
                ]
            )
        )
        with pytest.raises(ValueError):
            Splice(config, broken)

    def test_records_as_its_runs(self):
        config = GameConfig(4, 5)
        transcript = Transcript(config)
        # rotation 2 on 1..2 shows 5 1, rotation 1 on 3..4 shows 3 4
        splice = Splice(config, (2, 1, 2, 1, 3, 4))
        assert not isinstance(splice, tuple)
        assert len(splice) == 4 and list(splice) == [5, 1, 3, 4]
        assert splice == (5, 1, 3, 4) and (5, 1, 3, 4) == splice
        assert splice != (5, 1, 4, 3) and splice != [5, 1, 3, 4]
        assert hash(splice) == hash((5, 1, 3, 4))
        copied = pickle.loads(pickle.dumps(splice))
        assert type(copied) is Splice and copied == splice and copied.runs == splice.runs
        transcript.record(splice, 1)
        event = transcript.events[-1]
        assert type(event) is TranscriptEvent and event.guess is splice
        plain = TranscriptEvent((5, 1, 3, 4), 1)
        assert event == plain and plain == event
        assert event != TranscriptEvent((5, 1, 3, 4), 2)
        assert event != TranscriptEvent((5, 1, 3, 4), 1, derived=True)
        assert event != TranscriptEvent((5, 1, 4, 3), 1)

    def test_is_immutable(self):
        splice = Splice(GameConfig(4, 5), (2, 1, 4))
        with pytest.raises(AttributeError):
            splice.runs = (1, 1, 4)
        with pytest.raises(AttributeError):
            del splice.config
        assert splice == (5, 1, 2, 3)

    def test_one_query_allocates_runs_not_colors(self):
        # validating, answering and recording one spliced guess at n = 1024
        # never builds its 1024 colors (8 KB of tuple slots and more)
        config = GameConfig(1024, 1024)
        secret = config.rotation(6)
        oracle = StaticCodemaker(secret, config)
        oracle.profile  # built once per game, at the first splice
        # three runs: rotation 3, then rotation 4's first color parked at
        # 401, then rotation 4
        c = config.rotation(4)[0]
        runs = (3, 1, 400, (401 - c) % 1024 + 1, 401, 401, 4, 402, 1024)
        tracemalloc.start()
        try:
            splice = Splice(config, runs)
            count = oracle.answer(splice)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == black(tuple(splice), secret)
        assert oracle.transcript.events[0].guess is splice
        assert peak < 2048


class TestGameConfig:
    def test_valid(self):
        assert GameConfig(2, 2).n == 2
        assert GameConfig(3, 7).k == 7

    @pytest.mark.parametrize(
        "n,k",
        [
            (1, 1),
            (1, 5),
            (0, 3),
            (4, 3),
            (-2, -2),
            pytest.param(4.0, 4, id="float-n"),
            pytest.param(4, 4.5, id="float-k"),
            pytest.param(True, 3, id="bool-n"),
            pytest.param("4", 4, id="str-n"),
        ],
    )
    def test_rejects_bad_shapes(self, n, k):
        with pytest.raises(ValueError):
            GameConfig(n, k)

    def test_a_size_that_is_no_int_is_named(self):
        with pytest.raises(ValueError, match="k must be an int, got 4.5"):
            GameConfig(4, 4.5)

    def test_is_a_value_of_its_two_sizes(self):
        config = GameConfig(n=7, k=9)
        assert (config.n, config.k) == (7, 9)
        assert config == GameConfig(7, 9) and hash(config) == hash(GameConfig(7, 9))
        assert config != GameConfig(7, 8) and config != (7, 9)
        assert repr(config) == "GameConfig(n=7, k=9)"

    def test_is_immutable(self):
        config = GameConfig(4, 5)
        with pytest.raises(AttributeError):
            config.n = 3
        with pytest.raises(AttributeError):
            del config.n
        assert config.n == 4

    @pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
    def test_pickles_as_its_sizes(self, cached):
        config = GameConfig(5, 6)
        if cached:
            assert config.cycle == (1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6)
        copied = pickle.loads(pickle.dumps(config))
        assert type(copied) is GameConfig and copied == config
        assert "cycle" not in vars(copied)
        assert copied.rotation(2) == (6, 1, 2, 3, 4)


class TestValidateCode:
    def test_accepts(self):
        validate_code((2, 1, 4, 3), GameConfig(4, 4))
        validate_code((5, 1), GameConfig(2, 5))

    def test_length(self):
        with pytest.raises(InvalidCodeError) as exc:
            validate_code((1, 2, 3), GameConfig(4, 4))
        assert exc.value.reason == "length"

    def test_range(self):
        with pytest.raises(InvalidCodeError) as exc:
            validate_code((1, 5), GameConfig(2, 4))
        assert exc.value.reason == "range"
        with pytest.raises(InvalidCodeError) as exc:
            validate_code((0, 1), GameConfig(2, 4))
        assert exc.value.reason == "range"

    def test_duplicate(self):
        with pytest.raises(InvalidCodeError) as exc:
            validate_code((3, 1, 3), GameConfig(3, 4))
        assert exc.value.reason == "duplicate"

    def test_length_outranks_range(self):
        # a short code with an out-of-range color trips the length check first
        with pytest.raises(InvalidCodeError) as exc:
            validate_code((9, 1), GameConfig(3, 4))
        assert exc.value.reason == "length"

    def test_non_integer(self):
        for code in ((1.0, 2), (True, 2)):  # a bool is an int subclass, not a color
            with pytest.raises(InvalidCodeError) as exc:
                validate_code(code, GameConfig(2, 4))
            assert exc.value.reason == "range"

    # reasons and messages recorded from the loop-only validator, on (3, 4)
    @pytest.mark.parametrize(
        "code,reason,message",
        [
            ((True, 2, 3), "range", "color True at position 1 is outside 1..4"),
            ((1.0, 2, 3), "range", "color 1.0 at position 1 is outside 1..4"),
            ((np.int64(1), 2, 3), "range", f"color {np.int64(1)!r} at position 1 is outside 1..4"),
            ((None, 2, 3), "range", "color None at position 1 is outside 1..4"),
            (("1", 2, 3), "range", "color '1' at position 1 is outside 1..4"),
            (([1], 2, 3), "range", "color [1] at position 1 is outside 1..4"),
            ((0, 2, 3), "range", "color 0 at position 1 is outside 1..4"),
            ((5, 2, 3), "range", "color 5 at position 1 is outside 1..4"),
            ((-1, 2, 3), "range", "color -1 at position 1 is outside 1..4"),
            ((3, 1, 3), "duplicate", "color 3 appears more than once (position 3)"),
            ((3, 3, 9), "duplicate", "color 3 appears more than once (position 2)"),
            ((1, 2), "length", "code has 2 entries, expected 3"),
            ((1, 2, 3, 4), "length", "code has 4 entries, expected 3"),
        ],
    )
    def test_rejection_is_named(self, code, reason, message):
        with pytest.raises(InvalidCodeError) as exc:
            validate_code(code, GameConfig(3, 4))
        assert exc.value.reason == reason
        assert str(exc.value) == message

    @given(st.data())
    def test_mixed_codes_raise_only_invalid_code_error(self, data):
        k = data.draw(st.integers(min_value=2, max_value=6))
        n = data.draw(st.integers(min_value=2, max_value=k))
        ints = st.integers(min_value=-1, max_value=k + 2)
        junk = st.one_of(
            st.booleans(), st.floats(), st.none(), st.text(max_size=2),
            st.lists(st.integers(), max_size=2),
        )
        colors = st.one_of(ints, ints, ints, junk)
        code = tuple(data.draw(st.lists(colors, min_size=n - 1, max_size=n + 1)))
        try:
            validate_code(code, GameConfig(n, k))
        except InvalidCodeError:
            return
        assert len(code) == n and len(set(code)) == n
        assert all(type(c) is int and 1 <= c <= k for c in code)

    @given(board_and_codes(count=1))
    def test_accepts_every_injective_code(self, drawn):
        config, (code,) = drawn
        validate_code(code, config)
        validate_code(list(code), config)

    def test_palette_cache_is_invisible(self):
        # the palette and the cycle are cached on the instance, not as fields
        plain, cached = GameConfig(4, 4), GameConfig(4, 4)
        assert cached.palette == frozenset({1, 2, 3, 4})
        assert cached.cycle == (1, 2, 3, 4, 1, 2, 3, 4)
        assert plain == cached and hash(plain) == hash(cached)
        assert repr(plain) == repr(cached)
        assert pickle.dumps(plain) == pickle.dumps(cached)
        assert pickle.loads(pickle.dumps(cached)) == plain


class TestCounts:
    def test_black_basics(self):
        assert black((1, 2, 3, 4), (1, 2, 3, 4)) == 4
        assert black((1, 2, 3, 4), (2, 1, 4, 3)) == 0
        assert black((2, 1, 4, 3), (2, 1, 3, 4)) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            black((1, 2), (1, 2, 3))

    @given(board_and_codes())
    def test_black_symmetric(self, drawn):
        _, (w, x) = drawn
        assert black(w, x) == black(x, w)

    def test_black_partial_skips_open(self):
        partial = [OPEN, 1, OPEN, 4]
        assert black((2, 1, 3, 4), partial) == 2
        assert black((1, 2, 3, 4), partial) == 1
        assert black((2, 3, 4, 1), partial) == 0

    def test_open_matches(self):
        partial = [OPEN, 1, OPEN, 4]
        assert open_matches(3, black((2, 1, 3, 4), partial)) == 1
        assert open_matches(2, black((2, 1, 3, 4), partial)) == 0

    def test_open_matches_negative_is_inconsistent(self):
        with pytest.raises(InconsistentOracleError):
            open_matches(1, black((2, 1, 3, 4), [OPEN, 1, OPEN, 4]))


class TestRotations:
    def test_identity_prefix(self):
        assert GameConfig(4, 4).rotation(1) == (1, 2, 3, 4)
        assert GameConfig(3, 5).rotation(1) == (1, 2, 3)

    def test_square_family(self):
        fam = all_rotations(GameConfig(4, 4))
        assert fam == [(1, 2, 3, 4), (4, 1, 2, 3), (3, 4, 1, 2), (2, 3, 4, 1)]

    def test_wide_family(self):
        fam = all_rotations(GameConfig(2, 3))
        assert fam == [(1, 2), (3, 1), (2, 3)]

    @given(st.data())
    def test_colors_are_the_closed_form(self, data):
        # rotation j holds ((i - j) mod k) + 1 at position i, sliced from the
        # config's cycle and iterated from a splice alike, on wide boards and
        # for j = k too
        k = data.draw(st.integers(min_value=2, max_value=40))
        n = data.draw(st.integers(min_value=2, max_value=k))
        config = GameConfig(n, k)
        j = data.draw(st.sampled_from([1, k, data.draw(st.integers(min_value=1, max_value=k))]))
        expected = tuple((i - j) % k + 1 for i in range(1, n + 1))
        assert config.rotation(j) == expected
        assert tuple(Splice(config, (j, 1, n))) == expected
        # a cut into two runs of different rotations iterates each run's slice
        cut = data.draw(st.integers(min_value=0, max_value=n))
        other = data.draw(st.integers(min_value=1, max_value=k))
        spliced = tuple(Splice(config, (other, 1, cut, j, cut + 1, n)))
        assert spliced == tuple((i - other) % k + 1 for i in range(1, cut + 1)) + expected[cut:]

    def test_a_pickled_splice_holds_its_board_and_runs(self):
        # a splice pickles as its board and runs, never its colors or cycle
        config = GameConfig(1024, 1024)
        config.cycle  # cached on the instance, which must not pickle it
        splice = Splice(config, (3, 1, 400, 5, 401, 401, 4, 402, 1024))
        data = pickle.dumps(splice)
        assert len(data) < 1024
        copied = pickle.loads(data)
        assert type(copied) is Splice and copied.runs == splice.runs
        assert copied.config == config and copied == splice

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=7))
    def test_shift_identity(self, n, extra):
        # dropping one position while advancing one rotation lands on the
        # same colors: rotation(j + 1)[i] == rotation(j)[i - 1]
        config = GameConfig(n, n + extra)
        fam = all_rotations(config)
        k = config.k
        for j in range(1, k + 1):
            succ = fam[j % k]
            for i in range(1, n):
                assert succ[i] == fam[j - 1][i - 1]

    @given(board_and_codes(count=1))
    def test_family_counts_sum_to_holes(self, drawn):
        config, (secret,) = drawn
        total = sum(black(rot, secret) for rot in all_rotations(config))
        assert total == config.n

    @given(board_and_codes(count=1))
    def test_each_position_covered_once(self, drawn):
        # across the rotations, every position shows every rotation a
        # different color, and each color of 1..k exactly once
        config, _ = drawn
        fam = all_rotations(config)
        for i in range(config.n):
            column = [rot[i] for rot in fam]
            assert sorted(column) == list(range(1, config.k + 1))

    def test_one_large_game_stays_small(self):
        # no rotation is kept beyond the search that slices it: a whole
        # (1024,1024) game, audit included, peaks under 8 MB
        config = GameConfig(1024, 1024)
        secret = tuple(random.Random(1).sample(range(1, 1025), 1024))
        tracemalloc.start()
        try:
            recovered, transcript = solve(StaticCodemaker(secret, config), config)
            assert check_transcript(transcript, secret) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert recovered == secret
        assert peak < 8_000_000


class TestFigureVectors:
    # the worked n = k = 8 example: secret y, partial with three components
    SECRET = (7, 1, 4, 3, 2, 8, 5, 6)
    PARTIAL = [OPEN, OPEN, OPEN, OPEN, 2, OPEN, 5, 6]

    def test_rotation_answers(self):
        fam = all_rotations(GameConfig(8, 8))
        answers = tuple(black(rot, self.SECRET) for rot in fam)
        assert answers == (0, 2, 3, 1, 0, 0, 1, 1)

    def test_partial_matches(self):
        fam = all_rotations(GameConfig(8, 8))
        fixed = tuple(black(rot, self.PARTIAL) for rot in fam)
        assert fixed == (0, 0, 2, 1, 0, 0, 0, 0)

    def test_open_matches(self):
        fam = all_rotations(GameConfig(8, 8))
        opens = tuple(
            open_matches(black(rot, self.SECRET), black(rot, self.PARTIAL)) for rot in fam
        )
        assert opens == (0, 2, 1, 0, 0, 0, 1, 1)


class TestTranscript:
    def test_records_and_counts(self):
        t = Transcript(GameConfig(3, 3))
        assert t.record((1, 2, 3), 1) is None
        t.record((3, 1, 2), 2, derived=True)
        assert t.query_count == 1
        assert len(t.events) == 2
        assert [ev.guess for ev in t.events if not ev.derived] == [(1, 2, 3)]

    def test_event_never_equals_a_tuple(self):
        # an event is not its fields: comparing it to anything but an event
        # falls back to identity
        event = TranscriptEvent((1, 2), 1)
        assert event.__eq__(((1, 2), 1, False)) is NotImplemented
        assert not event == ((1, 2), 1, False)
        assert event != ((1, 2), 1, False)

    def test_event_repr_and_hash(self):
        event = TranscriptEvent((1, 2, 3), 1)
        assert repr(event) == "TranscriptEvent(guess=(1, 2, 3), black=1, derived=False)"
        spliced = TranscriptEvent(Splice(GameConfig(3, 3), (1, 1, 3)), 3, True)
        assert repr(spliced) == "TranscriptEvent(guess=Splice(runs=(1, 1, 3)), black=3, derived=True)"
        with pytest.raises(TypeError, match="unhashable type: 'TranscriptEvent'"):
            hash(event)

    def test_rejects_out_of_range_count(self):
        t = Transcript(GameConfig(3, 3))
        with pytest.raises(ValueError):
            t.record((1, 2, 3), 4)
        with pytest.raises(ValueError):
            t.record((1, 2, 3), -1)

    @pytest.mark.parametrize(
        "count", [True, 1.0, np.int64(1), "1", None], ids=["bool", "float", "np.int64", "str", "None"]
    )
    def test_rejects_a_count_that_is_no_int(self, count):
        t = Transcript(GameConfig(3, 3))
        with pytest.raises(ValueError, match="not an int"):
            t.record((2, 3, 1), count)
        assert t.events == []
