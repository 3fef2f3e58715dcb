"""Board primitives: validation, counting, rotations, transcripts."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permmind import (
    OPEN,
    GameConfig,
    InconsistentOracleError,
    InvalidCodeError,
    Transcript,
    black,
    open_matches,
    rotation,
    rotation_family,
    validate_code,
)


@st.composite
def board_and_codes(draw, max_k=9, count=2):
    k = draw(st.integers(min_value=2, max_value=max_k))
    n = draw(st.integers(min_value=2, max_value=k))
    codes = [tuple(draw(st.permutations(range(1, k + 1)))[:n]) for _ in range(count)]
    return GameConfig(n, k), codes


class TestGameConfig:
    def test_valid(self):
        assert GameConfig(2, 2).n == 2
        assert GameConfig(3, 7).k == 7

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 5), (0, 3), (4, 3), (-2, -2)])
    def test_rejects_bad_shapes(self, n, k):
        with pytest.raises(ValueError):
            GameConfig(n, k)


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
        # rotation_family's lru_cache keys on the config
        plain, cached = GameConfig(4, 4), GameConfig(4, 4)
        assert cached.palette == frozenset({1, 2, 3, 4})
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
        assert rotation(1, GameConfig(4, 4)) == (1, 2, 3, 4)
        assert rotation(1, GameConfig(3, 5)) == (1, 2, 3)

    def test_square_family(self):
        fam = rotation_family(GameConfig(4, 4))
        assert fam == ((1, 2, 3, 4), (4, 1, 2, 3), (3, 4, 1, 2), (2, 3, 4, 1))

    def test_wide_family(self):
        fam = rotation_family(GameConfig(2, 3))
        assert fam == ((1, 2), (3, 1), (2, 3))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            rotation(0, GameConfig(3, 3))
        with pytest.raises(ValueError):
            rotation(4, GameConfig(3, 3))

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=7))
    def test_shift_identity(self, n, extra):
        # dropping one position while advancing one rotation lands on the
        # same colors: family[j][i+1] == family[j+1's predecessor][i]
        config = GameConfig(n, n + extra)
        fam = rotation_family(config)
        k = config.k
        for j in range(1, k + 1):
            succ = fam[j % k]
            for i in range(1, n):
                assert succ[i] == fam[j - 1][i - 1]

    @given(board_and_codes(count=1))
    def test_family_counts_sum_to_holes(self, drawn):
        config, (secret,) = drawn
        total = sum(black(rot, secret) for rot in rotation_family(config))
        assert total == config.n

    @given(board_and_codes(count=1))
    def test_each_position_covered_once(self, drawn):
        # across the family, every position shows every rotation a different
        # color, and each color of 1..k exactly once
        config, _ = drawn
        fam = rotation_family(config)
        for i in range(config.n):
            column = [rot[i] for rot in fam]
            assert sorted(column) == list(range(1, config.k + 1))


class TestFigureVectors:
    # the worked n = k = 8 example: secret y, partial with three components
    SECRET = (7, 1, 4, 3, 2, 8, 5, 6)
    PARTIAL = [OPEN, OPEN, OPEN, OPEN, 2, OPEN, 5, 6]

    def test_rotation_answers(self):
        config = GameConfig(8, 8)
        fam = rotation_family(config)
        answers = tuple(black(rot, self.SECRET) for rot in fam)
        assert answers == (0, 2, 3, 1, 0, 0, 1, 1)

    def test_partial_matches(self):
        config = GameConfig(8, 8)
        fam = rotation_family(config)
        fixed = tuple(black(rot, self.PARTIAL) for rot in fam)
        assert fixed == (0, 0, 2, 1, 0, 0, 0, 0)

    def test_open_matches(self):
        config = GameConfig(8, 8)
        fam = rotation_family(config)
        opens = tuple(
            open_matches(black(rot, self.SECRET), black(rot, self.PARTIAL)) for rot in fam
        )
        assert opens == (0, 2, 1, 0, 0, 0, 1, 1)


class TestTranscript:
    def test_records_and_counts(self):
        t = Transcript(GameConfig(3, 3))
        t.record((1, 2, 3), 1)
        t.record((3, 1, 2), 2, derived=True)
        assert t.query_count == 1
        assert len(t.events) == 2
        assert [ev.guess for ev in t.queried_events()] == [(1, 2, 3)]

    def test_rejects_out_of_range_count(self):
        t = Transcript(GameConfig(3, 3))
        with pytest.raises(ValueError):
            t.record((1, 2, 3), 4)
        with pytest.raises(ValueError):
            t.record((1, 2, 3), -1)
