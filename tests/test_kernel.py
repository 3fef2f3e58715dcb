"""Counting kernels: the board-wide ones agree with `black_count` member by member."""

import pytest
from hypothesis import given, strategies as st

from permmind._kernel import (
    OPEN,
    black_count,
    min_black_filter,
    partial_match_count,
    partition_by_black,
)


@st.composite
def codes_and_guess(draw, max_k=8):
    k = draw(st.integers(min_value=2, max_value=max_k))
    n = draw(st.integers(min_value=2, max_value=k))
    perm = st.permutations(range(1, k + 1))
    members = draw(st.lists(perm, min_size=1, max_size=24))
    members = [tuple(p[:n]) for p in members]
    guess = tuple(draw(perm)[:n])
    return members, guess


@given(codes_and_guess())
def test_black_count_counts_agreeing_positions(drawn):
    members, guess = drawn
    for m in members:
        assert black_count(m, guess) == sum(x == y for x, y in zip(m, guess))


@given(codes_and_guess())
def test_partial_match_count_ignores_open_positions(drawn):
    members, guess = drawn
    for m in members:
        half = len(m) // 2
        partial = (OPEN,) * half + m[half:]
        assert partial_match_count(guess, partial) == black_count(guess[half:], m[half:])


@given(codes_and_guess())
def test_min_black_filter_agrees_with_black_count(drawn):
    members, guess = drawn
    counts = [black_count(m, guess) for m in members]
    best = min(counts)
    assert min_black_filter(members, guess) == (
        best,
        [m for m, c in zip(members, counts) if c == best],
    )


@given(codes_and_guess())
def test_partition_by_black_agrees_with_black_count(drawn):
    members, guess = drawn
    parts = partition_by_black(members, guess)
    assert sorted(parts) == sorted({black_count(m, guess) for m in members})
    for count, group in parts.items():
        assert group == [m for m in members if black_count(m, guess) == count]


def test_empty_filter_raises():
    with pytest.raises(ValueError):
        min_black_filter([], (1, 2, 3))


def test_accepts_lists_too():
    assert black_count([1, 2, 3], (1, 3, 2)) == 1
    assert partial_match_count((1, 2, 3), [0, 2, 0]) == 1
    assert min_black_filter([[1, 2, 3], [3, 2, 1]], [1, 3, 2]) == (0, [[3, 2, 1]])
    assert partition_by_black([[1, 2, 3], [3, 2, 1]], [1, 3, 2]) == {1: [[1, 2, 3]], 0: [[3, 2, 1]]}
