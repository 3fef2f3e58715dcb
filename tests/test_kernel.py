"""Counting kernels: the run count and the board-wide kernels agree with
`black_count` member by member, and the code matrix with `all_injective_codes`
row by row."""

import os
import subprocess
import sys
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import permmind
from permmind import OPEN, GameConfig, all_injective_codes
from permmind import _kernel
from permmind._kernel import (
    black_count,
    black_row,
    code_matrix,
    min_black_filter,
    partial_match_count,
    partition_by_black,
    rotation_profile,
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


@given(codes_and_guess(), st.data())
def test_partial_match_count_ignores_open_positions(drawn, data):
    # the guess as one-peg runs, any prefix of them: the count over
    # positions 1..i, for any pattern of OPEN holes
    members, guess = drawn
    n = len(guess)
    k = max(c for code in (guess, *members) for c in code)
    runs = [x for i, c in enumerate(guess, 1) for x in ((i - c) % k + 1, i, i)]
    for m in members:
        opened = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        partial = tuple(OPEN if o else x for o, x in zip(opened, m))
        profile = rotation_profile(partial, k)
        assert [partial_match_count(profile, runs[: 3 * i]) for i in range(n + 1)] == [
            sum(1 for x, p in zip(guess[:i], partial[:i]) if p != OPEN and x == p)
            for i in range(n + 1)
        ]


@given(codes_and_guess(), st.sampled_from("CF"), st.sampled_from([1, 2, 3, 5, 2**16]))
def test_min_black_filter_agrees_with_black_count(drawn, order, chunk):
    # the adversary's matrices are column-major; a row-major one filters the
    # same, and the survivors of a column-major one keep each column
    # contiguous.  Tiny chunks walk every case: chunks kept whole before and
    # after the first dropped row, emptied chunks, chunks moved part by part
    members, guess = drawn
    counts = [black_count(m, guess) for m in members]
    best = min(counts)
    with mock.patch.object(_kernel, "FILTER_CHUNK", chunk):
        count, survivors = min_black_filter(np.array(members, dtype=np.uint8, order=order), guess)
    assert type(count) is int
    assert count == best
    assert [tuple(row) for row in survivors.tolist()] == [
        m for m, c in zip(members, counts) if c == best
    ]
    if order == "F":
        assert survivors.strides[0] == survivors.itemsize


def _reference_filter(matrix, guess):
    """The minimum count and its rows in input order, counted column-wise on
    a separate array."""
    counts = (matrix == np.array(guess, dtype=matrix.dtype)).sum(axis=1)
    best = counts.min()
    return int(best), matrix[counts == best]


@pytest.mark.parametrize("n,k,order", [(9, 9, "F"), (9, 9, "C"), (2, 300, "F")])
def test_min_black_filter_compacts_in_place_across_chunks(n, k, order):
    # more rows than one chunk, filtered guess after guess, so later filters
    # run on the compacted views earlier ones returned
    matrix = np.asarray(code_matrix(n, k), order=order)
    assert len(matrix) > _kernel.FILTER_CHUNK
    reference = matrix.copy()
    rng = random.Random(n * k)
    live = matrix
    for _ in range(4):
        guess = tuple(rng.sample(range(1, k + 1), n))
        count, live = min_black_filter(live, guess)
        best, reference = _reference_filter(reference, guess)
        assert count == best
        assert np.array_equal(live, reference)
        assert np.shares_memory(live, matrix)
        if order == "F":
            assert live.strides[0] == live.itemsize
    assert len(live) < len(matrix)


@given(codes_and_guess())
def test_black_row_agrees_with_black_count(drawn):
    members, guess = drawn
    row = black_row(members, guess)
    assert type(row) is bytes
    assert list(row) == [black_count(m, guess) for m in members]


@given(codes_and_guess(), st.data())
def test_partition_by_black_agrees_with_black_count(drawn, data):
    # any subset of the indices, in any order: each group keeps that order,
    # and the groups come in the order their counts first appear
    members, guess = drawn
    row = black_row(members, guess)
    indices = data.draw(st.lists(st.sampled_from(range(len(members))), unique=True))
    parts = partition_by_black(indices, row)
    assert list(parts) == list(dict.fromkeys(row[i] for i in indices))
    for count, group in parts.items():
        assert group == [i for i in indices if black_count(members[i], guess) == count]


@pytest.mark.parametrize("b,count", [((3, 1, 2), 0), ((1, 3, 2), 1), ((1, 2, 3), 3)])
def test_black_count_is_an_int(b, count):
    # the oracle rejects any answer that is not an int, bools included
    assert type(black_count((1, 2, 3), b)) is int
    assert black_count((1, 2, 3), b) == count


def test_empty_filter_raises():
    with pytest.raises(ValueError):
        min_black_filter(np.empty((0, 3), dtype=np.uint8), (1, 2, 3))


def test_accepts_lists_too():
    assert black_count([1, 2, 3], (1, 3, 2)) == 1
    # rotation 1 is (1, 2, 3), which agrees with the partial at position 2
    assert rotation_profile([0, 2, 0], 3) == {1: [2]}
    assert partial_match_count(rotation_profile([0, 2, 0], 3), [1, 1, 3]) == 1
    count, survivors = min_black_filter(np.array([[1, 2, 3], [3, 2, 1]]), [1, 3, 2])
    assert (count, survivors.tolist()) == (0, [[3, 2, 1]])
    row = black_row([[1, 2, 3], [3, 2, 1]], [1, 3, 2])
    assert row == bytes([1, 0])
    assert partition_by_black([1, 0], row) == {0: [1], 1: [0]}


@pytest.mark.parametrize("n,k", [(2, 2), (3, 5), (4, 4), (5, 5), (3, 7), (2, 300)])
def test_code_matrix_rows_are_the_permutations_in_order(n, k):
    matrix = code_matrix(n, k)
    assert matrix.dtype == (np.uint8 if k < 256 else np.uint16)
    assert matrix.flags.f_contiguous
    expected = list(all_injective_codes(GameConfig(n, k)))
    assert [tuple(row) for row in matrix.tolist()] == expected


def _build_peak(n, k):
    """Peak traced memory of building the (n, k) code matrix, in matrix sizes."""
    tracemalloc.start()
    try:
        matrix = code_matrix(n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / matrix.nbytes


def test_code_matrix_builds_in_place():
    # one allocation for the matrix, plus about two of its columns of scratch
    assert _build_peak(9, 9) <= 1.5


def test_code_matrix_columns_are_written_without_a_copy():
    # on a wide board the scratch is little more than the last `unused`, one
    # column in six here; a copy of it made for the write would reach 1.33
    assert _build_peak(6, 12) <= 1.25


def _fresh_python(probe):
    """stdout of `probe` run by a new interpreter that imports this permmind,
    with OPENBLAS_NUM_THREADS unset."""
    src = Path(permmind.__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(src)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


def test_importing_permmind_loads_no_numpy():
    # numpy is imported inside the adversary's kernels only, so commands that
    # never play the adversary do not pay for loading it
    probe = "import sys, permmind, permmind.cli; print('numpy' in sys.modules)"
    assert _fresh_python(probe) == "False\n"


def test_loading_numpy_starts_no_blas_threads():
    # OpenBLAS would start a busy-waiting worker thread per further CPU; the
    # kernels use no BLAS, and the environment is left as it was found
    probe = (
        "import os; from permmind._kernel import code_matrix; code_matrix(2, 3); "
        "print(len(os.listdir('/proc/self/task')), 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    assert _fresh_python(probe) == "1 False\n"
