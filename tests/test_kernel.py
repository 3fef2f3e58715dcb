"""Counting kernels: the run count and the board-wide kernels agree with
`black_count` member by member, and a board's code set with
`all_injective_codes` code by code."""

import os
import subprocess
import sys
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import permmind
from permmind import GameConfig, all_injective_codes
from permmind import _kernel
from permmind.core import OPEN
from permmind._kernel import (
    CodeSet,
    black_count,
    black_row,
    code_set,
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


def _mask(indices, size):
    """The int whose bit i is set for each i in `indices`, all below `size`."""
    bits = ["0"] * size
    for i in indices:
        bits[i] = "1"
    return int("".join(reversed(bits)), 2)


def _blocks(indices, board):
    """The first-color blocks of the board's codes numbered `indices`: the
    nonempty ones, as color: mask over the sub-board, in color order."""
    blocks = {}
    for i in sorted(indices):
        color, index = divmod(i, board.block)
        blocks[color + 1] = blocks.get(color + 1, 0) | 1 << index
    return blocks


def _whole(codes):
    """A block-held `CodeSet` as one whole-board mask, bit i for code i;
    its blocks must be nonempty and in ascending color order."""
    assert list(codes.blocks) == sorted(codes.blocks)
    assert all(codes.blocks.values())
    return sum(mask << (c - 1) * codes.board.block for c, mask in codes.blocks.items())


@st.composite
def live_sets(draw):
    """A nonempty set of the codes of a board of at most 720 codes, as a
    `CodeSet` and as a list, and a guess.  The codes score at least a drawn
    floor against the guess, so that square boards reach counts of 2 and
    more."""
    k = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=2, max_value=k))
    codes = list(all_injective_codes(GameConfig(n, k)))
    guess = tuple(draw(st.permutations(range(1, k + 1)))[:n])
    floor = draw(st.integers(min_value=0, max_value=n))
    # never empty: the guess is a code of the board
    eligible = [i for i, code in enumerate(codes) if black_count(code, guess) >= floor]
    chosen = draw(st.lists(st.sampled_from(eligible), min_size=1, unique=True))
    board = code_set(n, k).board
    live = CodeSet(board, blocks=_blocks(chosen, board))
    return live, [codes[i] for i in sorted(chosen)], guess


@given(live_sets(), st.sampled_from([0, 64]))
def test_min_black_filter_agrees_with_black_count(drawn, shift):
    # shift 0 decodes every set, 64 counts every one by block
    live, members, guess = drawn
    counts = [black_count(m, guess) for m in members]
    best = min(counts)
    with mock.patch.object(_kernel, "DECODE_SHIFT", shift):
        count, survivors = min_black_filter(live, guess)
    assert type(count) is int
    assert count == best
    assert list(survivors) == [m for m, c in zip(members, counts) if c == best]
    assert len(survivors) == counts.count(best)
    assert list(live) == members  # the input set is left as it was


@st.composite
def block_sets(draw, shape):
    """A board of at most 720 codes, a set held in some of its first-color
    blocks, and a guess.  `shape` picks the blocks: "emptied" leaves at
    least one color's block empty, "single" keeps one block, and "owned"
    keeps one block whose color the guess starts with, so position 0 hits
    every code."""
    k = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=2, max_value=k))
    board = code_set(n, k).board
    if shape == "emptied":
        colors = sorted(draw(st.lists(st.integers(1, k), min_size=1, max_size=k - 1, unique=True)))
    else:
        colors = [draw(st.integers(1, k))]
    blocks = {c: draw(st.integers(1, (1 << board.block) - 1)) for c in colors}
    guess = draw(st.permutations(range(1, k + 1)))
    if shape == "owned":
        guess.remove(colors[0])
        guess.insert(0, colors[0])
    return CodeSet(board, blocks=blocks), tuple(guess[:n])


@pytest.mark.parametrize("shape", ["emptied", "single", "owned"])
@given(data=st.data())
def test_min_black_filter_counts_blocks_like_black_count(shape, data):
    live, guess = data.draw(block_sets(shape))
    n, k = len(guess), live.board.k
    codes = list(all_injective_codes(GameConfig(n, k)))
    whole = _whole(live)
    members = [i for i in range(len(codes)) if whole >> i & 1]
    counts = [black_count(codes[i], guess) for i in members]
    best = min(counts)
    with mock.patch.object(_kernel, "DECODE_SHIFT", 64):
        count, survivors = min_black_filter(live, guess)
    expected = [i for i, c in zip(members, counts) if c == best]
    assert count == best
    assert _whole(survivors) == _mask(expected, len(codes))
    assert list(survivors) == [codes[i] for i in expected]
    assert len(survivors) == len(expected)


@pytest.mark.parametrize(
    "n,k,guesses,decoded",
    [(9, 9, 40, {False, True}), (2, 300, 8, {False})],
    ids=["9-9", "2-300"],
)
def test_min_black_filter_guess_after_guess(n, k, guesses, decoded):
    # the filter's own sets, guess after guess, against the codes filtered
    # one by one: on (9,9) from the whole board by block to a decoded
    # singleton, on (2,300) a few answers on sets of about 89,000 codes
    codes = list(all_injective_codes(GameConfig(n, k)))
    reference = range(len(codes))
    live = code_set(n, k)
    rng = random.Random(n * k)
    forms = set()
    for _ in range(guesses):
        if len(reference) == 1:
            break
        guess = tuple(rng.sample(range(1, k + 1), n))
        counts = [black_count(codes[i], guess) for i in reference]
        best = min(counts)
        reference = [i for i, c in zip(reference, counts) if c == best]
        count, live = min_black_filter(live, guess)
        forms.add(live.blocks is None)
        assert count == best
        assert len(live) == len(reference)
        if live.blocks is None:
            assert live.codes == [codes[i] for i in reference]
        else:
            assert _whole(live) == _mask(reference, len(codes))
    assert forms == decoded


@pytest.mark.parametrize("n,k", [(2, 2), (3, 5), (4, 4), (5, 5), (3, 7), (4, 6)])
def test_hit_masks_agree_with_the_codes(n, k):
    codes = list(all_injective_codes(GameConfig(n, k)))
    board = code_set(n, k).board
    for w in range(n):
        for c in range(1, k + 1):
            expected = _mask((i for i, code in enumerate(codes) if code[w] == c), len(codes))
            assert board.hits(w, c) == expected


@given(st.integers(1, 40), st.integers(0, 70), st.data())
def test_repeat_lays_copies_side_by_side(width, count, data):
    block = data.draw(st.integers(0, (1 << width) - 1))
    expected = sum(block << (i * width) for i in range(count))
    assert _kernel._repeat(block, width, count) == expected


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
    board = code_set(3, 3).board
    for empty in (CodeSet(board, blocks={}), CodeSet(board, codes=[])):
        with pytest.raises(ValueError):
            min_black_filter(empty, (1, 2, 3))


def test_accepts_lists_too():
    assert black_count([1, 2, 3], (1, 3, 2)) == 1
    # rotation 1 is (1, 2, 3), which agrees with the partial at position 2
    assert rotation_profile([0, 2, 0], 3) == {1: [2]}
    assert partial_match_count(rotation_profile([0, 2, 0], 3), [1, 1, 3]) == 1
    # (1, 2, 3) and (3, 2, 1) are the first and last codes of the board,
    # the first of block 1 and the last of block 3
    live = CodeSet(code_set(3, 3).board, blocks={1: 0b01, 3: 0b10})
    count, survivors = min_black_filter(live, [1, 3, 2])
    assert (count, list(survivors)) == (0, [(3, 2, 1)])
    row = black_row([[1, 2, 3], [3, 2, 1]], [1, 3, 2])
    assert row == bytes([1, 0])
    assert partition_by_black([1, 0], row) == {0: [1], 1: [0]}


@pytest.mark.parametrize("n,k", [(2, 2), (3, 5), (4, 4), (5, 5), (3, 7), (2, 300)])
def test_code_set_iterates_the_permutations_in_order(n, k):
    # the whole board's set, read code by code
    codes = code_set(n, k)
    expected = list(all_injective_codes(GameConfig(n, k)))
    assert len(codes) == len(expected)
    assert list(codes) == expected


def _fresh_python(probe):
    """stdout of `probe` run by a new interpreter that imports this permmind."""
    src = Path(permmind.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


def test_importing_permmind_loads_no_numpy():
    # the kernels are the standard library alone: not even playing the
    # adversary, from Python or from the command line, loads numpy
    probe = (
        "import contextlib, io, sys, permmind, permmind.cli\n"
        "permmind.verify_lower_bound_play(permmind.GameConfig(5, 6))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert permmind.cli.main(['adversary', '--n', '6']) == 0\n"
        "print('numpy' in sys.modules)"
    )
    assert _fresh_python(probe) == "False\n"


def test_json_output_loads_no_json():
    # the transcript JSON is written through fixed templates alone, so the
    # command line never imports the encoder
    probe = (
        "import contextlib, io, sys, permmind.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert permmind.cli.main(['solve', '--n', '8', '--seed', '1', '--json']) == 0\n"
        "print('json' in sys.modules)"
    )
    assert _fresh_python(probe) == "False\n"


def test_importing_permmind_loads_no_dataclasses():
    # the records are plain classes: importing permmind, playing, replaying
    # a board and running the command line load neither `dataclasses` nor
    # the `inspect` it pulls in
    probe = (
        "import contextlib, io, sys, permmind, permmind.cli\n"
        "config = permmind.GameConfig(5, 6)\n"
        "permmind.solve(permmind.StaticCodemaker((2, 4, 6, 1, 3), config), config)\n"
        "assert permmind.exhaustive_verify(permmind.GameConfig(3, 3)).ok\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert permmind.cli.main(['solve', '--n', '8', '--seed', '1']) == 0\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    )
    assert _fresh_python(probe) == "False False\n"
