"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test name carries its criterion number, so the verbose pytest listing
reads as one pass/fail line per criterion.  Timing limits are asserted
directly where a criterion has one.
"""

import random
import time

from permmind import (
    GameConfig,
    StaticCodemaker,
    all_injective_codes,
    black,
    check_transcript,
    exhaustive_verify,
    minimax_value,
    query_bound,
    random_injective_code,
    solve,
    validate_code,
    verify_lower_bound_play,
)
from permmind import cli
from permmind.core import open_matches
from permmind.solver import apply_found_component, find_next, initial_phase, select_active_index
from util import make_same_colors_instance, make_spare_colors_instance
from permmind import adapt_secret


def _report(line):
    print(f"[acceptance] {line}")


def test_criterion_01_worked_replay():
    """The documented n = 8 game fragment replays move for move."""
    secret = (7, 1, 4, 3, 2, 8, 5, 6)
    state = initial_phase(StaticCodemaker(secret, GameConfig(8, 8)))
    assert state.v == [0, 2, 3, 1, 0, 0, 1, 1]
    # three components: 2 at position 5 (rotation 4), 5 and 6 at 7 and 8
    # (rotation 3)
    for j, m in ((4, 5), (3, 7), (3, 8)):
        apply_found_component(state, j, m)
    assert state.partial == [0, 0, 0, 0, 2, 0, 5, 6]
    assert state.v == [0, 2, 1, 0, 0, 0, 1, 1]
    j, r = select_active_index(state)
    assert (j, r) == (3, 4)
    m = find_next(state, j)
    assert m == 1
    tail = state.transcript.events[8:]
    assert [ev.guess for ev in tail] == [
        (2, 7, 8, 1, 3, 4, 5, 6),
        (7, 8, 2, 1, 3, 4, 5, 6),
        (7, 2, 8, 1, 3, 4, 5, 6),
    ]
    opens = [open_matches(ev.black, black(ev.guess, state.partial)) for ev in tail]
    assert opens == [0, 1, 1]
    _report("criterion 1 PASS: worked example replay")


def test_criterion_02_exhaustive_square_boards():
    """Every secret on n = k in 2..8 is solved within the budget, under 2 minutes."""
    started = time.perf_counter()
    maxima = {}
    swaps = {}
    for n in range(2, 9):
        report = exhaustive_verify(GameConfig(n, n))
        assert report.ok, report.failures[:3]
        assert report.max_queries <= report.bound
        maxima[n] = (report.max_queries, report.bound)
        swaps[n] = report.terminal_swaps
    elapsed = time.perf_counter() - started
    # the observed maxima the README table lists
    assert {n: worst for n, (worst, _) in maxima.items()} == {
        2: 2, 3: 5, 4: 10, 5: 15, 6: 22, 7: 28, 8: 34
    }
    # the degenerate opening swaps `permmind exhaustive` prints
    assert swaps == {2: 0, 3: 0, 4: 8, 5: 20, 6: 136, 7: 752, 8: 5586}
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _report(f"criterion 2 PASS: square boards {maxima} in {elapsed:.1f}s")


def test_criterion_03_exhaustive_wide_boards():
    """Every secret on the wide boards is solved within the budget."""
    results = {}
    for n, k in ((3, 5), (4, 6), (4, 8)):
        report = exhaustive_verify(GameConfig(n, k))
        assert report.ok, report.failures[:3]
        assert report.max_queries <= report.bound
        results[(n, k)] = (report.max_queries, report.bound)
    # the observed maxima the README table lists
    assert {board: worst for board, (worst, _) in results.items()} == {
        (3, 5): 8, (4, 6): 11, (4, 8): 13
    }
    _report(f"criterion 3 PASS: wide boards {results}")


def test_criterion_04_large_boards_sampled():
    """100 seeded secrets per large board, all in budget, under a minute."""
    started = time.perf_counter()
    maxima = {}
    for n in (16, 64, 256):
        config = GameConfig(n, n)
        rng = random.Random(2024)
        worst = 0
        for _ in range(100):
            secret = random_injective_code(config, rng)
            recovered, transcript = solve(StaticCodemaker(secret, config), config)
            assert recovered == secret
            assert check_transcript(transcript, secret) is None
            assert transcript.query_count <= query_bound(config)
            worst = max(worst, transcript.query_count)
        maxima[n] = (worst, query_bound(config))
    elapsed = time.perf_counter() - started
    assert maxima[64][0] <= 525
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(f"criterion 4 PASS: large boards {maxima} in {elapsed:.1f}s")


def test_criterion_05_adversary_square_boards():
    """The adversary forces at least n queries on n = k in 3..6, answering
    at most m at query m, and its candidate set never empties; the game
    also passes `audit_game`: right secret, consistent transcript, within
    `query_bound` (verify_lower_bound_play raises otherwise)."""
    results = {}
    for n in range(3, 7):
        queries, _ = verify_lower_bound_play(GameConfig(n, n))
        results[n] = queries
    _report(f"criterion 5 PASS: adversary queries {results}")


def test_criterion_06_adversary_wide_boards():
    """The adversary forces at least k queries on wide boards, never
    conceding a full match before query k, and the game passes `audit_game`:
    right secret, consistent transcript, within `query_bound`
    (verify_lower_bound_play raises otherwise)."""
    results = {}
    for n, k in ((2, 3), (3, 5)):
        queries, _ = verify_lower_bound_play(GameConfig(n, k))
        results[(n, k)] = queries
    _report(f"criterion 6 PASS: adversary queries {results}")


def test_criterion_07_minimax_brackets():
    """Exact optima: 2 queries for two holes; for n in 3..5 the optimum sits
    between n and what the solver achieves; all under a minute."""
    started = time.perf_counter()
    assert minimax_value(GameConfig(2, 2)) == 2
    brackets = {}
    for n in (3, 4, 5):
        config = GameConfig(n, n)
        optimal = minimax_value(config, allow_large=True)
        achieved = exhaustive_verify(config).max_queries
        assert n <= optimal <= achieved, (n, optimal, achieved)
        brackets[n] = (n, optimal, achieved)
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(f"criterion 7 PASS: minimax brackets {brackets} in {elapsed:.1f}s")


def _check_adaption(config, queries, secret, adapted):
    validate_code(adapted, config)
    for earlier in queries[:-1]:
        if black(earlier, adapted) != black(earlier, secret):
            return "earlier count changed"
    if not black(queries[-1], adapted) < black(queries[-1], secret):
        return "current count not lowered"
    return None


def test_criterion_08_adaption_postconditions():
    """1000 random instances per color pool: the adapted secret is a valid code,
    preserves every earlier count, and strictly lowers the current one."""
    rng = random.Random(777)
    failures = []
    for _ in range(1000):
        inst = make_same_colors_instance(rng)
        problem = _check_adaption(*inst, adapt_secret(*inst))
        if problem:
            failures.append(("same", inst, problem))
    for _ in range(1000):
        inst = make_spare_colors_instance(rng)
        problem = _check_adaption(*inst, adapt_secret(*inst))
        if problem:
            failures.append(("spare", inst, problem))
    assert not failures, failures[:3]
    _report("criterion 8 PASS: 2000 adaption instances, zero failures")


def test_criterion_09_family_counts_sum():
    """Across every board checked, the rotation family's counts against any
    secret sum to exactly n."""
    boards = [(n, n) for n in range(2, 8)]
    boards += [(2, 3), (2, 4), (3, 4), (3, 5), (4, 6), (4, 8), (2, 8), (5, 7)]
    checked = 0
    for n, k in boards:
        config = GameConfig(n, k)
        family = [config.rotation(j) for j in range(1, k + 1)]
        for secret in all_injective_codes(config):
            assert sum(black(rot, secret) for rot in family) == n
            checked += 1
    _report(f"criterion 9 PASS: family sums over {checked} (board, secret) pairs")


def test_criterion_10_bench_determinism(tmp_path):
    """The benchmark command is bit-for-bit reproducible."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["bench", "--n", "32", "--k", "32", "--samples", "50", "--seed", "7", "--out"]
    assert cli.main(argv + [str(a)]) == 0
    assert cli.main(argv + [str(b)]) == 0
    content_a, content_b = a.read_bytes(), b.read_bytes()
    assert content_a == content_b
    assert content_a.startswith(b"n,k,samples,seed,max_queries,mean_queries,bound,bound_ok\n")
    _report("criterion 10 PASS: identical benchmark CSV across runs")
