"""Exhaustive replay auditing and exact game-tree search."""

import random
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from permmind import (
    CapacityError,
    GameConfig,
    Splice,
    StaticCodemaker,
    Transcript,
    TranscriptEvent,
    VerificationReport,
    all_injective_codes,
    black,
    check_transcript,
    exhaustive_verify,
    minimax_value,
    minimax_value_naive,
    query_bound,
    random_injective_code,
    solve,
)
from permmind import _kernel
from permmind.bruteforce import _depth_floors, _fixing, _orbit_ids, _position_symmetries
from util import all_rotations


def _played_transcript(secret, config):
    _, transcript = solve(StaticCodemaker(secret, config), config)
    return transcript


def _played_games():
    """(secret, transcript) on (4,4), and on a square and a wide board large
    enough that the solver asks and records its guesses as `Splice`s."""
    yield (2, 1, 4, 3), _played_transcript((2, 1, 4, 3), GameConfig(4, 4))
    rng = random.Random(5)
    for n, k in ((64, 64), (64, 80)):
        secret = tuple(rng.sample(range(1, k + 1), n))
        transcript = _played_transcript(secret, GameConfig(n, k))
        assert type(transcript.events[0].guess) is Splice
        yield secret, transcript


def _miscounted(ev, n):
    return TranscriptEvent(ev.guess, (ev.black + 1) % (n + 1), ev.derived)


class TestCheckTranscript:
    def test_clean_game_passes(self):
        for secret, transcript in _played_games():
            assert check_transcript(transcript, secret) is None

    def test_derived_events_are_audited_too(self):
        for secret, transcript in _played_games():
            idx = next(i for i, ev in enumerate(transcript.events) if ev.derived)
            transcript.events[idx] = _miscounted(transcript.events[idx], len(secret))
            assert check_transcript(transcript, secret) == idx

    def test_reports_first_bad_event(self):
        for secret, transcript in _played_games():
            events = transcript.events
            search = len(events) - 3  # a search guess, spliced on the larger boards
            for idx in (search, 2, 0):
                events[idx] = _miscounted(events[idx], len(secret))
                assert check_transcript(transcript, secret) == idx

    def test_family_sum_checked_without_secret(self):
        config = GameConfig(3, 3)
        transcript = Transcript(config)
        for rot, answer in zip(all_rotations(config), (1, 1, 1)):
            transcript.record(rot, answer)
        assert check_transcript(transcript) is None
        bad = Transcript(config)
        for rot, answer in zip(all_rotations(config), (1, 1, 0)):
            bad.record(rot, answer)
        assert check_transcript(bad) == 2

    def test_spliced_family_is_recognised(self):
        config = GameConfig(4, 5)
        for split in (False, True):  # one run per rotation, or two
            transcript = Transcript(config)
            for j in range(1, 6):
                runs = (j, 1, 2, j, 3, 4) if split else (j, 1, 4)
                transcript.record(Splice(config, runs), 1)
            assert check_transcript(transcript) == 4  # five counts of 1 are not 4
        shifted = Transcript(config)
        for j in range(1, 6):
            shifted.record(Splice(config, (j % 5 + 1, 1, 4)), 1)
        assert check_transcript(shifted) is None  # not in family order: no sum
        # rotations 1..5 of (4,6) are no family of (4,5): rotation 1 alone
        # shows the same colors on both boards
        wide = GameConfig(4, 6)
        foreign = Transcript(config)
        for j in range(1, 6):
            foreign.record(Splice(wide, (j, 1, 4)), 1)
        assert check_transcript(foreign) is None

    @pytest.mark.parametrize("foreign_first", [False, True], ids=["board-first", "foreign-first"])
    def test_splices_of_another_board_are_counted_by_black(self, foreign_first):
        # a (64,80) oracle answers a splice of its board on the secret's
        # profile and a valid (64,64) splice by a scan; the audit must count
        # each the same way, whichever comes first
        config = GameConfig(64, 80)
        secret = tuple(random.Random(63).sample(range(1, 81), 64))
        own, foreign = Splice(config, (5, 1, 64)), Splice(GameConfig(64, 64), (3, 1, 64))
        oracle = StaticCodemaker(secret, config)
        asked = (foreign, own) if foreign_first else (own, foreign)
        answers = [oracle.answer(guess) for guess in asked]
        assert dict(zip(asked, answers)) == {own: 2, foreign: 1}
        assert check_transcript(oracle.transcript, secret) is None

    @pytest.mark.parametrize("n", [8, 64])
    def test_a_secret_of_the_wrong_length_is_refused(self, n):
        # on 64 holes most events are splices, counted on the secret's
        # rotation profile, which must not be built from a short code
        config = GameConfig(n, n)
        secret = random_injective_code(config, random.Random(1))
        transcript = _played_transcript(secret, config)
        with pytest.raises(ValueError, match=f"code length mismatch: {n} != {n - 1}"):
            check_transcript(transcript, secret[:-1])

    def test_opening_verdicts(self):
        # without a secret only the opening's rotation sum is audited
        for _, transcript in _played_games():
            config = transcript.config
            assert check_transcript(transcript) is None  # a clean game
            events = transcript.events
            events[1] = _miscounted(events[1], config.n)  # the sum is no longer n
            assert check_transcript(transcript) == config.k - 1
            short = Transcript(config)
            short.events.extend(events[: config.k - 1])
            assert check_transcript(short) is None  # no full opening
            not_rotation_1 = tuple(reversed(config.rotation(1)))
            events[0] = TranscriptEvent(not_rotation_1, events[0].black)
            assert check_transcript(transcript) is None  # no rotation opening

    def test_no_family_no_sum_check(self):
        config = GameConfig(3, 3)
        transcript = Transcript(config)
        transcript.record((1, 2, 3), 0)
        transcript.record((1, 2, 3), 0)
        transcript.record((1, 2, 3), 0)
        assert check_transcript(transcript) is None


class TestExhaustiveVerify:
    def test_square_board(self):
        report = exhaustive_verify(GameConfig(4, 4))
        assert report.ok
        assert report.total == 24
        assert report.max_queries == 10
        assert report.bound == 11
        assert sum(report.query_histogram.values()) == 24
        assert report.terminal_swaps == 8
        assert "ok" in report.summary()

    def test_wide_board(self):
        report = exhaustive_verify(GameConfig(2, 3))
        assert report.ok
        assert report.total == 6
        assert report.max_queries == 3

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            exhaustive_verify(GameConfig(4, 4), max_states=10)

    def test_report_defaults(self):
        config = GameConfig(3, 3)
        report = VerificationReport(config)
        assert (report.config, report.total, report.bound) == (config, 0, 6)
        assert report.bound == query_bound(config)
        assert VerificationReport(GameConfig(4, 6)).bound == query_bound(GameConfig(4, 6))
        assert (report.max_queries, report.query_histogram, report.failures) == (0, {}, [])
        assert report.terminal_swaps == 0 and report.ok
        assert report.summary() == "n=3 k=3: 0 secrets, max 0 queries, bound 6, ok"
        other = VerificationReport(config)
        assert other.query_histogram is not report.query_histogram
        assert other.failures is not report.failures
        report.failures.append(("wrong_secret", (1, 2, 3), (2, 1, 3)))
        assert not report.ok and report != other
        assert report.summary() == "n=3 k=3: 0 secrets, max 0 queries, bound 6, 1 FAILURES"

    def test_flags_wrong_recovery(self):
        def wrong_solver(oracle, config):
            secret, transcript = solve(oracle, config)
            wrong = next(c for c in all_injective_codes(config) if c != secret)
            return wrong, transcript

        report = exhaustive_verify(GameConfig(3, 3), solver=wrong_solver)
        assert not report.ok
        assert len(report.failures) == 6
        assert all(kind == "wrong_secret" for kind, *_ in report.failures)

    @pytest.mark.parametrize("n", [4, 3])
    def test_flags_budget_overrun(self, n):
        def padded_solver(oracle, config):
            secret, transcript = solve(oracle, config)
            first = transcript.events[0].guess
            while transcript.query_count <= query_bound(config):
                oracle.answer(first)
            return secret, transcript

        report = exhaustive_verify(GameConfig(n, n), solver=padded_solver)
        assert not report.ok
        assert len(report.failures) == report.total
        assert all(kind == "over_budget" for kind, *_ in report.failures)

    def test_flags_tampered_transcript(self):
        def tampering_solver(oracle, config):
            secret, transcript = solve(oracle, config)
            ev = transcript.events[0]
            transcript.events[0] = TranscriptEvent(
                ev.guess, (ev.black + 1) % (config.n + 1), ev.derived
            )
            return secret, transcript

        report = exhaustive_verify(GameConfig(3, 3), solver=tampering_solver)
        assert not report.ok
        assert all(kind == "bad_transcript" for kind, *_ in report.failures)


class TestMinimax:
    def test_two_holes_need_two(self):
        assert minimax_value(GameConfig(2, 2)) == 2

    def test_three_holes_need_four(self):
        assert minimax_value(GameConfig(3, 3)) == 4

    def test_four_holes_need_five(self):
        assert minimax_value(GameConfig(4, 4)) == 5

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (2, 3), (2, 4)])
    def test_naive_cross_check(self, n, k):
        config = GameConfig(n, k)
        assert minimax_value(config) == minimax_value_naive(config)

    @pytest.mark.parametrize(
        "n,k,optimal", [(2, 7, 7), (4, 5, 6), (5, 5, 6), (3, 6, 7), (2, 8, 8)]
    )
    def test_exact_values_past_the_soft_limit(self, n, k, optimal):
        assert minimax_value(GameConfig(n, k), allow_large=True) == optimal

    def test_hopeless_guesses_are_not_searched(self, monkeypatch):
        # a guess whose largest part alone cannot be solved in fewer queries
        # than the best guess so far is skipped before its parts are searched
        calls = 0
        partition = _kernel.partition_by_black

        def counted(members, guess):
            nonlocal calls
            calls += 1
            return partition(members, guess)

        monkeypatch.setattr(_kernel, "partition_by_black", counted)
        assert minimax_value(GameConfig(3, 5), allow_large=True) == 6
        # 6,738 when every guess was searched; exactly as many as before the
        # search ran on code indices, so it tries the same guesses in order
        assert calls == 1215

    @pytest.mark.parametrize("branch", [1, 2, 3, 4, 5])
    def test_depth_floors_match_their_definition(self, branch):
        # floors[size] is the least d >= 1 with 1 + branch + ... +
        # branch**(d - 1) >= size
        def within(d):
            return sum(branch**i for i in range(d))

        floors = _depth_floors(720, branch)
        assert len(floors) == 721
        for size, d in enumerate(floors):
            assert d >= 1 and within(d) >= size, (size, d)
            assert d == 1 or within(d - 1) < size, (size, d)

    def test_optimal_never_beats_information_floor(self):
        # with at most n distinguishable non-winning answers, |F| secrets
        # cannot be told apart faster than the answer tree allows
        assert minimax_value(GameConfig(3, 3)) >= 3
        assert minimax_value(GameConfig(4, 4)) >= 4

    def test_soft_guard(self):
        with pytest.raises(CapacityError):
            minimax_value(GameConfig(3, 5))

    def test_hard_guard(self):
        with pytest.raises(CapacityError):
            minimax_value(GameConfig(4, 6), allow_large=True)

    def test_naive_guard(self):
        with pytest.raises(CapacityError):
            minimax_value_naive(GameConfig(4, 4))

    def test_naive_huge_board_refused_before_enumerating(self):
        with pytest.raises(CapacityError, match="tiny boards only"):
            minimax_value_naive(GameConfig(12, 12))

    def test_solver_stays_within_sight_of_optimal(self):
        # the strategy is built for asymptotics, but on tiny boards it
        # should not be absurdly far from the true optimum either
        for n in (2, 3, 4):
            config = GameConfig(n, n)
            optimal = minimax_value(config)
            achieved = exhaustive_verify(config).max_queries
            assert optimal <= achieved <= optimal + 2 * n


def _readme_optimum_table():
    """(n, k, optimal, solver max) for each row of README's exact-optimum table."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| n | k | optimal | solver max |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(int(cell) for cell in line.strip("|").split("|")))
    return rows


def test_readme_optimum_table():
    rows = _readme_optimum_table()
    assert len(rows) >= 8
    for n, k, optimal, solver_max in rows:
        config = GameConfig(n, k)
        assert minimax_value(config, allow_large=True) == optimal, (n, k)
        assert exhaustive_verify(config).max_queries == solver_max, (n, k)


def _move(sigma, colors, code):
    """The code with code[j] moved to position sigma[j] and recolored."""
    moved = [0] * len(code)
    for j, color in enumerate(code):
        moved[sigma[j]] = colors[color]
    return tuple(moved)


def _guess_chain(codes, seed):
    """The search's own first guess, then two random ones."""
    return [codes[0]] + random.Random(seed).sample(codes, 2)


class TestSymmetries:
    """The symmetries minimax_value keeps are exactly those of S_n x S_k
    that fix every guess so far, and their orbits are labelled by the first
    code of each."""

    @pytest.mark.parametrize("n,k,seed", [(4, 4, 1), (3, 5, 2)])
    def test_kept_symmetries_fix_the_guesses(self, n, k, seed):
        config = GameConfig(n, k)
        codes = list(all_injective_codes(config))
        guesses = _guess_chain(codes, seed)
        symmetries = _position_symmetries(config)
        for depth, guess in enumerate(guesses, start=1):
            symmetries = _fixing(symmetries, guess)
            made = guesses[:depth]
            assert symmetries[0][0] == tuple(range(n))
            assert len({sigma for sigma, _, _ in symmetries}) == len(symmetries)
            for sigma, getter, pi in symmetries:
                unused = [c for c in range(1, k + 1) if not pi[c]]
                # the used colors map onto themselves; the unused ones go
                # anywhere among themselves, here to themselves
                colors = [c if c in unused else pi[c] for c in range(k + 1)]
                assert sorted(colors[1:]) == list(range(1, k + 1))
                for g in made:
                    assert _move(sigma, colors, g) == g
                    assert getter(tuple(pi[c] for c in g)) == tuple(
                        0 if c in unused else c for c in g
                    )
                moved = {code: _move(sigma, colors, code) for code in codes}
                for a in codes:
                    for b in codes:
                        assert black(moved[a], moved[b]) == black(a, b)
            # none is missing: each kept one stands for every relabelling of
            # the unused colors
            unused = [c for c in range(1, k + 1) if not symmetries[0][2][c]]
            fixing_all = sum(
                all(_move(sigma, (0,) + perm, g) == g for g in made)
                for sigma in permutations(range(n))
                for perm in permutations(range(1, k + 1))
            )
            assert fixing_all == len(symmetries) * factorial(len(unused))
            if (n, k) == (3, 5) and depth == 1:
                assert unused == [4, 5]

    @pytest.mark.parametrize("n,k,seed", [(4, 4, 1), (3, 5, 2)])
    def test_orbit_ids_label_the_orbits(self, n, k, seed):
        config = GameConfig(n, k)
        codes = list(all_injective_codes(config))
        symmetries = _position_symmetries(config)
        for guess in [None] + _guess_chain(codes, seed)[:2]:
            if guess is not None:
                symmetries = _fixing(symmetries, guess)
            ids = _orbit_ids(codes, symmetries)
            identity = symmetries[0][2]
            blanked = [tuple(identity[c] for c in code) for code in codes]
            images = [
                {getter(tuple(pi[c] for c in code)) for _, getter, pi in symmetries}
                for code in codes
            ]
            for a in range(len(codes)):
                for b in range(len(codes)):
                    assert (ids[a] == ids[b]) == (blanked[b] in images[a])
                # an orbit's id is its first code, in code order
                assert ids[a] == min(b for b in range(len(codes)) if ids[b] == ids[a])
            if guess is None:
                assert set(ids) == {0}


class TestTranscriptInvariantEverywhere:
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 4), (5, 5), (2, 4), (3, 5)])
    def test_all_transcripts_internally_consistent(self, n, k):
        config = GameConfig(n, k)
        for secret in all_injective_codes(config):
            transcript = _played_transcript(secret, config)
            assert check_transcript(transcript, secret) is None
            heads = [ev.guess for ev in transcript.events[:k]]
            assert heads == all_rotations(config)
            assert sum(ev.black for ev in transcript.events[:k]) == n
            assert all(
                black(ev.guess, secret) == ev.black for ev in transcript.events
            )
