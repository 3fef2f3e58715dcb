"""Command line behavior: subcommands, formats, exit codes."""

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

import permmind
from permmind import (
    GameConfig,
    InconsistentOracleError,
    LemmaViolationError,
    SolverInvariantError,
    StaticCodemaker,
    exhaustive_verify,
    random_injective_code,
    solve,
)
from permmind import bruteforce, cli
from util import overspend_on_2x2


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def module_env():
    """The environment of a new interpreter that imports this permmind."""
    return dict(os.environ, PYTHONPATH=str(Path(permmind.__file__).resolve().parent.parent))


def no_game(oracle, config):
    pytest.fail("a game was played")


def answers_for(secret, config):
    _, transcript = solve(StaticCodemaker(secret, config), config)
    return "\n".join(str(ev.black) for ev in transcript.events if not ev.derived) + "\n"


class TestSolveCommand:
    def test_text_output(self, capsys):
        code, out, err = run(["solve", "--n", "4", "--secret", "2,1,4,3"], capsys)
        assert code == 0
        assert "secret 2 1 4 3 found in" in out
        assert "*" in out  # the derived family count is marked

    def test_tiny_board_footer(self, capsys):
        code, out, _ = run(["solve", "--n", "3", "--secret", "2,3,1"], capsys)
        assert code == 0
        assert out.endswith("secret 2 3 1 found in 5 queries (bound 6; * = derived, free)\n")

    def test_json_output(self, capsys):
        code, out, _ = run(
            ["solve", "--n", "4", "--secret", "2,1,4,3", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"n", "k", "secret", "events", "queries", "bound"}
        assert data["n"] == 4 and data["k"] == 4
        assert data["secret"] == [2, 1, 4, 3]
        assert data["bound"] == 11
        assert data["queries"] == sum(1 for ev in data["events"] if not ev["derived"])
        assert data["events"][0]["guess"] == [1, 2, 3, 4]
        # canonical layout: two-space indent, sorted keys, trailing newline
        assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "64", "--k", "80", "--seed", "3"],  # wide, spliced searches
            ["--n", "6", "--secret", "2,3,4,5,6,1"],  # derived zeros after the win
        ],
        ids=["wide-spliced", "pinned-opening"],
    )
    def test_json_layout_is_the_encoders(self, argv, capsys):
        # each event is written through a template; the document must be the
        # one json.dumps lays out
        code, out, _ = run(["solve", *argv, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert any(ev["derived"] for ev in data["events"])
        assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_seeded_secret_reproducible(self, capsys):
        argv = ["solve", "--n", "5", "--seed", "11", "--json"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2
        expected = random_injective_code(GameConfig(5, 5), random.Random(11))
        assert json.loads(out1)["secret"] == list(expected)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "game.json"
        code, out, _ = run(
            ["solve", "--n", "4", "--secret", "2,1,4,3", "--json", "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["secret"] == [2, 1, 4, 3]

    def test_unwritable_out_path(self, tmp_path, capsys, monkeypatch):
        # the path is checked before the game: solve must never be reached
        monkeypatch.setattr(cli, "solve", no_game)
        target = tmp_path / "missing" / "x"
        code, _, err = run(["solve", "--n", "4", "--seed", "1", "--out", str(target)], capsys)
        assert code == 1
        assert err.startswith("permmind: error: ") and str(target) in err

    def test_rejects_invalid_secret(self, capsys):
        code, _, err = run(["solve", "--n", "4", "--secret", "1,1,2,3"], capsys)
        assert code == 1
        assert "error" in err

    def test_rejects_malformed_secret(self, capsys):
        code, _, err = run(["solve", "--n", "4", "--secret", "a,b"], capsys)
        assert code == 1

    def test_requires_secret_or_seed(self, capsys):
        code, _, err = run(["solve", "--n", "4"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "extra,size,digest",
        [
            ([], 88188, "6063ce1ff2d717fd06b806ae68d72f212fa4ed5a4fb5e6fe9c59c88e967bdb3d"),
            (
                ["--json"],
                378536,
                "13bc0a101865afff1a6fe83674f5b9234bcc7b6141c11e74e83c8072682089e0",
            ),
        ],
        ids=["text", "json"],
    )
    def test_spliced_game_output_is_pinned(self, extra, size, digest, capsys):
        # n = 64 asks splices; its output, byte for byte, as tuples printed it
        code, out, _ = run(["solve", "--n", "64", "--seed", "1", *extra], capsys)
        assert code == 0
        assert len(out.encode()) == size
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_output_is_written_event_by_event(self, extra, tmp_path):
        # the whole n = 256 transcript takes 7.5 MB as one text and 57 MB as
        # one JSON document; the game and one event's chunk take under 1 MB
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = cli.main(["solve", "--n", "256", "--seed", "1", "--out", str(out), *extra])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.stat().st_size > 2_000_000
        assert peak < 2_000_000

    def test_board_past_the_query_limit_exits_1(self, capsys):
        # a bound of about 1.9 * 10**6 queries is past the limit; refused
        # before any query
        started = time.perf_counter()
        code, out, err = run(["solve", "--n", "100000", "--seed", "1"], capsys)
        assert time.perf_counter() - started < 1
        assert code == 1 and out == ""
        assert "limit is 524288" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--seed", "1"],
            ["solve", "--secret", "1,2,3,4"],
            ["bench", "--samples", "10", "--seed", "1"],
        ],
        ids=["solve-seed", "solve-secret", "bench"],
    )
    def test_wide_board_past_the_query_limit_draws_no_secret(self, capsys, monkeypatch, argv):
        # 5 * 10**6 opening queries: drawing or checking a secret would build
        # k-element lists first, so the board is refused before either
        def no_secret(*args):
            pytest.fail("a secret was drawn or checked")

        monkeypatch.setattr(cli, "random_injective_code", no_secret)
        monkeypatch.setattr(cli, "StaticCodemaker", no_secret)
        code, out, err = run([*argv, "--n", "4", "--k", "5000000"], capsys)
        assert code == 1 and out == ""
        assert "limit is 524288" in err

    def test_wide_board(self, capsys):
        code, out, _ = run(
            ["solve", "--n", "3", "--k", "5", "--secret", "5,2,4", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 5 and data["bound"] == 8

    def test_wrong_secret_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve", lambda oracle, config: ((1, 2, 3, 4), solve(oracle)[1]))
        code, _, err = run(["solve", "--n", "4", "--secret", "2,1,4,3"], capsys)
        assert code == 2
        assert "verification failed: ('wrong_secret'" in err

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_closed_stdout_ends_the_output_not_the_command(self, extra):
        # `solve ... | head -1`: the reader leaves after one line, while the
        # 2.4 MB transcript is still being written
        argv = [sys.executable, "-m", "permmind.cli", "solve", "--n", "256", "--seed", "1", *extra]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env()
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert first.startswith(b"{" if extra else b"   1  1 2 3")
        assert err == b""

    def test_closed_stdout_still_audits_the_game(self, capsys, monkeypatch, tmp_path):
        class GoneReader(io.StringIO):
            """A stdout whose reader went away."""

            def __init__(self, fd):
                super().__init__()
                self.fd = fd

            def writelines(self, lines):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", GoneReader(fh.fileno()))
            monkeypatch.setattr(
                cli, "solve", lambda oracle, config: ((1, 2, 3, 4), solve(oracle)[1])
            )
            code = cli.main(["solve", "--n", "4", "--secret", "2,1,4,3"])
        assert code == 2
        assert "verification failed: ('wrong_secret'" in capsys.readouterr().err

    def test_solver_invariant_exits_2(self, capsys, monkeypatch):
        def broken(oracle, config):
            raise SolverInvariantError("find_next asked 8 queries, budget 4")

        monkeypatch.setattr(cli, "solve", broken)
        code, _, err = run(["solve", "--n", "4", "--seed", "1"], capsys)
        assert code == 2
        assert "permmind: verification failed: find_next asked" in err


class TestExhaustiveCommand:
    def test_square_board(self, capsys):
        code, out, _ = run(["exhaustive", "--n", "4"], capsys)
        assert code == 0
        assert "24 secrets" in out
        assert "max 10 queries" in out
        assert "  degenerate opening swaps: 8\n" in out

    def test_tiny_board_summary(self, capsys):
        code, out, _ = run(["exhaustive", "--n", "3"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "n=3 k=3: 6 secrets, max 5 queries, bound 6, ok"

    def test_failures_exit_2_on_stderr(self, capsys, monkeypatch):
        def wrong(oracle, config):
            return (1, 2, 3), solve(oracle, config)[1]

        monkeypatch.setattr(
            cli,
            "exhaustive_verify",
            lambda config, max_states=None: exhaustive_verify(config, wrong, max_states),
        )
        code, out, err = run(["exhaustive", "--n", "3"], capsys)
        assert code == 2
        assert "5 FAILURES" in out
        lines = err.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("  FAILURE: ('wrong_secret', ") for line in lines)

    def test_many_failures_print_ten_and_a_tally(self, capsys, monkeypatch):
        # secrets starting with 1 get a wrong code, the rest a tampered
        # transcript: 6 and 18 failures on (4,4), of which ten are printed
        def broken(oracle, config):
            secret, transcript = solve(oracle, config)
            if secret[0] == 1:
                return secret[::-1], transcript
            transcript.record(secret, 0)
            return secret, transcript

        monkeypatch.setattr(
            cli,
            "exhaustive_verify",
            lambda config, max_states=None: exhaustive_verify(config, broken, max_states),
        )
        code, out, err = run(["exhaustive", "--n", "4"], capsys)
        assert code == 2
        assert "24 FAILURES" in out
        lines = err.splitlines()
        assert len(lines) == 11
        assert all(line.startswith("  FAILURE: ('") for line in lines[:10])
        assert lines[10] == (
            "  FAILURE: 24 failures in all, first 10 shown: wrong_secret 6, bad_transcript 18"
        )

    def test_capacity_guard(self, capsys):
        code, _, err = run(["exhaustive", "--n", "4", "--max-states", "3"], capsys)
        assert code == 1
        assert "--max-states" in err


class TestAdversaryCommand:
    def test_square_board(self, capsys):
        code, out, _ = run(["adversary", "--n", "4", "--trace"], capsys)
        assert code == 0
        assert "held out for 9 queries" in out
        assert "query 1: answered 0" in out

    def test_wide_board(self, capsys):
        code, out, _ = run(["adversary", "--n", "2", "--k", "3"], capsys)
        assert code == 0
        assert "floor 3" in out

    def test_alarm_exit_code(self, capsys, monkeypatch):
        def boom(config, max_states=None):
            raise LemmaViolationError("floor broken")

        monkeypatch.setattr(cli, "verify_lower_bound_play", boom)
        code, _, err = run(["adversary", "--n", "3"], capsys)
        assert code == 3
        assert "ALARM" in err

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["--n", "8"], "bfbf377750b24a14b88702873115e05f240014bf0c3a30bdf6b3f96a9eef1326"),
            (
                ["--n", "6", "--k", "12", "--trace"],
                "e68b06c2ad0964d0a4509177f3e594697e4eae9215b4f94339a12bb203f708b3",
            ),
            (
                ["--n", "10", "--max-states", "3628800", "--trace"],
                "7ede838423c9bc53a6c1b6172c5453f44a510e6b33c92d728e53a4a40f6d3e04",
            ),
            (
                ["--n", "2", "--k", "300", "--trace"],
                "8a760c0c5fe80ee4c5f3de587f8e3587f87ee9d89e50219186dc3022439afa09",
            ),
            (
                ["--n", "7", "--k", "14", "--max-states", "17297280", "--trace"],
                "eacc960435f0664c863e37c5dcaf579f77cc21ea41236faf580fc1990d097e93",
            ),
        ],
        ids=["8x8", "6x12-trace", "10x10-trace", "2x300-trace", "7x14-trace"],
    )
    def test_output_is_pinned(self, argv, digest, capsys):
        code, out, _ = run(["adversary", *argv], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_failed_audit_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "verify_lower_bound_play",
            partial(bruteforce.verify_lower_bound_play, solver=overspend_on_2x2),
        )
        code, _, err = run(["adversary", "--n", "2"], capsys)
        assert code == 2
        assert err.startswith("permmind: verification failed: adversary game failed its audit")
        assert "over_budget" in err

    def test_inconsistent_exit_code(self, capsys, monkeypatch):
        def lie(config, max_states=None):
            raise InconsistentOracleError("adversary feasible set emptied")

        monkeypatch.setattr(cli, "verify_lower_bound_play", lie)
        code, _, err = run(["adversary", "--n", "3"], capsys)
        assert code == 2
        assert err == "permmind: inconsistent: adversary feasible set emptied\n"


HUGE_COUNT = "more than 1000000000000000000000000000000 codes"


class TestCapacityMessages:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["exhaustive", "--n", "2000"],
                f"exhaustive verification would enumerate {HUGE_COUNT}, limit is 1000000 "
                "(raise it with --max-states)",
            ),
            (
                ["adversary", "--n", "2000"],
                f"adversary play would enumerate {HUGE_COUNT}, limit is 1000000 "
                "(raise it with --max-states)",
            ),
            (
                ["minimax", "--n", "2000"],
                f"game-tree search over {HUGE_COUNT} is out of reach (limit 120)",
            ),
            (
                ["exhaustive", "--n", "3", "--max-states", "5"],
                "exhaustive verification would enumerate 6 codes, limit is 5 "
                "(raise it with --max-states)",
            ),
            (
                ["adversary", "--n", "30", "--max-states", str(10**31)],
                f"adversary play would enumerate {HUGE_COUNT}, limit is {10**31} "
                "(raise it with --max-states)",
            ),
        ],
        ids=["exhaustive-2000", "adversary-2000", "minimax-2000", "exact", "past-the-cap"],
    )
    def test_message(self, argv, message, capsys):
        # a count of thousands of digits is never written out, nor computed
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"permmind: error: {message}\n"

    @pytest.mark.parametrize("command", ["exhaustive", "adversary", "minimax"])
    def test_ten_million_holes_refused_at_once(self, command, capsys):
        started = time.perf_counter()
        code, _, err = run([command, "--n", "10000000"], capsys)
        assert code == 1
        assert HUGE_COUNT in err
        assert time.perf_counter() - started < 5


class TestBenchCommand:
    def test_csv_shape_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bench", "--n", "6", "--samples", "5", "--seed", "3", "--out"]
        assert cli.main(argv + [str(a)]) == 0
        assert cli.main(argv + [str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        header, row = a.read_text().splitlines()
        assert header == "n,k,samples,seed,max_queries,mean_queries,bound,bound_ok"
        fields = row.split(",")
        assert fields[:4] == ["6", "6", "5", "3"]
        assert fields[7] == "true"

    def test_readme_row(self, capsys):
        code, out, _ = run(["bench", "--n", "8", "--samples", "20", "--seed", "3"], capsys)
        assert code == 0
        assert out == (
            "n,k,samples,seed,max_queries,mean_queries,bound,bound_ok\n"
            "8,8,20,3,31,577/20,34,true\n"
        )

    @pytest.mark.parametrize(
        "k,row",
        [(256, "256,256,3,1,2363,2362,2663,true"), (320, "256,320,3,1,2352,2352,2353,true")],
    )
    def test_large_board_rows(self, k, row, capsys):
        # pins exact play above n = 8, through find_next and find_next_many_colors
        argv = ["bench", "--n", "256", "--k", str(k), "--samples", "3", "--seed", "1"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.splitlines()[1] == row

    def test_spliced_games_row(self, capsys):
        code, out, _ = run(["bench", "--n", "64", "--samples", "3", "--seed", "1"], capsys)
        assert code == 0
        assert out == (
            "n,k,samples,seed,max_queries,mean_queries,bound,bound_ok\n"
            "64,64,3,1,458,452,525,true\n"
        )

    def test_unwritable_out_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve", no_game)
        target = tmp_path / "missing" / "x"
        argv = ["bench", "--n", "4", "--samples", "2", "--seed", "1", "--out", str(target)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("permmind: error: ") and str(target) in err

    def test_rejects_zero_samples(self, capsys):
        code, _, err = run(["bench", "--n", "4", "--samples", "0", "--seed", "1"], capsys)
        assert code == 1

    def test_wrong_secret_exits_2(self, capsys, monkeypatch):
        # every game is audited: a wrong code must not pass as bound_ok
        monkeypatch.setattr(cli, "solve", lambda oracle, config: ((1, 2, 3, 4), solve(oracle)[1]))
        code, out, err = run(["bench", "--n", "4", "--samples", "3", "--seed", "1"], capsys)
        assert code == 2
        assert "verification failed" in err and "wrong_secret" in err

    def test_many_failures_print_ten_and_a_tally(self, capsys, monkeypatch):
        # ten failures, then one line counting all of them by kind
        monkeypatch.setattr(cli, "solve", lambda oracle, config: ((1, 2, 3), solve(oracle)[1]))
        code, _, err = run(["bench", "--n", "3", "--samples", "200", "--seed", "1"], capsys)
        rng = random.Random(1)
        config = GameConfig(3, 3)
        wrong = sum(random_injective_code(config, rng) != (1, 2, 3) for _ in range(200))
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 11
        assert all(line.startswith("verification failed: ('wrong_secret', ") for line in lines[:10])
        assert lines[10] == (
            f"verification failed: {wrong} failures in all, first 10 shown: wrong_secret {wrong}"
        )

    def test_memory_does_not_grow_with_samples(self, capsys):
        # each secret is drawn as it is played and only counts are kept, so
        # ten times the games peak no higher (holding every secret and every
        # count in lists peaked about 350 KB higher at 5,000 games)
        def peak(samples):
            argv = ["bench", "--n", "3", "--samples", str(samples), "--seed", "1"]
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                code = cli.main(argv)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert code == 0
            return top - before

        peak(500)  # warm-up: caches and lazy imports land outside the comparison
        assert peak(5000) <= peak(500) + 64 * 1024


class TestInteractiveCommand:
    def test_honest_answers_find_the_code(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(answers_for((3, 1, 4, 2), GameConfig(4, 4))))
        code, out, _ = run(["interactive", "--n", "4"], capsys)
        assert code == 0
        assert "Your code is 3 1 4 2" in out

    def test_wide_board(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(answers_for((4, 1), GameConfig(2, 4))))
        code, out, _ = run(["interactive", "--n", "2", "--k", "4"], capsys)
        assert code == 0
        assert "Your code is 4 1" in out

    def test_contradictory_answers(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n2\n"))
        code, out, _ = run(["interactive", "--n", "3"], capsys)
        assert code == 2
        assert "contradict" in out

    def test_solver_bug_is_not_blamed_on_the_answers(self, capsys, monkeypatch):
        def broken(oracle, config):
            raise SolverInvariantError("endgame entered with 3 open positions")

        monkeypatch.setattr(cli, "solve", broken)
        code, out, err = run(["interactive", "--n", "4"], capsys)
        assert code == 2
        assert "contradict" not in out
        assert "permmind: verification failed: endgame entered" in err

    def test_junk_lines_are_reprompted(self, capsys, monkeypatch):
        answers = answers_for((2, 1, 4, 3), GameConfig(4, 4))
        monkeypatch.setattr("sys.stdin", io.StringIO("huh\n" + answers))
        code, out, _ = run(["interactive", "--n", "4"], capsys)
        assert code == 0
        assert "need a number" in out

    def test_out_of_range_answers_are_reprompted(self, capsys, monkeypatch):
        answers = answers_for((2, 1, 4, 3), GameConfig(4, 4))
        monkeypatch.setattr("sys.stdin", io.StringIO("9\n-1\n" + answers))
        code, out, _ = run(["interactive", "--n", "4"], capsys)
        assert code == 0
        assert "need a number 0..4, got '9'" in out
        assert "Your code is 2 1 4 3" in out

    def test_eof_mid_game(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
        code, _, err = run(["interactive", "--n", "4"], capsys)
        assert code == 1
        assert "input ended" in err

    def test_board_past_the_query_limit_prompts_nothing(self, capsys, monkeypatch):
        def no_input(prompt=""):
            pytest.fail("the human was asked for an answer")

        monkeypatch.setattr("builtins.input", no_input)
        code, out, err = run(["interactive", "--n", "40000"], capsys)
        assert code == 1 and out == ""
        assert "limit is 524288" in err


class TestMinimaxCommand:
    def test_small_board(self, capsys):
        code, out, _ = run(["minimax", "--n", "3"], capsys)
        assert code == 0
        assert "optimal worst case is 4 queries" in out

    def test_capacity_refusal(self, capsys):
        code, _, err = run(["minimax", "--n", "3", "--k", "5"], capsys)
        assert code == 1
        assert "allow_large" in err
        assert "--allow-large" in err

    def test_huge_board_refused_before_enumerating(self, capsys):
        code, _, err = run(["minimax", "--n", "12", "--k", "12"], capsys)
        assert code == 1
        assert "479001600 codes is out of reach" in err

    def test_allow_large(self, capsys):
        code, out, _ = run(["minimax", "--n", "3", "--k", "5", "--allow-large"], capsys)
        assert code == 0


README = Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def _readme_block(lines, start):
    """The lines of the fenced block that opens at or after lines[start]."""
    first = next(i for i in range(start, len(lines)) if lines[i].startswith("```")) + 1
    last = lines.index("```", first)
    return lines[first:last]


def _readme_commands():
    """{argv: expected lines} for each `$ permmind ...` example of README's
    command line section, without its "..." and elapsed lines."""
    examples = {}
    expected = None
    for line in README.read_text().splitlines():
        if line.startswith("$ permmind "):
            expected = examples.setdefault(tuple(line.split()[2:]), [])
        elif not line.strip() or line.startswith("```"):
            expected = None
        elif expected is not None and line.strip() != "..." and "elapsed" not in line:
            expected.append(line)
    return examples


def _in_order(expected, lines):
    """Whether `expected` appears among `lines` as a subsequence."""
    remaining = iter(lines)
    return all(line in remaining for line in expected)


class TestReadmeExamples:
    def test_quick_start_prints_its_comments(self, capsys):
        lines = README.read_text().splitlines()
        code = _readme_block(lines, lines.index("## Quick start (Python)"))
        comments = [line.split("  # ")[1] for line in code if "print(" in line and "  # " in line]
        assert comments == ["(2, 1, 4, 3) 9 11", "5"]
        exec("\n".join(code), {})
        assert _in_order(comments, capsys.readouterr().out.splitlines())

    def test_command_examples_print_their_lines(self, capsys):
        examples = _readme_commands()
        assert set(examples) == {
            ("solve", "--n", "4", "--secret", "2,1,4,3"),
            ("exhaustive", "--n", "4"),
            ("adversary", "--n", "4"),
            ("minimax", "--n", "4"),
        }
        for argv, expected in examples.items():
            code, out, _ = run(list(argv), capsys)
            assert code == 0, argv
            assert expected, argv
            assert _in_order(expected, out.splitlines()), argv


def test_module_run_prints_readme_bench_and_exits_with_main_code():
    # `python -m permmind.cli` goes through the `__main__` guard and
    # `console_main`, as the installed `permmind` script does
    def module_run(*args):
        argv = [sys.executable, "-m", "permmind.cli", *args]
        return subprocess.run(argv, env=module_env(), capture_output=True, text=True, timeout=120)

    lines = README.read_text().splitlines()
    expected = _readme_block(lines, lines.index("### Bench CSV"))
    bench = module_run("bench", "--n", "8", "--samples", "20", "--seed", "3")
    assert bench.returncode == 0
    assert len(expected) == 2 and bench.stdout.splitlines() == expected
    assert module_run("solve", "--n", "1", "--seed", "1").returncode == 1


def test_workflow_digests_are_pinned_here_too():
    # the oldest-python CI job repeats output digests this file pins; a
    # digest changed on one side only fails here, not first on a runner
    digests = re.findall(r"\b[0-9a-f]{64}\b", WORKFLOW.read_text())
    pinned = Path(__file__).read_text()
    assert digests
    assert [d for d in digests if d not in pinned] == []


class TestParser:
    def test_unknown_command(self, capsys):
        assert run(["nonsense"], capsys)[0] == 1

    def test_no_command(self, capsys):
        assert run([], capsys)[0] == 1

    def test_missing_required(self, capsys):
        assert run(["solve"], capsys)[0] == 1

    def test_version(self, capsys):
        code, out, _ = run(["--version"], capsys)
        assert code == 0
        assert "permmind" in out

    def test_bad_board_shape(self, capsys):
        code, _, err = run(["solve", "--n", "1", "--secret", "1"], capsys)
        assert code == 1

    def test_help_exits_clean(self, capsys):
        assert run(["--help"], capsys)[0] == 0
        assert run(["solve", "--help"], capsys)[0] == 0
