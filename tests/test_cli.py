"""Command line behavior: subcommands, formats, exit codes."""

import io
import json
import random
from fractions import Fraction

import pytest

from permmind import (
    GameConfig,
    LemmaViolationError,
    StaticCodemaker,
    random_injective_code,
    solve,
)
from permmind import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def answers_for(secret, config=None):
    oracle = StaticCodemaker(secret, config)
    _, transcript = solve(oracle, oracle.config)
    return "\n".join(str(ev.black) for ev in transcript.events if not ev.derived) + "\n"


class TestSolveCommand:
    def test_text_output(self, capsys):
        code, out, err = run(["solve", "--n", "4", "--secret", "2,1,4,3"], capsys)
        assert code == 0
        assert "secret 2 1 4 3 found in" in out
        assert "*" in out  # the derived family count is marked

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

    def test_wide_board(self, capsys):
        code, out, _ = run(
            ["solve", "--n", "3", "--k", "5", "--secret", "5,2,4", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 5 and data["bound"] == 8


class TestExhaustiveCommand:
    def test_square_board(self, capsys):
        code, out, _ = run(["exhaustive", "--n", "4"], capsys)
        assert code == 0
        assert "24 secrets" in out
        assert "max 10 queries" in out
        assert "degenerate opening swaps: 8 (first peg correct in 0)" in out

    def test_capacity_guard(self, capsys):
        code, _, err = run(["exhaustive", "--n", "4", "--max-states", "3"], capsys)
        assert code == 1
        assert "PERMMIND_MAX_STATES" in err


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

    def test_mean_is_exact(self, capsys):
        code, out, _ = run(["bench", "--n", "5", "--samples", "4", "--seed", "9"], capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        config = GameConfig(5, 5)
        rng = random.Random(9)
        counts = []
        for _ in range(4):
            secret = random_injective_code(config, rng)
            _, transcript = solve(StaticCodemaker(secret, config), config)
            counts.append(transcript.query_count)
        assert Fraction(row[5]) == Fraction(sum(counts), len(counts))
        assert int(row[4]) == max(counts)

    def test_rejects_zero_samples(self, capsys):
        code, _, err = run(["bench", "--n", "4", "--samples", "0", "--seed", "1"], capsys)
        assert code == 1


class TestInteractiveCommand:
    def test_honest_answers_find_the_code(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(answers_for((3, 1, 4, 2))))
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

    def test_junk_lines_are_reprompted(self, capsys, monkeypatch):
        answers = answers_for((2, 1, 4, 3))
        monkeypatch.setattr("sys.stdin", io.StringIO("huh\n" + answers))
        code, out, _ = run(["interactive", "--n", "4"], capsys)
        assert code == 0
        assert "need a number" in out

    def test_out_of_range_answers_are_reprompted(self, capsys, monkeypatch):
        answers = answers_for((2, 1, 4, 3))
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


class TestMinimaxCommand:
    def test_small_board(self, capsys):
        code, out, _ = run(["minimax", "--n", "3"], capsys)
        assert code == 0
        assert "optimal worst case is 4 queries" in out

    def test_naive_flag(self, capsys):
        code, out, _ = run(["minimax", "--n", "2", "--naive"], capsys)
        assert code == 0
        assert "is 2 queries" in out

    def test_capacity_refusal(self, capsys):
        code, _, err = run(["minimax", "--n", "3", "--k", "5"], capsys)
        assert code == 1
        assert "allow_large" in err

    @pytest.mark.parametrize(
        "flags,message", [([], "479001600 codes is out of reach"), (["--naive"], "tiny boards only")]
    )
    def test_huge_board_refused_before_enumerating(self, capsys, flags, message):
        code, _, err = run(["minimax", "--n", "12", "--k", "12", *flags], capsys)
        assert code == 1
        assert message in err

    def test_allow_large(self, capsys):
        code, out, _ = run(["minimax", "--n", "3", "--k", "5", "--allow-large"], capsys)
        assert code == 0


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
