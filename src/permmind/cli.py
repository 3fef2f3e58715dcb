"""Command line front end.

Subcommands:
  solve        play against a given or randomly drawn secret
  exhaustive   replay every secret of a board and audit each game
  adversary    play against the worst-case codemaker and audit its floors
  bench        time seeded sample games and emit one CSV row
  interactive  you answer the black counts, it finds your code
  minimax      exact optimal worst case via game-tree search (tiny boards)

Exit codes: 0 success, 1 usage or capacity error, 2 verification failure or
contradictory answers, 3 adversary floor violation (a should-be-impossible
outcome worth a bug report).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from collections import Counter
from fractions import Fraction

from . import __version__
from .bruteforce import audit_game, exhaustive_verify, minimax_value, replay
from .codemaker import (
    LemmaViolationError,
    StaticCodemaker,
    injective_code_count,
    random_injective_code,
    verify_lower_bound_play,
)
from .core import (
    CapacityError,
    GameConfig,
    InconsistentOracleError,
    InvalidCodeError,
    Transcript,
)
from .solver import CodemakerOracle, SolverInvariantError, check_board, query_bound, solve


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this tool reserves 2 for
    verification failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_code(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a code (want e.g. 2,1,4,3)")


def _add_board(parser):
    parser.add_argument("--n", type=int, required=True, help="number of holes")
    parser.add_argument(
        "--k", type=int, default=None, help="number of colors (default: same as --n)"
    )


def _board(args) -> GameConfig:
    k = args.k if args.k is not None else args.n
    return GameConfig(args.n, k)


# One event of render_transcript_json, as json.dumps(..., indent=2,
# sort_keys=True) lays it out four spaces deep, filled in at C speed.
_EVENT_JSON = (
    '{\n      "black": %d,\n      "derived": %s,\n      "guess": [\n        %s\n      ]\n    }'
)


def render_transcript_json(transcript: Transcript, secret=None):
    """The transcript as one JSON document, yielded one event at a time.  The
    header is dumped once; each event is written through a fixed template,
    the same bytes the indenting encoder would give it."""
    header = {
        "n": transcript.config.n,
        "k": transcript.config.k,
        "events": [],
        "queries": transcript.query_count,
        "bound": query_bound(transcript.config),
    }
    if secret is not None:
        header["secret"] = list(secret)
    head, tail = json.dumps(header, indent=2, sort_keys=True).split('"events": []')
    yield head + '"events": ['
    for idx, ev in enumerate(transcript.events):
        guess = ",\n        ".join(map(str, ev.guess))
        text = _EVENT_JSON % (ev.black, "true" if ev.derived else "false", guess)
        yield (",\n    " if idx else "\n    ") + text
    yield ("\n  ]" if transcript.events else "]") + tail + "\n"


def render_transcript_text(transcript: Transcript, secret):
    """The transcript as text, yielded one line per event, then the footer."""
    for idx, ev in enumerate(transcript.events, start=1):
        mark = "*" if ev.derived else " "
        code = " ".join(map(str, ev.guess))
        yield f"{idx:>4}{mark} {code}  -> {ev.black}\n"
    yield (
        f"secret {' '.join(map(str, secret))} found in "
        f"{transcript.query_count} queries "
        f"(bound {query_bound(transcript.config)}; * = derived, free)\n"
    )


def _write(chunks, path: str | None, mode: str = "w") -> None:
    """Write an iterable of strings to stdout or to --out, as they come.
    Commands write no chunks in "a" mode before they play, so an unwritable
    path fails before any game and an existing file is not truncated early.

    A reader that goes away, as `| head` does, ends the output but not the
    command: stdout is pointed at devnull, so nothing written later, nor the
    flush at exit, raises, and the caller still audits its game."""
    if path is None or path == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        try:
            with open(path, mode, encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            # a usage error like any other: main reports it and exits 1
            raise ValueError(f"cannot write --out {path}: {exc.strerror}") from None


def cmd_solve(args) -> int:
    config = _board(args)
    check_board(config)  # before any secret is drawn or checked
    if args.secret is not None:
        secret = args.secret
    else:
        secret = random_injective_code(config, random.Random(args.seed))
    oracle = StaticCodemaker(secret, config)
    _write((), args.out, "a")
    recovered, transcript = solve(oracle, config)
    out = (
        render_transcript_json(transcript, secret)
        if args.json
        else render_transcript_text(transcript, secret)
    )
    _write(out, args.out)
    failures = audit_game(secret, recovered, transcript, transcript.query_count)
    for failure in failures:
        print(f"verification failed: {failure}", file=sys.stderr)
    return 2 if failures else 0


SHOWN_FAILURES = 10


def _print_failures(failures, prefix: str) -> None:
    """The first SHOWN_FAILURES failures on stderr, each after `prefix`; if
    any are left out, one more line with the total and a count per kind."""
    for failure in failures[:SHOWN_FAILURES]:
        print(f"{prefix}{failure}", file=sys.stderr)
    if len(failures) > SHOWN_FAILURES:
        kinds = Counter(failure[0] for failure in failures)
        counts = ", ".join(f"{kind} {count}" for kind, count in kinds.items())
        print(
            f"{prefix}{len(failures)} failures in all, first {SHOWN_FAILURES} shown: {counts}",
            file=sys.stderr,
        )


def cmd_exhaustive(args) -> int:
    config = _board(args)
    started = time.perf_counter()
    report = exhaustive_verify(config, max_states=args.max_states)
    elapsed = time.perf_counter() - started
    print(report.summary())
    for queries in sorted(report.query_histogram):
        print(f"  {queries} queries: {report.query_histogram[queries]} secrets")
    if report.terminal_swaps:
        print(f"  degenerate opening swaps: {report.terminal_swaps}")
    print(f"  elapsed: {elapsed:.2f}s")
    if not report.ok:
        _print_failures(report.failures, "  FAILURE: ")
        return 2
    return 0


def cmd_adversary(args) -> int:
    config = _board(args)
    queries, trace = verify_lower_bound_play(config, max_states=args.max_states)
    floor = config.n if config.k == config.n else config.k
    print(
        f"n={config.n} k={config.k}: adversary held out for {queries} queries "
        f"(floor {floor}, bound {query_bound(config)})"
    )
    if args.trace:
        for m, answer in trace:
            print(f"  query {m}: answered {answer}")
    return 0


def cmd_bench(args) -> int:
    config = _board(args)
    check_board(config)  # before any secret is drawn
    if args.samples < 1:
        print("permmind: error: --samples must be at least 1", file=sys.stderr)
        return 1
    _write((), args.out, "a")
    rng = random.Random(args.seed)
    secrets = (random_injective_code(config, rng) for _ in range(args.samples))
    report = replay(config, secrets, solve)
    mean = Fraction(sum(q * c for q, c in report.query_histogram.items()), report.total)
    rows = [
        ["n", "k", "samples", "seed", "max_queries", "mean_queries", "bound", "bound_ok"],
        [
            config.n,
            config.k,
            args.samples,
            args.seed,
            report.max_queries,
            str(mean),
            report.bound,
            "true" if report.max_queries <= report.bound else "false",
        ],
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    _write([buffer.getvalue()], args.out)
    _print_failures(report.failures, "verification failed: ")
    return 0 if report.ok else 2


class HumanCodemaker(CodemakerOracle):
    """Oracle that prints each guess and reads the black count from stdin."""

    def _respond(self, guess: tuple) -> int:
        code = " ".join(str(c) for c in guess)
        while True:
            line = input(f"guess: {code}   black count? ").strip()
            try:
                count = int(line)
            except ValueError:
                count = -1
            if 0 <= count <= self.config.n:
                return count
            print(f"  (need a number 0..{self.config.n}, got {line!r})")


def cmd_interactive(args) -> int:
    config = _board(args)
    print(
        f"Think of a code: {config.n} distinct colors out of 1..{config.k}, "
        "order matters.  Answer each guess with how many pegs sit exactly right."
    )
    oracle = HumanCodemaker(config)
    try:
        secret, transcript = solve(oracle, config)
    except InconsistentOracleError:
        print("Those answers contradict each other; no code fits them.")
        return 2
    except EOFError:
        print("permmind: input ended mid-game", file=sys.stderr)
        return 1
    print(
        f"Your code is {' '.join(str(c) for c in secret)} "
        f"({transcript.query_count} queries)."
    )
    return 0


def cmd_minimax(args) -> int:
    config = _board(args)
    value = minimax_value(config, allow_large=args.allow_large)
    print(
        f"n={config.n} k={config.k}: optimal worst case is {value} queries "
        f"over {injective_code_count(config)} codes"
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="permmind", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="play against a fixed or random secret")
    _add_board(p)
    who = p.add_mutually_exclusive_group(required=True)
    who.add_argument("--secret", type=_parse_code, help="the secret code, e.g. 2,1,4,3")
    who.add_argument("--seed", type=int, help="draw the secret from this seed")
    p.add_argument("--json", action="store_true", help="emit the transcript as JSON")
    p.add_argument("--out", help="write output here instead of stdout")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exhaustive", help="verify every secret of a board")
    _add_board(p)
    p.add_argument("--max-states", type=int, help="override the enumeration capacity guard")
    p.set_defaults(func=cmd_exhaustive)

    p = sub.add_parser("adversary", help="play the worst-case codemaker")
    _add_board(p)
    p.add_argument("--max-states", type=int, help="override the enumeration capacity guard")
    p.add_argument("--trace", action="store_true", help="print every adversary answer")
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("bench", help="seeded sample games, one CSV row")
    _add_board(p)
    p.add_argument("--samples", type=int, required=True, help="number of games")
    p.add_argument("--seed", type=int, required=True, help="seed for the secrets")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("interactive", help="think of a code, answer the counts")
    _add_board(p)
    p.set_defaults(func=cmd_interactive)

    p = sub.add_parser("minimax", help="exact optimal worst case (tiny boards)")
    _add_board(p)
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="search boards past the soft capacity limit",
    )
    p.set_defaults(func=cmd_minimax)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (InvalidCodeError, CapacityError, ValueError) as exc:
        print(f"permmind: error: {exc}", file=sys.stderr)
        return 1
    except InconsistentOracleError as exc:
        print(f"permmind: inconsistent: {exc}", file=sys.stderr)
        return 2
    except SolverInvariantError as exc:
        print(f"permmind: verification failed: {exc}", file=sys.stderr)
        return 2
    except LemmaViolationError as exc:
        print(f"permmind: ALARM: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
