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
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .bruteforce import check_transcript, exhaustive_verify, minimax_value, minimax_value_naive
from .codemaker import (
    AdversaryCodemaker,
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
from .solver import CodemakerOracle, SolverInvariantError, bound_enforced, query_bound, solve


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


def _add_board(parser, require_k: bool = False):
    parser.add_argument("--n", type=int, required=True, help="number of holes")
    parser.add_argument(
        "--k",
        type=int,
        default=None,
        required=require_k,
        help="number of colors (default: same as --n)",
    )


def _board(args) -> GameConfig:
    k = args.k if args.k is not None else args.n
    return GameConfig(args.n, k)


def transcript_to_dict(transcript: Transcript, secret=None) -> dict:
    d = {
        "n": transcript.config.n,
        "k": transcript.config.k,
        "events": [
            {"guess": list(ev.guess), "black": ev.black, "derived": ev.derived}
            for ev in transcript.events
        ],
        "queries": transcript.query_count,
        "bound": query_bound(transcript.config),
    }
    if secret is not None:
        d["secret"] = list(secret)
    return d


def render_transcript_json(transcript: Transcript, secret=None) -> str:
    return json.dumps(transcript_to_dict(transcript, secret), indent=2, sort_keys=True) + "\n"


def render_transcript_text(transcript: Transcript, secret) -> str:
    lines = []
    for idx, ev in enumerate(transcript.events, start=1):
        mark = "*" if ev.derived else " "
        code = " ".join(str(c) for c in ev.guess)
        lines.append(f"{idx:>4}{mark} {code}  -> {ev.black}")
    enforcement = "" if bound_enforced(transcript.config) else ", not enforced here"
    lines.append(
        f"secret {' '.join(str(c) for c in secret)} found in "
        f"{transcript.query_count} queries "
        f"(bound {query_bound(transcript.config)}{enforcement}; * = derived, free)"
    )
    return "\n".join(lines) + "\n"


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_solve(args) -> int:
    config = _board(args)
    if args.secret is not None:
        secret = args.secret
    else:
        secret = random_injective_code(config, random.Random(args.seed))
    oracle = StaticCodemaker(secret, config)
    recovered, transcript = solve(oracle, config)
    out = (
        render_transcript_json(transcript, secret)
        if args.json
        else render_transcript_text(transcript, secret)
    )
    _write(out, args.out)
    if recovered != secret:
        print(f"verification failed: recovered {recovered}, secret was {secret}", file=sys.stderr)
        return 2
    bad = check_transcript(transcript, secret)
    if bad is not None:
        print(f"verification failed: transcript event {bad} is inconsistent", file=sys.stderr)
        return 2
    if bound_enforced(config) and transcript.query_count > query_bound(config):
        print(
            f"verification failed: {transcript.query_count} queries exceed "
            f"the bound {query_bound(config)}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_exhaustive(args) -> int:
    config = _board(args)
    started = time.perf_counter()
    report = exhaustive_verify(config, max_states=args.max_states)
    elapsed = time.perf_counter() - started
    print(report.summary())
    for queries in sorted(report.query_histogram):
        print(f"  {queries} queries: {report.query_histogram[queries]} secrets")
    if report.terminal_swaps:
        print(
            f"  degenerate opening swaps: {report.terminal_swaps} "
            f"(first peg correct in {report.terminal_swap_first_matches})"
        )
    print(f"  elapsed: {elapsed:.2f}s")
    if not report.ok:
        for failure in report.failures[:10]:
            print(f"  FAILURE: {failure}", file=sys.stderr)
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
    if args.samples < 1:
        print("permmind: error: --samples must be at least 1", file=sys.stderr)
        return 1
    rng = random.Random(args.seed)
    secrets = [random_injective_code(config, rng) for _ in range(args.samples)]
    counts = []
    for secret in secrets:
        _, transcript = solve(StaticCodemaker(secret, config), config)
        counts.append(transcript.query_count)
    bound = query_bound(config)
    max_queries = max(counts)
    mean = Fraction(sum(counts), len(counts))
    rows = [
        ["n", "k", "samples", "seed", "max_queries", "mean_queries", "bound", "bound_ok"],
        [
            config.n,
            config.k,
            args.samples,
            args.seed,
            max_queries,
            str(mean),
            bound,
            "true" if max_queries <= bound else "false",
        ],
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    _write(buffer.getvalue(), args.out)
    return 0


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
    except (InconsistentOracleError, SolverInvariantError):
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
    value = (
        minimax_value_naive(config)
        if args.naive
        else minimax_value(config, allow_large=args.allow_large)
    )
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
    p.add_argument("--naive", action="store_true", help="use the unoptimized reference search")
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
    except LemmaViolationError as exc:
        print(f"permmind: ALARM: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
