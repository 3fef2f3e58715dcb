"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark's seed through its own
`random.Random`, never through permmind's helpers, so a library change cannot
move the inputs.  One pass runs the workload's fixed input set once and checks
every output; a failed check is counted, not raised, so it shows in the
result's `failed` count.  A pass also returns a behaviour fingerprint: exact
query counts that must repeat on every pass and, where the inputs do not
depend on the seed, must equal the counts recorded here.

A pass is timed in segments, a game, a board or a stretch of a replay loop
each, and right after each segment the pass times a fixed reference loop
that calls no permmind code.
`run.py` scales every segment by its reference reading, so that a slow
spell of a shared machine shows in both and cancels.  Game times are kept
apart where a segment holds many games.

The functions take the imported `permmind` package as an argument and call
through its attributes at call time, so the traced run's wrappers are seen.
"""

from __future__ import annotations

from time import perf_counter_ns

from tracing import WORKLOAD_LAYERS

# Pure-Python work shaped like the black-count kernels: tuple scans and
# comparisons.
_REFERENCE_CODES = [tuple((i * 7 + j) % 64 for j in range(64)) for i in range(32)]


def reference_ns() -> int:
    """Best of three timings of the reference loop: the machine's speed now."""
    times = []
    for _ in range(3):
        t0 = perf_counter_ns()
        total = 0
        for a in _REFERENCE_CODES:
            for b in _REFERENCE_CODES:
                for x, y in zip(a, b):
                    if x == y:
                        total += 1
        times.append(perf_counter_ns() - t0)
    return min(times)


class Pass:
    """What one pass of a workload produced.

    `cut_replays` lets a replay loop be cut into segments mid-board.  A pass
    that times layers turns it off: the reference loop would then run inside
    a timed span and be charged to it.
    """

    def __init__(self, cut_replays: bool = True):
        self.cut_replays = cut_replays
        self.segments: list[dict] = []  # together they cover the pass's work
        self.attempted = 0
        self.failed = 0
        self.queries = 0  # solver queries asked, derived events excluded
        self.fingerprint: dict[str, dict] = {}

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def end_segment(self, started_ns: int, game_ns: list[int] | None = None) -> None:
        """Close the segment of work begun at `started_ns`, then time the
        reference loop.  Without `game_ns` the segment is a single game."""
        work_ns = perf_counter_ns() - started_ns
        self.segments.append(
            {
                "work_ns": work_ns,
                "reference_ns": reference_ns(),
                "game_ns": [work_ns] if game_ns is None else game_ns,
            }
        )


def _board_key(config) -> str:
    return f"{config.n}x{config.k}"


def _tally(board: dict, transcript, queries: int) -> None:
    board["games"] += 1
    board["queries"] += queries
    board["derived"] += len(transcript.events) - queries
    board["max"] = max(board["max"], queries)


def _new_board() -> dict:
    return {"games": 0, "queries": 0, "derived": 0, "max": 0}


class _SolverGames:
    """A `solver=` callable that times each game and audits what it returns.

    Passed to the product's `exhaustive_verify` and `verify_lower_bound_play`,
    it replaces nothing: it calls `permmind.solve` and hands the result back,
    noting every secret it got wrong or solved over budget in `bad`.  Where
    the pass allows it, it also cuts the product's replay loop into segments
    of SEGMENT_GAMES games, each about 0.1 s, short next to the machine's slow
    spells.
    """

    SEGMENT_GAMES = 1000

    def __init__(self, pm, out: Pass):
        self.pm = pm
        self.out = out
        self.bad = set()
        self.board = _new_board()
        self.game_ns: list[int] = []
        self.started_ns = perf_counter_ns()

    def end_segment(self) -> None:
        self.out.end_segment(self.started_ns, self.game_ns)
        self.game_ns = []
        self.started_ns = perf_counter_ns()

    def __call__(self, oracle, config):
        if self.out.cut_replays and len(self.game_ns) == self.SEGMENT_GAMES:
            self.end_segment()
        t0 = perf_counter_ns()
        recovered, transcript = self.pm.solve(oracle, config)
        self.game_ns.append(perf_counter_ns() - t0)
        queries = transcript.query_count
        secret = getattr(oracle, "secret", recovered)  # the adversary has none
        if secret != recovered or (
            self.pm.bound_enforced(config) and queries > self.pm.query_bound(config)
        ):
            self.bad.add(secret)
        self.out.queries += queries
        _tally(self.board, transcript, queries)
        return recovered, transcript


class SolveLarge:
    """Twenty games on two 256-hole boards, square and wide, alternating.

    Time goes into the per-query path at scale: oracle validation, the black
    counting kernels, solver bookkeeping, transcript recording and the audit.
    The square board runs `find_first`/`find_next`; the wide one runs
    `find_next_many_colors`.  Twenty games put ten samples beyond the median
    game time.  It never touches the board-wide kernels.
    """

    name = "solve_large"
    # 256 holes keeps a game near 0.1 s, large enough that per-query cost
    # dominates and small enough for many passes in a run; 320 colors gives the
    # wide board the same hole count with a quarter more colors.
    boards = ((256, 256), (256, 320))
    games = 20
    reaches = (
        "core.validate_code", "core.black", "core.open_matches", "core.Transcript.record",
        "_kernel.black_count", "_kernel.partial_match_count",
        "solver.CodemakerOracle.answer", "solver.initial_phase", "solver.select_active_index",
        "solver.find_first", "solver.find_next", "solver.find_next_many_colors",
        "solver.apply_found_component", "solver.endgame", "solver.solve",
        "codemaker.StaticCodemaker._respond", "bruteforce.check_transcript",
    )
    # About 7 wrapped calls per query; timing all of them costs about a fifth.
    timed = WORKLOAD_LAYERS

    def make_inputs(self, pm, rng):
        games = []
        for i in range(self.games):
            n, k = self.boards[i % len(self.boards)]
            games.append((pm.GameConfig(n, k), tuple(rng.sample(range(1, k + 1), n))))
        return games

    def run(self, pm, games, out: Pass) -> None:
        for config, secret in games:
            t0 = perf_counter_ns()
            recovered, transcript = pm.solve(pm.StaticCodemaker(secret, config), config)
            audit = pm.check_transcript(transcript, secret)
            out.end_segment(t0)
            queries = transcript.query_count
            out.check(
                recovered == secret
                and audit is None
                and not (pm.bound_enforced(config) and queries > pm.query_bound(config))
            )
            out.queries += queries
            _tally(out.fingerprint.setdefault(_board_key(config), _new_board()), transcript, queries)


class ExhaustiveSmall:
    """`exhaustive_verify` on every secret of (7,7) and (6,8): 25,200 games.

    The games are tiny, so per-game fixed cost dominates: oracle construction,
    the opening, the endgame, `check_transcript` and the replay loop.  This is
    the workload for sharding replay across processes.  It never touches the
    board-wide kernels.
    """

    name = "exhaustive_small"
    # (7,7) is the largest square board that replays in about a second and has
    # uniform openings (every rotation answering 1); (6,8) adds a wide board
    # with four times as many secrets, each cheaper.
    boards = ((7, 7), (6, 8))
    reaches = SolveLarge.reaches + ("solver.find_first_uniform", "bruteforce.exhaustive_verify")
    # 4.5 M calls cross the fine boundaries (validation, counting, recording,
    # answering) in one pass; timing them would triple the run.  They are
    # counted, and their time lands in the solver phase that called them.
    timed = (
        "solver.initial_phase", "solver.find_first", "solver.find_first_uniform",
        "solver.find_next", "solver.find_next_many_colors", "solver.endgame",
        "solver.solve", "bruteforce.check_transcript", "bruteforce.exhaustive_verify",
    )
    expected = {
        "7x7": {"games": 5040, "queries": 117288, "derived": 5055, "max": 28},
        "6x8": {"games": 20160, "queries": 376747, "derived": 20181, "max": 21},
    }

    def make_inputs(self, pm, rng):
        # Every secret of each board is replayed, so the seed selects nothing.
        return [pm.GameConfig(n, k) for n, k in self.boards]

    def run(self, pm, configs, out: Pass) -> None:
        for config in configs:
            total = pm.injective_code_count(config)
            out.attempted += total
            games = _SolverGames(pm, out)
            try:
                report = pm.exhaustive_verify(config, solver=games)
            except (RuntimeError, ValueError):
                # a solver error aborts the board: count all of it as failed
                out.failed += total
                continue
            games.end_segment()
            out.failed += len(games.bad | {failure[1] for failure in report.failures})
            out.fingerprint[_board_key(config)] = games.board


class AdversaryWide:
    """The solver against the adversary on (9,9), (8,9), (7,10) and (6,12).

    Most of the time is `_kernel.min_black_filter` over huge feasible sets,
    and most of the rest is enumerating the codes in
    `AdversaryCodemaker.__init__`; the solver's per-query path costs almost
    nothing.  This is the target for a vectorised code matrix.
    """

    name = "adversary_wide"
    # Four boards of 363k to 665k codes, all under the default capacity limit:
    # one square and three ever wider, so the filter sees both narrow and
    # wide codes over sets of similar size.
    boards = ((9, 9), (8, 9), (7, 10), (6, 12))
    reaches = (
        "core.validate_code", "core.black", "core.open_matches", "core.Transcript.record",
        "_kernel.partial_match_count", "_kernel.min_black_filter",
        "solver.CodemakerOracle.answer", "solver.initial_phase", "solver.find_next",
        "solver.find_next_many_colors", "solver.endgame", "solver.solve",
        "codemaker.AdversaryCodemaker.__init__", "codemaker.AdversaryCodemaker._respond",
    )
    # About a hundred queries in all, so timing every boundary costs nothing.
    timed = WORKLOAD_LAYERS
    expected = {
        "9x9": {"games": 1, "derived": 1, "queries": 37, "max": 37},
        "8x9": {"games": 1, "derived": 1, "queries": 27, "max": 27},
        "7x10": {"games": 1, "derived": 1, "queries": 25, "max": 25},
        "6x12": {"games": 1, "derived": 1, "queries": 23, "max": 23},
    }

    def make_inputs(self, pm, rng):
        # The adversary commits to no secret, so the boards are the whole input.
        return [pm.GameConfig(n, k) for n, k in self.boards]

    def run(self, pm, configs, out: Pass) -> None:
        for config in configs:
            games = _SolverGames(pm, out)
            t0 = perf_counter_ns()
            try:
                queries, _ = pm.verify_lower_bound_play(config, solver=games)
            except (RuntimeError, ValueError):
                # floor violations, a non-singleton ending, capacity refusals
                out.check(False)
                continue
            out.end_segment(t0)
            out.check(not games.bad and games.board["queries"] == queries)
            out.fingerprint[_board_key(config)] = games.board


class MinimaxTiny:
    """Exact `minimax_value` on (3,4), (4,4), (2,6) and (3,5).

    About 120,000 `_kernel.partition_by_black` calls on small sets, plus the
    search's own bookkeeping: the kernel layer used the opposite way to
    `adversary_wide`, many small calls instead of a few huge ones.  Each board
    also replays every secret through `exhaustive_verify`, which brackets the
    optimum: the solver's worst case can never beat it.  The only workload
    for a symmetry-reduced search.
    """

    name = "minimax_tiny"
    # Boards on both sides of the 32-code soft limit, up to (3,5) with 60
    # codes.  (2,7) is left out: its one 4.6 s search would be a single item
    # that best-of-passes cannot steady on a shared machine.
    boards = ((3, 4), (4, 4), (2, 6), (3, 5))
    reaches = (
        "_kernel.partition_by_black", "bruteforce.minimax_value",
        "bruteforce.exhaustive_verify", "bruteforce.check_transcript", "solver.solve",
    )
    # The many small kernel calls are the point of this workload, so they are
    # timed even though the wrappers cost about an eighth of the run.
    timed = WORKLOAD_LAYERS
    # The exact values are 5, 5, 6, 6.
    expected = {
        "3x4": {"value": 5, "replay_queries": 128, "replay_max": 6},
        "4x4": {"value": 5, "replay_queries": 197, "replay_max": 10},
        "2x6": {"value": 6, "replay_queries": 174, "replay_max": 7},
        "3x5": {"value": 6, "replay_queries": 389, "replay_max": 8},
    }

    def make_inputs(self, pm, rng):
        # Minimax searches the whole game tree, so the boards are the whole input.
        return [pm.GameConfig(n, k) for n, k in self.boards]

    def run(self, pm, configs, out: Pass) -> None:
        for config in configs:
            t0 = perf_counter_ns()
            try:
                value = pm.minimax_value(config, allow_large=True)
                report = pm.exhaustive_verify(config)
            except (RuntimeError, ValueError):
                out.check(False)
                continue
            out.end_segment(t0)
            exact = self.expected[_board_key(config)]["value"]
            out.check(value == exact and report.ok and value <= report.max_queries)
            queries = sum(q * c for q, c in report.query_histogram.items())
            out.queries += queries
            out.fingerprint[_board_key(config)] = {
                "value": value, "replay_queries": queries, "replay_max": report.max_queries,
            }


WORKLOADS = {w.name: w for w in (SolveLarge(), ExhaustiveSmall(), AdversaryWide(), MinimaxTiny())}
