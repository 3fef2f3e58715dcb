"""Adaptive Mastermind with black pegs only and no repeated colors.

Codes are tuples of distinct colors 1..k placed in n holes (2 <= n <= k).
The solver identifies any secret from black-count answers alone, within a
query budget that grows like n log n; the adversary module realizes the
matching lower bound; the brute-force module replays every secret of a board
to check all of it.
"""

from .bruteforce import (
    VerificationReport,
    check_transcript,
    exhaustive_verify,
    minimax_value,
    minimax_value_naive,
    verify_lower_bound_play,
)
from .codemaker import (
    AdversaryCodemaker,
    LemmaViolationError,
    StaticCodemaker,
    adapt_secret,
    all_injective_codes,
    injective_code_count,
    random_injective_code,
)
from .core import (
    OPEN,
    CapacityError,
    GameConfig,
    InconsistentOracleError,
    InvalidCodeError,
    Splice,
    Transcript,
    TranscriptEvent,
    black,
    open_matches,
    validate_code,
)
from .solver import (
    CodemakerOracle,
    SolverInvariantError,
    SolverState,
    apply_found_component,
    bound_enforced,  # not in __all__: only the benchmark harness reads it
    ceil_log2,
    endgame,
    find_first,
    find_first_uniform,
    find_next,
    find_next_many_colors,
    initial_phase,
    query_bound,
    select_active_index,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "OPEN",
    "AdversaryCodemaker",
    "CapacityError",
    "CodemakerOracle",
    "GameConfig",
    "InconsistentOracleError",
    "InvalidCodeError",
    "LemmaViolationError",
    "SolverInvariantError",
    "SolverState",
    "Splice",
    "StaticCodemaker",
    "Transcript",
    "TranscriptEvent",
    "VerificationReport",
    "adapt_secret",
    "all_injective_codes",
    "apply_found_component",
    "black",
    "ceil_log2",
    "check_transcript",
    "endgame",
    "exhaustive_verify",
    "find_first",
    "find_first_uniform",
    "find_next",
    "find_next_many_colors",
    "initial_phase",
    "injective_code_count",
    "minimax_value",
    "minimax_value_naive",
    "open_matches",
    "query_bound",
    "random_injective_code",
    "select_active_index",
    "solve",
    "validate_code",
    "verify_lower_bound_play",
]
