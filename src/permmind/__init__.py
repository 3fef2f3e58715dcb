"""Adaptive Mastermind with black pegs only and no repeated colors.

Codes are tuples of distinct colors 1..k placed in n holes (2 <= n <= k).
The solver identifies any secret from black-count answers alone, within a
query budget that grows like n log n; the adversary module realizes the
matching lower bound; the brute-force module replays every secret of a board
to check all of it.

The public API is the board (`GameConfig`, `validate_code`, `black`, the
code enumerations), the codemakers (`StaticCodemaker`, `AdversaryCodemaker`,
their base `CodemakerOracle`), the codebreaker (`solve`, `query_bound`), its
records and the checkers of the paper's bounds, with their errors.  The
solver's phases and `SolverState` live in `permmind.solver`, `OPEN` and
`open_matches` in `permmind.core`.
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
    CapacityError,
    GameConfig,
    InconsistentOracleError,
    InvalidCodeError,
    Splice,
    Transcript,
    TranscriptEvent,
    black,
    validate_code,
)
from .solver import (
    CodemakerOracle,
    SolverInvariantError,
    bound_enforced,  # not in __all__: only the benchmark harness reads it
    query_bound,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryCodemaker",
    "CapacityError",
    "CodemakerOracle",
    "GameConfig",
    "InconsistentOracleError",
    "InvalidCodeError",
    "LemmaViolationError",
    "SolverInvariantError",
    "Splice",
    "StaticCodemaker",
    "Transcript",
    "TranscriptEvent",
    "VerificationReport",
    "adapt_secret",
    "all_injective_codes",
    "black",
    "check_transcript",
    "exhaustive_verify",
    "injective_code_count",
    "minimax_value",
    "minimax_value_naive",
    "query_bound",
    "random_injective_code",
    "solve",
    "validate_code",
    "verify_lower_bound_play",
]
