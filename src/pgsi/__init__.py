"""Parity game solving by non-deterministic strategy iteration.

The solver augments the game with an escape sink, values player-0
strategies by the colors collected on the way to it, and switches to
better edges until no strict improvement remains; the unbounded nodes
are then exactly player 0's winning set.
"""

from .arena import ParityGame, parse_pgsolver, serialize_pgsolver
from .errors import (DimensionError, FormatError, InstanceTooLarge,
                     InvariantViolation, ProfileArithmeticError,
                     ReasonablenessError, SolverError)
from .iteration import (AllSwitches, DeterministicAll, SingleRandom,
                        SolveResult, policy_by_name, replay_verify, solve)
from .oracle import crosscheck, oracle_solve
from .profiles import POS_INFINITY, ColorProfile

__version__ = "0.1.0"

__all__ = [
    "AllSwitches", "ColorProfile", "DeterministicAll", "DimensionError",
    "FormatError", "InstanceTooLarge", "InvariantViolation", "POS_INFINITY",
    "ParityGame", "ProfileArithmeticError", "ReasonablenessError",
    "SingleRandom", "SolveResult", "SolverError", "crosscheck",
    "oracle_solve", "parse_pgsolver", "policy_by_name", "replay_verify",
    "serialize_pgsolver", "solve",
]
