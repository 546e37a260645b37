"""The common base of every polylayer exception, and the certificate verdicts.

Each exception class carries the CLI exit code its failures map to, so the
error -> exit-code map lives on the classes themselves: 2 (configuration
error: invalid input, infeasible geometry, degenerate problems) for all of
them except ``AnalysisError``, which maps to 3 (numerical non-convergence).
An INCONCLUSIVE certificate is a valid outcome, not an error; the CLI maps
it to exit code 4.
"""

NONEMPTY = "NONEMPTY"
INCONCLUSIVE = "INCONCLUSIVE"
ABSENT_CONSISTENT = "ABSENT_CONSISTENT"


class PolylayerError(Exception):
    """Base of every exception raised by polylayer."""

    exit_code = 2


class ConfigError(PolylayerError, ValueError):
    """Invalid input: a bad flag, option list or analysis parameter."""


class AnalysisError(PolylayerError, RuntimeError):
    """Raised when an analysis operation cannot meet its contract."""

    exit_code = 3
