"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: usage problems (bad flags,
missing paths, unknown identifiers) exit 1, data problems (unreadable or
invalid content) exit 2.
"""


class ThreatRankError(Exception):
    """Base class for all toolkit errors."""


class UsageError(ThreatRankError):
    """Caller invoked a command incorrectly (missing input, unknown id)."""


class DataError(ThreatRankError):
    """Input files exist but their content is invalid."""
