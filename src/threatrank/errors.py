"""Exception types shared across the toolkit, and ``reject_unknown``, the
one check of a JSON object's keys that the config and profile loaders share.

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


def reject_unknown(keys, known, what: str) -> None:
    """A DataError naming the first key outside ``known``, so a misspelt
    setting is not silently replaced by its default."""
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise DataError(f"{what} {unknown[0]!r} (known: {', '.join(sorted(known))})")
