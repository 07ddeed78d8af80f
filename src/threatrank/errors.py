"""Exception types, ``reject_unknown`` (the config and profile loaders' one
key check), and ``output_file``, which writes each output file whole or not at all.

The CLI maps these onto process exit codes: usage problems (bad flags,
missing paths, unknown identifiers) exit 1, data problems (unreadable or
invalid content, an output file that cannot be written) exit 2.
"""

import contextlib
import csv
import os
from pathlib import Path


class ThreatRankError(Exception):
    """Base class for all toolkit errors."""


class UsageError(ThreatRankError):
    """Caller invoked a command incorrectly (missing input, unknown id)."""


class DataError(ThreatRankError):
    """Input files exist but their content is invalid."""


# What a DataError says, after the path, of a file that starts with a BOM.
BOM_AT_START = "unexpected UTF-8 byte order mark (BOM) at the start"


def reject_unknown(keys, known, what: str) -> None:
    """A DataError naming the first key outside ``known``, so a misspelt
    setting is not silently replaced by its default."""
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise DataError(f"{what} {unknown[0]!r} (known: {', '.join(sorted(known))})")


@contextlib.contextmanager
def output_file(path: str | Path):
    """A UTF-8 text file (``newline=""``) that replaces ``path``, its directory
    made, when the block ends cleanly, and is removed on any exception; an
    OSError is a DataError naming ``path``.  A pid-named ``"x"`` sibling keeps
    the umask's mode (``mkstemp``'s is 0600).  Nothing is synced to disk."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(temp, "x", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(temp, path)
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # absent once replaced
            temp.unlink()


def write_csv(path: str | Path, header, rows) -> None:
    """``header`` and ``rows`` as ``csv.writer`` lines ending ``\\n``, via ``output_file``."""
    with output_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
