"""Domain error hierarchy and the package's one file boundary.

Every error carries a short machine-parsable ``code`` that the CLI prints as
``ERROR <code>: <message>`` on the diagnostic stream.

Every input file is read through ``read_text`` (UTF-8 with an optional BOM),
every output file is written through ``write_file`` (and a leftover one
removed through ``remove_file``), so a file that cannot be read, decoded,
written or removed always ends in one such error naming it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator


class WindsentError(Exception):
    code = "error"


class OutputNotWritableError(WindsentError):
    code = "report/output-not-writable"


def read_text(path: str | Path, error: type[WindsentError]) -> str:
    """The decoded text of an input file; an unreadable or non-UTF-8 file
    raises ``error("<path>: <reason>")``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc})") from exc


def data_lines(path: str | Path, error: type[WindsentError]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of a data file that is
    neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(read_text(path, error).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def write_file(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to ``path``, creating its directory;
    any OSError becomes OutputNotWritableError naming the file."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except OSError as exc:
        raise OutputNotWritableError(f"{path}: {exc.strerror or exc}") from exc


def remove_file(path: str | Path) -> None:
    """Remove a leftover output file if there is one; any OSError becomes
    OutputNotWritableError naming the file."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise OutputNotWritableError(f"{path}: {exc.strerror or exc}") from exc
