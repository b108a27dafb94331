"""Domain error hierarchy, the package's one file boundary, and
``FrozenRecord``, the base of the records that must not be tuples.

Every error carries a short machine-parsable ``code`` that the CLI prints as
``ERROR <code>: <message>`` on the diagnostic stream. Only what a command can
print is one; a bad argument from a library caller is a ValueError or TypeError.

Every input file is read through ``read_text`` (UTF-8 with an optional BOM),
every output file is written through ``write_file`` (and a leftover one
removed through ``remove_file``), so a file that cannot be read, decoded,
written or removed always ends in one such error naming it. ``LINE`` cuts
data, config and CSV files into lines.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator

# one line as io.StringIO(text, newline="") yields it, never empty: through "\r\n", "\r"
# or "\n" only (str.splitlines also ends one at VT, FF, U+2028 and five more), or to the end
LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


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
    """(line number, stripped line) for each ``LINE`` of a data file that is
    neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(LINE.findall(read_text(path, error)), start=1):
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
    """Remove a leftover output file if there is one (none can be under a
    parent that is no directory); any other OSError becomes
    OutputNotWritableError naming the file."""
    try:
        Path(path).unlink()
    except (FileNotFoundError, NotADirectoryError):
        pass
    except OSError as exc:
        raise OutputNotWritableError(f"{path}: {exc.strerror or exc}") from exc


class FrozenRecord:
    """A record that is no tuple. Its ``_fields`` are the ``__slots__`` of
    its class and bases, bases first, and ``__init__`` takes their values in
    that order. It refuses assignment and deletion, and copies, pickles and
    compares by type and by the values ``__reduce__`` rebuilds it from."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for base in reversed(cls.__mro__)
                            for name in base.__dict__.get("__slots__", ()))

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
