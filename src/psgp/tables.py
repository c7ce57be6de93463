"""psgp's one table format. A table is a header line, then rows of
comma-joined cells, in UTF-8. A cell is a name (``cohort.check_name``), a
number its writer formatted or a space-joined list of such numbers (as in
``affected.csv`` and ``vectors.csv``), so no cell is quoted, and every line,
the last one too, ends in a line break. Every reader takes a number cell
that ``DECIMAL`` matches and a count cell that ``is_count`` accepts, and reads
line by line through ``table_rows``; the embeddings reader parses in bulk and
goes through ``table_rows`` to name a bad line. The manifest alone is read
with CSV quoting (``cohort.load_manifest``), since another program may write it.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError, PsgpError, utf8_text


def table_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The table's text; a cell holding ``,``, ``"`` or a line break is refused."""
    lines = []
    for cells in [header, *rows]:
        line = ",".join(cells)
        if line.count(",") != len(cells) - 1 or '"' in line or "\n" in line or "\r" in line:
            bad = next(c for c in cells if any(ch in c for ch in ',"\r\n'))
            raise DataError(f"table cell {bad!r} holds , \" or a line break")
        lines.append(line + "\n")
    return "".join(lines)


def write_table(path: Path | str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    Path(path).write_bytes(table_text(header, rows).encode("utf-8"))


def terminated_lines(lines: Iterable[str], path: Path, error: type[PsgpError]) -> Iterator[str]:
    """The lines of an open file, refusing a last line cut before its line break."""
    for lineno, line in enumerate(lines, 1):
        if not line.endswith(("\n", "\r")):
            raise error(f"{path}: line {lineno}: no line end (truncated file?)")
        yield line


# a plain ASCII decimal number: no padding, nan/inf, underscores or non-ASCII digits
DECIMAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)


def is_count(cell: str) -> bool:
    """A count cell is plain ASCII digits, as every writer prints a non-negative int."""
    return cell.isascii() and cell.isdigit()


def table_rows(path: Path, header: Sequence[str], error: type[PsgpError]):
    """``(where, cells)`` of each row, ``where`` naming the file and line; the
    first line must be ``header`` and every row as wide."""
    with path.open(encoding="utf-8") as fh, utf8_text(path, error):
        lines = terminated_lines(fh, path, error)
        first = next(lines, "")[:-1]
        if first.split(",") != list(header):
            raise error(f"{path}: header {first!r} is not {','.join(header)}")
        for lineno, line in enumerate(lines, 2):
            cells = line[:-1].split(",")
            if len(cells) != len(header):
                raise error(f"{path}: line {lineno} has {len(cells)} cells, header has {len(header)}")
            yield f"{path}: line {lineno}", cells
