"""The one plain-table format (``psgp.tables``) and the guard that keeps
``csv`` to the manifest reader."""
import ast
import csv
import io
import re
from pathlib import Path

import pytest

from psgp.errors import DataError, ManifestError
from psgp.tables import table_rows, table_text, write_table

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "psgp"
HEADER = ("subject_id", "outcome", "score")
ROWS = [["S0001", "CVD", "0.25"], ["S0002", "AF", "-1e-05"], ["S0003", "At/Below average", ""]]


def csv_importers(package: Path) -> list[str]:
    """The modules of a package directory that import ``csv``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(name.split(".")[0] == "csv" for name in names):
                found.append(path.name)
                break
    return found


def test_only_the_manifest_reader_imports_csv():
    """Every other table goes through ``psgp.tables``; the manifest alone is
    read with CSV quoting, since another program may write it."""
    assert csv_importers(PACKAGE) == ["cohort.py"]


def test_text_is_what_csv_writer_writes():
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows([HEADER, *ROWS])
    assert table_text(HEADER, ROWS) == want.getvalue()
    assert table_text(HEADER, []) == "subject_id,outcome,score\n"


@pytest.mark.parametrize("cell", ["a,b", 'q"x', "a\nb", "a\rb", '"', ","])
@pytest.mark.parametrize("where", ["header", "row"])
def test_writer_refuses_a_cell_its_reader_would_split(tmp_path, cell, where):
    header, rows = (("x", cell), []) if where == "header" else (HEADER, [ROWS[0], ["S9", cell, "1"]])
    path = tmp_path / "t.csv"
    with pytest.raises(DataError, match=re.escape(repr(cell))):
        write_table(path, header, rows)
    assert not path.exists()


def test_rows_read_back_with_their_lines(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, HEADER, ROWS)
    want = [(f"{path}: line {i}", row) for i, row in enumerate(ROWS, 2)]
    assert list(table_rows(path, HEADER, DataError)) == want
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert [cells for _, cells in table_rows(crlf, HEADER, DataError)] == ROWS


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "header ''"),
        ("subject_id,outcome\n", "header 'subject_id,outcome'"),
        ("subject_id,outcome,score\nS1,CVD,1\nS2,CVD\n", "line 3 has 2 cells, header has 3"),
        ("subject_id,outcome,score\nS1,CVD,1\n\n", "line 3 has 1 cells"),
        ("subject_id,outcome,score\nS1,CVD,1\nS2,CVD,1", "line 3: no line end"),
        ("subject_id,outcome,score", "line 1: no line end"),
    ],
    ids=["empty", "header", "width", "blank", "cut_row", "cut_header"],
)
def test_reader_names_the_file_and_line(tmp_path, text, fragment):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ManifestError, match=re.escape(f"{path}: {fragment}")):
        list(table_rows(path, HEADER, ManifestError))

