"""The one plain-table format (``psgp.tables``), its one decimal rule, and
the guards that keep ``csv`` to the manifest reader and ``np.loadtxt`` to
the bulk embeddings reader."""
import ast
import csv
import io
import re
from pathlib import Path

import numpy as np
import pytest

from psgp.cli import _write_embeddings_csv
from psgp.errors import DataError, FormatError, ManifestError
from psgp.signalio import Modality
from psgp.tables import DECIMAL, table_rows, table_text, write_table
from psgp.vectors import (
    derive_disease_vector,
    load_disease_vector,
    load_scores,
    save_disease_vector,
    save_scores,
)

from helpers import read_embeddings

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "psgp"
HEADER = ("subject_id", "outcome", "score")
ROWS = [["S0001", "CVD", "0.25"], ["S0002", "AF", "-1e-05"], ["S0003", "At/Below average", ""]]


def modules_with(package: Path, found) -> list[str]:
    """The modules of a package directory with an AST node ``found`` accepts."""
    return [
        path.name
        for path in sorted(package.glob("*.py"))
        if any(found(node) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    ]


def imports_csv(node) -> bool:
    names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    return any(name.split(".")[0] == "csv" for name in names)


def test_only_the_manifest_reader_imports_csv():
    """Every other table goes through ``psgp.tables``; the manifest alone is
    read with CSV quoting, since another program may write it."""
    assert modules_with(PACKAGE, imports_csv) == ["cohort.py"]


def test_one_decimal_rule_and_one_loadtxt():
    """``DECIMAL`` is defined in ``tables`` alone, and ``np.loadtxt`` (which
    reads numbers ``DECIMAL`` refuses) parses only the bulk embeddings reader's
    chunks, whose value text is checked first."""
    def assigns_decimal(node):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return any(isinstance(t, ast.Name) and t.id == "DECIMAL" for t in targets)

    def names_loadtxt(node):
        return getattr(node, "attr", None) == "loadtxt" or getattr(node, "id", None) == "loadtxt"

    assert modules_with(PACKAGE, assigns_decimal) == ["tables.py"]
    assert modules_with(PACKAGE, names_loadtxt) == ["cli.py"]


@pytest.mark.parametrize("cell", ["0", "-0", "+1", "00", "1.", ".5", "1.5e+00005", "1E-3", "+.5e-3", "1e400"])
def test_decimal_accepts_plain_numbers(cell):
    assert DECIMAL.fullmatch(cell)


@pytest.mark.parametrize("cell", [
    "", " 0.5", "0.5 ", "\t0.5", "0.5\n", "\xa00.5", "\u20000.5", "1_0", "\u0661", "1e", "1e+", ".", "+",
    "-", "--1", "0.1.2", "0x10", "nan", "-inf", "Infinity", "1d5",
])
def test_decimal_refuses_every_other_spelling(cell):
    assert not DECIMAL.fullmatch(cell)


# a cell of each reader's table, and whether DECIMAL (so every reader) takes it
DECIMAL_CASES = [
    (" 0.5", False), ("0.5 ", False), ("\t0.5", False), ("\xa00.5", False), ("1_0", False),
    ("\u0661", False), ("1e", False), (".", False), ("nan", False), ("-inf", False), ("+.5e-3", True),
]


def _embeddings(path: Path, value: str, modality_line_3: str = "RESP") -> Path:
    """A three-row d = 2 table, ``value`` the first value of line 2 and
    ``modality_line_3`` the modality cell of line 3, all in one bulk chunk."""
    ids, index = np.array(["S1", "S1", "S2"]), np.array([0, 1, 0])
    _write_embeddings_csv(path, ids, index, np.full((3, 2), 0.25, np.float32), Modality.RESP)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = lines[1].replace("RESP,0,0.25", f"RESP,0,{value}")
    lines[2] = lines[2].replace("RESP", modality_line_3)
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _vectors(tmp_path: Path, value: str) -> Path:
    """A one-row disease-vector table, ``value`` the first mu_positive component."""
    path = tmp_path / "vectors.csv"
    dv = derive_disease_vector([0.25, 1.0], [0.0, 0.0], "CVD", Modality.RESP)
    save_disease_vector({("CVD", Modality.RESP): dv}, path)
    header, row = path.read_text(encoding="utf-8").split("\n")[:2]
    cells = row.split(",")
    cells[5] = " ".join([value, *cells[5].split(" ")[1:]])
    path.write_text(f"{header}\n{','.join(cells)}\n", encoding="utf-8")
    return path


def _scores(tmp_path: Path, value: str) -> Path:
    """A one-row score table, ``value`` its score."""
    path = tmp_path / "scores.csv"
    save_scores({("S1", "CVD", Modality.RESP): (0.25, 3)}, path)
    path.write_text(path.read_text(encoding="utf-8").replace(",0.25,", f",{value},"), encoding="utf-8")
    return path


@pytest.mark.parametrize("value,ok", DECIMAL_CASES, ids=[repr(v) for v, _ in DECIMAL_CASES])
def test_every_reader_judges_a_number_by_decimal(tmp_path, value, ok):
    """``embeddings.csv`` (its bulk pass, and a chunk the bulk pass doubted
    for a later line), ``vectors.csv`` and ``scores.csv`` take or refuse a
    number cell alike, naming its line when they refuse it. (In the
    space-joined arrays of ``vectors.csv`` a space pads one component with an
    empty one, which is refused as such.)"""
    bulk = _embeddings(tmp_path / "bulk.csv", value)
    doubted = _embeddings(tmp_path / "doubted.csv", value, "ECG")
    reads = [
        lambda: read_embeddings(bulk, Modality.RESP),
        lambda: load_disease_vector(_vectors(tmp_path, value)),
        lambda: load_scores(_scores(tmp_path, value)),
    ]
    for read in reads:
        if ok:
            read()
        else:
            with pytest.raises(FormatError, match="line 2: .*is not a"):
                read()
    if ok:
        assert read_embeddings(bulk, Modality.RESP)[1][0, 0] == np.float32(float(value))
    # the doubted chunk is re-read line by line: a refused value is named
    # before the stray modality of line 3
    message = "line 3: modality 'ECG'" if ok else f"line 2: {value!r} is not a decimal number"
    with pytest.raises(FormatError, match=re.escape(message)):
        read_embeddings(doubted, Modality.RESP)


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

