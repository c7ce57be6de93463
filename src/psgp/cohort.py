"""Cohort manifest CSV and the deterministic train/test split.

Manifest header: ``subject_id,age,sex,bmi,sbp,frs,<outcome>...`` with one row
per subject. Covariates are empty (missing) or plain ASCII decimals; outcome
cells are ``""``, ``"0"`` or ``"1"``. Sex is coded 1=male, 0=female. It is
the one table read with CSV quoting, since another program may write it.
Errors name the file and the line.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ManifestError, PsgpError, UsageError, utf8_text
from .signalio import round_half_up
from .tables import DECIMAL, terminated_lines, write_table

COVARIATE_COLUMNS = ("age", "sex", "bmi", "sbp", "frs")
# what every adjusted model controls for; a subject missing one is ineligible
ADJUSTMENT_COVARIATES = ("age", "sex", "bmi")
_FIXED_HEADER = ("subject_id",) + COVARIATE_COLUMNS


@dataclass
class SubjectRow:
    subject_id: str
    age: float | None
    sex: int | None
    bmi: float | None
    sbp: float | None
    frs: float | None
    outcomes: dict[str, int | None]

    def covariate(self, name: str) -> float | None:
        if name not in COVARIATE_COLUMNS:
            raise UsageError(f"unknown covariate {name!r}")
        value = getattr(self, name)
        return None if value is None else float(value)


@dataclass
class CohortManifest:
    rows: dict[str, SubjectRow]
    outcome_names: tuple[str, ...]

    @property
    def subject_ids(self) -> list[str]:
        return list(self.rows)

    def eligible_ids(self) -> list[str]:
        """Subjects usable for model fitting: every adjustment covariate present."""
        return [
            sid
            for sid, row in self.rows.items()
            if all(getattr(row, name) is not None for name in ADJUSTMENT_COVARIATES)
        ]

    def outcome_labels(self, outcome: str) -> dict[str, int | None]:
        if outcome not in self.outcome_names:
            raise ManifestError(f"manifest has no outcome column {outcome!r}")
        return {sid: row.outcomes[outcome] for sid, row in self.rows.items()}


def check_name(kind: str, name: str, error: type[PsgpError], where: str) -> None:
    """Refuse a subject id or outcome name that cannot be both a file-name
    part and a plain CSV cell: an empty one, one with leading or trailing
    whitespace, or one holding ``,``, ``"``, ``/``, ``\\`` or a character
    ``str.isprintable`` rejects (every line break, NUL)."""
    if not name or name != name.strip() or any(ch in name for ch in ',"/\\') or not name.isprintable():
        raise error(
            f"{where}: {kind} {name!r} is empty or padded, or holds , \" / \\ or an unprintable character"
        )


def _parse_float(token: str, *, where: str, column: str) -> float | None:
    if token == "":
        return None
    if not DECIMAL.fullmatch(token):
        raise ManifestError(f"{where}: column {column!r} is not a decimal number: {token!r}")
    value = float(token)
    if not np.isfinite(value):
        raise ManifestError(f"{where}: column {column!r} is not finite")
    return value


def _parse_flag(token: str, *, where: str, column: str) -> int | None:
    if token == "":
        return None
    if token not in ("0", "1"):
        raise ManifestError(f"{where}: column {column!r} must be 0, 1 or empty, got {token!r}")
    return int(token)


def _records(reader, path: Path):
    """The records of a ``csv.reader``; its ``csv.Error`` (a cell past csv's
    field size limit) is a ManifestError naming the file and the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ManifestError(f"{path} line {reader.line_num}: {exc}") from None


def load_manifest(path: Path | str) -> CohortManifest:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh, utf8_text(path, ManifestError):
        reader = csv.reader(terminated_lines(fh, path, ManifestError))
        records = _records(reader, path)
        try:
            header = next(records)
        except StopIteration:
            raise ManifestError(f"{path}: empty manifest") from None
        if tuple(header[: len(_FIXED_HEADER)]) != _FIXED_HEADER:
            raise ManifestError(f"{path} line 1: header must start with {','.join(_FIXED_HEADER)}")
        outcome_names = tuple(header[len(_FIXED_HEADER):])
        for name in outcome_names:
            check_name("outcome name", name, ManifestError, f"{path} line 1")
        if len(set(outcome_names)) != len(outcome_names):
            raise ManifestError(f"{path}: duplicate outcome columns")
        rows: dict[str, SubjectRow] = {}
        for rec in records:
            where = f"{path} line {reader.line_num}"
            if len(rec) <= 1 and "".join(rec).strip() == "":  # a blank line; a comma makes a row
                continue
            if len(rec) != len(header):
                raise ManifestError(f"{where}: expected {len(header)} fields")
            sid = rec[0]
            check_name("subject id", sid, ManifestError, where)
            if sid in rows:
                raise ManifestError(f"{where}: duplicate subject_id {sid!r}")
            age, bmi, sbp, frs = (
                _parse_float(rec[i], where=where, column=header[i]) for i in (1, 3, 4, 5)
            )
            for name, value in (("age", age), ("bmi", bmi)):
                if value is not None and value <= 0:
                    raise ManifestError(f"{where}: {name} must be positive")
            sex = _parse_flag(rec[2], where=where, column="sex")
            outcomes = {
                name: _parse_flag(tok, where=where, column=name)
                for name, tok in zip(outcome_names, rec[len(_FIXED_HEADER):])
            }
            rows[sid] = SubjectRow(sid, age, sex, bmi, sbp, frs, outcomes)
    if not rows:
        raise ManifestError(f"{path}: manifest has no subject rows")
    return CohortManifest(rows, outcome_names)


def _fmt(value: float | int | None) -> str:
    return "" if value is None else format(float(value), ".10g")


def save_manifest(manifest: CohortManifest, path: Path | str) -> None:
    rows = (
        [sid, _fmt(row.age), _fmt(row.sex), _fmt(row.bmi), _fmt(row.sbp), _fmt(row.frs)]
        + [_fmt(row.outcomes[o]) for o in manifest.outcome_names]
        for sid, row in manifest.rows.items()
    )
    write_table(path, _FIXED_HEADER + manifest.outcome_names, rows)


@dataclass(frozen=True)
class CohortSplit:
    train_ids: frozenset[str]
    test_ids: frozenset[str]


def split_cohort(manifest: CohortManifest, ratio: float, seed: int) -> CohortSplit:
    """Disjoint train/test partition of the eligible subjects.

    Pure function of the sorted eligible ids, the ratio and the seed; the
    manifest's row order is irrelevant. |train| = round(ratio * N), half-up.
    """
    if not (0.0 < ratio < 1.0):
        raise UsageError(f"split ratio must lie in (0, 1), got {ratio}")
    ids = sorted(manifest.eligible_ids())
    if not ids:
        raise DataError("no eligible subjects to split (age/sex/bmi all missing?)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    n_train = round_half_up(ratio * len(ids))
    train = frozenset(ids[i] for i in perm[:n_train])
    test = frozenset(ids[i] for i in perm[n_train:])
    return CohortSplit(train_ids=train, test_ids=test)


def save_split(split: CohortSplit, path: Path | str) -> None:
    rows = [(sid, "train") for sid in split.train_ids] + [(sid, "test") for sid in split.test_ids]
    write_table(path, ("subject_id", "split"), sorted(rows))
