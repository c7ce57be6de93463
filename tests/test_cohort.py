"""Manifest parsing and the deterministic cohort split."""
import re

import numpy as np
import pytest

from psgp.cohort import (
    load_manifest,
    save_manifest,
    save_split,
    split_cohort,
)
from psgp.errors import DataError, ManifestError, UsageError

HEADER = "subject_id,age,sex,bmi,sbp,frs,CVD,Stroke"


def _write(tmp_path, lines, name="manifest.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _basic_manifest(tmp_path, n=10, seed=3):
    rng = np.random.default_rng(seed)
    lines = [HEADER]
    for i in range(n):
        age = 40 + rng.integers(0, 40)
        sex = rng.integers(0, 2)
        bmi = 22 + rng.integers(0, 10)
        label = int(rng.integers(0, 2))
        lines.append(f"S{i:03d},{age},{sex},{bmi},120,0.1,{label},{1 - label}")
    return load_manifest(_write(tmp_path, lines))


class TestLoadManifest:
    def test_columns_and_values(self, tmp_path):
        path = _write(
            tmp_path,
            [HEADER, "S001,63,1,27.5,130,0.12,1,0", "S002,55,0,24.0,,,0,"],
        )
        m = load_manifest(path)
        assert m.outcome_names == ("CVD", "Stroke")
        assert m.subject_ids == ["S001", "S002"]
        row = m.rows["S001"]
        assert row.age == 63.0
        assert row.sex == 1
        assert row.bmi == 27.5
        assert row.outcomes == {"CVD": 1, "Stroke": 0}
        row2 = m.rows["S002"]
        assert row2.sbp is None and row2.frs is None
        assert row2.outcomes["Stroke"] is None

    def test_eligibility_needs_age_sex_bmi(self, tmp_path):
        path = _write(
            tmp_path,
            [
                HEADER,
                "A,60,1,25,,,1,0",
                "B,,1,25,,,1,0",   # missing age
                "C,60,,25,,,1,0",  # missing sex
                "D,60,1,,,,1,0",   # missing bmi
            ],
        )
        assert load_manifest(path).eligible_ids() == ["A"]

    def test_outcome_labels(self, tmp_path):
        m = _basic_manifest(tmp_path, n=5)
        labels = m.outcome_labels("CVD")
        assert set(labels) == set(m.subject_ids)
        with pytest.raises(ManifestError):
            m.outcome_labels("Dementia")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "nope.csv")

    def test_wrong_header(self, tmp_path):
        path = _write(tmp_path, ["id,age,sex,bmi,sbp,frs", "S1,60,1,25,,"])
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_duplicate_subject(self, tmp_path):
        path = _write(tmp_path, [HEADER, "S1,60,1,25,,,1,0", "S1,61,0,26,,,0,1"])
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    def test_bad_tokens(self, tmp_path):
        cases = [
            "S1,sixty,1,25,,,1,0",   # non-numeric age
            "S1,-3,1,25,,,1,0",      # non-positive age
            "S1,60,2,25,,,1,0",      # sex outside {0,1}
            "S1,60,1,0,,,1,0",       # non-positive bmi
            "S1,60,1,25,,,yes,0",    # outcome not 0/1/empty
        ]
        for row in cases:
            path = _write(tmp_path, [HEADER, row])
            with pytest.raises(ManifestError):
                load_manifest(path)

    @pytest.mark.parametrize("row,column", [
        ("S1, 60 ,1,25,,,1,0", "age"),
        ("S1,60,1,25 ,,,1,0", "bmi"),
        ("S1,60,1,25,\t120,,1,0", "sbp"),
        ("S1,60,1,25,, ,1,0", "frs"),
        ("S1,60, 1,25,,,1,0", "sex"),
        ("S1,60,1,25,,,1 ,0", "CVD"),
    ])
    def test_padded_cell_is_refused(self, tmp_path, row, column):
        """Covariates are plain decimals and flags plain 0 or 1, as in every
        psgp table: a cell padded with a space or a tab, or only blank, is
        not read as its stripped value or as missing."""
        path = _write(tmp_path, [HEADER, "S0,61,0,26,,,0,1", row])
        with pytest.raises(ManifestError, match=f"line 3: column '{column}' "):
            load_manifest(path)

    @pytest.mark.parametrize("blank", ["", "   ", "\t", '""'])
    def test_a_blank_line_is_skipped(self, tmp_path, blank):
        """A blank line is a record of at most one cell, holding only whitespace."""
        path = _write(tmp_path, [HEADER, "S0,61,0,26,,,0,1", blank, "S1,60,1,25,,,1,0"])
        assert load_manifest(path).subject_ids == ["S0", "S1"]

    @pytest.mark.parametrize("row,where", [
        (" , , , , , , , ", "line 3: subject id ' ' "),
        (",,,,,,,", "line 3: subject id '' "),
        (" , ", "line 3: expected 8 fields"),
        (",", "line 3: expected 8 fields"),
    ])
    def test_a_row_of_blank_cells_is_refused(self, tmp_path, row, where):
        """A record with a comma is a row, however blank its cells: it is
        refused naming its line, not skipped as a blank line."""
        path = _write(tmp_path, [HEADER, "S0,61,0,26,,,0,1", row, "S1,60,1,25,,,1,0"])
        with pytest.raises(ManifestError, match=re.escape(f"{path} {where}")):
            load_manifest(path)

    @pytest.mark.parametrize("lines,where", [
        ([HEADER, "S0,61,0,26,,,0,1", " S1,60,1,25,,,1,0"], "line 3: subject id ' S1' "),
        ([HEADER, "S1 ,60,1,25,,,1,0"], "line 2: subject id 'S1 ' "),
        ([HEADER.replace(",age", ", age"), "S1,60,1,25,,,1,0"], "line 1: header must start"),
        ([" " + HEADER, "S1,60,1,25,,,1,0"], "line 1: header must start"),
        ([HEADER.replace(",CVD", ", CVD"), "S1,60,1,25,,,1,0"], "line 1: outcome name ' CVD' "),
        ([HEADER + " ", "S1,60,1,25,,,1,0"], "line 1: outcome name 'Stroke ' "),
    ])
    def test_padded_id_or_header_cell_is_refused(self, tmp_path, lines, where):
        """A subject id or a header cell is read as written: ``' S1'`` is not
        subject ``S1`` and ``' CVD'`` is not outcome ``CVD``."""
        path = _write(tmp_path, lines)
        with pytest.raises(ManifestError, match=re.escape(f"{path} {where}")) as info:
            load_manifest(path)
        assert info.value.exit_code == 3

    @pytest.mark.parametrize("name", ["", "A,B", 'A"B', "../evil", "A\\B", "A\nB", "A\rB", "A\u2028B", " A", "A "])
    def test_outcome_name_must_suit_a_file_name_and_a_header_cell(self, tmp_path, name):
        quoted = '"' + name.replace('"', '""') + '"'
        path = _write(tmp_path, [f"subject_id,age,sex,bmi,sbp,frs,CVD,{quoted}", "S1,60,1,25,,,1,0"])
        with pytest.raises(ManifestError, match="outcome name") as info:
            load_manifest(path)
        assert repr(name) in str(info.value)

    def test_oversized_cell_is_refused(self, tmp_path):
        """A quoted cell past csv's field size limit is a ManifestError
        naming the file and the line, not a csv.Error."""
        path = _write(tmp_path, [HEADER, "S1,60,1,25,,,1,0", '"' + "S" * 200_000 + '",60,1,25,,,1,0'])
        with pytest.raises(ManifestError, match=re.escape(f"{path} line 3: field larger than field limit")):
            load_manifest(path)

    def test_empty_manifest(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(_write(tmp_path, [HEADER]))

    def test_save_round_trip(self, tmp_path):
        m = _basic_manifest(tmp_path, n=8)
        out = tmp_path / "copy.csv"
        save_manifest(m, out)
        again = load_manifest(out)
        assert again.subject_ids == m.subject_ids
        assert again.outcome_names == m.outcome_names
        for sid in m.subject_ids:
            assert again.rows[sid] == m.rows[sid]
        save_manifest(again, tmp_path / "copy2.csv")
        assert out.read_bytes() == (tmp_path / "copy2.csv").read_bytes()


class TestSplitCohort:
    def test_sizes_round_half_up(self, tmp_path):
        m = _basic_manifest(tmp_path, n=10)
        s = split_cohort(m, ratio=0.8, seed=0)
        assert len(s.train_ids) == 8 and len(s.test_ids) == 2
        m2 = _basic_manifest(tmp_path, n=5)
        s2 = split_cohort(m2, ratio=0.5, seed=0)
        assert len(s2.train_ids) == 3  # 2.5 rounds up

    def test_partition_is_disjoint_and_complete(self, tmp_path):
        m = _basic_manifest(tmp_path, n=23)
        s = split_cohort(m, ratio=0.7, seed=11)
        assert s.train_ids.isdisjoint(s.test_ids)
        assert s.train_ids | s.test_ids == set(m.eligible_ids())

    def test_same_seed_same_split(self, tmp_path):
        m = _basic_manifest(tmp_path, n=30)
        a = split_cohort(m, ratio=0.8, seed=5)
        b = split_cohort(m, ratio=0.8, seed=5)
        assert a.train_ids == b.train_ids and a.test_ids == b.test_ids

    def test_different_seed_usually_differs(self, tmp_path):
        m = _basic_manifest(tmp_path, n=30)
        a = split_cohort(m, ratio=0.8, seed=5)
        b = split_cohort(m, ratio=0.8, seed=6)
        assert a.train_ids != b.train_ids

    def test_row_order_is_irrelevant(self, tmp_path):
        lines = [HEADER, "S1,60,1,25,,,1,0", "S2,61,0,26,,,0,1", "S3,62,1,27,,,1,1"]
        m_fwd = load_manifest(_write(tmp_path, lines, "f.csv"))
        m_rev = load_manifest(_write(tmp_path, [lines[0]] + lines[1:][::-1], "r.csv"))
        a = split_cohort(m_fwd, ratio=0.67, seed=2)
        b = split_cohort(m_rev, ratio=0.67, seed=2)
        assert a.train_ids == b.train_ids

    def test_ineligible_subjects_excluded(self, tmp_path):
        lines = [HEADER, "A,60,1,25,,,1,0", "B,,1,25,,,1,0", "C,61,0,24,,,0,1"]
        m = load_manifest(_write(tmp_path, lines))
        s = split_cohort(m, ratio=0.5, seed=0)
        assert "B" not in s.train_ids | s.test_ids

    def test_bad_ratio(self, tmp_path):
        m = _basic_manifest(tmp_path, n=4)
        for ratio in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(UsageError):
                split_cohort(m, ratio=ratio, seed=0)

    def test_no_eligible_subjects(self, tmp_path):
        m = load_manifest(_write(tmp_path, [HEADER, "A,,1,25,,,1,0"]))
        with pytest.raises(DataError):
            split_cohort(m, ratio=0.5, seed=0)

    def test_save_split_sorted(self, tmp_path):
        m = _basic_manifest(tmp_path, n=6)
        s = split_cohort(m, ratio=0.5, seed=1)
        out = tmp_path / "split.csv"
        save_split(s, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "subject_id,split"
        ids = [l.split(",")[0] for l in lines[1:]]
        assert ids == sorted(ids)
        assert {l.split(",")[1] for l in lines[1:]} == {"train", "test"}
