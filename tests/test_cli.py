"""End-to-end tests for the command-line interface (all in-process)."""
import argparse
import csv
import hashlib
import io
import random
import re
import shutil
import struct
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import psgp.cli
import psgp.model as mdl
from psgp import autodiff, frame
from psgp.cli import _resolve_config, _write_embeddings_csv, build_parser, main
from psgp.cohort import load_manifest, split_cohort
from psgp.config import RunConfig, load_run_config, stage_configs
from psgp.errors import DataError, FormatError
from psgp.signalio import (
    FORMAT_VERSION, Modality, read_signal_file, samples_per_window, write_signal_file,
)
from psgp.tables import table_rows
from psgp.vectors import derive_vectors, load_disease_vector, save_scores

from helpers import read_embeddings, reframe, tree_bytes


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One tiny cohort pushed through every subcommand."""
    root = tmp_path_factory.mktemp("chain")
    data = root / "cohort"
    models = root / "models"
    emb = root / "emb"
    vectors = root / "vectors"
    scores = root / "scores"
    fit = root / "fit"
    grid = root / "grid"
    report = root / "report"

    ini = root / "run.ini"
    ini.write_text(
        "[run]\nmodalities = RESP\n"
        "[model]\nembed_dim = 8\nencoder_depth = 1\ndecoder_depth = 1\nn_heads = 2\n"
        "[ssl]\nsteps = 3\nbatch_size = 4\nn_permutations = 2\n",
        encoding="utf-8",
    )

    assert run_cli(
        "synth", "--out", data, "--config", ini, "--seed", 5,
        "--subjects", 14, "--segments", 3,
        "--prevalence", "CVD=0.5", "--effect", "CVD:RESP=2.0",
    ) == 0
    assert run_cli("train", "--out", models, "--config", ini, "--data", data, "--seed", 5) == 0
    assert run_cli(
        "embed", "--out", emb, "--config", ini, "--data", data, "--models", models
    ) == 0
    assert run_cli(
        "vectors", "--out", vectors, "--config", ini, "--data", data, "--embeddings", emb,
        "--seed", 5,
    ) == 0
    assert run_cli(
        "score", "--out", scores, "--config", ini, "--data", data, "--embeddings", emb,
        "--vectors", vectors / "vectors",
    ) == 0
    assert run_cli(
        "fit", "--out", fit, "--config", ini, "--data", data,
        "--scores", scores / "scores.csv", "--seed", 5,
    ) == 0
    assert run_cli(
        "eval", "--out", grid, "--config", ini, "--data", data,
        "--scores", scores / "scores.csv", "--seed", 5,
    ) == 0
    assert run_cli(
        "report", "--out", report, "--config", ini, "--data", data,
        "--scores", scores / "scores.csv", "--subject", "S0001",
        "--modality", "RESP", "--seed", 5,
    ) == 0
    return {
        "root": root, "data": data, "models": models, "emb": emb,
        "vectors": vectors, "scores": scores, "fit": fit, "grid": grid,
        "report": report, "ini": ini,
    }


class TestChainArtifacts:
    def test_synth_outputs(self, chain):
        data = chain["data"]
        assert (data / "manifest.csv").is_file()
        assert (data / "effects.csv").is_file()
        assert len(list((data / "signals").glob("*_RESP.psgs"))) == 14
        assert (data / "resolved_config_synth.txt").is_file()

    def test_train_outputs(self, chain):
        models = chain["models"]
        assert (models / "RESP" / "checkpoint.psgm").is_file()
        assert (models / "split.csv").is_file()
        log = (models / "RESP" / "train.log").read_text(encoding="utf-8").splitlines()
        assert log[0] == "step,similarity,tcr,total,wallclock_ms"
        assert len(log) == 1 + 3  # header + one row per step
        snapshot = (models / "resolved_config_train.txt").read_text(encoding="utf-8")
        assert "steps = 3" in snapshot
        assert "modalities = RESP" in snapshot
        with (models / "split.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject_id", "split"]
        assert len(rows) == 15
        assert sum(1 for r in rows[1:] if r[1] == "train") == 11

    def test_embed_outputs(self, chain):
        emb_csv = chain["emb"] / "RESP" / "embeddings.csv"
        with emb_csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["subject_id", "modality", "segment_index"]
        assert rows[0][3:] == [f"v{i}" for i in range(8)]
        assert len(rows) == 1 + 14 * 3  # every subject embedded, train or test
        vec = np.array([float(x) for x in rows[1][3:]])
        assert np.isclose(np.linalg.norm(vec), 1.0, atol=1e-6)

    def test_vectors_outputs(self, chain):
        """One table, which reads back as the vectors derived from the
        embeddings, every float exact."""
        vec_dir = chain["vectors"] / "vectors"
        assert [p.name for p in vec_dir.iterdir()] == ["vectors.csv"]
        manifest = load_manifest(chain["data"] / "manifest.csv")
        table = read_embeddings(chain["emb"] / "RESP" / "embeddings.csv", Modality.RESP)
        train_ids = split_cohort(manifest, RunConfig().split_ratio, 5).train_ids
        want = derive_vectors({Modality.RESP: [table]}, manifest, train_ids, ["CVD"])
        back = load_disease_vector(vec_dir / "vectors.csv")
        assert list(back) == list(want) == [("CVD", Modality.RESP)]
        got, want = back["CVD", Modality.RESP], want["CVD", Modality.RESP]
        assert (got.n_positive, got.n_negative) == (want.n_positive, want.n_negative)
        for name in ("vector", "mu_positive", "mu_negative"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()

    def test_every_table_reads_through_table_rows(self, chain):
        """Every ``.csv`` the chain writes is a ``tables`` table: it reads
        through ``table_rows`` with its own header line."""
        paths = sorted(chain["root"].rglob("*.csv"))
        names = {p.name for p in paths}
        assert {"manifest.csv", "embeddings.csv", "vectors.csv", "scores.csv", "grid.csv"} <= names
        for path in paths:
            header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
            list(table_rows(path, header, FormatError))

    def test_score_outputs(self, chain):
        with (chain["scores"] / "scores.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject_id", "outcome", "modality", "score", "n_segments_used"]
        assert len(rows) == 1 + 14  # one row per subject for CVD x RESP
        ids = [r[0] for r in rows[1:]]
        assert ids == sorted(ids)

    def test_fit_outputs(self, chain):
        lines = (chain["fit"] / "or_report.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "outcome,modality,OR,ci_low,ci_high,p,significant"
        assert len(lines) == 2
        assert lines[1].startswith("CVD,RESP,")

    def test_eval_outputs(self, chain):
        lines = (chain["grid"] / "grid.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "predictor_set,CVD"
        assert len(lines) == 12  # 11 predictor sets
        names = [line.split(",")[0] for line in lines[1:]]
        assert names[0] == "EEG"
        assert "Baseline" in names
        assert "Composite" in names

    def test_report_outputs(self, chain, capsys):
        report_txt = chain["report"] / "report_S0001.txt"
        assert report_txt.is_file()
        text = report_txt.read_text(encoding="utf-8")
        assert "Outcome" in text and "Percentile" in text
        lines = (chain["report"] / "report_S0001.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "outcome,current,positive_mean,percentile,status"
        assert len(lines) == 2


class TestSynthDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(
                "synth", "--out", tmp_path / sub, "--seed", 9,
                "--subjects", 5, "--segments", 2, "--prevalence", "CVD=0.5",
            ) == 0
        files_a = tree_bytes(tmp_path / "a")
        files_b = tree_bytes(tmp_path / "b")
        assert sorted(files_a) == sorted(files_b)
        for name, blob in files_a.items():
            assert files_b[name] == blob, name

    def test_effects_table_printed(self, tmp_path, capsys):
        assert run_cli(
            "synth", "--out", tmp_path / "c", "--seed", 9,
            "--subjects", 5, "--segments", 2,
            "--prevalence", "CVD=0.5", "--effect", "CVD:ECG=2.0",
        ) == 0
        out = capsys.readouterr().out
        assert "CVD" in out and "ECG" in out
        assert out == (tmp_path / "c" / "effects.csv").read_text(encoding="utf-8")

    def test_snapshot_reproduces_the_cohort(self, tmp_path):
        """A float with more than six digits is recorded exactly, so
        re-running on the snapshot writes the same bytes."""
        assert run_cli(
            "synth", "--out", tmp_path / "a", "--seed", 9, "--subjects", 4, "--segments", 1,
            "--noise-sigma", "0.123456789", "--prevalence", "CVD=0.3333333",
        ) == 0
        snapshot = tmp_path / "a" / "resolved_config_synth.txt"
        text = snapshot.read_text(encoding="utf-8")
        assert "noise_sigma = 0.123456789\n" in text
        assert "prevalence = CVD=0.3333333\n" in text
        assert run_cli("synth", "--out", tmp_path / "b", "--config", snapshot) == 0
        assert tree_bytes(tmp_path / "b") == tree_bytes(tmp_path / "a")


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, tmp_path, capsys):
        """Also a flag the parser does not have (--waveform, --masked-only):
        exit 2, one error line and no snapshot."""
        out = tmp_path / "out"
        for argv in [
            ["compress"],
            ["synth", "--out", out, "--waveform", "band_noise"],
            ["train", "--out", out, "--data", tmp_path / "none", "--masked-only"],
        ]:
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "Traceback" not in err
            assert not out.exists()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli("synth") == 2
        capsys.readouterr()

    def test_bad_split_ratio_is_usage_error(self, tmp_path, capsys):
        rc = run_cli(
            "train", "--out", tmp_path / "m", "--data", tmp_path / "d",
            "--split-ratio", "1.5",
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ConfigError:")
        assert err.count("\n") == 1

    def test_empty_training_split_names_the_ratio(self, chain, tmp_path, capsys):
        """A ratio that rounds to no training subject is refused before any
        signal file is indexed: the error names the ratio and the eligible
        count, not the signal files, which are there."""
        rc = run_cli(
            "train", "--out", tmp_path / "m", "--config", chain["ini"], "--data", chain["data"],
            "--split-ratio", "0.01",
        )
        err = capsys.readouterr().err
        assert_one_line_data_error(
            rc, err, "split_ratio 0.01 gives no training subject among the 14 eligible", kind="DataError"
        )
        assert "signals" not in err and not (tmp_path / "m" / "RESP").exists()

    def test_missing_data_dir_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        rc = run_cli("train", "--out", tmp_path / "m", "--data", missing)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: MissingInputError:")
        assert str(missing) in err

    def test_missing_scores_file_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "cohort"
        assert run_cli(
            "synth", "--out", data, "--seed", 1, "--subjects", 4, "--segments", 1,
            "--prevalence", "CVD=0.5",
        ) == 0
        capsys.readouterr()
        rc = run_cli(
            "eval", "--out", tmp_path / "g", "--data", data,
            "--scores", tmp_path / "absent.csv",
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: MissingInputError:")
        assert "absent.csv" in err

    @pytest.mark.parametrize("command", ["synth", "fit"])
    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_negative_seed_is_usage_error(self, chain, tmp_path, capsys, command, source):
        ini = tmp_path / "seed.ini"
        ini.write_text("[run]\nseed = -3\n", encoding="utf-8")
        seed = ["--seed", -1] if source == "flag" else ["--config", ini]
        stage = {
            "synth": ["--subjects", 4, "--segments", 1, "--prevalence", "CVD=0.5"],
            "fit": ["--data", chain["data"], "--scores", chain["scores"] / "scores.csv"],
        }[command]
        rc = run_cli(command, "--out", tmp_path / "out", *stage, *seed)
        err = capsys.readouterr().err
        assert_one_line_data_error(rc, err, "seed must be >= 0", kind="ConfigError", code=2)

    @pytest.mark.parametrize(
        "stage,value,field",
        [
            (["train", "--tcr-epsilon", "inf"], None, "tcr_epsilon"),
            (["train", "--learning-rate", "nan"], None, "learning_rate"),
            (["synth", "--effect", "CVD:ECG=nan"], None, "effects"),
            (["synth", "--noise-sigma", "inf"], None, "noise_sigma"),
            (["train"], "[ssl]\ntcr_weight = inf\n", "tcr_weight"),
            (["eval"], "[synth]\nprevalence = CVD=nan\n", "prevalence"),
            (["eval"], "[synth]\naffected_fraction = nan\n", "affected_fraction"),
            (["fit"], "[synth]\neffects = CVD:RESP=-inf\n", "effects"),
        ],
    )
    def test_non_finite_float_is_usage_error(self, tmp_path, capsys, stage, value, field):
        """Refused when the config is merged, before the stage reads any
        input: the data directory here does not exist."""
        command, *flags = stage
        if value is not None:
            ini = tmp_path / "bad.ini"
            ini.write_text(value, encoding="utf-8")
            flags += ["--config", ini]
        inputs = {
            "synth": ["--subjects", 4, "--segments", 1, "--prevalence", "CVD=0.5"],
            "train": ["--data", tmp_path / "none"],
            "eval": ["--data", tmp_path / "none", "--scores", tmp_path / "none.csv"],
            "fit": ["--data", tmp_path / "none", "--scores", tmp_path / "none.csv"],
        }[command]
        rc = run_cli(command, "--out", tmp_path / "out", *inputs, *flags)
        err = capsys.readouterr().err
        assert_one_line_data_error(rc, err, f"{field} must be finite", kind="ConfigError", code=2)
        assert not (tmp_path / "out" / f"resolved_config_{command}.txt").exists()

    @pytest.mark.parametrize(
        "stage,value,fragment",
        [
            (["train", "--modality", "XYZ"], None, "unknown modality name 'XYZ'"),
            (["synth", "--effect", "CVD:XYZ=1"], None, "unknown modality name 'XYZ'"),
            (["train"], "[run]\nmodalities = XYZ\n", "unknown modality name 'XYZ'"),
            (["eval", "--outcomes", "CVD,CVD"], None, "duplicate outcome 'CVD'"),
            (["synth", "--prevalence", "CVD=0.4", "--prevalence", "CVD=0.1"], None,
             "duplicate prevalence outcome 'CVD'"),
            (["synth", "--effect", "CVD:ECG=1", "--effect", "CVD:ECG=0"], None,
             "duplicate effect 'CVD:ECG'"),
            (["fit"], "[synth]\neffects = CVD:ECG=1,CVD:ecg=0\n", "duplicate effect 'CVD:ECG'"),
        ],
    )
    def test_bad_list_entry_is_usage_error(self, tmp_path, capsys, stage, value, fragment):
        """An unknown modality or a repeated entry in a list value, from a
        flag or the INI file, is refused before the stage reads any input."""
        command, *flags = stage
        if value is not None:
            ini = tmp_path / "bad.ini"
            ini.write_text(value, encoding="utf-8")
            flags += ["--config", ini]
        inputs = {
            "synth": ["--subjects", 4, "--segments", 1],
            "train": ["--data", tmp_path / "none"],
            "eval": ["--data", tmp_path / "none", "--scores", tmp_path / "none.csv"],
            "fit": ["--data", tmp_path / "none", "--scores", tmp_path / "none.csv"],
        }[command]
        rc = run_cli(command, "--out", tmp_path / "out", *inputs, *flags)
        err = capsys.readouterr().err
        assert_one_line_data_error(rc, err, fragment, kind="ConfigError", code=2)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("modality", ["all", "ECG,RESP"])
    def test_report_of_several_modalities_is_usage_error(self, chain, capsys, modality):
        rc = run_cli(
            "report", "--out", chain["root"] / "r3", "--config", chain["ini"],
            "--data", chain["data"], "--scores", chain["scores"] / "scores.csv",
            "--subject", "S0001", "--modality", modality, "--seed", 5,
        )
        err = capsys.readouterr().err
        assert_one_line_data_error(rc, err, "one modality", kind="UsageError", code=2)

    def test_unknown_report_subject_is_data_error(self, chain, capsys):
        rc = run_cli(
            "report", "--out", chain["root"] / "r2", "--config", chain["ini"],
            "--data", chain["data"], "--scores", chain["scores"] / "scores.csv",
            "--subject", "S9999", "--modality", "RESP", "--seed", 5,
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert "S9999" in err

    def test_report_takes_its_modality_from_the_ini(self, chain, tmp_path, capsys):
        """``modalities = RESP`` in the chain's INI file names report's one
        modality, as it does for every other stage."""
        rc = run_cli(
            "report", "--out", tmp_path / "r", "--config", chain["ini"], "--data", chain["data"],
            "--scores", chain["scores"] / "scores.csv", "--subject", "S0001", "--seed", 5,
        )
        assert rc == 0
        assert tree_bytes(tmp_path / "r") == tree_bytes(chain["report"])

    def test_report_without_a_modality_is_usage_error(self, chain, tmp_path, capsys):
        rc = run_cli(
            "report", "--out", tmp_path / "r", "--data", chain["data"],
            "--scores", chain["scores"] / "scores.csv", "--subject", "S0001", "--seed", 5,
        )
        err = capsys.readouterr().err
        assert_one_line_data_error(rc, err, "one modality, got EEG,ECG,RESP", kind="UsageError", code=2)
        assert not (tmp_path / "r" / "resolved_config_report.txt").exists()

    @pytest.mark.parametrize(
        "argv,ini,field",
        [
            (["train", "--data", "d", "--steps", "abc"], None, "'steps' has invalid value 'abc'"),
            (["vectors", "--data", "d", "--embeddings", "e", "--split-ratio", "x"], None,
             "'split_ratio' has invalid value 'x'"),
            (["eval", "--data", "d", "--scores", "s", "--threads", "2.5"], None,
             "'threads' has invalid value '2.5'"),
            (["train", "--data", "d"], "[run]\nseed = seven\n", "'seed' has invalid value 'seven'"),
            (["train", "--data", "d", "--precision", "f16"], None, "precision must be f32 or f64, got 'f16'"),
        ],
    )
    def test_malformed_value_is_one_config_error_line(self, tmp_path, capsys, argv, ini, field):
        """A flag's text goes through the parser of its field's INI value:
        one ``error:`` line naming the field, and no usage block."""
        if ini is not None:
            (tmp_path / "bad.ini").write_text(ini, encoding="utf-8")
            argv = [*argv, "--config", tmp_path / "bad.ini"]
        rc = run_cli(argv[0], "--out", tmp_path / "out", *argv[1:])
        err = capsys.readouterr().err
        assert_one_line_data_error(rc, err, field, kind="ConfigError", code=2)
        assert "usage:" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "vectors", "eval"])
    @pytest.mark.parametrize(
        "ini,fragment",
        [
            ("[run]\nthreads = 0\n", "threads must be >= 1"),
            ("[model]\nprecision = f16\n", "precision must be f32 or f64, got 'f16'"),
            ("[model]\nembed_dim = 30\n", "embed_dim must be a positive multiple of n_heads"),
            ("[model]\nn_heads = 0\n", "n_heads must be positive"),
            ("[ssl]\nbatch_size = 1\n", "batch_size must be >= 2"),
            ("[synth]\naffected_fraction = 1.5\n", "affected_fraction must lie in (0, 1]"),
        ],
        ids=["run", "model-precision", "model-embed_dim", "model-n_heads", "ssl", "synth"],
    )
    def test_invalid_value_of_any_section_is_refused_at_every_stage(
        self, tmp_path, capsys, command, ini, fragment
    ):
        """Each value is checked by the dataclass that owns it once flags
        apply, whether or not the stage uses it."""
        (tmp_path / "bad.ini").write_text(ini, encoding="utf-8")
        inputs = {
            "synth": ["--subjects", 4, "--segments", 1, "--prevalence", "CVD=0.5"],
            "train": ["--data", tmp_path / "none"],
            "vectors": ["--data", tmp_path / "none", "--embeddings", tmp_path / "none"],
            "eval": ["--data", tmp_path / "none", "--scores", tmp_path / "none.csv"],
        }[command]
        rc = run_cli(command, "--out", tmp_path / "out", "--config", tmp_path / "bad.ini", *inputs)
        err = capsys.readouterr().err
        assert_one_line_data_error(rc, err, fragment, kind="ConfigError", code=2)
        assert not (tmp_path / "out" / f"resolved_config_{command}.txt").exists()

    def test_flag_can_mend_an_ini_value(self, tmp_path, capsys):
        """The merged values are checked, not the file alone: n_heads = 3
        does not divide the default width 32, but it divides --embed-dim 48."""
        ini = tmp_path / "heads.ini"
        ini.write_text("[model]\nn_heads = 3\n", encoding="utf-8")
        argv = ["--out", tmp_path / "out", "--config", ini, "--subjects", 4, "--segments", 1]
        assert run_cli("synth", *argv) == 2
        assert "multiple of n_heads" in capsys.readouterr().err
        cfg = _resolve_config(build_parser().parse_args(
            ["train", "--out", "x", "--data", "d", "--config", str(ini), "--embed-dim", "48"]
        ))
        assert (cfg.n_heads, cfg.embed_dim) == (3, 48)


def corrupt_cell(src: Path, dst: Path, line: int, column: int, value: str | list[str] | None) -> None:
    """Copy a CSV with one cell replaced (``value=None`` drops the cell, a
    list replaces it with several)."""
    with src.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if value is None:
        value = []
    rows[line - 1][column:column + 1] = [value] if isinstance(value, str) else value
    dst.parent.mkdir(parents=True, exist_ok=True)
    with dst.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def model_config(ini: Path, modality: Modality) -> mdl.ModelConfig:
    """The model config a run of ``ini`` trains for ``modality``."""
    return stage_configs(replace(load_run_config(ini), modalities=(modality,))).models[modality]


def assert_one_line_data_error(rc: int, err: str, *fragments: str, kind: str = "FormatError", code: int = 3) -> None:
    assert rc == code
    assert "Traceback" not in err
    assert err.startswith(f"error: {kind}:")
    assert err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


class TestCorruptTextTables:
    """One bad cell in a text table is a data error (exit 3, one line)."""

    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize(
        "column,value",
        [(3, "high"), (4, "3.5"), (4, ""), (3, "nan"), (3, "inf"), (3, "-inf"),
         (2, "XYZ"), (4, "-1"), (4, None), (4, ["3", "0"])],
    )
    def test_score_table_cell(self, chain, tmp_path, capsys, command, column, value):
        scores = tmp_path / "scores.csv"
        corrupt_cell(chain["scores"] / "scores.csv", scores, 4, column, value)
        rc = run_cli(
            command, "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--scores", scores, "--seed", 5,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, str(scores), "line 4")

    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("column,value,kind", [
        (1, "CVD ", "outcome"), (1, "", "outcome"), (0, " S0001", "subject id"), (0, "S/1", "subject id"),
    ])
    def test_score_table_name_cell(self, chain, tmp_path, capsys, command, column, value, kind):
        """A subject id or outcome in ``scores.csv`` follows the manifest's
        name rule: ``CVD `` is refused, not read as an outcome no subject
        has (which gave an all-NA grid and exit 0)."""
        scores = tmp_path / "scores.csv"
        corrupt_cell(chain["scores"] / "scores.csv", scores, 4, column, value)
        rc = run_cli(
            command, "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--scores", scores, "--seed", 5,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, f"{scores}: line 4: {kind} {value!r}")

    @pytest.mark.parametrize(
        "key,value",
        [("n_positive", "many"), ("n_negative", "1.5"), ("outcome", None), ("modality", None)],
    )
    def test_disease_vector_field(self, chain, tmp_path, capsys, key, value):
        src = chain["vectors"] / "vectors" / "vectors.csv"
        column = src.read_text(encoding="utf-8").split("\n", 1)[0].split(",").index(key)
        table = tmp_path / "vectors" / "vectors.csv"
        corrupt_cell(src, table, 2, column, value)
        rc = run_cli(
            "score", "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--embeddings", chain["emb"], "--vectors", table.parent,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, str(table), "line 2")

    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("cut", [1, 2])
    def test_score_table_cut_short(self, chain, tmp_path, capsys, command, cut):
        """The last row's count is 12: one byte short it loses its line
        break, two bytes short its count reads 1. Both are refused at the
        last line."""
        lines = (chain["scores"] / "scores.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-1] = lines[-1].rpartition(",")[0] + ",12\n"
        scores = tmp_path / "scores.csv"
        scores.write_bytes("".join(lines).encode("utf-8")[:-cut])
        rc = run_cli(
            command, "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--scores", scores, "--seed", 5,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, str(scores), f"line {len(lines)}:")

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_score_table_repeated_row(self, chain, tmp_path, capsys, command):
        scores = tmp_path / "scores.csv"
        lines = (chain["scores"] / "scores.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        scores.write_text("".join(lines[:4] + lines[2:3] + lines[4:]), encoding="utf-8")
        rc = run_cli(
            command, "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--scores", scores, "--seed", 5,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, str(scores), "line 5 repeats")

    @pytest.mark.parametrize(
        "column,value",
        [(2, "first"), (5, "0.1.2"), (7, None), (5, "nan"), (5, "inf"), (5, "-inf"), (1, "ECG"),
         # a segment index is plain ASCII digits, as the writer prints it
         (2, "1_0"), (2, " 1"), (2, "1 "), (2, "+1"), (2, "-1"), (2, "\u0661")],
    )
    def test_embeddings_table_cell(self, chain, tmp_path, capsys, column, value):
        emb = tmp_path / "emb"
        table = emb / "RESP" / "embeddings.csv"
        corrupt_cell(chain["emb"] / "RESP" / "embeddings.csv", table, 6, column, value)
        rc = run_cli(
            "vectors", "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--embeddings", emb, "--seed", 5,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, str(table), "line 6")

    @pytest.mark.parametrize(
        "modality,cell", [("RESP", "ecg"), ("RESP", " RESP"), ("RESP", "resp"), ("ECG", "ecg")]
    )
    def test_embeddings_modality_cell_is_the_table_name(self, chain, tmp_path, capsys, modality, cell):
        """The modality cell reads exactly the table's modality, not any
        spelling ``Modality.parse`` would take."""
        text = (chain["emb"] / "RESP" / "embeddings.csv").read_text(encoding="utf-8")
        src = tmp_path / "src.csv"
        src.write_text(text.replace(",RESP,", f",{modality},"), encoding="utf-8")
        emb = tmp_path / "emb"
        table = emb / modality / "embeddings.csv"
        corrupt_cell(src, table, 6, 1, cell)
        rc = run_cli(
            "vectors", "--out", tmp_path / "out", "--config", chain["ini"], "--data", chain["data"],
            "--embeddings", emb, "--modality", modality, "--seed", 5,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, str(table), "line 6", repr(cell))

    @pytest.mark.parametrize("command", ["vectors", "score"])
    @pytest.mark.parametrize("same_values", [True, False])
    def test_embeddings_repeated_segment(self, chain, tmp_path, capsys, command, same_values):
        """A (subject, segment_index) pair on two lines is refused at the
        second, whether or not its values differ."""
        lines = (chain["emb"] / "RESP" / "embeddings.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[2][:-1].split(",")
        again = lines[2] if same_values else ",".join(cells[:3] + ["0.5"] * (len(cells) - 3)) + "\n"
        table = tmp_path / "emb" / "RESP" / "embeddings.csv"
        table.parent.mkdir(parents=True)
        table.write_text("".join(lines[:7] + [again] + lines[7:]), encoding="utf-8")
        sid, _, index = cells[:3]
        inputs = ["--vectors", chain["vectors"] / "vectors"] if command == "score" else ["--seed", 5]
        rc = run_cli(
            command, "--out", tmp_path / "out", "--config", chain["ini"], "--data", chain["data"],
            "--embeddings", tmp_path / "emb", *inputs,
        )
        assert_one_line_data_error(
            rc, capsys.readouterr().err, str(table),
            f"line 8 repeats line 3: subject {sid!r}, segment_index {index}",
        )

    def test_embeddings_segment_index_out_of_range(self, chain, tmp_path, capsys):
        table = tmp_path / "emb" / "RESP" / "embeddings.csv"
        corrupt_cell(chain["emb"] / "RESP" / "embeddings.csv", table, 6, 2, str(2**63))
        rc = run_cli(
            "vectors", "--out", tmp_path / "out", "--config", chain["ini"], "--data", chain["data"],
            "--embeddings", tmp_path / "emb", "--seed", 5,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, str(table), "line 6: segment index out of range")


class TestScoreVectorsDirectory:
    """``score --vectors DIR`` reads ``DIR/vectors.csv`` and nothing else of DIR."""

    def score(self, chain, tmp_path, vec_dir) -> int:
        return run_cli(
            "score", "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--embeddings", chain["emb"], "--vectors", vec_dir,
        )

    def test_vectors_stage_out_dir_names_its_vectors_subdir(self, chain, tmp_path, capsys):
        rc = self.score(chain, tmp_path, chain["vectors"])
        assert_one_line_data_error(
            rc, capsys.readouterr().err, f"not found: {chain['vectors'] / 'vectors.csv'};",
            f"pass --vectors {chain['vectors'] / 'vectors'}", kind="MissingInputError",
        )

    def test_other_txt_files_are_ignored(self, chain, tmp_path):
        vec_dir = tmp_path / "vectors"
        vec_dir.mkdir()
        (vec_dir / "vectors.csv").write_bytes((chain["vectors"] / "vectors" / "vectors.csv").read_bytes())
        (vec_dir / "resolved_config_vectors.txt").write_bytes(
            (chain["vectors"] / "resolved_config_vectors.txt").read_bytes()
        )
        (vec_dir / "notes.txt").write_text("not a vector\n", encoding="utf-8")
        (vec_dir / "CVD_RESP.txt").write_text("outcome=CVD\nmodality=RESP\n", encoding="utf-8")
        assert self.score(chain, tmp_path, vec_dir) == 0
        assert (tmp_path / "out" / "scores.csv").read_bytes() == (chain["scores"] / "scores.csv").read_bytes()

    def test_a_directory_of_vector_files_is_refused(self, chain, tmp_path, capsys):
        """``<outcome>_<MODALITY>.txt`` files are not read: re-run ``vectors``."""
        vec_dir = tmp_path / "vectors"
        vec_dir.mkdir()
        (vec_dir / "CVD_RESP.txt").write_text("outcome=CVD\nmodality=RESP\n", encoding="utf-8")
        rc = self.score(chain, tmp_path, vec_dir)
        assert_one_line_data_error(
            rc, capsys.readouterr().err, f"not found: {vec_dir / 'vectors.csv'}", kind="MissingInputError"
        )

    @pytest.mark.parametrize("modalities", ["EEG", "RESP,EEG", "ECG,RESP,EEG"])
    def test_an_asked_modality_without_a_vector_is_refused(self, chain, tmp_path, capsys, modalities):
        """The table holds RESP alone: a score table without the asked
        modalities' rows would leave ``eval`` nothing but NA cells."""
        text = (chain["emb"] / "RESP" / "embeddings.csv").read_text(encoding="utf-8")
        emb = tmp_path / "emb"
        for name in modalities.split(","):
            (emb / name).mkdir(parents=True)
            (emb / name / "embeddings.csv").write_text(text.replace(",RESP,", f",{name},"), encoding="utf-8")
        table = chain["vectors"] / "vectors" / "vectors.csv"
        rc = run_cli(
            "score", "--out", tmp_path / "out", "--config", chain["ini"], "--data", chain["data"],
            "--embeddings", emb, "--vectors", table.parent, "--modality", modalities,
        )
        missing = ",".join(m for m in modalities.split(",") if m != "RESP")
        assert_one_line_data_error(
            rc, capsys.readouterr().err, f"{table} has no disease vector for {missing}\n",
            kind="MissingInputError",
        )
        assert not (tmp_path / "out" / "scores.csv").exists()


class TestThreadsResolution:
    def test_zero_threads_in_ini_is_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "threads.ini"
        ini.write_text("[run]\nthreads = 0\n", encoding="utf-8")
        rc = run_cli(
            "synth", "--out", tmp_path / "s", "--config", ini, "--seed", 1, "--subjects", 4,
            "--segments", 1, "--prevalence", "CVD=0.5",
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: ConfigError: threads must be >= 1\n"
        assert not (tmp_path / "s" / "resolved_config_synth.txt").exists()


# Stage arguments: the paths, --subject and argparse's own. Every other flag
# sets the RunConfig field its dest names, so the stage's snapshot records it.
STAGE_DESTS = {
    "out", "config", "data", "models", "embeddings", "vectors", "scores", "subject", "command", "func",
}


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# Each stage's flags as argparse holds them: (option, dest, action, required,
# metavar, choices), in order, as the parser declared them before its flag
# table; since then report's --modality is no longer required and
# --precision has no choices (the merged config checks its value).
COMMON_FLAGS = [
    ("--config", "config", "store", False, None, None),
    ("--out", "out", "store", True, None, None),
    ("--seed", "seed", "store", False, None, None),
    ("--threads", "threads", "store", False, None, None),
]
STAGE_FLAGS = {
    "synth": [
        ("--subjects", "n_subjects", "store", False, "SUBJECTS", None),
        ("--segments", "segments_per_subject", "store", False, "SEGMENTS", None),
        ("--prevalence", "prevalence", "append", False, "NAME=P", None),
        ("--effect", "effects", "append", False, "OUTCOME:MODALITY=SIZE", None),
        ("--noise-sigma", "noise_sigma", "store", False, None, None),
        ("--affected-fraction", "affected_fraction", "store", False, None, None),
    ],
    "train": [
        ("--data", "data", "store", True, None, None),
        ("--modality", "modalities", "store", False, "MODALITY", None),
        ("--split-ratio", "split_ratio", "store", False, None, None),
        ("--steps", "steps", "store", False, None, None),
        ("--batch-size", "batch_size", "store", False, None, None),
        ("--learning-rate", "learning_rate", "store", False, None, None),
        ("--mask-ratio", "mask_ratio", "store", False, None, None),
        ("--permutations", "n_permutations", "store", False, "PERMUTATIONS", None),
        ("--tcr-weight", "tcr_weight", "store", False, None, None),
        ("--tcr-epsilon", "tcr_epsilon", "store", False, None, None),
        ("--embed-dim", "embed_dim", "store", False, None, None),
        ("--precision", "precision", "store", False, None, None),
    ],
    "embed": [
        ("--data", "data", "store", True, None, None),
        ("--models", "models", "store", True, None, None),
        ("--modality", "modalities", "store", False, "MODALITY", None),
        ("--embed-dim", "embed_dim", "store", False, None, None),
        ("--precision", "precision", "store", False, None, None),
    ],
    "vectors": [
        ("--data", "data", "store", True, None, None),
        ("--embeddings", "embeddings", "store", True, None, None),
        ("--modality", "modalities", "store", False, "MODALITY", None),
        ("--outcomes", "outcomes", "store", False, None, None),
        ("--split-ratio", "split_ratio", "store", False, None, None),
    ],
    "score": [
        ("--data", "data", "store", True, None, None),
        ("--embeddings", "embeddings", "store", True, None, None),
        ("--vectors", "vectors", "store", True, None, None),
        ("--modality", "modalities", "store", False, "MODALITY", None),
    ],
    "fit": [
        ("--data", "data", "store", True, None, None),
        ("--scores", "scores", "store", True, None, None),
        ("--modality", "modalities", "store", False, "MODALITY", None),
        ("--outcomes", "outcomes", "store", False, None, None),
        ("--split-ratio", "split_ratio", "store", False, None, None),
    ],
    "eval": [
        ("--data", "data", "store", True, None, None),
        ("--scores", "scores", "store", True, None, None),
        ("--outcomes", "outcomes", "store", False, None, None),
        ("--split-ratio", "split_ratio", "store", False, None, None),
    ],
    "report": [
        ("--data", "data", "store", True, None, None),
        ("--scores", "scores", "store", True, None, None),
        ("--subject", "subject", "store", True, None, None),
        ("--modality", "modalities", "store", False, "MODALITY", None),
        ("--outcomes", "outcomes", "store", False, None, None),
        ("--split-ratio", "split_ratio", "store", False, None, None),
    ],
}
ACTION_NAMES = {
    argparse._StoreAction: "store",
    argparse._AppendAction: "append",
}


class TestStageFlags:
    def test_stages(self):
        assert list(subcommand_parsers()) == list(STAGE_FLAGS)

    @pytest.mark.parametrize("command", list(STAGE_FLAGS))
    def test_flags_of_each_stage(self, command):
        actions = [a for a in subcommand_parsers()[command]._actions if not isinstance(a, argparse._HelpAction)]
        got = [
            (*a.option_strings, a.dest, ACTION_NAMES[type(a)], a.required, a.metavar,
             tuple(a.choices) if a.choices else None)
            for a in actions
        ]
        assert got == COMMON_FLAGS + STAGE_FLAGS[command]
        # every value is text until _resolve_config parses it like an INI value
        assert [a.option_strings for a in actions if a.type is not None] == []

    def test_each_flag_has_one_declaration(self):
        """A flag that several stages take reads the same in each."""
        seen: dict[str, tuple] = {}
        for command, sp in subcommand_parsers().items():
            for a in sp._actions:
                kwargs = (a.dest, type(a), a.required, a.metavar, a.choices, a.help)
                assert seen.setdefault(a.option_strings[-1], kwargs) == kwargs, (command, a.option_strings)
        assert len(seen) == 1 + 28  # --help and the 28 flags


class TestFlagsNameTheirFields:
    @pytest.mark.parametrize("command", sorted(subcommand_parsers()))
    def test_every_dest_is_a_field_or_a_stage_argument(self, command):
        sp = subcommand_parsers()[command]
        dests = {a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)}
        dests |= set(sp._defaults) | {"command"}
        names = {f.name for f in fields(RunConfig)}
        assert not STAGE_DESTS & names
        assert not dests - names - STAGE_DESTS

    @pytest.mark.parametrize(
        "argv,field,want",
        [
            (["synth", "--seed", "4"], "seed", 4),
            (["synth", "--threads", "3"], "threads", 3),
            (["synth", "--subjects", "7"], "n_subjects", 7),
            (["synth", "--segments", "3"], "segments_per_subject", 3),
            (["vectors", "--data", "d", "--embeddings", "e", "--split-ratio", "0.7"], "split_ratio", 0.7),
            (["synth", "--noise-sigma", "0.5"], "noise_sigma", 0.5),
            (["synth", "--affected-fraction", "0.2"], "affected_fraction", 0.2),
            (["synth", "--prevalence", "CVD=0.5", "--prevalence", "HTN=0.1"],
             "prevalence", (("CVD", 0.5), ("HTN", 0.1))),
            (["synth", "--prevalence", "CVD=0.5", "--prevalence", "HTN=0.1",
              "--effect", "CVD:ecg=2", "--effect", "HTN:EEG=1.5"],
             "effects", (("CVD", "ECG", 2.0), ("HTN", "EEG", 1.5))),
            (["train", "--data", "d", "--modality", "ECG,resp"],
             "modalities", (Modality.ECG, Modality.RESP)),
            (["train", "--data", "d", "--permutations", "6"], "n_permutations", 6),
            (["train", "--data", "d", "--steps", "9"], "steps", 9),
            (["train", "--data", "d", "--batch-size", "5"], "batch_size", 5),
            (["train", "--data", "d", "--learning-rate", "0.01"], "learning_rate", 0.01),
            (["train", "--data", "d", "--mask-ratio", "0.25"], "mask_ratio", 0.25),
            (["train", "--data", "d", "--tcr-weight", "0.5"], "tcr_weight", 0.5),
            (["train", "--data", "d", "--tcr-epsilon", "0.1"], "tcr_epsilon", 0.1),
            (["train", "--data", "d", "--embed-dim", "16"], "embed_dim", 16),
            (["train", "--data", "d", "--precision", "f64"], "precision", "f64"),
            (["embed", "--data", "d", "--models", "m", "--threads", "2"], "threads", 2),
            (["train", "--data", "d", "--split-ratio", "0.6"], "split_ratio", 0.6),
            (["vectors", "--data", "d", "--embeddings", "e", "--outcomes", "CVD, HTN"],
             "outcomes", ("CVD", "HTN")),
            (["report", "--data", "d", "--scores", "s", "--subject", "S1", "--modality", "ecg"],
             "modalities", (Modality.ECG,)),
        ],
    )
    def test_flag_sets_its_field(self, argv, field, want):
        cfg = _resolve_config(build_parser().parse_args([argv[0], "--out", "x", *argv[1:]]))
        assert getattr(cfg, field) == want
        assert getattr(RunConfig(), field) != want


def _key_arrays(keys: list[tuple[str, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The subject-id and segment-index arrays ``_write_embeddings_csv`` takes."""
    return np.array([k[0] for k in keys], dtype=str), np.array([k[1] for k in keys], dtype=np.int64)


def oracle_read_embeddings(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The table parse the streaming reader replaced: csv.reader and float() per cell."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    ids = np.array([r[0] for r in rows], dtype=str)
    X = np.array([[float(c) for c in r[3:]] for r in rows], dtype=np.float64)
    return ids, X.astype(np.float32)


class TestEmbeddingsReader:
    """``_embedding_chunks``, joined, against the csv.reader + float() oracle."""

    SPECIAL = np.array(
        [0.0, -0.0, 1e-45, -1e-45, 3e-40, 1.1754942e-38, 3.4028235e38, -3.4028235e38,
         0.123456789, -1.00000012, 123456789.0, 9.99999944e-11],
        dtype=np.float32,
    )

    def assert_matches_oracle(self, path: Path, modality=Modality.RESP):
        ids, X = read_embeddings(path, modality)
        want_ids, want_X = oracle_read_embeddings(path)
        assert ids.tolist() == want_ids.tolist()
        assert X.dtype == np.float32 and X.shape == want_X.shape
        assert X.tobytes() == want_X.tobytes()
        return ids, X

    @pytest.mark.parametrize("d", [1, 32])
    @pytest.mark.parametrize("n", [1, 50])
    def test_writer_tables_bit_identical(self, tmp_path, d, n):
        rng = np.random.default_rng(d * 100 + n)
        X = rng.standard_normal((n, d)).astype(np.float32)
        flat = X.reshape(-1)
        flat[: min(flat.size, self.SPECIAL.size)] = self.SPECIAL[: flat.size]
        keys = [(f"S{i % 7:04d}", i) for i in range(n)]
        path = tmp_path / "embeddings.csv"
        _write_embeddings_csv(path, *_key_arrays(keys), X, Modality.RESP)
        ids, got = self.assert_matches_oracle(path)
        assert ids.tolist() == [k[0] for k in keys]
        assert got.tobytes() == X.tobytes()  # the writer's .9g round-trips float32
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        self.assert_matches_oracle(crlf)

    def test_every_special_value_in_one_row(self, tmp_path):
        path = tmp_path / "embeddings.csv"
        _write_embeddings_csv(path, *_key_arrays([("S0001", 0)]), self.SPECIAL[None, :], Modality.RESP)
        _, X = self.assert_matches_oracle(path)
        assert np.signbit(X[0, 1]) and X[0, 2] > 0 and X[0, 6] == np.finfo(np.float32).max

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sid", ["S0001"])
    def test_writer_bytes_equal_csv_writer_rows(self, tmp_path, sid, dtype):
        """One ``%`` per row writes the bytes of a ``csv.writer`` row of
        ``format(float(v), ".9g")`` cells."""
        X = np.concatenate([self.SPECIAL[None, :], np.random.default_rng(3).standard_normal((3, 12))])
        X = X.astype(dtype)
        keys = [(sid, 0), (sid, 1), ("S0002", 0), (sid, 2)]
        path = tmp_path / "embeddings.csv"
        _write_embeddings_csv(path, *_key_arrays(keys), X, Modality.ECG)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["subject_id", "modality", "segment_index"] + [f"v{i}" for i in range(12)])
        for (key, idx), vec in zip(keys, X):
            writer.writerow([key, "ECG", idx] + [format(float(v), ".9g") for v in vec])
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_segment_against_a_set_oracle(self, tmp_path, seed):
        """The sorted-pair check names the line a per-row ``set`` scan stops
        at, and the earlier line holding the same pair."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        keys = [(f"S{rng.integers(4)}", int(rng.integers(15))) for _ in range(n)]
        if seed % 2:
            keys = list(dict.fromkeys(keys))  # the same keys, each once, out of order
        n = len(keys)
        path = tmp_path / "embeddings.csv"
        _write_embeddings_csv(path, *_key_arrays(keys), np.ones((n, 2), np.float32), Modality.RESP)
        first_line: dict[tuple[str, int], int] = {}
        for lineno, key in enumerate(keys, start=2):
            if key in first_line:
                with pytest.raises(FormatError, match=f"line {lineno} repeats line {first_line[key]}: "
                                   f"subject '{key[0]}', segment_index {key[1]}$"):
                    read_embeddings(path, Modality.RESP)
                break
            first_line[key] = lineno
        else:
            assert read_embeddings(path, Modality.RESP)[0].tolist() == [sid for sid, _ in keys]

    def test_line_break_in_subject_id_is_refused(self, tmp_path):
        path = tmp_path / "embeddings.csv"
        _write_embeddings_csv(path, *_key_arrays([("S1", 0), ("a\nb", 1)]), np.ones((2, 2), np.float32), Modality.RESP)
        with pytest.raises(FormatError, match="line 3"):
            read_embeddings(path, Modality.RESP)

    @pytest.mark.parametrize("value", ["", " ", "1_0"])
    def test_bad_value_in_one_column_table(self, tmp_path, value):
        """d = 1: an empty value would be a blank line to loadtxt, not a row."""
        path = tmp_path / "embeddings.csv"
        _write_embeddings_csv(path, *_key_arrays([("S1", i) for i in range(4)]), np.ones((4, 1), np.float32), Modality.RESP)
        path.write_text(path.read_text(encoding="utf-8").replace("S1,RESP,2,1", f"S1,RESP,2,{value}"))
        with pytest.raises(FormatError, match="line 4"):
            read_embeddings(path, Modality.RESP)

    def test_last_line_cut_inside_a_number_is_refused(self, tmp_path):
        path = tmp_path / "embeddings.csv"
        X = np.full((2, 2), 0.123456789, np.float32)
        _write_embeddings_csv(path, *_key_arrays([("S1", 0), ("S1", 1)]), X, Modality.RESP)
        path.write_bytes(path.read_bytes()[:-4])  # the cut cell still reads as a number
        with pytest.raises(FormatError, match="line 3"):
            read_embeddings(path, Modality.RESP)

    def test_header_only_table_is_empty(self, tmp_path):
        path = tmp_path / "embeddings.csv"
        _write_embeddings_csv(path, *_key_arrays([]), np.empty((0, 4), np.float32), Modality.RESP)
        ids, X = read_embeddings(path, Modality.RESP)
        assert ids.shape == (0,) and X.shape == (0, 4) and X.dtype == np.float32

    @pytest.mark.parametrize("names,message", [
        ("foo,bar", "unexpected embeddings header"),
        ("v1,v0", "unexpected embeddings header"),
        ("v0,v0", "unexpected embeddings header"),
        ("v0,v1,", "unexpected embeddings header"),
        ("", "unexpected embeddings header"),
        ("v0", "line 2 has 5 cells, header has 4"),
        ("v0,v1,v2", "line 2 has 5 cells, header has 6"),
    ])
    def test_header_names_every_value_column_in_order(self, tmp_path, names, message):
        """The header is exactly subject_id,modality,segment_index,v0,...,v{d-1};
        the one row here has two values."""
        path = tmp_path / "embeddings.csv"
        _write_embeddings_csv(path, *_key_arrays([("S1", 0)]), np.ones((1, 2), np.float32), Modality.RESP)
        path.write_text(path.read_text(encoding="utf-8").replace("v0,v1", names), encoding="utf-8")
        with pytest.raises(FormatError, match=f"{re.escape(message)}$"):
            read_embeddings(path, Modality.RESP)

    @pytest.mark.parametrize("first,second", [(("5", "x"), ("1", "ECG")), (("1", "ECG"), ("5", "x"))])
    def test_first_bad_line_in_file_order(self, tmp_path, first, second):
        """With two bad lines far apart the earlier one is named, whichever
        check (key cell or number) it fails."""
        path = tmp_path / "embeddings.csv"
        n = 3000
        X = np.random.default_rng(3).standard_normal((n, 4)).astype(np.float32)
        _write_embeddings_csv(path, *_key_arrays([(f"S{i:05d}", i) for i in range(n)]), X, Modality.RESP)
        lines = path.read_text(encoding="utf-8").split("\n")
        for lineno, (column, value) in ((400, first), (2600, second)):
            cells = lines[lineno - 1].split(",")
            cells[int(column)] = value
            lines[lineno - 1] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(FormatError, match="line 400[:]"):
            read_embeddings(path, Modality.RESP)

    def test_non_finite_value_before_a_bad_key_cell(self, tmp_path):
        """A value float32 cannot hold is a bad line like any other: with
        ``1e39`` on line 2 and a stray modality on line 4, line 2 is named."""
        path = tmp_path / "embeddings.csv"
        _write_embeddings_csv(path, *_key_arrays([("S1", i) for i in range(4)]), np.ones((4, 2), np.float32), Modality.RESP)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[1] = "S1,RESP,0,1e39,1"
        lines[3] = "S1,ECG,2,1,1"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: non-finite embedding value$"):
            read_embeddings(path, Modality.RESP)

    def test_out_of_range_index_before_a_later_bad_key_cell(self, tmp_path):
        """A segment index past int64 is a bad line like any other: with one
        on line 4 and a stray modality on line 4001, chunks apart, line 4 is
        named."""
        path = tmp_path / "embeddings.csv"
        n = 4000
        X = np.random.default_rng(5).standard_normal((n, 1)).astype(np.float32)
        _write_embeddings_csv(path, *_key_arrays([(f"S{i:05d}", 0) for i in range(n)]), X, Modality.ECG)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[3] = lines[3].replace(",ECG,0,", ",ECG,99999999999999999999,")
        lines[4000] = lines[4000].replace(",ECG,", ",EEG,")
        path.write_text("\n".join(lines), encoding="utf-8")
        assert len("\n".join(lines[:4000])) > psgp.cli._CHUNK_CHARS
        with pytest.raises(FormatError, match="line 4: segment index out of range$"):
            read_embeddings(path, Modality.ECG)

    def test_non_finite_value_before_an_earlier_repeated_segment(self, tmp_path):
        """A value float32 cannot hold is refused as its chunk is read; a
        repeated (subject, segment_index) pair only after the last chunk. So
        with line 3 repeating line 2 and ``1e39`` on line 5, line 5 is named."""
        path = tmp_path / "embeddings.csv"
        keys = [("S1", 0), ("S1", 0), ("S1", 1), ("S1", 2)]
        _write_embeddings_csv(path, *_key_arrays(keys), np.ones((4, 2), np.float32), Modality.RESP)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[4] = "S1,RESP,2,1,1e39"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(FormatError, match="line 5: non-finite embedding value$"):
            read_embeddings(path, Modality.RESP)
        lines[4] = "S1,RESP,2,1,1"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(FormatError, match="line 3 repeats line 2: subject 'S1', segment_index 0$"):
            read_embeddings(path, Modality.RESP)

    # --- chunk boundaries of the bulk pass ---

    CHUNK = 3  # lines per bulk chunk in the tests below

    def chunked_table(self, tmp_path, monkeypatch, n: int, d: int = 4) -> tuple[Path, list[str]]:
        """An n-row table whose lines all have one length, read in chunks of
        CHUNK lines; returns its path and its lines (without line ends).
        Header: line 1; chunk k: lines 3k - 1 to 3k + 1."""
        path = tmp_path / "embeddings.csv"
        keys = [(f"S{i:04d}", 7) for i in range(n)]
        _write_embeddings_csv(path, *_key_arrays(keys), np.full((n, d), 0.25, np.float32), Modality.RESP)
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        (length,) = {len(line) + 1 for line in lines[1:]}
        monkeypatch.setattr("psgp.cli._CHUNK_CHARS", self.CHUNK * length - 1)
        return path, lines

    @staticmethod
    def set_cell(lines: list[str], lineno: int, column: int, value: str) -> None:
        cells = lines[lineno - 1].split(",")
        cells[column] = value
        lines[lineno - 1] = ",".join(cells)

    @staticmethod
    def count_parses(monkeypatch) -> list[int]:
        """Spy on the reader's np.loadtxt calls; returns the list of their row counts."""
        calls: list[int] = []

        def spy(rows):
            calls.append(len(rows))
            return decimal_rows(rows)

        decimal_rows = psgp.cli._decimal_rows
        monkeypatch.setattr("psgp.cli._decimal_rows", spy)
        return calls

    @pytest.mark.parametrize("d,column,value,message", [
        (4, 1, "ECG", "modality 'ECG' in the RESP table"),
        (4, 2, "x", "segment_index 'x' is not a non-negative integer"),
        (4, 2, "", "segment_index '' is not a non-negative integer"),
        (4, 5, "abc", "'abc' is not a decimal number"),
        (4, 3, "", "'' is not a decimal number"),
        (1, 3, "", "'' is not a decimal number"),
    ])
    def test_bad_cell_in_a_later_chunk(self, tmp_path, monkeypatch, d, column, value, message):
        path, lines = self.chunked_table(tmp_path, monkeypatch, 20, d)
        self.set_cell(lines, 12, column, value)  # chunk 4
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls = self.count_parses(monkeypatch)
        with pytest.raises(FormatError, match=f"line 12: {re.escape(message)}$"):
            read_embeddings(path, Modality.RESP)
        assert calls[:3] == [3, 3, 3]  # three whole chunks passed before the doubt

    def test_a_chunk_of_empty_values_is_refused_without_a_warning(self, tmp_path, monkeypatch):
        """d = 1: np.loadtxt would warn of a chunk whose every value is empty."""
        path, lines = self.chunked_table(tmp_path, monkeypatch, 20, d=1)
        for lineno in range(11, 22):  # chunk 4 on: every chunk is all empty values
            self.set_cell(lines, lineno, 3, "")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="line 11: '' is not a decimal number$"):
                read_embeddings(path, Modality.RESP)

    @pytest.mark.parametrize("number_line,key_line", [(3, 9), (5, 6)])
    def test_number_error_before_a_key_error(self, tmp_path, monkeypatch, number_line, key_line):
        """The bulk pass checks a chunk's key cells before its numbers; the
        earlier line is named all the same, in another chunk or the same one."""
        path, lines = self.chunked_table(tmp_path, monkeypatch, 20)
        self.set_cell(lines, number_line, 4, "1e")
        self.set_cell(lines, key_line, 1, "ECG")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"line {number_line}: '1e' is not a decimal number$"):
            read_embeddings(path, Modality.RESP)

    @pytest.mark.parametrize("value_line,key_line", [(3, 9), (5, 6)])
    def test_non_finite_value_before_a_later_key_error(self, tmp_path, monkeypatch, value_line, key_line):
        """A chunk whose only fault is a value beyond float32 range passes the
        bulk pass; when a later line is doubted, the diagnosis still names
        the earlier line, in another chunk or the same one."""
        path, lines = self.chunked_table(tmp_path, monkeypatch, 20)
        self.set_cell(lines, value_line, 4, "-1e39")
        self.set_cell(lines, key_line, 1, "ECG")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"line {value_line}: non-finite embedding value$"):
            read_embeddings(path, Modality.RESP)

    @pytest.mark.parametrize("n", [12, 20])
    def test_crlf_table_across_chunks(self, tmp_path, monkeypatch, n):
        path, _ = self.chunked_table(tmp_path, monkeypatch, n)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        calls = self.count_parses(monkeypatch)
        ids, X = self.assert_matches_oracle(path)
        assert calls == [3] * (n // 3) + [n % 3] * (n % 3 > 0)
        assert ids.tolist() == [f"S{i:04d}" for i in range(n)] and (X == 0.25).all()

    def test_row_count_an_exact_multiple_of_the_chunk(self, tmp_path, monkeypatch):
        path, _ = self.chunked_table(tmp_path, monkeypatch, 4 * self.CHUNK)
        calls = self.count_parses(monkeypatch)
        self.assert_matches_oracle(path)
        assert calls == [3, 3, 3, 3]

    @pytest.mark.parametrize("n", [9, 10])
    def test_last_line_cut_in_the_final_chunk(self, tmp_path, monkeypatch, n):
        """The cut line ends a full chunk (n = 9) or is a chunk alone (n = 10);
        its cut cell still reads as a number."""
        path, _ = self.chunked_table(tmp_path, monkeypatch, n)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match=f"line {n + 1}: no line end"):
            read_embeddings(path, Modality.RESP)

    @pytest.mark.parametrize("key_line", [6, None])
    def test_stray_byte_in_a_later_chunk(self, tmp_path, monkeypatch, key_line):
        """A bad key cell in chunk 2 is named although a non-UTF-8 byte follows
        in a later chunk (and past the first 8 KB the text layer decodes at a
        time); without it the byte is named."""
        path, lines = self.chunked_table(tmp_path, monkeypatch, 400)
        if key_line is not None:
            self.set_cell(lines, key_line, 1, "ECG")
        blob = ("\n".join(lines) + "\n").encode("utf-8")
        at = blob.index(b"S0388,")
        path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
        message = "line 6: modality 'ECG' in the RESP table" if key_line else "byte 0xff is not UTF-8 text"
        with pytest.raises(FormatError, match=f"{re.escape(message)}$"):
            read_embeddings(path, Modality.RESP)


def test_bulk_reader_and_stage_grouping_move_no_output_byte(tmp_path, monkeypatch):
    """``vectors`` and ``score`` over three d = 32 tables, four outcomes, each
    subject's rows interleaved with others' and out of segment order (each
    table streamed in chunks through both stages), write the bytes they write
    when every table is parsed by the csv.reader oracle, as one chunk of rows."""
    data, emb = tmp_path / "data", tmp_path / "emb"
    assert run_cli(
        "synth", "--out", data, "--seed", 11, "--subjects", 24, "--segments", 1,
        *[a for p in ("CVD=0.4", "DM=0.3", "HTN=0.5", "AF=0.2") for a in ("--prevalence", p)],
    ) == 0
    rng = np.random.default_rng(11)
    sids = sorted(load_manifest(data / "manifest.csv").rows)
    for modality in Modality:
        keys = [(sid, i) for sid in sids for i in range(10)]
        keys = [keys[j] for j in rng.permutation(len(keys))]
        X = rng.standard_normal((len(keys), 32))
        X = (X / np.linalg.norm(X, axis=1, keepdims=True)).astype(np.float32)
        (emb / modality.name).mkdir(parents=True)
        _write_embeddings_csv(emb / modality.name / "embeddings.csv", *_key_arrays(keys), X, modality)

    def stages(out: Path) -> tuple[bytes, bytes]:
        common = ("--data", data, "--embeddings", emb, "--seed", 11, "--modality", "all")
        assert run_cli("vectors", "--out", out / "vectors", *common) == 0
        assert run_cli("score", "--out", out / "score", *common, "--vectors", out / "vectors" / "vectors") == 0
        return (out / "vectors" / "vectors" / "vectors.csv").read_bytes(), (out / "score" / "scores.csv").read_bytes()

    got = stages(tmp_path / "bulk")
    monkeypatch.setattr("psgp.cli._embedding_chunks", lambda path, modality: iter([oracle_read_embeddings(path)]))
    want = stages(tmp_path / "oracle")
    assert got[0].count(b"\n") == 1 + 4 * 3 and got[1].count(b"\n") == 1 + 24 * 4 * 3
    assert got == want


@pytest.mark.parametrize("command,extra,message", [
    ("vectors", ("--outcomes", "NOPE"), "DataError: manifest has no outcome column 'NOPE'"),
    ("score", ("--modality", "EEG"), "MissingInputError: {table} has no disease vector for EEG"),
])
def test_vectors_and_score_refuse_before_reading_a_table(chain, tmp_path, capsys, command, extra, message):
    """An unknown outcome (``vectors``) or an asked modality without a disease
    vector (``score``) is refused before any embeddings table is looked at."""
    def read(path, modality):
        raise AssertionError(f"{path} was read")

    table = chain["vectors"] / "vectors" / "vectors.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("psgp.cli._embedding_chunks", read)
        rc = run_cli(
            command, "--out", tmp_path / "out", "--config", chain["ini"], "--data", chain["data"],
            "--embeddings", tmp_path / "no_such_dir", *extra,
            *(("--vectors", table.parent) if command == "score" else ()),
        )
    err = capsys.readouterr().err
    assert rc == 3 and err == f"error: {message.format(table=table)}\n"


def _mutate(text: str, kind: str, rng: random.Random, table: str) -> tuple[str, int]:
    """One single-line corruption of a CSV table; returns it and its line number."""
    lines = text.split("\n")[:-1]  # every line ends in "\n"
    numeric = range(3, len(lines[0].split(","))) if table == "embeddings" else (3, 4)
    lineno = rng.randrange(3, len(lines) + 1) if kind == "blank" else rng.randrange(2, len(lines) + 1)
    if kind == "truncate":
        lineno = len(lines)
        text = "\n".join(lines[:-1]) + "\n" + lines[-1][: rng.randrange(1, len(lines[-1]))]
        return text, lineno
    if kind == "blank":
        lines.insert(lineno - 1, "")
        return "\n".join(lines) + "\n", lineno
    cells = lines[lineno - 1].split(",")
    if kind == "drop":
        del cells[rng.randrange(len(cells))]
    elif kind == "extra":
        cells.insert(rng.randrange(len(cells) + 1), "0.5")
    elif kind == "modality":
        cells[2 if table == "scores" else 1] = "XYZ" if table == "scores" else "ECG"
    elif kind == "index":
        cells[4 if table == "scores" else 2] = rng.choice(["1.5", "one", "", "2x"])
    else:
        value = {
            "quotes": '""', "empty": "", "underscore": "1_0", "nan": "nan", "inf": "-inf",
            "junk": rng.choice(["abc", "0.1.2", "--1", "1e", "#", "0x10", "١"]),
            "overflow": "1e39" if table == "embeddings" else "1e400",
        }[kind]
        cells[rng.choice(numeric)] = value
    lines[lineno - 1] = ",".join(cells)
    return "\n".join(lines) + "\n", lineno


MUTATIONS = ("blank", "drop", "extra", "quotes", "empty", "junk", "underscore", "nan", "inf",
             "overflow", "modality", "index", "truncate")


class TestTableFuzz:
    """Seeded single-line corruptions of both tables: exit 3, one
    ``error: FormatError:`` line naming the file and the line."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_embeddings_table(self, chain, tmp_path, capsys, kind, seed):
        src = chain["emb"] / "RESP" / "embeddings.csv"
        text, lineno = _mutate(src.read_text(encoding="utf-8"), kind, random.Random(seed), "embeddings")
        table = tmp_path / "emb" / "RESP" / "embeddings.csv"
        table.parent.mkdir(parents=True)
        table.write_text(text, encoding="utf-8")
        for command, extra in (("vectors", ()), ("score", ("--vectors", chain["vectors"] / "vectors"))):
            rc = run_cli(
                command, "--out", tmp_path / command, "--config", chain["ini"],
                "--data", chain["data"], "--embeddings", tmp_path / "emb", "--seed", 5, *extra,
            )
            assert_one_line_data_error(rc, capsys.readouterr().err, str(table), f"line {lineno}")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_score_table(self, chain, tmp_path, capsys, kind, seed):
        src = chain["scores"] / "scores.csv"
        text, lineno = _mutate(src.read_text(encoding="utf-8"), kind, random.Random(seed), "scores")
        scores = tmp_path / "scores.csv"
        scores.write_text(text, encoding="utf-8")
        rc = run_cli(
            "eval", "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--scores", scores, "--seed", 5,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, str(scores), f"line {lineno}")

    @pytest.mark.parametrize("sid", ["a,b", 'q"x', "a\nb", '"'])
    def test_score_writer_refuses_a_cell_its_reader_would_split(self, tmp_path, sid):
        """The manifest refuses these ids (``cohort.check_name``); the score
        writer refuses them too, before it writes a byte."""
        scores = {(s, "CVD", Modality.ECG): (0.25, 3) for s in ("plain", sid)}
        path = tmp_path / "scores.csv"
        with pytest.raises(DataError, match=re.escape(repr(sid))):
            save_scores(scores, path)
        assert not path.exists()


# each corruption of a signal file, and the error classes it may raise
SIGNAL_MUTATIONS = {
    "magic": ("BadMagicError",),
    "version": ("VersionMismatchError",),
    "tag": ("FormatError",),
    "rate": ("FormatError",),
    "id_length": ("TruncatedPayloadError", "FormatError"),  # +1 promises a byte too many, -1 leaves one over
    "cut_header": ("TruncatedPayloadError",),
    "cut_payload": ("TruncatedPayloadError",),
    "trailing": ("FormatError",),
    "nan": ("NonFiniteSamplesError",),
    "flip": ("BadMagicError", "VersionMismatchError", "TruncatedPayloadError", "FormatError",
             "NonFiniteSamplesError"),
}


def _mutate_signal(path: Path, kind: str, rng: random.Random) -> None:
    """One corruption of a signal file (the layout in ``psgp.signalio``). A
    header field or a sample is changed inside a valid frame, so that the
    change reaches the check it is meant for, not the crc."""
    if kind == "tag":
        return reframe(path, lambda header, _: header.__setitem__(0, rng.randrange(len(Modality), 256)))
    if kind == "rate":
        return reframe(path, lambda header, _: struct.pack_into("<d", header, 1, rng.choice([-1.0, float("nan")])))
    if kind == "nan":
        return reframe(path, lambda _, samples: struct.pack_into(
            "<f", samples, 4 * rng.randrange(len(samples) // 4), float("nan")))
    b = bytearray(path.read_bytes())
    header_len = frame.PREFIX.unpack_from(b)[2]
    payload = frame.PREFIX.size + header_len
    if kind == "magic":
        b[rng.randrange(4)] ^= 1 << rng.randrange(8)
    elif kind == "version":
        struct.pack_into("<I", b, 4, FORMAT_VERSION + 1)
    elif kind == "id_length":  # the header length, which gives the subject id's
        struct.pack_into("<I", b, 8, header_len + rng.choice([-1, 1]))
    elif kind == "cut_header":
        del b[rng.randrange(payload):]
    elif kind == "cut_payload":
        del b[rng.randrange(payload, len(b)):]
    elif kind == "trailing":
        b += bytes(rng.randrange(1, 8))
    else:  # one bit anywhere
        b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(b))


class TestSignalFileFuzz:
    """Seeded corruptions of one training subject's signal file: ``train``
    and ``embed`` exit 3 with one ``error:`` line that starts with the file,
    and write nothing for the modality."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", SIGNAL_MUTATIONS)
    def test_train_and_embed(self, chain, tmp_path, capsys, kind, seed):
        rng = random.Random(seed)
        data = tmp_path / "data"
        (data / "signals").mkdir(parents=True)
        (data / "manifest.csv").write_bytes((chain["data"] / "manifest.csv").read_bytes())
        for src in (chain["data"] / "signals").glob("*_RESP.psgs"):
            (data / "signals" / src.name).write_bytes(src.read_bytes())
        train_ids = split_cohort(load_manifest(data / "manifest.csv"), RunConfig().split_ratio, 5).train_ids
        bad = data / "signals" / f"{rng.choice(sorted(train_ids))}_RESP.psgs"
        _mutate_signal(bad, kind, rng)
        common = ("--config", chain["ini"], "--data", data, "--seed", 5)
        for command, extra in (("train", ("--steps", 1)), ("embed", ("--models", chain["models"]))):
            rc = run_cli(command, "--out", tmp_path / command, *common, *extra)
            err = capsys.readouterr().err
            assert rc == 3 and "Traceback" not in err and err.count("\n") == 1, err
            assert re.match(rf"error: ({'|'.join(SIGNAL_MUTATIONS[kind])}): {re.escape(str(bad))}: ", err), err
            assert not (tmp_path / command / "RESP").exists()


@pytest.mark.parametrize("command", ["train", "embed"])
def test_every_modality_is_checked_before_any_work(chain, tmp_path, capsys, command):
    """``train`` and ``embed`` check every modality's inputs, in modality
    order, before they train or embed one: a RESP file with a bad magic
    leaves no modality directory, not even EEG's or ECG's."""
    data = tmp_path / "data"
    shutil.copytree(chain["data"], data)
    train_ids = split_cohort(load_manifest(data / "manifest.csv"), RunConfig().split_ratio, 5).train_ids
    bad = data / "signals" / f"{min(train_ids)}_RESP.psgs"
    blob = bytearray(bad.read_bytes())
    blob[0] ^= 1
    bad.write_bytes(bytes(blob))
    extra = ("--steps", 1)
    if command == "embed":
        models = tmp_path / "models"
        cfg = replace(load_run_config(chain["ini"]), modalities=tuple(Modality))
        for modality, mcfg in stage_configs(cfg).models.items():
            ckpt = models / modality.name / "checkpoint.psgm"
            ckpt.parent.mkdir(parents=True)
            mdl.save_checkpoint(mdl.init_parameters(mcfg, 0), mcfg, ckpt)
        extra = ("--models", models)
    rc = run_cli(
        command, "--out", tmp_path / "out", "--config", chain["ini"], "--data", data, "--seed", 5,
        "--modality", "all", *extra,
    )
    assert_one_line_data_error(rc, capsys.readouterr().err, str(bad), kind="BadMagicError")
    assert not [m.name for m in Modality if (tmp_path / "out" / m.name).exists()]


def _mutate_manifest(text: str, kind: str, rng: random.Random) -> tuple[str, int]:
    """One single-line corruption of a manifest; returns it and its line number."""
    lines = text.split("\n")[:-1]
    if kind == "truncate":  # no final line break; the cut may fall inside the last cell
        body = "\n".join(lines)
        return body[: len(body) - rng.randrange(3)], len(lines)
    lineno = rng.randrange(2, len(lines) + 1)
    cells = lines[lineno - 1].split(",")
    if kind == "drop":
        del cells[rng.randrange(len(cells))]
    elif kind == "extra":
        cells.insert(rng.randrange(len(cells) + 1), "0.5")
    elif kind == "duplicate":  # the id of the line above: the second occurrence is the bad one
        lineno = max(lineno, 3)
        cells = lines[lineno - 1].split(",")
        cells[0] = lines[lineno - 2].split(",")[0]
    elif kind == "empty_id":
        cells[0] = ""
    elif kind == "nonpositive":
        cells[rng.choice([1, 3])] = rng.choice(["0", "-3.5"])
    elif kind == "flag":
        cells[rng.choice([2, 6])] = rng.choice(["2", "yes", "1.0", "-1"])
    else:
        cells[rng.choice([1, 3, 4, 5])] = {
            "junk": rng.choice(["abc", "0.1.2", "--1", "1e", "#", "0x10", "\u0661", "1_0"]),
            "nan": "nan", "inf": "-inf", "overflow": "1e400",
        }[kind]
    lines[lineno - 1] = ",".join(cells)
    return "\n".join(lines) + "\n", lineno


def _mutate_vector_table(text: str, kind: str, rng: random.Random) -> tuple[str, int | None]:
    """One corruption of a disease-vector table with one row; returns it and
    the line its reader must name (None: the row is gone, so no line is)."""
    header, row = text.split("\n")[:-1]
    cells = row.split(",")
    if kind == "truncate":  # no final line break; the cut may fall inside the last cell
        return header + "\n" + row[: rng.randrange(1, len(row))], 2
    if kind == "blank":
        at = rng.choice([2, 3])
        return "\n".join([header, row][: at - 1] + [""] + [header, row][at - 1:]) + "\n", at
    if kind == "drop_line":
        return header + "\n", None
    if kind == "repeat_line":
        return "\n".join([header, row, row]) + "\n", 3
    if kind == "no_equals":  # a separator lost: two cells run together
        at = rng.randrange(len(cells) - 1)
        cells[at:at + 2] = [cells[at] + " " + cells[at + 1]]
    elif kind == "drop_cell":
        del cells[rng.randrange(len(cells))]
    elif kind == "extra_cell":
        cells.insert(rng.randrange(len(cells) + 1), "0.5")
    elif kind == "empty":
        cells[rng.randrange(len(cells))] = ""
    elif kind == "count":
        cells[rng.choice([2, 3])] = rng.choice(["1.5", "one", "-1", "1_0", "\u0661", ""])
    elif kind == "modality":
        cells[1] = rng.choice(["XYZ", "resp", " RESP"])
    else:
        at = rng.choice([4, 5, 6])
        parts = cells[at].split(" ")
        i = rng.randrange(len(parts))
        if kind == "drop_component":
            del parts[i]
        elif kind == "extra_component":
            parts.insert(i, "0.5")
        else:
            parts[i] = {
                "junk": rng.choice(["abc", "0.1.2", "--1", "1e", "#", "0x10", "\u0661", ""]),
                "underscore": "1_0", "nan": "nan", "inf": "-inf", "overflow": "1e400",
            }[kind]
        cells[at] = " ".join(parts)
    return header + "\n" + ",".join(cells) + "\n", 2


MANIFEST_MUTATIONS = ("drop", "extra", "duplicate", "empty_id", "nonpositive", "flag", "junk",
                      "nan", "inf", "overflow", "truncate")
VECTOR_MUTATIONS = ("blank", "drop_line", "repeat_line", "no_equals", "drop_cell", "extra_cell", "empty",
                    "count", "modality", "drop_component", "extra_component", "junk", "underscore", "nan",
                    "inf", "overflow", "truncate")


class TestManifestAndVectorFuzz:
    """Seeded single-line corruptions of the manifest and of the
    disease-vector table: exit 3, one ``error:`` line naming the file and
    the line."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", MANIFEST_MUTATIONS)
    def test_manifest(self, chain, tmp_path, capsys, kind, seed):
        src = chain["data"] / "manifest.csv"
        text, lineno = _mutate_manifest(src.read_text(encoding="utf-8"), kind, random.Random(seed))
        manifest = tmp_path / "data" / "manifest.csv"
        manifest.parent.mkdir()
        manifest.write_text(text, encoding="utf-8")
        rc = run_cli(
            "eval", "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", manifest.parent, "--scores", chain["scores"] / "scores.csv", "--seed", 5,
        )
        assert_one_line_data_error(
            rc, capsys.readouterr().err, str(manifest), f"line {lineno}:", kind="ManifestError"
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", VECTOR_MUTATIONS)
    def test_vector_file(self, chain, tmp_path, capsys, kind, seed):
        src = chain["vectors"] / "vectors" / "vectors.csv"
        text, lineno = _mutate_vector_table(src.read_text(encoding="utf-8"), kind, random.Random(seed))
        table = tmp_path / "vectors" / "vectors.csv"
        table.parent.mkdir()
        table.write_text(text, encoding="utf-8")
        rc = run_cli(
            "score", "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--embeddings", chain["emb"], "--vectors", table.parent,
        )
        err = capsys.readouterr().err
        if lineno is None:  # a header-only table has no RESP vector
            assert_one_line_data_error(rc, err, f"{table} has no disease vector for RESP", kind="MissingInputError")
        else:
            assert_one_line_data_error(rc, err, f"{table}: line {lineno}")


@pytest.mark.parametrize("target", ["manifest", "embeddings", "vector", "scores", "config"])
def test_non_utf8_byte_is_one_error_line(chain, tmp_path, capsys, target):
    """A 0xff byte in any text input is one ``error:`` line naming the file."""
    paths = {
        "data": chain["data"], "emb": chain["emb"], "vectors": chain["vectors"] / "vectors",
        "scores": chain["scores"] / "scores.csv", "ini": chain["ini"],
    }
    key, inner, after, command, kind, code = {  # the 0xff goes right after ``after``
        "manifest": ("data", "manifest.csv", b"\nS0003", "eval", "ManifestError", 3),
        "embeddings": ("emb", "RESP/embeddings.csv", b",RES", "vectors", "FormatError", 3),
        "vector": ("vectors", "vectors.csv", b"\nCVD,", "score", "FormatError", 3),
        "scores": ("scores", "", b"\nS0002,CVD", "eval", "FormatError", 3),
        "config": ("ini", "", b"[run]\n", "eval", "ConfigError", 2),
    }[target]
    blob = (paths[key] / inner).read_bytes()
    paths[key] = tmp_path / key
    bad = paths[key] / inner
    bad.parent.mkdir(parents=True, exist_ok=True)
    at = blob.index(after) + len(after)
    bad.write_bytes(blob[:at] + b"\xff" + blob[at:])
    extra = {
        "vectors": ("--embeddings", paths["emb"], "--seed", 5),
        "score": ("--embeddings", paths["emb"], "--vectors", paths["vectors"]),
        "eval": ("--scores", paths["scores"], "--seed", 5),
    }[command]
    rc = run_cli(command, "--out", tmp_path / "out", "--config", paths["ini"], "--data", paths["data"], *extra)
    assert_one_line_data_error(rc, capsys.readouterr().err, str(bad), "not UTF-8", kind=kind, code=code)


@pytest.mark.parametrize(
    "corruption", ["config_length", "config_utf8", "config", "config_crlf", "config_trailing_byte", "nan"]
)
def test_corrupt_checkpoint_is_one_error_line(chain, tmp_path, capsys, corruption):
    """A config length past the end of the file is a truncated payload; a
    config blob that is not UTF-8 must not escape as a decode error; a config
    blob that is not the run's config text (a key the model does not have,
    CRLF line ends, one trailing byte) is refused naming its first differing
    line; a NaN in the parameters is a numeric error naming its tensor. All
    but the first are written inside a valid frame, so they reach the checks
    of the config and the parameters."""
    bad = tmp_path / "models" / "RESP" / "checkpoint.psgm"
    bad.parent.mkdir(parents=True)
    bad.write_bytes((chain["models"] / "RESP" / "checkpoint.psgm").read_bytes())
    code = 3
    if corruption == "config_length":
        blob = bytearray(bad.read_bytes())
        struct.pack_into("<I", blob, 8, len(blob))
        bad.write_bytes(bytes(blob))
        kind, fragment = "TruncatedPayloadError", "bytes, its frame"
    elif corruption == "config_utf8":  # the last digit of the precision's name
        reframe(bad, lambda blob, _: blob.__setitem__(len(blob) - 2, 0xFF))
        kind, fragment = "FormatError", "not UTF-8"
    elif corruption == "config":
        reframe(bad, lambda blob, _: blob.extend(b"stem_kernels=3,3\n"))
        kind, fragment = "SchemaMismatchError", "checkpoint has 'stem_kernels=3,3\\n', expected ''"
    elif corruption == "config_crlf":
        reframe(bad, lambda blob, _: blob.__setitem__(slice(None), blob.replace(b"\n", b"\r\n")))
        kind = "SchemaMismatchError"
        fragment = "checkpoint has 'modality=RESP\\r\\n', expected 'modality=RESP\\n'"
    elif corruption == "config_trailing_byte":
        reframe(bad, lambda blob, _: blob.append(ord("x")))
        kind, fragment = "SchemaMismatchError", "checkpoint has 'x', expected ''"
    else:  # the last value of the last tensor (RESP is trained in f32)
        reframe(bad, lambda _, params: struct.pack_into("<f", params, len(params) - 4, np.nan))
        kind, fragment, code = "NumericError", "tensor 'dec.ln_f.b' contains non-finite values", 4
    rc = run_cli(
        "embed", "--out", tmp_path / "emb", "--config", chain["ini"], "--data", chain["data"],
        "--models", tmp_path / "models",
    )
    assert_one_line_data_error(rc, capsys.readouterr().err, str(bad), fragment, kind=kind, code=code)


def _with_column(src: Path, dst: Path, column: str, every: int) -> None:
    """A copy of the table ``src`` whose ``column`` reads 1e308 on every
    ``every``-th row."""
    header, *rows = src.read_text(encoding="utf-8").splitlines()
    at = header.split(",").index(column)
    for i in range(0, len(rows), every):
        cells = rows[i].split(",")
        cells[at] = "1e308"
        rows[i] = ",".join(cells)
    dst.write_text("".join(line + "\n" for line in (header, *rows)), encoding="utf-8")


@pytest.mark.parametrize(
    "case",
    [
        "synth-noise_1e39", "synth-noise_1e308", "synth-effect_1e300",
        "fit-manifest", "eval-manifest", "fit-scores", "eval-scores", "report-scores",
    ],
)
def test_values_past_the_float_range_are_one_error_line(chain, tmp_path, capsys, case):
    """A noise or effect size whose samples float32 cannot hold is refused
    before synth writes anything (exit 2). A manifest age of 1e308 on every
    other subject, or scores of 1e308, overflow the training side's scaling
    of ``fit`` and ``eval`` (exit 3, naming the outcome and the column) and
    the positive mean of ``report`` (exit 3, naming the outcome). Each is
    one error line, and no numpy warning comes before it."""
    command, source = case.split("-")
    out = tmp_path / "out"
    out.mkdir()
    if command == "synth":
        flag = {
            "noise_1e39": ("--noise-sigma", "1e39"),
            "noise_1e308": ("--noise-sigma", "1e308"),
            "effect_1e300": ("--effect", "CVD:ECG=1e300"),
        }[source]
        argv = ("--subjects", 4, "--segments", 1, "--prevalence", "CVD=0.5", *flag)
        kind, code, fragments = "ConfigError", 2, ("float32 signal files cannot hold such samples",)
    else:
        data, scores = chain["data"], chain["scores"] / "scores.csv"
        if source == "manifest":
            data = tmp_path / "data"
            data.mkdir()
            _with_column(chain["data"] / "manifest.csv", data / "manifest.csv", "age", every=2)
            column = "age"
        else:
            scores = tmp_path / "scores.csv"
            _with_column(chain["scores"] / "scores.csv", scores, "score", every=1)
            column = "score_RESP"
        argv = ("--config", chain["ini"], "--data", data, "--scores", scores, "--seed", 5)
        if command == "report":
            argv += ("--subject", "S0001", "--modality", "RESP")
            fragments = ("outcome 'CVD': the mean score of its positive references is not finite",)
        else:
            fragments = (f"CVD: feature '{column}' overflows when scaled by the training mean and SD",)
        kind, code = "DataError", 3
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(command, "--out", out, *argv)
    assert not caught, [str(w.message) for w in caught]
    assert_one_line_data_error(rc, capsys.readouterr().err, *fragments, kind=kind, code=code)
    if command == "synth":
        assert not any(out.iterdir())


@pytest.mark.parametrize(
    "case", ["other_subject", "window_length", "no_files", "short_recordings", "vector_outcome", "embedding_dim"]
)
def test_refused_segment_or_score_input_is_one_error_line(chain, tmp_path, capsys, case):
    """``embed`` refuses a signal file that claims another subject, a window
    length other than the model's and a modality with no window at all;
    ``score`` refuses a vector for an outcome the manifest lacks and
    embeddings of another dimension than the vectors'."""
    data, emb, vectors = tmp_path / "data", chain["emb"], chain["vectors"] / "vectors"
    shutil.copytree(chain["data"], data)
    signals, kind = data / "signals", "DataError"
    if case == "other_subject":
        bad = signals / "S0002_RESP.psgs"
        bad.write_bytes((signals / "S0001_RESP.psgs").read_bytes())
        fragments = str(bad), "claims subject 'S0001', expected 'S0002'"
    elif case == "window_length":
        bad = signals / "S0003_RESP.psgs"
        write_signal_file(replace(read_signal_file(bad), sample_rate_hz=20.0), bad)
        fragments = str(bad), "window of 600 samples does not match the model input length"
    elif case == "no_files":
        for path in signals.glob("*_RESP.psgs"):
            path.unlink()
        fragments = (f"no RESP segments found under {signals}",)
    elif case == "short_recordings":
        for path in signals.glob("*_RESP.psgs"):
            r = read_signal_file(path)
            write_signal_file(replace(r, samples=r.samples[:samples_per_window(r.sample_rate_hz) - 1]), path)
        fragments = (f"no RESP segments found under {signals}",)
    elif case == "vector_outcome":
        vectors = tmp_path / "vectors"
        vectors.mkdir()
        blob = (chain["vectors"] / "vectors" / "vectors.csv").read_bytes()
        (vectors / "vectors.csv").write_bytes(blob.replace(b"\nCVD,", b"\nStroke,"))
        kind, fragments = "UnknownOutcomeError", ("manifest has no outcome 'Stroke'",)
    else:
        emb = tmp_path / "emb"
        keys = [(sid, w) for sid in load_manifest(data / "manifest.csv").subject_ids for w in range(3)]
        X = np.random.default_rng(3).standard_normal((len(keys), 4))
        (emb / "RESP").mkdir(parents=True)
        _write_embeddings_csv(emb / "RESP" / "embeddings.csv", *_key_arrays(keys), X.astype(np.float32), Modality.RESP)
        fragments = ("RESP embeddings have dimension 4, vectors 8",)
    if case in ("vector_outcome", "embedding_dim"):
        argv = ("score", "--embeddings", emb, "--vectors", vectors)
    else:
        argv = ("embed", "--models", chain["models"])
    rc = run_cli(*argv, "--out", tmp_path / "out", "--config", chain["ini"], "--data", data)
    assert_one_line_data_error(rc, capsys.readouterr().err, *fragments, kind=kind)


def _mutate_bytes(blob: bytes, kind: str, rng: random.Random) -> bytes:
    """One corruption of a file's bytes at a seeded position: a byte
    flipped, inserted or deleted, or the file cut; ``scale`` reads an f32
    checkpoint (the layout in ``psgp.model``)."""
    b = bytearray(blob)
    if kind == "flip":
        b[rng.randrange(len(b))] ^= rng.randrange(1, 256)
    elif kind == "insert":
        b.insert(rng.randrange(len(b) + 1), rng.randrange(256))
    elif kind == "delete":
        del b[rng.randrange(len(b))]
    elif kind == "cut":
        del b[rng.randrange(len(b)):]
    else:  # one parameter scaled by a power of two, still finite in f32
        _, _, blob_len, size = frame.PREFIX.unpack_from(b)
        at = frame.PREFIX.size + blob_len + 4 * rng.randrange(size // 4)
        (value,) = struct.unpack_from("<f", b, at)
        struct.pack_into("<f", b, at, value * 2.0 ** rng.randint(40, 100))
    return bytes(b)


@pytest.mark.parametrize("kind", ["flip", "insert", "delete", "cut", "scale"])
def test_checkpoint_mutations_keep_the_cli_contract(chain, tmp_path, capsys, kind):
    """Seeded corruptions of the chain's RESP checkpoint, each run through
    ``embed``: a file whose bytes changed is exit 3 with one ``error:`` line
    naming it, and no exception or warning leaves ``main``. Scaling a 0.0
    parameter leaves the bytes as they were: exit 0 with nothing on stderr.
    Before checkpoints held a crc, most flips and scalings loaded, and a
    weight scaled by 2**100 overflowed a ``layer_norm`` variance, which
    printed a RuntimeWarning and gave every segment the same embedding."""
    rng = random.Random(f"checkpoint {kind}")
    blob = (chain["models"] / "RESP" / "checkpoint.psgm").read_bytes()
    bad = tmp_path / "models" / "RESP" / "checkpoint.psgm"
    bad.parent.mkdir(parents=True)
    codes = set()
    for _ in range(200):
        mutated = _mutate_bytes(blob, kind, rng)
        bad.write_bytes(mutated)
        rc = run_cli(
            "embed", "--out", tmp_path / "emb", "--config", chain["ini"], "--data", chain["data"],
            "--models", tmp_path / "models",
        )
        err = capsys.readouterr().err
        if mutated == blob:
            assert (rc, err) == (0, ""), (rc, err)
        else:
            assert rc == 3 and err.startswith("error: ") and err.count("\n") == 1, (rc, err)
            assert str(bad) in err, err
        codes.add(rc)
    assert codes - {0}, "no mutation was refused"


@pytest.mark.parametrize("kind", ["flip", "insert", "delete"])
def test_manifest_byte_mutations_keep_the_cli_contract(chain, tmp_path, capsys, kind):
    """Seeded byte flips, inserts and deletes anywhere in the chain's
    manifest, the one table another program may write, each run through
    ``eval``: exit 0 with nothing on stderr, or exit 2, 3 or 4 with one
    ``error:`` line, and no exception or warning leaves ``main``."""
    rng = random.Random(f"manifest {kind}")
    blob = (chain["data"] / "manifest.csv").read_bytes()
    bad = tmp_path / "data" / "manifest.csv"
    bad.parent.mkdir()
    codes = set()
    for _ in range(150):
        mutated = _mutate_bytes(blob, kind, rng)
        bad.write_bytes(mutated)
        rc = run_cli(
            "eval", "--out", tmp_path / "out", "--config", chain["ini"], "--data", bad.parent,
            "--scores", chain["scores"] / "scores.csv", "--seed", 5,
        )
        err = capsys.readouterr().err
        if rc == 0:
            assert err == "", (mutated, err)
        else:
            assert rc in (2, 3, 4) and err.startswith("error: ") and err.count("\n") == 1, (mutated, rc, err)
        codes.add(rc)
    assert codes - {0}, "no mutation was refused"

def test_embed_refuses_a_checkpoint_of_another_modality(chain, tmp_path, capsys):
    """EEG and ECG share input_len 3750, so an ECG checkpoint under
    ``models/EEG/`` fits the EEG signals; embed refuses it by its config's
    modality, which is not the run's, and writes no table."""
    cfg = mdl.default_model_config(
        Modality.ECG, embed_dim=8, encoder_depth=1, decoder_depth=1, n_heads=2, ffn_mult=4, precision="f32"
    )
    ckpt = tmp_path / "models" / "EEG" / "checkpoint.psgm"
    ckpt.parent.mkdir(parents=True)
    mdl.save_checkpoint(mdl.init_parameters(cfg, 0), cfg, ckpt)
    rc = run_cli(
        "embed", "--out", tmp_path / "emb", "--config", chain["ini"], "--data", chain["data"],
        "--models", tmp_path / "models", "--modality", "EEG",
    )
    assert_one_line_data_error(
        rc, capsys.readouterr().err, str(ckpt), "checkpoint has modality=ECG, expected modality=EEG",
        kind="SchemaMismatchError",
    )
    assert not (tmp_path / "emb" / "EEG").exists()


def test_embed_runs_a_checkpoint_only_with_its_model_values(chain, tmp_path, capsys):
    """A checkpoint trained with ``--embed-dim 8 --precision f64`` is refused
    by an ``embed`` run whose [model] values are the defaults (d = 32, f32),
    naming the first field that differs. With train's snapshot as its config,
    or with the same values as flags, it embeds, and its own snapshot records
    the values of the checkpoint it ran."""
    models = tmp_path / "models"
    assert run_cli(
        "train", "--out", models, "--data", chain["data"], "--modality", "RESP", "--embed-dim", 8,
        "--precision", "f64", "--steps", 1, "--batch-size", 4, "--permutations", 2,
    ) == 0
    capsys.readouterr()
    embed = ("embed", "--data", chain["data"], "--models", models, "--modality", "RESP")
    rc = run_cli(*embed, "--out", tmp_path / "bare")
    assert_one_line_data_error(
        rc, capsys.readouterr().err, str(models / "RESP" / "checkpoint.psgm"),
        "checkpoint has embed_dim=8, expected embed_dim=32", kind="SchemaMismatchError",
    )
    assert not (tmp_path / "bare" / "RESP").exists()
    for out, model_values in [
        ("emb", ("--config", models / "resolved_config_train.txt")),
        ("emb_flags", ("--embed-dim", 8, "--precision", "f64")),
    ]:
        assert run_cli(*embed, *model_values, "--out", tmp_path / out) == 0
        snapshot = (tmp_path / out / "resolved_config_embed.txt").read_text(encoding="utf-8")
        assert "embed_dim = 8\n" in snapshot and "precision = f64\n" in snapshot
        header = (tmp_path / out / "RESP" / "embeddings.csv").read_text(encoding="utf-8").split("\n", 1)[0]
        assert header.split(",")[3:] == [f"v{i}" for i in range(8)]


@pytest.mark.parametrize("command", ["train", "embed"])
def test_signal_file_of_another_modality_is_refused(chain, tmp_path, capsys, command):
    """EEG and ECG both record at 125 Hz, so an ECG recording saved as a
    training subject's EEG file has the EEG window; train and embed refuse
    it by the modality the file holds."""
    data = tmp_path / "data"
    (data / "signals").mkdir(parents=True)
    (data / "manifest.csv").write_bytes((chain["data"] / "manifest.csv").read_bytes())
    for src in (chain["data"] / "signals").glob("*_EEG.psgs"):
        (data / "signals" / src.name).write_bytes(src.read_bytes())
    sid = min(split_cohort(load_manifest(data / "manifest.csv"), RunConfig().split_ratio, 5).train_ids)
    bad = data / "signals" / f"{sid}_EEG.psgs"
    bad.write_bytes((chain["data"] / "signals" / f"{sid}_ECG.psgs").read_bytes())
    if command == "train":
        extra = ("--steps", 1, "--seed", 5)
    else:
        cfg = mdl.default_model_config(
            Modality.EEG, embed_dim=8, encoder_depth=1, decoder_depth=1, n_heads=2, ffn_mult=4, precision="f32"
        )
        ckpt = tmp_path / "models" / "EEG" / "checkpoint.psgm"
        ckpt.parent.mkdir(parents=True)
        mdl.save_checkpoint(mdl.init_parameters(cfg, 0), cfg, ckpt)
        extra = ("--models", tmp_path / "models")
    rc = run_cli(
        command, "--out", tmp_path / "out", "--config", chain["ini"], "--data", data,
        "--modality", "EEG", *extra,
    )
    err = capsys.readouterr().err
    assert_one_line_data_error(rc, err, str(bad), "modality ECG, expected EEG", kind="DataError")
    assert not (tmp_path / "out" / "EEG").exists()


@pytest.mark.parametrize(
    "case",
    ["config_dir", "out_file", "scores_dir", "embeddings_dir", "checkpoint_dir", "manifest_dir", "signal_dir"],
)
def test_path_of_the_wrong_kind_is_one_error_line(chain, tmp_path, capsys, case):
    """A directory where a file belongs, or a file where the output directory
    belongs: exit 2 for ``--config`` and ``--out``, exit 3 for an input."""
    ini, data, scores = chain["ini"], chain["data"], chain["scores"] / "scores.csv"
    out = tmp_path / "out"
    kind, code = "IsADirectoryError", 3
    if case == "config_dir":
        argv, kind, code = ("synth", "--config", tmp_path), "ConfigError", 2
    elif case == "out_file":
        out.write_text("a file\n", encoding="utf-8")
        argv, kind, code = ("synth", "--subjects", 2, "--segments", 1), "UsageError", 2
    elif case == "scores_dir":
        argv = ("eval", "--config", ini, "--data", data, "--scores", tmp_path)
    elif case == "embeddings_dir":
        (tmp_path / "emb" / "EEG" / "embeddings.csv").mkdir(parents=True)
        argv = ("vectors", "--config", ini, "--data", data, "--embeddings", tmp_path / "emb", "--modality", "EEG")
    elif case == "checkpoint_dir":
        (tmp_path / "models" / "EEG" / "checkpoint.psgm").mkdir(parents=True)
        argv = ("embed", "--config", ini, "--data", data, "--models", tmp_path / "models", "--modality", "EEG")
    elif case == "manifest_dir":
        (tmp_path / "data" / "manifest.csv").mkdir(parents=True)
        argv = ("eval", "--config", ini, "--data", tmp_path / "data", "--scores", scores)
    else:  # an EEG checkpoint reaches the signal files, of which S0001's is a directory
        (tmp_path / "data" / "signals" / "S0001_EEG.psgs").mkdir(parents=True)
        (tmp_path / "data" / "manifest.csv").write_bytes((data / "manifest.csv").read_bytes())
        cfg = mdl.default_model_config(
            Modality.EEG, embed_dim=8, encoder_depth=1, decoder_depth=1, n_heads=2, ffn_mult=4, precision="f32"
        )
        ckpt = tmp_path / "models" / "EEG" / "checkpoint.psgm"
        ckpt.parent.mkdir(parents=True)
        mdl.save_checkpoint(mdl.init_parameters(cfg, 0), cfg, ckpt)
        argv = ("embed", "--config", ini, "--data", tmp_path / "data", "--models", tmp_path / "models",
                "--modality", "EEG")
    rc = run_cli(argv[0], "--out", out, *argv[1:])
    assert_one_line_data_error(rc, capsys.readouterr().err, kind=kind, code=code)


@pytest.mark.parametrize("name,command", [("../../evil", "vectors"), ("A,B", "eval")])
def test_outcome_name_unfit_for_a_file_name_or_header_cell_is_refused(chain, tmp_path, capsys, name, command):
    """``../../evil`` would put ``vectors`` files outside ``--out`` and
    ``A,B`` would give ``grid.csv`` a header of three cells over rows of two:
    the manifest is refused before anything is written."""
    data = tmp_path / "data"
    data.mkdir()
    manifest = data / "manifest.csv"
    corrupt_cell(chain["data"] / "manifest.csv", manifest, 1, 6, name)
    extra = {
        "vectors": ("--embeddings", chain["emb"]),
        "eval": ("--scores", chain["scores"] / "scores.csv"),
    }[command]
    out = tmp_path / "run" / "out"
    rc = run_cli(command, "--out", out, "--config", chain["ini"], "--data", data, "--seed", 5, *extra)
    assert_one_line_data_error(rc, capsys.readouterr().err, str(manifest), repr(name), kind="ManifestError")
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [manifest]


def test_padded_manifest_cell_is_one_error_line(chain, tmp_path, capsys):
    """``S0002, 60 ,...``: exit 3 naming the manifest, the line and the column."""
    data = tmp_path / "data"
    manifest = data / "manifest.csv"
    corrupt_cell(chain["data"] / "manifest.csv", manifest, 3, 1, " 60 ")
    rc = run_cli("eval", "--out", tmp_path / "out", "--config", chain["ini"], "--data", data,
                 "--scores", chain["scores"] / "scores.csv")
    assert_one_line_data_error(rc, capsys.readouterr().err, f"{manifest} line 3", "column 'age'", kind="ManifestError")


def test_manifest_row_of_blank_cells_is_one_error_line(chain, tmp_path, capsys):
    """`` , , , , , , `` between two subjects is a row, not a blank line:
    exit 3 naming the manifest and the line."""
    data = tmp_path / "data"
    data.mkdir()
    lines = (chain["data"] / "manifest.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    blank = ",".join(" " * len(lines[0].split(","))) + "\n"
    (data / "manifest.csv").write_text("".join(lines[:2] + [blank] + lines[2:]), encoding="utf-8")
    rc = run_cli("eval", "--out", tmp_path / "out", "--config", chain["ini"], "--data", data,
                 "--scores", chain["scores"] / "scores.csv")
    err = capsys.readouterr().err
    assert_one_line_data_error(rc, err, f"{data / 'manifest.csv'} line 3: subject id ' '", kind="ManifestError")


@pytest.mark.parametrize("line,column,value,fragment", [
    (3, 0, " S0002", "subject id ' S0002'"),
    (1, 1, "age ", "header must start"),
    (1, 6, " CVD", "outcome name ' CVD'"),
])
def test_padded_manifest_id_or_header_cell_is_one_error_line(chain, tmp_path, capsys, line, column, value, fragment):
    """A padded subject id or header cell is refused as written, not read
    stripped: exit 3 naming the manifest and the line."""
    manifest = tmp_path / "data" / "manifest.csv"
    corrupt_cell(chain["data"] / "manifest.csv", manifest, line, column, value)
    rc = run_cli("eval", "--out", tmp_path / "out", "--config", chain["ini"], "--data", manifest.parent,
                 "--scores", chain["scores"] / "scores.csv")
    assert_one_line_data_error(rc, capsys.readouterr().err, f"{manifest} line {line}: {fragment}", kind="ManifestError")


@pytest.mark.parametrize(
    "sid,line",
    [("c,d", 3), ('q"x', 3), ("../../x", 3), ("a\\b", 3), ("a\nb", 4), ("S1\x00", 3)],
    ids=["comma", "quote", "path", "backslash", "line_break", "nul"],
)
def test_subject_id_unfit_for_a_file_name_or_csv_cell_is_refused(chain, tmp_path, capsys, sid, line):
    """A subject id names signal and report files and is a bare cell of
    ``split.csv`` and ``embeddings.csv``; the manifest is refused at the
    record that holds it (csv names a quoted line break's second line)."""
    manifest = tmp_path / "data" / "manifest.csv"
    corrupt_cell(chain["data"] / "manifest.csv", manifest, 3, 0, sid)
    rc = run_cli(
        "eval", "--out", tmp_path / "out", "--config", chain["ini"], "--data", manifest.parent,
        "--scores", chain["scores"] / "scores.csv", "--seed", 5,
    )
    err = capsys.readouterr().err
    assert_one_line_data_error(rc, err, str(manifest), f"line {line}:", "subject id", kind="ManifestError")
    assert not (tmp_path / "out").exists()


def test_prevalence_name_with_a_tab_is_usage_error(tmp_path, capsys):
    rc = run_cli("synth", "--out", tmp_path, "--subjects", 2, "--segments", 1, "--prevalence", "A\tB=0.5")
    assert_one_line_data_error(rc, capsys.readouterr().err, "outcome name", kind="ConfigError", code=2)


def test_embed_threads_reach_the_pool_and_leave_training_usable(tmp_path):
    """ECG at d = 32 embeds in encoder tiles of 68 rows, so 144 segments make
    two full tiles and a remainder and ``--threads 2`` really runs the pool.
    Its table must equal the one-thread bytes, and tape recording must still
    be on for a following in-process ``train``."""
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nmodalities = ECG\n"
        "[model]\nembed_dim = 32\nencoder_depth = 1\ndecoder_depth = 1\nn_heads = 2\n"
        "[ssl]\nsteps = 2\nbatch_size = 4\nn_permutations = 2\n",
        encoding="utf-8",
    )
    data, models = tmp_path / "cohort", tmp_path / "models"
    assert run_cli(
        "synth", "--out", data, "--config", ini, "--seed", 3, "--subjects", 8, "--segments", 18,
        "--prevalence", "CVD=0.5",
    ) == 0
    assert run_cli("train", "--out", models, "--config", ini, "--data", data, "--seed", 3) == 0
    _, tile = mdl.embed_tiles(model_config(ini, Modality.ECG))
    tables = {}
    for threads in (1, 2):
        out = tmp_path / f"emb{threads}"
        assert run_cli(
            "embed", "--out", out, "--config", ini, "--data", data, "--models", models,
            "--threads", threads,
        ) == 0
        tables[threads] = (out / "ECG" / "embeddings.csv").read_bytes()
    assert tables[1].count(b"\n") - 1 == 144 > 2 * tile
    assert tables[2] == tables[1]
    assert autodiff.grad_enabled()
    assert run_cli("train", "--out", tmp_path / "again", "--config", ini, "--data", data, "--seed", 3) == 0


def test_overflowing_update_fails_its_step_and_keeps_the_initial_parameters(tmp_path, capsys):
    """A learning rate past the float32 range makes step 1's Adam update
    infinite. The step fails before the parameters are written: one error
    line names the step, and the last-good checkpoint holds the seeded
    initialization."""
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nmodalities = RESP\n"
        "[model]\nembed_dim = 8\nencoder_depth = 1\ndecoder_depth = 1\nn_heads = 2\n"
        "[ssl]\nsteps = 3\nbatch_size = 4\nn_permutations = 2\n",
        encoding="utf-8",
    )
    data, models = tmp_path / "cohort", tmp_path / "models"
    assert run_cli(
        "synth", "--out", data, "--config", ini, "--seed", 2, "--subjects", 6, "--segments", 2,
        "--prevalence", "CVD=0.5",
    ) == 0
    capsys.readouterr()
    rc = run_cli(
        "train", "--out", models, "--config", ini, "--data", data, "--seed", 2,
        "--learning-rate", "1e39",
    )
    err = capsys.readouterr().err
    lastgood = models / "RESP" / "checkpoint_lastgood.psgm"
    assert_one_line_data_error(
        rc, err, "non-finite parameter update at step 1;", str(lastgood), kind="NumericError", code=4
    )
    mcfg = model_config(ini, Modality.RESP)
    params, _ = mdl.load_checkpoint(lastgood, mcfg)
    s_init = np.random.SeedSequence(2).spawn(3)[0]
    for name, want in mdl.init_parameters(mcfg, s_init).items():
        np.testing.assert_array_equal(params[name], want, err_msg=name)
    assert not (models / "RESP" / "checkpoint.psgm").exists()


def test_diverging_training_is_one_error_line(chain, tmp_path, capsys):
    """``--learning-rate 1e6`` makes the chain's RESP training overflow
    within a few steps: the step that meets it fails (exit 4) with one error
    line, and no numpy RuntimeWarning is printed before it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(
            "train", "--out", tmp_path / "models", "--config", chain["ini"], "--data", chain["data"],
            "--seed", 5, "--steps", 20, "--learning-rate", "1e6",
        )
    assert [str(w.message) for w in caught] == []
    assert_one_line_data_error(rc, capsys.readouterr().err, " at step ", kind="NumericError", code=4)


@pytest.mark.parametrize("epsilon", ["1e-160", "1e-200"])
def test_vanishing_tcr_epsilon_fails_step_one_as_a_non_finite_loss(tmp_path, capsys, epsilon):
    """A positive ``--tcr-epsilon`` so small that b * epsilon^2 is subnormal
    (1e-160) or underflows to zero (1e-200) makes the coding-rate coefficient
    infinite: step 1's loss is non-finite, one error line names the step
    (exit 4) and the last-good checkpoint is kept."""
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nmodalities = RESP\n"
        "[model]\nembed_dim = 8\nencoder_depth = 1\ndecoder_depth = 1\nn_heads = 2\n"
        "[ssl]\nsteps = 2\nbatch_size = 4\nn_permutations = 2\n",
        encoding="utf-8",
    )
    data, models = tmp_path / "cohort", tmp_path / "models"
    assert run_cli(
        "synth", "--out", data, "--config", ini, "--seed", 2, "--subjects", 6, "--segments", 2,
        "--prevalence", "CVD=0.5",
    ) == 0
    capsys.readouterr()
    rc = run_cli("train", "--out", models, "--config", ini, "--data", data, "--seed", 2, "--tcr-epsilon", epsilon)
    lastgood = models / "RESP" / "checkpoint_lastgood.psgm"
    assert_one_line_data_error(
        rc, capsys.readouterr().err, "non-finite loss at step 1;", str(lastgood), kind="NumericError", code=4
    )
    assert lastgood.exists() and not (models / "RESP" / "checkpoint.psgm").exists()


def test_score_refuses_vectors_of_two_lengths_for_one_modality(chain, tmp_path, capsys):
    """Two rows of one modality whose arrays differ in length, each row
    consistent on its own, are refused naming the later line (exit 3), not
    left for the projection to trip over."""
    vec_dir = tmp_path / "vectors"
    vec_dir.mkdir()
    text = (chain["vectors"] / "vectors" / "vectors.csv").read_text(encoding="utf-8")
    (vec_dir / "vectors.csv").write_text(text + "DM,RESP,1,1,1,0,0\n", encoding="utf-8")
    rc = run_cli("score", "--out", tmp_path / "out", "--config", chain["ini"], "--data", chain["data"],
                 "--embeddings", chain["emb"], "--vectors", vec_dir)
    assert_one_line_data_error(
        rc, capsys.readouterr().err, "line 3: vector has 1 components where the CVD, RESP vector has 8"
    )


def test_oversized_manifest_cell_is_one_error_line(tmp_path, capsys):
    """A manifest cell past csv's 131,072-character field limit is a data
    error naming the file and line (exit 3), not a csv traceback."""
    data = tmp_path / "data"
    data.mkdir()
    sid = "S" * 200_000
    (data / "manifest.csv").write_text(f'subject_id,age,sex,bmi,sbp,frs,CVD\nA,60,1,25,,,1\n"{sid}",60,1,25,,,0\n',
                                       encoding="utf-8")
    rc = run_cli("vectors", "--out", tmp_path / "out", "--data", data, "--embeddings", tmp_path)
    assert_one_line_data_error(rc, capsys.readouterr().err, f"{data / 'manifest.csv'} line 3: field larger than",
                               kind="ManifestError")


def test_train_and_embed_bytes_do_not_depend_on_blas_threads(tmp_path):
    """psgp runs BLAS at one thread while it trains and embeds. EEG at d = 32
    and batch 8 makes 6000-row stem GEMMs, whose weight gradients OpenBLAS
    rounds differently when it splits them over two threads; with the pin
    the checkpoint and the table keep their bytes, and the caller's thread
    count is restored afterwards."""
    blas = autodiff.openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no thread-count control")
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nmodalities = EEG\n"
        "[model]\nembed_dim = 32\nencoder_depth = 1\ndecoder_depth = 1\n"
        "[ssl]\nsteps = 2\nbatch_size = 8\nn_permutations = 2\n",
        encoding="utf-8",
    )
    data = tmp_path / "cohort"
    assert run_cli(
        "synth", "--out", data, "--config", ini, "--seed", 4, "--subjects", 8, "--segments", 2,
        "--prevalence", "CVD=0.5",
    ) == 0
    saved = blas.get()
    outputs = {}
    try:
        for threads in (1, 2):
            blas.set(threads)
            models, emb = tmp_path / f"models{threads}", tmp_path / f"emb{threads}"
            assert run_cli("train", "--out", models, "--config", ini, "--data", data, "--seed", 4) == 0
            # every run embeds with the one-thread checkpoint, so embed is compared on its own
            assert run_cli(
                "embed", "--out", emb, "--config", ini, "--data", data, "--models", tmp_path / "models1",
            ) == 0
            assert blas.get() == threads
            outputs[threads] = (
                (models / "EEG" / "checkpoint.psgm").read_bytes(),
                (emb / "EEG" / "embeddings.csv").read_bytes(),
            )
    finally:
        blas.set(saved)
    assert outputs[2][0] == outputs[1][0]
    assert outputs[2][1] == outputs[1][1]


def test_paper_ini_trains_at_paper_width(tmp_path, capsys):
    """``--config configs/paper.ini`` reaches the model: zero steps save the
    initial d = 256 parameters."""
    data = tmp_path / "cohort"
    assert run_cli(
        "synth", "--out", data, "--seed", 1, "--subjects", 4, "--segments", 1,
        "--prevalence", "CVD=0.5",
    ) == 0
    paper_ini = Path(__file__).resolve().parents[1] / "configs" / "paper.ini"
    assert run_cli(
        "train", "--out", tmp_path / "models", "--data", data, "--config", paper_ini,
        "--steps", 0, "--modality", "RESP",
    ) == 0
    capsys.readouterr()
    blob = (tmp_path / "models" / "RESP" / "checkpoint.psgm").read_bytes()
    assert b"\nembed_dim=256\n" in blob
    cfg = model_config(paper_ini, Modality.RESP)
    mdl.load_checkpoint(tmp_path / "models" / "RESP" / "checkpoint.psgm", cfg)
    assert (cfg.embed_dim, cfg.encoder_depth, cfg.decoder_depth) == (256, 4, 2)


@pytest.fixture(scope="module")
def cohorts_by_windows(tmp_path_factory):
    """Two cohorts of 48 subjects that differ only in windows per subject
    (6 and 24), each with a one-step d = 8 model trained on it."""
    root = tmp_path_factory.mktemp("windows")
    for windows in (6, 24):
        data = root / f"cohort{windows}"
        assert run_cli(
            "synth", "--out", data, "--seed", 1, "--subjects", 48, "--segments", windows,
            "--prevalence", "CVD=0.5",
        ) == 0
        assert run_cli(
            "train", "--out", root / f"models{windows}", "--data", data, "--seed", 1,
            "--steps", 1, "--embed-dim", 8,
        ) == 0
    return root


@pytest.mark.parametrize("stage", ["train", "embed"])
def test_stage_memory_does_not_grow_with_windows_per_subject(cohorts_by_windows, tmp_path, stage):
    """``train`` holds one batch of windows and ``embed`` one encoder tile
    (273 rows at d = 8, fewer than either cohort's EEG windows), so four
    times the windows per subject add well under one EEG stack of the
    smaller cohort: 4.3 MB for ``embed`` and about 3.5 MB for the training
    split ``train`` reads. Stacking every window took the stack twice (the
    blocks and their concatenation), 20-40 MB more here."""
    peaks = {}
    for windows in (6, 24):
        args = ["--data", cohorts_by_windows / f"cohort{windows}", "--seed", 1, "--embed-dim", 8]
        if stage == "train":
            args += ["--steps", 1]
        else:
            args += ["--models", cohorts_by_windows / f"models{windows}"]
        tracemalloc.start()
        try:
            assert run_cli(stage, "--out", tmp_path / f"out{windows}", *args) == 0
            peaks[windows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[24] - peaks[6] < 1_000_000, peaks


@pytest.fixture(scope="module")
def wide_tables(tmp_path_factory):
    """A manifest of 80 subjects, half CVD-positive, and d = 256 EEG and ECG
    tables of 120 rows per subject (9,600 rows, 9.8 MB as float32 each)."""
    root = tmp_path_factory.mktemp("wide")
    lines = ["subject_id,age,sex,bmi,sbp,frs,CVD,DM"]
    lines += [f"S{i:03d},{50 + i % 30},{i % 2},{22 + i % 9},,,{i % 2},{i // 2 % 2}" for i in range(80)]
    (root / "data").mkdir()
    (root / "data" / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    keys = [(f"S{i:03d}", w) for i in range(80) for w in range(120)]
    X = np.random.default_rng(4).standard_normal((len(keys), 256)).astype(np.float32)
    eeg = root / "emb" / "EEG" / "embeddings.csv"
    eeg.parent.mkdir(parents=True)
    _write_embeddings_csv(eeg, *_key_arrays(keys), X, Modality.EEG)
    (root / "emb" / "ECG").mkdir()
    (root / "emb" / "ECG" / "embeddings.csv").write_text(
        eeg.read_text(encoding="utf-8").replace(",EEG,", ",ECG,"), encoding="utf-8"
    )
    assert run_cli("vectors", "--out", root / "vectors", "--data", root / "data", "--embeddings", root / "emb",
                   "--modality", "EEG") == 0
    return root, X.nbytes, len(keys)


def traced_peak(*argv) -> int:
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_score_memory_follows_the_rows_not_the_table(wide_tables, tmp_path):
    """``score`` over one d = 256 table with two vectors streams the table:
    past one chunk it keeps per row a subject code, the reader's key pair and
    two float64 projections (1.2 MB traced here), not the table's 1,024
    bytes a row, which it held about four times over (39.8 MB) when it read
    the table whole."""
    root, table_bytes, rows = wide_tables
    peak = traced_peak("score", "--out", tmp_path, "--data", root / "data", "--embeddings", root / "emb",
                       "--vectors", root / "vectors" / "vectors", "--modality", "EEG")
    assert peak < 1_000_000 + 4 * rows * 2 * 8 < table_bytes / 6, (peak, table_bytes)


def test_vectors_memory_follows_the_rows_not_the_table(wide_tables, tmp_path):
    """``vectors`` over two d = 256 tables streams each as ``score`` does:
    past one chunk it keeps per row only the reader's key pair and per class
    a float64 running sum (0.85 MB traced here), not the table's 1,024 bytes
    a row, which it held in one array (1.14 tables) when it read each table
    whole."""
    root, table_bytes, rows = wide_tables
    peak = traced_peak("vectors", "--out", tmp_path, "--data", root / "data", "--embeddings", root / "emb",
                       "--modality", "EEG,ECG")
    assert peak < table_bytes / 6, (peak, table_bytes)


def chain_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root`` by relative path, without the
    wall-clock column of each ``train.log`` and the ``threads`` line of each
    configuration snapshot."""
    digest = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        if path.name == "train.log":
            blob = b"".join(line.rpartition(b",")[0] + b"\n" for line in blob.splitlines())
        elif path.name.startswith("resolved_config_"):
            blob = b"".join(line for line in blob.splitlines(True) if not line.startswith(b"threads = "))
        digest[str(path.relative_to(root))] = hashlib.sha256(blob).hexdigest()
    return digest


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_chain_bytes_do_not_depend_on_threads(tmp_path, precision):
    """The whole chain, synth to report, at 24 x 3 and d = 32: 72 windows
    per modality make two or three encoder tiles, so ``embed``'s pool runs
    at ``--threads 2``. Every output file has the bytes of ``--threads 1``."""
    ini = tmp_path / "run.ini"
    ini.write_text(f"[model]\nprecision = {precision}\n", encoding="utf-8")
    digests = []
    for threads in (1, 2):
        base = tmp_path / f"threads{threads}"
        data, scores = base / "synth", base / "score" / "scores.csv"
        plan = [
            ("synth", "--subjects", 24, "--segments", 3, "--prevalence", "CVD=0.4", "--effect", "CVD:ECG=3.0"),
            ("train", "--data", data, "--steps", 3, "--batch-size", 4, "--permutations", 2),
            ("embed", "--data", data, "--models", base / "train"),
            ("vectors", "--data", data, "--embeddings", base / "embed"),
            ("score", "--data", data, "--embeddings", base / "embed", "--vectors", base / "vectors" / "vectors"),
            ("fit", "--data", data, "--scores", scores),
            ("eval", "--data", data, "--scores", scores),
            ("report", "--data", data, "--scores", scores, "--subject", "S0001", "--modality", "ECG"),
        ]
        for stage, *args in plan:
            assert run_cli(stage, "--out", base / stage, "--config", ini, "--seed", 3, "--threads", threads, *args) == 0
        digests.append(chain_digest(base))
    assert len(digests[0]) > 90
    assert digests[1] == digests[0]


# sha256 of each downstream output of ``test_downstream_bytes_are_pinned``,
# as ``chain_digest`` hashes them; recorded before ``score_cohort``,
# ``odds_ratio_report`` and ``build_report_card`` returned plain mappings and
# rows. ``or_report.csv`` is what ``fit --standardize`` wrote while per-SD
# fits were an option.
DOWNSTREAM_DIGEST = {
    "eval/grid.csv": "20565d402d5079d7e88cc5c926199d59601433004ff2de82d23e4949718c75f2",
    "eval/resolved_config_eval.txt": "e6a1f3f5c41a2b8deae7bf4db0db5e32d74208baae036dd52ea60b2a07feda05",
    "fit/or_report.csv": "22ae6cfc1559ab91d491d7c89fde4c16e38e526425a3ff1c2d462e7be76247a3",
    "fit/resolved_config_fit.txt": "e6a1f3f5c41a2b8deae7bf4db0db5e32d74208baae036dd52ea60b2a07feda05",
    "report/report_S004.csv": "03adf8b21b4325de643d547df92682e54906b2704bb9213fc7b97e6cda62b6c4",
    "report/report_S004.txt": "832cf302e5ed1e7e656672c0f4e0b7d8995d714540a55aa5ea3d0f0949d56836",
    "report/resolved_config_report.txt": "1574e27a6cbd0ad98f6fef560dae0000aaa88603b8c851dc077ce7b457ab41c4",
    "score/resolved_config_score.txt": "e6a1f3f5c41a2b8deae7bf4db0db5e32d74208baae036dd52ea60b2a07feda05",
    "score/scores.csv": "c8c83a9f35ca3385f6e48815b86f934ae7f708ce537cdf617d54a97d591c4a71",
    "vectors/resolved_config_vectors.txt": "e6a1f3f5c41a2b8deae7bf4db0db5e32d74208baae036dd52ea60b2a07feda05",
    "vectors/split.csv": "fddadbb88163abe4c7c8fde38b2eb3802bf85535e3a821876fd610d9b3bf5c02",
    "vectors/vectors/vectors.csv": "54c5fe3f513d8d09f6757792555b8954f084f66a64d0db3aa9725b76899af349",
}


def downstream_inputs(root: Path) -> tuple[Path, Path]:
    """A cohort directory and seeded d = 8 tables of every modality: 30
    subjects, two outcomes named out of alphabetical order, each table's rows
    shuffled, one manifest subject without rows in the ECG table and one
    table subject outside the manifest. Returns (data, embeddings)."""
    lines = ["subject_id,age,sex,bmi,sbp,frs,HTN,CVD"]
    lines += [f"S{i:03d},{40 + i % 25},{i % 2},{21 + i % 11},,,{i // 3 % 2},{i * 7 % 5 // 3}" for i in range(30)]
    data, emb = root / "data", root / "emb"
    data.mkdir()
    (data / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rng = np.random.default_rng(34)
    for modality in Modality:
        sids = [f"S{i:03d}" for i in range(30) if not (modality is Modality.ECG and i == 7)] + ["X999"]
        keys = [(sid, w) for sid in sids for w in range(2 + len(sid) % 3 + sids.index(sid) % 4)]
        keys = [keys[j] for j in rng.permutation(len(keys))]
        X = rng.standard_normal((len(keys), 8))
        X = (X / np.linalg.norm(X, axis=1, keepdims=True)).astype(np.float32)
        (emb / modality.name).mkdir(parents=True)
        _write_embeddings_csv(emb / modality.name / "embeddings.csv", *_key_arrays(keys), X, modality)
    return data, emb


def test_downstream_bytes_are_pinned(tmp_path):
    """vectors -> score -> fit -> eval -> report over ``downstream_inputs``.
    Every output keeps the bytes recorded above."""
    data, emb = downstream_inputs(tmp_path)
    out, scores = tmp_path / "out", tmp_path / "out" / "score" / "scores.csv"
    plan = [
        ("vectors", "--data", data, "--embeddings", emb),
        ("score", "--data", data, "--embeddings", emb, "--vectors", out / "vectors" / "vectors"),
        ("fit", "--data", data, "--scores", scores),
        ("eval", "--data", data, "--scores", scores),
        ("report", "--data", data, "--scores", scores, "--subject", "S004", "--modality", "ECG"),
    ]
    for stage, *args in plan:
        assert run_cli(stage, "--out", out / stage, "--seed", 5, *args) == 0
    digest = chain_digest(out)
    assert digest == DOWNSTREAM_DIGEST


def test_snapshot_reproduces_each_downstream_stage(tmp_path):
    """Each downstream stage, run with options off their defaults, then again
    with ``--config`` its own snapshot and only its paths and ``--subject``:
    the second run writes the bytes of the first, snapshot included. An
    option that is not a RunConfig field would be lost on the second run."""
    data, emb = downstream_inputs(tmp_path)
    first, scores = tmp_path / "first", tmp_path / "first" / "score" / "scores.csv"
    narrowed = ["--outcomes", "CVD", "--split-ratio", "0.6"]
    plan = [
        ("vectors", ["--data", data, "--embeddings", emb], ["--modality", "EEG,ECG", *narrowed]),
        ("score", ["--data", data, "--embeddings", emb, "--vectors", first / "vectors" / "vectors"],
         ["--modality", "EEG,ECG"]),
        ("fit", ["--data", data, "--scores", scores], ["--modality", "ECG", *narrowed]),
        ("eval", ["--data", data, "--scores", scores], narrowed),
        ("report", ["--data", data, "--scores", scores, "--subject", "S004"], ["--modality", "ECG", *narrowed]),
    ]
    for stage, paths, options in plan:
        assert run_cli(stage, "--out", first / stage, "--seed", 8, *paths, *options) == 0
        snapshot = first / stage / f"resolved_config_{stage}.txt"
        again = tmp_path / "again" / stage
        assert run_cli(stage, "--out", again, "--config", snapshot, *paths) == 0
        assert tree_bytes(again) == tree_bytes(first / stage), stage
