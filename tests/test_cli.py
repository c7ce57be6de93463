"""End-to-end tests for the command-line interface (all in-process)."""
import csv
from pathlib import Path

import numpy as np
import pytest

from psgp.cli import main


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


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
        vec_files = sorted((chain["vectors"] / "vectors").glob("*.txt"))
        assert [p.name for p in vec_files] == ["CVD_RESP.txt"]

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


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("compress") == 2
        capsys.readouterr()

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

    def test_unknown_report_subject_is_data_error(self, chain, capsys):
        rc = run_cli(
            "report", "--out", chain["root"] / "r2", "--config", chain["ini"],
            "--data", chain["data"], "--scores", chain["scores"] / "scores.csv",
            "--subject", "S9999", "--modality", "RESP", "--seed", 5,
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert "S9999" in err


def corrupt_cell(src: Path, dst: Path, line: int, column: int, value: str | None) -> None:
    """Copy a CSV with one cell replaced (``value=None`` drops the cell)."""
    with src.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if value is None:
        del rows[line - 1][column]
    else:
        rows[line - 1][column] = value
    dst.parent.mkdir(parents=True, exist_ok=True)
    with dst.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def assert_one_line_data_error(rc: int, err: str, *fragments: str) -> None:
    assert rc == 3
    assert "Traceback" not in err
    assert err.startswith("error: FormatError:")
    assert err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


class TestCorruptTextTables:
    """One bad cell in a text table is a data error (exit 3, one line)."""

    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("column,value", [(3, "high"), (4, "3.5"), (4, "")])
    def test_score_table_cell(self, chain, tmp_path, capsys, command, column, value):
        scores = tmp_path / "scores.csv"
        corrupt_cell(chain["scores"] / "scores.csv", scores, 4, column, value)
        rc = run_cli(
            command, "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--scores", scores, "--seed", 5,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, str(scores), "line 4")

    @pytest.mark.parametrize(
        "key,value",
        [("n_positive", "many"), ("n_negative", "1.5"), ("outcome", None), ("modality", None)],
    )
    def test_disease_vector_field(self, chain, tmp_path, capsys, key, value):
        vec_dir = tmp_path / "vectors"
        vec_dir.mkdir()
        src = chain["vectors"] / "vectors" / "CVD_RESP.txt"
        lines = [
            line for line in src.read_text(encoding="utf-8").splitlines()
            if value is not None or not line.startswith(f"{key}=")
        ]
        if value is not None:
            lines = [f"{key}={value}" if line.startswith(f"{key}=") else line for line in lines]
        (vec_dir / "CVD_RESP.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = run_cli(
            "score", "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--embeddings", chain["emb"], "--vectors", vec_dir,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, "CVD_RESP.txt")

    @pytest.mark.parametrize("column,value", [(2, "first"), (5, "0.1.2"), (7, None)])
    def test_embeddings_table_cell(self, chain, tmp_path, capsys, column, value):
        emb = tmp_path / "emb"
        table = emb / "RESP" / "embeddings.csv"
        corrupt_cell(chain["emb"] / "RESP" / "embeddings.csv", table, 6, column, value)
        rc = run_cli(
            "vectors", "--out", tmp_path / "out", "--config", chain["ini"],
            "--data", chain["data"], "--embeddings", emb, "--seed", 5,
        )
        assert_one_line_data_error(rc, capsys.readouterr().err, str(table), "line 6")


class TestThreadsResolution:
    def test_env_var_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSGP_THREADS", "2")
        assert run_cli(
            "synth", "--out", tmp_path / "s", "--seed", 1, "--subjects", 4,
            "--segments", 1, "--prevalence", "CVD=0.5",
        ) == 0
        snapshot = (tmp_path / "s" / "resolved_config_synth.txt").read_text(encoding="utf-8")
        assert "threads = 2" in snapshot

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSGP_THREADS", "2")
        assert run_cli(
            "synth", "--out", tmp_path / "s", "--seed", 1, "--subjects", 4,
            "--segments", 1, "--prevalence", "CVD=0.5", "--threads", 3,
        ) == 0
        snapshot = (tmp_path / "s" / "resolved_config_synth.txt").read_text(encoding="utf-8")
        assert "threads = 3" in snapshot

    def test_invalid_env_value_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PSGP_THREADS", "many")
        rc = run_cli(
            "synth", "--out", tmp_path / "s", "--seed", 1, "--subjects", 4,
            "--segments", 1, "--prevalence", "CVD=0.5",
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ConfigError:")
        assert "PSGP_THREADS" in err
