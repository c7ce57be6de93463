"""Tests for run configuration loading and parsing."""
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from psgp.config import (
    _SECTIONS,
    RunConfig,
    load_run_config,
    model_config_for,
    parse_effects,
    parse_modalities,
    parse_outcomes,
    parse_prevalence,
    resolved_text,
    ssl_config_for,
    synth_config_for,
)
from psgp.errors import ConfigError
from psgp.model import ModelConfig
from psgp.pretrain import SslConfig
from psgp.signalio import Modality
from psgp.synth import SynthConfig

PAPER_INI = Path(__file__).resolve().parents[1] / "configs" / "paper.ini"


class TestDefaults:
    def test_desk_scale_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 0
        assert cfg.modalities == (Modality.EEG, Modality.ECG, Modality.RESP)
        assert cfg.outcomes == ()
        assert cfg.threads == 1
        assert cfg.split_ratio == 0.8
        assert cfg.embed_dim == 32
        assert cfg.encoder_depth == 4
        assert cfg.decoder_depth == 2
        assert cfg.precision == "f32"
        assert cfg.mask_ratio == 0.5
        assert cfg.n_permutations == 4
        assert cfg.tcr_epsilon == 0.2
        assert cfg.tcr_weight == 1.0
        assert cfg.steps == 300
        assert cfg.n_subjects == 200
        assert cfg.segments_per_subject == 20
        assert cfg.prevalence == (("CVD", 0.4),)
        assert cfg.effects == ()

    def test_none_path_returns_defaults(self):
        assert load_run_config(None) == RunConfig()


class TestParseModalities:
    def test_names_case_insensitive(self):
        assert parse_modalities("eeg, ECG") == (Modality.EEG, Modality.ECG)

    def test_all_and_empty(self):
        want = (Modality.EEG, Modality.ECG, Modality.RESP)
        assert parse_modalities("all") == want
        assert parse_modalities("") == want
        assert parse_modalities("  ") == want

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            parse_modalities("EEG,eeg")

    def test_unknown_modality_rejected(self):
        with pytest.raises(ConfigError, match="unknown modality name 'EMG'"):
            parse_modalities("EMG")


class TestParseOutcomes:
    def test_basic(self):
        assert parse_outcomes(" CVD, Stroke ,") == ("CVD", "Stroke")

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError, match="duplicate outcome 'CVD'"):
            parse_outcomes("CVD,Stroke,CVD")


class TestParsePrevalence:
    def test_basic(self):
        assert parse_prevalence("CVD=0.4,HTN=0.2") == (("CVD", 0.4), ("HTN", 0.2))

    def test_whitespace_and_trailing_comma(self):
        assert parse_prevalence(" CVD = 0.4 , ") == (("CVD", 0.4),)

    @pytest.mark.parametrize("text", ["CVD", "CVD=abc", "", "   ,  ", "CVD=0.4,HTN=0.2,CVD=0.1"])
    def test_bad_entries_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_prevalence(text)


class TestParseEffects:
    def test_basic(self):
        assert parse_effects("CVD:ECG=3.0,CVD:eeg=0") == (
            ("CVD", "ECG", 3.0),
            ("CVD", "EEG", 0.0),
        )

    def test_empty_text_gives_no_effects(self):
        assert parse_effects("") == ()

    @pytest.mark.parametrize(
        "text", ["CVD=3.0", "CVD:ECG", "CVD:ECG=abc", "CVD:EMG=1", "CVD:ECG=1,HTN:ECG=1,CVD:ecg=0"]
    )
    def test_bad_entries_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_effects(text)


class TestLoadRunConfig:
    def test_full_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\n"
            "seed = 7\n"
            "modalities = ECG,RESP\n"
            "outcomes = CVD, Stroke\n"
            "threads = 3\n"
            "split_ratio = 0.7\n"
            "[model]\n"
            "embed_dim = 16\n"
            "precision = f64\n"
            "[ssl]\n"
            "steps = 12\n"
            "learning_rate = 5e-4\n"
            "[synth]\n"
            "n_subjects = 30\n"
            "prevalence = CVD=0.5,Stroke=0.2\n"
            "effects = CVD:ECG=2.5\n",
            encoding="utf-8",
        )
        cfg = load_run_config(path)
        assert cfg.seed == 7
        assert cfg.modalities == (Modality.ECG, Modality.RESP)
        assert cfg.outcomes == ("CVD", "Stroke")
        assert cfg.threads == 3
        assert cfg.split_ratio == 0.7
        assert cfg.embed_dim == 16
        assert cfg.precision == "f64"
        assert cfg.steps == 12
        assert cfg.learning_rate == 5e-4
        assert cfg.n_subjects == 30
        assert cfg.prevalence == (("CVD", 0.5), ("Stroke", 0.2))
        assert cfg.effects == (("CVD", "ECG", 2.5),)
        # untouched keys keep their defaults
        assert cfg.batch_size == 8

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "absent.ini")

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[training]\nsteps = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"unknown config section"):
            load_run_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        for section, key in [("ssl", "step_count"), ("ssl", "masked_only"), ("synth", "base_waveform")]:
            path.write_text(f"[{section}]\n{key} = 5\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
                load_run_config(path)

    def test_key_in_wrong_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nsteps = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"unknown key"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "body",
        [
            "[ssl]\nsteps = soon\n",
            "[run]\nsplit_ratio = lots\n",
        ],
    )
    def test_bad_values_rejected(self, tmp_path, body):
        path = tmp_path / "run.ini"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid value"):
            load_run_config(path)

    def test_malformed_ini_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("steps = 5\n", encoding="utf-8")  # key before any section
        with pytest.raises(ConfigError, match="cannot parse"):
            load_run_config(path)


class TestResolvedText:
    def test_deterministic_and_complete(self):
        cfg = RunConfig()
        text_a = resolved_text(cfg)
        text_b = resolved_text(cfg)
        assert text_a == text_b
        for section in ("[run]", "[model]", "[ssl]", "[synth]"):
            assert section in text_a
        for key in ("seed", "modalities", "embed_dim", "mask_ratio", "n_subjects"):
            assert f"\n{key} = " in "\n" + text_a

    def test_values_render_readably(self):
        cfg = RunConfig(
            modalities=(Modality.ECG,),
            outcomes=("CVD",),
            prevalence=(("CVD", 0.4),),
            effects=(("CVD", "ECG", 3.0),),
            learning_rate=5e-4,
        )
        text = resolved_text(cfg)
        assert "modalities = ECG" in text
        assert "outcomes = CVD" in text
        assert "prevalence = CVD=0.4" in text
        assert "effects = CVD:ECG=3" in text
        assert "learning_rate = 0.0005" in text

    def test_round_trips_through_loader(self, tmp_path):
        cfg = RunConfig(seed=9, steps=17, modalities=(Modality.RESP,))
        path = tmp_path / "echo.ini"
        path.write_text(resolved_text(cfg), encoding="utf-8")
        assert load_run_config(path) == cfg


class TestAdapters:
    def test_model_config_for(self):
        cfg = RunConfig(embed_dim=16, encoder_depth=2, decoder_depth=1, n_heads=2, precision="f64")
        mc = model_config_for(cfg, Modality.RESP)
        assert mc.embed_dim == 16
        assert mc.encoder_depth == 2
        assert mc.decoder_depth == 1
        assert mc.n_heads == 2
        assert mc.precision == "f64"
        assert mc.input_len == 300

    def test_ssl_config_for(self):
        cfg = RunConfig(seed=5, steps=9, mask_ratio=0.25, tcr_weight=0.5)
        sc = ssl_config_for(cfg)
        assert sc.seed == 5
        assert sc.steps == 9
        assert sc.mask_ratio == 0.25
        assert sc.tcr_weight == 0.5

    def test_synth_config_for(self):
        cfg = RunConfig(
            seed=3,
            n_subjects=12,
            segments_per_subject=5,
            prevalence=(("CVD", 0.5),),
            effects=(("CVD", "ECG", 2.0),),
            noise_sigma=0.7,
            affected_fraction=0.4,
        )
        sc = synth_config_for(cfg)
        assert sc.seed == 3
        assert sc.n_subjects == 12
        assert sc.segments_per_subject == 5
        assert sc.prevalence == {"CVD": 0.5}
        assert sc.effects == {("CVD", "ECG"): 2.0}
        assert sc.noise_sigma == 0.7
        assert sc.affected_fraction == 0.4


class TestSections:
    def test_sections_partition_the_fields(self):
        keys = [key for section in _SECTIONS.values() for key in section]
        assert list(_SECTIONS) == ["run", "model", "ssl", "synth"]
        assert sorted(keys) == sorted(f.name for f in fields(RunConfig))
        assert len(keys) == len(set(keys))

    def test_each_section_builds_its_dataclass(self):
        cfg = RunConfig()
        built = {
            "model": model_config_for(cfg, Modality.ECG),
            "ssl": ssl_config_for(cfg),
            "synth": synth_config_for(cfg),
        }
        for section, obj in built.items():
            for key in _SECTIONS[section]:
                got = getattr(obj, key)
                if key == "prevalence":
                    got = tuple(got.items())
                elif key == "effects":
                    got = tuple((o, m, size) for (o, m), size in got.items())
                assert got == getattr(cfg, key), key
        assert built["ssl"].seed == built["synth"].seed == cfg.seed

    @pytest.mark.parametrize("cls", [ModelConfig, SslConfig, SynthConfig])
    def test_run_config_holds_the_only_default(self, cls):
        run_fields = {f.name for f in fields(RunConfig)}
        defaulted = [
            f.name
            for f in fields(cls)
            if f.name in run_fields and (f.default is not MISSING or f.default_factory is not MISSING)
        ]
        assert defaulted == []

    def test_paper_ini_is_the_paper_scale(self):
        cfg = load_run_config(PAPER_INI)
        mc = model_config_for(cfg, Modality.EEG)
        assert (mc.embed_dim, mc.encoder_depth, mc.decoder_depth) == (256, 4, 2)
        assert (mc.n_heads, mc.ffn_mult, mc.precision) == (4, 4, "f32")
        sc = ssl_config_for(cfg)
        assert (sc.n_permutations, sc.batch_size, sc.learning_rate, sc.steps) == (24, 16, 1e-4, 1000)
        assert (sc.mask_ratio, sc.tcr_epsilon, sc.tcr_weight) == (0.5, 0.2, 1.0)
