"""Tests for run configuration loading and parsing."""
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

from psgp.config import (
    _SECTIONS,
    RunConfig,
    _format_value,
    load_run_config,
    parse_value,
    resolved_text,
    stage_configs,
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
        assert parse_value("modalities", "eeg, ECG") == (Modality.EEG, Modality.ECG)

    def test_all_and_empty(self):
        want = (Modality.EEG, Modality.ECG, Modality.RESP)
        assert parse_value("modalities", "all") == want
        assert parse_value("modalities", "") == want
        assert parse_value("modalities", "  ") == want

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            parse_value("modalities", "EEG,eeg")

    def test_list_of_no_names_rejected(self):
        """Printed, no modality would read back as every modality."""
        with pytest.raises(ConfigError, match="empty modalities list"):
            parse_value("modalities", " , ")

    def test_unknown_modality_rejected(self):
        with pytest.raises(ConfigError, match="unknown modality name 'EMG'"):
            parse_value("modalities", "EMG")


class TestParseOutcomes:
    def test_basic(self):
        assert parse_value("outcomes", " CVD, Stroke ,") == ("CVD", "Stroke")

    def test_names_are_compared_whole(self):
        assert parse_value("outcomes", "A=1,A=2") == ("A=1", "A=2")

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError, match="duplicate outcome 'CVD'"):
            parse_value("outcomes", "CVD,Stroke,CVD")


class TestParsePrevalence:
    def test_basic(self):
        assert parse_value("prevalence", "CVD=0.4,HTN=0.2") == (("CVD", 0.4), ("HTN", 0.2))

    def test_whitespace_and_trailing_comma(self):
        assert parse_value("prevalence", " CVD = 0.4 , ") == (("CVD", 0.4),)

    @pytest.mark.parametrize("text", ["CVD", "CVD=abc", "", "   ,  ", "CVD=0.4,HTN=0.2,CVD=0.1"])
    def test_bad_entries_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_value("prevalence", text)


class TestParseEffects:
    def test_basic(self):
        assert parse_value("effects", "CVD:ECG=3.0,CVD:eeg=0") == (
            ("CVD", "ECG", 3.0),
            ("CVD", "EEG", 0.0),
        )

    def test_empty_text_gives_no_effects(self):
        assert parse_value("effects", "") == ()

    @pytest.mark.parametrize(
        "text", ["CVD=3.0", "CVD:ECG", "CVD:ECG=abc", "CVD:EMG=1", "CVD:ECG=1,HTN:ECG=1,CVD:ecg=0"]
    )
    def test_bad_entries_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_value("effects", text)


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


LISTS_CONFIG = RunConfig(
    modalities=(Modality.ECG, Modality.RESP),
    outcomes=("CVD", "HTN"),
    prevalence=(("CVD", 0.4), ("HTN", 0.25)),
    effects=(("CVD", "ECG", 3.0), ("HTN", "RESP", 0.5)),
)

_DESK_MODEL_SSL = (
    "[model]\nembed_dim = 32\nencoder_depth = 4\ndecoder_depth = 2\nn_heads = 4\nffn_mult = 4\n"
    "precision = f32\n\n[ssl]\nmask_ratio = 0.5\nn_permutations = 4\ntcr_epsilon = 0.2\n"
    "tcr_weight = 1\nbatch_size = 8\nlearning_rate = 0.001\nsteps = 300\n\n"
)
_DEFAULT_SYNTH_TAIL = "effects = \nnoise_sigma = 1\naffected_fraction = 0.3\n"

# resolved_text as the codec's g-only printer wrote it
GOLDEN_SNAPSHOTS = {
    "defaults": (
        "[run]\nseed = 0\nmodalities = EEG,ECG,RESP\noutcomes = \nthreads = 1\nsplit_ratio = 0.8\n\n"
        + _DESK_MODEL_SSL
        + "[synth]\nn_subjects = 200\nsegments_per_subject = 20\nprevalence = CVD=0.4\n"
        + _DEFAULT_SYNTH_TAIL
    ),
    "paper": (
        "[run]\nseed = 0\nmodalities = EEG,ECG,RESP\noutcomes = \nthreads = 1\nsplit_ratio = 0.8\n\n"
        "[model]\nembed_dim = 256\nencoder_depth = 4\ndecoder_depth = 2\nn_heads = 4\nffn_mult = 4\n"
        "precision = f32\n\n[ssl]\nmask_ratio = 0.5\nn_permutations = 24\ntcr_epsilon = 0.2\n"
        "tcr_weight = 1\nbatch_size = 16\nlearning_rate = 0.0001\nsteps = 1000\n\n"
        "[synth]\nn_subjects = 200\nsegments_per_subject = 20\nprevalence = CVD=0.4\n"
        + _DEFAULT_SYNTH_TAIL
    ),
    "lists": (
        "[run]\nseed = 0\nmodalities = ECG,RESP\noutcomes = CVD,HTN\nthreads = 1\nsplit_ratio = 0.8\n\n"
        + _DESK_MODEL_SSL
        + "[synth]\nn_subjects = 200\nsegments_per_subject = 20\nprevalence = CVD=0.4,HTN=0.25\n"
        "effects = CVD:ECG=3,HTN:RESP=0.5\nnoise_sigma = 1\naffected_fraction = 0.3\n"
    ),
}


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

    @pytest.mark.parametrize("name", list(GOLDEN_SNAPSHOTS))
    def test_golden_snapshot(self, name):
        """Snapshots whose floats ``g`` already round-trips keep their bytes."""
        cfg = {
            "defaults": RunConfig(),
            "paper": load_run_config(PAPER_INI),
            "lists": LISTS_CONFIG,
        }[name]
        assert resolved_text(cfg) == GOLDEN_SNAPSHOTS[name]

    @pytest.mark.parametrize(
        "value,text",
        [(0.4, "0.4"), (3.0, "3"), (1e-4, "0.0001"), (1e-7, "1e-07"), (0.123456789, "0.123456789"),
         (0.3333333, "0.3333333"), (1 / 3, "0.3333333333333333"), (123456789.0, "123456789.0")],
    )
    def test_float_prints_as_short_g_or_exact_repr(self, value, text):
        """``g`` keeps six digits; a float it would round prints as ``repr``,
        in a scalar field and in a list entry alike."""
        cfg = replace(RunConfig(), noise_sigma=value, prevalence=(("CVD", value),))
        assert _format_value(cfg, "noise_sigma") == text
        assert _format_value(cfg, "prevalence") == f"CVD={text}"


class TestAdapters:
    def test_model_config_for(self):
        cfg = RunConfig(embed_dim=16, encoder_depth=2, decoder_depth=1, n_heads=2, precision="f64")
        mc = stage_configs(cfg).models[Modality.RESP]
        assert mc.embed_dim == 16
        assert mc.encoder_depth == 2
        assert mc.decoder_depth == 1
        assert mc.n_heads == 2
        assert mc.precision == "f64"
        assert mc.input_len == 300

    def test_builds_one_model_per_configured_modality(self):
        stages = stage_configs(RunConfig(modalities=(Modality.RESP, Modality.EEG)))
        assert list(stages.models) == [Modality.RESP, Modality.EEG]
        assert [m.modality for m in stages.models.values()] == [Modality.RESP, Modality.EEG]

    def test_ssl_config_for(self):
        cfg = RunConfig(seed=5, steps=9, mask_ratio=0.25, tcr_weight=0.5)
        sc = stage_configs(cfg).ssl
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
        sc = stage_configs(cfg).synth
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
        stages = stage_configs(cfg)
        built = {"model": stages.models[Modality.ECG], "ssl": stages.ssl, "synth": stages.synth}
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
        mc = stage_configs(cfg).models[Modality.EEG]
        assert (mc.embed_dim, mc.encoder_depth, mc.decoder_depth) == (256, 4, 2)
        assert (mc.n_heads, mc.ffn_mult, mc.precision) == (4, 4, "f32")
        sc = stage_configs(cfg).ssl
        assert (sc.n_permutations, sc.batch_size, sc.learning_rate, sc.steps) == (24, 16, 1e-4, 1000)
        assert (sc.mask_ratio, sc.tcr_epsilon, sc.tcr_weight) == (0.5, 0.2, 1.0)


class TestOptionCodec:
    # a value other than the default for every RunConfig field, with
    # floats that need more than six digits
    VALUES = dict(
        seed=7,
        modalities=(Modality.RESP, Modality.EEG),
        outcomes=("CVD", "Stroke"),
        threads=3,
        split_ratio=0.123456789,
        embed_dim=48,
        encoder_depth=3,
        decoder_depth=1,
        n_heads=6,
        ffn_mult=2,
        precision="f64",
        mask_ratio=0.333333333,
        n_permutations=5,
        tcr_epsilon=1e-7,
        tcr_weight=2.5,
        batch_size=6,
        learning_rate=0.000123456789,
        steps=11,
        n_subjects=31,
        segments_per_subject=9,
        prevalence=(("CVD", 0.123456789), ("Stroke", 0.2)),
        effects=(("CVD", "ECG", 2.71828183), ("Stroke", "EEG", 0.0)),
        noise_sigma=1.23456789,
        affected_fraction=0.987654321,
    )

    def test_values_cover_every_field(self):
        """A new field must be added here, so its codec is tested."""
        assert list(self.VALUES) == [f.name for f in fields(RunConfig)]
        assert all(getattr(RunConfig(), k) != v for k, v in self.VALUES.items())

    @pytest.mark.parametrize("cfg", [RunConfig(), replace(RunConfig(), **VALUES)], ids=["defaults", "values"])
    def test_every_field_round_trips(self, cfg):
        for f in fields(RunConfig):
            assert parse_value(f.name, _format_value(cfg, f.name)) == getattr(cfg, f.name), f.name
