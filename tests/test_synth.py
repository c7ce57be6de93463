"""Tests for the synthetic cohort generator."""
import csv
import hashlib
import tracemalloc

import numpy as np
import pytest

from psgp import synth
from psgp.cohort import load_manifest
from psgp.errors import ConfigError
from psgp.signalio import Modality, read_signal_file, round_half_up, samples_per_window
from psgp.synth import GroundTruth, SynthConfig, generate_cohort

from helpers import fresh_process_faults, glibc_defaults, tree_bytes


def small_config(**overrides):
    base = dict(
        n_subjects=6,
        segments_per_subject=4,
        prevalence={"CVD": 0.5},
        effects={},
        noise_sigma=1.0,
        affected_fraction=0.5,
        seed=11,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestSynthConfigValidation:
    def test_desk_values_are_valid(self):
        cfg = SynthConfig(
            n_subjects=200,
            segments_per_subject=20,
            prevalence={"CVD": 0.4},
            effects={},
            noise_sigma=1.0,
            affected_fraction=0.3,
            seed=0,
        )
        assert cfg.n_subjects == 200
        assert cfg.segments_per_subject == 20
        assert cfg.prevalence == {"CVD": 0.4}
        assert cfg.affected_fraction == 0.3

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_subjects=1),
            dict(segments_per_subject=0),
            dict(prevalence={}),
            dict(prevalence={"A,B": 0.5}),
            dict(prevalence={"": 0.5}),
            dict(prevalence={"CVD": 0.0}),
            dict(prevalence={"CVD": 1.0}),
            dict(effects={("Stroke", "ECG"): 1.0}),
            dict(effects={("CVD", "EMG"): 1.0}),
            dict(effects={("CVD", "ECG"): -0.5}),
            dict(prevalence={"A\nB": 0.5}),
            dict(noise_sigma=0.0),
            dict(affected_fraction=0.0),
            dict(affected_fraction=1.5),
            dict(prevalence={"A/B": 0.5}),
            dict(prevalence={"A\\B": 0.5}),
            dict(prevalence={'A"B': 0.5}),
            dict(prevalence={"A\rB": 0.5}),
            dict(prevalence={" CVD": 0.5}),
        ],
    )
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    def test_affected_fraction_of_one_allowed(self):
        cfg = small_config(affected_fraction=1.0)
        assert cfg.affected_fraction == 1.0

    def test_effect_size_lookup(self):
        cfg = small_config(effects={("CVD", "ECG"): 2.5})
        assert cfg.effect_size("CVD", Modality.ECG) == 2.5
        assert cfg.effect_size("CVD", Modality.EEG) == 0.0


class TestDeterminism:
    def test_same_seed_byte_identical_tree(self, tmp_path):
        cfg = small_config(effects={("CVD", "ECG"): 2.0})
        gt_a = generate_cohort(cfg, tmp_path / "a")
        gt_b = generate_cohort(cfg, tmp_path / "b")
        assert gt_a == gt_b
        files_a = tree_bytes(tmp_path / "a")
        files_b = tree_bytes(tmp_path / "b")
        assert sorted(files_a) == sorted(files_b)
        for name in files_a:
            assert files_a[name] == files_b[name], name

    def test_different_seed_differs(self, tmp_path):
        generate_cohort(small_config(seed=1), tmp_path / "a")
        generate_cohort(small_config(seed=2), tmp_path / "b")
        assert (tmp_path / "a" / "manifest.csv").read_bytes() != (
            tmp_path / "b" / "manifest.csv"
        ).read_bytes()


class TestOutputLayout:
    def test_expected_files_exist(self, tmp_path):
        cfg = small_config()
        generate_cohort(cfg, tmp_path)
        assert (tmp_path / "manifest.csv").is_file()
        assert (tmp_path / "effects.csv").is_file()
        assert (tmp_path / "affected.csv").is_file()
        signals = sorted(p.name for p in (tmp_path / "signals").iterdir())
        expected = sorted(
            f"S{i:04d}_{mod}.psgs"
            for i in range(1, 7)
            for mod in ("EEG", "ECG", "RESP")
        )
        assert signals == expected

    def test_manifest_loads_and_all_subjects_eligible(self, tmp_path):
        cfg = small_config(prevalence={"CVD": 0.5, "Stroke": 0.3})
        gt = generate_cohort(cfg, tmp_path)
        manifest = load_manifest(tmp_path / "manifest.csv")
        assert manifest.outcome_names == ("CVD", "Stroke")
        assert sorted(manifest.rows) == sorted(gt.labels)
        assert sorted(manifest.eligible_ids()) == sorted(gt.labels)
        for sid, row in manifest.rows.items():
            assert 20.0 <= row.age <= 95.0
            assert row.sex in (0, 1)
            assert 16.0 <= row.bmi <= 55.0
            assert row.outcomes == gt.labels[sid]

    def test_signals_parse_with_correct_shape(self, tmp_path):
        cfg = small_config(segments_per_subject=3)
        generate_cohort(cfg, tmp_path)
        for mod in (Modality.EEG, Modality.ECG, Modality.RESP):
            rec = read_signal_file(tmp_path / "signals" / f"S0001_{mod.name}.psgs")
            assert rec.subject_id == "S0001"
            assert rec.modality is mod
            assert rec.sample_rate_hz == mod.nominal_rate_hz
            assert rec.samples.dtype == np.float32
            assert rec.samples.shape == (3 * samples_per_window(mod.nominal_rate_hz),)
            assert np.isfinite(rec.samples).all()


class TestGroundTruth:
    def test_labels_match_prevalence_roughly(self, tmp_path):
        cfg = small_config(
            n_subjects=400, segments_per_subject=1, prevalence={"CVD": 0.4}, affected_fraction=0.3,
            seed=3,
        )
        gt = generate_cohort(cfg, tmp_path)
        count = sum(lab["CVD"] for lab in gt.labels.values())
        # 4 binomial standard deviations around 160
        assert 120 <= count <= 200

    def test_effects_csv_content(self, tmp_path):
        cfg = small_config(effects={("CVD", "ECG"): 2.0})
        gt = generate_cohort(cfg, tmp_path)
        n_pos = sum(lab["CVD"] for lab in gt.labels.values())
        with (tmp_path / "effects.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["outcome", "modality", "effect_size", "n_positive"]
        body = {(r[0], r[1]): (float(r[2]), int(r[3])) for r in rows[1:]}
        assert len(body) == 3
        assert body[("CVD", "ECG")] == (2.0, n_pos)
        assert body[("CVD", "EEG")] == (0.0, n_pos)
        assert body[("CVD", "RESP")] == (0.0, n_pos)

    def test_affected_csv_matches_ground_truth(self, tmp_path):
        cfg = small_config(effects={("CVD", "ECG"): 2.0}, affected_fraction=0.5)
        gt = generate_cohort(cfg, tmp_path)
        with (tmp_path / "affected.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject_id", "outcome", "modality", "segment_indices"]
        from_csv = {
            (r[0], r[1], r[2]): tuple(int(tok) for tok in r[3].split())
            for r in rows[1:]
        }
        assert from_csv == gt.affected

    def test_affected_only_positive_subjects_and_planted_pairs(self, tmp_path):
        cfg = small_config(
            prevalence={"CVD": 0.5, "Stroke": 0.4},
            effects={("CVD", "ECG"): 2.0},
        )
        gt = generate_cohort(cfg, tmp_path)
        positives = {sid for sid, lab in gt.labels.items() if lab["CVD"] == 1}
        assert positives  # seed chosen so both classes appear
        assert gt.affected  # at least one planted subject
        for sid, outcome, mod in gt.affected:
            assert outcome == "CVD"
            assert mod == "ECG"
            assert sid in positives
        assert {k[0] for k in gt.affected} == positives

    def test_affected_subset_size(self, tmp_path):
        for frac, n_seg in [(0.3, 4), (0.5, 4), (0.1, 4), (1.0, 4), (0.3, 7)]:
            cfg = small_config(
                segments_per_subject=n_seg,
                affected_fraction=frac,
                effects={("CVD", "ECG"): 2.0},
                seed=5,
            )
            out = tmp_path / f"f{frac}_{n_seg}"
            gt = generate_cohort(cfg, out)
            expected = max(1, round_half_up(frac * n_seg))
            for key, segs in gt.affected.items():
                assert len(segs) == expected, (frac, n_seg, key)
                assert len(set(segs)) == expected
                assert all(0 <= s < n_seg for s in segs)
                assert list(segs) == sorted(segs)


def base_signal_f64(rng: np.random.Generator, n: int, rate: float, sigma: float) -> np.ndarray:
    """Float64 oracle of ``synth._base_signal``: the same draws in the same
    order, each sine taken of its unreduced phase and summed in float64."""
    t = np.arange(n) / rate
    sig = np.zeros(n)
    for _ in range(4):
        freq = rng.uniform(0.1, min(4.0, rate / 4.0))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sig += rng.uniform(0.3, 1.0) * np.sin(2.0 * np.pi * freq * t + phase)
    return sig + sigma * rng.standard_normal(n)


class TestBaseSignal:
    """The float32 sines with float64 phase reduction stay within 4e-6 of the
    float64 oracle and consume exactly the oracle's random draws."""

    @pytest.mark.parametrize("rate", [125.0, 10.0])
    def test_matches_float64_oracle_with_the_same_draws(self, rate):
        """One set of NaN-filled work arrays, longer than the signal, serves
        every call, as the cohort's serves every recording."""
        n = 20 * samples_per_window(rate)
        t = np.arange(n) / rate
        f64 = np.full((2, n + 7), np.nan)
        f32 = np.full((2, n + 7), np.nan, dtype=np.float32)
        for seed in range(4):
            oracle_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = base_signal_f64(oracle_rng, n, rate, 0.7)
            got = synth._base_signal(rng, t, rate, 0.7, f64, f32)
            assert got.shape == (n,) and np.shares_memory(got, f64)
            np.testing.assert_allclose(got, expected, rtol=0, atol=4e-6)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_cohort_signals_match_float64_oracle(self, tmp_path, monkeypatch):
        cfg = small_config(prevalence={"CVD": 0.5, "Stroke": 0.3},
                           effects={("CVD", "ECG"): 2.0, ("Stroke", "RESP"): 1.5})
        gt = generate_cohort(cfg, tmp_path / "new")
        monkeypatch.setattr(
            synth, "_base_signal", lambda rng, t, rate, sigma, f64, f32: base_signal_f64(rng, len(t), rate, sigma)
        )
        gt_oracle = generate_cohort(cfg, tmp_path / "oracle")
        assert gt == gt_oracle
        new, oracle = tree_bytes(tmp_path / "new"), tree_bytes(tmp_path / "oracle")
        assert sorted(new) == sorted(oracle)
        for name in new:
            if not name.endswith(".psgs"):
                assert new[name] == oracle[name], name
                continue
            a = read_signal_file(tmp_path / "new" / name).samples
            b = read_signal_file(tmp_path / "oracle" / name).samples
            np.testing.assert_allclose(a, b, rtol=0, atol=4e-6, err_msg=name)

    def test_label_and_subset_files_keep_their_bytes(self, tmp_path):
        """Pinned to the bytes written before the float32 sine kernel."""
        cfg = small_config(prevalence={"CVD": 0.5, "Stroke": 0.3},
                           effects={("CVD", "ECG"): 2.0, ("Stroke", "RESP"): 1.5})
        generate_cohort(cfg, tmp_path)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("manifest.csv", "effects.csv", "affected.csv")
        }
        assert digests == {
            "manifest.csv": "c6af20c4864bdc689aedb8dae37a1d74818c9412aae3654589afcbdbef5e2df1",
            "effects.csv": "0fad528c6d95579f27f3fa9f749bbb49a6aa1c95f4d3c2428b07e8b7c2df874a",
            "affected.csv": "e2247bcb05823250e431833d72d230c78f727de29d23d731a087a9c8dda3995e",
        }

    def test_signal_files_keep_their_bytes(self, tmp_path):
        """Pinned to the bytes written when each recording allocated its own
        arrays, before one set of work arrays served the whole cohort."""
        cfg = small_config(prevalence={"CVD": 0.5, "Stroke": 0.3},
                           effects={("CVD", "ECG"): 2.0, ("Stroke", "RESP"): 1.5})
        generate_cohort(cfg, tmp_path)
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((tmp_path / "signals").iterdir())
        }
        assert digests == {
            "S0001_ECG.psgs": "ec9abf3bea97a38e3df5a28425865f7c38c41af92a59f7f15a09c3ca521ff6ee",
            "S0001_EEG.psgs": "dc357ca62358c0aec1d7ea6c3b809107fba4fe075ed410e424cf2c41bcaa8924",
            "S0001_RESP.psgs": "e4290981321381a47e8ff4da30ea6eb8b5f9cb706be752bdf9a996ac2d25349a",
            "S0002_ECG.psgs": "8f385c91971a34d6774d0c956a2a8273dcbaac4db577f4999439c8be90c803e4",
            "S0002_EEG.psgs": "4d71f5b7f21f35c91b79dcf14bdecca3cb5e6884bb44949f7f2d42c40ba53e43",
            "S0002_RESP.psgs": "e7ae29c9ce64212384cb40dc3164844a40c392f6d82d21f0d080152d30ed44dd",
            "S0003_ECG.psgs": "6d08e28546a8712d7d012511938f07c8e3aeb9b112280d738bde289d92e79fef",
            "S0003_EEG.psgs": "242b8c41fd781aeb37ec0bd5cc9da083d1f11fb6cd581c1b83977b1d2e4ac73e",
            "S0003_RESP.psgs": "e27898fc7be5efdc486dd6437993d340296f9e85a659ddc27ce9d6b02229491f",
            "S0004_ECG.psgs": "ce4bbc1f4952c221d73c706d424ba71f3134b7edcd7d02c5c6a18a2ffa7b031f",
            "S0004_EEG.psgs": "59b41a063fc04afa3ff66a29a3d1e0c31ae41ff5356091775b4c18c425fa44f3",
            "S0004_RESP.psgs": "d0041b9fc09c48fbd723bb6d0375b66f0324e747784bd72d8ac62c873db8996b",
            "S0005_ECG.psgs": "2af1f125dfe55ff503bb381f7e68c0bd26b9b20ad2a12ca2519ed4862905230d",
            "S0005_EEG.psgs": "8cb6f6888508e263cb83947284887edf7d36e9847d72982a4c81400c90eeeaa1",
            "S0005_RESP.psgs": "53d485a11bb2dc5e3593fd9879b25c430ce05e467d76a2ed4d9a77b661054676",
            "S0006_ECG.psgs": "4795d478270ee1a964adfc423fec095b5fc59f5b8c4631ae9b25f6592306d06b",
            "S0006_EEG.psgs": "280c7cf5a7d82c0f0e6502bff7ca7cfd6ab4e0c763651cdf11f7b173468cd07f",
            "S0006_RESP.psgs": "993b384d8cc7cfadc483ed7335c8866b1923d6eb557c8f6481f7667ba3609f09",
        }


class TestWorkArrays:
    """Every recording is built in one set of work arrays, allocated once
    per cohort, where each used to allocate ten arrays a recording long."""

    def test_cohort_memory_is_one_set_of_work_arrays(self, tmp_path):
        """4 subjects x 240 segments (7.2 MB per float64 EEG or ECG night):
        the time grids and the two float64 and two float32 rows peak at
        29.9 MiB of traced allocations, where fresh arrays per recording
        peaked at 42.3 MiB."""
        cfg = small_config(n_subjects=4, segments_per_subject=240, prevalence={"CVD": 0.4},
                           effects={("CVD", "ECG"): 3.0}, seed=5)
        tracemalloc.start()
        try:
            generate_cohort(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 44 * 2**20, peak

    @glibc_defaults
    def test_fresh_synth_keeps_its_memory_between_subjects(self, tmp_path):
        """The benchmark's ``embed_bulk`` cohort (32 x 20, seed 5) in a fresh
        interpreter takes about 1.1k minor page faults. When each EEG and ECG
        recording's arrays (600 KB each in float64, above glibc's 128 KiB
        mmap threshold) were allocated afresh, they were mapped and faulted
        in for every subject: 29.0k faults."""
        faults = fresh_process_faults(
            "synth", "--out", tmp_path / "data", "--seed", 5, "--subjects", 32, "--segments", 20,
            "--prevalence", "CVD=0.4", "--effect", "CVD:ECG=3.0",
        )
        assert faults < 8_000, faults


class TestPlantedTemplates:
    def test_planted_run_differs_from_null_only_on_affected_segments(self, tmp_path):
        """Same seed with and without an effect: the random streams stay
        aligned, so signals differ exactly on the affected segments of
        positive subjects, by a template whose RMS is effect * sigma."""
        effect, sigma = 3.0, 0.7
        cfg_null = small_config(noise_sigma=sigma, seed=8)
        cfg_plant = small_config(
            noise_sigma=sigma, seed=8, effects={("CVD", "ECG"): effect}
        )
        gt_null = generate_cohort(cfg_null, tmp_path / "null")
        gt_plant = generate_cohort(cfg_plant, tmp_path / "plant")
        assert gt_null.labels == gt_plant.labels
        assert gt_null.affected == {}

        spw = samples_per_window(Modality.ECG.nominal_rate_hz)
        n_seg = cfg_null.segments_per_subject
        saw_affected = False
        for sid, lab in gt_plant.labels.items():
            ecg_null = read_signal_file(tmp_path / "null" / "signals" / f"{sid}_ECG.psgs")
            ecg_plant = read_signal_file(tmp_path / "plant" / "signals" / f"{sid}_ECG.psgs")
            # other modalities are untouched by an ECG effect
            for mod in ("EEG", "RESP"):
                a = read_signal_file(tmp_path / "null" / "signals" / f"{sid}_{mod}.psgs")
                b = read_signal_file(tmp_path / "plant" / "signals" / f"{sid}_{mod}.psgs")
                np.testing.assert_array_equal(a.samples, b.samples)
            if lab["CVD"] == 0:
                np.testing.assert_array_equal(ecg_null.samples, ecg_plant.samples)
                continue
            saw_affected = True
            affected = set(gt_plant.affected[(sid, "CVD", "ECG")])
            diff = ecg_plant.samples.astype(np.float64) - ecg_null.samples.astype(np.float64)
            for seg in range(n_seg):
                chunk = diff[seg * spw : (seg + 1) * spw]
                if seg in affected:
                    rms = float(np.sqrt((chunk**2).mean()))
                    assert rms == pytest.approx(effect * sigma, rel=1e-3)
                else:
                    np.testing.assert_array_equal(chunk, 0.0)
        assert saw_affected

    def test_same_template_added_to_every_positive_subject(self, tmp_path):
        cfg = small_config(noise_sigma=0.5, seed=8, effects={("CVD", "ECG"): 2.0})
        generate_cohort(small_config(noise_sigma=0.5, seed=8), tmp_path / "null")
        gt = generate_cohort(cfg, tmp_path / "plant")
        spw = samples_per_window(Modality.ECG.nominal_rate_hz)
        chunks = []
        for (sid, _, _), segs in sorted(gt.affected.items()):
            a = read_signal_file(tmp_path / "null" / "signals" / f"{sid}_ECG.psgs")
            b = read_signal_file(tmp_path / "plant" / "signals" / f"{sid}_ECG.psgs")
            diff = b.samples.astype(np.float64) - a.samples.astype(np.float64)
            seg = segs[0]
            chunks.append(diff[seg * spw : (seg + 1) * spw])
        assert len(chunks) >= 2
        for chunk in chunks[1:]:
            np.testing.assert_allclose(chunk, chunks[0], rtol=0, atol=1e-3)


class TestNullCohort:
    def test_no_effects_means_no_covariate_shift(self, tmp_path):
        """With zero planted effects the covariate draw ignores labels, so a
        run with a planted effect (same seed) shifts covariates only for
        positive subjects."""
        gt = generate_cohort(small_config(seed=8), tmp_path / "null")
        generate_cohort(
            small_config(seed=8, effects={("CVD", "EEG"): 4.0}), tmp_path / "plant"
        )
        null_manifest = load_manifest(tmp_path / "null" / "manifest.csv")
        plant_manifest = load_manifest(tmp_path / "plant" / "manifest.csv")
        for sid, lab in gt.labels.items():
            row_null = null_manifest.rows[sid]
            row_plant = plant_manifest.rows[sid]
            if lab["CVD"] == 0:
                assert row_null == row_plant
            else:
                assert row_plant.age >= row_null.age
                assert row_plant.age != row_null.age
