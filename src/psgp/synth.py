"""Synthetic cohorts with planted, recoverable disease signatures.

Each subject gets one recording per modality: a subject-specific smooth
base waveform plus white noise. For every (outcome, modality) with a
positive effect size, positive-labelled subjects have a fixed smooth
template added to a random subset of their segments; the template has
RMS = effect_size * noise_sigma, so effect_size is the per-segment SNR.

Covariates are drawn with label-correlated shifts that scale with the
outcome's largest planted effect, so an all-zero-effects cohort is null in
every column: labels carry no information about signals or covariates.
All randomness derives from one seed via named SeedSequence children, with
one child per subject, so generation order cannot change the data.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .cohort import CohortManifest, SubjectRow, check_name, save_manifest
from .errors import ConfigError, DataError
from .signalio import Modality, Recording, round_half_up, samples_per_window, write_signal_file
from .tables import write_table


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int
    segments_per_subject: int
    prevalence: Mapping[str, float]
    effects: Mapping[tuple[str, str], float]
    noise_sigma: float
    affected_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_subjects < 2:
            raise ConfigError("need at least 2 subjects")
        if self.segments_per_subject < 1:
            raise ConfigError("need at least 1 segment per subject")
        if not self.prevalence:
            raise ConfigError("at least one outcome with a prevalence is required")
        for name, prev in self.prevalence.items():
            check_name("outcome name", name, ConfigError, "prevalence")
            if not (0.0 < prev < 1.0):
                raise ConfigError(f"prevalence for {name!r} must lie in (0, 1)")
        for (outcome, modality), size in self.effects.items():
            if outcome not in self.prevalence:
                raise ConfigError(f"effect references unknown outcome {outcome!r}")
            try:
                Modality.parse(modality)
            except DataError:
                raise ConfigError(f"effect references unknown modality {modality!r}") from None
            if size < 0:
                raise ConfigError("effect sizes must be non-negative")
        if self.noise_sigma <= 0:
            raise ConfigError("noise_sigma must be positive")
        if not (0.0 < self.affected_fraction <= 1.0):
            raise ConfigError("affected_fraction must lie in (0, 1]")

    def effect_size(self, outcome: str, modality: Modality) -> float:
        return float(self.effects.get((outcome, modality.name), 0.0))


@dataclass(frozen=True)
class GroundTruth:
    labels: dict[str, dict[str, int]]  # subject -> outcome -> 0/1
    affected: dict[tuple[str, str, str], tuple[int, ...]]  # (subject, outcome, modality) -> segment indices


def _template(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Smooth unit-RMS waveform: three low-frequency sinusoids."""
    t = np.arange(n) / rate
    wave = np.zeros(n)
    for _ in range(3):
        freq = rng.uniform(0.2, 2.5)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave += rng.uniform(0.5, 1.0) * np.sin(2.0 * np.pi * freq * t + phase)
    rms = float(np.sqrt((wave**2).mean()))
    return wave / rms


def _base_signal(rng: np.random.Generator, n: int, rate: float, sigma: float) -> np.ndarray:
    """Four random sinusoids plus sigma-scaled white noise.

    Each sinusoid's phase is reduced in float64 to a fraction of a cycle,
    c = t*freq + phase/2pi - floor(...), so the float32 sin only ever sees
    an argument in [0, 2pi): a float32 argument of up to 15,000 rad (4 Hz
    over 600 s) would be wrong by about 1e-3. The sines are summed in
    float32, within a few float32 ulps of the float64 sum.
    """
    t = np.arange(n) / rate
    cycles = np.empty(n)
    whole = np.empty(n)
    wave = np.empty(n, dtype=np.float32)
    sig = np.zeros(n, dtype=np.float32)
    for _ in range(4):
        freq = rng.uniform(0.1, min(4.0, rate / 4.0))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.3, 1.0)
        np.multiply(t, freq, out=cycles)
        cycles += phase / (2.0 * np.pi)
        cycles -= np.floor(cycles, out=whole)
        np.multiply(cycles, 2.0 * np.pi, out=wave, casting="same_kind")
        np.sin(wave, out=wave)
        wave *= np.float32(amp)
        sig += wave
    return sig + sigma * rng.standard_normal(n)


def generate_cohort(config: SynthConfig, out_dir: Path | str) -> GroundTruth:
    """Write signals/, manifest.csv, effects.csv and affected.csv under out_dir."""
    out_dir = Path(out_dir)
    signals_dir = out_dir / "signals"
    signals_dir.mkdir(parents=True, exist_ok=True)

    outcomes = sorted(config.prevalence)
    master = np.random.SeedSequence(config.seed)
    ss_labels, ss_templates, ss_subjects = master.spawn(3)
    label_rng = np.random.default_rng(ss_labels)
    template_rng = np.random.default_rng(ss_templates)
    subject_seeds = ss_subjects.spawn(config.n_subjects)

    # fixed per-(outcome, modality) templates, drawn whether or not used,
    # so adding an effect never reshuffles unrelated randomness
    templates: dict[tuple[str, str], np.ndarray] = {}
    for outcome in outcomes:
        for modality in Modality:
            spw = samples_per_window(modality.nominal_rate_hz)
            templates[(outcome, modality.name)] = _template(
                template_rng, spw, modality.nominal_rate_hz
            )

    width = max(4, len(str(config.n_subjects)))
    subject_ids = [f"S{i:0{width}d}" for i in range(1, config.n_subjects + 1)]

    labels: dict[str, dict[str, int]] = {
        sid: {o: int(label_rng.random() < config.prevalence[o]) for o in outcomes}
        for sid in subject_ids
    }

    # covariate shift per outcome scales with its strongest planted effect
    shift_scale = {
        o: max((config.effect_size(o, m) for m in Modality), default=0.0) for o in outcomes
    }

    rows: dict[str, SubjectRow] = {}
    affected: dict[tuple[str, str, str], tuple[int, ...]] = {}
    n_segments = config.segments_per_subject
    for sid, child in zip(subject_ids, subject_seeds):
        rng = np.random.default_rng(child)
        lab = labels[sid]
        bump = sum(shift_scale[o] * lab[o] for o in outcomes)
        age = float(np.clip(rng.normal(60.0, 10.0) + 2.0 * bump, 20.0, 95.0))
        sex = int(rng.integers(0, 2))
        bmi = float(np.clip(rng.normal(28.0, 4.0) + 0.5 * bump, 16.0, 55.0))
        sbp = float(np.clip(rng.normal(125.0, 15.0) + 2.0 * bump, 80.0, 220.0))
        frs = float(
            0.02 * (age - 50.0) + 0.3 * sex + 0.01 * (bmi - 25.0)
            + 0.1 * rng.standard_normal() + 0.1 * bump
        )
        rows[sid] = SubjectRow(sid, age, sex, bmi, sbp, frs, dict(lab))

        for modality in Modality:
            rate = modality.nominal_rate_hz
            spw = samples_per_window(rate)
            total = n_segments * spw
            sig = _base_signal(rng, total, rate, config.noise_sigma)
            for outcome in outcomes:
                size = config.effect_size(outcome, modality)
                # draw the affected subset unconditionally to keep subject
                # streams aligned between planted and null configurations
                n_aff = max(1, round_half_up(config.affected_fraction * n_segments))
                subset = np.sort(rng.choice(n_segments, size=n_aff, replace=False))
                if size > 0.0 and lab[outcome] == 1:
                    tpl = size * config.noise_sigma * templates[(outcome, modality.name)]
                    for seg in subset:
                        sig[seg * spw:(seg + 1) * spw] += tpl
                    affected[(sid, outcome, modality.name)] = tuple(int(s) for s in subset)
            write_signal_file(
                Recording(sid, modality, rate, sig.astype(np.float32)),
                signals_dir / f"{sid}_{modality.name}.psgs",
            )

    manifest = CohortManifest(rows, tuple(outcomes))
    save_manifest(manifest, out_dir / "manifest.csv")

    effect_sizes = {
        (o, m.name): config.effect_size(o, m) for o in outcomes for m in Modality
    }
    n_positive = {o: str(sum(labels[sid][o] for sid in subject_ids)) for o in outcomes}
    effects = ([o, m, format(size, ".6g"), n_positive[o]] for (o, m), size in effect_sizes.items())
    write_table(out_dir / "effects.csv", ("outcome", "modality", "effect_size", "n_positive"), effects)
    subsets = ([*key, " ".join(str(i) for i in affected[key])] for key in sorted(affected))
    write_table(out_dir / "affected.csv", ("subject_id", "outcome", "modality", "segment_indices"), subsets)

    return GroundTruth(labels=labels, affected=affected)
