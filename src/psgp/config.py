"""Run configuration: INI-style key=value sections, with CLI flag overrides.

`RunConfig` holds the only defaults, at desk scale (small embedding width, few
mask permutations, a few hundred steps) so the whole pipeline runs in minutes
on one core; `configs/paper.ini` sets the paper scale. The INI sections follow
the fields of the stage dataclasses (`_SECTIONS`).
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError, DataError, utf8_text
from .model import ModelConfig, default_model_config
from .pretrain import SslConfig
from .signalio import Modality
from .synth import SynthConfig


@dataclass(frozen=True)
class RunConfig:
    # [run]
    seed: int = 0
    modalities: tuple[Modality, ...] = tuple(Modality)
    outcomes: tuple[str, ...] = ()  # empty = every outcome in the manifest
    threads: int = 1
    split_ratio: float = 0.8
    # [model]
    embed_dim: int = 32
    encoder_depth: int = 4
    decoder_depth: int = 2
    n_heads: int = 4
    ffn_mult: int = 4
    precision: str = "f32"
    # [ssl]
    mask_ratio: float = 0.5
    n_permutations: int = 4
    tcr_epsilon: float = 0.2
    tcr_weight: float = 1.0
    batch_size: int = 8
    learning_rate: float = 1e-3
    steps: int = 300
    # [synth]
    n_subjects: int = 200
    segments_per_subject: int = 20
    prevalence: tuple[tuple[str, float], ...] = (("CVD", 0.4),)
    effects: tuple[tuple[str, str, float], ...] = ()
    noise_sigma: float = 1.0
    affected_fraction: float = 0.3


# [model], [ssl] and [synth] hold the RunConfig fields of their stage's
# dataclass, in RunConfig order; [run] holds the seed and the rest.
_STAGES = {"model": ModelConfig, "ssl": SslConfig, "synth": SynthConfig}
_OWNER = {
    f.name: section for section, cls in _STAGES.items() for f in fields(cls) if f.name != "seed"
}
_SECTIONS = {
    section: tuple(f.name for f in fields(RunConfig) if _OWNER.get(f.name, "run") == section)
    for section in ("run", *_STAGES)
}


def _refuse_duplicates(what: str, keys: list[str]) -> None:
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ConfigError(f"duplicate {what} {key!r}")


def _parse_modality(name: str) -> Modality:
    try:
        return Modality.parse(name)
    except DataError as exc:
        raise ConfigError(str(exc)) from None


def parse_modalities(text: str) -> tuple[Modality, ...]:
    text = text.strip()
    if not text or text.lower() == "all":
        return tuple(Modality)
    mods = tuple(_parse_modality(tok) for tok in text.split(",") if tok.strip())
    _refuse_duplicates("modality", [m.name for m in mods])
    return mods


def parse_prevalence(text: str) -> tuple[tuple[str, float], ...]:
    """\"CVD=0.4,HTN=0.2\" -> ((\"CVD\", 0.4), (\"HTN\", 0.2))."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" not in tok:
            raise ConfigError(f"prevalence entry {tok!r} must look like NAME=P")
        name, _, value = tok.partition("=")
        try:
            out.append((name.strip(), float(value)))
        except ValueError:
            raise ConfigError(f"bad prevalence value in {tok!r}") from None
    if not out:
        raise ConfigError("empty prevalence list")
    _refuse_duplicates("prevalence outcome", [name for name, _ in out])
    return tuple(out)


def parse_effects(text: str) -> tuple[tuple[str, str, float], ...]:
    """\"CVD:ECG=3.0,CVD:EEG=0\" -> ((\"CVD\", \"ECG\", 3.0), ...)."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok or "=" not in tok:
            raise ConfigError(f"effect entry {tok!r} must look like OUTCOME:MODALITY=SIZE")
        head, _, value = tok.partition("=")
        outcome, _, modality = head.partition(":")
        try:
            out.append((outcome.strip(), _parse_modality(modality).name, float(value)))
        except ValueError:
            raise ConfigError(f"bad effect size in {tok!r}") from None
    _refuse_duplicates("effect", [f"{o}:{m}" for o, m, _ in out])
    return tuple(out)


def parse_outcomes(text: str) -> tuple[str, ...]:
    outcomes = [tok.strip() for tok in text.split(",") if tok.strip()]
    _refuse_duplicates("outcome", outcomes)
    return tuple(outcomes)


# Text parsers of the list-valued fields; every other field is parsed by the
# type of its default.
_LIST_PARSERS = {
    "modalities": parse_modalities,
    "outcomes": parse_outcomes,
    "prevalence": parse_prevalence,
    "effects": parse_effects,
}


def parse_value(key: str, raw: str):
    """The value of field ``key`` written as text, in an INI file or a flag."""
    raw = raw.strip()
    if key in _LIST_PARSERS:
        return _LIST_PARSERS[key](raw)
    try:
        return type(getattr(RunConfig, key))(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} has invalid value {raw!r}") from None


def load_run_config(path: Path | str | None) -> RunConfig:
    """Defaults when path is None; otherwise strict INI parse (unknown
    sections or keys are usage errors)."""
    cfg = RunConfig()
    if path is None:
        return cfg
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"config {path} is not a regular file")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with utf8_text(path, ConfigError):
            parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    updates: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            updates[key] = parse_value(key, raw)
    return replace(cfg, **updates)


def _format_value(cfg: RunConfig, key: str) -> str:
    value = getattr(cfg, key)
    if key == "modalities":
        return ",".join(m.name for m in value)
    if key == "outcomes":
        return ",".join(value)
    if key == "prevalence":
        return ",".join(f"{name}={p:g}" for name, p in value)
    if key == "effects":
        return ",".join(f"{o}:{m}={s:g}" for o, m, s in value)
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def resolved_text(cfg: RunConfig) -> str:
    """Deterministic snapshot of every resolved value (no timestamps)."""
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_format_value(cfg, key)}")
        lines.append("")
    return "\n".join(lines)


def model_config_for(cfg: RunConfig, modality: Modality) -> ModelConfig:
    return default_model_config(modality, **{key: getattr(cfg, key) for key in _SECTIONS["model"]})


def ssl_config_for(cfg: RunConfig) -> SslConfig:
    return SslConfig(**{f.name: getattr(cfg, f.name) for f in fields(SslConfig)})


def synth_config_for(cfg: RunConfig) -> SynthConfig:
    values = {f.name: getattr(cfg, f.name) for f in fields(SynthConfig)}
    values.update(prevalence=dict(cfg.prevalence), effects={(o, m): s for o, m, s in cfg.effects})
    return SynthConfig(**values)
