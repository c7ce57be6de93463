"""Run configuration: INI-style key=value sections, with CLI flag overrides.

`RunConfig` holds the only defaults, at desk scale (small embedding width, few
mask permutations, a few hundred steps) so the whole pipeline runs in minutes
on one core; `configs/paper.ini` sets the paper scale. The INI sections follow
the fields of the stage dataclasses (`_SECTIONS`). `parse_value` reads a
field's text and `_format_value` prints it back; `stage_configs` checks the
merged values by building the stage dataclasses.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

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


def _scalar(key: str, text: str, kind: type):
    text = text.strip()
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"config key {key!r} has invalid value {text!r}") from None


def _number(key: str, text: str) -> float:
    """A float of field ``key``, alone or in a list entry; never NaN or infinite."""
    value = _scalar(key, text, float)
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    return value


def _float_text(value: float) -> str:
    """``g`` when that text reads back as the same float, ``repr`` otherwise."""
    text = format(value, "g")
    return text if float(text) == value else repr(value)


def _modality(text: str) -> Modality:
    try:
        return Modality.parse(text)
    except DataError as exc:
        raise ConfigError(str(exc)) from None


def _prevalence_entry(text: str) -> tuple[str, float]:
    """\"CVD=0.4\" -> (\"CVD\", 0.4)."""
    name, eq, p = text.partition("=")
    if not eq:
        raise ConfigError(f"prevalence entry {text!r} must look like NAME=P")
    return name.strip(), _number("prevalence", p)


def _effect_entry(text: str) -> tuple[str, str, float]:
    """\"CVD:ecg=3.0\" -> (\"CVD\", \"ECG\", 3.0)."""
    head, eq, size = text.partition("=")
    outcome, colon, modality = head.partition(":")
    if not (eq and colon):
        raise ConfigError(f"effect entry {text!r} must look like OUTCOME:MODALITY=SIZE")
    return outcome.strip(), _modality(modality).name, _number("effects", size)


# The list fields, written as comma-separated entries: what one entry is
# called, its parser and the printer of its name. A prevalence or effect
# entry is a tuple that ends in its number, written after "=". Two entries
# with the same name are duplicates. Every other field is read by the type
# of its default.
_LISTS = {
    "modalities": ("modality", _modality, lambda m: m.name),
    "outcomes": ("outcome", str, str),
    "prevalence": ("prevalence outcome", _prevalence_entry, lambda e: e[0]),
    "effects": ("effect", _effect_entry, lambda e: f"{e[0]}:{e[1]}"),
}


def parse_value(key: str, raw: str):
    """The value of field ``key`` written as text, in an INI file or a flag."""
    raw = raw.strip()
    if key == "modalities" and raw.lower() in ("", "all"):
        return tuple(Modality)
    if key not in _LISTS:
        kind = type(getattr(RunConfig, key))
        return _number(key, raw) if kind is float else _scalar(key, raw, kind)
    what, parse, name_of = _LISTS[key]
    entries = tuple(parse(tok.strip()) for tok in raw.split(",") if tok.strip())
    names = [name_of(entry) for entry in entries]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"duplicate {what} {name!r}")
    if not entries and key in ("modalities", "prevalence"):
        raise ConfigError(f"empty {key} list")
    return entries


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
    if key in _LISTS:
        _, _, name_of = _LISTS[key]
        return ",".join(
            f"{name_of(e)}={_float_text(e[-1])}" if isinstance(e, tuple) else name_of(e) for e in value
        )
    return _float_text(value) if isinstance(value, float) else str(value)


def resolved_text(cfg: RunConfig) -> str:
    """Deterministic snapshot of every resolved value (no timestamps)."""
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_format_value(cfg, key)}")
        lines.append("")
    return "\n".join(lines)


class StageConfigs(NamedTuple):
    models: dict[Modality, ModelConfig]  # one per configured modality
    ssl: SslConfig
    synth: SynthConfig


def stage_configs(cfg: RunConfig) -> StageConfigs:
    """Check every value of a merged config and build the stage dataclasses.

    The [run] fields are checked here and every other field by the dataclass
    that owns it, so each stage refuses every invalid value, used or not.
    """
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    if not (0.0 < cfg.split_ratio < 1.0):
        raise ConfigError(f"split_ratio must lie in (0, 1), got {cfg.split_ratio}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")

    def section(name: str) -> dict:
        return {key: getattr(cfg, key) for key in _SECTIONS[name]}

    synth = section("synth") | {
        "prevalence": dict(cfg.prevalence),
        "effects": {(o, m): s for o, m, s in cfg.effects},
    }
    return StageConfigs(
        models={m: default_model_config(m, **section("model")) for m in cfg.modalities},
        ssl=SslConfig(seed=cfg.seed, **section("ssl")),
        synth=SynthConfig(seed=cfg.seed, **synth),
    )
