"""Helpers that several test modules share."""
from pathlib import Path

import numpy as np

from psgp import frame
from psgp.cli import _embedding_chunks
from psgp.model import ModelConfig
from psgp.signalio import Modality


def read_embeddings(path: Path, modality: Modality) -> tuple[np.ndarray, np.ndarray]:
    """A whole embeddings table: the chunks ``_embedding_chunks`` yields, joined."""
    ids, X = zip(*_embedding_chunks(path, modality))
    return np.concatenate([np.asarray(i, dtype=str) for i in ids]), np.concatenate(X)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def tiny_config(**overrides) -> ModelConfig:
    """Small geometry used throughout: 40 samples -> 4 patches of 10."""
    defaults = dict(
        modality=Modality.EEG,
        input_len=40,
        embed_dim=8,
        encoder_depth=1,
        decoder_depth=1,
        n_heads=2,
        ffn_mult=2,
        stem_strides=(2, 5),
        precision="f64",
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def reframe(path: Path, edit) -> None:
    """Rewrite the signal file or checkpoint at ``path`` with ``edit`` applied
    to its header and payload (two bytearrays, edited in place) and its frame
    written anew, lengths and crc included, so that a reader gets past the
    frame to the check the edit is meant for."""
    magic, version = frame.PREFIX.unpack_from(path.read_bytes())[:2]
    header, payload = (bytearray(part) for part in frame.read(path, magic, version))
    edit(header, payload)
    frame.write(path, magic, version, bytes(header), payload)
