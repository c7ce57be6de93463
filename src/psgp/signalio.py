"""Single-channel signal recordings: binary file format and segmentation.

File layout (little-endian throughout)::

    magic           4 bytes  b"PSGS"
    version         u32      currently 1
    modality tag    u8       0=EEG, 1=ECG, 2=RESP
    padding         3 bytes  zeros
    sample_rate_hz  f64
    n_samples       u64
    id length       u16      byte length of the UTF-8 subject id
    subject id      bytes
    samples         n_samples * f32

Reads and writes round-trip byte-for-byte.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DataError,
    FormatError,
    NonFiniteSamplesError,
    TruncatedPayloadError,
    VersionMismatchError,
)

MAGIC = b"PSGS"
FORMAT_VERSION = 1
WINDOW_SECONDS = 30.0

_HEADER = struct.Struct("<4sIB3xdQH")


def round_half_up(x: float) -> int:
    """round() with ties away from the floor, so 2.5 -> 3 (not banker's 2)."""
    return int(np.floor(x + 0.5))


class Modality(Enum):
    EEG = 0
    ECG = 1
    RESP = 2

    @property
    def nominal_rate_hz(self) -> float:
        return 10.0 if self is Modality.RESP else 125.0

    @classmethod
    def from_tag(cls, tag: int) -> "Modality":
        try:
            return cls(tag)
        except ValueError:
            raise FormatError(f"unknown modality tag {tag}") from None

    @classmethod
    def parse(cls, name: str) -> "Modality":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise DataError(f"unknown modality name {name!r}") from None


@dataclass
class Recording:
    """One subject's single-modality signal at a fixed sample rate."""

    subject_id: str
    modality: Modality
    sample_rate_hz: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 1:
            raise DataError("recording samples must be one-dimensional")
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise DataError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if not self.subject_id:
            raise DataError("subject_id must be non-empty")

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])


def samples_per_window(sample_rate_hz: float) -> int:
    return round_half_up(WINDOW_SECONDS * sample_rate_hz)


def write_signal_file(recording: Recording, path: Path | str) -> None:
    """Serialize a recording; rejects non-finite samples before touching disk."""
    if not np.isfinite(recording.samples).all():
        raise NonFiniteSamplesError(
            f"recording {recording.subject_id}/{recording.modality.name} contains NaN or Inf"
        )
    sid = recording.subject_id.encode("utf-8")
    if len(sid) > 0xFFFF:
        raise DataError("subject id longer than 65535 bytes")
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        recording.modality.value,
        float(recording.sample_rate_hz),
        recording.n_samples,
        len(sid),
    )
    payload = recording.samples.astype("<f4", copy=False).tobytes()
    Path(path).write_bytes(header + sid + payload)


def read_signal_file(path: Path | str) -> Recording:
    """Parse a signal file, raising a distinct error per malformation."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than the fixed header")
    magic, version, tag, rate, n_samples, id_len = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: unsupported version {version}")
    modality = Modality.from_tag(tag)
    if not (np.isfinite(rate) and rate > 0):
        raise FormatError(f"{path}: invalid sample rate {rate}")
    off = _HEADER.size
    if len(blob) < off + id_len:
        raise TruncatedPayloadError(f"{path}: truncated subject id")
    try:
        subject_id = blob[off:off + id_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: subject id is not valid UTF-8") from exc
    off += id_len
    expected = n_samples * 4
    got = len(blob) - off
    if got < expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {got} bytes, header promises {expected}"
        )
    if got > expected:
        raise FormatError(f"{path}: {got - expected} trailing bytes after payload")
    samples = np.frombuffer(blob, dtype="<f4", count=n_samples, offset=off).copy()
    if not np.isfinite(samples).all():
        raise NonFiniteSamplesError(f"{path}: payload contains NaN or Inf")
    return Recording(subject_id, modality, rate, samples)


def segment_recording(recording: Recording) -> np.ndarray:
    """Cut non-overlapping windows in temporal order.

    Returns an (n_segments, window) float32 view of ``recording.samples``;
    row i is segment i. A trailing remainder shorter than one window is
    discarded, so n_segments * window + remainder == n_samples with
    remainder < window, and a recording shorter than one window gives
    shape (0, window).
    """
    spw = samples_per_window(recording.sample_rate_hz)
    n_seg = recording.n_samples // spw if spw >= 1 else 0
    return recording.samples[:n_seg * spw].reshape(n_seg, spw)
