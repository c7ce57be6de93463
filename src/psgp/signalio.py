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

Reads and writes round-trip byte-for-byte. ``SignalRows`` reads windows of
validated files straight from the samples, at the payload offset
(the fixed header plus the subject id).
"""
from __future__ import annotations

import struct
from collections.abc import Sequence
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


@dataclass(frozen=True)
class SignalFile:
    """Where the windows of one signal file lie: its path, its subject id,
    the byte offset of its samples and the number of whole windows they hold."""

    path: Path
    subject_id: str
    offset: int
    n_windows: int

    @classmethod
    def of(cls, path: Path | str, recording: Recording, n_windows: int) -> "SignalFile":
        """The first ``n_windows`` windows of the file ``read_signal_file(path)``
        returned ``recording`` for."""
        offset = _HEADER.size + len(recording.subject_id.encode("utf-8"))
        return cls(Path(path), recording.subject_id, offset, n_windows)


class SignalRows:
    """The windows of a list of signal files as one (N, width) float32 row
    space, read from the files on demand.

    Row r is window ``window_indices[r]`` of subject ``subject_ids[r]``'s
    file, the files in list order. Indexing by an int array or a slice reads
    those rows into a fresh (k, width) float32 array. Each run of consecutive
    windows of one file is one read, from a file opened for that read and
    closed after it, so no descriptor stays open between reads and reads on
    several threads share none; sorted indices give the longest runs. Every
    read is checked: a short one raises TruncatedPayloadError and a
    non-finite sample NonFiniteSamplesError, each naming the file, so a file
    that changed after it was indexed fails the read that meets the change.
    """

    def __init__(self, files: Sequence[SignalFile], width: int) -> None:
        self.files = tuple(files)
        self.width = width
        counts = np.array([f.n_windows for f in self.files], dtype=np.int64)
        self._file = np.repeat(np.arange(len(counts)), counts)
        self.window_indices = np.arange(len(self._file)) - np.repeat(np.cumsum(counts) - counts, counts)
        self.subject_ids = np.array([f.subject_id for f in self.files], dtype=str)[self._file]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), self.width)

    def __len__(self) -> int:
        return len(self._file)

    def __getitem__(self, index) -> np.ndarray:
        files, windows = self._file[index], self.window_indices[index]
        out = np.empty((len(files), self.width), dtype="<f4")
        # a run ends where the file changes or the next row is not the next window
        ends = np.flatnonzero((files[1:] != files[:-1]) | (windows[1:] != windows[:-1] + 1)) + 1
        bounds = [0, *ends.tolist(), len(files)] if len(files) else []
        for start, stop in zip(bounds, bounds[1:]):
            self._read(self.files[files[start]], int(windows[start]), out[start:stop])
        return out.astype(np.float32, copy=False)

    def _read(self, file: SignalFile, window: int, out: np.ndarray) -> None:
        """Fill ``out`` with the windows of ``file`` from ``window`` on."""
        with file.path.open("rb") as fh:
            fh.seek(file.offset + window * out[0].nbytes)
            got = fh.readinto(memoryview(out).cast("B"))
        if got != out.nbytes:
            raise TruncatedPayloadError(
                f"{file.path}: payload ends inside windows {window}-{window + len(out) - 1} "
                f"({got} of {out.nbytes} bytes read)"
            )
        if not np.isfinite(out).all():
            raise NonFiniteSamplesError(f"{file.path}: payload contains NaN or Inf")
