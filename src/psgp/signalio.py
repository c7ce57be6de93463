"""Single-channel signal recordings: binary file format and segmentation.

A signal file is one little-endian ``psgp.frame`` frame (magic ``PSGS``,
version 2). Its header and payload::

    modality tag    u8       0=EEG, 1=ECG, 2=RESP
    sample_rate_hz  f64
    subject id      UTF-8 bytes, the rest of the header
    samples         the payload, f32 each

Reads and writes round-trip byte-for-byte. ``SignalFile.index`` checks a
file in one pass that reads its samples in fixed blocks into one buffer and
folds each block into the frame's crc. Every read of samples (that pass,
``read_signal_file``, ``SignalRows``) is one ``SignalFile.read_at``, which
checks what it read: its length and finiteness, not the crc.
"""
from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import frame
from .errors import DataError, FormatError, NonFiniteSamplesError, TruncatedPayloadError, utf8_text

MAGIC = b"PSGS"
FORMAT_VERSION = 2
WINDOW_SECONDS = 30.0

_HEADER = struct.Struct("<Bd")  # modality tag, sample rate; the subject id follows
_BLOCK_SAMPLES = 1 << 18  # 1 MiB of float32 per read of the index pass


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
    header = _HEADER.pack(recording.modality.value, recording.sample_rate_hz)
    sid = recording.subject_id.encode("utf-8")
    frame.write(path, MAGIC, FORMAT_VERSION, header + sid, recording.samples.astype("<f4", copy=False))


def read_signal_file(path: Path | str) -> Recording:
    """Parse a signal file, raising a distinct error per malformation."""
    file = SignalFile.index(path)
    samples = np.empty(file.n_samples, dtype="<f4")
    file.read_at(0, samples)
    return Recording(file.subject_id, file.modality, file.sample_rate_hz, samples)


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
    """A checked signal file's header values, and the byte offset of its samples."""

    path: Path
    subject_id: str
    modality: Modality
    sample_rate_hz: float
    n_samples: int
    offset: int

    @property
    def n_windows(self) -> int:
        spw = samples_per_window(self.sample_rate_hz)
        return self.n_samples // spw if spw >= 1 else 0

    @classmethod
    def index(cls, path: Path | str) -> "SignalFile":
        """Check a signal file, raising a distinct error per malformation,
        with memory bounded by one block of samples, not by the file."""
        path = Path(path)
        with path.open("rb") as fh:
            fr = frame.Frame(fh, path, MAGIC, FORMAT_VERSION)
        if len(fr.header) < _HEADER.size or fr.size % 4:
            raise FormatError(f"{path}: {len(fr.header)} header and {fr.size} payload bytes are no signal")
        tag, rate = _HEADER.unpack_from(fr.header)
        if tag >= len(Modality):  # the tags are 0, 1, 2
            raise FormatError(f"{path}: unknown modality tag {tag}")
        if not (np.isfinite(rate) and rate > 0):
            raise FormatError(f"{path}: invalid sample rate {rate}")
        with utf8_text(path):
            subject_id = fr.header[_HEADER.size:].decode("utf-8")
        file = cls(path, subject_id, Modality(tag), rate, fr.size // 4, fr.offset)
        block = np.empty(min(file.n_samples, _BLOCK_SAMPLES), dtype="<f4")
        for start in range(0, file.n_samples, _BLOCK_SAMPLES):
            file.read_at(start, block[:file.n_samples - start])
            fr.fold(block[:file.n_samples - start])
        fr.check()
        return file

    def read_at(self, sample: int, out: np.ndarray) -> None:
        """Fill the contiguous float32 array ``out`` with the samples from
        ``sample`` on, from the file opened for this read and closed after
        it. A short read raises TruncatedPayloadError and a non-finite
        sample NonFiniteSamplesError, each naming the file."""
        with self.path.open("rb") as fh:
            fh.seek(self.offset + sample * 4)
            got = fh.readinto(memoryview(out).cast("B"))
        if got != out.nbytes:
            raise TruncatedPayloadError(
                f"{self.path}: payload ends inside samples {sample}-{sample + out.size - 1} "
                f"({got} of {out.nbytes} bytes read)"
            )
        if not np.isfinite(out).all():
            raise NonFiniteSamplesError(f"{self.path}: payload contains NaN or Inf")


class SignalRows:
    """The windows of a list of signal files as one (N, width) float32 row
    space, read from the files on demand.

    Row r is window ``window_indices[r]`` of subject ``subject_ids[r]``'s
    file, the files in list order. Indexing by an int array or a slice reads
    those rows into a fresh (k, width) float32 array. Each run of consecutive
    windows of one file is one ``SignalFile.read_at``, so no descriptor stays
    open between reads, reads on several threads share none, and a file that
    changed after it was indexed fails the read that meets the change;
    sorted indices give the longest runs.
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
            self.files[files[start]].read_at(int(windows[start]) * self.width, out[start:stop])
        return out.astype(np.float32, copy=False)
