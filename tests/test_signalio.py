"""Signal file format, 30-second segmentation and the row source read from it."""
import re
import struct
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

from psgp.errors import DataError, FormatError, NonFiniteSamplesError, TruncatedPayloadError
from psgp import cli, frame, signalio
from psgp.signalio import (
    FORMAT_VERSION,
    MAGIC,
    Modality,
    Recording,
    SignalFile,
    SignalRows,
    read_signal_file,
    round_half_up,
    samples_per_window,
    segment_recording,
    write_signal_file,
)

from helpers import reframe


def _recording(n=7500, rate=125.0, modality=Modality.EEG, sid="S0001", seed=0):
    rng = np.random.default_rng(seed)
    return Recording(sid, modality, rate, rng.standard_normal(n).astype(np.float32))


class TestRoundHalfUp:
    def test_ties_go_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(3.5) == 4
        assert round_half_up(0.5) == 1

    def test_plain_values(self):
        assert round_half_up(2.4) == 2
        assert round_half_up(2.6) == 3
        assert round_half_up(7.0) == 7

    def test_matches_decimal_rounding(self):
        # cross-check against an independent formulation on a small grid
        for k in range(-40, 41):
            x = k / 4.0
            expected = int(np.floor(x) + (1 if x - np.floor(x) >= 0.5 else 0))
            assert round_half_up(x) == expected, x


class TestModality:
    def test_tags(self):
        assert Modality.EEG.value == 0
        assert Modality.ECG.value == 1
        assert Modality.RESP.value == 2

    def test_nominal_rates(self):
        assert Modality.EEG.nominal_rate_hz == 125.0
        assert Modality.ECG.nominal_rate_hz == 125.0
        assert Modality.RESP.nominal_rate_hz == 10.0

    def test_parse_accepts_case_and_space(self):
        assert Modality.parse(" ecg ") is Modality.ECG
        assert Modality.parse("RESP") is Modality.RESP

    def test_parse_rejects_unknown(self):
        with pytest.raises(DataError):
            Modality.parse("EMG")


class TestSamplesPerWindow:
    def test_nominal_rates(self):
        assert samples_per_window(125.0) == 3750
        assert samples_per_window(10.0) == 300

    def test_fractional_rate_rounds(self):
        assert samples_per_window(10.01) == 300  # 300.3 -> 300
        assert samples_per_window(10.05) == 302  # 301.5 -> 302 (half up)


class TestRecording:
    def test_casts_to_float32(self):
        rec = Recording("a", Modality.EEG, 125.0, np.arange(5, dtype=np.float64))
        assert rec.samples.dtype == np.float32
        assert rec.n_samples == 5

    def test_rejects_2d(self):
        with pytest.raises(DataError):
            Recording("a", Modality.EEG, 125.0, np.zeros((2, 3)))

    def test_rejects_bad_rate(self):
        with pytest.raises(DataError):
            Recording("a", Modality.EEG, 0.0, np.zeros(4))
        with pytest.raises(DataError):
            Recording("a", Modality.EEG, -5.0, np.zeros(4))

    def test_rejects_empty_id(self):
        with pytest.raises(DataError):
            Recording("", Modality.EEG, 125.0, np.zeros(4))


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        for trial in range(10):
            n = int(rng.integers(1, 5000))
            modality = Modality(int(rng.integers(0, 3)))
            rate = modality.nominal_rate_hz
            rec = Recording(
                f"subj-{trial}", modality, rate, rng.standard_normal(n).astype(np.float32)
            )
            path = tmp_path / f"t{trial}.psgs"
            write_signal_file(rec, path)
            back = read_signal_file(path)
            assert back.subject_id == rec.subject_id
            assert back.modality is rec.modality
            assert back.sample_rate_hz == rec.sample_rate_hz
            np.testing.assert_array_equal(back.samples, rec.samples)

    def test_write_is_reproducible(self, tmp_path):
        rec = _recording()
        write_signal_file(rec, tmp_path / "a.psgs")
        write_signal_file(rec, tmp_path / "b.psgs")
        assert (tmp_path / "a.psgs").read_bytes() == (tmp_path / "b.psgs").read_bytes()

    def test_unicode_subject_id(self, tmp_path):
        rec = Recording("пациент-42", Modality.RESP, 10.0, np.zeros(30, dtype=np.float32))
        write_signal_file(rec, tmp_path / "u.psgs")
        assert read_signal_file(tmp_path / "u.psgs").subject_id == "пациент-42"

    def test_file_is_the_frame_of_the_header_and_the_samples(self, tmp_path):
        """Version 2 byte for byte: the frame's prefix (magic, version,
        header length, payload length), the modality tag, the sample rate and
        the UTF-8 subject id, the samples, and the crc32 of all of it."""
        rec = _recording(n=20, modality=Modality.RESP, rate=10.0, sid="пациент-7")
        path = tmp_path / "x.psgs"
        write_signal_file(rec, path)
        header = struct.pack("<Bd", 2, 10.0) + "пациент-7".encode("utf-8")
        body = b"PSGS" + struct.pack("<IIQ", 2, len(header), 80) + header + rec.samples.astype("<f4").tobytes()
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))

    def test_rejects_nonfinite_on_write(self, tmp_path):
        rec = _recording(n=10)
        rec.samples[3] = np.nan
        with pytest.raises(NonFiniteSamplesError):
            write_signal_file(rec, tmp_path / "bad.psgs")


class TestMalformedFiles:
    """Each malformation of what a signal file's header and payload say maps
    to its own error class. Each file is written with a valid frame, so it
    gets past the frame's checks (``tests/test_frame.py``) to the format's."""

    def _file(self, tmp_path, edit):
        path = tmp_path / "x.psgs"
        write_signal_file(_recording(n=20), path)
        reframe(path, edit)
        return path

    def test_nan_in_payload(self, tmp_path):
        path = self._file(tmp_path, lambda header, payload: struct.pack_into("<f", payload, 76, np.nan))
        with pytest.raises(NonFiniteSamplesError, match=re.escape(f"{path}: payload contains NaN or Inf")):
            read_signal_file(path)

    def test_unknown_modality_tag(self, tmp_path):
        path = self._file(tmp_path, lambda header, payload: header.__setitem__(0, 9))
        with pytest.raises(FormatError, match=re.escape(f"{path}: unknown modality tag 9")):
            read_signal_file(path)

    def test_invalid_rate_in_header(self, tmp_path):
        path = self._file(tmp_path, lambda header, payload: struct.pack_into("<d", header, 1, -1.0))
        with pytest.raises(FormatError, match=re.escape(f"{path}: invalid sample rate -1.0")):
            read_signal_file(path)

    @pytest.mark.parametrize(
        "header,payload", [(b"\x00\x01", b""), (struct.pack("<Bd", 0, 125.0) + b"S1", b"\x00" * 6)], ids=["header", "payload"]
    )
    def test_frame_that_holds_no_signal(self, tmp_path, header, payload):
        """A valid frame whose header is shorter than its fields, or whose
        payload is not whole float32 samples."""
        path = tmp_path / "x.psgs"
        frame.write(path, MAGIC, FORMAT_VERSION, header, payload)
        message = f"{path}: {len(header)} header and {len(payload)} payload bytes are no signal"
        with pytest.raises(FormatError, match=re.escape(message)):
            SignalFile.index(path)


class TestSegmentation:
    def test_counts_and_remainder(self):
        # 2 full windows plus 100 leftover samples at 125 Hz
        rec = _recording(n=2 * 3750 + 100)
        segs = segment_recording(rec)
        assert segs.shape == (2, 3750)

    def test_segments_tile_the_recording(self):
        rec = _recording(n=3 * 300, rate=10.0, modality=Modality.RESP)
        segs = segment_recording(rec)
        assert segs.shape == (3, 300)
        for i in range(3):
            np.testing.assert_array_equal(segs[i], rec.samples[i * 300:(i + 1) * 300])

    def test_short_recording_yields_nothing(self):
        rec = _recording(n=299, rate=10.0, modality=Modality.RESP)
        assert segment_recording(rec).shape == (0, 300)

    def test_segment_metadata(self):
        rec = _recording(n=3750, sid="S42")
        segs = segment_recording(rec)
        assert segs.shape == (1, 3750)
        assert segs.dtype == np.float32
        assert np.shares_memory(segs, rec.samples)  # a view, not a copy


class TestSignalRows:
    """Windows read from the files at the payload offset equal the segments
    of the parsed recordings, and a file changed after indexing fails the
    read that meets the change."""

    SIDS = ("S0", "пациент-1", "S2")  # a multi-byte id moves the payload offset

    def _index(self, tmp_path, lengths):
        files, recs = [], []
        for seed, (sid, n) in enumerate(zip(self.SIDS, lengths)):
            rec = _recording(n=n, rate=10.0, modality=Modality.RESP, sid=sid, seed=seed)
            path = tmp_path / f"{seed}.psgs"
            write_signal_file(rec, path)
            files.append(SignalFile.index(path))
            recs.append(rec)
        return SignalRows(files, 300), recs

    def test_rows_equal_the_segments(self, tmp_path):
        rows, recs = self._index(tmp_path, [3 * 300 + 7, 2 * 300, 300])
        want = np.concatenate([segment_recording(r) for r in recs])
        assert rows.shape == want.shape == (6, 300) and len(rows) == 6
        assert rows.subject_ids.tolist() == ["S0"] * 3 + ["пациент-1"] * 2 + ["S2"]
        assert rows.window_indices.tolist() == [0, 1, 2, 0, 1, 0]
        for index in (slice(None), slice(1, 5), slice(4, 99), np.array([0, 2, 3, 5]), np.array([4])):
            got = rows[index]
            assert got.dtype == np.float32 and got.flags.c_contiguous
            assert got.tobytes() == want[index].tobytes()
        assert rows[np.array([], dtype=np.int64)].shape == (0, 300)
        assert rows[5:5].shape == (0, 300)

    def test_short_recording_adds_no_rows(self, tmp_path):
        rows, recs = self._index(tmp_path, [2 * 300, 299, 300 + 5])
        assert len(rows) == 3
        assert rows.subject_ids.tolist() == ["S0", "S0", "S2"]
        assert rows[:].tobytes() == np.concatenate([segment_recording(recs[0]), segment_recording(recs[2])]).tobytes()

    def test_one_read_per_run_of_windows(self, tmp_path, monkeypatch):
        rows, _ = self._index(tmp_path, [3 * 300, 2 * 300, 300])
        reads = []
        real = SignalFile.read_at

        def counting(self, sample, out):
            reads.append((self.subject_id, sample // 300, len(out)))
            real(self, sample, out)

        monkeypatch.setattr(SignalFile, "read_at", counting)
        rows[:]
        assert reads == [("S0", 0, 3), ("пациент-1", 0, 2), ("S2", 0, 1)]
        reads.clear()
        rows[np.array([0, 2, 3, 4])]
        assert reads == [("S0", 0, 1), ("S0", 2, 1), ("пациент-1", 0, 2)]

    def test_file_truncated_after_indexing(self, tmp_path):
        rows, recs = self._index(tmp_path, [3 * 300])
        path = rows.files[0].path
        path.write_bytes(path.read_bytes()[:-5])
        assert rows[0:2].tobytes() == segment_recording(recs[0])[:2].tobytes()
        with pytest.raises(TruncatedPayloadError, match=re.escape(str(path))):
            rows[np.array([0, 2])]

    def test_nan_written_after_indexing(self, tmp_path):
        rows, _ = self._index(tmp_path, [3 * 300])
        path = rows.files[0].path
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, rows.files[0].offset + (300 + 7) * 4, np.nan)
        path.write_bytes(bytes(blob))
        rows[np.array([0, 2])]
        with pytest.raises(NonFiniteSamplesError, match=re.escape(str(path))):
            rows[1:2]


def test_every_sample_read_is_one_checked_read(tmp_path, monkeypatch):
    """The index pass reads the payload in blocks of ``_BLOCK_SAMPLES`` and
    ``read_signal_file`` adds one read of all of it, each a ``read_at``."""
    block = signalio._BLOCK_SAMPLES
    rec = _recording(n=2 * block + 7)
    path = tmp_path / "long.psgs"
    write_signal_file(rec, path)
    reads = []
    real = SignalFile.read_at

    def counting(self, sample, out):
        reads.append((sample, out.size))
        real(self, sample, out)

    monkeypatch.setattr(SignalFile, "read_at", counting)
    assert SignalFile.index(path).n_samples == rec.n_samples
    assert reads == [(0, block), (block, block), (2 * block, 7)]
    reads.clear()
    assert read_signal_file(path).samples.tobytes() == rec.samples.tobytes()
    assert reads == [(0, block), (block, block), (2 * block, 7), (0, rec.n_samples)]


def embed_with_files_cut(tmp_path, capsys, monkeypatch, cut: list[int], hold_calling_thread=False):
    """``embed --threads 2`` of ECG at d = 32 over 8 subjects x 18 segments,
    with the signal files of the subjects at the ``cut`` positions cut short
    after ``embed`` checked them. 144 rows make encoder tiles of 68 rows
    (rows 0-67, 68-135 and 136-143); the calling thread embeds the first and
    the third, its one helper thread the second. Each cut fails the read of
    the tile holding the file's last window. With ``hold_calling_thread``
    the calling thread's first read waits until the helper thread's share
    is done. Returns the exit code, stderr, the cut paths, whether each
    failed read ran on the main thread, and the files each thread read
    while embedding (main thread first)."""
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nmodalities = ECG\n"
        "[model]\nembed_dim = 32\nencoder_depth = 1\ndecoder_depth = 1\nn_heads = 2\n"
        "[ssl]\nsteps = 1\nbatch_size = 4\nn_permutations = 2\n",
        encoding="utf-8",
    )
    data, models = tmp_path / "cohort", tmp_path / "models"
    common = ["--config", str(ini), "--seed", "3"]
    assert cli.main(["synth", "--out", str(data), *common, "--subjects", "8", "--segments", "18"]) == 0
    assert cli.main(["train", "--out", str(models), *common, "--data", str(data)]) == 0
    files = sorted((data / "signals").glob("*_ECG.psgs"))
    paths = [files[i] for i in cut]
    failed_on = []
    read_on: dict[bool, set[Path]] | None = None  # files read while embedding, by "on the main thread"
    helpers: list[threading.Thread] = []
    real_embed, real_read = cli.embed_segments, SignalFile.read_at

    class Helper(threading.Thread):
        def start(self):
            helpers.append(self)
            super().start()

    def embed_after_cut(X, *args, **kwargs):
        nonlocal read_on
        for path in paths:
            path.write_bytes(path.read_bytes()[:-8])  # the crc and the last sample
        read_on = {True: set(), False: set()}
        return real_embed(X, *args, **kwargs)

    def read(self, sample, out):
        main = threading.current_thread() is threading.main_thread()
        if read_on is not None:
            if main and hold_calling_thread and not read_on[True]:
                for helper in helpers:
                    helper.join(timeout=60)
                assert not any(helper.is_alive() for helper in helpers)
            read_on[main].add(self.path)
        try:
            real_read(self, sample, out)
        except TruncatedPayloadError:
            failed_on.append(main)
            raise

    monkeypatch.setattr(cli, "embed_segments", embed_after_cut)
    monkeypatch.setattr(SignalFile, "read_at", read)
    monkeypatch.setattr(threading, "Thread", Helper)
    capsys.readouterr()
    rc = cli.main(["embed", "--out", str(tmp_path / "emb"), *common, "--data", str(data),
                   "--models", str(models), "--threads", "2"])
    return rc, capsys.readouterr().err, paths, failed_on, (read_on[True], read_on[False])


def test_read_failing_on_an_embed_worker_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A read failing on the helper thread (the fifth subject's rows 72-89
    lie in the second tile): exit 3 and one ``error:`` line naming the file,
    with no traceback."""
    rc, err, (cut,), failed_on, _ = embed_with_files_cut(tmp_path, capsys, monkeypatch, [4])
    assert failed_on == [False]
    assert rc == 3 and "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("error: TruncatedPayloadError: ") and str(cut) in err


def test_read_failing_on_the_calling_thread_is_one_error_line(tmp_path, capsys, monkeypatch):
    """The same on the calling thread, which embeds the third tile: the last
    subject's last window is row 143."""
    rc, err, (cut,), failed_on, _ = embed_with_files_cut(tmp_path, capsys, monkeypatch, [7])
    assert failed_on == [True]
    assert rc == 3 and "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("error: TruncatedPayloadError: ") and str(cut) in err


def test_a_failing_tile_stops_the_later_tiles_of_every_thread(tmp_path, capsys, monkeypatch):
    """With both cuts, and the calling thread held until the helper thread
    has failed the second tile: the calling thread embeds the first tile,
    then stops before the third, whose file is never read. The one error
    line names the file of the second tile, the error a single thread would
    stop at."""
    rc, err, (second, third), failed_on, (main_read, helper_read) = embed_with_files_cut(
        tmp_path, capsys, monkeypatch, [4, 7], hold_calling_thread=True
    )
    assert failed_on == [False]
    assert second in helper_read and third not in main_read | helper_read
    assert main_read and all(path.name < second.name for path in main_read)
    assert rc == 3 and "Traceback" not in err and err.count("\n") == 1
    assert str(second) in err and str(third) not in err
