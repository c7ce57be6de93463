"""Architecture geometry, encoder properties, pooling, checkpoint format."""
import math
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from psgp.autodiff import Tensor, no_grad
from psgp.errors import ConfigError, DataError, FormatError, NumericError, SchemaMismatchError
from psgp.model import (
    ModelConfig,
    config_from_text,
    config_to_text,
    default_model_config,
    embed_segments,
    embed_tiles,
    encode_t,
    init_parameters,
    load_checkpoint,
    parameter_schema,
    pool_rows,
    save_checkpoint,
    stem_forward,
)
from psgp.signalio import Modality

from helpers import reframe, tiny_config


def window_config(modality: Modality, **overrides) -> ModelConfig:
    """One signal window at the modality's nominal rate, desk geometry
    (d = 32, depth 4/2, 4 heads, FFN x4, f32) unless overridden."""
    geometry = dict(
        embed_dim=32, encoder_depth=4, decoder_depth=2, n_heads=4, ffn_mult=4, precision="f32"
    )
    geometry.update(overrides)
    return default_model_config(modality, **geometry)


def stem(X, params, cfg) -> np.ndarray:
    """(B, m) samples -> (B, n, d) patch grid, without a tape."""
    with no_grad():
        return stem_forward(Tensor(np.asarray(X)), {k: Tensor(v) for k, v in params.items()}, cfg).data


def encode(grid, params, cfg) -> np.ndarray:
    """(B, n, d) patch grid -> (B, n, d) encoded grid, without a tape."""
    with no_grad():
        tp = {k: Tensor(v) for k, v in params.items()}
        return encode_t(Tensor(np.asarray(grid)), tp, cfg).data


def pool(grid) -> np.ndarray:
    """(..., n, d) grid -> (..., d) unit-norm embedding, without a tape."""
    with no_grad():
        return pool_rows(Tensor(np.asarray(grid))).data


class TestModelConfig:
    def test_nominal_rates_give_30_patches(self):
        eeg = window_config(Modality.EEG)
        resp = window_config(Modality.RESP)
        assert eeg.input_len == 3750 and eeg.n_patches == 30
        assert resp.input_len == 300 and resp.n_patches == 30
        assert eeg.stem_strides == (5, 5, 5)
        assert resp.stem_strides == (2, 5)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            tiny_config(input_len=41)  # not divisible by stride product
        with pytest.raises(ConfigError):
            tiny_config(embed_dim=9)  # not a multiple of n_heads
        for n_heads in (0, -4):  # would divide by zero, or pass embed_dim % n_heads
            with pytest.raises(ConfigError, match="n_heads must be positive"):
                tiny_config(n_heads=n_heads)
        with pytest.raises(ConfigError):
            tiny_config(encoder_depth=1, decoder_depth=2)  # decoder deeper
        with pytest.raises(ConfigError):
            tiny_config(stem_strides=(0, 5))  # stride below 1
        with pytest.raises(ConfigError):
            tiny_config(precision="f16")
        with pytest.raises(ConfigError):
            tiny_config(input_len=777, stem_strides=())  # no default geometry

    def test_receptive_field_empirical(self):
        """The stem's windows do not overlap: perturbing one input sample
        changes exactly patch j = idx // P, where P = prod(strides), so patch
        j depends only on samples [j*P, (j+1)*P)."""
        cfg = tiny_config()
        P = math.prod(cfg.stem_strides)
        params = init_parameters(cfg, seed=0)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, cfg.input_len))
        base = stem(x, params, cfg)[0]
        for idx in (0, 9, 10, 17, cfg.input_len - 1):
            bumped = x.copy()
            bumped[0, idx] += 1.0
            delta = np.abs(stem(bumped, params, cfg)[0] - base).max(axis=1)
            touched = set(np.nonzero(delta > 0)[0])
            assert touched == {idx // P}, (idx, touched)


class TestInitParameters:
    def test_schema_complete_and_deterministic(self):
        cfg = tiny_config()
        a = init_parameters(cfg, seed=3)
        b = init_parameters(cfg, seed=3)
        schema = parameter_schema(cfg)
        assert list(a) == [name for name, _, _ in schema]
        for name, shape, _ in schema:
            assert a[name].shape == shape
            np.testing.assert_array_equal(a[name], b[name])

    def test_seed_changes_weights(self):
        cfg = tiny_config()
        a = init_parameters(cfg, seed=3)
        b = init_parameters(cfg, seed=4)
        assert np.abs(a["enc.0.attn.wq"] - b["enc.0.attn.wq"]).max() > 0

    def test_init_kinds(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=0)
        assert np.all(params["stem.0.conv.b"] == 0)
        assert np.all(params["enc.0.ln1.g"] == 1)
        w = params["enc.0.ffn.w1"]
        limit = 1.0 / math.sqrt(w.shape[0])
        assert np.abs(w).max() <= limit
        assert np.abs(params["pos_embed"]).max() < 0.2  # sigma 0.02 normal

    def test_dtype_follows_precision(self):
        assert init_parameters(tiny_config(), 0)["pos_embed"].dtype == np.float64
        cfg32 = tiny_config(precision="f32")
        assert init_parameters(cfg32, 0)["pos_embed"].dtype == np.float32


class TestForwardShapes:
    def test_patchify_shapes(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        single = stem(np.zeros((1, 40)), params, cfg)
        assert single.shape == (1, 4, 8)
        batch = stem(np.zeros((3, 40)), params, cfg)
        assert batch.shape == (3, 4, 8)

    def test_batch_matches_single(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((3, 40))
        batch = stem(X, params, cfg)
        for i in range(3):
            np.testing.assert_array_equal(batch[i], stem(X[i:i + 1], params, cfg)[0])

    def test_wrong_length_rejected(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        with pytest.raises(DataError):
            embed_segments(np.zeros((1, 39)), params, cfg)

    def test_encode_shape(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        grid = stem(np.zeros((1, 40)), params, cfg)
        assert encode(grid, params, cfg).shape == (1, 4, 8)


class TestEncoderProperties:
    def test_permutation_equivariance_without_positions(self):
        """With a zero position table, the encoder commutes with any
        permutation of the patch rows."""
        cfg = tiny_config()
        params = init_parameters(cfg, seed=5)
        params["pos_embed"] = np.zeros_like(params["pos_embed"])
        rng = np.random.default_rng(6)
        grid = rng.standard_normal((1, cfg.n_patches, cfg.embed_dim))
        perm = rng.permutation(cfg.n_patches)
        out_perm = encode(grid[:, perm], params, cfg)
        out_base = encode(grid, params, cfg)
        np.testing.assert_allclose(out_perm, out_base[:, perm], rtol=1e-10, atol=1e-12)

    def test_positions_break_equivariance(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=5)
        rng = np.random.default_rng(6)
        grid = rng.standard_normal((1, cfg.n_patches, cfg.embed_dim))
        perm = np.array([1, 0, 3, 2])
        out_perm = encode(grid[:, perm], params, cfg)
        out_base = encode(grid, params, cfg)
        assert np.abs(out_perm - out_base[:, perm]).max() > 1e-4

    def test_nonfinite_input_raises(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=5)
        grid = np.full((1, 4, 8), np.nan)
        with pytest.raises(NumericError):
            encode(grid, params, cfg)


class TestPooling:
    def test_unit_norm_output(self):
        rng = np.random.default_rng(8)
        v = pool(rng.standard_normal((6, 5)))
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)

    def test_small_closed_form(self):
        grid = np.array([[1.0, 0.0], [3.0, 0.0]])  # mean (2, 0) -> unit (1, 0)
        np.testing.assert_allclose(pool(grid), [1.0, 0.0])

    def test_zero_grid_degenerate(self):
        # the norm is clamped at its floor: a zero mean pools to zeros, not NaN
        np.testing.assert_array_equal(pool(np.zeros((4, 3))), np.zeros(3))

    def test_norm_that_overflows_is_refused(self):
        """A mean whose square overflows f32 would pool to a zero row; under
        the overflow silencing that ``embed_segments`` runs its tiles with,
        it raises instead."""
        grid = np.full((1, 2, 4), 2.0**70, np.float32)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="norm is not finite"):
            pool_rows(Tensor(grid))

    def test_embed_segments_matches_manual_path(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=7)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((5, 40))
        embs = embed_segments(X, params, cfg, threads=2)
        assert embs.shape == (5, 8)
        np.testing.assert_allclose(np.linalg.norm(embs, axis=1), 1.0, rtol=1e-12)
        for i in range(5):
            manual = pool(encode(stem(X[i:i + 1], params, cfg), params, cfg))[0]
            np.testing.assert_allclose(embs[i], manual, rtol=1e-10, atol=1e-12)

    def test_embed_segments_batch_size_irrelevant(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=7)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((7, 40))
        a = embed_segments(X, params, cfg, threads=1)
        b = embed_segments(X, params, cfg, threads=3)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


    def test_embed_tiles_fill_the_budget(self):
        """d = 32 f32: the stem's stage-0 tile is 10 rows at 3750 samples and
        54 at 300; the encoder tile, set by the FFN inner activation
        (30 patches x 128 x 4 bytes per segment), is 68 for both."""
        for modality, stem_tile in ((Modality.ECG, 10), (Modality.RESP, 54)):
            cfg = window_config(modality)
            assert embed_tiles(cfg) == (stem_tile, 68)
        f64 = window_config(Modality.ECG, precision="f64")
        assert embed_tiles(f64) == (5, 34)
        wide = window_config(Modality.ECG, embed_dim=1024, precision="f64")
        assert embed_tiles(wide) == (1, 1)

    def test_embed_segments_tiles_are_byte_identical(self):
        """f32 at the default ECG geometry: several encoder tiles plus a
        remainder tile, each run through the stem in stem tiles, give the same
        bytes as one tile per row, at any thread count."""
        cfg = window_config(Modality.ECG)
        stem_tile, tile = embed_tiles(cfg)
        assert tile > stem_tile > 2 and tile % stem_tile
        params = init_parameters(cfg, seed=4)
        X = np.random.default_rng(4).standard_normal((2 * tile + 3, cfg.input_len))
        reference = embed_segments(X, params, cfg).tobytes()
        one_per_row = b"".join(embed_segments(row[None], params, cfg).tobytes() for row in X)
        assert one_per_row == reference
        for threads in (2, 4):
            assert embed_segments(X, params, cfg, threads=threads).tobytes() == reference

    def test_embed_segments_threads_keep_bytes_at_d8(self):
        """At d = 8 the bytes may depend on the tile sizes (the stem GEMM and
        attention's softmax sum round differently with their row count), but
        the tiling follows from the config alone: every thread count gives
        the bytes of one thread, over several encoder tiles and a remainder."""
        cfg = window_config(Modality.ECG, embed_dim=8, encoder_depth=1, decoder_depth=1)
        _, tile = embed_tiles(cfg)
        params = init_parameters(cfg, seed=8)
        X = np.random.default_rng(8).standard_normal((2 * tile + 5, cfg.input_len))
        reference = embed_segments(X, params, cfg, threads=1).tobytes()
        for threads in (2, 3):
            assert embed_segments(X, params, cfg, threads=threads).tobytes() == reference

    def test_embed_tile_writes_over_the_arrays_it_fills(self, monkeypatch):
        """One EEG d = 32 encoder tile (68 rows, f32) peaks at 3.24 MiB of
        traced allocations after the heap block: GELU writes over the FFN
        and stem ``linear`` outputs, each residual sum over the attention or
        ``linear`` output, and ``layer_norm`` scales its own array. Allocating
        a fresh array for each took the peak to 4.01 MiB."""
        from psgp import model as mdl

        cfg = window_config(Modality.EEG)
        _, tile = embed_tiles(cfg)
        params = init_parameters(cfg, seed=3)
        X = np.random.default_rng(3).standard_normal((tile, cfg.input_len)).astype(np.float32)
        real = mdl.keep_freed_arrays_in_heap

        def heap_block_not_counted():
            real()
            tracemalloc.reset_peak()

        monkeypatch.setattr(mdl, "keep_freed_arrays_in_heap", heap_block_not_counted)
        tracemalloc.start()
        try:
            embed_segments(X, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * 2**20, peak / 2**20

    def test_failing_tiles_raise_the_earliest_at_any_interleaving(self):
        """Five threads over twelve encoder tiles, some of whose reads fail,
        with a short switch interval: the error raised is always the
        earliest failing tile's, and no thread reads a tile of its share
        (tiles i, i + 5 and i + 10) after its own failure."""
        import sys

        cfg = tiny_config()
        _, tile = embed_tiles(cfg)
        params = init_parameters(cfg, seed=6)
        X = np.random.default_rng(6).standard_normal((12 * tile, cfg.input_len))

        class Rows:
            shape = X.shape

            def __init__(self, failing):
                self.failing, self.reads = failing, {}

            def __getitem__(self, rows):
                self.reads.setdefault(rows.start // tile % 5, []).append(rows.start)
                if rows.start in self.failing:
                    raise DataError(f"tile at {rows.start}")
                return X[rows]

        rng = np.random.default_rng(7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(6):
                failing = {tile * int(k) for k in rng.choice(12, size=3, replace=False)}
                source = Rows(failing)
                with pytest.raises(DataError, match=f"tile at {min(failing)}$"):
                    embed_segments(source, params, cfg, threads=5)
                for reads in source.reads.values():  # a share's failed read is its last
                    assert [start in failing for start in reads[:-1]] == [False] * (len(reads) - 1), reads
        finally:
            sys.setswitchinterval(interval)

    def test_embed_segments_pool_leaves_grad_enabled(self):
        """Each encoder tile enters ``no_grad`` on its own thread, and grad
        mode is per thread, so the calling thread still records after the
        pool's workers entered and left it, at any interleaving."""
        import sys

        from psgp import autodiff as ad

        cfg = window_config(Modality.ECG)
        _, tile = embed_tiles(cfg)
        params = init_parameters(cfg, seed=4)
        X = np.random.default_rng(5).standard_normal((2 * tile + 3, cfg.input_len))
        reference = embed_segments(X, params, cfg, threads=1).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(4):
                assert embed_segments(X, params, cfg, threads=3).tobytes() == reference
                assert ad.grad_enabled()
        finally:
            sys.setswitchinterval(interval)

    def test_each_share_runs_on_a_thread_of_its_own(self, monkeypatch):
        """Three one-tile shares are read by three threads, the calling one
        among them, however slowly a pool would start its workers: an
        executor whose ``submit`` was slowed by 0.2 s handed share 2 to the
        idle worker that had already run share 1, so the two ran one after
        the other."""
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        real_submit = ThreadPoolExecutor.submit

        def slow_submit(self, *args, **kwargs):
            time.sleep(0.2)
            return real_submit(self, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", slow_submit)
        cfg = tiny_config()
        _, tile = embed_tiles(cfg)
        params = init_parameters(cfg, seed=2)
        X = np.random.default_rng(2).standard_normal((3 * tile, cfg.input_len))
        readers = {}

        class Rows:
            shape = X.shape

            def __getitem__(self, rows):
                readers[rows.start // tile] = threading.current_thread()
                return X[rows]

        got = embed_segments(Rows(), params, cfg, threads=3)
        assert got.tobytes() == embed_segments(X, params, cfg).tobytes()
        assert readers[0] is threading.current_thread()
        assert len(set(readers.values())) == 3, readers


class TestCheckpointFormat:
    def _saved(self, tmp_path, cfg=None, seed=11):
        cfg = cfg or tiny_config()
        params = init_parameters(cfg, seed=seed)
        path = tmp_path / "model.psgm"
        save_checkpoint(params, cfg, path)
        return params, cfg, path

    def test_round_trip_exact(self, tmp_path):
        params, cfg, path = self._saved(tmp_path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert list(loaded) == list(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])
            assert loaded[name].dtype == params[name].dtype

    def test_round_trip_f32(self, tmp_path):
        params, cfg, path = self._saved(tmp_path, cfg=tiny_config(precision="f32"))
        loaded, _ = load_checkpoint(path)
        for name in params:
            assert loaded[name].dtype == np.float32
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_file_bytes_reproducible(self, tmp_path):
        params, cfg, _ = self._saved(tmp_path)
        save_checkpoint(params, cfg, tmp_path / "a.psgm")
        save_checkpoint(params, cfg, tmp_path / "b.psgm")
        assert (tmp_path / "a.psgm").read_bytes() == (tmp_path / "b.psgm").read_bytes()

    @pytest.mark.parametrize("precision,wire", [("f32", "<f4"), ("f64", "<f8")])
    def test_file_is_the_blob_then_the_schema_ordered_tensors(self, tmp_path, precision, wire):
        """Version 4 byte for byte: the frame's prefix (magic, version, blob
        length, payload length), the config blob, then every tensor in
        schema order as little-endian values of the precision, with no header
        of its own, and the crc32 of all of it."""
        params, cfg, path = self._saved(tmp_path, cfg=tiny_config(precision=precision))
        blob = config_to_text(cfg).encode("utf-8")
        payload = b"".join(params[name].astype(wire).tobytes() for name, _, _ in parameter_schema(cfg))
        body = b"PSGM" + struct.pack("<IIQ", 4, len(blob), len(payload)) + blob + payload
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))

    def test_parameters_of_another_length_than_the_config_gives(self, tmp_path):
        """A valid frame whose payload is one value short of its config's."""
        _, cfg, path = self._saved(tmp_path)  # f64
        values = sum(math.prod(shape) for _, shape, _ in parameter_schema(cfg))
        reframe(path, lambda blob, payload: payload.__delitem__(slice(-8, None)))
        message = f"{path}: {8 * values - 8} bytes of parameters, {values} values in its config"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(path)

    def test_expect_config_mismatch(self, tmp_path):
        """The error names the first field that differs, with both values."""
        _, _, path = self._saved(tmp_path)
        other = tiny_config(embed_dim=16, n_heads=4)
        with pytest.raises(SchemaMismatchError, match="checkpoint has embed_dim=8, expected embed_dim=16$"):
            load_checkpoint(path, expect_config=other)

    def test_missing_tensor_rejected(self, tmp_path):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        params.pop("mask_token")
        with pytest.raises(SchemaMismatchError):
            save_checkpoint(params, cfg, tmp_path / "x.psgm")

    def test_nan_tensor_rejected_on_save(self, tmp_path):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        params["mask_token"] = np.full(8, np.nan)
        with pytest.raises(NumericError):
            save_checkpoint(params, cfg, tmp_path / "x.psgm")

    def test_tensor_of_another_dtype_rejected_on_save(self, tmp_path):
        """The file holds one dtype, the config's precision: an f32 tensor in
        an f64 config is refused, not widened."""
        cfg = tiny_config(precision="f64")
        params = init_parameters(cfg, seed=1)
        params["mask_token"] = params["mask_token"].astype(np.float32)
        with pytest.raises(SchemaMismatchError, match="'mask_token' dtype float32 does not match precision f64"):
            save_checkpoint(params, cfg, tmp_path / "x.psgm")
        assert not (tmp_path / "x.psgm").exists()

    def test_config_text_round_trip(self):
        cfg = tiny_config(stem_strides=(4, 5))
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_config_text_is_the_field_list_in_order(self):
        """The config blob byte for byte: one key=value line per ModelConfig
        field, in declaration order. Reordering the fields changes the blob of
        every checkpoint written after it."""
        assert config_to_text(tiny_config()) == (
            "modality=EEG\ninput_len=40\nembed_dim=8\nencoder_depth=1\ndecoder_depth=1\n"
            "n_heads=2\nffn_mult=2\nstem_strides=2,5\nprecision=f64\n"
        )

    def test_config_text_missing_key(self):
        text = config_to_text(tiny_config()).replace("n_heads=2\n", "")
        with pytest.raises(SchemaMismatchError):
            config_from_text(text)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text + "n_heads=4\n",  # a repeated key; the last one would win
            lambda text: text + "stem_kernels=3,3\n",  # a knob the model no longer has
            lambda text: text.replace("n_heads=2\n", "n_heads=2 \n"),  # a padded value
            lambda text: text.replace("n_heads=2\n", "n_heads=2\n\n"),  # a blank line
            lambda text: text.replace("n_heads=2\n", "n_heads=0\n"),  # no head to divide embed_dim by
        ],
        ids=["repeated_key", "unknown_key", "padded_line", "blank_line", "zero_heads"],
    )
    def test_config_text_must_be_what_its_values_write(self, edit):
        with pytest.raises(SchemaMismatchError):
            config_from_text(edit(config_to_text(tiny_config())))
