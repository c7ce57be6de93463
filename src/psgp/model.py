"""Signal backbone: convolutional patch stem + transformer encoder/decoder.

A segment of m samples is downsampled by a stack of strided conv stages
(each followed by a pointwise residual block) into n patch embeddings of
width d, where n = m / prod(strides). Each stage's window is its stride, so
the windows do not overlap: with P = prod(strides), patch j sees exactly the
input samples [j * P, (j + 1) * P). The encoder and decoder are pre-norm
transformers sharing one learned absolute position table, applied at the
encoder input. Pooling is mean-over-patches followed by L2 normalization,
so every segment embedding lives on the unit sphere.

A checkpoint is one ``psgp.frame`` frame (magic ``PSGM``, version 4; older
versions are refused, not converted). Its header and payload::

    config blob  UTF-8 key=value lines, one per ModelConfig field
    parameters   every tensor of parameter_schema(config), in schema order, as
                 one run of the precision's dtype (f4 or f8), each row-major

The config fixes every tensor's name, shape and dtype, so the file states
none of them again and the payload's length follows from the blob.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import frame
from .autodiff import Tensor, no_grad
from .errors import ConfigError, DataError, FormatError, NumericError, SchemaMismatchError, utf8_text
from .signalio import Modality, samples_per_window

CKPT_MAGIC = b"PSGM"
CKPT_VERSION = 4

# stem geometries for the two nominal rates (30 s windows)
_DEFAULT_STRIDES = {3750: (5, 5, 5), 300: (2, 5)}

_LN_EPS = 1e-5
_NORM_FLOOR = 1e-12
# target size of the largest activation of one embed tile (see embed_tiles):
# with the arrays derived from it, a tile's working set fits in a 2 MB L2 cache
_EMBED_TILE_BYTES = 1 << 20


@dataclass(frozen=True, kw_only=True)
class ModelConfig:
    modality: Modality
    input_len: int
    embed_dim: int
    encoder_depth: int
    decoder_depth: int
    n_heads: int
    ffn_mult: int
    stem_strides: tuple[int, ...] = ()
    precision: str

    def __post_init__(self) -> None:
        if self.input_len < 1:
            raise ConfigError("input_len must be positive")
        strides = tuple(int(s) for s in self.stem_strides)
        if not strides:
            if self.input_len not in _DEFAULT_STRIDES:
                raise ConfigError(
                    f"no default stem geometry for input_len={self.input_len}; pass stem_strides"
                )
            strides = _DEFAULT_STRIDES[self.input_len]
        object.__setattr__(self, "stem_strides", strides)
        if any(s < 1 for s in strides):
            raise ConfigError("stem strides must be positive")
        prod = math.prod(strides)
        if self.input_len % prod != 0:
            raise ConfigError(
                f"input_len {self.input_len} is not divisible by stride product {prod}"
            )
        if self.n_heads < 1:
            raise ConfigError("n_heads must be positive")
        if self.embed_dim < 1 or self.embed_dim % self.n_heads != 0:
            raise ConfigError("embed_dim must be a positive multiple of n_heads")
        if self.encoder_depth < 1 or self.decoder_depth < 1:
            raise ConfigError("encoder and decoder depth must be positive")
        if self.decoder_depth > self.encoder_depth:
            raise ConfigError("decoder_depth must not exceed encoder_depth")
        if self.ffn_mult < 1:
            raise ConfigError("ffn_mult must be positive")
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be f32 or f64, got {self.precision!r}")

    @property
    def n_patches(self) -> int:
        return self.input_len // math.prod(self.stem_strides)

    @property
    def np_dtype(self):
        return np.float32 if self.precision == "f32" else np.float64


def default_model_config(modality: Modality, **overrides) -> ModelConfig:
    """A config whose input is one signal window at the modality's nominal rate."""
    return ModelConfig(
        modality=modality, input_len=samples_per_window(modality.nominal_rate_hz), **overrides
    )


# --- parameter schema and initialization -----------------------------

def parameter_schema(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Ordered (name, shape, init kind) triples; the order is the file order."""
    d = config.embed_dim
    schema: list[tuple[str, tuple[int, ...], str]] = []
    c_in = 1
    for i, s in enumerate(config.stem_strides):
        schema.append((f"stem.{i}.conv.w", (s * c_in, d), "fanin_uniform"))
        schema.append((f"stem.{i}.conv.b", (d,), "zeros"))
        schema.append((f"stem.{i}.pw1.w", (d, d), "fanin_uniform"))
        schema.append((f"stem.{i}.pw1.b", (d,), "zeros"))
        schema.append((f"stem.{i}.pw2.w", (d, d), "fanin_uniform"))
        schema.append((f"stem.{i}.pw2.b", (d,), "zeros"))
        c_in = d
    schema.append(("pos_embed", (config.n_patches, d), "normal02"))
    schema.append(("mask_token", (d,), "normal02"))
    for prefix, depth in (("enc", config.encoder_depth), ("dec", config.decoder_depth)):
        for layer in range(depth):
            base = f"{prefix}.{layer}"
            schema.append((f"{base}.ln1.g", (d,), "ones"))
            schema.append((f"{base}.ln1.b", (d,), "zeros"))
            for proj in ("wq", "wk", "wv", "wo"):
                schema.append((f"{base}.attn.{proj}", (d, d), "fanin_uniform"))
            for bias in ("bq", "bv", "bo"):
                schema.append((f"{base}.attn.{bias}", (d,), "zeros"))
            schema.append((f"{base}.ln2.g", (d,), "ones"))
            schema.append((f"{base}.ln2.b", (d,), "zeros"))
            schema.append((f"{base}.ffn.w1", (d, config.ffn_mult * d), "fanin_uniform"))
            schema.append((f"{base}.ffn.b1", (config.ffn_mult * d,), "zeros"))
            schema.append((f"{base}.ffn.w2", (config.ffn_mult * d, d), "fanin_uniform"))
            schema.append((f"{base}.ffn.b2", (d,), "zeros"))
        schema.append((f"{prefix}.ln_f.g", (d,), "ones"))
        schema.append((f"{prefix}.ln_f.b", (d,), "zeros"))
    return schema


def init_parameters(config: ModelConfig, seed) -> dict[str, np.ndarray]:
    """Seeded init: fan-in-scaled uniform weights, zero biases, unit norms,
    sigma=0.02 normal for position table and mask token."""
    rng = np.random.default_rng(seed)
    dtype = config.np_dtype
    params: dict[str, np.ndarray] = {}
    for name, shape, kind in parameter_schema(config):
        if kind == "fanin_uniform":
            limit = 1.0 / math.sqrt(shape[0])
            arr = rng.uniform(-limit, limit, size=shape)
        elif kind == "zeros":
            arr = np.zeros(shape)
        elif kind == "ones":
            arr = np.ones(shape)
        elif kind == "normal02":
            arr = 0.02 * rng.standard_normal(size=shape)
        else:  # pragma: no cover - schema is closed
            raise ValueError(kind)
        params[name] = np.ascontiguousarray(arr, dtype=dtype)
    return params


def _check_schema(params: dict[str, np.ndarray], config: ModelConfig) -> None:
    schema = parameter_schema(config)
    expected = {name: shape for name, shape, _ in schema}
    got = {name: tuple(arr.shape) for name, arr in params.items()}
    if set(expected) != set(got):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise SchemaMismatchError(
            f"parameter names do not match the config schema (missing={missing[:4]}, extra={extra[:4]})"
        )
    for name, shape in expected.items():
        if got[name] != shape:
            raise SchemaMismatchError(
                f"tensor {name!r} has shape {got[name]}, schema expects {shape}"
            )


# --- forward passes ---------------------------------------------------

def _as_tensor_params(params) -> dict[str, Tensor]:
    return {k: Tensor(v) for k, v in params.items()}


def stem_forward(x: Tensor, params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    """(B, m) samples -> (B, n, d) patch embeddings."""
    B = x.shape[0]
    h = ad.reshape(x, (B, config.input_len, 1))
    for i, s in enumerate(config.stem_strides):
        h = ad.gather_windows(h, s)
        h = ad.gelu(ad.linear(h, params[f"stem.{i}.conv.w"], params[f"stem.{i}.conv.b"]), overwrite_a=True)
        inner = ad.gelu(ad.linear(h, params[f"stem.{i}.pw1.w"], params[f"stem.{i}.pw1.b"]), overwrite_a=True)
        h = ad.add(h, ad.linear(inner, params[f"stem.{i}.pw2.w"], params[f"stem.{i}.pw2.b"]), overwrite_b=True)
    return h


def _attention(x: Tensor, params: dict[str, Tensor], base: str, config: ModelConfig) -> Tensor:
    return ad.attention(
        x,
        *(params[f"{base}.{name}"] for name in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")),
        n_heads=config.n_heads,
    )


def _ffn(x: Tensor, params: dict[str, Tensor], base: str) -> Tensor:
    inner = ad.gelu(ad.linear(x, params[f"{base}.w1"], params[f"{base}.b1"]), overwrite_a=True)
    return ad.linear(inner, params[f"{base}.w2"], params[f"{base}.b2"])


def _transformer(
    h: Tensor, params: dict[str, Tensor], config: ModelConfig, prefix: str, depth: int
) -> Tensor:
    for layer in range(depth):
        base = f"{prefix}.{layer}"
        normed = ad.layer_norm(h, params[f"{base}.ln1.g"], params[f"{base}.ln1.b"], _LN_EPS)
        h = ad.add(h, _attention(normed, params, f"{base}.attn", config), overwrite_b=True)
        normed = ad.layer_norm(h, params[f"{base}.ln2.g"], params[f"{base}.ln2.b"], _LN_EPS)
        h = ad.add(h, _ffn(normed, params, f"{base}.ffn"), overwrite_b=True)
    h = ad.layer_norm(h, params[f"{prefix}.ln_f.g"], params[f"{prefix}.ln_f.b"], _LN_EPS)
    if not np.isfinite(h.data).all():
        raise NumericError(f"non-finite activations leaving the {prefix} transformer")
    return h


def encode_t(patches: Tensor, params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    h = ad.add(patches, params["pos_embed"])
    return _transformer(h, params, config, "enc", config.encoder_depth)


def decode_t(latent: Tensor, params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    return _transformer(latent, params, config, "dec", config.decoder_depth)


def pool_rows(t: Tensor) -> Tensor:
    """(..., n, d) -> (..., d): mean over patch rows, then unit L2 norm."""
    m = ad.tmean(t, axis=-2)
    norm = ad.tsqrt(ad.tsum(ad.mul(m, m), axis=-1, keepdims=True))
    if not np.isfinite(norm.data).all():  # an overflowing square would give a zero row
        raise NumericError("non-finite activations: a pooled row's norm is not finite")
    return ad.div(m, ad.clamp_min(norm, _NORM_FLOOR))


# --- inference --------------------------------------------------------

def embed_tiles(config: ModelConfig) -> tuple[int, int]:
    """(stem rows, encoder rows) of one ``embed_segments`` tile.

    Each fills ``_EMBED_TILE_BYTES`` with the largest activation of its part
    of the forward pass, per segment: the stem's stage-0 output
    (input_len / stride_0 rows of d) and the encoder's FFN inner activation
    (n_patches rows of ffn_mult * d).
    """
    row_bytes = config.embed_dim * np.dtype(config.np_dtype).itemsize
    stem_bytes = config.input_len // config.stem_strides[0] * row_bytes
    encoder_bytes = config.n_patches * config.ffn_mult * row_bytes
    return max(1, _EMBED_TILE_BYTES // stem_bytes), max(1, _EMBED_TILE_BYTES // encoder_bytes)


def keep_freed_arrays_in_heap() -> None:
    """Allocate and free one untouched 16 MB block.

    glibc mmaps a block this size and, on its free, raises the mmap
    threshold to 16 MB and the trim threshold to 32 MB (mallopt(3)), so the
    arrays a training step or an embed tile frees stay in the heap for the
    next one instead of being unmapped and faulted back in. Other allocators
    just allocate and free it.
    """
    np.empty(1 << 24, dtype=np.uint8)


def embed_segments(X: np.ndarray, params, config: ModelConfig, threads: int = 1) -> np.ndarray:
    """Embed (N, m) segment samples -> (N, d) unit-norm embeddings.

    ``X`` is an array or anything with a ``shape`` that returns a fresh array
    when sliced, such as ``signalio.SignalRows``. Each encoder tile slices
    its own rows and converts them to the model dtype, so memory follows the
    tile, not N, and a row source's reads run on the thread that embeds it.

    Rows go through the model in encoder tiles, and each encoder tile through
    the stem in smaller stem tiles (sizes from ``embed_tiles``), so that the
    activations stay in cache while each numpy call still does a lot of
    work. ``threads`` threads embed the encoder tiles, the calling thread
    among them: thread i takes tiles i, i + threads, i + 2 * threads, ... in
    order, the calling thread being thread 0 and every other share running
    on a thread started for it alone. A thread stops at its first failing
    tile, and before any tile later than a tile another thread saw fail; the
    earliest failing tile's error is raised, the one a single thread would
    raise. The tiling depends on the config alone and BLAS runs at one
    thread, so one config gives the same bytes at every ``threads`` and
    every environment BLAS thread count. Another tiling of the same rows may
    move low bits: some GEMMs round differently with their row count (seen
    at d = 8 in the stem's (rows, 40) @ (40, 8) GEMM and in attention's
    softmax sum over more than 16,800 columns).
    Each tile runs under ``no_grad``, which holds for its own thread alone.
    The BLAS pin is process-wide, so it is set once, on the calling thread,
    around all tiles: helper threads must not set or restore it themselves.
    """
    if len(X.shape) != 2 or X.shape[1] != config.input_len:
        raise DataError(f"expected (N, {config.input_len}) samples, got {X.shape}")
    stem_tile, tile = embed_tiles(config)
    tp = _as_tensor_params(params)
    out = np.empty((X.shape[0], config.embed_dim), dtype=config.np_dtype)

    def embed_tile(start: int) -> None:
        rows = np.asarray(X[start:start + tile], dtype=config.np_dtype)
        # a huge weight may overflow any op: what it leaves non-finite is refused, not warned about
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):
            patches = np.concatenate([
                stem_forward(Tensor(rows[s:s + stem_tile]), tp, config).data
                for s in range(0, rows.shape[0], stem_tile)
            ])
            out[start:start + rows.shape[0]] = pool_rows(encode_t(Tensor(patches), tp, config)).data

    failed: list[tuple[int, Exception]] = []  # (start, error) of each failing tile

    def embed_share(share: range) -> None:
        """Embed one thread's tiles in order, up to its own or an earlier tile's failure."""
        for start in share:
            if any(s < start for s, _ in failed):  # a failure appended after this look costs one tile more
                return
            try:
                embed_tile(start)
            except Exception as exc:
                failed.append((start, exc))
                return

    starts = range(0, X.shape[0], tile)
    n = max(1, min(threads, len(starts)))
    keep_freed_arrays_in_heap()
    helpers = [threading.Thread(target=embed_share, args=(starts[i::n],)) for i in range(1, n)]
    with ad.single_blas_thread():
        for h in helpers:
            h.start()
        embed_share(starts[::n])  # it keeps every Exception, so the helpers are always joined
        for h in helpers:
            h.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return out


# --- checkpoint container ---------------------------------------------

# (format, parse) of each ModelConfig field type in the config blob, keyed by
# the annotation text (annotations are postponed in this module); the blob
# lists the fields in declaration order
_BLOB_FORMS = {
    "Modality": (lambda m: m.name, Modality.parse),
    "int": (str, int),
    "str": (str, str),
    "tuple[int, ...]": (
        lambda t: ",".join(str(v) for v in t),
        lambda text: tuple(int(v) for v in text.split(",") if v),
    ),
}


def config_to_text(config: ModelConfig) -> str:
    return "".join(
        f"{f.name}={_BLOB_FORMS[f.type][0](getattr(config, f.name))}\n" for f in fields(ModelConfig)
    )


def config_from_text(text: str) -> ModelConfig:
    kv: dict[str, str] = {}
    for line in text.splitlines():
        if "=" not in line:
            raise SchemaMismatchError(f"malformed config line {line!r}")
        key, _, value = line.partition("=")
        kv[key] = value
    missing = [f.name for f in fields(ModelConfig) if f.name not in kv]
    if missing:
        raise SchemaMismatchError(f"checkpoint config missing keys {missing}")
    try:
        config = ModelConfig(**{f.name: _BLOB_FORMS[f.type][1](kv[f.name]) for f in fields(ModelConfig)})
    except (ValueError, ConfigError) as exc:
        raise SchemaMismatchError(f"invalid checkpoint config: {exc}") from exc
    if config_to_text(config) != text:  # a repeated or unknown key, padding, a blank line
        raise SchemaMismatchError("checkpoint config is not the text its values write")
    return config


def save_checkpoint(params: dict[str, np.ndarray], config: ModelConfig, path: Path | str) -> None:
    _check_schema(params, config)
    names = [name for name, _, _ in parameter_schema(config)]
    for name in names:
        if not np.isfinite(params[name]).all():
            raise NumericError(f"refusing to save non-finite tensor {name!r}")
        if params[name].dtype != config.np_dtype:
            raise SchemaMismatchError(
                f"tensor {name!r} dtype {params[name].dtype} does not match precision {config.precision}"
            )
    payload = np.concatenate([params[name].ravel() for name in names])
    payload = payload.astype(payload.dtype.newbyteorder("<"), copy=False)
    frame.write(path, CKPT_MAGIC, CKPT_VERSION, config_to_text(config).encode("utf-8"), payload)


def load_checkpoint(
    path: Path | str, expect_config: ModelConfig | None = None
) -> tuple[dict[str, np.ndarray], ModelConfig]:
    blob, payload = frame.read(path, CKPT_MAGIC, CKPT_VERSION)
    try:
        with utf8_text(path):
            config = config_from_text(blob.decode("utf-8"))
    except SchemaMismatchError as exc:
        raise SchemaMismatchError(f"{path}: {exc}") from None
    if expect_config is not None and config != expect_config:  # name the first differing field
        lines = zip(config_to_text(config).splitlines(), config_to_text(expect_config).splitlines())
        got, want = next((a, b) for a, b in lines if a != b)
        raise SchemaMismatchError(f"{path}: checkpoint has {got}, expected {want}")
    schema = parameter_schema(config)
    sizes = [math.prod(shape) for _, shape, _ in schema]
    wire = np.dtype(config.np_dtype).newbyteorder("<")
    if len(payload) != sum(sizes) * wire.itemsize:
        raise FormatError(f"{path}: {len(payload)} bytes of parameters, {sum(sizes)} values in its config")
    flat = np.frombuffer(payload, dtype=wire).astype(config.np_dtype)
    params = {
        name: part.reshape(shape)
        for (name, shape, _), part in zip(schema, np.split(flat, np.cumsum(sizes)[:-1]))
    }
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise NumericError(f"{path}: tensor {name!r} contains non-finite values")
    return params, config
