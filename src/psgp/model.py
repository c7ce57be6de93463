"""Signal backbone: convolutional patch stem + transformer encoder/decoder.

A segment of m samples is downsampled by a stack of strided conv stages
(each followed by a pointwise residual block) into n patch embeddings of
width d, where n = m / prod(strides). The encoder and decoder are pre-norm
transformers sharing one learned absolute position table, applied at the
encoder input. Pooling is mean-over-patches followed by L2 normalization,
so every segment embedding lives on the unit sphere.

Checkpoint container (little-endian)::

    magic        4 bytes  b"PSGM"
    version      u32      currently 1
    config blob  u32 length + UTF-8 key=value lines
    tensor count u32
    per tensor:  u16 name length + UTF-8 name, u8 rank, rank * u64 dims,
                 u8 dtype (0=f32, 1=f64), raw row-major data
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DegenerateEmbeddingError,
    FormatError,
    NumericError,
    SchemaMismatchError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .signalio import Modality, Segment

CKPT_MAGIC = b"PSGM"
CKPT_VERSION = 1

# stem geometries for the two nominal rates (30 s windows)
_DEFAULT_STRIDES = {3750: (5, 5, 5), 300: (2, 5)}

_LN_EPS = 1e-5
_NORM_FLOOR = 1e-12
# target size of one embed tile's stage-0 stem activation: with the arrays
# derived from it, a tile's working set fits in a 2 MB L2 cache
_EMBED_TILE_BYTES = 1 << 20


@dataclass(frozen=True)
class ModelConfig:
    modality: Modality
    input_len: int
    embed_dim: int = 256
    encoder_depth: int = 4
    decoder_depth: int = 2
    n_heads: int = 4
    ffn_mult: int = 4
    stem_strides: tuple[int, ...] = ()
    stem_kernels: tuple[int, ...] = ()
    precision: str = "f32"

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
        kernels = tuple(int(k) for k in self.stem_kernels) or strides
        object.__setattr__(self, "stem_strides", strides)
        object.__setattr__(self, "stem_kernels", kernels)
        if len(kernels) != len(strides):
            raise ConfigError("stem_kernels and stem_strides must have equal length")
        if any(s < 1 for s in strides) or any(k < 1 for k in kernels):
            raise ConfigError("stem strides and kernels must be positive")
        if any(k < s for k, s in zip(kernels, strides)):
            raise ConfigError("each stem kernel must be >= its stride")
        prod = math.prod(strides)
        if self.input_len % prod != 0:
            raise ConfigError(
                f"input_len {self.input_len} is not divisible by stride product {prod}"
            )
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
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads

    @property
    def np_dtype(self):
        return np.float32 if self.precision == "f32" else np.float64

    def receptive_field(self) -> tuple[int, int]:
        """(field, jump): patch j sees input samples [j*jump, j*jump + field),
        clipped to the signal; field = 1 + sum_i (k_i - 1) * prod_{l<i} s_l."""
        field_, jump = 1, 1
        for k, s in zip(self.stem_kernels, self.stem_strides):
            field_ += (k - 1) * jump
            jump *= s
        return field_, jump


def default_model_config(modality: Modality, **overrides) -> ModelConfig:
    """Desk-friendly constructor: 30 s window at the modality's nominal rate."""
    input_len = int(round(30.0 * modality.nominal_rate_hz))
    return ModelConfig(modality=modality, input_len=input_len, **overrides)


# --- parameter schema and initialization -----------------------------

def parameter_schema(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Ordered (name, shape, init kind) triples; the order is the file order."""
    d = config.embed_dim
    schema: list[tuple[str, tuple[int, ...], str]] = []
    c_in = 1
    for i, k in enumerate(config.stem_kernels):
        schema.append((f"stem.{i}.conv.w", (k * c_in, d), "fanin_uniform"))
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
            for bias in ("bq", "bk", "bv", "bo"):
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
    return {k: (v if isinstance(v, Tensor) else Tensor(v)) for k, v in params.items()}


def stem_forward(x: Tensor, params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    """(B, m) samples -> (B, n, d) patch embeddings."""
    B = x.shape[0]
    h = ad.reshape(x, (B, config.input_len, 1))
    for i, (k, s) in enumerate(zip(config.stem_kernels, config.stem_strides)):
        h = ad.gather_windows(h, k, s)
        h = ad.gelu(ad.add(ad.matmul(h, params[f"stem.{i}.conv.w"]), params[f"stem.{i}.conv.b"]))
        inner = ad.gelu(ad.add(ad.matmul(h, params[f"stem.{i}.pw1.w"]), params[f"stem.{i}.pw1.b"]))
        h = ad.add(h, ad.add(ad.matmul(inner, params[f"stem.{i}.pw2.w"]), params[f"stem.{i}.pw2.b"]))
    return h


def _attention(x: Tensor, params: dict[str, Tensor], base: str, config: ModelConfig) -> Tensor:
    B, n, d = x.shape
    H, dh = config.n_heads, config.head_dim
    q = ad.add(ad.matmul(x, params[f"{base}.wq"]), params[f"{base}.bq"])
    k = ad.add(ad.matmul(x, params[f"{base}.wk"]), params[f"{base}.bk"])
    v = ad.add(ad.matmul(x, params[f"{base}.wv"]), params[f"{base}.bv"])
    q = ad.swapaxes(ad.reshape(q, (B, n, H, dh)), 1, 2)
    k = ad.swapaxes(ad.reshape(k, (B, n, H, dh)), 1, 2)
    v = ad.swapaxes(ad.reshape(v, (B, n, H, dh)), 1, 2)
    scores = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / math.sqrt(dh))
    attn = ad.softmax(scores, axis=-1)
    out = ad.matmul(attn, v)
    out = ad.reshape(ad.swapaxes(out, 1, 2), (B, n, d))
    return ad.add(ad.matmul(out, params[f"{base}.wo"]), params[f"{base}.bo"])


def _ffn(x: Tensor, params: dict[str, Tensor], base: str) -> Tensor:
    inner = ad.gelu(ad.add(ad.matmul(x, params[f"{base}.w1"]), params[f"{base}.b1"]))
    return ad.add(ad.matmul(inner, params[f"{base}.w2"]), params[f"{base}.b2"])


def _transformer(
    h: Tensor, params: dict[str, Tensor], config: ModelConfig, prefix: str, depth: int
) -> Tensor:
    for layer in range(depth):
        base = f"{prefix}.{layer}"
        normed = ad.layer_norm(h, params[f"{base}.ln1.g"], params[f"{base}.ln1.b"], _LN_EPS)
        h = ad.add(h, _attention(normed, params, f"{base}.attn", config))
        normed = ad.layer_norm(h, params[f"{base}.ln2.g"], params[f"{base}.ln2.b"], _LN_EPS)
        h = ad.add(h, _ffn(normed, params, f"{base}.ffn"))
    h = ad.layer_norm(h, params[f"{prefix}.ln_f.g"], params[f"{prefix}.ln_f.b"], _LN_EPS)
    if not np.isfinite(h.data).all():
        raise NumericError(f"non-finite activations leaving the {prefix} transformer")
    return h


def encode_t(
    patches: Tensor, params: dict[str, Tensor], config: ModelConfig, use_positions: bool = True
) -> Tensor:
    h = ad.add(patches, params["pos_embed"]) if use_positions else patches
    return _transformer(h, params, config, "enc", config.encoder_depth)


def decode_t(latent: Tensor, params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    return _transformer(latent, params, config, "dec", config.decoder_depth)


def pool_rows(t: Tensor) -> Tensor:
    """(..., n, d) -> (..., d): mean over patch rows, then unit L2 norm."""
    m = ad.tmean(t, axis=-2)
    norm = ad.tsqrt(ad.tsum(ad.mul(m, m), axis=-1, keepdims=True))
    return ad.div(m, ad.clamp_min(norm, _NORM_FLOOR))


# --- public ndarray-facing wrappers ----------------------------------

def _coerce_batch(segment, config: ModelConfig) -> tuple[np.ndarray, bool]:
    if isinstance(segment, Segment):
        segment = segment.samples
    arr = np.asarray(segment, dtype=config.np_dtype)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != config.input_len:
        raise DataError(
            f"segment batch has shape {arr.shape}, expected (*, {config.input_len})"
        )
    return arr, single


def patchify(segment, params, config: ModelConfig) -> np.ndarray:
    """Segment samples (m,) or (B, m) -> patch grid (n, d) or (B, n, d)."""
    arr, single = _coerce_batch(segment, config)
    with no_grad():
        out = stem_forward(Tensor(arr), _as_tensor_params(params), config).data
    return out[0] if single else out


def _grid_batch(grid, config: ModelConfig) -> tuple[np.ndarray, bool]:
    arr = np.asarray(grid, dtype=config.np_dtype)
    single = arr.ndim == 2
    if single:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[-2:] != (config.n_patches, config.embed_dim):
        raise DataError(
            f"patch grid has shape {arr.shape}, expected (*, {config.n_patches}, {config.embed_dim})"
        )
    return arr, single


def encode(patches, params, config: ModelConfig, use_positions: bool = True) -> np.ndarray:
    arr, single = _grid_batch(patches, config)
    with no_grad():
        out = encode_t(Tensor(arr), _as_tensor_params(params), config, use_positions).data
    return out[0] if single else out


def decode(latent, params, config: ModelConfig) -> np.ndarray:
    arr, single = _grid_batch(latent, config)
    with no_grad():
        out = decode_t(Tensor(arr), _as_tensor_params(params), config).data
    return out[0] if single else out


def pool_segment(grid: np.ndarray) -> np.ndarray:
    """Encoded grid (n, d) -> unit-norm segment embedding (d,)."""
    arr = np.asarray(grid)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    if arr.ndim != 2:
        raise DataError(f"pool_segment expects a 2-D grid, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError("pool_segment received non-finite values")
    with no_grad():
        pooled = pool_rows(Tensor(arr)).data
    # pool_rows divides by max(|mean|, floor): a (near-)zero mean comes back short
    if abs(float(np.linalg.norm(pooled)) - 1.0) > 1e-3:
        raise DegenerateEmbeddingError("mean patch embedding has (near-)zero norm")
    return pooled


def embed_segments(
    X: np.ndarray, params, config: ModelConfig, batch_size: int = 256
) -> np.ndarray:
    """Embed (N, m) segment samples -> (N, d) unit-norm embeddings.

    Rows go through the model in tiles. The tile size comes from the stem's
    stage-0 activation (rows x d x itemsize per segment), the largest array
    of the forward pass, so that a tile's activations stay in cache;
    ``batch_size`` is an upper bound on the tile. Every segment is computed
    independently of the others in its tile, so the output does not depend
    on the tiling or on how callers schedule their chunks.
    """
    X = np.asarray(X, dtype=config.np_dtype)
    if X.ndim != 2 or X.shape[1] != config.input_len:
        raise DataError(f"expected (N, {config.input_len}) samples, got {X.shape}")
    stage0_bytes = config.input_len // config.stem_strides[0] * config.embed_dim * X.itemsize
    tile = max(1, min(batch_size, _EMBED_TILE_BYTES // stage0_bytes))
    tp = _as_tensor_params(params)
    out = np.empty((X.shape[0], config.embed_dim), dtype=config.np_dtype)
    with no_grad():
        for start in range(0, X.shape[0], tile):
            chunk = Tensor(X[start:start + tile])
            enc = encode_t(stem_forward(chunk, tp, config), tp, config)
            out[start:start + enc.shape[0]] = pool_rows(enc).data
    return out


# --- checkpoint container ---------------------------------------------

_CONFIG_KEYS = (
    "modality",
    "input_len",
    "embed_dim",
    "encoder_depth",
    "decoder_depth",
    "n_heads",
    "ffn_mult",
    "stem_strides",
    "stem_kernels",
    "precision",
)


def config_to_text(config: ModelConfig) -> str:
    values = {
        "modality": config.modality.name,
        "input_len": config.input_len,
        "embed_dim": config.embed_dim,
        "encoder_depth": config.encoder_depth,
        "decoder_depth": config.decoder_depth,
        "n_heads": config.n_heads,
        "ffn_mult": config.ffn_mult,
        "stem_strides": ",".join(str(s) for s in config.stem_strides),
        "stem_kernels": ",".join(str(k) for k in config.stem_kernels),
        "precision": config.precision,
    }
    return "".join(f"{k}={values[k]}\n" for k in _CONFIG_KEYS)


def config_from_text(text: str) -> ModelConfig:
    kv: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaMismatchError(f"malformed config line {line!r}")
        key, _, value = line.partition("=")
        kv[key] = value
    missing = [k for k in _CONFIG_KEYS if k not in kv]
    if missing:
        raise SchemaMismatchError(f"checkpoint config missing keys {missing}")
    try:
        return ModelConfig(
            modality=Modality.parse(kv["modality"]),
            input_len=int(kv["input_len"]),
            embed_dim=int(kv["embed_dim"]),
            encoder_depth=int(kv["encoder_depth"]),
            decoder_depth=int(kv["decoder_depth"]),
            n_heads=int(kv["n_heads"]),
            ffn_mult=int(kv["ffn_mult"]),
            stem_strides=tuple(int(s) for s in kv["stem_strides"].split(",") if s),
            stem_kernels=tuple(int(k) for k in kv["stem_kernels"].split(",") if k),
            precision=kv["precision"],
        )
    except (ValueError, ConfigError) as exc:
        raise SchemaMismatchError(f"invalid checkpoint config: {exc}") from exc


def save_checkpoint(params: dict[str, np.ndarray], config: ModelConfig, path: Path | str) -> None:
    _check_schema(params, config)
    parts: list[bytes] = [CKPT_MAGIC, struct.pack("<I", CKPT_VERSION)]
    cfg = config_to_text(config).encode("utf-8")
    parts.append(struct.pack("<I", len(cfg)))
    parts.append(cfg)
    schema = parameter_schema(config)
    parts.append(struct.pack("<I", len(schema)))
    for name, _, _ in schema:
        arr = np.ascontiguousarray(params[name])
        if not np.isfinite(arr).all():
            raise NumericError(f"refusing to save non-finite tensor {name!r}")
        if arr.dtype == np.float32:
            tag, wire = 0, "<f4"
        elif arr.dtype == np.float64:
            tag, wire = 1, "<f8"
        else:
            raise SchemaMismatchError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(struct.pack("<B", tag))
        parts.append(arr.astype(wire, copy=False).tobytes())
    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, origin: str):
        self.blob = blob
        self.off = 0
        self.origin = origin

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise TruncatedPayloadError(f"{self.origin}: truncated at byte {self.off}")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))


def load_checkpoint(
    path: Path | str, expect_config: ModelConfig | None = None
) -> tuple[dict[str, np.ndarray], ModelConfig]:
    origin = str(path)
    rd = _Reader(Path(path).read_bytes(), origin)
    if rd.take(4) != CKPT_MAGIC:
        raise BadMagicError(f"{origin}: not a model checkpoint")
    (version,) = rd.unpack("<I")
    if version != CKPT_VERSION:
        raise VersionMismatchError(f"{origin}: unsupported checkpoint version {version}")
    (cfg_len,) = rd.unpack("<I")
    try:
        config = config_from_text(rd.take(cfg_len).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{origin}: config blob is not UTF-8") from exc
    (count,) = rd.unpack("<I")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = rd.unpack("<H")
        name = rd.take(name_len).decode("utf-8")
        (rank,) = rd.unpack("<B")
        shape = rd.unpack(f"<{rank}Q") if rank else ()
        (tag,) = rd.unpack("<B")
        if tag == 0:
            wire, dtype = "<f4", np.float32
        elif tag == 1:
            wire, dtype = "<f8", np.float64
        else:
            raise FormatError(f"{origin}: tensor {name!r} has unknown dtype tag {tag}")
        n_items = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = rd.take(n_items * np.dtype(wire).itemsize)
        params[name] = np.frombuffer(raw, dtype=wire).astype(dtype, copy=False).reshape(shape).copy()
    if rd.off != len(rd.blob):
        raise FormatError(f"{origin}: {len(rd.blob) - rd.off} trailing bytes")
    _check_schema(params, config)
    for name, arr in params.items():
        if arr.dtype != config.np_dtype:
            raise SchemaMismatchError(
                f"{origin}: tensor {name!r} dtype {arr.dtype} does not match precision {config.precision}"
            )
        if not np.isfinite(arr).all():
            raise NumericError(f"{origin}: tensor {name!r} contains non-finite values")
    if expect_config is not None and config != expect_config:
        raise SchemaMismatchError(
            f"{origin}: checkpoint config does not match the expected config"
        )
    return params, config
