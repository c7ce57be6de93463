"""Masked-reconstruction pretraining with an anti-collapse coding-rate term.

Per step, a batch of segments is patchified once; the full (unmasked) grid is
encoded without gradients as the target. K random mask plans each replace the
masked patch rows with a learned token; each masked grid is encoded and
decoded, and the loss combines

* the mean row-wise cosine similarity between the target grid and each
  decoded grid (averaged over rows, batch and the K views), and
* the total coding rate of the pooled decoded embeddings,
  0.5 * logdet(I + (d / (b * eps^2)) * Z Z^T), averaged over views,

as ``total = (1 - similarity) - tcr_weight * tcr``: maximize agreement while
keeping the embedding cloud from collapsing.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .autodiff import Tensor, backward, no_grad, zero_grads
from .errors import ConfigError, DataError, DegenerateMaskError, NumericError, UsageError
from .model import ModelConfig
from .signalio import Segment, round_half_up

_COS_FLOOR = 1e-12


@dataclass(frozen=True)
class MaskPlan:
    """Boolean row plan over the n patches; 1 = masked."""

    bits: np.ndarray = field(repr=False)
    n_masked: int

    def __post_init__(self) -> None:
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        object.__setattr__(self, "bits", bits)
        if bits.ndim != 1 or not np.isin(bits, (0, 1)).all():
            raise UsageError("mask bits must be a flat 0/1 array")
        if int(bits.sum()) != self.n_masked:
            raise UsageError("n_masked does not match the bit count")


@dataclass(frozen=True)
class SslConfig:
    mask_ratio: float = 0.5
    n_permutations: int = 24
    tcr_epsilon: float = 0.2
    tcr_weight: float = 1.0
    batch_size: int = 16
    learning_rate: float = 1e-4
    steps: int = 1000
    seed: int = 0
    masked_only: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.mask_ratio < 1.0):
            raise ConfigError("mask_ratio must lie strictly between 0 and 1")
        if self.n_permutations < 1:
            raise ConfigError("n_permutations must be >= 1")
        if self.tcr_epsilon <= 0:
            raise ConfigError("tcr_epsilon must be positive")
        if self.tcr_weight < 0:
            raise ConfigError("tcr_weight must be non-negative")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (coding rate needs a batch)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")


@dataclass(frozen=True)
class LossReport:
    step: int
    similarity_term: float
    tcr_term: float
    total: float


def sample_masks(n: int, mask_ratio: float, k: int, seed) -> list[MaskPlan]:
    """K independent plans, each masking exactly round(mask_ratio * n) rows."""
    if n < 2:
        raise UsageError("need at least 2 patches to mask")
    if not (0.0 < mask_ratio < 1.0):
        raise UsageError("mask_ratio must lie strictly between 0 and 1")
    if k < 1:
        raise UsageError("need at least one mask plan")
    n_masked = round_half_up(mask_ratio * n)
    if n_masked <= 0 or n_masked >= n:
        raise DegenerateMaskError(
            f"mask_ratio {mask_ratio} on {n} patches would mask {n_masked} rows"
        )
    rng = np.random.default_rng(seed)
    plans = []
    for _ in range(k):
        bits = np.zeros(n, dtype=np.uint8)
        bits[rng.choice(n, size=n_masked, replace=False)] = 1
        plans.append(MaskPlan(bits=bits, n_masked=n_masked))
    return plans


def apply_mask(patches: Tensor, plan: MaskPlan, mask_token: Tensor) -> Tensor:
    """Replace the masked rows of a (..., n, d) grid with the token.

    Composed as ``patches * (1 - bits) + token * bits`` so gradients flow to
    the token through masked rows and to the patches through visible rows.
    """
    if patches.shape[-2] != plan.bits.shape[0]:
        raise DataError(
            f"mask plan covers {plan.bits.shape[0]} rows, grid has {patches.shape[-2]}"
        )
    if mask_token.shape != (patches.shape[-1],):
        raise DataError("mask token width does not match the grid")
    bits = plan.bits.astype(patches.dtype)[:, None]
    return ad.add(ad.mul(patches, 1.0 - bits), ad.mul(mask_token, bits))


def _cos_rows(e_hat: Tensor, z: Tensor) -> Tensor:
    """Row-wise cosine similarity between two (..., n, d) grids -> (..., n)."""
    num = ad.tsum(ad.mul(e_hat, z), axis=-1)
    ne = ad.tsqrt(ad.tsum(ad.mul(e_hat, e_hat), axis=-1))
    nz = ad.tsqrt(ad.tsum(ad.mul(z, z), axis=-1))
    den = ad.clamp_min(ad.mul(ne, nz), _COS_FLOOR)
    return ad.div(num, den)


def similarity_loss(e_hat, z_list) -> float:
    """Mean cosine similarity between the target grid and each listed grid.

    Evaluates on arrays the same row-wise cosine the training graph uses.
    """
    if not z_list:
        raise UsageError("similarity_loss needs at least one reconstruction")
    target = Tensor(np.asarray(e_hat))
    acc = None
    for z in z_list:
        zt = Tensor(np.asarray(z, dtype=target.dtype))
        if zt.shape != target.shape:
            raise DataError(f"grid shape {zt.shape} does not match target {target.shape}")
        term = ad.tmean(_cos_rows(target, zt))
        acc = term if acc is None else ad.add(acc, term)
    return float(ad.mul(acc, 1.0 / len(z_list)).data)


def tcr_loss(z, epsilon: float):
    """Total coding rate of a (d, b) matrix whose columns are embeddings.

    A Tensor in gives a graph Tensor (training), an array a float (the
    dense-eigen oracle checks this form).
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    is_tensor = isinstance(z, Tensor)
    data = z.data if is_tensor else np.asarray(z)
    if data.ndim != 2:
        raise DataError(f"coding rate expects a (d, b) matrix, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise NumericError("coding rate received non-finite values")
    d, b = data.shape
    coeff = d / (b * epsilon * epsilon)
    zt = z if is_tensor else Tensor(data)
    gram = ad.matmul(zt, ad.transpose(zt))
    eye = Tensor(np.eye(d, dtype=data.dtype))
    val = ad.mul(ad.logdet_psd(ad.add(eye, ad.mul(gram, coeff))), 0.5)
    return val if is_tensor else float(val.data)


def _stack_segments(segments, config: ModelConfig) -> np.ndarray:
    if isinstance(segments, np.ndarray):
        arr = segments
    else:
        rows = [s.samples if isinstance(s, Segment) else np.asarray(s) for s in segments]
        arr = np.stack(rows) if rows else np.empty((0, config.input_len))
    arr = np.asarray(arr, dtype=config.np_dtype)
    if arr.ndim != 2 or arr.shape[1] != config.input_len:
        raise DataError(f"expected (N, {config.input_len}) segment samples, got {arr.shape}")
    return arr


def full_grid_target(batch: np.ndarray, params, config: ModelConfig) -> np.ndarray:
    """The constant reconstruction target: encoder output on the unmasked
    grid. Exposed so callers can pin the target while varying parameters
    (finite-difference probes, frozen/EMA target schemes)."""
    params_t = mdl._as_tensor_params(params)
    with no_grad():
        patches = mdl.stem_forward(Tensor(np.asarray(batch)), params_t, config)
        return mdl.encode_t(patches, params_t, config).data.copy()


def total_loss_graph(
    batch: np.ndarray,
    params_t: dict[str, Tensor],
    config: ModelConfig,
    ssl_config: SslConfig,
    seed,
    frozen_target: np.ndarray | None = None,
) -> tuple[Tensor, LossReport]:
    """Differentiable total loss on one batch; masks are drawn from ``seed``.

    The reconstruction target is treated as a constant. By default it is the
    current encoder's full-grid output; passing ``frozen_target`` substitutes
    a caller-supplied constant instead.
    """
    if batch.shape[0] < 2:
        raise UsageError("total loss needs a batch of at least 2 segments")
    plans = sample_masks(config.n_patches, ssl_config.mask_ratio, ssl_config.n_permutations, seed)
    x = Tensor(batch)
    patches = mdl.stem_forward(x, params_t, config)
    if frozen_target is None:
        with no_grad():
            target = mdl.encode_t(Tensor(patches.data), params_t, config)
        target = Tensor(target.data)  # constant target, no gradient path
    else:
        frozen = np.asarray(frozen_target)
        if frozen.shape != patches.data.shape:
            raise DataError(
                f"frozen target shape {frozen.shape} does not match the "
                f"patch grid {patches.data.shape}"
            )
        target = Tensor(frozen.astype(patches.dtype, copy=False))

    sim_terms = []
    tcr_terms = []
    for plan in plans:
        masked = apply_mask(patches, plan, params_t["mask_token"])
        latent = mdl.encode_t(masked, params_t, config)
        decoded = mdl.decode_t(latent, params_t, config)
        cos = _cos_rows(target, decoded)  # (B, n)
        if ssl_config.masked_only:
            w = plan.bits.astype(batch.dtype)
            cos = ad.div(ad.tsum(ad.mul(cos, w), axis=-1), float(w.sum()))
            sim_terms.append(ad.tmean(cos))
        else:
            sim_terms.append(ad.tmean(cos))
        pooled = mdl.pool_rows(decoded)  # (B, d)
        tcr_terms.append(tcr_loss(ad.transpose(pooled), ssl_config.tcr_epsilon))

    k = len(plans)
    sim = sim_terms[0]
    for t in sim_terms[1:]:
        sim = ad.add(sim, t)
    sim = ad.mul(sim, 1.0 / k)
    tcr = tcr_terms[0]
    for t in tcr_terms[1:]:
        tcr = ad.add(tcr, t)
    tcr = ad.mul(tcr, 1.0 / k)
    total = ad.sub(ad.sub(1.0, sim), ad.mul(tcr, ssl_config.tcr_weight))
    report = LossReport(
        step=0,
        similarity_term=float(sim.data),
        tcr_term=float(tcr.data),
        total=float(total.data),
    )
    return total, report


def total_loss(
    segments,
    params,
    config: ModelConfig,
    ssl_config: SslConfig,
    seed,
    frozen_target: np.ndarray | None = None,
) -> LossReport:
    """Loss values only (no graph); params are plain arrays."""
    batch = _stack_segments(segments, config)
    params_t = mdl._as_tensor_params(params)
    _, report = total_loss_graph(batch, params_t, config, ssl_config, seed, frozen_target)
    return report


class _Adam:
    """Adam-style moment estimates, bias-corrected, in the parameter dtype."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, params: dict[str, Tensor]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, tensor in params.items():
            g = tensor.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            tensor.data = tensor.data - self.lr * update


def train(
    segments,
    config: ModelConfig,
    ssl_config: SslConfig,
    log_path: Path | str | None = None,
    checkpoint_dir: Path | str | None = None,
) -> tuple[dict[str, np.ndarray], list[LossReport]]:
    """Seeded end-to-end pretraining loop.

    Everything random derives from ssl_config.seed through named SeedSequence
    children (init / batch order / per-step masks), so two runs with the same
    inputs agree bit-for-bit. A non-finite loss, or a NumericError raised
    inside a step (non-finite activations, a coding-rate matrix that is not
    positive definite), aborts with the step number, keeping the parameters
    from before the bad step; when checkpoint_dir is given they are saved
    there and the error names the file.
    """
    X = _stack_segments(segments, config)
    if X.shape[0] < 2:
        raise DataError("training needs at least 2 segments")
    ss = np.random.SeedSequence(ssl_config.seed)
    s_init, s_order, s_mask = ss.spawn(3)
    params_nd = mdl.init_parameters(config, s_init)
    params_t = {k: Tensor(v, requires_grad=True) for k, v in params_nd.items()}
    opt = _Adam(params_t, ssl_config.learning_rate)
    order_rng = np.random.default_rng(s_order)
    mask_rng = np.random.default_rng(s_mask)

    batch_size = min(ssl_config.batch_size, X.shape[0])
    order = order_rng.permutation(X.shape[0])
    cursor = 0
    reports: list[LossReport] = []
    log_fh = Path(log_path).open("w", encoding="utf-8") if log_path else None
    if log_fh:
        log_fh.write("step,similarity,tcr,total,wallclock_ms\n")
    try:
        for step in range(1, ssl_config.steps + 1):
            if cursor + batch_size > X.shape[0]:
                order = order_rng.permutation(X.shape[0])
                cursor = 0
            batch = X[np.sort(order[cursor:cursor + batch_size])]
            cursor += batch_size
            step_seed = int(mask_rng.integers(0, 2**63))
            t0 = time.perf_counter()
            try:
                loss, report = total_loss_graph(batch, params_t, config, ssl_config, step_seed)
                if not np.isfinite(report.total):
                    raise NumericError("non-finite loss")
                zero_grads(params_t)
                backward(loss)
            except NumericError as exc:
                # the optimizer has not run, so params_t still holds the pre-step values
                where = ""
                if checkpoint_dir is not None:
                    path = Path(checkpoint_dir) / "checkpoint_lastgood.psgm"
                    mdl.save_checkpoint({k: t.data for k, t in params_t.items()}, config, path)
                    where = f"; last good parameters saved to {path}"
                raise NumericError(f"{exc} at step {step}{where}") from exc
            opt.step(params_t)
            report = replace(report, step=step)
            reports.append(report)
            if log_fh:
                ms = (time.perf_counter() - t0) * 1000.0
                log_fh.write(
                    f"{step},{report.similarity_term:.6f},{report.tcr_term:.6f},"
                    f"{report.total:.6f},{ms:.1f}\n"
                )
    finally:
        if log_fh:
            log_fh.close()
    return {k: t.data for k, t in params_t.items()}, reports
