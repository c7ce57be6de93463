"""Masked-reconstruction pretraining with an anti-collapse coding-rate term.

Per step, a batch of B segments is patchified once; the full (unmasked) grid
is encoded without gradients as the target. K random mask plans each replace
the masked patch rows with a learned token, giving K masked copies of the
grid; all K views go through the encoder and decoder as one (K*B, n, d)
batch, and the loss combines

* the mean row-wise cosine similarity between the target grid and the
  decoded grids (one mean over the K views, the batch and the rows), and
* the total coding rate of each view's pooled decoded embeddings,
  0.5 * logdet(I + (d / (b * eps^2)) * Z Z^T), averaged over views and
  taken as one log-determinant node over the (K, d, B) stack of the Z,

as ``total = (1 - similarity) - tcr_weight * tcr``: maximize agreement while
keeping the embedding cloud from collapsing.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .autodiff import Tensor, backward, no_grad, zero_grads
from .errors import ConfigError, DataError, DegenerateMaskError, NumericError, UsageError
from .model import ModelConfig
from .signalio import round_half_up

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
    mask_ratio: float
    n_permutations: int
    tcr_epsilon: float
    tcr_weight: float
    batch_size: int
    learning_rate: float
    steps: int
    seed: int

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


def apply_mask(patches: Tensor, plans: list[MaskPlan], mask_token: Tensor) -> Tensor:
    """One masked copy of a (..., n, d) grid per plan -> (K, ..., n, d).

    View k replaces the rows plan k masks with the token. Composed as
    ``patches * (1 - bits) + token * bits`` so gradients flow to the token
    through masked rows and to the patches through visible rows.
    """
    n, d = patches.shape[-2:]
    bits = np.stack([plan.bits for plan in plans]).astype(patches.dtype)
    if bits.shape[1] != n:
        raise DataError(f"mask plan covers {bits.shape[1]} rows, grid has {n}")
    if mask_token.shape != (d,):
        raise DataError("mask token width does not match the grid")
    bits = bits.reshape((len(plans),) + (1,) * (patches.ndim - 2) + (n, 1))
    return ad.add(ad.mul(patches, 1.0 - bits), ad.mul(mask_token, bits))


def _cos_rows(e_hat: Tensor, z: Tensor) -> Tensor:
    """Row-wise cosine similarity between two (..., n, d) grids -> (..., n);
    the leading axes broadcast."""
    num = ad.tsum(ad.mul(e_hat, z), axis=-1)
    ne = ad.tsqrt(ad.tsum(ad.mul(e_hat, e_hat), axis=-1))
    nz = ad.tsqrt(ad.tsum(ad.mul(z, z), axis=-1))
    den = ad.clamp_min(ad.mul(ne, nz), _COS_FLOOR)
    return ad.div(num, den)


def similarity_loss(e_hat, z_list) -> float:
    """Mean cosine similarity between the target grid and each listed grid.

    Evaluates on arrays the same row-wise cosine the training graph uses:
    the listed grids are stacked into one array and share one mean.
    """
    if not z_list:
        raise UsageError("similarity_loss needs at least one reconstruction")
    target = Tensor(np.asarray(e_hat))
    for z in z_list:
        if np.shape(z) != target.shape:
            raise DataError(f"grid shape {np.shape(z)} does not match target {target.shape}")
    stacked = Tensor(np.stack([np.asarray(z, dtype=target.dtype) for z in z_list]))
    return float(ad.tmean(_cos_rows(target, stacked)).data)


def tcr_loss(z, epsilon: float):
    """Total coding rate of each (d, b) matrix, columns the embeddings, in a
    (..., d, b) stack -> (...).

    A Tensor in gives a graph Tensor (training); an array gives an array,
    and a float for one 2-D (d, b) matrix (the dense-eigen oracle checks
    this form).
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    is_tensor = isinstance(z, Tensor)
    zt = z if is_tensor else Tensor(np.asarray(z))
    data = zt.data
    if data.ndim < 2:
        raise DataError(f"coding rate expects (..., d, b) matrices, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise NumericError("coding rate received non-finite values")
    d, b = data.shape[-2:]
    scale = b * epsilon * epsilon  # a subnormal scale makes coeff inf; one that underflows to 0 does too
    coeff = d / scale if scale else math.inf
    gram = ad.matmul(zt, ad.swapaxes(zt, -1, -2))
    eye = Tensor(np.eye(d, dtype=data.dtype))
    val = ad.mul(ad.logdet_psd(ad.add(eye, ad.mul(gram, coeff))), 0.5)
    if is_tensor:
        return val
    return float(val.data) if data.ndim == 2 else val.data


def _stack_segments(segments, config: ModelConfig) -> np.ndarray:
    arr = np.asarray(segments, dtype=config.np_dtype)
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

    # all K views run as one (K*B, n, d) batch through the encoder and decoder
    k, (B, n, d) = len(plans), patches.shape
    masked = apply_mask(patches, plans, params_t["mask_token"])
    latent = mdl.encode_t(ad.reshape(masked, (k * B, n, d)), params_t, config)
    decoded = ad.reshape(mdl.decode_t(latent, params_t, config), (k, B, n, d))
    cos = _cos_rows(target, decoded)  # (K, B, n)
    sim = ad.tmean(cos)
    # each view's (d, B) matrix of pooled rows; one stacked logdet takes all K
    pooled = ad.swapaxes(mdl.pool_rows(decoded), -1, -2)  # (K, d, B)
    tcr = ad.tmean(tcr_loss(pooled, ssl_config.tcr_epsilon))
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
    """Adam-style moment estimates, bias-corrected, in the parameter dtype.

    The parameters are re-pointed to views into one contiguous buffer, with
    the moments as flat arrays beside it, so a step is a handful of
    whole-buffer ufuncs into preallocated scratch instead of a loop over
    tensors. The elementwise operations and their order are those of the
    per-tensor update, so the result is the same to the byte.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.flat = np.concatenate([t.data for t in params.values()], axis=None)
        start = 0
        for t in params.values():
            t.data = self.flat[start:start + t.data.size].reshape(t.data.shape)
            start += t.data.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.g = np.empty_like(self.flat)
        self.scratch = np.empty_like(self.flat)
        self.t = 0

    def gather(self, params: dict[str, Tensor]) -> None:
        """Copy every gradient into the flat buffer; a missing one reads as
        zero, so its moments stay 0 and its update is exactly 0.

        A finite loss can still have a non-finite gradient; Adam would write
        it into the parameters, so it counts as a failure of this step.
        """
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad for t in params.values()]
        np.concatenate(grads, axis=None, out=self.g)
        if not np.isfinite(self.g).all():
            name = next(
                k for k, t in params.items()
                if t.grad is not None and not np.isfinite(t.grad).all()
            )
            raise NumericError(f"non-finite gradient for {name!r}")

    def step(self) -> None:
        """Update the parameters in place from the gathered gradients.

        A non-finite update (an overflowing learning rate, say) fails the
        step before any parameter is written.
        """
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        g, s, m, v = self.g, self.scratch, self.m, self.v
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - self.beta2
        v += s
        # update = (m / b1c) / (sqrt(v / b2c) + eps), built in g and s
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            np.divide(v, b2c, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            np.divide(m, b1c, out=s)
            s /= g
            s *= self.lr
        if not np.isfinite(s).all():
            raise NumericError("non-finite parameter update")
        self.flat -= s


def train(
    segments,
    config: ModelConfig,
    ssl_config: SslConfig,
    log_path: Path | str | None = None,
    checkpoint_dir: Path | str | None = None,
) -> tuple[dict[str, np.ndarray], list[LossReport]]:
    """Seeded end-to-end pretraining loop over (N, input_len) segments.

    ``segments`` is an array or anything with a ``shape`` that returns a
    fresh array when indexed by a sorted int array, such as
    ``signalio.SignalRows``. Each step gathers its batch of rows from it and
    converts that batch alone to the model dtype, so memory follows the
    batch, not N.

    Everything random derives from ssl_config.seed through named SeedSequence
    children (init / batch order / per-step masks), so two runs with the same
    inputs agree bit-for-bit; BLAS runs at one thread throughout, so they
    agree whatever the environment's BLAS thread count. A non-finite loss,
    gradient or parameter update, or a NumericError raised inside a step (non-finite
    activations, a coding-rate matrix that is not positive definite), aborts
    with the step number, keeping the parameters from before the bad step;
    when checkpoint_dir is given they are saved there and the error names
    the file.
    """
    X = segments
    if len(X.shape) != 2 or X.shape[1] != config.input_len:
        raise DataError(f"expected (N, {config.input_len}) segment samples, got {X.shape}")
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
    mdl.keep_freed_arrays_in_heap()
    try:
        with ad.single_blas_thread(), np.errstate(over="ignore", invalid="ignore"):  # refused, not warned
            for step in range(1, ssl_config.steps + 1):
                if cursor + batch_size > X.shape[0]:
                    order = order_rng.permutation(X.shape[0])
                    cursor = 0
                batch = np.asarray(X[np.sort(order[cursor:cursor + batch_size])], dtype=config.np_dtype)
                cursor += batch_size
                step_seed = int(mask_rng.integers(0, 2**63))
                t0 = time.perf_counter()
                try:
                    loss, report = total_loss_graph(batch, params_t, config, ssl_config, step_seed)
                    if not np.isfinite(report.total):
                        raise NumericError("non-finite loss")
                    zero_grads(params_t)
                    backward(loss)
                    opt.gather(params_t)
                    opt.step()
                except NumericError as exc:
                    # the optimizer has not written params_t, so it holds the pre-step values
                    where = ""
                    if checkpoint_dir is not None:
                        path = Path(checkpoint_dir) / "checkpoint_lastgood.psgm"
                        mdl.save_checkpoint({k: t.data for k, t in params_t.items()}, config, path)
                        where = f"; last good parameters saved to {path}"
                    raise NumericError(f"{exc} at step {step}{where}") from exc
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
