"""Minimal reverse-mode automatic differentiation over numpy arrays.

The engine records a dynamic tape kept apart from the data: a ``Tensor``
holds its array and a grad node, or ``None`` for a constant. A node holds
its gradient, its parents' nodes and a vector-Jacobian-product closure.
``backward(root)`` walks the tape once in reverse topological order and
accumulates gradients into the leaves.

Design constraints that shaped this module:

* dtype discipline: all ops preserve the input dtype exactly, so the same
  graph runs in float32 for speed or float64 for finite-difference checks.
  Python-float scalars are lifted to the anchor tensor's dtype.
* fat nodes: at d = 32 a training step is bound by per-node dispatch, not
  arithmetic, so the model's hot paths are single nodes with hand-written
  VJPs. ``linear`` is matmul plus bias over all rows in one GEMM;
  ``attention`` holds the q/k/v projections, the scaled scores, the softmax,
  the value mix and the output projection; ``layer_norm`` takes its row
  statistics as GEMVs. The small ops (``add``, ``matmul``, ``softmax``, ...)
  remain for everything else.
* determinism: no op uses threads, unordered reductions or scatters, and
  no op writes over an array it was not handed (below). A GEMM's bytes can
  depend on how many threads BLAS splits it over, so training and inference
  run inside ``single_blas_thread()``, which sets the bundled OpenBLAS to
  one thread and restores the previous count on exit. Every BLAS/LAPACK
  call of ``train`` and ``embed`` is numpy's, so the pin covers them all.
* a node keeps what its VJP reads, and nothing else: each VJP captures at
  forward time the arrays and shapes its formula uses, never a ``Tensor``,
  so an intermediate array no VJP reads (a residual sum, the output of an
  output projection, a GELU input) is freed as soon as the model code
  drops it, not kept until ``backward``. GELU keeps its derivative rather
  than its input, built block by block beside its value.
* the hand-over rule: ops leave their operands as they were, unless the
  caller hands one over, ``gelu(a, overwrite_a=True)`` or
  ``add(a, b, overwrite_b=True)``, and then the op writes its output over
  that array instead of allocating one. A caller may hand over an array
  only if the op just before produced it and no VJP captured it; every
  ``linear`` and ``attention`` output meets both, since their VJPs read
  their inputs, not their outputs. ``layer_norm`` scales its own
  normalized array in place when it records no node.
* numpy is the only dependency: ``erf``/``erfc`` are this module's own
  float64 kernel (the cephes rational forms, in cache-sized blocks).
* every op here is validated against central finite differences in the
  test-suite before anything downstream relies on it. The exceptions are the
  erf kernels: the float64 ``erf``/``erfc`` are checked against ``math.erf``
  and ``math.erfc``, and the float32 GELU kernel's rational Phi against the
  float64 oracle (value and analytic derivative), because float32
  differences are too coarse to test it.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericError


class _GradMode(threading.local):
    """Whether ops record the tape, per thread: on until ``no_grad``."""

    enabled = True


_GRAD = _GradMode()

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class no_grad:
    """Context manager that suspends tape recording (inference mode) on the
    thread that enters it; other threads keep their own mode."""

    def __enter__(self) -> "no_grad":
        self._saved = _GRAD.enabled
        _GRAD.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _GRAD.enabled = self._saved
        return False


def grad_enabled() -> bool:
    return _GRAD.enabled


class OpenBlasThreads(NamedTuple):
    """The thread-count getter and setter of numpy's bundled OpenBLAS."""

    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def openblas_threads() -> OpenBlasThreads | None:
    """Numpy's bundled OpenBLAS thread controls, or None if it has none.

    Resolved on first use (not at import) and remembered. numpy wheels ship
    ``numpy.libs/libscipy_openblas64_*.so``; another BLAS build has no such
    library or symbols, and then nothing is pinned.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return OpenBlasThreads(get, set_)
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run BLAS at one thread inside the block; restore the count on exit.

    psgp's only parallelism is its own ``--threads`` pool: at d = 32 every
    GEMM is too small to gain from BLAS threads, and a GEMM split over
    several threads can round differently, so pinning keeps the output
    bytes independent of the environment's BLAS thread count. Every
    BLAS/LAPACK call of ``train`` and ``embed`` is numpy's, so this covers all.
    """
    blas = openblas_threads()
    if blas is None:
        yield
        return
    saved = blas.get()
    blas.set(1)
    try:
        yield
    finally:
        blas.set(saved)


class _Node:
    """One tape entry: the accumulated gradient, the parents' nodes (None
    for a constant parent) and the VJP, which maps this node's gradient to
    one gradient (or None) per parent. A leaf has no parents and no VJP."""

    __slots__ = ("grad", "parents", "vjp")

    def __init__(self, parents: tuple["_Node | None", ...] = (), vjp=None):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """An ndarray plus its grad node, or None for a constant."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.node = _Node() if requires_grad and _GRAD.enabled else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.node.grad = value

    @property
    def _vjp(self):
        """The node's VJP; perfbench's tracer replaces it to time backward."""
        return None if self.node is None else self.node.vjp

    @_vjp.setter
    def _vjp(self, vjp) -> None:
        self.node.vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def _lift(x, like: Tensor) -> Tensor:
    """Wrap a scalar/ndarray as a constant Tensor in the anchor's dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _binary_lift(a, b) -> tuple[Tensor, Tensor]:
    if isinstance(a, Tensor):
        return a, _lift(b, a)
    if isinstance(b, Tensor):
        return _lift(a, b), b
    raise TypeError("at least one operand must be a Tensor")


def _records(*parents: Tensor) -> bool:
    """Whether an op over these parents records a node: grads are on and a
    parent needs one."""
    return _GRAD.enabled and any(p.node is not None for p in parents)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op's output, recording it when ``_records(*parents)``.
    ``vjp`` must hold no Tensor, only what its formula reads."""
    out = Tensor(data)
    if _records(*parents):
        out.node = _Node(tuple(p.node for p in parents), vjp)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# --- elementwise arithmetic -----------------------------------------

def add(a, b, overwrite_b: bool = False) -> Tensor:
    """a + b; with ``overwrite_b`` the sum is written over ``b.data``, which
    the caller hands over under the module's hand-over rule and which must
    already have the sum's shape and dtype."""
    a, b = _binary_lift(a, b)
    data = np.add(a.data, b.data, out=b.data) if overwrite_b else a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _node(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _binary_lift(a, b)
    data = a.data - b.data
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _node(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _binary_lift(a, b)
    x, y = a.data, b.data
    data = x * y

    def vjp(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _node(data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _binary_lift(a, b)
    x, y = a.data, b.data
    data = x / y

    def vjp(g):
        return _unbroadcast(g / y, x.shape), _unbroadcast(-g * x / (y * y), y.shape)

    return _node(data, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g):
        return (-g,)

    return _node(-a.data, (a,), vjp)


# --- shape ops -------------------------------------------------------

def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape

    def vjp(g):
        return (g.reshape(old),)

    return _node(a.data.reshape(shape), (a,), vjp)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def vjp(g):
        return (np.swapaxes(g, ax1, ax2),)

    return _node(np.swapaxes(a.data, ax1, ax2), (a,), vjp)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _node(np.transpose(a.data, axes), (a,), vjp)


# --- reductions ------------------------------------------------------

def _norm_axis(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axis(axis, a.data.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.data.shape

    def vjp(g):
        gg = g
        if not keepdims:
            for ax in sorted(axes):
                gg = np.expand_dims(gg, ax)
        return (np.broadcast_to(gg, shape).copy(),)

    return _node(data, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axis(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# --- elementwise nonlinearities --------------------------------------

def texp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def vjp(g):
        return (g * data,)

    return _node(data, (a,), vjp)


def tlog(a: Tensor) -> Tensor:
    x = a.data

    def vjp(g):
        return (g / x,)

    return _node(np.log(x), (a,), vjp)


def tsqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def vjp(g):
        return (g * (0.5 / data),)

    return _node(data, (a,), vjp)


# float64 erf and erfc: the cephes rational forms (ndtr.c). |x| <= 1 takes
# erf(x) = x T(x^2) / U(x^2); beyond it erfc(|x|) = exp(-x^2) P(|x|) / Q(|x|)
# below 8 and exp(-x^2) R(|x|) / S(|x|) from 8 on, erf = 1 - erfc, and
# erfc(x) = 2 - erfc(-x) for x < 0. U, Q and S are monic (leading 1 omitted).
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERFC_UNDERFLOW = 7.09782712893383996843e2  # x^2 above log(DBL_MAX): erfc is 0
_ERFC_CLAMP = 27.0  # 27^2 > _ERFC_UNDERFLOW, and x^2 cannot overflow
# elements per block: the same bytes per block as the float32 GELU kernel
_ERF_BLOCK = 1 << 15


def _poly(x: np.ndarray, coef: tuple[float, ...], out: np.ndarray, monic: bool) -> np.ndarray:
    """Horner's rule into ``out``: sum c_i x^(n-i), with a leading 1 when monic."""
    if monic:
        np.add(x, coef[0], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[1 if monic else 2:]:
        out *= x
        out += c
    return out


def _erfc_ge1(v: np.ndarray) -> np.ndarray:
    """erfc of a 1-D array of values >= 1 (inf included)."""
    e = np.minimum(v, _ERFC_CLAMP)
    np.multiply(e, e, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    m = np.minimum(v, 8.0)
    y = _poly(m, _ERFC_P, np.empty_like(m), monic=False)
    y *= e
    y /= _poly(m, _ERFC_Q, np.empty_like(m), monic=True)
    tail = np.flatnonzero(v >= 8.0)
    if tail.size:
        t = np.minimum(v[tail], _ERFC_CLAMP)
        yt = _poly(t, _ERFC_R, np.empty_like(t), monic=False)
        yt *= e[tail]
        yt /= _poly(t, _ERFC_S, np.empty_like(t), monic=True)
        yt[t * t > _ERFC_UNDERFLOW] = 0.0
        y[tail] = yt
    return y


def _erf_f64_block(
    x: np.ndarray, out: np.ndarray, s: np.ndarray, z: np.ndarray, q: np.ndarray,
    complement: bool,
) -> None:
    """erf (or erfc) of one float64 block into ``out``; s, z, q are scratch.

    The small-|x| form runs over the whole block on x clamped to [-1, 1]
    (cheap, and no overflow on the elements it does not serve); the erfc form
    runs only on the elements beyond 1 and is scattered over them.
    """
    np.minimum(x, 1.0, out=s)
    np.maximum(s, -1.0, out=s)
    np.multiply(s, s, out=z)
    _poly(z, _ERF_T, out, monic=False)
    out *= s
    out /= _poly(z, _ERF_U, q, monic=True)
    if complement:
        np.subtract(1.0, out, out=out)
    np.abs(x, out=s)
    # cephes: erf takes its own form at |x| = 1, erfc the erfc form
    far = np.flatnonzero(s >= 1.0) if complement else np.flatnonzero(s > 1.0)
    if far.size:
        y = _erfc_ge1(s[far])
        negative = x[far] < 0.0
        if complement:
            out[far] = np.where(negative, 2.0 - y, y)
        else:
            np.subtract(1.0, y, out=y)
            out[far] = np.where(negative, -y, y)


def _erf_f64(x: np.ndarray, complement: bool = False) -> np.ndarray:
    """erf(x), or erfc(x) when ``complement``, in float64 over cache-sized
    blocks of the flat array; NaN stays NaN."""
    flat = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    n = flat.size
    out = np.empty_like(flat)
    m = min(n, _ERF_BLOCK)
    s, z, q = (np.empty(m) for _ in range(3))
    for start in range(0, n, _ERF_BLOCK):
        end = min(start + _ERF_BLOCK, n)
        k = end - start
        _erf_f64_block(flat[start:end], out[start:end], s[:k], z[:k], q[:k], complement)
    return out.reshape(np.shape(x))


def terf(a: Tensor) -> Tensor:
    """erf, evaluated in float64 and returned in the input's dtype."""
    x = a.data
    data = _erf_f64(x).astype(x.dtype, copy=False)
    two_over_sqrt_pi = 2.0 / math.sqrt(math.pi)

    def vjp(g):
        return (g * (two_over_sqrt_pi * np.exp(-x * x)),)

    return _node(data, (a,), vjp)


# float32 Phi(x) = 1/2 + erf(x / sqrt(2)) / 2 with erf(z) = z P(z^2) / Q(z^2),
# Eigen's float rational for |z| <= 4 (beyond it erf rounds to +-1 in float32),
# rescaled so P is monic and Q absorbs the 1/2. Over every float32 in
# [-12, 12] it is within 2.47e-7 of the float64 value.
_PHI_CLAMP = np.float32(4.0)
_PHI_SCALE = np.float32(_INV_SQRT2)
_PHI_P = tuple(np.float32(c) for c in (
    "-101.63377", "7706.9487", "208811.78", "2.696083e+06", "1.0838025e+07", "5.904326e+07",
))
_PHI_Q = tuple(np.float32(c) for c in (
    "106862.15", "1.5653919e+06", "1.2345848e+07", "5.40935e+07", "1.04651464e+08",
))
# elements per block: the block and its three scratch arrays stay in L2
_PHI_BLOCK = 1 << 16


def _phi_f32_block(
    x: np.ndarray, out: np.ndarray, z: np.ndarray, t: np.ndarray, q: np.ndarray
) -> None:
    """Phi of one float32 block into ``out``; z, t, q are scratch of its length."""
    np.multiply(x, _PHI_SCALE, out=z)
    # two ufuncs, not np.clip: clip runs Python-level wrappers on every call,
    # and each is one more GIL hand-off between embed workers
    np.minimum(z, _PHI_CLAMP, out=z)
    np.maximum(z, -_PHI_CLAMP, out=z)
    np.multiply(z, z, out=t)
    np.add(t, _PHI_P[0], out=out)
    for c in _PHI_P[1:]:
        out *= t
        out += c
    out *= z
    np.multiply(t, _PHI_Q[0], out=q)
    q += _PHI_Q[1]
    for c in _PHI_Q[2:]:
        q *= t
        q += c
    out /= q
    out += np.float32(0.5)


def _gelu_derivative(x: np.ndarray, phi: np.ndarray, out: np.ndarray) -> None:
    """d/dx x Phi(x) = Phi(x) + x * pdf(x) into ``out``, which holds nothing else."""
    np.multiply(x, x, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out *= _INV_SQRT2PI
    out *= x
    out += phi


def _gelu_f32(x: np.ndarray, out: np.ndarray, d: np.ndarray | None) -> None:
    """x * Phi(x) into ``out`` over the flat C-contiguous arrays, in
    cache-sized blocks, and the derivative into ``d`` when one is given.
    ``out`` may be ``x`` itself: each block's derivative is built before
    the block is overwritten."""
    flat, out, n = x.reshape(-1), out.reshape(-1), x.size
    d = None if d is None else d.reshape(-1)
    m = min(n, _PHI_BLOCK)
    phi, z, t, q = (np.empty(m, dtype=np.float32) for _ in range(4))
    for s in range(0, n, _PHI_BLOCK):
        e = min(s + _PHI_BLOCK, n)
        k = e - s
        _phi_f32_block(flat[s:e], phi[:k], z[:k], t[:k], q[:k])
        if d is not None:
            _gelu_derivative(flat[s:e], phi[:k], d[s:e])
        np.multiply(flat[s:e], phi[:k], out=out[s:e])


def gelu(a: Tensor, overwrite_a: bool = False) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF.

    float32 takes Phi from the rational kernel above. float64 takes
    Phi(x) = erfc(-x / sqrt(2)) / 2 from the cephes kernel, which
    keeps its relative accuracy in the negative tail, where
    (1 + erf(x / sqrt(2))) / 2 cancels to nothing below about x = -8.

    With ``overwrite_a`` the float32 value is written over ``a.data``, which
    the caller hands over under the module's hand-over rule; otherwise
    ``a.data`` is left as it was.

    A recorded node keeps only the derivative, built in the forward; the
    input and Phi are freed. Its VJP scales the derivative in place, which
    is safe because ``backward`` runs each node's VJP once.
    """
    x = a.data
    d = np.empty(x.shape, dtype=x.dtype) if _records(a) else None
    if x.dtype == np.float32:
        data = x if overwrite_a and x.flags.c_contiguous else np.empty(x.shape, dtype=x.dtype)
        _gelu_f32(np.ascontiguousarray(x), data, d)
    else:
        phi = _erf_f64(x * -_INV_SQRT2, complement=True)
        phi *= 0.5
        if d is not None:
            _gelu_derivative(x, phi, d)
        data = np.multiply(x, phi, out=phi)
    if d is None:
        return Tensor(data)

    def vjp(g):
        return (np.multiply(d, g, out=d),)

    return _node(data, (a,), vjp)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    data = np.maximum(a.data, np.asarray(floor, dtype=a.data.dtype))
    mask = a.data > floor

    def vjp(g):
        return (g * mask,)

    return _node(data, (a,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; the max shift is gradient-free because
    softmax is invariant to per-row constants, so this is exactly correct."""
    m = a.data.max(axis=axis, keepdims=True)
    z = np.exp(a.data - m)
    data = z / z.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _node(data, (a,), vjp)


# --- matrix ops ------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    data = np.matmul(x, y)

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(y, -1, -2)), x.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), y.shape)
        return ga, gb

    return _node(data, (a, b), vjp)


def _col_sum(a: np.ndarray) -> np.ndarray:
    """Column sums of a (rows, k) array as a GEMV against ones: over many
    short rows this is an order of magnitude faster than ``sum(axis=0)``."""
    return np.ones(a.shape[0], dtype=a.dtype) @ a


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine layer ``x @ w + b`` over the last axis of x, as one node.

    x is folded to (rows, k) so the forward and the weight gradient are one
    GEMM each over all rows, and the bias is added in place.
    """
    shape = x.data.shape
    w_data = w.data
    k, n = w_data.shape
    x2 = x.data.reshape(-1, k)
    out = x2 @ w_data
    out += b.data
    x_grad = x.requires_grad

    def vjp(g):
        g2 = g.reshape(-1, n)
        gx = (g2 @ w_data.T).reshape(shape) if x_grad else None
        return gx, x2.T @ g2, _col_sum(g2)

    return _node(out.reshape(shape[:-1] + (n,)), (x, w, b), vjp)


def _heads(qkv: np.ndarray, B: int, n: int, H: int, dh: int) -> tuple[np.ndarray, ...]:
    """(B*n, 3d) q|k|v rows -> three (B, H, n, dh) strided per-head views."""
    per_head = qkv.reshape(B, n, 3, H, dh)
    return tuple(per_head[:, :, c].transpose(0, 2, 1, 3) for c in range(3))


def attention(
    x: Tensor,
    wq: Tensor, bq: Tensor,
    wk: Tensor,
    wv: Tensor, bv: Tensor,
    wo: Tensor, bo: Tensor,
    n_heads: int,
) -> Tensor:
    """Multi-head self-attention over a (B, n, d) grid, as one node.

    The q/k/v projections are one GEMM against the (d, 3d) concatenation of
    their weights, and the heads are strided views of its output. ``bq`` and
    ``bv`` are added to their own columns; the keys have no bias, because
    q . b_k is one constant per query row, which the softmax cancels. Scores
    are scaled by 1/sqrt(d / n_heads) through q and stored key-major,
    ``p[j, b, h, i] = k_j . q_i``, so the softmax over keys reduces over the
    leading axis (far faster than over a short last axis). The softmax keeps
    its max shift, which is gradient-free because softmax ignores a per-row
    constant. The value mix feeds the output projection.
    """
    B, n, d = x.data.shape
    H = n_heads
    dh = d // H
    dtype = x.data.dtype
    x2 = x.data.reshape(B * n, d)
    w_qkv = np.concatenate((wq.data, wk.data, wv.data), axis=1)
    qkv = x2 @ w_qkv
    qkv[:, :d] += bq.data
    qkv[:, 2 * d:] += bv.data
    q, k, v = _heads(qkv, B, n, H, dh)
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=dtype)
    q *= scale
    p = np.empty((n, B, H, n), dtype=dtype)
    np.matmul(k, np.swapaxes(q, -1, -2), out=p.transpose(1, 2, 0, 3))
    p2 = p.reshape(n, -1)
    p2 -= p2.max(axis=0)
    np.exp(p2, out=p2)
    ones = np.ones(n, dtype=dtype)
    p2 /= ones @ p2
    mixed = np.empty((B, n, H, dh), dtype=dtype)
    np.matmul(p.transpose(1, 2, 3, 0), v, out=mixed.transpose(0, 2, 1, 3))
    mixed = mixed.reshape(B * n, d)
    wo_data = wo.data
    out = mixed @ wo_data
    out += bo.data
    x_grad = x.requires_grad

    def vjp(g):
        g2 = g.reshape(B * n, d)
        g_mixed = (g2 @ wo_data.T).reshape(B, n, H, dh).transpose(0, 2, 1, 3)
        g_qkv = np.empty((B * n, 3 * d), dtype=dtype)
        gq, gk, gv = _heads(g_qkv, B, n, H, dh)
        np.matmul(p.transpose(1, 2, 0, 3), g_mixed, out=gv)
        gs = np.empty_like(p)
        np.matmul(v, np.swapaxes(g_mixed, -1, -2), out=gs.transpose(1, 2, 0, 3))
        # softmax VJP over keys, in place: gs = p * (gp - sum_j gp * p)
        gs2 = gs.reshape(n, -1)
        gs2 -= ones @ (gs2 * p2)
        gs2 *= p2
        np.matmul(gs.transpose(1, 2, 3, 0), k, out=gq)
        gq *= scale
        np.matmul(gs.transpose(1, 2, 0, 3), q, out=gk)
        gw = x2.T @ g_qkv
        gb = _col_sum(g_qkv)
        gx = (g_qkv @ w_qkv.T).reshape(B, n, d) if x_grad else None
        return (
            gx,
            gw[:, :d], gb[:d],
            gw[:, d:2 * d],
            gw[:, 2 * d:], gb[2 * d:],
            mixed.T @ g2, _col_sum(g2),
        )

    return _node(out.reshape(B, n, d), (x, wq, bq, wk, wv, bv, wo, bo), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalization over the last axis with learned scale/offset.

    Row means are GEMVs against a 1/d vector in the input dtype, several
    times faster than ``mean(axis=-1)`` over short rows. x keeps its leading
    axes, so each (n, d) item is its own GEMV and a row's value does not
    depend on how many items share the batch. A row whose variance is not
    finite (a non-finite value, or one whose square overflows) raises.
    """
    d = x.data.shape[-1]
    dtype = x.data.dtype
    mean_w = np.full(d, 1.0 / d, dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # such a row is refused below
        xhat = x.data - (x.data @ mean_w)[..., None]
        inv = ((xhat * xhat) @ mean_w)[..., None]
    if not np.isfinite(inv).all():
        raise NumericError("non-finite activations: a layer_norm row's variance is not finite")
    inv += np.asarray(eps, dtype=dtype)
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    gamma_data = gamma.data
    # xhat is this op's own array: scaled in place unless the VJP keeps it
    out = xhat * gamma_data if _records(x, gamma, beta) else np.multiply(xhat, gamma_data, out=xhat)
    out += beta.data

    def vjp(g):
        gxhat = g * gamma_data
        gx = gxhat - (gxhat @ mean_w)[..., None]
        gx -= xhat * ((gxhat * xhat) @ mean_w)[..., None]
        gx *= inv
        return gx, _col_sum((g * xhat).reshape(-1, d)), _col_sum(g.reshape(-1, d))

    return _node(out, (x, gamma, beta), vjp)


def gather_windows(x: Tensor, kernel: int) -> Tensor:
    """Cut axis 1 into non-overlapping windows: (B, L, C) -> (B, L / kernel,
    kernel*C), a reshape. Window i covers input rows [i*kernel, (i+1)*kernel),
    flattened position-major; kernel must divide L."""
    B, L, C = x.data.shape

    def vjp(g):
        return (g.reshape(B, L, C),)

    return _node(x.data.reshape(B, L // kernel, kernel * C), (x,), vjp)


def logdet_psd(a: Tensor) -> Tensor:
    """log-determinant of each symmetric positive-definite matrix in a
    (..., n, n) stack -> (...), via one Cholesky over the stack.

    Gradient: d logdet(A) / dA = inv(A) (symmetric), from numpy's LAPACK.
    A factorization failure anywhere in the stack is reported with
    eigenvalue diagnostics rather than propagated silently.
    """
    mat = a.data
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        try:
            eig = np.linalg.eigvalsh(mat)
            detail = f"eigenvalue range [{eig.min():.3e}, {eig.max():.3e}]"
        except np.linalg.LinAlgError:
            detail = "eigenvalues unavailable"
        raise NumericError(f"matrix is not positive definite ({detail})") from None
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    data = np.asarray(2.0 * np.log(diag).sum(axis=-1), dtype=mat.dtype)

    def vjp(g):
        inv = np.linalg.inv(mat)
        inv = 0.5 * (inv + np.swapaxes(inv, -1, -2))
        return (g[..., None, None] * inv,)

    return _node(data, (a,), vjp)


# --- engine ----------------------------------------------------------

def _topological_order(root: _Node) -> list[_Node]:
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None:
                stack.append((parent, False))
    return order  # parents precede children


def backward(root: Tensor, grad: np.ndarray | None = None) -> None:
    """Accumulate d(root)/d(leaf) into every reachable leaf's ``.grad``."""
    if root.node is None:
        raise NumericError("backward called on a tensor with no recorded graph")
    if grad is None:
        grad = np.ones_like(root.data)
    root.grad = grad if root.grad is None else root.grad + grad
    for node in reversed(_topological_order(root.node)):
        if node.vjp is None or node.grad is None:
            continue
        grads = node.vjp(node.grad)
        for parent, g in zip(node.parents, grads):
            if parent is not None and g is not None:
                parent.grad = g if parent.grad is None else parent.grad + g
        # free intermediate state so long chains do not hoard memory
        node.grad = None
        node.vjp = None
        node.parents = ()


def zero_grads(params: dict[str, Tensor]) -> None:
    for t in params.values():
        t.grad = None
