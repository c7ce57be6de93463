"""Reverse-mode tape: every operator's gradient is checked against central
finite differences in float64, plus closed-form spot checks; the float64
erf/erfc kernel is checked against ``math.erf``/``math.erfc``, and the
float32 GELU kernel against the float64 scipy oracle."""
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from psgp import autodiff as ad
from psgp.autodiff import Tensor
from psgp.errors import NumericError


def numerical_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn at x (float64)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x)
        flat[i] = orig - h
        fm = fn(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def check_op(build, x: np.ndarray, rtol: float = 1e-6, atol: float = 1e-8):
    """Compare tape gradient of sum(build(x)) against finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = ad.tsum(build(t))
    ad.backward(out)
    analytic = t.grad.copy()

    def scalar(arr):
        return float(ad.tsum(build(Tensor(arr))).data)

    numeric = numerical_grad(scalar, x.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


class TestElementwiseGrads:
    def setup_method(self):
        self.rng = np.random.default_rng(101)

    def x(self, *shape):
        return self.rng.standard_normal(shape)

    def test_add_sub_mul_div(self):
        b = Tensor(self.x(3, 4))
        check_op(lambda t: ad.add(t, b), self.x(3, 4))
        check_op(lambda t: ad.sub(b, t), self.x(3, 4))
        check_op(lambda t: ad.mul(t, b), self.x(3, 4))
        check_op(lambda t: ad.div(t, ad.add(ad.mul(b, b), 1.0)), self.x(3, 4))

    def test_broadcasting_binary(self):
        row = Tensor(self.x(1, 4))
        check_op(lambda t: ad.mul(t, row), self.x(3, 4))
        col = Tensor(self.x(3, 1))
        check_op(lambda t: ad.add(t, col), self.x(3, 4))
        scalar = Tensor(np.float64(1.7))
        check_op(lambda t: ad.mul(t, scalar), self.x(2, 5))

    def test_broadcast_grad_flows_to_small_side(self):
        big = Tensor(self.x(3, 4))
        small = Tensor(self.x(4), requires_grad=True)
        out = ad.tsum(ad.mul(big, small))
        ad.backward(out)
        np.testing.assert_allclose(small.grad, big.data.sum(axis=0), rtol=1e-12)

    def test_neg_exp_log_sqrt_erf(self):
        check_op(ad.neg, self.x(5))
        check_op(ad.texp, self.x(5))
        check_op(ad.tlog, np.abs(self.x(5)) + 0.5)
        check_op(ad.tsqrt, np.abs(self.x(5)) + 0.5)
        check_op(ad.terf, self.x(5))

    def test_gelu_matches_definition(self):
        x = np.linspace(-4, 4, 41)
        from scipy.special import erf as sp_erf

        got = ad.gelu(Tensor(x)).data
        want = 0.5 * x * (1.0 + sp_erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
        check_op(ad.gelu, self.x(7))

    def test_clamp_min(self):
        x = np.array([-2.0, -0.5, 0.3, 1.5])
        out = ad.clamp_min(Tensor(x), 0.0)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.3, 1.5])
        # gradient passes only where the input was above the floor
        check_op(lambda t: ad.clamp_min(t, 0.0), self.x(9) + 2.0)


def phi_f64(x: np.ndarray) -> np.ndarray:
    """Reference Phi(x) = 0.5 * (1 + erf(x / sqrt(2))) in float64 (scipy)."""
    from scipy.special import erf as sp_erf

    return 0.5 * (1.0 + sp_erf(np.asarray(x, dtype=np.float64) / np.sqrt(2.0)))


def float32_range(lo: float, hi: float) -> np.ndarray:
    """Every float32 in [lo, hi), for 0 < lo < hi."""
    a, b = np.array([lo, hi], dtype=np.float32).view(np.int32)
    return np.arange(a, b, dtype=np.int32).view(np.float32)


class TestGeluF32Kernel:
    """The float32 GELU path evaluates Phi with a rational approximation; it
    is checked against the float64 scipy oracle, not finite differences."""

    PHI_ATOL = 2.5e-7

    def phi(self, x: np.ndarray) -> np.ndarray:
        """Phi from the float32 block kernel, the whole array as one block."""
        x = np.ascontiguousarray(x, dtype=np.float32)
        out, z, t, q = (np.empty_like(x) for _ in range(4))
        ad._phi_f32_block(x, out, z, t, q)
        return out

    def test_phi_dense_grid(self):
        # every float32 with 4 <= |x| < 8, where the error peaks, plus an even grid
        tail = float32_range(4.0, 8.0)
        grid = np.linspace(-12.0, 12.0, 4_000_001).astype(np.float32)
        worst = 0.0
        for part in (tail, -tail, grid):
            for start in range(0, part.size, 1 << 21):
                x = part[start:start + (1 << 21)]
                worst = max(worst, float(np.abs(self.phi(x) - phi_f64(x)).max()))
        assert 2 * tail.size + grid.size >= 10_000_000
        assert worst <= self.PHI_ATOL

    def test_phi_special_values(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        x = np.array(
            [0.0, -0.0, tiny, -tiny, 1e-39, -1e-39, np.inf, -np.inf, 12.0, -12.0],
            dtype=np.float32,
        )
        phi = self.phi(x)
        np.testing.assert_allclose(phi, phi_f64(x), rtol=0, atol=self.PHI_ATOL)
        assert phi[0] == phi[1] == np.float32(0.5)
        nan = np.array([np.nan, 1.0, np.nan], dtype=np.float32)
        assert np.isnan(self.phi(nan)[[0, 2]]).all()
        assert np.isnan(ad.gelu(Tensor(nan)).data[[0, 2]]).all()
        np.testing.assert_array_equal(ad.gelu(Tensor(x[:6])).data, x[:6] * np.float32(0.5))

    def test_block_edges(self):
        block = ad._PHI_BLOCK
        rng = np.random.default_rng(12)
        whole = (3.0 * rng.standard_normal(block + 1)).astype(np.float32)
        reference = ad.gelu(Tensor(whole)).data
        for n in (0, 1, block - 1, block, block + 1):
            x = whole[:n]
            got = ad.gelu(Tensor(x)).data
            assert got.shape == x.shape and got.dtype == np.float32
            # elementwise: a value never depends on its block or neighbours
            np.testing.assert_array_equal(got, reference[:n])
            np.testing.assert_array_equal(got, x * self.phi(x))
        view = whole[:30].reshape(2, 3, 5).transpose(2, 0, 1)  # non-contiguous
        expected = reference[:30].reshape(2, 3, 5).transpose(2, 0, 1)
        np.testing.assert_array_equal(ad.gelu(Tensor(view)).data, expected)

    BLOCKS = (999, 1 << 10, 1 << 15, 1 << 16, 1 << 18)

    @staticmethod
    def block_test_input() -> np.ndarray:
        rng = np.random.default_rng(14)
        x = (6.0 * rng.standard_normal(3 * (1 << 16) + 12_345)).astype(np.float32)
        x[:6] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 40.0]
        return x

    def test_bytes_do_not_depend_on_block_size(self, monkeypatch):
        """Value and derivative bytes are the same at every block size, over a
        length that is a multiple of none of them, clamped tails and specials
        included, and equal to x * Phi and Phi + x * pdf over the whole array."""
        x = self.block_test_input()
        assert all(x.size % b for b in self.BLOCKS)
        runs = []
        with np.errstate(invalid="ignore"):  # the derivative at +-inf is inf * 0
            for block in self.BLOCKS:
                monkeypatch.setattr(ad, "_PHI_BLOCK", block)
                value, d, alone = (np.empty_like(x) for _ in range(3))
                ad._gelu_f32(x, value, d)
                ad._gelu_f32(x, alone, None)
                runs.append((value.tobytes(), d.tobytes(), alone.tobytes()))
            phi = self.phi(x)
            d = np.empty_like(x)
            ad._gelu_derivative(x, phi, d)
        assert runs[0][0] == runs[0][2]
        assert all(run == runs[0] for run in runs[1:])
        assert runs[0][:2] == ((x * phi).tobytes(), d.tobytes())

    def test_vjp_matches_analytic_derivative(self):
        x = np.linspace(-12.0, 12.0, 200_001).astype(np.float32)
        g = np.random.default_rng(13).uniform(-1.0, 1.0, x.shape).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        ad.backward(ad.gelu(t), g)
        assert t.grad.dtype == np.float32
        xd = x.astype(np.float64)
        dphi = phi_f64(xd) + xd * np.exp(-0.5 * xd * xd) / np.sqrt(2.0 * np.pi)
        eps = float(np.finfo(np.float32).eps)
        np.testing.assert_allclose(t.grad, g * dphi, rtol=0, atol=4 * eps)


def math_oracle(fn, x: np.ndarray) -> np.ndarray:
    return np.array([fn(float(v)) for v in np.ravel(x)]).reshape(np.shape(x))


class TestErfF64Kernel:
    """The float64 erf/erfc kernel (cephes rational forms) against the C
    library's ``math.erf``/``math.erfc``."""

    def erf(self, x):
        return ad._erf_f64(np.asarray(x, dtype=np.float64))

    def erfc(self, x):
        return ad._erf_f64(np.asarray(x, dtype=np.float64), complement=True)

    def check(self, x: np.ndarray) -> None:
        got, want = self.erf(x), math_oracle(math.erf, x)
        assert (np.abs(got - want) <= 4 * np.spacing(np.abs(want))).all()
        got, want = self.erfc(x), math_oracle(math.erfc, x)
        # exp(-x^2) carries the rounding of x^2, a relative x^2 * 2^-53,
        # so the far tail gets a wider relative bound
        near = np.abs(x) < 8.0
        np.testing.assert_allclose(got[near], want[near], rtol=1e-14, atol=0)
        # beyond x^2 = log(DBL_MAX) cephes flushes to 0; the true value is
        # below 1.2e-310 there
        under = x * x > ad._ERFC_UNDERFLOW
        assert (got[under & (x > 0)] == 0.0).all() and (got[under & (x < 0)] == 2.0).all()
        assert (want[under & (x > 0)] < 1.2e-310).all()
        far = ~near & ~under
        np.testing.assert_allclose(got[far], want[far], rtol=1e-13, atol=0)

    def test_dense_grid(self):
        x = np.linspace(-30.0, 30.0, 600_001)
        self.check(x)

    def test_branch_edges(self):
        edges = np.array([1.0, 6.0, 8.0, math.sqrt(ad._ERFC_UNDERFLOW), ad._ERFC_CLAMP])
        around = np.concatenate(
            [np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)]
        )
        self.check(np.concatenate([around, -around]))

    def test_special_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        sub = np.array([tiny, 7 * tiny, 1e-310, 2.2e-308])
        x = np.concatenate([sub, -sub])
        self.check(x)
        np.testing.assert_array_equal(self.erfc(x), 1.0)
        zero = self.erf([0.0, -0.0])
        assert zero.tolist() == [0.0, 0.0] and np.signbit(zero).tolist() == [False, True]
        np.testing.assert_array_equal(self.erfc([0.0, -0.0]), [1.0, 1.0])
        inf = [np.inf, -np.inf, 1e300, -1e300]
        np.testing.assert_array_equal(self.erf(inf), [1.0, -1.0, 1.0, -1.0])
        np.testing.assert_array_equal(self.erfc(inf), [0.0, 2.0, 0.0, 2.0])
        nan = np.array([np.nan, 0.5, np.nan, 9.0])
        for got in (self.erf(nan), self.erfc(nan)):
            assert np.isnan(got[[0, 2]]).all() and np.isfinite(got[[1, 3]]).all()

    def test_bytes_do_not_depend_on_block_size(self, monkeypatch):
        rng = np.random.default_rng(15)
        x = 5.0 * rng.standard_normal(3 * (1 << 15) + 12_345)
        x[:6] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 40.0]
        blocks = (999, 1 << 10, 1 << 15, 1 << 17)
        runs = []
        for block in blocks:
            monkeypatch.setattr(ad, "_ERF_BLOCK", block)
            runs.append((self.erf(x).tobytes(), self.erfc(x).tobytes()))
        assert all(run == runs[0] for run in runs[1:])
        shaped = x[:30].reshape(2, 3, 5).transpose(2, 0, 1)  # non-contiguous
        expected = self.erf(x[:30]).reshape(2, 3, 5).transpose(2, 0, 1)
        np.testing.assert_array_equal(self.erf(shaped), expected)

    def test_terf_keeps_dtype(self):
        x = np.linspace(-3.0, 3.0, 13)
        assert ad.terf(Tensor(x)).data.dtype == np.float64
        got = ad.terf(Tensor(x.astype(np.float32))).data
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, self.erf(x.astype(np.float32)).astype(np.float32))

    def test_gelu_f64_negative_tail(self):
        """Phi(x) = erfc(-x / sqrt(2)) / 2 keeps its relative accuracy where
        (1 + erf(x / sqrt(2))) / 2 cancels to zero, below about x = -8."""
        x = -np.geomspace(8.0, 37.0, 2_001)
        t = Tensor(x, requires_grad=True)
        out = ad.gelu(t)
        a = x * -(1.0 / math.sqrt(2.0))
        phi = 0.5 * math_oracle(math.erfc, a)
        assert (out.data < 0.0).all()
        np.testing.assert_allclose(out.data, x * phi, rtol=1e-13, atol=0)
        ad.backward(out, np.ones_like(x))
        dphi = phi + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(t.grad, dphi, rtol=1e-12, atol=0)


class TestShapeOps:
    def setup_method(self):
        self.rng = np.random.default_rng(77)

    def test_reshape_swapaxes_transpose(self):
        x = self.rng.standard_normal((2, 3, 4))
        w = Tensor(self.rng.standard_normal((2, 3, 4)))
        check_op(lambda t: ad.mul(ad.reshape(t, (6, 4)), ad.reshape(w, (6, 4))), x.copy())
        check_op(lambda t: ad.mul(ad.swapaxes(t, 0, 2), ad.swapaxes(w, 0, 2)), x.copy())
        check_op(lambda t: ad.mul(ad.transpose(t, (2, 0, 1)), ad.transpose(w, (2, 0, 1))), x.copy())

    def test_sum_mean_axes(self):
        x = self.rng.standard_normal((3, 4, 2))
        w = Tensor(self.rng.standard_normal((3, 1, 2)))
        check_op(lambda t: ad.mul(ad.tsum(t, axis=1, keepdims=True), w), x.copy())
        check_op(lambda t: ad.tmean(t, axis=(0, 2)), x.copy())
        out = ad.tmean(Tensor(x, requires_grad=False))
        assert out.data.shape == ()


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6)) * 3
        s = ad.softmax(Tensor(x)).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 5))
        a = ad.softmax(Tensor(x)).data
        b = ad.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.standard_normal((3, 5)))
        check_op(lambda t: ad.mul(ad.softmax(t), w), rng.standard_normal((3, 5)))


class TestMatmul:
    def setup_method(self):
        self.rng = np.random.default_rng(13)

    def test_2d_gradient_both_sides(self):
        a = self.rng.standard_normal((4, 3))
        b = self.rng.standard_normal((3, 5))
        check_op(lambda t: ad.matmul(t, Tensor(b)), a.copy())
        check_op(lambda t: ad.matmul(Tensor(a), t), b.copy())

    def test_batched_gradient(self):
        a = self.rng.standard_normal((2, 4, 3))
        b = self.rng.standard_normal((2, 3, 5))
        check_op(lambda t: ad.matmul(t, Tensor(b)), a.copy())
        check_op(lambda t: ad.matmul(Tensor(a), t), b.copy())

    def test_broadcast_batch_dims(self):
        # (B, n, k) @ (k, d): the right operand is shared across the batch
        a = self.rng.standard_normal((3, 4, 2))
        b = self.rng.standard_normal((2, 5))
        check_op(lambda t: ad.matmul(Tensor(a), t), b.copy())

    def test_values_match_numpy(self):
        a = self.rng.standard_normal((2, 3, 4))
        b = self.rng.standard_normal((4, 6))
        np.testing.assert_allclose(
            ad.matmul(Tensor(a), Tensor(b)).data, a @ b, rtol=1e-13
        )


class TestLinear:
    def setup_method(self):
        self.rng = np.random.default_rng(14)

    @pytest.mark.parametrize("x_shape", [(4, 3), (2, 4, 3)])
    def test_gradients_all_three_inputs(self, x_shape):
        x = self.rng.standard_normal(x_shape)
        w = self.rng.standard_normal((3, 5))
        b = self.rng.standard_normal(5)
        # weight the outputs so no gradient reduces to a plain sum of ones
        mix = Tensor(self.rng.standard_normal(x_shape[:-1] + (5,)))
        check_op(lambda t: ad.mul(ad.linear(t, Tensor(w), Tensor(b)), mix), x.copy())
        check_op(lambda t: ad.mul(ad.linear(Tensor(x), t, Tensor(b)), mix), w.copy())
        check_op(lambda t: ad.mul(ad.linear(Tensor(x), Tensor(w), t), mix), b.copy())

    def test_values_match_matmul_plus_bias(self):
        x = self.rng.standard_normal((2, 4, 3))
        w = self.rng.standard_normal((3, 5))
        b = self.rng.standard_normal(5)
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.shape == (2, 4, 5)
        np.testing.assert_allclose(out, x @ w + b, rtol=1e-13, atol=1e-15)
        f32 = [a.astype(np.float32) for a in (x, w, b)]
        assert ad.linear(*(Tensor(a) for a in f32)).data.dtype == np.float32


def composed_attention(x, wq, bq, wk, wv, bv, wo, bo, n_heads):
    """Multi-head attention built from the small ops, as the model once did
    (the keys have no bias)."""
    B, n, d = x.shape
    dh = d // n_heads

    def heads(t):
        return ad.swapaxes(ad.reshape(t, (B, n, n_heads, dh)), 1, 2)

    q = heads(ad.add(ad.matmul(x, wq), bq))
    k = heads(ad.matmul(x, wk))
    v = heads(ad.add(ad.matmul(x, wv), bv))
    scores = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / np.sqrt(dh))
    out = ad.matmul(ad.softmax(scores, axis=-1), v)
    out = ad.reshape(ad.swapaxes(out, 1, 2), (B, n, d))
    return ad.add(ad.matmul(out, wo), bo)


class TestAttention:
    """``attention`` is one node; it must equal the composed graph and pass
    finite differences on every one of its eight inputs."""

    H = 2
    NAMES = ("x", "wq", "bq", "wk", "wv", "bv", "wo", "bo")

    def inputs(self, seed=15, B=2, n=5, d=8):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal((B, n, d))]
        for name in self.NAMES[1:]:
            if name.startswith("w"):
                arrays.append(0.5 * rng.standard_normal((d, d)))
            else:
                arrays.append(0.3 * rng.standard_normal(d))
        mix = rng.standard_normal((B, n, d))
        return arrays, mix

    def test_forward_matches_composed_graph(self):
        for seed, n in ((15, 5), (16, 1), (17, 7)):
            arrays, _ = self.inputs(seed, n=n)
            tensors = [Tensor(a) for a in arrays]
            fused = ad.attention(*tensors, n_heads=self.H).data
            composed = composed_attention(*tensors, n_heads=self.H).data
            assert fused.shape == arrays[0].shape
            np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-12)
        f32 = [Tensor(a.astype(np.float32)) for a in arrays]
        assert ad.attention(*f32, n_heads=self.H).data.dtype == np.float32

    def test_gradients_all_eight_inputs(self):
        arrays, mix = self.inputs()
        mix = Tensor(mix)
        for i, name in enumerate(self.NAMES):
            def build(t, i=i):
                args = [Tensor(a) for a in arrays]
                args[i] = t
                return ad.mul(ad.attention(*args, n_heads=self.H), mix)

            check_op(build, arrays[i].copy(), rtol=1e-6, atol=1e-8)

    def test_vjp_matches_composed_graph(self):
        arrays, mix = self.inputs(seed=19)
        grads = []
        for build in (lambda *a: ad.attention(*a, n_heads=self.H),
                      lambda *a: composed_attention(*a, n_heads=self.H)):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            ad.backward(build(*tensors), mix)
            grads.append([t.grad for t in tensors])
        for name, fused, composed in zip(self.NAMES, *grads):
            np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-12, err_msg=name)


class TestLayerNorm:
    def test_output_is_standardized(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((6, 8)) * 5 + 3
        g = np.ones(8)
        b = np.zeros(8)
        out = ad.layer_norm(Tensor(x), Tensor(g), Tensor(b), 1e-5).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)  # eps shifts variance slightly

    def test_gradients_all_three_inputs(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((3, 6))
        g = rng.standard_normal(6)
        b = rng.standard_normal(6)
        check_op(lambda t: ad.layer_norm(t, Tensor(g), Tensor(b), 1e-5), x.copy(), rtol=1e-5)
        check_op(lambda t: ad.layer_norm(Tensor(x), t, Tensor(b), 1e-5), g.copy(), rtol=1e-5)
        check_op(lambda t: ad.layer_norm(Tensor(x), Tensor(g), t, 1e-5), b.copy(), rtol=1e-5)


class TestHandOver:
    """An op writing over an array its caller hands over gives the bytes of
    the out-of-place op run on a copy, forward and backward; without a
    hand-over no operand is touched."""

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu(self, monkeypatch, dtype, record):
        """Value and derivative, float32 at every block size of the block-size
        test; float32 writes into the handed-over array itself."""
        x = TestGeluF32Kernel.block_test_input()[6:].astype(dtype)  # finite: the derivative at +-inf is inf * 0
        x[:3] = [-0.0, -40.0, 40.0]
        g = np.ones_like(x)
        for block in TestGeluF32Kernel.BLOCKS if dtype == np.float32 else (ad._PHI_BLOCK,):
            monkeypatch.setattr(ad, "_PHI_BLOCK", block)
            copy, handed = Tensor(x.copy(), requires_grad=record), Tensor(x.copy(), requires_grad=record)
            want, got = ad.gelu(copy), ad.gelu(handed, overwrite_a=True)
            np.testing.assert_array_equal(copy.data, x)
            assert got.requires_grad == record and (dtype == np.float64 or got.data is handed.data)
            assert got.data.tobytes() == want.data.tobytes()
            if record:
                ad.backward(want, g)
                ad.backward(got, g)
                assert handed.grad.tobytes() == copy.grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_add_into_second_operand(self, dtype):
        rng = np.random.default_rng(32)
        a, b, g = (rng.standard_normal(shape).astype(dtype) for shape in ((5,), (3, 5), (3, 5)))
        runs = []
        for overwrite_b in (False, True):
            ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
            out = ad.add(ta, tb, overwrite_b=overwrite_b)
            assert (out.data is tb.data) == overwrite_b and out.data.dtype == dtype
            np.testing.assert_array_equal(ta.data, a)
            ad.backward(out, g)
            runs.append((out.data.tobytes(), ta.grad.tobytes(), tb.grad.tobytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (a + b).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_unrecorded_matches_recorded(self, dtype):
        rng = np.random.default_rng(33)
        x, gamma, beta = (rng.standard_normal(shape).astype(dtype) for shape in ((2, 9, 16), (16,), (16,)))
        recorded = ad.layer_norm(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta), 1e-5)
        plain = ad.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5)
        with ad.no_grad():
            off = ad.layer_norm(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta), 1e-5)
        assert recorded.requires_grad and not plain.requires_grad and not off.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes() == off.data.tobytes()
        assert plain.data.dtype == dtype

    @pytest.mark.parametrize("bad", [2.0**100, np.inf, np.nan])
    def test_layer_norm_refuses_a_row_whose_variance_is_not_finite(self, bad):
        """One huge but finite f32 value overflows its row's variance, which
        would scale the row to zero and leave it ``beta`` alone; the error is
        raised without a RuntimeWarning, for a non-finite value too."""
        x = np.ones((3, 4), np.float32)
        x[1, 2] = bad
        gamma, beta = np.ones(4, np.float32), np.full(4, 0.5, np.float32)
        with pytest.raises(NumericError, match="variance is not finite"):
            ad.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5)


class TestGatherWindows:
    def test_non_overlapping_is_reshape(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 12, 3))
        out = ad.gather_windows(Tensor(x), kernel=4).data
        np.testing.assert_array_equal(out, x.reshape(2, 3, 12))

    def test_channel_interleaving(self):
        # window layout is (position, channel) flattened position-major
        x = np.array([[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]]])
        out = ad.gather_windows(Tensor(x), kernel=2).data
        np.testing.assert_array_equal(out[0, 0], [1.0, 10.0, 2.0, 20.0])
        np.testing.assert_array_equal(out[0, 1], [3.0, 30.0, 4.0, 40.0])

    def test_gradient_fast_path(self):
        rng = np.random.default_rng(33)
        w = Tensor(rng.standard_normal((2, 3, 8)))
        check_op(
            lambda t: ad.mul(ad.gather_windows(t, kernel=4), w),
            rng.standard_normal((2, 12, 2)),
        )


class TestLogdetPsd:
    def test_identity_value(self):
        assert ad.logdet_psd(Tensor(np.eye(4))).data == pytest.approx(0.0)

    def test_diagonal_closed_form(self):
        d = np.array([1.0, 2.0, 4.0, 0.5])
        got = float(ad.logdet_psd(Tensor(np.diag(d))).data)
        assert got == pytest.approx(np.log(d).sum(), rel=1e-12)

    def test_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            a = rng.standard_normal((6, 6))
            m = a @ a.T + 6 * np.eye(6)
            got = float(ad.logdet_psd(Tensor(m)).data)
            want = float(np.log(np.linalg.eigvalsh(m)).sum())
            assert got == pytest.approx(want, rel=1e-10)

    def test_gradient_is_inverse(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((5, 5))
        m = a @ a.T + 5 * np.eye(5)
        t = Tensor(m, requires_grad=True)
        ad.backward(ad.logdet_psd(t))
        np.testing.assert_allclose(t.grad, np.linalg.inv(m), rtol=1e-9, atol=1e-11)

    def test_gradient_through_construction(self):
        # d/dZ logdet(I + Z Z^T) checked by finite differences
        rng = np.random.default_rng(43)

        def build(t):
            zzt = ad.matmul(t, ad.swapaxes(t, 0, 1))
            return ad.logdet_psd(ad.add(Tensor(np.eye(4)), zzt))

        check_op(build, rng.standard_normal((4, 7)), rtol=1e-5)

    def test_non_psd_rejected(self):
        with pytest.raises(NumericError):
            ad.logdet_psd(Tensor(np.diag([1.0, -2.0])))

    def test_stack_gradient_finite_difference(self):
        """A (3, n, n) stack gives one log-determinant per matrix; weighting
        each differently checks that every matrix gets its own upstream
        gradient."""
        rng = np.random.default_rng(44)
        w = Tensor(np.array([0.5, -1.5, 2.0]))

        def build(t):
            zzt = ad.matmul(t, ad.swapaxes(t, -1, -2))
            return ad.mul(ad.logdet_psd(ad.add(Tensor(np.eye(4)), zzt)), w)

        check_op(build, rng.standard_normal((3, 4, 6)), rtol=1e-5)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_non_psd_anywhere_in_stack_rejected(self, bad):
        m = np.stack([np.eye(3) * (i + 1) for i in range(3)])
        m[bad] = np.diag([1.0, -2.0, 3.0])
        with pytest.raises(NumericError, match="not positive definite"):
            ad.logdet_psd(Tensor(m, requires_grad=True))


class TestTapeMechanics:
    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert y.node is None
        ad.backward(ad.tsum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2.0 * np.ones(3))

    def test_no_grad_holds_for_its_own_thread(self):
        """One thread inside ``no_grad`` leaves another thread recording."""
        inside, done = threading.Event(), threading.Event()

        def inference():
            with ad.no_grad():
                inside.set()
                done.wait(10)

        worker = threading.Thread(target=inference)
        worker.start()
        try:
            assert inside.wait(10)
            x = Tensor(np.ones(3), requires_grad=True)
            assert ad.grad_enabled() and ad.mul(x, x).node is not None
        finally:
            done.set()
            worker.join()
        assert ad.grad_enabled()

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(4) * 3.0, requires_grad=True)
        y = Tensor(ad.mul(x, x).data)
        z = ad.tsum(ad.mul(y, x))
        ad.backward(z)
        np.testing.assert_allclose(x.grad, 9.0 * np.ones(4))  # only the direct factor

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x
        ad.backward(ad.tsum(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = ad.mul(x, 2.0)
        b = ad.mul(x, 5.0)
        ad.backward(ad.tsum(ad.mul(a, b)))  # 10 x^2
        np.testing.assert_allclose(x.grad, [30.0])

    def test_dtype_preserved_f32(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = ad.mul(ad.add(x, 0.5), 2.0)
        assert y.data.dtype == np.float32
        ad.backward(ad.tsum(y))
        assert x.grad.dtype == np.float32

    def test_zero_grads(self):
        x = Tensor(np.ones(2), requires_grad=True)
        ad.backward(ad.tsum(ad.mul(x, x)))
        assert x.grad is not None
        ad.zero_grads({"x": x})
        assert x.grad is None

    def test_backward_needs_scalar_or_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = ad.mul(x, 3.0)
        ad.backward(y, grad=np.ones((2, 2)))
        np.testing.assert_allclose(x.grad, 3.0 * np.ones((2, 2)))


class TestDeepCompositionGradient:
    def test_mini_network_finite_difference(self):
        """A small end-to-end composition: windows -> affine -> gelu ->
        layer norm -> softmax attention-style mix -> pooled cosine."""
        rng = np.random.default_rng(55)
        w1 = rng.standard_normal((8, 6)) * 0.3
        g = rng.standard_normal(6)
        b = rng.standard_normal(6)

        def build(t):
            h = ad.gather_windows(t, kernel=4)  # (1, 3, 4*2)
            h = ad.gelu(ad.matmul(h, Tensor(w1)))
            h = ad.layer_norm(h, Tensor(g), Tensor(b), 1e-5)
            attn = ad.softmax(ad.matmul(h, ad.swapaxes(h, -1, -2)))
            return ad.tmean(ad.matmul(attn, h))

        check_op(build, rng.standard_normal((1, 12, 2)), rtol=2e-5, atol=1e-7)


def desk_step(n_permutations: int):
    """A desk-scale EEG training step (d = 32, depth 4/2, B = 8, f32): a
    function that builds its loss graph, ready to call."""
    from psgp import model as mdl
    from psgp.pretrain import SslConfig, total_loss_graph
    from psgp.signalio import Modality

    cfg = mdl.default_model_config(
        Modality.EEG, embed_dim=32, encoder_depth=4, decoder_depth=2, n_heads=4, ffn_mult=4,
        precision="f32",
    )
    ssl = SslConfig(
        mask_ratio=0.5, n_permutations=n_permutations, tcr_epsilon=0.2, tcr_weight=1.0,
        batch_size=8, learning_rate=1e-3, steps=300, seed=0,
    )
    batch = np.random.default_rng(3).standard_normal((8, cfg.input_len)).astype(np.float32)
    params = {k: Tensor(v, requires_grad=True) for k, v in mdl.init_parameters(cfg, 0).items()}
    return lambda: total_loss_graph(batch, params, cfg, ssl, seed=1)[0]


class TestTapeMemory:
    """A node keeps what its VJP reads and nothing else."""

    def test_no_vjp_holds_a_tensor(self):
        nodes = ad._topological_order(desk_step(4)().node)
        vjps = [node.vjp for node in nodes if node.vjp is not None]
        cells = [c.cell_contents for vjp in vjps for c in vjp.__closure__ or ()]
        assert cells
        assert [c for c in cells if isinstance(c, Tensor)] == []

    def test_desk_step_peak_memory(self):
        """The graph keeps no array that only the forward used: one desk EEG
        loss graph and its backward peak at 20.3 MB of traced allocations,
        where a tape that held every op's inputs peaked at 29.1 MB."""
        step = desk_step(4)
        tracemalloc.start()
        try:
            ad.backward(step())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, peak / 2**20

    def test_dropped_sum_is_freed_before_backward(self):
        """Neither add nor the GELU after it reads the sum, so its array dies
        with the caller's last reference; the gradient is still exact."""
        x0 = np.random.default_rng(8).standard_normal((3, 5))

        def build(t):
            return ad.add(ad.mul(t, t), t)

        t = Tensor(x0.copy(), requires_grad=True)
        h = build(t)
        alive = weakref.ref(h.data)
        loss = ad.tsum(ad.gelu(h))
        del h
        assert alive() is None
        ad.backward(loss)
        numeric = numerical_grad(lambda arr: float(ad.tsum(ad.gelu(build(Tensor(arr)))).data), x0.copy())
        np.testing.assert_allclose(t.grad, numeric, rtol=1e-6, atol=1e-8)


class TestTapeSize:
    @staticmethod
    def desk_nodes(n_permutations: int) -> int:
        """Nodes with a VJP in one desk-scale EEG loss graph."""
        loss = desk_step(n_permutations)()
        return sum(1 for node in ad._topological_order(loss.node) if node.vjp is not None)

    def test_desk_step_records_few_nodes(self):
        """Linear layers and attention blocks are one node each, the K = 4
        mask views run through the encoder and decoder as one batch, and the
        K coding rates are one stacked log-determinant: the graph records 105
        nodes with a VJP, where one coding-rate chain per view recorded 129,
        one encoder/decoder pass per view 343 and the composed ops 880."""
        with_vjp = self.desk_nodes(4)
        assert with_vjp <= 105, with_vjp

    def test_node_count_does_not_grow_with_views(self):
        """The K views are one batch through every node, the coding rate
        included, so K = 1, 4 and 8 record the same graph."""
        assert self.desk_nodes(1) == self.desk_nodes(4) == self.desk_nodes(8)
