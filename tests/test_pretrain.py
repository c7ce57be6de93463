"""Masking, the two loss terms, and the seeded training loop."""
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from psgp import model as mdl
from psgp import pretrain
from psgp.autodiff import Tensor, backward, no_grad, single_blas_thread
from psgp.errors import (
    ConfigError,
    DataError,
    DegenerateMaskError,
    NumericError,
    UsageError,
)
from psgp.model import init_parameters, load_checkpoint, parameter_schema
from psgp.pretrain import (
    LossReport,
    MaskPlan,
    SslConfig,
    apply_mask,
    sample_masks,
    similarity_loss,
    tcr_loss,
    total_loss,
    train,
)
from psgp.signalio import Modality

from helpers import fresh_process_faults, glibc_defaults, tiny_config


def tiny_ssl(**overrides) -> SslConfig:
    defaults = dict(
        mask_ratio=0.5,
        n_permutations=2,
        tcr_epsilon=0.2,
        tcr_weight=1.0,
        batch_size=4,
        learning_rate=1e-3,
        steps=5,
        seed=0,
    )
    defaults.update(overrides)
    return SslConfig(**defaults)


class TestMaskPlan:
    def test_valid_plan(self):
        plan = MaskPlan(bits=np.array([1, 0, 1, 0]), n_masked=2)
        assert plan.bits.dtype == np.uint8

    def test_rejects_non_binary(self):
        with pytest.raises(UsageError):
            MaskPlan(bits=np.array([2, 0, 1]), n_masked=2)

    def test_rejects_count_mismatch(self):
        with pytest.raises(UsageError):
            MaskPlan(bits=np.array([1, 0, 1, 0]), n_masked=3)


class TestSampleMasks:
    def test_exact_mask_count(self):
        for n, ratio, want in [(30, 0.5, 15), (30, 0.25, 8), (4, 0.5, 2)]:
            plans = sample_masks(n, ratio, k=6, seed=0)
            assert len(plans) == 6
            for p in plans:
                assert int(p.bits.sum()) == want == p.n_masked

    def test_seed_determinism(self):
        a = sample_masks(30, 0.5, k=4, seed=123)
        b = sample_masks(30, 0.5, k=4, seed=123)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.bits, pb.bits)
        c = sample_masks(30, 0.5, k=4, seed=124)
        assert any(np.any(pa.bits != pc.bits) for pa, pc in zip(a, c))

    def test_plans_are_independent_draws(self):
        plans = sample_masks(30, 0.5, k=8, seed=7)
        distinct = {tuple(p.bits.tolist()) for p in plans}
        assert len(distinct) > 1

    def test_degenerate_ratios(self):
        with pytest.raises(DegenerateMaskError):
            sample_masks(4, 0.1, k=1, seed=0)  # would mask 0 rows
        with pytest.raises(DegenerateMaskError):
            sample_masks(4, 0.9, k=1, seed=0)  # would mask all rows

    def test_small_n_rejected(self):
        with pytest.raises(UsageError):
            sample_masks(1, 0.5, k=1, seed=0)


class TestApplyMask:
    def test_array_semantics(self):
        rng = np.random.default_rng(0)
        grid = rng.standard_normal((5, 3))
        token = np.array([9.0, 9.5, 10.0])
        plan = MaskPlan(bits=np.array([0, 1, 0, 1, 0]), n_masked=2)
        out = apply_mask(Tensor(grid), [plan], Tensor(token)).data
        assert out.shape == (1, 5, 3)
        np.testing.assert_array_equal(out[0, 1], token)
        np.testing.assert_array_equal(out[0, 3], token)
        np.testing.assert_array_equal(out[0, [0, 2, 4]], grid[[0, 2, 4]])

    def test_batched_grid(self):
        rng = np.random.default_rng(1)
        grid = rng.standard_normal((2, 4, 3))
        token = np.zeros(3)
        plan = MaskPlan(bits=np.array([1, 0, 0, 1]), n_masked=2)
        out = apply_mask(Tensor(grid), [plan], Tensor(token)).data
        assert out.shape == (1,) + grid.shape
        np.testing.assert_array_equal(out[0, :, 1:3], grid[:, 1:3])
        np.testing.assert_array_equal(out[0, :, [0, 3]], 0.0)

    def test_one_view_per_plan(self):
        rng = np.random.default_rng(11)
        grid = rng.standard_normal((2, 6, 3))
        token = rng.standard_normal(3)
        plans = sample_masks(6, 0.5, k=3, seed=4)
        out = apply_mask(Tensor(grid), plans, Tensor(token)).data
        assert out.shape == (3, 2, 6, 3)
        for view, plan in zip(out, plans):
            masked = plan.bits.astype(bool)
            np.testing.assert_array_equal(view[:, masked], np.broadcast_to(token, (2, 3, 3)))
            np.testing.assert_array_equal(view[:, ~masked], grid[:, ~masked])

    def test_gradients_split_by_mask(self):
        rng = np.random.default_rng(2)
        grid = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        token = Tensor(rng.standard_normal(3), requires_grad=True)
        plan = MaskPlan(bits=np.array([1, 0, 1, 0]), n_masked=2)
        out = apply_mask(grid, [plan], token)
        backward(pretrain.ad.tsum(out))
        np.testing.assert_array_equal(grid.grad[[1, 3]], 1.0)
        np.testing.assert_array_equal(grid.grad[[0, 2]], 0.0)
        np.testing.assert_array_equal(token.grad, 2.0 * np.ones(3))

    def test_gradients_sum_over_views(self):
        rng = np.random.default_rng(3)
        grid = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        token = Tensor(rng.standard_normal(3), requires_grad=True)
        plans = [
            MaskPlan(bits=np.array([1, 0, 1, 0]), n_masked=2),
            MaskPlan(bits=np.array([1, 1, 0, 0]), n_masked=2),
        ]
        backward(pretrain.ad.tsum(apply_mask(grid, plans, token)))
        np.testing.assert_array_equal(grid.grad[:, 0], [0.0, 1.0, 1.0, 2.0])
        np.testing.assert_array_equal(token.grad, 4.0 * np.ones(3))

    def test_shape_mismatch(self):
        plan = MaskPlan(bits=np.array([1, 0]), n_masked=1)
        with pytest.raises(DataError):
            apply_mask(Tensor(np.zeros((3, 2))), [plan], Tensor(np.zeros(2)))
        with pytest.raises(DataError):
            apply_mask(Tensor(np.zeros((2, 2))), [plan], Tensor(np.zeros(3)))


class TestSimilarityLoss:
    def test_identical_grids_score_one(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 6))
        assert similarity_loss(z, [z.copy()]) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((4, 6))
        assert similarity_loss(z, [3.5 * z]) == pytest.approx(1.0, abs=1e-12)

    def test_antiparallel_scores_minus_one(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 6))
        assert similarity_loss(z, [-z]) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_rows_score_zero(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert similarity_loss(a, [b]) == pytest.approx(0.0, abs=1e-12)

    def test_view_average(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((3, 5))
        val = similarity_loss(z, [z, -z])
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            similarity_loss(np.zeros((2, 3)), [np.zeros((3, 2))])


class TestTcrLoss:
    def test_zero_matrix_scores_zero(self):
        assert tcr_loss(np.zeros((6, 4)), 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_columns_closed_form(self):
        d, b, c, eps = 4, 2, 0.7, 0.2
        z = np.zeros((d, b))
        z[0, 0] = c
        z[1, 1] = c
        coeff = d / (b * eps * eps)
        want = 0.5 * 2.0 * np.log1p(coeff * c * c)
        assert tcr_loss(z, eps) == pytest.approx(want, rel=1e-12)

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            z = rng.standard_normal((5, 9))
            eps = 0.3
            coeff = 5 / (9 * eps * eps)
            lam = np.linalg.eigvalsh(z @ z.T)
            want = 0.5 * np.log1p(coeff * np.clip(lam, 0.0, None)).sum()
            assert tcr_loss(z, eps) == pytest.approx(want, rel=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((6, 10))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert tcr_loss(q @ z, 0.2) == pytest.approx(tcr_loss(z, 0.2), rel=1e-10)

    def test_collapse_scores_lower(self):
        """b identical columns carry less coding rate than b orthogonal ones
        of the same norm; the learned embeddings are pushed toward spread."""
        d, b = 8, 4
        col = np.zeros(d)
        col[0] = 1.0
        collapsed = np.tile(col[:, None], (1, b))
        spread = np.zeros((d, b))
        for i in range(b):
            spread[i, i] = 1.0
        assert tcr_loss(spread, 0.2) > tcr_loss(collapsed, 0.2)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(10)
        z0 = rng.standard_normal((4, 6))
        t = Tensor(z0.copy(), requires_grad=True)
        backward(tcr_loss(t, 0.25))
        analytic = t.grad.copy()
        h = 1e-6
        numeric = np.zeros_like(z0)
        for i in range(z0.shape[0]):
            for j in range(z0.shape[1]):
                zp = z0.copy()
                zp[i, j] += h
                zm = z0.copy()
                zm[i, j] -= h
                numeric[i, j] = (tcr_loss(zp, 0.25) - tcr_loss(zm, 0.25)) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("d,b", [(6, 3), (5, 5), (3, 7)])
    def test_stack_matches_each_matrix(self, d, b):
        """A (4, d, b) stack gives each matrix's 2-D coding rate and its
        dense-eigen value, and each matrix its own 2-D gradient, for b < d,
        b = d and b > d."""
        rng = np.random.default_rng(11 + d * b)
        z = rng.standard_normal((4, d, b))
        w = np.array([0.5, -1.0, 2.0, 1.5])
        eps = 0.3
        t = Tensor(z.copy(), requires_grad=True)
        val = tcr_loss(t, eps)
        backward(pretrain.ad.tsum(pretrain.ad.mul(val, w)))
        coeff = d / (b * eps * eps)
        for i in range(4):
            lam = np.linalg.eigvalsh(z[i] @ z[i].T)
            want = 0.5 * np.log1p(coeff * np.clip(lam, 0.0, None)).sum()
            assert val.data[i] == pytest.approx(tcr_loss(z[i], eps), rel=1e-12)
            assert val.data[i] == pytest.approx(want, rel=1e-9)
            ti = Tensor(z[i].copy(), requires_grad=True)
            backward(tcr_loss(ti, eps))
            np.testing.assert_allclose(t.grad[i], w[i] * ti.grad, rtol=1e-10, atol=1e-13)
        np.testing.assert_array_equal(tcr_loss(z, eps), val.data)

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            tcr_loss(np.zeros((3, 3)), 0.0)
        with pytest.raises(DataError):
            tcr_loss(np.zeros(5), 0.2)
        with pytest.raises(NumericError):
            tcr_loss(np.full((2, 2), np.nan), 0.2)


class TestTotalLoss:
    def _batch(self, n=4, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, 40))

    def test_arithmetic_identity(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        rep = total_loss(self._batch(), params, cfg, tiny_ssl(tcr_weight=0.37), seed=5)
        assert rep.total == pytest.approx(
            (1.0 - rep.similarity_term) - 0.37 * rep.tcr_term, abs=1e-12
        )
        assert rep.tcr_term >= 0.0
        assert -1.0 <= rep.similarity_term <= 1.0

    def test_zero_weight_drops_tcr(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        rep = total_loss(self._batch(), params, cfg, tiny_ssl(tcr_weight=0.0), seed=5)
        assert rep.total == pytest.approx(1.0 - rep.similarity_term, abs=1e-12)

    def test_mask_seed_determinism(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        a = total_loss(self._batch(), params, cfg, tiny_ssl(), seed=5)
        b = total_loss(self._batch(), params, cfg, tiny_ssl(), seed=5)
        assert a == b
        c = total_loss(self._batch(), params, cfg, tiny_ssl(), seed=6)
        assert a.total != c.total

    def test_batch_of_one_rejected(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        with pytest.raises(UsageError):
            total_loss(self._batch(n=1), params, cfg, tiny_ssl(), seed=5)


def per_view_loss_graph(batch, params_t, config, ssl_config, seed):
    """Reference: the loss with one encoder/decoder pass per mask view, each
    view's similarity its own mean, as the training graph was first written.
    Returns the total, similarity and coding-rate Tensors."""
    ad = pretrain.ad
    plans = sample_masks(config.n_patches, ssl_config.mask_ratio, ssl_config.n_permutations, seed)
    patches = mdl.stem_forward(Tensor(batch), params_t, config)
    with no_grad():
        target = Tensor(mdl.encode_t(Tensor(patches.data), params_t, config).data)
    sim = tcr = None
    for plan in plans:
        bits = plan.bits.astype(patches.dtype)[:, None]
        masked = ad.add(ad.mul(patches, 1.0 - bits), ad.mul(params_t["mask_token"], bits))
        decoded = mdl.decode_t(mdl.encode_t(masked, params_t, config), params_t, config)
        sim_k = ad.tmean(pretrain._cos_rows(target, decoded))
        tcr_k = tcr_loss(ad.transpose(mdl.pool_rows(decoded)), ssl_config.tcr_epsilon)
        sim = sim_k if sim is None else ad.add(sim, sim_k)
        tcr = tcr_k if tcr is None else ad.add(tcr, tcr_k)
    sim = ad.mul(sim, 1.0 / len(plans))
    tcr = ad.mul(tcr, 1.0 / len(plans))
    total = ad.sub(ad.sub(1.0, sim), ad.mul(tcr, ssl_config.tcr_weight))
    return total, sim, tcr


class TestBatchedLossOracle:
    """The K views batched through one encoder/decoder pass give the loss and
    the gradients of one pass per view, to rounding, in float64."""

    def _setup(self, batch_size):
        cfg = tiny_config(input_len=120, encoder_depth=2)  # n = 12 patches
        params = init_parameters(cfg, seed=4)
        batch = np.random.default_rng(batch_size).standard_normal((batch_size, cfg.input_len))
        return cfg, params, batch

    @pytest.mark.parametrize("similarity_only", [False, True])
    @pytest.mark.parametrize("batch_size", [2, 8])
    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_per_view_graph(self, k, batch_size, similarity_only):
        """With ``similarity_only`` the coding-rate weight is 0, so the
        gradients compared are those of the similarity path alone."""
        cfg, params, batch = self._setup(batch_size)
        ssl = tiny_ssl(
            n_permutations=k, batch_size=batch_size, tcr_weight=0.0 if similarity_only else 1.0
        )
        grads = []
        for build in ("batched", "per_view"):
            params_t = {n: Tensor(a.copy(), requires_grad=True) for n, a in params.items()}
            if build == "batched":
                total, report = pretrain.total_loss_graph(batch, params_t, cfg, ssl, seed=9)
                values = (report.total, report.similarity_term, report.tcr_term)
            else:
                total, sim, tcr = per_view_loss_graph(batch, params_t, cfg, ssl, seed=9)
                want = (float(total.data), float(sim.data), float(tcr.data))
            backward(total)
            grads.append({n: t.grad for n, t in params_t.items()})
        for got, ref in zip(values, want):
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        batched, reference = grads
        for name, ref in reference.items():
            err = float(np.abs(batched[name] - ref).max())
            assert err <= 1e-12 * float(np.abs(ref).max()), (name, err)

    def test_similarity_value_oracle(self):
        """The similarity term equals the mean over views, batch and rows of
        the row cosines between the full-grid target and each masked grid's
        reconstruction, computed here one view at a time in numpy."""
        cfg, params, batch = self._setup(4)
        ssl = tiny_ssl(n_permutations=3)
        target = pretrain.full_grid_target(batch, params, cfg)
        tp = {n: Tensor(a) for n, a in params.items()}
        with no_grad():
            patches = mdl.stem_forward(Tensor(batch), tp, cfg).data
        per_view = []
        for plan in sample_masks(cfg.n_patches, ssl.mask_ratio, 3, seed=9):
            rows = plan.bits.astype(bool)
            masked = np.where(rows[:, None], params["mask_token"], patches)
            with no_grad():
                z = mdl.decode_t(mdl.encode_t(Tensor(masked), tp, cfg), tp, cfg).data
            cos = (target * z).sum(-1) / (
                np.linalg.norm(target, axis=-1) * np.linalg.norm(z, axis=-1)
            )
            per_view.append(cos.mean())
        report = total_loss(batch, params, cfg, ssl, seed=9)
        assert report.similarity_term == pytest.approx(np.mean(per_view), rel=1e-12, abs=0.0)


class TestSslConfigValidation:
    def test_bad_values(self):
        for kwargs in [
            dict(mask_ratio=0.0),
            dict(mask_ratio=1.0),
            dict(n_permutations=0),
            dict(tcr_epsilon=0.0),
            dict(tcr_weight=-0.1),
            dict(batch_size=1),
            dict(learning_rate=0.0),
            dict(steps=-1),
        ]:
            with pytest.raises(ConfigError):
                tiny_ssl(**kwargs)


class TestAdam:
    """The flat-buffer step against the per-tensor Adam update it replaces."""

    SHAPES = {"w": (3, 4), "b": (5,), "t": (2, 2, 2)}

    def _params(self, rng, dtype):
        return {
            k: Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
            for k, s in self.SHAPES.items()
        }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_tensor_update_bytes(self, dtype):
        rng = np.random.default_rng(12)
        params = self._params(rng, dtype)
        ref = {k: t.data.copy() for k, t in params.items()}
        m = {k: np.zeros_like(a) for k, a in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        opt = pretrain._Adam(params, 1e-3)
        for step in range(1, 4):
            for t in params.values():
                t.grad = rng.standard_normal(t.shape).astype(dtype)
            opt.gather(params)
            opt.step()
            b1c, b2c = 1.0 - 0.9**step, 1.0 - 0.999**step
            for k, t in params.items():
                g = t.grad
                m[k] *= 0.9
                m[k] += (1.0 - 0.9) * g
                v[k] *= 0.999
                v[k] += (1.0 - 0.999) * (g * g)
                update = (m[k] / b1c) / (np.sqrt(v[k] / b2c) + 1e-8)
                ref[k] = ref[k] - 1e-3 * update
                assert t.data.dtype == dtype
                np.testing.assert_array_equal(t.data, ref[k])

    def test_missing_gradient_leaves_tensor_unchanged(self):
        rng = np.random.default_rng(13)
        params = self._params(rng, np.float64)
        before = {k: t.data.copy() for k, t in params.items()}
        opt = pretrain._Adam(params, 1e-2)
        for _ in range(3):
            params["w"].grad = rng.standard_normal(self.SHAPES["w"])
            params["t"].grad = rng.standard_normal(self.SHAPES["t"])
            opt.gather(params)
            opt.step()
        np.testing.assert_array_equal(params["b"].data, before["b"])
        assert np.abs(params["w"].data - before["w"]).max() > 0

    def test_nonfinite_gradient_names_the_tensor(self):
        rng = np.random.default_rng(14)
        params = self._params(rng, np.float32)
        opt = pretrain._Adam(params, 1e-2)
        params["w"].grad = np.ones(self.SHAPES["w"], dtype=np.float32)
        params["t"].grad = np.ones(self.SHAPES["t"], dtype=np.float32)
        params["t"].grad[1, 0, 1] = np.inf
        with pytest.raises(NumericError, match="non-finite gradient for 't'"):
            opt.gather(params)


class TestTrain:
    def _segments(self, n=40, seed=3):
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 1.0, 40)
        # structured signals (shared sinusoid pool) so there is something to learn
        base = np.stack([np.sin(2 * np.pi * (2 + k % 3) * t) for k in range(n)])
        return base + 0.3 * rng.standard_normal((n, 40))

    def test_loss_decreases(self, tmp_path):
        cfg = tiny_config()
        ssl = tiny_ssl(steps=40, learning_rate=3e-3, batch_size=8)
        _, reports = train(self._segments(), cfg, ssl, tmp_path)
        first = np.mean([r.total for r in reports[:5]])
        last = np.mean([r.total for r in reports[-5:]])
        assert last < first

    def test_bitwise_determinism(self, tmp_path):
        cfg = tiny_config()
        ssl = tiny_ssl(steps=6)
        params_a, reports_a = train(self._segments(), cfg, ssl, tmp_path)
        params_b, reports_b = train(self._segments(), cfg, ssl, tmp_path)
        assert reports_a == reports_b
        for name in params_a:
            np.testing.assert_array_equal(params_a[name], params_b[name])

    def test_seed_changes_run(self, tmp_path):
        cfg = tiny_config()
        a, _ = train(self._segments(), cfg, tiny_ssl(steps=3, seed=0), tmp_path)
        b, _ = train(self._segments(), cfg, tiny_ssl(steps=3, seed=1), tmp_path)
        assert np.abs(a["enc.0.attn.wq"] - b["enc.0.attn.wq"]).max() > 0

    def test_zero_steps_returns_init(self, tmp_path):
        cfg = tiny_config()
        params, reports = train(self._segments(), cfg, tiny_ssl(steps=0), tmp_path)
        assert reports == []
        again, _ = train(self._segments(), cfg, tiny_ssl(steps=0), tmp_path)
        for name in params:
            np.testing.assert_array_equal(params[name], again[name])

    def test_log_file_format(self, tmp_path):
        cfg = tiny_config()
        _, reports = train(self._segments(), cfg, tiny_ssl(steps=4), tmp_path)
        lines = (tmp_path / "train.log").read_text().splitlines()
        assert lines[0] == "step,similarity,tcr,total,wallclock_ms"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[3]) == pytest.approx(reports[0].total, abs=1e-6)

    def test_nonfinite_loss_saves_last_good(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        real = pretrain.total_loss_graph
        calls = {"n": 0}

        def exploding(batch, params_t, config, ssl_config, seed):
            calls["n"] += 1
            graph, report = real(batch, params_t, config, ssl_config, seed)
            if calls["n"] >= 3:
                report = LossReport(report.step, report.similarity_term, report.tcr_term, float("nan"))
            return graph, report

        monkeypatch.setattr(pretrain, "total_loss_graph", exploding)
        with pytest.raises(NumericError, match="step 3"):
            train(self._segments(), cfg, tiny_ssl(steps=10), tmp_path)
        saved = tmp_path / "checkpoint_lastgood.psgm"
        assert saved.exists()
        loaded, _ = load_checkpoint(saved, cfg)
        assert set(loaded) == {name for name, _, _ in parameter_schema(cfg)}

    def test_divergence_inside_a_step_saves_last_good(self, tmp_path):
        """A real divergence (lr=1e6, f32) raises from inside the step, not as
        a NaN loss; the error names the step and the pre-step parameters are
        saved."""
        cfg = tiny_config(precision="f32")
        ssl = tiny_ssl(steps=20, learning_rate=1e6)
        with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
            train(self._segments(), cfg, ssl, tmp_path)
        message = str(info.value)
        assert "non-finite activations" in message
        step = int(re.search(r"at step (\d+);", message).group(1))
        assert step > 1
        saved = tmp_path / "checkpoint_lastgood.psgm"
        assert str(saved) in message
        loaded, _ = load_checkpoint(saved, cfg)
        before, _ = train(self._segments(), cfg, replace(ssl, steps=step - 1), tmp_path)
        for name, arr in before.items():
            np.testing.assert_array_equal(loaded[name], arr)

    def test_nan_gradient_with_finite_loss_saves_last_good(self, tmp_path, monkeypatch):
        """A NaN gradient under a finite loss is that step's failure: Adam
        must not write it into the parameters, the error names the step and
        the pre-step parameters are saved."""
        cfg = tiny_config()
        real_loss, real_backward = pretrain.total_loss_graph, pretrain.backward
        seen = {"params": None, "calls": 0}

        def capturing(batch, params_t, config, ssl_config, seed):
            seen["params"] = params_t
            return real_loss(batch, params_t, config, ssl_config, seed)

        def poisoned(loss):
            real_backward(loss)
            seen["calls"] += 1
            if seen["calls"] == 2:
                seen["params"]["stem.0.conv.w"].grad[0, 0] = np.nan

        monkeypatch.setattr(pretrain, "total_loss_graph", capturing)
        monkeypatch.setattr(pretrain, "backward", poisoned)
        with pytest.raises(NumericError) as info:
            train(self._segments(), cfg, tiny_ssl(steps=5), tmp_path)
        message = str(info.value)
        assert "non-finite gradient for 'stem.0.conv.w' at step 2;" in message
        saved = tmp_path / "checkpoint_lastgood.psgm"
        assert str(saved) in message
        loaded, _ = load_checkpoint(saved, cfg)
        monkeypatch.undo()
        before, _ = train(self._segments(), cfg, tiny_ssl(steps=1), tmp_path)
        for name, arr in before.items():
            np.testing.assert_array_equal(loaded[name], arr)

    def test_too_few_segments(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(DataError):
            train(self._segments(n=1), cfg, tiny_ssl(), tmp_path)


def test_two_threads_train_at_once_with_serial_bytes(tmp_path):
    """Grad mode is per thread: ECG and RESP encoders trained on two threads
    at once, switching often, each get the parameter bytes of a serial run.
    The BLAS pin is process-wide, so it is taken once, around both."""
    ssl = tiny_ssl(steps=3, batch_size=4)
    runs = {}
    for modality in (Modality.ECG, Modality.RESP):
        cfg = mdl.default_model_config(
            modality, embed_dim=16, encoder_depth=1, decoder_depth=1, n_heads=2, ffn_mult=4, precision="f32"
        )
        runs[modality] = (np.random.default_rng(modality.value).standard_normal((12, cfg.input_len)), cfg)
        (tmp_path / modality.name).mkdir()
    serial = {m: train(X, cfg, ssl, tmp_path / m.name)[0] for m, (X, cfg) in runs.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with single_blas_thread(), ThreadPoolExecutor(max_workers=2) as pool:
            futures = {m: pool.submit(train, X, cfg, ssl, tmp_path / m.name) for m, (X, cfg) in runs.items()}
            threaded = {m: f.result()[0] for m, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for m, params in serial.items():
        assert {k: v.tobytes() for k, v in threaded[m].items()} == {k: v.tobytes() for k, v in params.items()}


@glibc_defaults
def test_desk_train_keeps_its_memory_between_steps(tmp_path):
    """The benchmark's desk train (80 x 6 cohort, 12 steps, three
    modalities) in a fresh interpreter: the arrays a step frees stay in the
    heap for the next step, so it takes about 9k minor page faults, where
    unmapping them after every step took 83k-180k."""
    from psgp import cli

    data = tmp_path / "data"
    assert cli.main([
        "synth", "--out", str(data), "--seed", "1", "--subjects", "80", "--segments", "6",
        "--prevalence", "CVD=0.4", "--effect", "CVD:ECG=3.0",
    ]) == 0
    faults = fresh_process_faults(
        "train", "--out", tmp_path / "train", "--data", data, "--seed", 1, "--steps", 12,
        "--batch-size", 8, "--permutations", 4, "--embed-dim", 32, "--threads", 1,
    )
    assert faults < 40_000, faults


@glibc_defaults
def test_fresh_embed_keeps_its_memory_between_tiles(tmp_path):
    """The benchmark's ``embed_bulk`` stage (32 x 20 cohort, three
    modalities, two threads) in a fresh interpreter: the arrays a tile frees
    stay in the heap for the next tile, so it takes about 3k minor page
    faults, where unmapping them after every tile took 229k-245k."""
    from psgp import cli

    data, models = tmp_path / "data", tmp_path / "train"
    assert cli.main([
        "synth", "--out", str(data), "--seed", "5", "--subjects", "32", "--segments", "20",
        "--prevalence", "CVD=0.4", "--effect", "CVD:ECG=3.0",
    ]) == 0
    assert cli.main([
        "train", "--out", str(models), "--data", str(data), "--seed", "5", "--steps", "1",
        "--permutations", "4", "--embed-dim", "32",
    ]) == 0
    faults = fresh_process_faults(
        "embed", "--out", tmp_path / "embed", "--data", data, "--models", models, "--threads", 2,
    )
    assert faults < 40_000, faults
