"""Masking, the two loss terms, and the seeded training loop."""
import re
from dataclasses import replace

import numpy as np
import pytest

from psgp import pretrain
from psgp.autodiff import Tensor, backward
from psgp.errors import (
    ConfigError,
    DataError,
    DegenerateMaskError,
    NumericError,
    UsageError,
)
from psgp.model import ModelConfig, init_parameters, load_checkpoint, parameter_schema
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


def tiny_config(**overrides) -> ModelConfig:
    defaults = dict(
        modality=Modality.EEG,
        input_len=40,
        embed_dim=8,
        encoder_depth=1,
        decoder_depth=1,
        n_heads=2,
        ffn_mult=2,
        stem_strides=(2, 5),
        precision="f64",
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


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
        out = apply_mask(Tensor(grid), plan, Tensor(token)).data
        np.testing.assert_array_equal(out[1], token)
        np.testing.assert_array_equal(out[3], token)
        np.testing.assert_array_equal(out[[0, 2, 4]], grid[[0, 2, 4]])

    def test_batched_grid(self):
        rng = np.random.default_rng(1)
        grid = rng.standard_normal((2, 4, 3))
        token = np.zeros(3)
        plan = MaskPlan(bits=np.array([1, 0, 0, 1]), n_masked=2)
        out = apply_mask(Tensor(grid), plan, Tensor(token)).data
        assert out.shape == grid.shape
        np.testing.assert_array_equal(out[:, 1:3], grid[:, 1:3])
        np.testing.assert_array_equal(out[:, [0, 3]], 0.0)

    def test_gradients_split_by_mask(self):
        rng = np.random.default_rng(2)
        grid = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        token = Tensor(rng.standard_normal(3), requires_grad=True)
        plan = MaskPlan(bits=np.array([1, 0, 1, 0]), n_masked=2)
        out = apply_mask(grid, plan, token)
        backward(pretrain.ad.tsum(out))
        np.testing.assert_array_equal(grid.grad[[1, 3]], 1.0)
        np.testing.assert_array_equal(grid.grad[[0, 2]], 0.0)
        np.testing.assert_array_equal(token.grad, 2.0 * np.ones(3))

    def test_shape_mismatch(self):
        plan = MaskPlan(bits=np.array([1, 0]), n_masked=1)
        with pytest.raises(DataError):
            apply_mask(Tensor(np.zeros((3, 2))), plan, Tensor(np.zeros(2)))


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

    def test_masked_only_changes_the_term(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        full = total_loss(self._batch(), params, cfg, tiny_ssl(masked_only=False), seed=5)
        masked = total_loss(self._batch(), params, cfg, tiny_ssl(masked_only=True), seed=5)
        assert full.similarity_term != masked.similarity_term

    def test_batch_of_one_rejected(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        with pytest.raises(UsageError):
            total_loss(self._batch(n=1), params, cfg, tiny_ssl(), seed=5)


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


class TestTrain:
    def _segments(self, n=40, seed=3):
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 1.0, 40)
        # structured signals (shared sinusoid pool) so there is something to learn
        base = np.stack([np.sin(2 * np.pi * (2 + k % 3) * t) for k in range(n)])
        return base + 0.3 * rng.standard_normal((n, 40))

    def test_loss_decreases(self):
        cfg = tiny_config()
        ssl = tiny_ssl(steps=40, learning_rate=3e-3, batch_size=8)
        _, reports = train(self._segments(), cfg, ssl)
        first = np.mean([r.total for r in reports[:5]])
        last = np.mean([r.total for r in reports[-5:]])
        assert last < first

    def test_bitwise_determinism(self):
        cfg = tiny_config()
        ssl = tiny_ssl(steps=6)
        params_a, reports_a = train(self._segments(), cfg, ssl)
        params_b, reports_b = train(self._segments(), cfg, ssl)
        assert reports_a == reports_b
        for name in params_a:
            np.testing.assert_array_equal(params_a[name], params_b[name])

    def test_seed_changes_run(self):
        cfg = tiny_config()
        a, _ = train(self._segments(), cfg, tiny_ssl(steps=3, seed=0))
        b, _ = train(self._segments(), cfg, tiny_ssl(steps=3, seed=1))
        assert np.abs(a["enc.0.attn.wq"] - b["enc.0.attn.wq"]).max() > 0

    def test_zero_steps_returns_init(self):
        cfg = tiny_config()
        params, reports = train(self._segments(), cfg, tiny_ssl(steps=0))
        assert reports == []
        again, _ = train(self._segments(), cfg, tiny_ssl(steps=0))
        for name in params:
            np.testing.assert_array_equal(params[name], again[name])

    def test_log_file_format(self, tmp_path):
        cfg = tiny_config()
        log = tmp_path / "train.log"
        _, reports = train(self._segments(), cfg, tiny_ssl(steps=4), log_path=log)
        lines = log.read_text().splitlines()
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
            train(self._segments(), cfg, tiny_ssl(steps=10), checkpoint_dir=tmp_path)
        saved = tmp_path / "checkpoint_lastgood.psgm"
        assert saved.exists()
        loaded, loaded_cfg = load_checkpoint(saved)
        assert loaded_cfg == cfg
        assert set(loaded) == {name for name, _, _ in parameter_schema(cfg)}

    def test_divergence_inside_a_step_saves_last_good(self, tmp_path):
        """A real divergence (lr=1e6, f32) raises from inside the step, not as
        a NaN loss; the error names the step and the pre-step parameters are
        saved."""
        cfg = tiny_config(precision="f32")
        ssl = tiny_ssl(steps=20, learning_rate=1e6)
        with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
            train(self._segments(), cfg, ssl, checkpoint_dir=tmp_path)
        message = str(info.value)
        assert "non-finite activations" in message
        step = int(re.search(r"at step (\d+);", message).group(1))
        assert step > 1
        saved = tmp_path / "checkpoint_lastgood.psgm"
        assert str(saved) in message
        loaded, loaded_cfg = load_checkpoint(saved)
        assert loaded_cfg == cfg
        before, _ = train(self._segments(), cfg, replace(ssl, steps=step - 1))
        for name, arr in before.items():
            np.testing.assert_array_equal(loaded[name], arr)

    def test_too_few_segments(self):
        cfg = tiny_config()
        with pytest.raises(DataError):
            train(self._segments(n=1), cfg, tiny_ssl())
