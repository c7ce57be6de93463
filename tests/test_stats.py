"""Logistic fitter, odds ratios, AUC, rank tests, grid assembly.

Every frozen numeric expectation here is either a hand-derivable closed form
or cross-checked against an independently implemented oracle (brute-force
pairwise AUC, scipy.optimize likelihood maximization, scipy.stats tests).
"""
import warnings

import numpy as np
import pytest
from scipy import optimize as sp_opt
from scipy import stats as sp_stats

from psgp.cohort import load_manifest, split_cohort
from psgp.errors import (
    CollinearityError,
    DataError,
    InsufficientClassError,
    NotConvergedError,
    SeparationWarning,
    UsageError,
)
from psgp.signalio import Modality
from psgp.stats import (
    COV,
    PREDICTOR_SETS,
    SCORE,
    Z95,
    AucGrid,
    FeatureMatrix,
    LogisticModel,
    auc,
    build_feature_matrix,
    chi_square,
    evaluate_grid,
    fit_logistic,
    kruskal_wallis,
    odds_ratios,
    odds_ratio_report,
    predict_proba,
    save_or_report,
)
from psgp.vectors import SubjectScore


class TestFitLogistic:
    def test_intercept_only_closed_form(self):
        """With no features the MLE intercept is the empirical log-odds."""
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        model = fit_logistic(FeatureMatrix((), np.zeros((10, 0))), y)
        assert model.converged
        assert model.beta[0] == pytest.approx(np.log(3 / 7), abs=1e-8)

    def test_saturated_2x2_closed_form(self):
        """One binary feature: slope = log odds ratio of the 2x2 table and
        var(slope) = sum of reciprocal cell counts."""
        x = np.repeat([0.0, 1.0], 10)[:, None]
        y = np.concatenate([np.repeat([0.0, 1.0], [9, 1]), np.repeat([0.0, 1.0], [1, 9])])
        model = fit_logistic(FeatureMatrix(("x",), x), y)
        assert model.converged
        assert model.beta[1] == pytest.approx(np.log(81.0), abs=1e-6)
        assert model.beta[0] == pytest.approx(np.log(1 / 9), abs=1e-6)
        var_slope = 1 / 9 + 1 / 1 + 1 / 1 + 1 / 9
        assert model.cov[1, 1] == pytest.approx(var_slope, rel=1e-4)

    def test_score_equations_hold_at_optimum(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((80, 3))
        beta_true = np.array([0.3, -0.8, 0.5])
        p = 1 / (1 + np.exp(-(X @ beta_true - 0.2)))
        y = (rng.uniform(size=80) < p).astype(float)
        model = fit_logistic(FeatureMatrix(("a", "b", "c"), X), y)
        assert model.converged
        Xd = np.column_stack([np.ones(80), X])
        fitted = 1 / (1 + np.exp(-(Xd @ model.beta)))
        residual = Xd.T @ (y - fitted)
        assert np.abs(residual).max() < 1e-8

    def test_matches_scipy_likelihood_maximization(self):
        """Independent oracle: BFGS on the exact negative log-likelihood."""
        rng = np.random.default_rng(12)
        for trial in range(8):
            n, k = 60, int(rng.integers(1, 4))
            X = rng.standard_normal((n, k))
            beta_true = rng.uniform(-1, 1, size=k)
            p = 1 / (1 + np.exp(-(X @ beta_true)))
            y = (rng.uniform(size=n) < p).astype(float)
            if np.unique(y).shape[0] < 2:
                continue
            names = tuple(f"f{i}" for i in range(k))
            model = fit_logistic(FeatureMatrix(names, X), y)
            if not model.converged:
                continue
            Xd = np.column_stack([np.ones(n), X])

            def nll(b):
                eta = Xd @ b
                return -(y @ eta - np.logaddexp(0.0, eta).sum())

            res = sp_opt.minimize(nll, np.zeros(k + 1), method="BFGS", tol=1e-12)
            np.testing.assert_allclose(model.beta, res.x, rtol=1e-4, atol=1e-5)

    def test_perfect_separation_warns_and_flags(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.warns(SeparationWarning):
            model = fit_logistic(FeatureMatrix(("x",), x), y)
        assert model.separated
        assert np.abs(model.beta).max() > 10

    def test_separated_fit_emits_no_runtime_warning(self):
        """A separated fit drives exp(-eta) past overflow; the saturated
        sigmoid is exact there, so the only warning is the separation one."""
        x = np.concatenate([np.linspace(-10.0, -0.1, 20), np.linspace(0.1, 10.0, 20)])[:, None]
        y = (x[:, 0] > 0).astype(float)
        fm = FeatureMatrix(("x",), x)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_logistic(fm, y)
            p = predict_proba(model, fm)
        assert model.separated
        assert [w.category for w in caught] == [SeparationWarning]
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_collinear_design_rejected(self):
        rng = np.random.default_rng(13)
        col = rng.standard_normal(20)
        X = np.column_stack([col, 2.0 * col])
        y = (col > 0).astype(float)
        with pytest.raises(CollinearityError):
            fit_logistic(FeatureMatrix(("a", "b"), X), y)

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientClassError):
            fit_logistic(FeatureMatrix(("x",), np.ones((5, 1))), np.ones(5))

    def test_bad_labels_rejected(self):
        with pytest.raises(DataError):
            fit_logistic(FeatureMatrix(("x",), np.ones((3, 1))), np.array([0.0, 1.0, 2.0]))

    def test_predict_proba(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((30, 2))
        y = (X[:, 0] + 0.3 * rng.standard_normal(30) > 0).astype(float)
        fm = FeatureMatrix(("a", "b"), X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            model = fit_logistic(fm, y)
        probs = predict_proba(model, fm)
        Xd = np.column_stack([np.ones(30), X])
        np.testing.assert_allclose(probs, 1 / (1 + np.exp(-(Xd @ model.beta))), rtol=1e-12)
        with pytest.raises(DataError):
            predict_proba(model, FeatureMatrix(("z",), X[:, :1]))


class TestOddsRatios:
    def _model(self, beta, cov, names=("x",), converged=True, separated=False):
        return LogisticModel(
            outcome="CVD",
            feature_names=names,
            beta=np.asarray(beta, dtype=float),
            cov=np.asarray(cov, dtype=float),
            n_used=10,
            n_dropped=0,
            converged=converged,
            iterations=5,
            separated=separated,
        )

    def test_null_effect_interval(self):
        """beta=0, se=0.1: OR 1 with CI exp(-+ 1.959964 * 0.1)."""
        model = self._model([0.5, 0.0], [[0.04, 0.0], [0.0, 0.01]])
        (result,) = odds_ratios(model)
        assert result.odds_ratio == pytest.approx(1.0)
        assert result.ci_low == pytest.approx(np.exp(-Z95 * 0.1), rel=1e-9)
        assert result.ci_high == pytest.approx(np.exp(Z95 * 0.1), rel=1e-9)
        assert result.ci_low == pytest.approx(0.82202, abs=1e-5)
        assert result.ci_high == pytest.approx(1.21652, abs=1e-5)
        assert result.p_value == pytest.approx(1.0)

    def test_z_two_sided_p(self):
        model = self._model([0.0, 0.2], [[1.0, 0.0], [0.0, 0.01]])
        (result,) = odds_ratios(model)
        # z = 0.2 / 0.1 = 2
        assert result.p_value == pytest.approx(2 * sp_stats.norm.sf(2.0), rel=1e-9)
        assert result.odds_ratio == pytest.approx(np.exp(0.2), rel=1e-12)

    def test_intercept_is_skipped(self):
        model = self._model(
            [9.0, 0.5, -0.25],
            np.diag([1.0, 0.04, 0.09]),
            names=("a", "b"),
        )
        results = odds_ratios(model)
        assert [r.feature for r in results] == ["a", "b"]
        assert results[0].odds_ratio == pytest.approx(np.exp(0.5))
        assert results[1].odds_ratio == pytest.approx(np.exp(-0.25))

    def test_feature_subset_and_unknown(self):
        model = self._model([0.0, 0.1, 0.2], np.eye(3) * 0.01, names=("a", "b"))
        (only_b,) = odds_ratios(model, ["b"])
        assert only_b.feature == "b"
        assert only_b.odds_ratio == pytest.approx(np.exp(0.2))
        with pytest.raises(DataError):
            odds_ratios(model, ["nope"])

    def test_unconverged_rejected_separated_allowed(self):
        bad = self._model([0.0, 1.0], np.eye(2), converged=False)
        with pytest.raises(NotConvergedError):
            odds_ratios(bad)
        sep = self._model([0.0, 40.0], np.eye(2), converged=False, separated=True)
        assert odds_ratios(sep)[0].odds_ratio > 1


class TestAuc:
    def test_perfect_and_reversed(self):
        y = np.array([0, 0, 1, 1])
        assert auc([0.1, 0.2, 0.8, 0.9], y) == 1.0
        assert auc([0.9, 0.8, 0.2, 0.1], y) == 0.0

    def test_all_tied_is_half(self):
        assert auc([3.0, 3.0, 3.0, 3.0], [0, 1, 0, 1]) == 0.5

    def test_matches_bruteforce_pairwise(self):
        """Oracle: count wins + half-ties over all positive/negative pairs,
        including heavy ties from quantized scores."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(10, 60))
            scores = np.round(rng.standard_normal(n), 1)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            want = wins / (len(pos) * len(neg))
            assert auc(scores, labels) == pytest.approx(want, rel=1e-12)

    def test_matches_mannwhitney_u(self):
        rng = np.random.default_rng(22)
        scores = rng.standard_normal(40)
        labels = rng.integers(0, 2, size=40)
        u_stat, _ = sp_stats.mannwhitneyu(
            scores[labels == 1], scores[labels == 0], alternative="two-sided"
        )
        want = u_stat / ((labels == 1).sum() * (labels == 0).sum())
        assert auc(scores, labels) == pytest.approx(want, rel=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(23)
        scores = np.round(rng.standard_normal(30), 1)
        labels = rng.integers(0, 2, size=30)
        assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(24)
        scores = rng.standard_normal(25)
        labels = rng.integers(0, 2, size=25)
        assert auc(np.exp(scores), labels) == pytest.approx(auc(scores, labels), abs=1e-12)

    def test_errors(self):
        with pytest.raises(InsufficientClassError):
            auc([1.0, 2.0], [1, 1])
        with pytest.raises(DataError):
            auc([1.0, np.nan], [0, 1])
        with pytest.raises(DataError):
            auc([1.0, 2.0, 3.0], [0, 1])
        with pytest.raises(DataError):
            auc([1.0, 2.0], [0, 2])


class TestKruskalWallis:
    def test_hand_computed_no_ties(self):
        """Three groups holding ranks 1-3, 4-6, 7-9: H = 7.2 exactly."""
        h, p = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert h == pytest.approx(7.2, rel=1e-12)
        assert p == pytest.approx(float(sp_stats.chi2.sf(7.2, 2)), rel=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            groups = [
                np.round(rng.standard_normal(int(rng.integers(5, 15))), 1)
                for _ in range(int(rng.integers(2, 5)))
            ]
            h, p = kruskal_wallis(groups)
            want = sp_stats.kruskal(*groups)
            assert h == pytest.approx(want.statistic, rel=1e-10)
            assert p == pytest.approx(want.pvalue, rel=1e-10)

    def test_identical_values_defined(self):
        h, p = kruskal_wallis([[5.0, 5.0], [5.0, 5.0, 5.0]])
        assert (h, p) == (0.0, 1.0)

    def test_label_shuffle_has_no_effect_within_groups(self):
        rng = np.random.default_rng(32)
        g1 = rng.standard_normal(10)
        g2 = rng.standard_normal(12)
        a = kruskal_wallis([g1, g2])
        b = kruskal_wallis([rng.permutation(g1), rng.permutation(g2)])
        assert a == pytest.approx(b)

    def test_errors(self):
        with pytest.raises(UsageError):
            kruskal_wallis([[1.0, 2.0]])
        with pytest.raises(InsufficientClassError):
            kruskal_wallis([[1.0], []])
        with pytest.raises(DataError):
            kruskal_wallis([[1.0], [np.nan]])


class TestChiSquare:
    def test_independent_table_scores_zero(self):
        stat, p, dof = chi_square([[10, 20], [30, 60]])
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)
        assert dof == 1

    def test_hand_computed_2x2(self):
        stat, p, dof = chi_square([[10, 20], [30, 40]])
        # expected [[12,18],[28,42]]; stat = 4/12 + 4/18 + 4/28 + 4/42
        want = 4 / 12 + 4 / 18 + 4 / 28 + 4 / 42
        assert stat == pytest.approx(want, rel=1e-12)
        assert dof == 1

    def test_matches_scipy(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            table = rng.integers(1, 40, size=shape)
            stat, p, dof = chi_square(table)
            want = sp_stats.chi2_contingency(table, correction=False)
            assert stat == pytest.approx(want.statistic, rel=1e-10)
            assert p == pytest.approx(want.pvalue, rel=1e-10)
            assert dof == want.dof

    def test_yates_matches_scipy(self):
        table = [[12, 5], [7, 21]]
        stat, p, dof = chi_square(table, yates=True)
        want = sp_stats.chi2_contingency(np.asarray(table), correction=True)
        assert stat == pytest.approx(want.statistic, rel=1e-10)
        assert p == pytest.approx(want.pvalue, rel=1e-10)

    def test_errors(self):
        with pytest.raises(DataError):
            chi_square([[1, 2, 3]])
        with pytest.raises(InsufficientClassError):
            chi_square([[0, 0], [3, 4]])
        with pytest.raises(DataError):
            chi_square([[1, -2], [3, 4]])


# --- grid plumbing ------------------------------------------------------

def _manifest(tmp_path, n=40, seed=0, outcome_of=None):
    rng = np.random.default_rng(seed)
    lines = ["subject_id,age,sex,bmi,sbp,frs,CVD"]
    labels = {}
    for i in range(n):
        sid = f"S{i:03d}"
        label = outcome_of(i) if outcome_of else int(rng.integers(0, 2))
        labels[sid] = label
        lines.append(
            f"{sid},{50 + i % 30},{i % 2},{24 + (i % 7)},{120 + i % 9},{0.1 + 0.01 * (i % 5)},{label}"
        )
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    return load_manifest(path), labels


def _scores_for(manifest, labels, signal=("EEG",), noise=0.5, seed=1):
    """Risk scores: informative for the listed modalities, noise otherwise."""
    rng = np.random.default_rng(seed)
    out = []
    for sid in manifest.subject_ids:
        for mod in (Modality.EEG, Modality.ECG, Modality.RESP):
            bump = labels[sid] if mod.name in signal else 0.0
            out.append(
                SubjectScore(sid, "CVD", mod, bump + noise * rng.standard_normal(), 3)
            )
    return out


class TestBuildFeatureMatrix:
    def test_complete_case_and_order(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=6)
        scores = {(sid, "CVD", Modality.EEG): float(i) for i, sid in enumerate(manifest.subject_ids)}
        del scores[("S003", "CVD", Modality.EEG)]  # force a dropped row
        spec = ((SCORE, Modality.EEG), (COV, "age"))
        fm, y, dropped = build_feature_matrix(
            manifest, scores, "CVD", spec, ["S005", "S000", "S003", "S001"]
        )
        assert fm.feature_names == ("score_EEG", "age")
        assert fm.subject_ids == ("S000", "S001", "S005")  # sorted, S003 dropped
        assert dropped == 1
        np.testing.assert_array_equal(fm.values[:, 0], [0.0, 1.0, 5.0])
        assert y.tolist() == [labels["S000"], labels["S001"], labels["S005"]]

    def test_missing_label_drops_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "subject_id,age,sex,bmi,sbp,frs,CVD\nA,60,1,25,,,1\nB,61,0,26,,,\n"
        )
        manifest = load_manifest(path)
        fm, y, dropped = build_feature_matrix(
            manifest, {}, "CVD", ((COV, "age"),), ["A", "B"]
        )
        assert fm.subject_ids == ("A",)
        assert dropped == 1


class TestEvaluateGrid:
    def test_structure_and_signal(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=60, seed=5)
        train_scores = _scores_for(manifest, labels, signal=("EEG",), noise=0.15, seed=6)
        test_scores = _scores_for(manifest, labels, signal=("EEG",), noise=0.15, seed=7)
        split = split_cohort(manifest, ratio=0.6, seed=0)
        grid = evaluate_grid(train_scores, test_scores, manifest, split)
        assert grid.predictor_sets == tuple(PREDICTOR_SETS)
        assert grid.outcomes == ("CVD",)
        eeg = grid.cells[("EEG", "CVD")]
        resp = grid.cells[("Resp", "CVD")]
        assert isinstance(eeg, float) and eeg > 0.9
        assert isinstance(resp, float) and abs(resp - 0.5) < 0.35

    def test_csv_layout(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=30, seed=8)
        scores = _scores_for(manifest, labels)
        split = split_cohort(manifest, ratio=0.6, seed=0)
        grid = evaluate_grid(scores, scores, manifest, split)
        lines = grid.to_csv().splitlines()
        assert lines[0] == "predictor_set,CVD"
        assert len(lines) == 1 + len(PREDICTOR_SETS)
        name, cell = lines[1].split(",")
        assert name == "EEG"
        assert 0.0 <= float(cell) <= 1.0 and len(cell.split(".")[1]) == 3

    def test_na_single_class_train(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=20, seed=9, outcome_of=lambda i: 0)
        scores = _scores_for(manifest, labels)
        split = split_cohort(manifest, ratio=0.5, seed=0)
        grid = evaluate_grid(scores, scores, manifest, split)
        assert grid.cells[("EEG", "CVD")] == "NA:single_class_train"

    def test_na_collinear(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=30, seed=10)
        rng = np.random.default_rng(3)
        scores = []
        for sid in manifest.subject_ids:
            val = labels[sid] + 0.2 * rng.standard_normal()
            for mod in (Modality.EEG, Modality.ECG, Modality.RESP):
                scores.append(SubjectScore(sid, "CVD", mod, val, 3))  # identical columns
        split = split_cohort(manifest, ratio=0.6, seed=0)
        grid = evaluate_grid(scores, scores, manifest, split)
        assert grid.cells[("EEG-ECG", "CVD")] == "NA:collinear"
        assert isinstance(grid.cells[("EEG", "CVD")], float)

    def test_standardize_leaves_auc_unchanged(self, tmp_path):
        """Standardizing features is an affine reparameterization, so the
        fitted probabilities -- and hence every AUC -- are unchanged."""
        manifest, labels = _manifest(tmp_path, n=50, seed=11)
        train_scores = _scores_for(manifest, labels, seed=12)
        test_scores = _scores_for(manifest, labels, seed=13)
        split = split_cohort(manifest, ratio=0.6, seed=0)
        plain = evaluate_grid(train_scores, test_scores, manifest, split)
        scaled = evaluate_grid(train_scores, test_scores, manifest, split, standardize=True)
        for key, value in plain.cells.items():
            other = scaled.cells[key]
            if isinstance(value, float) and isinstance(other, float):
                assert other == pytest.approx(value, abs=1e-6), key

    def test_unknown_outcome_rejected(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=10)
        split = split_cohort(manifest, ratio=0.5, seed=0)
        with pytest.raises(DataError):
            evaluate_grid([], [], manifest, split, outcomes=("Dementia",))


class TestOrReport:
    def test_signal_is_significant(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=80, seed=14)
        scores = _scores_for(manifest, labels, signal=("EEG", "ECG", "RESP"), noise=0.6, seed=15)
        split = split_cohort(manifest, ratio=0.8, seed=0)
        train_scores = [s for s in scores if s.subject_id in split.train_ids]
        rows = odds_ratio_report(train_scores, manifest, split)
        assert {(r.outcome, r.modality.name) for r in rows} == {
            ("CVD", "EEG"), ("CVD", "ECG"), ("CVD", "RESP")
        }
        for r in rows:
            assert r.odds_ratio > 1.0
            assert r.significant and r.p_value < 0.05

    def test_csv_format(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=40, seed=16)
        scores = _scores_for(manifest, labels, seed=17)
        split = split_cohort(manifest, ratio=0.8, seed=0)
        rows = odds_ratio_report(
            [s for s in scores if s.subject_id in split.train_ids], manifest, split
        )
        out = tmp_path / "or.csv"
        save_or_report(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "outcome,modality,OR,ci_low,ci_high,p,significant"
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "CVD" and first[1] in ("EEG", "ECG", "RESP")
        assert first[6] in ("0", "1")
