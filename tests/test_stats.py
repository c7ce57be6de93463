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

from psgp import stats
from psgp.cohort import CohortManifest, SubjectRow, load_manifest, split_cohort
from psgp.errors import (
    CollinearityError,
    DataError,
    InsufficientClassError,
    NotConvergedError,
    SeparationWarning,
    UsageError,
)
from psgp.signalio import Modality
from psgp.stats import _average_ranks, _chi2_sf
from psgp.stats import (
    PREDICTOR_SETS,
    Z95,
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
    save_grid,
    save_or_report,
)


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

    def test_separated_fit_stops_at_the_early_exit(self):
        """Once |beta| passes the separation bound with saturated
        probabilities, IRLS stops at that step with one SeparationWarning;
        run on to its step cap, the same design takes 100 steps to a slope
        of about 208."""
        x = np.concatenate([np.linspace(-10.0, -0.1, 20), np.linspace(0.1, 10.0, 20)])[:, None]
        y = (x[:, 0] > 0).astype(float)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_logistic(FeatureMatrix(("x",), x), y)
        assert [w.category for w in caught] == [SeparationWarning]
        assert model.separated and not model.converged
        assert model.iterations == 17
        np.testing.assert_allclose(model.beta, [0.0, 93.35075101783124], rtol=1e-9, atol=1e-9)

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

    def test_p_matches_normal_tail(self):
        for z in (0.0, 1e-8, 0.3, 1.0, 1.959964, 2.5, 6.0, 12.0, 37.0, 38.5):
            model = self._model([0.0, -0.5 * z], [[1.0, 0.0], [0.0, 0.25]])
            (result,) = odds_ratios(model)
            want = 2.0 * float(sp_stats.norm.sf(z))
            assert result.p_value == pytest.approx(want, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("slope_var", [4.0, 0.0])
    def test_overflowing_ratio_is_inf_without_runtime_warning(self, slope_var):
        """exp(800) is past the float64 range: a separated slope of 800 gives
        an infinite ratio and bounds, with or without a standard error, and
        no numpy overflow warning."""
        model = self._model(
            [0.0, 800.0], [[1.0, 0.0], [0.0, slope_var]], converged=False, separated=True
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (result,) = odds_ratios(model)
        assert result.odds_ratio == result.ci_low == result.ci_high == np.inf
        assert result.p_value == 0.0


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


class TestAverageRanks:
    @pytest.mark.parametrize(
        "values",
        [
            [3.0, 1.0, 2.0],
            [2.0, 1.0, 2.0, 3.0, 1.0, 2.0],
            [5.0] * 7,
            [4.2],
            [-0.0, 0.0, 1.0, -1.0],
        ],
    )
    def test_matches_scipy_rankdata(self, values):
        got = _average_ranks(np.asarray(values))
        np.testing.assert_array_equal(got, sp_stats.rankdata(values))

    def test_random_ties_match_scipy(self):
        rng = np.random.default_rng(33)
        for n in (2, 17, 500):
            values = np.round(rng.standard_normal(n), 1)
            got = _average_ranks(values)
            np.testing.assert_array_equal(got, sp_stats.rankdata(values))


class TestChiSquareTail:
    def test_matches_scipy(self):
        x = np.concatenate([[0.0], np.geomspace(1e-10, 1e4, 600)])
        for dof in range(1, 41):
            got = np.array([_chi2_sf(float(v), dof) for v in x])
            want = sp_stats.chi2.sf(x, dof)
            # below 1e-300 both are in or near the subnormal range
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("dof", [1, 2, 7, 40, 501])
    def test_huge_statistic_is_zero(self, dof):
        for x in (1e4, 1e6, 1e300, float(np.finfo(np.float64).max), np.inf):
            assert _chi2_sf(x, dof) == 0.0

    def test_edges(self):
        assert _chi2_sf(0.0, 3) == 1.0
        assert _chi2_sf(-1e-15, 2) == 1.0  # a rounding-negative statistic
        assert np.isnan(_chi2_sf(float("nan"), 2))


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
    out = {}
    for sid in manifest.subject_ids:
        for mod in (Modality.EEG, Modality.ECG, Modality.RESP):
            bump = labels[sid] if mod.name in signal else 0.0
            out[sid, "CVD", mod] = bump + noise * rng.standard_normal()
    return out


def _by_side(train_scores, test_scores, split):
    """One score lookup: ``train_scores`` for the training subjects and
    ``test_scores`` for the held-out ones."""
    return {k: v for k, v in train_scores.items() if k[0] in split.train_ids} | {
        k: v for k, v in test_scores.items() if k[0] in split.test_ids
    }


def _with_ineligible(tmp_path, n=50, seed=21):
    """``_manifest`` plus four subjects without bmi, who are never eligible."""
    manifest, labels = _manifest(tmp_path, n=n, seed=seed)
    path = tmp_path / "manifest.csv"
    extra = [f"X{i:03d},60,{i % 2},,120,0.1,{i % 2}" for i in range(4)]
    path.write_text(path.read_text() + "\n".join(extra) + "\n")
    labels.update({f"X{i:03d}": i % 2 for i in range(4)})
    return load_manifest(path), labels


class TestBuildFeatureMatrix:
    def test_complete_case_and_order(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=6)
        scores = {(sid, "CVD", Modality.EEG): float(i) for i, sid in enumerate(manifest.subject_ids)}
        del scores[("S003", "CVD", Modality.EEG)]  # force a dropped row
        fm, y, dropped = build_feature_matrix(
            manifest, scores, "CVD", (Modality.EEG, "age"), ["S005", "S000", "S003", "S001"]
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
            manifest, {}, "CVD", ("age",), ["A", "B"]
        )
        assert fm.subject_ids == ("A",)
        assert dropped == 1


class TestPredictorSets:
    """A predictor set's feature order is its design matrix's column order,
    which fixes each fit and so every cell of ``grid.csv``."""

    LABELS = {
        "EEG": ("score_EEG",),
        "ECG": ("score_ECG",),
        "Resp": ("score_RESP",),
        "EEG-ECG": ("score_EEG", "score_ECG"),
        "EEG-Resp": ("score_EEG", "score_RESP"),
        "ECG-Resp": ("score_ECG", "score_RESP"),
        "EEG-ECG-Resp": ("score_EEG", "score_ECG", "score_RESP"),
        "Baseline": ("age", "sex", "bmi"),
        "FRS Score": ("frs",),
        "FRS Score Composite": ("score_EEG", "score_ECG", "score_RESP", "frs"),
        "Composite": ("score_EEG", "score_ECG", "score_RESP", "age", "sex", "bmi"),
    }

    def test_design_matrix_labels_in_order(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=8)
        scores = _scores_for(manifest, labels)
        assert list(PREDICTOR_SETS) == list(self.LABELS)
        for name, features in PREDICTOR_SETS.items():
            fm, _, dropped = build_feature_matrix(manifest, scores, "CVD", features, manifest.subject_ids)
            assert fm.feature_names == self.LABELS[name], name
            assert (fm.values.shape, dropped) == ((8, len(features)), 0), name

    def test_or_model_labels(self, tmp_path, monkeypatch):
        """The OR model adjusts the score for age, sex and bmi, in that order,
        and reports the score's ratio."""
        manifest, labels = _manifest(tmp_path, n=40, seed=2)
        scores = _scores_for(manifest, labels)
        split = split_cohort(manifest, ratio=0.8, seed=0)
        fitted = []

        def recording_fit(x, y, outcome=""):
            fitted.append(x.feature_names)
            return fit_logistic(x, y, outcome)

        monkeypatch.setattr(stats, "fit_logistic", recording_fit)
        report = odds_ratio_report(scores, manifest, split)
        assert fitted == [(f"score_{m.name}", "age", "sex", "bmi") for m in Modality]
        assert list(report) == [("CVD", m) for m in Modality]


class TestEvaluateGrid:
    def test_structure_and_signal(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=60, seed=5)
        train_scores = _scores_for(manifest, labels, signal=("EEG",), noise=0.15, seed=6)
        test_scores = _scores_for(manifest, labels, signal=("EEG",), noise=0.15, seed=7)
        split = split_cohort(manifest, ratio=0.6, seed=0)
        grid = evaluate_grid(_by_side(train_scores, test_scores, split), manifest, split)
        assert list(grid) == [(name, "CVD") for name in PREDICTOR_SETS]
        eeg = grid[("EEG", "CVD")]
        resp = grid[("Resp", "CVD")]
        assert isinstance(eeg, float) and eeg > 0.9
        assert isinstance(resp, float) and abs(resp - 0.5) < 0.35

    def test_csv_layout(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=30, seed=8)
        scores = _scores_for(manifest, labels)
        split = split_cohort(manifest, ratio=0.6, seed=0)
        grid = evaluate_grid(scores, manifest, split)
        lines = _grid_text(grid, tmp_path).splitlines()
        assert lines[0] == "predictor_set,CVD"
        assert len(lines) == 1 + len(PREDICTOR_SETS)
        name, cell = lines[1].split(",")
        assert name == "EEG"
        assert 0.0 <= float(cell) <= 1.0 and len(cell.split(".")[1]) == 3

    def test_na_single_class_train(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=20, seed=9, outcome_of=lambda i: 0)
        scores = _scores_for(manifest, labels)
        split = split_cohort(manifest, ratio=0.5, seed=0)
        grid = evaluate_grid(scores, manifest, split)
        assert grid[("EEG", "CVD")] == "NA:single_class_train"

    def test_na_collinear(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=30, seed=10)
        rng = np.random.default_rng(3)
        scores = {}
        for sid in manifest.subject_ids:
            val = labels[sid] + 0.2 * rng.standard_normal()
            for mod in (Modality.EEG, Modality.ECG, Modality.RESP):
                scores[sid, "CVD", mod] = val  # identical columns
        split = split_cohort(manifest, ratio=0.6, seed=0)
        grid = evaluate_grid(scores, manifest, split)
        assert grid[("EEG-ECG", "CVD")] == "NA:collinear"
        assert isinstance(grid[("EEG", "CVD")], float)

    def test_standardize_leaves_auc_unchanged(self, tmp_path):
        """Standardizing features is an affine reparameterization, so the
        fitted probabilities -- and hence every AUC -- are unchanged."""
        manifest, labels = _manifest(tmp_path, n=50, seed=11)
        train_scores = _scores_for(manifest, labels, seed=12)
        test_scores = _scores_for(manifest, labels, seed=13)
        split = split_cohort(manifest, ratio=0.6, seed=0)
        scores = _by_side(train_scores, test_scores, split)
        plain = evaluate_grid(scores, manifest, split)
        scaled = evaluate_grid(scores, manifest, split, standardize=True)
        for key, value in plain.items():
            other = scaled[key]
            if isinstance(value, float) and isinstance(other, float):
                assert other == pytest.approx(value, abs=1e-6), key

    def test_unknown_outcome_rejected(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=10)
        split = split_cohort(manifest, ratio=0.5, seed=0)
        with pytest.raises(DataError):
            evaluate_grid({}, manifest, split, outcomes=("Dementia",))


class TestSplitInsideStats:
    """evaluate_grid and odds_ratio_report take the whole score lookup and
    keep only the subjects of the split that are eligible."""

    def test_grid_of_full_list_equals_grid_of_split_subjects(self, tmp_path):
        manifest, labels = _with_ineligible(tmp_path)
        scores = _scores_for(manifest, labels, signal=("EEG", "ECG"), seed=22)
        split = split_cohort(manifest, ratio=0.6, seed=0)
        members = (split.train_ids | split.test_ids) & set(manifest.eligible_ids())
        assert len({sid for sid, _, _ in scores} - members) == 4
        grid = evaluate_grid(scores, manifest, split)
        assert grid == evaluate_grid({k: v for k, v in scores.items() if k[0] in members}, manifest, split)
        assert isinstance(grid[("EEG", "CVD")], float)

    def test_or_rows_of_full_list_equal_rows_of_training_scores(self, tmp_path):
        manifest, labels = _with_ineligible(tmp_path)
        scores = _scores_for(manifest, labels, signal=("EEG", "ECG", "RESP"), seed=23)
        split = split_cohort(manifest, ratio=0.7, seed=0)
        rows = odds_ratio_report(scores, manifest, split)
        assert len(rows) == 3
        train_scores = {k: v for k, v in scores.items() if k[0] in split.train_ids}
        assert odds_ratio_report(train_scores, manifest, split) == rows

    def test_held_out_scores_and_labels_do_not_move_or_rows(self, tmp_path):
        manifest, labels = _with_ineligible(tmp_path)
        scores = _scores_for(manifest, labels, signal=("EEG", "ECG", "RESP"), seed=24)
        split = split_cohort(manifest, ratio=0.7, seed=0)
        rows = odds_ratio_report(scores, manifest, split)
        assert len(rows) == 3

        flipped = tmp_path / "flipped.csv"
        lines = (tmp_path / "manifest.csv").read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            if line.split(",", 1)[0] in split.test_ids:
                lines[i] = f"{line[:-1]}{1 - int(line[-1])}"
        flipped.write_text("\n".join(lines) + "\n")
        relabelled = load_manifest(flipped)
        for sid in split.test_ids:
            assert relabelled.rows[sid].outcomes["CVD"] == 1 - labels[sid]
        rng = np.random.default_rng(25)
        rescored = {
            k: 10.0 * rng.standard_normal() if k[0] in split.test_ids else v for k, v in scores.items()
        }
        assert odds_ratio_report(scores, relabelled, split) == rows
        assert odds_ratio_report(rescored, manifest, split) == rows
        assert odds_ratio_report(rescored, relabelled, split) == rows


class TestOrReport:
    def test_signal_is_significant(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=80, seed=14)
        scores = _scores_for(manifest, labels, signal=("EEG", "ECG", "RESP"), noise=0.6, seed=15)
        split = split_cohort(manifest, ratio=0.8, seed=0)
        report = odds_ratio_report(scores, manifest, split)
        assert list(report) == [("CVD", m) for m in Modality]
        for r in report.values():
            assert r.feature.startswith("score_")
            assert r.odds_ratio > 1.0
            assert r.p_value < 0.05

    def test_csv_format(self, tmp_path):
        manifest, labels = _manifest(tmp_path, n=40, seed=16)
        scores = _scores_for(manifest, labels, seed=17)
        split = split_cohort(manifest, ratio=0.8, seed=0)
        rows = odds_ratio_report(scores, manifest, split)
        out = tmp_path / "or.csv"
        save_or_report(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "outcome,modality,OR,ci_low,ci_high,p,significant"
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "CVD" and first[1] in ("EEG", "ECG", "RESP")
        for line, r in zip(lines[1:], rows.values()):
            assert line.split(",")[6] == str(int(r.p_value < 0.05))


def _fixed_cohort():
    """A 60-subject cohort built in memory, with outcomes CVD and HTN, and a
    score for every (subject, outcome, modality): noise for EEG, a planted
    shift for ECG and a larger one for RESP. P58 has no bmi, so it is never
    eligible, and P59 has no HTN label."""
    rng = np.random.default_rng(31)
    rows = {}
    scores = {}
    for i in range(60):
        sid = f"P{i:02d}"
        labels = {"CVD": int(rng.integers(0, 2)), "HTN": int(rng.integers(0, 2))}
        if i == 59:
            labels["HTN"] = None
        bmi = None if i == 58 else 22.0 + i % 9
        rows[sid] = SubjectRow(sid, 45.0 + i % 25, i % 2, bmi, 118.0 + i % 11, 0.05 + 0.01 * (i % 6), labels)
        for outcome, label in labels.items():
            for k, mod in enumerate(Modality):
                shift = 0.6 * k * (label or 0)
                scores[sid, outcome, mod] = shift + float(rng.standard_normal())
    return CohortManifest(rows, ("CVD", "HTN")), scores


def _grid_text(cells, tmp_path) -> str:
    path = tmp_path / "grid.csv"
    save_grid(cells, path)
    return path.read_text(encoding="utf-8")


def _or_report_text(rows, tmp_path) -> str:
    path = tmp_path / "or_report.csv"
    save_or_report(rows, path)
    return path.read_text(encoding="utf-8")


class TestGridAndOrReportShareOneFit:
    """``evaluate_grid`` and ``odds_ratio_report`` fit on the same training
    subjects, and the OR report leaves out what the grid cannot fit."""

    @pytest.mark.parametrize("standardize", [False, True])
    def test_or_report_skips_the_cells_the_grid_marks_na(self, tmp_path, standardize):
        manifest, scores = _fixed_cohort()
        for row in manifest.rows.values():  # HTN is single-class everywhere
            row.outcomes["HTN"] = 0
        scores = {  # a constant ECG score is collinear with the intercept
            k: 1.0 if k[2] is Modality.ECG else v for k, v in scores.items()
        }
        split = split_cohort(manifest, ratio=0.7, seed=2)
        grid = evaluate_grid(scores, manifest, split, standardize=standardize)
        rows = odds_ratio_report(scores, manifest, split, standardize=standardize)
        assert grid[("EEG", "HTN")] == "NA:single_class_train"
        assert grid[("ECG", "CVD")] == "NA:collinear"
        fitted = {
            (outcome, modality)
            for outcome in manifest.outcome_names
            for modality, row_name in zip(Modality, ("EEG", "ECG", "Resp"))
            if isinstance(grid[(row_name, outcome)], float)
        }
        assert fitted == {("CVD", Modality.EEG), ("CVD", Modality.RESP)}
        assert list(rows) == [("CVD", Modality.EEG), ("CVD", Modality.RESP)]

    # Written by the code before the grid and the OR report shared a fit.
    # Standardizing is an affine change of the features: it leaves every AUC
    # and every Wald p as it is and moves only the ORs and their bounds.
    GRID_CSV = (
        "predictor_set,CVD,HTN\n"
        "EEG,0.208,0.569\n"
        "ECG,0.416,0.875\n"
        "Resp,0.922,0.847\n"
        "EEG-ECG,0.234,0.625\n"
        "EEG-Resp,0.753,0.861\n"
        "ECG-Resp,0.961,0.889\n"
        "EEG-ECG-Resp,0.779,0.903\n"
        "Baseline,0.844,0.500\n"
        "FRS Score,0.396,0.604\n"
        "FRS Score Composite,0.805,0.889\n"
        "Composite,0.831,0.944\n"
    )
    OR_CSV = {
        False: (
            "outcome,modality,OR,ci_low,ci_high,p,significant\n"
            "CVD,EEG,0.5965,0.2697,1.3194,0.202062,0\n"
            "CVD,ECG,2.0269,0.8987,4.5713,0.0886468,0\n"
            "CVD,RESP,3.5603,1.3314,9.5208,0.0113976,1\n"
            "HTN,EEG,0.8113,0.4184,1.5731,0.535881,0\n"
            "HTN,ECG,1.0245,0.5273,1.9905,0.943089,0\n"
            "HTN,RESP,8.7687,1.8772,40.9595,0.00576627,1\n"
        ),
        True: (
            "outcome,modality,OR,ci_low,ci_high,p,significant\n"
            "CVD,EEG,0.6040,0.2784,1.3105,0.202062,0\n"
            "CVD,ECG,1.8173,0.9137,3.6145,0.0886468,0\n"
            "CVD,RESP,3.5667,1.3319,9.5511,0.0113976,1\n"
            "HTN,EEG,0.8160,0.4286,1.5535,0.535881,0\n"
            "HTN,ECG,1.0233,0.5433,1.9276,0.943089,0\n"
            "HTN,RESP,14.4483,2.1698,96.2072,0.00576627,1\n"
        ),
    }

    @pytest.mark.parametrize("standardize", [False, True])
    def test_output_text_is_pinned(self, tmp_path, standardize):
        manifest, scores = _fixed_cohort()
        split = split_cohort(manifest, ratio=0.7, seed=2)
        grid = evaluate_grid(scores, manifest, split, standardize=standardize)
        rows = odds_ratio_report(scores, manifest, split, standardize=standardize)
        assert _grid_text(grid, tmp_path) == self.GRID_CSV
        assert _or_report_text(rows, tmp_path) == self.OR_CSV[standardize]
