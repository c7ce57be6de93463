"""Downstream statistics: logistic models, odds ratios, AUC, rank tests,
and the predictor-set x outcome AUC grid.

The logistic fitter is iteratively reweighted least squares (Newton) with
step-halving; covariance is the inverse Fisher information at the optimum.
Confidence intervals use the fixed two-sided 95% normal quantile 1.959964.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy.stats import chi2 as _chi2
from scipy.stats import norm as _norm
from scipy.stats import rankdata as _rankdata

from .cohort import CohortManifest, CohortSplit
from .errors import (
    CollinearityError,
    DataError,
    InsufficientClassError,
    NotConvergedError,
    SeparationWarning,
    UsageError,
)
from .signalio import Modality
from .vectors import SubjectScore

Z95 = 1.959964
_SEPARATION_BETA = 30.0


@dataclass
class FeatureMatrix:
    """Design matrix without the intercept column (added by the fitter)."""

    feature_names: tuple[str, ...]
    values: np.ndarray
    subject_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.feature_names = tuple(self.feature_names)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.feature_names):
            raise DataError(
                f"feature matrix shape {self.values.shape} does not match "
                f"{len(self.feature_names)} feature names"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("duplicate feature names")
        if not np.isfinite(self.values).all():
            raise DataError("feature matrix contains non-finite values")


@dataclass
class LogisticModel:
    outcome: str
    feature_names: tuple[str, ...]  # without intercept; beta[0] is intercept
    beta: np.ndarray
    cov: np.ndarray
    n_used: int
    n_dropped: int
    converged: bool
    iterations: int
    separated: bool = False


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # exp(-eta) overflows for eta < -709, where 0.0 is the right probability
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-eta))


def _log_likelihood(eta: np.ndarray, y: np.ndarray) -> float:
    # sum(y*eta - log(1 + exp(eta))), computed stably
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def fit_logistic(
    x: FeatureMatrix,
    y: np.ndarray,
    outcome: str = "",
    max_iter: int = 100,
    tol: float = 1e-10,
    n_dropped: int = 0,
) -> LogisticModel:
    """Newton/IRLS logistic regression with step-halving.

    Convergence: max |X^T (y - p)| < tol. Perfect separation (diverging
    coefficients while deviance collapses) emits SeparationWarning and
    returns the partial fit flagged `separated`.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.values.shape[0] != y.shape[0]:
        raise DataError("feature matrix and labels disagree on row count")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("labels must be 0/1")
    classes = np.unique(y)
    if classes.shape[0] < 2:
        raise InsufficientClassError(f"outcome {outcome!r}: labels are single-class")
    n = x.values.shape[0]
    X = np.column_stack([np.ones(n), x.values])
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise CollinearityError(
            f"outcome {outcome!r}: design matrix is rank-deficient (collinear columns)"
        )
    beta = np.zeros(X.shape[1])
    ll = _log_likelihood(X @ beta, y)
    converged = False
    separated = False
    it = 0
    for it in range(1, max_iter + 1):
        eta = X @ beta
        p = _sigmoid(eta)
        w = np.maximum(p * (1.0 - p), 1e-12)
        score = X.T @ (y - p)
        if np.max(np.abs(score)) < tol:
            converged = True
            break
        info = (X * w[:, None]).T @ X
        try:
            delta = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise CollinearityError(
                f"outcome {outcome!r}: singular information matrix at iteration {it}"
            ) from None
        step = 1.0
        for _ in range(40):
            cand = beta + step * delta
            cand_ll = _log_likelihood(X @ cand, y)
            if cand_ll >= ll - 1e-12:
                break
            step *= 0.5
        beta = beta + step * delta
        ll = _log_likelihood(X @ beta, y)
        if np.max(np.abs(beta)) > _SEPARATION_BETA:
            p_now = _sigmoid(X @ beta)
            if np.max(np.minimum(p_now, 1.0 - p_now)) < 1e-4 or -ll < 1e-6:
                separated = True
                warnings.warn(
                    f"outcome {outcome!r}: perfect separation detected; "
                    "coefficients are unbounded",
                    SeparationWarning,
                    stacklevel=2,
                )
                break
    eta = X @ beta
    p = _sigmoid(eta)
    ll_final = _log_likelihood(eta, y)
    # Diverging coefficients can also exit through the score check once the
    # probabilities saturate, so re-test at the final beta. A (near-)zero
    # deviance means the fit is perfect, which only separation produces.
    if not separated and (
        -ll_final < 1e-6
        or (np.max(np.abs(beta)) > _SEPARATION_BETA and np.max(np.minimum(p, 1.0 - p)) < 1e-4)
    ):
        separated = True
        warnings.warn(
            f"outcome {outcome!r}: perfect separation detected; "
            "coefficients are unbounded",
            SeparationWarning,
            stacklevel=2,
        )
    w = np.maximum(p * (1.0 - p), 1e-12)
    info = (X * w[:, None]).T @ X
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(info)
    cov = 0.5 * (cov + cov.T)
    return LogisticModel(
        outcome=outcome,
        feature_names=x.feature_names,
        beta=beta,
        cov=cov,
        n_used=n,
        n_dropped=n_dropped,
        converged=converged,
        iterations=it,
        separated=separated,
    )


def predict_proba(model: LogisticModel, x: FeatureMatrix) -> np.ndarray:
    if x.feature_names != model.feature_names:
        raise DataError("feature names do not match the fitted model")
    X = np.column_stack([np.ones(x.values.shape[0]), x.values])
    return _sigmoid(X @ model.beta)


@dataclass(frozen=True)
class OddsRatio:
    feature: str
    odds_ratio: float
    ci_low: float
    ci_high: float
    p_value: float


def odds_ratios(model: LogisticModel, features: Sequence[str] | None = None) -> list[OddsRatio]:
    """Wald odds ratios with fixed-z 95% intervals, intercept excluded."""
    if not model.converged and not model.separated:
        raise NotConvergedError(
            f"outcome {model.outcome!r}: model did not converge; odds ratios undefined"
        )
    names = list(features) if features is not None else list(model.feature_names)
    out = []
    for name in names:
        if name not in model.feature_names:
            raise DataError(f"model has no feature {name!r}")
        j = model.feature_names.index(name) + 1  # skip intercept
        b = float(model.beta[j])
        se = float(np.sqrt(max(model.cov[j, j], 0.0)))
        if se == 0.0:
            p = 1.0 if b == 0.0 else 0.0
            lo = hi = np.exp(b)
        else:
            z = b / se
            p = 2.0 * float(_norm.sf(abs(z)))
            with np.errstate(over="ignore"):  # an infinite bound is a valid answer
                lo = np.exp(b - Z95 * se)
                hi = np.exp(b + Z95 * se)
        out.append(OddsRatio(name, float(np.exp(b)), float(lo), float(hi), p))
    return out


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mann-Whitney AUC with half credit for ties (midrank method)."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape[0] != y.shape[0]:
        raise DataError("scores and labels disagree on length")
    if not np.isfinite(s).all():
        raise DataError("scores contain non-finite values")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0/1")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise InsufficientClassError("AUC needs both classes")
    ranks = _rankdata(s)  # average ranks on ties
    u = float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Kruskal-Wallis H with tie correction; p from the chi-square tail."""
    if len(groups) < 2:
        raise UsageError("Kruskal-Wallis needs at least two groups")
    arrays = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    if any(a.shape[0] == 0 for a in arrays):
        raise InsufficientClassError("Kruskal-Wallis groups must be non-empty")
    pooled = np.concatenate(arrays)
    if not np.isfinite(pooled).all():
        raise DataError("group values contain non-finite entries")
    n_total = pooled.shape[0]
    ranks = _rankdata(pooled)
    h = 0.0
    start = 0
    for a in arrays:
        r = ranks[start:start + a.shape[0]]
        h += r.sum() ** 2 / a.shape[0]
        start += a.shape[0]
    h = 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts**3 - counts).sum()))
    denom = 1.0 - tie_term / (n_total**3 - n_total)
    if denom <= 0.0:  # all values identical
        return 0.0, 1.0
    h /= denom
    dof = len(arrays) - 1
    return float(h), float(_chi2.sf(h, dof))


def chi_square(table, yates: bool = False) -> tuple[float, float, int]:
    """Pearson chi-square on an r x c count table; Yates correction optional
    (off by default). Returns (statistic, p, dof)."""
    obs = np.asarray(table, dtype=np.float64)
    if obs.ndim != 2 or obs.shape[0] < 2 or obs.shape[1] < 2:
        raise DataError("contingency table must be at least 2x2")
    if (obs < 0).any() or not np.isfinite(obs).all():
        raise DataError("contingency table must hold non-negative finite counts")
    row = obs.sum(axis=1)
    col = obs.sum(axis=0)
    if (row == 0).any() or (col == 0).any():
        raise InsufficientClassError("contingency table has a zero row or column margin")
    expected = np.outer(row, col) / obs.sum()
    diff = np.abs(obs - expected)
    if yates:
        diff = np.maximum(diff - 0.5, 0.0)
    stat = float((diff**2 / expected).sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return stat, float(_chi2.sf(stat, dof)), dof


# --- predictor-set grid ------------------------------------------------

SCORE = "score"
COV = "cov"

PREDICTOR_SETS: dict[str, tuple[tuple[str, object], ...]] = {
    "EEG": ((SCORE, Modality.EEG),),
    "ECG": ((SCORE, Modality.ECG),),
    "Resp": ((SCORE, Modality.RESP),),
    "EEG-ECG": ((SCORE, Modality.EEG), (SCORE, Modality.ECG)),
    "EEG-Resp": ((SCORE, Modality.EEG), (SCORE, Modality.RESP)),
    "ECG-Resp": ((SCORE, Modality.ECG), (SCORE, Modality.RESP)),
    "EEG-ECG-Resp": ((SCORE, Modality.EEG), (SCORE, Modality.ECG), (SCORE, Modality.RESP)),
    "Baseline": ((COV, "age"), (COV, "sex"), (COV, "bmi")),
    "FRS Score": ((COV, "frs"),),
    "FRS Score Composite": (
        (SCORE, Modality.EEG),
        (SCORE, Modality.ECG),
        (SCORE, Modality.RESP),
        (COV, "frs"),
    ),
    "Composite": (
        (SCORE, Modality.EEG),
        (SCORE, Modality.ECG),
        (SCORE, Modality.RESP),
        (COV, "age"),
        (COV, "sex"),
        (COV, "bmi"),
    ),
}


def _feature_label(kind: str, what) -> str:
    return f"score_{what.name}" if kind == SCORE else str(what)


def _score_lookup(scores: Sequence[SubjectScore]) -> dict[tuple[str, str, Modality], float]:
    return {(s.subject_id, s.outcome, s.modality): s.score for s in scores}


def build_feature_matrix(
    manifest: CohortManifest,
    scores: Mapping[tuple[str, str, Modality], float],
    outcome: str,
    spec: Sequence[tuple[str, object]],
    subject_ids: Sequence[str],
) -> tuple[FeatureMatrix, np.ndarray, int]:
    """Complete-case design matrix over the given subjects.

    Rows missing the outcome label or any requested feature are dropped and
    counted. Subject order is the sorted id order, so results are independent
    of input ordering.
    """
    labels = manifest.outcome_labels(outcome)
    names = tuple(_feature_label(kind, what) for kind, what in spec)
    rows: list[list[float]] = []
    ys: list[float] = []
    kept: list[str] = []
    dropped = 0
    for sid in sorted(subject_ids):
        label = labels.get(sid)
        if label is None:
            dropped += 1
            continue
        feats: list[float] = []
        ok = True
        for kind, what in spec:
            if kind == SCORE:
                val = scores.get((sid, outcome, what))
            else:
                val = manifest.rows[sid].covariate(str(what))
            if val is None:
                ok = False
                break
            feats.append(float(val))
        if not ok:
            dropped += 1
            continue
        rows.append(feats)
        ys.append(float(label))
        kept.append(sid)
    values = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(names))
    return FeatureMatrix(names, values, tuple(kept)), np.asarray(ys), dropped


@dataclass
class AucGrid:
    predictor_sets: tuple[str, ...]
    outcomes: tuple[str, ...]
    cells: dict[tuple[str, str], float | str]  # float AUC or "NA:<reason>"

    def to_csv(self) -> str:
        lines = ["predictor_set," + ",".join(self.outcomes)]
        for row in self.predictor_sets:
            cells = []
            for outcome in self.outcomes:
                value = self.cells[(row, outcome)]
                cells.append(f"{value:.3f}" if isinstance(value, float) else value)
            lines.append(row + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def _standardized(
    train: FeatureMatrix, test: FeatureMatrix
) -> tuple[FeatureMatrix, FeatureMatrix]:
    mean = train.values.mean(axis=0)
    std = train.values.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (
        FeatureMatrix(train.feature_names, (train.values - mean) / std, train.subject_ids),
        FeatureMatrix(test.feature_names, (test.values - mean) / std, test.subject_ids),
    )


def evaluate_grid(
    train_scores: Sequence[SubjectScore],
    test_scores: Sequence[SubjectScore],
    manifest: CohortManifest,
    split: CohortSplit,
    predictor_sets: Mapping[str, tuple] | None = None,
    outcomes: Sequence[str] | None = None,
    standardize: bool = False,
) -> AucGrid:
    """Fit every predictor set on the train split, report test-split AUC.

    Only eligible subjects enter either side; test labels are never touched
    during fitting. Unusable cells carry "NA:<reason>" instead of a number.
    """
    sets = dict(predictor_sets) if predictor_sets is not None else PREDICTOR_SETS
    outs = tuple(outcomes) if outcomes is not None else manifest.outcome_names
    for outcome in outs:
        if outcome not in manifest.outcome_names:
            raise DataError(f"manifest has no outcome {outcome!r}")
    eligible = set(manifest.eligible_ids())
    train_ids = sorted(split.train_ids & eligible)
    test_ids = sorted(split.test_ids & eligible)
    tr_lookup = _score_lookup(train_scores)
    te_lookup = _score_lookup(test_scores)
    cells: dict[tuple[str, str], float | str] = {}
    for row_name, spec in sets.items():
        for outcome in outs:
            cells[(row_name, outcome)] = _grid_cell(
                manifest, tr_lookup, te_lookup, outcome, spec, train_ids, test_ids, standardize
            )
    return AucGrid(tuple(sets), outs, cells)


def _grid_cell(
    manifest, tr_lookup, te_lookup, outcome, spec, train_ids, test_ids, standardize
) -> float | str:
    x_tr, y_tr, _ = build_feature_matrix(manifest, tr_lookup, outcome, spec, train_ids)
    if y_tr.shape[0] == 0:
        return "NA:no_train_rows"
    if np.unique(y_tr).shape[0] < 2:
        return "NA:single_class_train"
    x_te, y_te, _ = build_feature_matrix(manifest, te_lookup, outcome, spec, test_ids)
    if y_te.shape[0] == 0:
        return "NA:no_test_rows"
    if np.unique(y_te).shape[0] < 2:
        return "NA:single_class_test"
    if standardize:
        x_tr, x_te = _standardized(x_tr, x_te)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeparationWarning)
        try:
            model = fit_logistic(x_tr, y_tr, outcome=outcome)
        except CollinearityError:
            return "NA:collinear"
    probs = predict_proba(model, x_te)
    return float(auc(probs, y_te.astype(int)))


@dataclass(frozen=True)
class OrReportRow:
    outcome: str
    modality: Modality
    odds_ratio: float
    ci_low: float
    ci_high: float
    p_value: float
    significant: bool


def odds_ratio_report(
    train_scores: Sequence[SubjectScore],
    manifest: CohortManifest,
    split: CohortSplit,
    outcomes: Sequence[str] | None = None,
    modalities: Sequence[Modality] = (Modality.EEG, Modality.ECG, Modality.RESP),
    standardize: bool = False,
    alpha: float = 0.05,
) -> list[OrReportRow]:
    """Per (outcome, modality): adjusted OR of the risk score, controlling
    for age, sex and bmi, fitted on the training split."""
    outs = tuple(outcomes) if outcomes is not None else manifest.outcome_names
    eligible = set(manifest.eligible_ids())
    train_ids = sorted(split.train_ids & eligible)
    lookup = _score_lookup(train_scores)
    rows: list[OrReportRow] = []
    for outcome in outs:
        for modality in modalities:
            spec = ((SCORE, modality), (COV, "age"), (COV, "sex"), (COV, "bmi"))
            x_tr, y_tr, _ = build_feature_matrix(manifest, lookup, outcome, spec, train_ids)
            if y_tr.shape[0] == 0 or np.unique(y_tr).shape[0] < 2:
                continue
            if standardize:
                x_tr, _ = _standardized(x_tr, x_tr)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SeparationWarning)
                try:
                    model = fit_logistic(x_tr, y_tr, outcome=outcome)
                    result = odds_ratios(model, [f"score_{modality.name}"])[0]
                except (CollinearityError, NotConvergedError):
                    continue
            rows.append(
                OrReportRow(
                    outcome,
                    modality,
                    result.odds_ratio,
                    result.ci_low,
                    result.ci_high,
                    result.p_value,
                    result.p_value < alpha,
                )
            )
    return rows


def save_or_report(rows: Sequence[OrReportRow], path: Path | str) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["outcome", "modality", "OR", "ci_low", "ci_high", "p", "significant"])
        for r in rows:
            writer.writerow(
                [
                    r.outcome,
                    r.modality.name,
                    f"{r.odds_ratio:.4f}",
                    f"{r.ci_low:.4f}",
                    f"{r.ci_high:.4f}",
                    f"{r.p_value:.6g}",
                    "1" if r.significant else "0",
                ]
            )
