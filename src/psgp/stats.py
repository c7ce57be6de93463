"""Downstream statistics: logistic models, odds ratios, AUC, rank tests,
and the predictor-set x outcome AUC grid.

A predictor set is a tuple of features. A feature is a ``Modality``, meaning
that modality's score for the outcome being fitted, or the name of a
manifest covariate; its design-matrix column is ``score_<MODALITY>`` or the
covariate's name. The scores arrive as one lookup,
``{(subject_id, outcome, Modality): score}``, as ``vectors.load_scores``
returns it.

The logistic fitter is iteratively reweighted least squares (Newton) with
step-halving; covariance is the inverse Fisher information at the optimum.
Confidence intervals use the fixed two-sided 95% normal quantile 1.959964.
Tail probabilities and ranks are numpy and ``math`` code: a Wald p is
``math.erfc``, a chi-square p the closed-form tail for integer degrees of
freedom, and ties share their average rank.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cohort import ADJUSTMENT_COVARIATES, CohortManifest, CohortSplit
from .errors import (
    CollinearityError,
    DataError,
    InsufficientClassError,
    NotConvergedError,
    SeparationWarning,
    UsageError,
)
from .signalio import Modality
from .tables import write_table

Z95 = 1.959964
_ALPHA = 0.05  # significance level of the odds-ratio report
_SEPARATION_BETA = 30.0
_MAX_ITER = 100  # Newton steps of one logistic fit
_TOL = 1e-10  # on the score, max |X^T (y - p)|


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


def fit_logistic(x: FeatureMatrix, y: np.ndarray, outcome: str = "") -> LogisticModel:
    """Newton/IRLS logistic regression with step-halving.

    Convergence: max |X^T (y - p)| < _TOL within _MAX_ITER steps. Perfect
    separation (diverging coefficients while deviance collapses) emits
    SeparationWarning and returns the partial fit flagged `separated`.
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
    it = 0
    for it in range(1, _MAX_ITER + 1):
        eta = X @ beta
        p = _sigmoid(eta)
        w = np.maximum(p * (1.0 - p), 1e-12)
        score = X.T @ (y - p)
        if np.max(np.abs(score)) < _TOL:
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
                break  # diverging: the verdict below holds at this beta
    p = _sigmoid(X @ beta)
    # One verdict at the final beta, however the loop ended: diverging
    # coefficients can also exit through the score check once the
    # probabilities saturate. A (near-)zero deviance (ll is that of the final
    # beta) means the fit is perfect, which only separation produces.
    separated = bool(
        -ll < 1e-6
        or (np.max(np.abs(beta)) > _SEPARATION_BETA and np.max(np.minimum(p, 1.0 - p)) < 1e-4)
    )
    if separated:
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
        else:
            p = math.erfc(abs(b / se) / math.sqrt(2.0))  # two-sided normal tail
        with np.errstate(over="ignore"):  # an infinite ratio or bound is a valid answer
            ratio, lo, hi = (float(np.exp(v)) for v in (b, b - Z95 * se, b + Z95 * se))
        out.append(OddsRatio(name, ratio, lo, hi, p))
    return out


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; each run of ties shares its mean rank."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], a.shape[0]]
    ranks = np.empty(a.shape[0])
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of a chi-square with integer ``dof`` >= 1.

    Closed form, with y = x / 2 and h = 0 for an even dof, 1/2 for an odd
    one: the sum of e^-y y^s / Gamma(s + 1) over s = h, h + 1, ... below
    dof / 2, plus erfc(sqrt(y)) when dof is odd. Each term is taken in log
    space with ``math.lgamma``, so a huge x gives 0.0.
    """
    if math.isnan(x):
        return math.nan
    y = x / 2.0
    if y <= 0.0:
        return 1.0
    if math.isinf(y):
        return 0.0
    log_y = math.log(y)
    h = (dof % 2) / 2.0
    total = math.erfc(math.sqrt(y)) if h else 0.0
    for j in range(dof // 2):
        s = j + h
        total += math.exp(s * log_y - y - math.lgamma(s + 1.0))
    return min(total, 1.0)


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
    ranks = _average_ranks(s)
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
    ranks = _average_ranks(pooled)
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
    return float(h), _chi2_sf(float(h), dof)


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
    return stat, _chi2_sf(stat, dof), dof


# --- predictor-set grid ------------------------------------------------

Feature = Modality | str  # a modality's score for the outcome, or a covariate name
Scores = Mapping[tuple[str, str, Modality], float]  # (subject_id, outcome, modality) -> score

PREDICTOR_SETS: dict[str, tuple[Feature, ...]] = {
    "EEG": (Modality.EEG,),
    "ECG": (Modality.ECG,),
    "Resp": (Modality.RESP,),
    "EEG-ECG": (Modality.EEG, Modality.ECG),
    "EEG-Resp": (Modality.EEG, Modality.RESP),
    "ECG-Resp": (Modality.ECG, Modality.RESP),
    "EEG-ECG-Resp": tuple(Modality),
    "Baseline": ADJUSTMENT_COVARIATES,
    "FRS Score": ("frs",),
    "FRS Score Composite": (*Modality, "frs"),
    "Composite": (*Modality, *ADJUSTMENT_COVARIATES),
}


def _feature_label(feature: Feature) -> str:
    """A feature's design-matrix column: ``score_<MODALITY>`` or the covariate."""
    return f"score_{feature.name}" if isinstance(feature, Modality) else feature


def build_feature_matrix(
    manifest: CohortManifest,
    scores: Scores,
    outcome: str,
    features: Sequence[Feature],
    subject_ids: Sequence[str],
) -> tuple[FeatureMatrix, np.ndarray, int]:
    """Complete-case design matrix over the given subjects.

    Rows missing the outcome label or any requested feature are dropped and
    counted. Subject order is the sorted id order, so results are independent
    of input ordering.
    """
    labels = manifest.outcome_labels(outcome)
    rows: list[list[float]] = []
    ys: list[float] = []
    kept: list[str] = []
    dropped = 0
    for sid in sorted(subject_ids):
        label = labels.get(sid)
        values = None if label is None else [
            scores.get((sid, outcome, f)) if isinstance(f, Modality) else manifest.rows[sid].covariate(f)
            for f in features
        ]
        if values is None or None in values:
            dropped += 1
            continue
        rows.append(values)
        ys.append(float(label))
        kept.append(sid)
    names = tuple(map(_feature_label, features))
    values = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(names))
    return FeatureMatrix(names, values, tuple(kept)), np.asarray(ys), dropped


_Side = tuple[FeatureMatrix, np.ndarray]  # one side's design matrix and 0/1 labels


def _standardized(sides: list[_Side]) -> list[_Side]:
    """Each side's features scaled by the mean and SD of the first side's."""
    train = sides[0][0].values
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return [(FeatureMatrix(x.feature_names, (x.values - mean) / std, x.subject_ids), y) for x, y in sides]


def _fit_on_train(
    manifest, scores, outcome, features, train_ids, test_ids, standardize
) -> tuple[LogisticModel, list[_Side]] | str:
    """Fit ``features`` for ``outcome`` on the training subjects.

    Returns the model with each side's matrix and labels, train first (the
    test side only when ``test_ids`` is given), or "NA:<reason>" when a side
    has no rows or one class, or the design is collinear. Separated fits are
    returned as fitted, without their warning.
    """
    sides: list[_Side] = []
    for name, ids in (("train", train_ids), ("test", test_ids)):
        if ids is None:
            continue
        x, y, _ = build_feature_matrix(manifest, scores, outcome, features, ids)
        if y.shape[0] == 0:
            return f"NA:no_{name}_rows"
        if np.unique(y).shape[0] < 2:
            return f"NA:single_class_{name}"
        sides.append((x, y))
    if standardize:
        sides = _standardized(sides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeparationWarning)
        try:
            return fit_logistic(*sides[0], outcome=outcome), sides
        except CollinearityError:
            return "NA:collinear"


def evaluate_grid(
    scores: Scores,
    manifest: CohortManifest,
    split: CohortSplit,
    outcomes: Sequence[str] | None = None,
    standardize: bool = False,
) -> dict[tuple[str, str], float | str]:
    """Fit every predictor set on the train split, report test-split AUC:
    ``{(predictor_set, outcome): AUC}``, in ``PREDICTOR_SETS`` order.

    ``scores`` may cover the whole cohort: only the subjects of each side of
    the split are read, and test labels are never touched during fitting.
    Unusable cells carry "NA:<reason>" instead of a number.
    """
    outs = tuple(outcomes) if outcomes is not None else manifest.outcome_names
    cells: dict[tuple[str, str], float | str] = {}
    for row_name, features in PREDICTOR_SETS.items():
        for outcome in outs:
            cell = _fit_on_train(
                manifest, scores, outcome, features, split.train_ids, split.test_ids, standardize
            )
            if not isinstance(cell, str):  # a fit, or already "NA:<reason>"
                model, (_, (x_te, y_te)) = cell
                cell = float(auc(predict_proba(model, x_te), y_te.astype(int)))
            cells[row_name, outcome] = cell
    return cells


def save_grid(cells: Mapping[tuple[str, str], float | str], path: Path | str) -> None:
    """A row per predictor set in ``PREDICTOR_SETS`` order and a column per
    outcome in key order; an AUC to three decimals, "NA:<reason>" as it is."""
    outcomes = tuple(dict.fromkeys(outcome for _, outcome in cells))
    text = {key: f"{v:.3f}" if isinstance(v, float) else v for key, v in cells.items()}
    rows = ([name] + [text[name, o] for o in outcomes] for name in PREDICTOR_SETS)
    write_table(path, ("predictor_set", *outcomes), rows)


def odds_ratio_report(
    scores: Scores,
    manifest: CohortManifest,
    split: CohortSplit,
    outcomes: Sequence[str] | None = None,
    modalities: Sequence[Modality] = tuple(Modality),
    standardize: bool = False,
) -> dict[tuple[str, Modality], OddsRatio]:
    """Per (outcome, modality), outcome by outcome: adjusted OR of the risk
    score, controlling for the adjustment covariates, fitted on the training
    subjects alone (``scores`` may cover the whole cohort). A cell the grid
    would mark "NA:<reason>" on its training side, or whose fit does not
    converge, has no entry."""
    outs = tuple(outcomes) if outcomes is not None else manifest.outcome_names
    report: dict[tuple[str, Modality], OddsRatio] = {}
    for outcome in outs:
        for modality in modalities:
            features = (modality, *ADJUSTMENT_COVARIATES)
            fit = _fit_on_train(manifest, scores, outcome, features, split.train_ids, None, standardize)
            if isinstance(fit, str):
                continue
            try:
                report[outcome, modality] = odds_ratios(fit[0], [_feature_label(modality)])[0]
            except NotConvergedError:
                continue
    return report


def save_or_report(report: Mapping[tuple[str, Modality], OddsRatio], path: Path | str) -> None:
    """One row per entry, in the given order; ``significant`` is 1 when p < 0.05."""
    header = ("outcome", "modality", "OR", "ci_low", "ci_high", "p", "significant")
    cells = (
        [outcome, modality.name, *(f"{v:.4f}" for v in (r.odds_ratio, r.ci_low, r.ci_high))]
        + [f"{r.p_value:.6g}", str(int(r.p_value < _ALPHA))]
        for (outcome, modality), r in report.items()
    )
    write_table(path, header, cells)
