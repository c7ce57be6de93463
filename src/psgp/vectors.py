"""Disease directions in embedding space and projection-based risk scores.

A modality's embeddings are one ``EmbeddingTable``: (N,) subject ids and the
(N, d) unit-norm segment embeddings. For one (outcome, modality) pair the
direction is the normalized difference of the segment-weighted centroids of
positive and of negative training subjects (two masked sums); a subject's
score is the mean of their top min(3, available) projections onto it (one
matrix product per modality, no thread pool).

A run's disease vectors are one ``tables`` table, ``vectors.csv``: a row per
(outcome, modality), each array one cell of space-joined ``.17g`` decimals,
so ``load_disease_vector`` reads back every float exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cohort import CohortManifest, check_name
from .errors import (
    DataError,
    DegenerateDirectionError,
    FormatError,
    InsufficientClassError,
    UnknownOutcomeError,
)
from .signalio import Modality
from .tables import DECIMAL, is_count, table_rows, write_table

_DIRECTION_FLOOR = 1e-10
_SCORE_HEADER = ("subject_id", "outcome", "modality", "score", "n_segments_used")
_ARRAYS = ("vector", "mu_positive", "mu_negative")
_VECTOR_HEADER = ("outcome", "modality", "n_positive", "n_negative", *_ARRAYS)

EmbeddingTable = tuple[np.ndarray, np.ndarray]  # (subject_ids, X)
RowGroups = tuple[list[str], np.ndarray]  # (sorted distinct subject ids, each row's index into them)


@dataclass(frozen=True)
class DiseaseVector:
    outcome: str
    modality: Modality
    vector: np.ndarray = field(repr=False)
    mu_positive: np.ndarray = field(repr=False)
    mu_negative: np.ndarray = field(repr=False)
    n_positive: int
    n_negative: int

    def __post_init__(self) -> None:
        for name in ("vector", "mu_positive", "mu_negative"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise DataError(f"disease vector {name} has non-finite components")
            object.__setattr__(self, name, arr)
        if self.vector.ndim != 1:
            raise DataError("disease vector must be one-dimensional")
        if self.mu_positive.shape != self.vector.shape or self.mu_negative.shape != self.vector.shape:
            raise DataError("centroid dimensions disagree with the vector")
        if self.n_positive < 1 or self.n_negative < 1:
            raise InsufficientClassError("both classes must contribute at least one subject")
        if abs(float(np.linalg.norm(self.vector)) - 1.0) > 1e-9:
            raise DataError("disease vector must be unit-norm")


@dataclass(frozen=True)
class SubjectScore:
    subject_id: str
    outcome: str
    modality: Modality
    score: float
    n_segments_used: int


def group_rows(subject_ids) -> RowGroups:
    """Sorted distinct subject ids and each row's index into them."""
    ids, inverse = np.unique(np.asarray(subject_ids, dtype=str), return_inverse=True)
    return ids.tolist(), inverse


def compute_centroids(X, labels: Mapping[str, int | None], groups: RowGroups) -> tuple[np.ndarray, np.ndarray]:
    """Segment-weighted class means of the rows of X, in float64.

    ``groups`` is ``group_rows`` of the rows' subject ids. Rows of subjects
    with a missing label for this outcome are skipped. Each class sums its
    rows subject by subject in id order, then in table order.
    """
    ids, inverse = groups
    X = np.asarray(X)
    classes = np.array([-1 if labels.get(sid) is None else labels[sid] for sid in ids], dtype=np.int8)
    order = np.argsort(inverse, kind="stable")
    row_class = classes[inverse[order]]
    pos = X[order[row_class == 1]].astype(np.float64)
    neg = X[order[row_class == 0]].astype(np.float64)
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise InsufficientClassError(
            f"centroids need both classes (got {pos.shape[0]} positive, {neg.shape[0]} negative segments)"
        )
    return pos.sum(axis=0) / pos.shape[0], neg.sum(axis=0) / neg.shape[0]


def derive_disease_vector(
    mu_positive: np.ndarray,
    mu_negative: np.ndarray,
    outcome: str,
    modality: Modality,
    n_positive: int = 1,
    n_negative: int = 1,
) -> DiseaseVector:
    mu_positive = np.asarray(mu_positive, dtype=np.float64)
    mu_negative = np.asarray(mu_negative, dtype=np.float64)
    diff = mu_positive - mu_negative
    norm = float(np.linalg.norm(diff))
    if norm < _DIRECTION_FLOOR:
        raise DegenerateDirectionError(
            f"{outcome}/{modality.name}: class centroids coincide (|diff|={norm:.3e})"
        )
    return DiseaseVector(
        outcome=outcome,
        modality=modality,
        vector=diff / norm,
        mu_positive=mu_positive,
        mu_negative=mu_negative,
        n_positive=n_positive,
        n_negative=n_negative,
    )


def project_segment(embedding: np.ndarray, vector: DiseaseVector) -> float:
    vec = np.asarray(embedding, dtype=np.float64)
    if vec.shape != vector.vector.shape:
        raise DataError(f"embedding dimension {vec.shape} does not match vector {vector.vector.shape}")
    return float(vec @ vector.vector)


def subject_score(segment_projections: Sequence[float]) -> tuple[float, int]:
    """Mean of the top min(3, n) projections; returns (score, n_used)."""
    if len(segment_projections) == 0:
        raise InsufficientClassError("subject has no segment projections")
    arr = np.sort(np.asarray(segment_projections, dtype=np.float64))[::-1]
    k = min(3, arr.shape[0])
    return float(arr[:k].mean()), k


def derive_vectors(
    tables: Mapping[Modality, EmbeddingTable],
    manifest: CohortManifest,
    train_ids: Iterable[str],
    outcomes: Sequence[str],
    modalities: Sequence[Modality],
) -> list[DiseaseVector]:
    """Centroid-difference vectors from training subjects only, one per
    (outcome, modality), outcome by outcome; each table is grouped by
    subject once."""
    train = set(train_ids)
    rows = {m: tables.get(m, ((), np.empty((0, 0)))) for m in modalities}  # no table: no rows
    groups = {m: group_rows(subject_ids) for m, (subject_ids, _) in rows.items()}
    vectors = []
    for outcome in outcomes:
        if outcome not in manifest.outcome_names:
            raise UnknownOutcomeError(f"manifest has no outcome {outcome!r}")
        labels = {s: y for s, y in manifest.outcome_labels(outcome).items() if s in train and y is not None}
        for modality in modalities:
            classes = [labels[sid] for sid in groups[modality][0] if sid in labels]
            n_positive = sum(classes)
            n_negative = len(classes) - n_positive
            if n_positive == 0 or n_negative == 0:
                raise InsufficientClassError(
                    f"{outcome}/{modality.name}: training split has {n_positive} positive and "
                    f"{n_negative} negative subjects with embeddings"
                )
            mu_pos, mu_neg = compute_centroids(rows[modality][1], labels, groups[modality])
            vectors.append(derive_disease_vector(mu_pos, mu_neg, outcome, modality, n_positive, n_negative))
    return vectors


def score_cohort(
    tables: Mapping[Modality, EmbeddingTable],
    vectors: Sequence[DiseaseVector],
    manifest: CohortManifest,
) -> list[SubjectScore]:
    """Project every manifest subject's rows onto every disease vector.

    Rows of subjects outside the manifest are ignored; a subject without rows
    for a modality gets no score for its vectors. Labels are not needed.
    Scores come out by subject id, then in the order of ``vectors``.
    """
    for vec in vectors:
        if vec.outcome not in manifest.outcome_names:
            raise UnknownOutcomeError(f"manifest has no outcome {vec.outcome!r}")
    found: list[tuple[str, int, float, int]] = []
    for modality, (subject_ids, X) in tables.items():
        picked = [j for j, vec in enumerate(vectors) if vec.modality is modality]
        if not picked:
            continue
        V = np.stack([vectors[j].vector for j in picked], axis=1)
        X = np.asarray(X)
        if X.shape[1] != V.shape[0]:
            raise DataError(f"{modality.name} embeddings have dimension {X.shape[1]}, vectors {V.shape[0]}")
        ids, inverse = group_rows(subject_ids)
        keep = np.array([sid in manifest.rows for sid in ids], dtype=bool)[inverse]
        group = inverse[keep]
        projections = X[keep].astype(np.float64) @ V
        counts = np.bincount(group, minlength=len(ids))
        present = np.flatnonzero(counts)
        used = np.minimum(counts[present], 3)
        # where each subject's three best rows land once rows are ranked by
        # subject, then by projection; a slot past its last row is not averaged
        first = (np.cumsum(counts) - counts)[present]
        slots = np.minimum(first[:, None] + np.arange(3), group.shape[0] - 1)
        for col, j in enumerate(picked):
            top = projections[np.lexsort((-projections[:, col], group)), col][slots]
            score = np.empty(present.shape[0])
            for k in (1, 2, 3):  # a k-wide row mean adds like subject_score's
                score[used == k] = top[used == k, :k].mean(axis=1)
            found.extend((ids[s], j, v, k) for s, v, k in zip(present, score.tolist(), used.tolist()))
    found.sort(key=lambda f: f[:2])
    return [SubjectScore(sid, vectors[j].outcome, vectors[j].modality, v, k) for sid, j, v, k in found]


# --- on-disk formats ---------------------------------------------------

def save_disease_vector(vectors: Sequence[DiseaseVector], path: Path | str) -> None:
    """One row per vector, in the given order; each array is one cell of
    space-joined ``.17g`` decimals, so ``load_disease_vector`` is exact."""
    def cell(arr: np.ndarray) -> str:
        return " ".join(format(float(x), ".17g") for x in arr)

    rows = (
        [v.outcome, v.modality.name, str(v.n_positive), str(v.n_negative)]
        + [cell(v.vector), cell(v.mu_positive), cell(v.mu_negative)]
        for v in vectors
    )
    write_table(path, _VECTOR_HEADER, rows)


def load_disease_vector(path: Path | str) -> list[DiseaseVector]:
    """The vectors of a table ``save_disease_vector`` wrote, in row order."""
    vectors: dict[tuple[str, Modality], DiseaseVector] = {}
    rows = table_rows(Path(path), _VECTOR_HEADER, FormatError)
    for where, (outcome, name, n_pos, n_neg, *cells) in rows:
        check_name("outcome", outcome, FormatError, where)
        modality = Modality.__members__.get(name)  # the exact name, as written
        if modality is None:
            raise FormatError(f"{where}: unknown modality name {name!r}")
        for column, count in (("n_positive", n_pos), ("n_negative", n_neg)):
            if not is_count(count):
                raise FormatError(f"{where}: {column} {count!r} is not a non-negative integer")
        arrays = [cell.split(" ") for cell in cells]
        for column, tokens in zip(_ARRAYS, arrays):
            bad = next((t for t in tokens if not DECIMAL.fullmatch(t)), None)
            if bad is not None:
                raise FormatError(f"{where}: {column} component {bad!r} is not a decimal number")
        if (outcome, modality) in vectors:
            raise FormatError(f"{where} repeats the row for {outcome}, {modality.name}")
        try:
            vectors[outcome, modality] = DiseaseVector(
                outcome, modality, *([float(t) for t in a] for a in arrays), int(n_pos), int(n_neg)
            )
        except DataError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return list(vectors.values())


def save_scores(scores: Sequence[SubjectScore], path: Path | str) -> None:
    rows = (
        [s.subject_id, s.outcome, s.modality.name, format(s.score, ".12g"), str(s.n_segments_used)]
        for s in sorted(scores, key=lambda s: (s.subject_id, s.outcome, s.modality.name))
    )
    write_table(path, _SCORE_HEADER, rows)


def load_scores(path: Path | str) -> list[SubjectScore]:
    rows: dict[tuple[str, str, str], SubjectScore] = {}
    for where, (sid, outcome, name, score, used) in table_rows(Path(path), _SCORE_HEADER, FormatError):
        if not DECIMAL.fullmatch(score) or not math.isfinite(float(score)):
            raise FormatError(f"{where}: score {score!r} is not a finite decimal number")
        if not (is_count(used) and int(used) >= 1):
            raise FormatError(f"{where}: n_segments_used {used!r} is not a positive integer")
        modality = Modality.__members__.get(name)  # the exact name, as written
        if modality is None:
            raise FormatError(f"{where}: unknown modality name {name!r}")
        key = (sid, outcome, modality.name)
        if key in rows:
            raise FormatError(f"{where} repeats the row for {sid}, {outcome}, {modality.name}")
        rows[key] = SubjectScore(sid, outcome, modality, float(score), int(used))
    return list(rows.values())
