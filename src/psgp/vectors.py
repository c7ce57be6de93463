"""Disease directions in embedding space and projection-based risk scores.

A modality's embeddings are one ``EmbeddingTable``: (N,) subject ids and the
(N, d) unit-norm segment embeddings. For one (outcome, modality) pair the
direction is the normalized difference of the segment-weighted centroids of
positive and of negative training subjects (two masked sums); a subject's
score is the mean of their top min(3, available) projections onto it (one
product per chunk of a modality's table, no thread pool).

A run's disease vectors are one ``tables`` table, ``vectors.csv``: a row per
(outcome, modality), each array one cell of space-joined ``.17g`` decimals,
so ``load_disease_vector`` reads back every float exactly.
"""
from __future__ import annotations

import math
from itertools import repeat
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
# rows a class adds per block in compute_centroids; bounds its float64 copy
_SUM_ROWS = 256
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
    pos, neg = order[row_class == 1], order[row_class == 0]
    if pos.size == 0 or neg.size == 0:
        raise InsufficientClassError(
            f"centroids need both classes (got {pos.size} positive, {neg.size} negative segments)"
        )
    return _row_sum(X, pos) / pos.size, _row_sum(X, neg) / neg.size


def _row_sum(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``X[rows].astype(np.float64).sum(axis=0)``, ``_SUM_ROWS`` rows at a time.

    numpy adds the rows of a 2-D array one after another, so a block headed
    by the running sum makes every addition the whole sum makes; one column
    it adds pairwise, so a one-column table is summed whole.
    """
    if X.shape[1] == 1:
        return X[rows].astype(np.float64).sum(axis=0)
    total = X[rows[:_SUM_ROWS]].astype(np.float64).sum(axis=0)
    block = np.empty((_SUM_ROWS + 1, X.shape[1]))
    for start in range(_SUM_ROWS, rows.size, _SUM_ROWS):
        part = rows[start:start + _SUM_ROWS]
        block[0] = total
        block[1:part.size + 1] = X[part]
        total = block[:part.size + 1].sum(axis=0)
    return total


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
    (outcome, modality), outcome by outcome.

    Each table is looked up once, in ``modalities`` order, grouped by subject
    and summed for every outcome, and let go before the next lookup, so a
    mapping that reads a table when it is looked up holds one at a time.
    """
    for outcome in outcomes:
        if outcome not in manifest.outcome_names:
            raise UnknownOutcomeError(f"manifest has no outcome {outcome!r}")
    train = set(train_ids)
    labels = {
        o: {s: y for s, y in manifest.outcome_labels(o).items() if s in train and y is not None}
        for o in outcomes
    }
    no_rows = ((), np.empty((0, 0)))
    sums = {m: _class_centroids(tables.get(m, no_rows), labels) for m in modalities}
    vectors = []
    for outcome in outcomes:
        for modality in modalities:
            n_positive, n_negative, centroids = sums[modality][outcome]
            if centroids is None:
                raise InsufficientClassError(
                    f"{outcome}/{modality.name}: training split has {n_positive} positive and "
                    f"{n_negative} negative subjects with embeddings"
                )
            vectors.append(derive_disease_vector(*centroids, outcome, modality, n_positive, n_negative))
    return vectors


def _class_centroids(
    table: EmbeddingTable, labels: Mapping[str, Mapping[str, int]]
) -> dict[str, tuple[int, int, tuple[np.ndarray, np.ndarray] | None]]:
    """Per outcome: the table's positive and negative subject counts and, if
    both are non-zero, ``compute_centroids``."""
    subject_ids, X = table
    groups = group_rows(subject_ids)
    sums = {}
    for outcome, outcome_labels in labels.items():
        classes = [outcome_labels[sid] for sid in groups[0] if sid in outcome_labels]
        n_positive = sum(classes)
        n_negative = len(classes) - n_positive
        both = n_positive and n_negative
        sums[outcome] = n_positive, n_negative, compute_centroids(X, outcome_labels, groups) if both else None
    return sums


def score_cohort(
    tables: Mapping[Modality, Iterable[EmbeddingTable]],
    vectors: Sequence[DiseaseVector],
    manifest: CohortManifest,
) -> list[SubjectScore]:
    """Project every manifest subject's rows onto every disease vector.

    Each modality's table comes as chunks of rows, each (subject_ids, X); an
    in-memory table is one chunk. A chunk's rows are projected and let go:
    each kept row leaves only its subject's code and its float64 projections
    onto the modality's vectors. Rows of subjects outside the manifest are
    ignored; a subject without rows for a modality gets no score for its
    vectors. Labels are not needed. Scores come out by subject id, then in
    the order of ``vectors``.
    """
    for vec in vectors:
        if vec.outcome not in manifest.outcome_names:
            raise UnknownOutcomeError(f"manifest has no outcome {vec.outcome!r}")
    found: list[tuple[str, int, float, int]] = []
    for modality, chunks in tables.items():
        picked = [j for j, vec in enumerate(vectors) if vec.modality is modality]
        if not picked:
            continue
        V = np.stack([vectors[j].vector for j in picked], axis=1)
        names, group, P = _projections(modality, chunks, V, manifest)
        counts = np.bincount(group, minlength=len(names))
        used = np.minimum(counts, 3)
        for j, best in zip(picked, _top_three(group, counts, P)):
            score = np.empty(len(names))
            for k in (1, 2, 3):  # a k-wide row mean adds like subject_score's
                score[used == k] = best[used == k, :k].mean(axis=1)
            found.extend((names[s], j, v, k) for s, (v, k) in enumerate(zip(score.tolist(), used.tolist())))
    found.sort(key=lambda f: f[:2])
    return [SubjectScore(sid, vectors[j].outcome, vectors[j].modality, v, k) for sid, j, v, k in found]


def _projections(
    modality: Modality, chunks: Iterable[EmbeddingTable], V: np.ndarray, manifest: CohortManifest
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The manifest subjects of one table's chunks, in order of first row,
    and each of their rows' subject code and float64 projections onto the
    columns of V, in table order."""
    codes: dict[str, int] = {}
    groups, projections = [np.empty(0, np.int64)], [np.empty((0, V.shape[1]))]
    for subject_ids, X in chunks:
        X = np.asarray(X)
        if X.shape[1] != V.shape[0]:
            raise DataError(f"{modality.name} embeddings have dimension {X.shape[1]}, vectors {V.shape[0]}")
        for sid in dict.fromkeys(subject_ids):
            if sid in manifest.rows:
                codes.setdefault(sid, len(codes))
        code = np.fromiter(map(codes.get, subject_ids, repeat(-1)), np.int64, len(subject_ids))
        keep = code >= 0
        groups.append(code[keep])
        # einsum, unlike a BLAS product, gives a row the same bits in a chunk of any size
        projections.append(np.einsum("ij,jk->ik", X[keep].astype(np.float64), V))
    return list(codes), np.concatenate(groups), np.concatenate(projections)


def _top_three(group: np.ndarray, counts: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(columns, subjects, 3): each subject's three largest values of each
    column of P in descending order, equal values in row order; slots past a
    subject's rows are zero."""
    order = np.argsort(group, kind="stable")  # by subject, each one's rows in table order
    top = np.zeros((P.shape[1], counts.size, 3))
    start = 0
    for s, end in enumerate(np.cumsum(counts).tolist()):
        ranked = np.sort(-P[order[start:end]], axis=0, kind="stable")[:3]  # every column at once
        top[:, s, :ranked.shape[0]] = -ranked.T
        start = end
    return top


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
