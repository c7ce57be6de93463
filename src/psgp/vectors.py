"""Disease directions in embedding space and projection-based risk scores.

A modality's embeddings come as chunks of one table's rows, each an
``EmbeddingTable``: (n,) subject ids and the (n, d) unit-norm segment
embeddings; an in-memory table is one chunk. Both stages take each chunk as
it comes and let it go. For one (outcome, modality) pair the direction is
the normalized difference of the segment-weighted centroids of positive and
of negative training subjects, each class's float64 sum adding its rows one
after another in table order; a subject's score is the mean of their top
min(3, available) projections onto it (one product per chunk, no thread
pool).

A run's disease vectors are one ``{(outcome, Modality): DiseaseVector}``
mapping from ``derive_vectors`` through ``vectors.csv`` to ``score_cohort``;
the table has a row per key, each array one cell of space-joined ``.17g``
decimals, so ``load_disease_vector`` reads back every float exactly.
"""
from __future__ import annotations

import math
from itertools import repeat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class DiseaseVector:
    vector: np.ndarray = field(repr=False)
    mu_positive: np.ndarray = field(repr=False)
    mu_negative: np.ndarray = field(repr=False)
    n_positive: int
    n_negative: int

    def __post_init__(self) -> None:
        for name in _ARRAYS:
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
    return DiseaseVector(diff / norm, mu_positive, mu_negative, n_positive, n_negative)


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
    tables: Mapping[Modality, Iterable[EmbeddingTable]],
    manifest: CohortManifest,
    train_ids: Iterable[str],
    outcomes: Sequence[str],
) -> dict[tuple[str, Modality], DiseaseVector]:
    """Centroid-difference vectors from training subjects only, keyed by
    (outcome, modality): outcome by outcome, then in the order of ``tables``.

    Each modality's table comes as chunks of rows, as in ``score_cohort``.
    The tables are read once each, in order, and a chunk is summed for
    every outcome and let go before the next is read.
    """
    for outcome in outcomes:
        if outcome not in manifest.outcome_names:
            raise UnknownOutcomeError(f"manifest has no outcome {outcome!r}")
    train = set(train_ids)
    labels = {
        o: {s: y for s, y in manifest.outcome_labels(o).items() if s in train and y is not None}
        for o in outcomes
    }
    sums = {m: _class_sums(chunks, labels) for m, chunks in tables.items()}
    vectors = {}
    for outcome in outcomes:
        for modality, found in sums.items():
            n_pos, n_neg, centroids = found[outcome]
            if centroids is None:
                raise InsufficientClassError(
                    f"{outcome}/{modality.name}: training split has {n_pos} positive and "
                    f"{n_neg} negative subjects with embeddings"
                )
            vectors[outcome, modality] = derive_disease_vector(*centroids, outcome, modality, n_pos, n_neg)
    return vectors


def subject_codes(codes: dict[str, int], sids, among: Container[str] | None = None) -> np.ndarray:
    """Each row's subject code: a subject new to ``codes`` takes the next one
    if ``among`` holds it (any subject if ``among`` is None); a row whose
    subject has no code gets -1."""
    for sid in dict.fromkeys(sids):
        if sid not in codes and (among is None or sid in among):
            codes[sid] = len(codes)
    return np.fromiter(map(codes.get, sids, repeat(-1)), np.int64, len(sids))


def _class_sums(
    chunks: Iterable[EmbeddingTable], labels: Mapping[str, Mapping[str, int]]
) -> dict[str, tuple[int, int, tuple[np.ndarray, np.ndarray] | None]]:
    """Per outcome: the table's positive and negative subjects with rows and,
    if both counts are non-zero, each class's segment-weighted mean in float64.

    ``labels`` holds each outcome's labelled training subjects. A class's sum
    is one fold over its rows in table order: a chunk's rows of the class,
    headed by the sum so far, are added one after another, so how the table
    is cut into chunks moves no bit.
    """
    outcomes = list(labels)
    codes = {sid: i for i, sid in enumerate(dict.fromkeys(s for o in outcomes for s in labels[o]))}
    # each training subject's class per outcome, -1 where it is unlabelled
    classes = np.array([[labels[o].get(sid, -1) for o in outcomes] for sid in codes], np.int8)
    classes = classes.reshape(len(codes), len(outcomes))
    seen = np.zeros(len(codes), bool)
    sums, rows = None, np.zeros((len(outcomes), 2), np.int64)
    for subject_ids, X in chunks:
        code = subject_codes(codes, subject_ids, among=())  # every training subject has its code
        keep = code >= 0
        seen[code[keep]] = True
        X = np.asarray(X, dtype=np.float64)[keep]
        if sums is None:
            sums = np.full((len(outcomes), 2, X.shape[1]), -0.0)  # -0.0 + x is x, bit for bit
        pick = classes[code[keep]][:, :, None] == (0, 1)  # (row, outcome, class)
        counts = pick.sum(axis=0)
        rows += counts
        block = np.empty((len(X) + 1, X.shape[1]))
        for j, c in zip(*counts.nonzero()):
            k = counts[j, c]
            block[0] = sums[j, c]
            X.compress(pick[:, j, c], axis=0, out=block[1:k + 1])
            # numpy adds a block's rows one after another, but one column pairwise
            sums[j, c] = np.add.reduce(block[:k + 1]) if X.shape[1] > 1 else np.cumsum(block[:k + 1])[-1]
    found = {}
    for j, outcome in enumerate(outcomes):
        n_negative, n_positive = (int(np.count_nonzero(seen & (classes[:, j] == c))) for c in (0, 1))
        means = (sums[j, 1] / rows[j, 1], sums[j, 0] / rows[j, 0]) if n_positive and n_negative else None
        found[outcome] = n_positive, n_negative, means
    return found


def score_cohort(
    tables: Mapping[Modality, Iterable[EmbeddingTable]],
    vectors: Mapping[tuple[str, Modality], DiseaseVector],
    manifest: CohortManifest,
) -> dict[tuple[str, str, Modality], tuple[float, int]]:
    """Project every manifest subject's rows onto every disease vector, keyed
    by (outcome, modality) as ``derive_vectors`` returns them:
    ``{(subject_id, outcome, modality): (score, n_used)}``, the pair
    ``subject_score`` gives; ``save_scores`` puts the rows in order.

    Each modality's table comes as chunks of rows, each (subject_ids, X); an
    in-memory table is one chunk. A chunk's rows are projected and let go:
    each kept row leaves only its subject's code and its float64 projections
    onto the modality's vectors. Rows of subjects outside the manifest are
    ignored; a subject without rows for a modality gets no score for its
    vectors. Labels are not needed.
    """
    for outcome, _ in vectors:
        if outcome not in manifest.outcome_names:
            raise UnknownOutcomeError(f"manifest has no outcome {outcome!r}")
    scores: dict[tuple[str, str, Modality], tuple[float, int]] = {}
    for modality, chunks in tables.items():
        picked = [o for o, m in vectors if m is modality]
        if not picked:
            continue
        V = np.stack([vectors[o, modality].vector for o in picked], axis=1)
        names, group, P = _projections(modality, chunks, V, manifest)
        counts = np.bincount(group, minlength=len(names))
        used = np.minimum(counts, 3)
        for outcome, best in zip(picked, _top_three(group, counts, P)):
            score = np.empty(len(names))
            for k in (1, 2, 3):  # a k-wide row mean adds like subject_score's
                score[used == k] = best[used == k, :k].mean(axis=1)
            for sid, v, k in zip(names, score.tolist(), used.tolist()):
                scores[sid, outcome, modality] = v, k
    return scores


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
        code = subject_codes(codes, subject_ids, manifest.rows)
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

def save_disease_vector(vectors: Mapping[tuple[str, Modality], DiseaseVector], path: Path | str) -> None:
    """One row per key, in the given order; each array is one cell of
    space-joined ``.17g`` decimals, so ``load_disease_vector`` is exact."""
    def cell(arr: np.ndarray) -> str:
        return " ".join(format(float(x), ".17g") for x in arr)

    rows = (
        [outcome, modality.name, str(v.n_positive), str(v.n_negative)]
        + [cell(v.vector), cell(v.mu_positive), cell(v.mu_negative)]
        for (outcome, modality), v in vectors.items()
    )
    write_table(path, _VECTOR_HEADER, rows)


def load_disease_vector(path: Path | str) -> dict[tuple[str, Modality], DiseaseVector]:
    """The vectors of a table ``save_disease_vector`` wrote, by key in row order."""
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
        earlier = next(((o, v) for (o, m), v in vectors.items() if m is modality), None)
        if earlier is not None and len(arrays[0]) != earlier[1].vector.size:
            raise FormatError(
                f"{where}: vector has {len(arrays[0])} components where the "
                f"{earlier[0]}, {name} vector has {earlier[1].vector.size}"
            )
        try:
            vectors[outcome, modality] = DiseaseVector(
                *([float(t) for t in a] for a in arrays), int(n_pos), int(n_neg)
            )
        except DataError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return vectors


def save_scores(scores: Mapping[tuple[str, str, Modality], tuple[float, int]], path: Path | str) -> None:
    """One row per ``score_cohort`` entry, by subject id, outcome, then modality name."""
    rows = (
        [sid, outcome, modality.name, format(score, ".12g"), str(used)]
        for (sid, outcome, modality), (score, used) in sorted(
            scores.items(), key=lambda item: (item[0][0], item[0][1], item[0][2].name)
        )
    )
    write_table(path, _SCORE_HEADER, rows)


def load_scores(path: Path | str) -> dict[tuple[str, str, Modality], float]:
    """Each row's score by (subject_id, outcome, modality), in row order;
    ``n_segments_used`` is checked, not kept."""
    scores: dict[tuple[str, str, Modality], float] = {}
    for where, (sid, outcome, name, score, used) in table_rows(Path(path), _SCORE_HEADER, FormatError):
        check_name("subject id", sid, FormatError, where)
        check_name("outcome", outcome, FormatError, where)
        if not DECIMAL.fullmatch(score) or not math.isfinite(float(score)):
            raise FormatError(f"{where}: score {score!r} is not a finite decimal number")
        if not (is_count(used) and int(used) >= 1):
            raise FormatError(f"{where}: n_segments_used {used!r} is not a positive integer")
        modality = Modality.__members__.get(name)  # the exact name, as written
        if modality is None:
            raise FormatError(f"{where}: unknown modality name {name!r}")
        if (sid, outcome, modality) in scores:
            raise FormatError(f"{where} repeats the row for {sid}, {outcome}, {modality.name}")
        scores[sid, outcome, modality] = float(score)
    return scores
