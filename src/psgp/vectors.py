"""Disease directions in embedding space and projection-based risk scores.

For one (outcome, modality) pair: average the unit-norm segment embeddings of
positive-labelled training subjects (segment-weighted) and of negatives, take
the normalized centroid difference as the disease direction, and score a
subject by projecting each of their segments onto it and averaging the top
min(3, available) projections.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cohort import CohortManifest
from .errors import (
    DataError,
    DegenerateDirectionError,
    FormatError,
    InsufficientClassError,
    UnknownOutcomeError,
)
from .model import SegmentEmbedding
from .signalio import Modality

_DIRECTION_FLOOR = 1e-10


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
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
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


def compute_centroids(
    embeddings: Iterable[SegmentEmbedding], labels: Mapping[str, int | None]
) -> tuple[np.ndarray, np.ndarray]:
    """Segment-weighted class means of the embeddings, in float64.

    Subjects with a missing label for this outcome are skipped entirely.
    """
    sum_pos = sum_neg = None
    count = [0, 0]
    for emb in embeddings:
        label = labels.get(emb.subject_id)
        if label is None:
            continue
        vec = np.asarray(emb.vector, dtype=np.float64)
        if sum_pos is None:
            sum_pos = np.zeros_like(vec)
            sum_neg = np.zeros_like(vec)
        if vec.shape != sum_pos.shape:
            raise DataError(
                f"embedding for {emb.subject_id!r} has dimension {vec.shape}, expected {sum_pos.shape}"
            )
        if label == 1:
            sum_pos += vec
            count[1] += 1
        else:
            sum_neg += vec
            count[0] += 1
    if count[1] == 0 or count[0] == 0:
        raise InsufficientClassError(
            f"centroids need both classes (got {count[1]} positive, {count[0]} negative segments)"
        )
    return sum_pos / count[1], sum_neg / count[0]


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


def project_segment(embedding: np.ndarray | SegmentEmbedding, vector: DiseaseVector) -> float:
    vec = embedding.vector if isinstance(embedding, SegmentEmbedding) else embedding
    vec = np.asarray(vec, dtype=np.float64)
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
    embeddings_by_subject: Mapping[str, Sequence[SegmentEmbedding]],
    manifest: CohortManifest,
    train_ids: Iterable[str],
    outcome: str,
    modality: Modality,
) -> DiseaseVector:
    """Centroid-difference vector from training subjects only."""
    if outcome not in manifest.outcome_names:
        raise UnknownOutcomeError(f"manifest has no outcome {outcome!r}")
    labels = manifest.outcome_labels(outcome)
    train = sorted(set(train_ids))
    pool: list[SegmentEmbedding] = []
    subjects = [0, 0]
    for sid in train:
        embs = embeddings_by_subject.get(sid, ())
        embs = [e for e in embs if e.modality is modality]
        if not embs:
            continue
        label = labels.get(sid)
        if label is None:
            continue
        subjects[label] += 1
        pool.extend(embs)
    if subjects[1] == 0 or subjects[0] == 0:
        raise InsufficientClassError(
            f"{outcome}/{modality.name}: training split has {subjects[1]} positive and "
            f"{subjects[0]} negative subjects with embeddings"
        )
    mu_pos, mu_neg = compute_centroids(pool, labels)
    return derive_disease_vector(
        mu_pos, mu_neg, outcome, modality, n_positive=subjects[1], n_negative=subjects[0]
    )


def score_cohort(
    embeddings_by_subject: Mapping[str, Sequence[SegmentEmbedding]],
    vectors: Sequence[DiseaseVector],
    manifest: CohortManifest,
) -> list[SubjectScore]:
    """Project every subject with embeddings onto every disease vector.

    Subjects lacking a modality simply have no row for that vector; a second
    pass over the same inputs returns identical scores (pure function).
    """
    for vec in vectors:
        if vec.outcome not in manifest.outcome_names:
            raise UnknownOutcomeError(f"manifest has no outcome {vec.outcome!r}")
    out: list[SubjectScore] = []
    for sid in sorted(manifest.rows):
        embs = embeddings_by_subject.get(sid)
        if not embs:
            continue
        by_mod: dict[Modality, list[SegmentEmbedding]] = {}
        for e in embs:
            by_mod.setdefault(e.modality, []).append(e)
        for vec in vectors:
            mod_embs = by_mod.get(vec.modality)
            if not mod_embs:
                continue
            projections = [project_segment(e, vec) for e in mod_embs]
            score, used = subject_score(projections)
            out.append(SubjectScore(sid, vec.outcome, vec.modality, score, used))
    return out


# --- on-disk formats ---------------------------------------------------

def save_disease_vector(vector: DiseaseVector, path: Path | str) -> None:
    """Structured text, full float64 precision so load() is exact."""
    def row(arr: np.ndarray) -> str:
        return " ".join(format(float(v), ".17g") for v in arr)

    lines = [
        f"outcome={vector.outcome}",
        f"modality={vector.modality.name}",
        f"d={vector.vector.shape[0]}",
        f"n_positive={vector.n_positive}",
        f"n_negative={vector.n_negative}",
        f"vector={row(vector.vector)}",
        f"mu_positive={row(vector.mu_positive)}",
        f"mu_negative={row(vector.mu_negative)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_disease_vector(path: Path | str) -> DiseaseVector:
    kv: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"{path}: malformed line {line!r}")
        key, _, value = line.partition("=")
        kv[key] = value
    try:
        outcome = kv["outcome"]
        modality = Modality.parse(kv["modality"])
        d = int(kv["d"])
        n_positive = int(kv["n_positive"])
        n_negative = int(kv["n_negative"])
        arrays = {
            name: np.array([float(t) for t in kv[name].split()], dtype=np.float64)
            for name in ("vector", "mu_positive", "mu_negative")
        }
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: incomplete or malformed vector file: {exc}") from exc
    for name, arr in arrays.items():
        if arr.shape[0] != d:
            raise FormatError(f"{path}: {name} has {arr.shape[0]} components, header says {d}")
    return DiseaseVector(
        outcome=outcome,
        modality=modality,
        vector=arrays["vector"],
        mu_positive=arrays["mu_positive"],
        mu_negative=arrays["mu_negative"],
        n_positive=n_positive,
        n_negative=n_negative,
    )


def save_scores(scores: Sequence[SubjectScore], path: Path | str) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "outcome", "modality", "score", "n_segments_used"])
        for s in sorted(scores, key=lambda s: (s.subject_id, s.outcome, s.modality.name)):
            writer.writerow([s.subject_id, s.outcome, s.modality.name, format(s.score, ".12g"), s.n_segments_used])


def load_scores(path: Path | str) -> list[SubjectScore]:
    path = Path(path)
    out: list[SubjectScore] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["subject_id", "outcome", "modality", "score", "n_segments_used"]:
            raise FormatError(f"{path}: unexpected score table header {header}")
        for rec in reader:
            if len(rec) != 5:
                raise FormatError(f"{path}: malformed score row {rec}")
            try:
                score, used = float(rec[3]), int(rec[4])
            except ValueError as exc:
                raise FormatError(f"{path}: line {reader.line_num}: {exc}") from exc
            out.append(SubjectScore(rec[0], rec[1], Modality.parse(rec[2]), score, used))
    return out
