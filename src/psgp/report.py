"""Per-subject risk report card.

One line per outcome: the subject's current score, the mean score of
disease-positive training subjects, the subject's percentile within that
positive group, and a status that reads "Above average" exactly when the
current score strictly exceeds the positive mean.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, InsufficientClassError
from .tables import table_text

STATUS_ABOVE = "Above average"
STATUS_BELOW = "At/Below average"

_HEADERS = ("Outcome", "Current", "Positive mean", "Percentile", "Status")


@dataclass(frozen=True)
class ReportRow:
    outcome: str
    current: float
    positive_mean: float
    percentile: float
    status: str


def build_report_card(
    subject_id: str,
    current_scores: Mapping[str, float],
    positive_scores: Mapping[str, Sequence[float]],
    outcomes: Sequence[str],
) -> list[ReportRow]:
    """One row per outcome, in the given order."""
    rows = []
    for outcome in outcomes:
        if outcome not in current_scores:
            raise DataError(f"subject {subject_id!r} has no score for outcome {outcome!r}")
        positives = np.asarray(positive_scores.get(outcome, ()), dtype=np.float64)
        if positives.size == 0:
            raise InsufficientClassError(
                f"outcome {outcome!r} has no positive reference subjects"
            )
        current = float(current_scores[outcome])
        with np.errstate(over="ignore"):  # a sum past the float64 range is refused just below
            mean = float(positives.mean())
        if not np.isfinite(mean):
            raise DataError(f"outcome {outcome!r}: the mean score of its positive references is not finite")
        percentile = 100.0 * float((positives <= current).sum()) / positives.size
        status = STATUS_ABOVE if current > mean else STATUS_BELOW
        rows.append(ReportRow(outcome, current, mean, percentile, status))
    return rows


def render_report_card(rows: Sequence[ReportRow]) -> str:
    """Fixed-width table; two spaces between columns, numbers right-aligned
    at two decimals. Identical rows render to identical strings."""
    name_w = max([len(_HEADERS[0])] + [len(r.outcome) for r in rows])
    lines = [_HEADERS] + [
        (r.outcome, f"{r.current:.2f}", f"{r.positive_mean:.2f}", f"{r.percentile:.1f}", r.status)
        for r in rows
    ]
    return "".join(
        "  ".join([name.ljust(name_w), *map(str.rjust, numbers, (8, 13, 10)), status]).rstrip() + "\n"
        for name, *numbers, status in lines
    )


def report_card_csv(rows: Sequence[ReportRow]) -> str:
    cells = (
        [r.outcome, f"{r.current:.6f}", f"{r.positive_mean:.6f}", f"{r.percentile:.1f}", r.status]
        for r in rows
    )
    return table_text(("outcome", "current", "positive_mean", "percentile", "status"), cells)
