"""Per-subject report card: percentile math and the fixed-width rendering."""
import numpy as np
import pytest

from psgp.errors import DataError, InsufficientClassError
from psgp.report import (
    STATUS_ABOVE,
    STATUS_BELOW,
    build_report_card,
    render_report_card,
    report_card_csv,
)


class TestBuildReportCard:
    def test_row_values(self):
        rows = build_report_card(
            "S001",
            {"CVD": 1.42},
            {"CVD": [1.0, 1.1, 1.2, 1.3, 1.4]},
            ["CVD"],
        )
        (row,) = rows
        assert row.outcome == "CVD"
        assert row.current == pytest.approx(1.42)
        assert row.positive_mean == pytest.approx(1.2)
        assert row.percentile == pytest.approx(100.0)  # above every positive
        assert row.status == STATUS_ABOVE

    def test_above_average_threshold_is_strict(self):
        pos = [1.0, 1.2, 1.4]  # mean 1.2
        above = build_report_card("S", {"CVD": 1.21}, {"CVD": pos}, ["CVD"])
        at = build_report_card("S", {"CVD": 1.2}, {"CVD": pos}, ["CVD"])
        below = build_report_card("S", {"CVD": 1.18}, {"CVD": pos}, ["CVD"])
        assert above[0].status == STATUS_ABOVE
        assert at[0].status == STATUS_BELOW
        assert below[0].status == STATUS_BELOW

    def test_percentile_counts_less_or_equal(self):
        pos = [0.0, 1.0, 2.0, 3.0]
        rows = build_report_card("S", {"CVD": 1.0}, {"CVD": pos}, ["CVD"])
        # 0.0 and 1.0 are <= current -> 2 of 4
        assert rows[0].percentile == pytest.approx(50.0)

    def test_multiple_outcomes_keep_request_order(self):
        outcomes = ["CVD", "Stroke", "Diabetes"]
        rows = build_report_card(
            "S",
            {o: 0.5 for o in outcomes},
            {o: [0.1, 0.9] for o in outcomes},
            outcomes,
        )
        assert [r.outcome for r in rows] == outcomes

    def test_missing_current_score(self):
        with pytest.raises(DataError):
            build_report_card("S", {}, {"CVD": [1.0]}, ["CVD"])

    def test_no_positive_scores(self):
        with pytest.raises(InsufficientClassError):
            build_report_card("S", {"CVD": 1.0}, {"CVD": []}, ["CVD"])


class TestRenderReportCard:
    def _card(self, n_outcomes=2):
        rng = np.random.default_rng(1)
        outcomes = [f"Outcome{i}" for i in range(n_outcomes)]
        return build_report_card(
            "S007",
            {o: float(rng.normal()) for o in outcomes},
            {o: rng.normal(size=5).tolist() for o in outcomes},
            outcomes,
        )

    def test_layout(self):
        text = render_report_card(self._card())
        lines = text.splitlines()
        assert lines[0].split() == ["Outcome", "Current", "Positive", "mean", "Percentile", "Status"]
        assert len(lines) == 3
        # two-space column separation, aligned numeric columns
        assert "  " in lines[1]

    def test_deterministic(self):
        assert render_report_card(self._card()) == render_report_card(self._card())

    def test_values_render_back(self):
        rows = build_report_card(
            "S", {"CVD": 1.42}, {"CVD": [1.0, 1.18, 1.2]}, ["CVD"]
        )
        line = render_report_card(rows).splitlines()[1]
        parts = line.split()
        assert parts[0] == "CVD"
        assert float(parts[1]) == pytest.approx(1.42)
        assert float(parts[2]) == pytest.approx(1.13, abs=0.005)
        assert parts[-2:] == STATUS_ABOVE.split()

    def test_seven_outcomes(self):
        text = render_report_card(self._card(n_outcomes=7))
        assert len(text.splitlines()) == 8

    def test_empty_card_is_header_only(self):
        rows = build_report_card("S", {}, {}, [])
        text = render_report_card(rows)
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Outcome")


class TestReportCardCsv:
    def test_csv_round_trip(self):
        rows = build_report_card(
            "S", {"CVD": 1.42}, {"CVD": [1.0, 1.18, 1.2]}, ["CVD"]
        )
        lines = report_card_csv(rows).splitlines()
        assert lines[0] == "outcome,current,positive_mean,percentile,status"
        cells = lines[1].split(",")
        assert cells[0] == "CVD"
        assert float(cells[1]) == pytest.approx(1.42)
        assert float(cells[3]) == pytest.approx(100.0)
        assert cells[4] == STATUS_ABOVE
