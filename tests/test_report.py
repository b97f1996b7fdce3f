from dataclasses import asdict

import numpy as np
import pytest

from crossemo.errors import ValidationFailure
from crossemo.evaluation import MetricSet
from crossemo.report import (
    RunRecord,
    build_cross_matrix,
    render_table,
    report_to_csv,
    report_to_json,
    save_report,
)


def flat_metrics(value):
    return MetricSet(value, value, value, value)


def synthetic_grid(n_folds=2, matched=90.0, mismatched=65.0):
    """Six single-corpus models plus one composite, six test sets."""
    corpora = [f"corpus{c}" for c in "ABCDEF"]
    runs = []
    rng = np.random.default_rng(0)
    for train in corpora + ["mixAll"]:
        components = tuple(corpora) if train == "mixAll" else ()
        for test in corpora:
            is_matched = test == train or test in components
            base = matched if is_matched else mismatched
            for fold in range(n_folds):
                runs.append(
                    RunRecord(
                        train_tag=train,
                        test_tag=test,
                        fold=fold,
                        metrics=flat_metrics(base),
                        train_components=components,
                    )
                )
    return runs


class TestBuildCrossMatrix:
    def test_seven_by_six_layout(self):
        report = build_cross_matrix(synthetic_grid())
        assert len(report.models) == 7
        assert len(report.test_sets) == 6
        assert all(not c["missing"] for c in report.cells.values())

    def test_matched_and_mismatched_averages(self):
        report = build_cross_matrix(synthetic_grid(matched=90.0, mismatched=65.0))
        assert report.matched_avg["ua_eq1"] == pytest.approx(90.0)
        assert report.mismatched_avg["ua_eq1"] == pytest.approx(65.0)

    def test_composite_column_all_matched(self):
        report = build_cross_matrix(synthetic_grid())
        for test in report.test_sets:
            assert report.cell("mixAll", test)["matched"]

    def test_shuffle_invariance(self):
        runs = synthetic_grid()
        report_a = report_to_json(build_cross_matrix(runs))
        rng = np.random.default_rng(1)
        shuffled = list(runs)
        rng.shuffle(shuffled)
        report_b = report_to_json(build_cross_matrix(shuffled))
        assert report_a == report_b

    def test_missing_cell_flagged_not_fabricated(self):
        runs = [
            RunRecord("m1", "t1", 0, flat_metrics(80.0)),
            RunRecord("m2", "t2", 0, flat_metrics(70.0)),
        ]
        report = build_cross_matrix(runs)
        assert report.cell("m1", "t2")["missing"]
        assert report.cell("m1", "t1")["missing"] is False

    def test_single_fold_omits_std(self):
        runs = [RunRecord("m", "t", 0, flat_metrics(75.0))]
        cell = build_cross_matrix(runs).cell("m", "t")
        assert cell["ua_eq1"]["std"] is None
        assert cell["ua_eq1"]["mean"] == 75.0

    def test_fold_stats(self):
        runs = [
            RunRecord("m", "t", f, flat_metrics(v))
            for f, v in enumerate([76, 78, 77, 75, 76])
        ]
        cell = build_cross_matrix(runs).cell("m", "t")
        assert cell["ua_eq1"]["mean"] == pytest.approx(76.4)
        assert cell["ua_eq1"]["std"] == pytest.approx(1.0198, abs=1e-3)
        assert cell["ua_eq1"]["n_folds"] == 5

    def test_duplicate_fold_rejected(self):
        runs = [
            RunRecord("m", "t", 0, flat_metrics(1.0)),
            RunRecord("m", "t", 0, flat_metrics(2.0)),
        ]
        with pytest.raises(ValidationFailure):
            build_cross_matrix(runs)

    def test_empty_rejected(self):
        with pytest.raises(ValidationFailure):
            build_cross_matrix([])


class TestRendering:
    def test_table_structure(self):
        text = render_table(build_cross_matrix(synthetic_grid()))
        lines = text.splitlines()
        assert lines[1].startswith("Tested on")
        assert lines[1].count("|") == 7
        assert sum(1 for l in lines if l.startswith("corpus")) == 6
        assert any(l.startswith("Avg") for l in lines)
        assert any(l.startswith("Matched average:") for l in lines)
        assert any(l.startswith("Mismatched average:") for l in lines)
        assert "90.0 (0.0)*" in text  # matched cell marked

    def test_metric_must_be_known(self):
        with pytest.raises(ValidationFailure):
            render_table(build_cross_matrix(synthetic_grid()), metric="f1")

    def test_csv_and_json_round(self, tmp_path):
        report = build_cross_matrix(synthetic_grid())
        csv = report_to_csv(report)
        assert csv.splitlines()[0] == "test_set," + ",".join(report.models)
        paths = save_report(report, tmp_path)
        assert all((tmp_path / name).exists() for name in ("report.json", "report.csv", "report.txt"))
        assert set(paths) == {"json", "csv", "table"}

    def test_deterministic_render(self):
        a = render_table(build_cross_matrix(synthetic_grid()))
        b = render_table(build_cross_matrix(synthetic_grid()))
        assert a == b


class TestRunRecordJson:
    GOOD = asdict(RunRecord("mixAll", "corpusA", 1, flat_metrics(70.0), ("corpusA", "corpusB")))

    def test_round_trip(self):
        record = RunRecord.from_json(self.GOOD)
        assert asdict(record) == self.GOOD
        assert record.is_matched()

    @pytest.mark.parametrize(
        "obj",
        [
            None,
            [],
            {k: v for k, v in GOOD.items() if k != "train_tag"},
            {**GOOD, "fold": "1"},
            {**GOOD, "fold": True},
            {**GOOD, "test_tag": 3},
            {**GOOD, "metrics": {"ua_eq1": 70.0}},
            {**GOOD, "metrics": {**GOOD["metrics"], "wa_eq2": "high"}},
            {**GOOD, "train_components": "corpusA"},
        ],
    )
    def test_malformed_rejected(self, obj):
        with pytest.raises(ValidationFailure):
            RunRecord.from_json(obj)
