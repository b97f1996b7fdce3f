"""Every CSV the package writes quotes a field that holds a comma, a quote
or a line break, so `csv.reader` reads back the rows that were written."""

import csv
import dataclasses

import pytest

from conftest import make_manifest
from crossemo import corpus
from crossemo.augment import RenderOutcome, outcomes_to_csv
from crossemo.cli import main
from crossemo.evaluation import MetricSet, Prediction, evaluate_model, predictions_to_csv
from crossemo.report import RunRecord, build_cross_matrix, report_to_csv
from test_evaluation import HandBuiltModel, two_class_setup

AWKWARD = 'spk1,utt3 "take 2"\nretake'


def read_rows(text: str) -> list:
    return list(csv.reader(text.splitlines(keepends=True)))


def test_predictions_round_trip():
    manifest, store = two_class_setup()
    result = evaluate_model(HandBuiltModel([-1.0, 1.0]), ("angry", "happy"), manifest, store)
    odd = Prediction(AWKWARD, "angry", "happy", {"angry": 0.25, "happy": 0.75})
    rows = read_rows(predictions_to_csv(dataclasses.replace(result, predictions=(odd,))))
    assert rows == [["utt_id", "true", "predicted", "score_angry", "score_happy"],
                    [AWKWARD, "angry", "happy", "0.250000", "0.750000"]]


def test_report_round_trip():
    runs = [RunRecord(AWKWARD, test, 0, MetricSet(50.0, 60.0, 70.0, 80.0), ())
            for test in (AWKWARD, "plain")]
    rows = read_rows(report_to_csv(build_cross_matrix(runs)))
    assert [row[0] for row in rows] == ["test_set", *sorted([AWKWARD, "plain"]), "avg"]
    assert rows[0] == ["test_set", AWKWARD]
    assert all(len(row) == 2 for row in rows)


def test_augment_summary_round_trip():
    outcomes = [RenderOutcome(AWKWARD, "ok", 1.5), RenderOutcome("u2", f"failed: {AWKWARD}", None)]
    assert read_rows(outcomes_to_csv(outcomes)) == [
        ["output_id", "status", "duration_s"], [AWKWARD, "ok", "1.500000"],
        ["u2", f"failed: {AWKWARD}", ""]]


@pytest.mark.parametrize("label", [AWKWARD, "frustrated"], ids=["awkward", "plain"])
def test_prepare_discards_round_trip(tmp_path, label):
    manifest = make_manifest(16)
    odd = dataclasses.replace(manifest.records[0], raw_labels={label: 1.0})
    corpus.save_manifest(dataclasses.replace(manifest, records=(odd,) + manifest.records[1:]),
                         tmp_path / "m.jsonl")
    assert main(["prepare", "--manifest", str(tmp_path / "m.jsonl"), "--label-map", "iemocap",
                 "--strategy", "split-80-20", "--out", str(tmp_path / "prep")]) == 0
    text = (tmp_path / "prep" / "discards.csv").read_text(encoding="utf-8")
    assert read_rows(text) == [["label", "count"], [label, "1"]]
