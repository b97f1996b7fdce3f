"""Characterization test of the scoring outputs (Feathers, "Working
Effectively with Legacy Code", 2004): the exact bytes of report.json,
report.csv and report.txt for each metric on a fabricated grid, and
repr(metric_set(cm)) with its warnings on seeded confusion matrices.

A change that alters any of these on purpose updates the pinned values
here and says why in CHANGES.md."""

import hashlib
import warnings

import numpy as np
import pytest

from crossemo.errors import ValidationFailure
from crossemo.evaluation import METRIC_KEYS, ConfusionMatrix, MetricSet, metric_set
from crossemo.report import RunRecord, build_cross_matrix, save_report


def fabricated_runs():
    """Three corpora and a composite of two; unequal seeded values per
    metric and fold, (corpusC, corpusB) missing, (corpusB, corpusC) one fold."""
    rng = np.random.default_rng(26)
    runs = []
    for train, components in (("corpusA", ()), ("corpusB", ()), ("corpusC", ()),
                              ("mixAB", ("corpusA", "corpusB"))):
        for test in ("corpusA", "corpusB", "corpusC"):
            if (train, test) == ("corpusC", "corpusB"):
                continue
            n_folds = 1 if (train, test) == ("corpusB", "corpusC") else 3
            for fold in range(n_folds):
                metrics = MetricSet(*rng.uniform(30, 95, 4))
                runs.append(RunRecord(train, test, fold, metrics, components))
    return runs


REPORT_JSON = "077df0c8c7fc407897b27d2d3b34c29408ab587146fcd693dd45e2bb9f15325e"
REPORT_SHA256 = {
    "ua_eq1": {
        "report.csv": "e9266c0180b283d11c0cf239dd29a9fcdc66a7c7e440a1d796b410cac0569092",
        "report.txt": "ddb99e6940b1c9b586b3347ba50167e57fd0cedfc7da28990a86027161f5dea9",
    },
    "wa_eq2": {
        "report.csv": "748b537893564bf45777ce296bb4e9e67cc8efa32d3ac807465743c5a4807896",
        "report.txt": "2d2924b805d2651d627788260e2b69ea196ded11a48199d571c5317af5a7ebea",
    },
    "mean_class_recall": {
        "report.csv": "5287d1dc0c49cff2b7b4a9af82c64f999286be221b8bf48ef2f8bb3a702ec9c1",
        "report.txt": "d4baa7799d95e77983694532507e4b2a705030bf64a16604e20b327271644697",
    },
    "overall_accuracy": {
        "report.csv": "9778af2559dec5775fb5c708a94a689abc308e3d87ca7e34ae35b65ac91e707e",
        "report.txt": "4b5f8dc9f84185bcc0176e126f659ddf050306d83097a418555d35b18e89b3a6",
    },
}

WA_EQ2_CSV = """\
test_set,corpusA,corpusB,corpusC,mixAB
corpusA,50.77 (10.63)*,42.46 (4.48),71.21 (19.77),60.41 (14.22)*
corpusB,79.51 (11.27),77.17 (11.08)*,missing,63.89 (22.10)*
corpusC,52.57 (13.07),30.12,63.56 (23.28)*,60.36 (8.88)
avg,60.95,49.92,67.39,61.55
"""


@pytest.mark.parametrize("metric", METRIC_KEYS)
def test_report_files_pinned(tmp_path, metric):
    assert set(REPORT_SHA256) == set(METRIC_KEYS)
    save_report(build_cross_matrix(fabricated_runs()), tmp_path, metric)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("report.json", "report.csv", "report.txt")}
    assert got == {"report.json": REPORT_JSON, **REPORT_SHA256[metric]}
    if metric == "wa_eq2":
        assert (tmp_path / "report.csv").read_text() == WA_EQ2_CSV


def seeded_matrices():
    rng = np.random.default_rng(2026)
    for n in (2, 3, 4, 5):
        yield rng.integers(0, 20, size=(n, n))
    yield np.array([[5, 1, 0], [2, 4, 0], [0, 0, 0]])  # class c never true
    yield np.array([[0, 3, 1], [0, 0, 0], [0, 2, 7]])  # class b never true
    yield np.array([[4, 2], [0, 0]])  # one true class: every class degenerate in wa_eq2
    yield np.zeros((3, 3), dtype=int)


NO_TRUE_C = ["class 'c' has no true instances; skipped", "class 'c' degenerate in wa_eq2; skipped"]
NO_TRUE_B = ["class 'b' has no true instances; skipped", "class 'b' degenerate in wa_eq2; skipped"]
METRIC_SET_REPRS = [
    ("MetricSet(ua_eq1=90.625, wa_eq2=92.5, mean_class_recall=92.5, overall_accuracy=90.625)",
     []),
    ("MetricSet(ua_eq1=58.333333333333336, wa_eq2=54.788788845643985, "
     "mean_class_recall=39.480475951064186, overall_accuracy=37.5)", []),
    ("MetricSet(ua_eq1=61.40350877192983, wa_eq2=46.64131854419449, "
     "mean_class_recall=19.04543627104603, overall_accuracy=22.80701754385965)", []),
    ("MetricSet(ua_eq1=65.6038647342995, wa_eq2=46.76331020425192, "
     "mean_class_recall=14.689830508474575, overall_accuracy=14.009661835748792)", []),
    ("MetricSet(ua_eq1=83.33333333333334, wa_eq2=75.0, mean_class_recall=75.0, "
     "overall_accuracy=75.0)", NO_TRUE_C),
    ("MetricSet(ua_eq1=69.23076923076924, wa_eq2=63.19444444444444, "
     "mean_class_recall=38.88888888888889, overall_accuracy=53.84615384615385)", NO_TRUE_B),
    ("EmptyMatrix('every class degenerate in wa_eq2')",
     ["class 'b' has no true instances; skipped", "class 'a' degenerate in wa_eq2; skipped",
      "class 'b' degenerate in wa_eq2; skipped"]),
    ("EmptyMatrix('confusion matrix has no counts')", []),
]


def test_metric_set_pinned():
    got = []
    for counts in seeded_matrices():
        cm = ConfusionMatrix(tuple("abcde"[: len(counts)]), counts)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                text = repr(metric_set(cm))
            except ValidationFailure as exc:
                text = f"EmptyMatrix({str(exc)!r})"
        assert all(w.category is UserWarning for w in caught)
        got.append((text, [str(w.message) for w in caught]))
    assert got == METRIC_SET_REPRS
