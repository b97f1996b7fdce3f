"""Cross-corpus report assembly.

A report is a pure function of a set of run results: one column per model
(train set), one row per test set, per-cell fold mean and population std
for all four metric variants, matched cells marked, a per-model average
row, and global matched/mismatched averages. Cells without runs are flagged
missing, never fabricated. Emitted as canonical JSON, CSV, and a rendered
text table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationFailure, from_fields
from .evaluation import METRIC_KEYS, MetricSet, aggregate_folds
from .ioutil import atomic_write_text, write_json

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunRecord:
    """One evaluated (train set, test set, fold) cell contribution."""

    train_tag: str
    test_tag: str
    fold: int
    metrics: MetricSet
    train_components: tuple[str, ...] = ()

    def is_matched(self) -> bool:
        return self.test_tag == self.train_tag or self.test_tag in self.train_components

    def to_json(self) -> dict:
        return {
            "train_tag": self.train_tag,
            "test_tag": self.test_tag,
            "fold": self.fold,
            "metrics": self.metrics.to_json(),
            "train_components": list(self.train_components),
        }

    @classmethod
    def from_json(cls, obj) -> "RunRecord":
        """Inverse of `to_json`, skipping the other keys of the metrics file
        `crossemo eval` writes. An unknown, missing or mistyped field raises
        ValidationFailure."""
        return from_fields(cls, obj, "run record", ignore=(
            "checkpoint", "checkpoint_epoch", "restrict_classes", "classes", "confusion"))


@dataclass
class CrossCorpusReport:
    models: tuple
    test_sets: tuple
    cells: dict  # (train, test) -> cell dict
    per_model_avg: dict
    matched_avg: dict | None
    mismatched_avg: dict | None

    def cell(self, train_tag: str, test_tag: str) -> dict:
        return self.cells[(train_tag, test_tag)]


def build_cross_matrix(runs) -> CrossCorpusReport:
    """Assemble the matrix. Order-independent: the run list may arrive in
    any order and the report comes out identical."""
    if not runs:
        raise ValidationFailure("no runs to report")
    models = tuple(sorted({r.train_tag for r in runs}))
    test_sets = tuple(sorted({r.test_tag for r in runs}))

    grouped: dict = {}
    matched_flags: dict = {}
    for r in sorted(runs, key=lambda r: (r.train_tag, r.test_tag, r.fold)):
        key = (r.train_tag, r.test_tag)
        grouped.setdefault(key, []).append(r)
        flag = r.is_matched()
        if key in matched_flags and matched_flags[key] != flag:
            raise ValidationFailure(f"inconsistent matched flag for cell {key}")
        matched_flags[key] = flag

    cells: dict = {}
    for train in models:
        for test in test_sets:
            key = (train, test)
            if key not in grouped:
                cells[key] = {"missing": True}
                continue
            cell_runs = grouped[key]
            folds = [r.fold for r in cell_runs]
            if len(set(folds)) != len(folds):
                raise ValidationFailure(f"duplicate fold entries for cell {key}")
            stats = {}
            for metric in METRIC_KEYS:
                mean, std = aggregate_folds(
                    [getattr(r.metrics, metric) for r in cell_runs]
                )
                stats[metric] = {"mean": mean, "std": std, "n_folds": len(cell_runs)}
            cells[key] = {"missing": False, "matched": matched_flags[key], **stats}

    per_model_avg: dict = {}
    for train in models:
        per_metric = {}
        for metric in METRIC_KEYS:
            values = [
                cells[(train, test)][metric]["mean"]
                for test in test_sets
                if not cells[(train, test)]["missing"]
            ]
            per_metric[metric] = float(np.mean(values)) if values else None
        per_model_avg[train] = per_metric

    def _condition_avg(want_matched: bool):
        out = {}
        for metric in METRIC_KEYS:
            values = [
                cell[metric]["mean"]
                for cell in cells.values()
                if not cell["missing"] and cell["matched"] == want_matched
            ]
            out[metric] = float(np.mean(values)) if values else None
        return None if all(v is None for v in out.values()) else out

    return CrossCorpusReport(
        models=models,
        test_sets=test_sets,
        cells=cells,
        per_model_avg=per_model_avg,
        matched_avg=_condition_avg(True),
        mismatched_avg=_condition_avg(False),
    )


def report_to_json(report: CrossCorpusReport) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "metrics": list(METRIC_KEYS),
        "models": list(report.models),
        "test_sets": list(report.test_sets),
        "cells": {
            f"{train}|{test}": cell for (train, test), cell in sorted(report.cells.items())
        },
        "per_model_avg": report.per_model_avg,
        "matched_avg": report.matched_avg,
        "mismatched_avg": report.mismatched_avg,
        "notes": "std is the population standard deviation over folds; "
        "cells with a single fold omit it",
    }


def report_to_csv(report: CrossCorpusReport, metric: str = "ua_eq1") -> str:
    lines = ["test_set," + ",".join(report.models)]
    for test in report.test_sets:
        row = [test]
        for train in report.models:
            cell = report.cell(train, test)
            if cell["missing"]:
                row.append("missing")
            else:
                stat = cell[metric]
                std = "" if stat["std"] is None else f" ({stat['std']:.2f})"
                mark = "*" if cell["matched"] else ""
                row.append(f"{stat['mean']:.2f}{std}{mark}")
        lines.append(",".join(row))
    avg_row = ["avg"]
    for train in report.models:
        value = report.per_model_avg[train][metric]
        avg_row.append("" if value is None else f"{value:.2f}")
    lines.append(",".join(avg_row))
    return "\n".join(lines) + "\n"


def _format_cell(cell: dict, metric: str) -> str:
    if cell["missing"]:
        return "missing"
    stat = cell[metric]
    text = f"{stat['mean']:.1f}"
    if stat["std"] is not None:
        text += f" ({stat['std']:.1f})"
    if cell["matched"]:
        text += "*"
    return text


def render_table(report: CrossCorpusReport, metric: str = "ua_eq1") -> str:
    """Human-readable grid; matched cells carry a trailing asterisk."""
    if metric not in METRIC_KEYS:
        raise ValidationFailure(f"unknown metric {metric!r}; pick from {METRIC_KEYS}")
    header = ["Tested on"] + list(report.models)
    rows = []
    for test in report.test_sets:
        rows.append([test] + [_format_cell(report.cell(m, test), metric) for m in report.models])
    avg_row = ["Avg"]
    for m in report.models:
        value = report.per_model_avg[m][metric]
        avg_row.append("-" if value is None else f"{value:.1f}")
    rows.append(avg_row)

    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    def fmt(row):
        return " | ".join(cell.ljust(w) for cell, w in zip(row, widths))

    sep = "-+-".join("-" * w for w in widths)
    lines = [
        f"Cross-corpus report -- metric: {metric}; cell = mean (std) over folds; "
        "* marks matched train/test conditions",
        fmt(header),
        sep,
    ]
    for row in rows[:-1]:
        lines.append(fmt(row))
    lines.append(sep)
    lines.append(fmt(rows[-1]))
    if report.matched_avg is not None and report.matched_avg[metric] is not None:
        lines.append(f"Matched average: {report.matched_avg[metric]:.1f}")
    if report.mismatched_avg is not None and report.mismatched_avg[metric] is not None:
        lines.append(f"Mismatched average: {report.mismatched_avg[metric]:.1f}")
    lines.append(
        "Metric variants reported in the JSON output: " + ", ".join(METRIC_KEYS)
        + ". std is the population standard deviation; single-fold cells omit it."
    )
    return "\n".join(lines) + "\n"


def save_report(report: CrossCorpusReport, out_dir: str | Path, metric: str = "ua_eq1") -> dict:
    out_dir = Path(out_dir)
    paths = {
        "json": out_dir / "report.json",
        "csv": out_dir / "report.csv",
        "table": out_dir / "report.txt",
    }
    table = render_table(report, metric)  # rejects an unknown metric before any write
    write_json(paths["json"], report_to_json(report))
    atomic_write_text(paths["csv"], report_to_csv(report, metric))
    atomic_write_text(paths["table"], table)
    return {k: str(v) for k, v in paths.items()}
