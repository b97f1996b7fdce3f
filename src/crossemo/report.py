"""Cross-corpus report assembly.

A report is a pure function of a set of run results: one column per model
(train set), one row per test set, per-cell fold mean and population std
for all four metric variants, matched cells marked, a per-model average
row, and global matched/mismatched averages. Cells without runs are flagged
missing, never fabricated. Every average is `aggregate_folds`'s mean of cell
means. Emitted as canonical JSON, and as CSV and a rendered text table that
format one grid of cell texts (`_grid`) at 2 and 1 decimals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

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
        return asdict(self)

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

    present = [cell for cell in cells.values() if not cell["missing"]]
    per_model_avg = {
        train: _average([cells[(train, test)] for test in test_sets
                         if not cells[(train, test)]["missing"]])
        for train in models
    }
    matched = [cell for cell in present if cell["matched"]]
    mismatched = [cell for cell in present if not cell["matched"]]
    return CrossCorpusReport(
        models=models,
        test_sets=test_sets,
        cells=cells,
        per_model_avg=per_model_avg,
        matched_avg=_average(matched) if matched else None,
        mismatched_avg=_average(mismatched) if mismatched else None,
    )


def _average(cells: list) -> dict:
    """Per metric, the mean of the cells' fold means; None for no cells."""
    return {metric: aggregate_folds([cell[metric]["mean"] for cell in cells])[0] if cells else None
            for metric in METRIC_KEYS}


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


def _grid(report: CrossCorpusReport, metric: str, digits: int, blank: str) -> tuple:
    """Cell texts at `digits` decimals: one row per test set (its name, then
    per model "mean (std)" with `*` when matched, or "missing"), and per model
    its average (`blank` when it has none)."""
    if metric not in METRIC_KEYS:
        raise ValidationFailure(f"unknown metric {metric!r}; pick from {METRIC_KEYS}")

    def text(cell: dict) -> str:
        if cell["missing"]:
            return "missing"
        stat = cell[metric]
        std = "" if stat["std"] is None else f" ({stat['std']:.{digits}f})"
        return f"{stat['mean']:.{digits}f}{std}{'*' if cell['matched'] else ''}"

    rows = [[test] + [text(report.cell(m, test)) for m in report.models]
            for test in report.test_sets]
    avg = [blank if report.per_model_avg[m][metric] is None
           else f"{report.per_model_avg[m][metric]:.{digits}f}" for m in report.models]
    return rows, avg


def report_to_csv(report: CrossCorpusReport, metric: str = "ua_eq1") -> str:
    rows, avg = _grid(report, metric, digits=2, blank="")
    header = ["test_set", *report.models]
    return "".join(",".join(row) + "\n" for row in [header, *rows, ["avg", *avg]])


def render_table(report: CrossCorpusReport, metric: str = "ua_eq1") -> str:
    """Human-readable grid; matched cells carry a trailing asterisk."""
    rows, avg = _grid(report, metric, digits=1, blank="-")
    header, avg = ["Tested on", *report.models], ["Avg", *avg]
    widths = [max(len(r[i]) for r in [header, *rows, avg]) for i in range(len(header))]

    def fmt(row):
        return " | ".join(cell.ljust(w) for cell, w in zip(row, widths))

    sep = "-+-".join("-" * w for w in widths)
    lines = [
        f"Cross-corpus report -- metric: {metric}; cell = mean (std) over folds; "
        "* marks matched train/test conditions",
        fmt(header), sep, *map(fmt, rows), sep, fmt(avg),
    ]
    for name, condition in (("Matched", report.matched_avg), ("Mismatched", report.mismatched_avg)):
        if condition is not None:
            lines.append(f"{name} average: {condition[metric]:.1f}")
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
