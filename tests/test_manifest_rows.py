"""Damaged manifest rows meet exit 2, never a traceback: `crossemo prepare`
driven in-process over mistyped, misspelled and null fields of a record and
of the header, under every label map."""

import json
import sys
import time

import pytest

from crossemo.cli import main

LABELS = ("angry", "happy", "sad", "neutral")
# each field's JSON types: a Python type, with None for null and float
# taking an int too
RECORD_TYPES = {
    "id": (str,), "audio_path": (str,), "corpus": (str,), "speaker": (str,), "style": (str,),
    "session": (str, None), "raw_labels": (dict,), "emotion": (str, None),
    "augmented": (bool,), "source_id": (str, None),
}
HEADER_TYPES = {"manifest_schema": (int,), "name": (str, None)}
# a number (two), a string, a list, an object, null and a bool
VALUES = (1, 1.5, "angry", ["angry"], {"angry": 1.0}, None, True)


def base_rows() -> list:
    header = {"manifest_schema": 1, "name": "sweep"}
    return [header] + [
        {"id": f"a{i}", "audio_path": f"a{i}.wav", "corpus": "sweep", "speaker": f"s{i % 2}",
         "style": "acted", "session": f"x{i % 2}", "raw_labels": {LABELS[i % 4]: 1.0},
         "emotion": LABELS[i % 4], "augmented": False, "source_id": None}
        for i in range(8)
    ]


def prepare(capsys, tmp_path, rows, label_map="none"):
    """(exit code, stderr) of `crossemo prepare` over `rows`; an exception
    that escapes `main` is exit 1, as it is for the installed command."""
    path = tmp_path / "m.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    try:
        code = main(["prepare", "--manifest", str(path), "--label-map", label_map,
                     "--strategy", "split-80-20", "--out", str(tmp_path / "out")])
    except Exception as exc:
        code = 1
        print(f"Traceback: {exc!r}", file=sys.stderr)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("field, value, label_map, key", [
    ("speaker", None, "none", "speaker"),
    ("raw_labels", {"anger": "high"}, "mosei", "raw_labels.anger"),
    ("raw_labels", {"angry": "x", "sad": 1.0}, "iemocap", "raw_labels.angry"),
    ("augmneted", True, "none", "augmneted"),
])
def test_damaged_record_exits_2_naming_record_and_key(capsys, tmp_path, field, value,
                                                      label_map, key):
    rows = base_rows()
    rows[1][field] = value
    code, err = prepare(capsys, tmp_path, rows, label_map)
    assert code == 2, err
    assert "record 'a0'" in err and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("at", [1, 4, 9], ids=["second-row", "after-three-records", "last-row"])
def test_second_header_exits_2(capsys, tmp_path, at):
    # a header after the first row once renamed the manifest, with exit 0
    rows = base_rows()
    rows.insert(at, {"manifest_schema": 1, "name": "second"})
    code, err = prepare(capsys, tmp_path, rows)
    assert code == 2, err
    assert "header" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def matches(value, types) -> bool:
    return any(value is None if t is None else
               type(value) is t or (t is float and type(value) is int) for t in types)


def test_type_sweep_over_record_and_header_fields(capsys, tmp_path):
    # a mismatched type exits 2 naming the field; any other value exits 0 or 2
    # (10 record fields + 2 header fields + one raw_labels score) x 7 values
    # x 3 label maps = 273 cases
    cases = [(1, f, RECORD_TYPES[f]) for f in RECORD_TYPES]
    cases += [(0, f, HEADER_TYPES[f]) for f in HEADER_TYPES]
    cases.append((1, "raw_labels.angry", (float,)))
    label_maps = ("none", "mosei", "iemocap")
    for label_map in label_maps:
        assert prepare(capsys, tmp_path, base_rows(), label_map)[0] == 0
    start, seen, wrong = time.perf_counter(), 0, []
    for row, field, types in cases:
        for value in VALUES:
            rows = base_rows()
            if field == "raw_labels.angry":
                rows[row]["raw_labels"] = {"angry": value}
            else:
                rows[row][field] = value
            for label_map in label_maps:
                seen += 1
                code, err = prepare(capsys, tmp_path, rows, label_map)
                if code not in (0, 2) or "Traceback" in err or (
                        not matches(value, types) and (code != 2 or field not in err)):
                    wrong.append((field, value, label_map, code, err.strip()))
    assert seen == 273
    assert wrong == []
    assert time.perf_counter() - start < 3.0
