"""One seeded training step per CNN profile, and a seeded corpus's WAVs,
against `golden_step.json` (see `golden_step.py`, which writes it). Both run
in one fresh process that imports crossemo before numpy, as the `crossemo`
script does, so the BLAS runs with the thread count the document records."""

import json
import math
import os
import subprocess
import sys

import pytest

from golden_step import GOLDEN, REL_TOL


@pytest.fixture(scope="module")
def fresh_run() -> dict:
    script = os.path.join(os.path.dirname(__file__), "golden_step.py")
    proc = subprocess.run([sys.executable, script, "--print"], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def want() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def compare_mode(got: dict, want: dict, loose: str):
    """(exact, the mode's name): exact where numpy's version and the BLAS
    thread count match the file's, else `loose`."""
    exact = (got["numpy"], got["blas_threads"]) == (want["numpy"], want["blas_threads"])
    return exact, ("exact" if exact else
                   f"{loose} (numpy {got['numpy']}, BLAS threads {got['blas_threads']}; "
                   f"the file was written with {want['numpy']}, {want['blas_threads']})")


def test_step_matches_the_golden_file(fresh_run, want):
    got = fresh_run
    exact, mode = compare_mode(got, want, f"relative {REL_TOL}")
    assert got["cases"].keys() == want["cases"].keys()
    for case, expected in want["cases"].items():
        actual = got["cases"][case]
        assert actual["arrays"].keys() == expected["arrays"].keys(), case
        pairs = [("loss", actual["loss"], expected["loss"])]
        for name, a in expected["arrays"].items():
            if exact:
                assert actual["arrays"][name]["sha256"] == a["sha256"], f"{case} {name} ({mode})"
            pairs.append((name, actual["arrays"][name]["norm"], a["norm"]))
        for name, value, ref in pairs:
            if exact:
                assert value == ref, f"{case} {name} ({mode})"
            else:
                assert value == pytest.approx(ref, rel=REL_TOL), f"{case} {name} ({mode})"


def test_wavs_match_the_golden_file(fresh_run, want):
    got = fresh_run
    exact, mode = compare_mode(got, want, "decoded samples within 1 LSB")
    assert got["wavs"].keys() == want["wavs"].keys(), mode
    for name, expected in want["wavs"].items():
        actual = got["wavs"][name]
        if exact:
            assert actual == expected, f"{name} ({mode})"
            continue
        n = expected["samples"]
        assert (actual["rate"], actual["samples"]) == (expected["rate"], n), f"{name} ({mode})"
        assert abs(actual["sum"] - expected["sum"]) <= n, f"{name} sum ({mode})"
        assert abs(actual["norm"] - expected["norm"]) <= math.sqrt(n), f"{name} norm ({mode})"
