"""One seeded training step per CNN profile against `golden_step.json`
(see `golden_step.py`, which writes it). The step runs in a fresh process
that imports crossemo before numpy, as the `crossemo` script does, so the
BLAS runs with the thread count the document records."""

import json
import os
import subprocess
import sys

import pytest

from golden_step import GOLDEN, REL_TOL


def fresh_run() -> dict:
    script = os.path.join(os.path.dirname(__file__), "golden_step.py")
    proc = subprocess.run([sys.executable, script, "--print"], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_step_matches_the_golden_file():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = fresh_run()
    exact = (got["numpy"], got["blas_threads"]) == (want["numpy"], want["blas_threads"])
    mode = ("exact" if exact else
            f"relative {REL_TOL} (numpy {got['numpy']}, BLAS threads {got['blas_threads']}; "
            f"the file was written with {want['numpy']}, {want['blas_threads']})")
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
