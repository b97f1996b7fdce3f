"""One seeded training step of each shipped CNN profile, pinned in
`golden_step.json` (a characterization test, after Feathers, "Working
Effectively with Legacy Code", 2004).

    PYTHONPATH=src python tests/golden_step.py           # rewrite golden_step.json
    PYTHONPATH=src python tests/golden_step.py --print   # print the document instead

Each case is a profile's model, built at seed 7, run as one eval forward
and one training step on seeded 120-frame features, threaded (both cores,
every thread gate lowered to 1) and serial (one core). The file holds the
loss, and the sha256 and float64 norm of the eval and training logits,
every parameter's gradient and every batch-norm statistic after the step.
It also records numpy's version and `crossemo.BLAS_THREADS`: where both
match, `test_golden_step.py` compares the hashes; anywhere else, the loss
and the norms at relative `REL_TOL`.

A change that alters these numerics on purpose runs this script again and
says why in CHANGES.md."""

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import crossemo  # first: it sets the BLAS thread count before numpy loads the BLAS
import numpy as np

from crossemo.config import load_profile
from crossemo.nn import ops
from crossemo.nn.models import build_model

GOLDEN = Path(__file__).with_name("golden_step.json")
REL_TOL = 1e-5
CASES = {"paper-default": 3, "desk-scale": 16}  # profile: batch
SCHEDULES = {  # what each patches in `ops`
    "threaded": {"_cores": lambda: 2, "CONV_THREAD_MIN_WORK": 1, "BLSTM_THREAD_MIN_HIDDEN": 1},
    "serial": {"_cores": lambda: 1},
}
FRAMES = 120
SEED = 7


def digest(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    return {"sha256": hashlib.sha256(a.tobytes()).hexdigest(),
            "norm": float(np.linalg.norm(a.astype(np.float64)))}


def step(profile: str, batch: int) -> dict:
    graph = build_model("cnn-blstm-att", load_profile(profile)["model"], SEED)
    cfg = graph.config
    feats = np.random.default_rng(SEED).normal(
        size=(batch, FRAMES, cfg.input_bands)).astype(np.float32)
    graph.set_mode("eval")
    arrays = {"eval logits": graph.forward(feats).data}
    graph.set_mode("train")
    logits = graph.forward(feats, dropout_rng=np.random.default_rng(SEED))
    loss = ops.softmax_cross_entropy(logits, np.arange(batch) % cfg.n_classes)
    loss.backward()
    arrays["logits"] = logits.data
    arrays.update({f"{name}.grad": p.grad for name, p in graph.params.items()})
    arrays.update(graph.buffers)
    return {"loss": float(loss.data), "arrays": {k: digest(a) for k, a in arrays.items()}}


def run() -> dict:
    cases = {}
    for profile, batch in CASES.items():
        for schedule, patches in SCHEDULES.items():
            with mock.patch.multiple(ops, **patches):
                cases[f"{profile}/{schedule}"] = step(profile, batch)
    return {"numpy": np.__version__, "blas_threads": crossemo.BLAS_THREADS, "cases": cases}


def main(argv) -> None:
    text = json.dumps(run(), indent=1, sort_keys=True) + "\n"
    if argv == ["--print"]:
        sys.stdout.write(text)
    else:
        GOLDEN.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
