"""crossemo benchmark: one workload per run, from a seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a crossemo checkout. Set-up runs SETUP_REPEATS times.
One warm-up iteration follows, checked but not measured: the first pass in
a process pays for allocator growth and the program's shape caches. Then
measured iterations repeat until the next one would end past `--seconds`,
and at least MIN_ITERATIONS run. Every iteration's results must repeat
exactly. The last line of stdout is one JSON object: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer metrics from the traced
iterations (set-ups for synth.generate_s). A traced run alternates untraced
and traced iterations, starting untraced, so it can report its own tracing
overhead. Spans of a traced run are written to
.bench_work/traces/. Exit status is 1, with no result printed, when the checkout
holds no crossemo sources.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: OpenBLAS reads these once, at start-up. One
# thread, because on a shared machine a second BLAS thread that waits for a
# busy core stalls the whole matmul; timings spread more than they gained.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SETUP_REPEATS = 3
MIN_ITERATIONS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_crossemo():
    src = ROOT / "src"
    if not (src / "crossemo" / "__init__.py").is_file():
        sys.exit(f"error: no crossemo sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import crossemo

    if Path(crossemo.__file__).resolve().parent != (src / "crossemo").resolve():
        sys.exit(f"error: imported crossemo from {crossemo.__file__}, not {src}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def throughput(episodes, name: str) -> float:
    """Utterances per second through `name`, pooled over the episodes: the
    phases are short, so pooling their time steadies the figure more than a
    median of per-iteration rates would."""
    utts = sum(e.attr_sum(f"{name}.utts") for e in episodes)
    seconds = sum(e.total_s[name] for e in episodes)
    return utts / seconds if seconds else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_crossemo()
    import tracer as tr
    from workloads import WORKLOADS, Ops

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ops = Ops()
    tracer = tr.Tracer()
    setup_probes = tr.LAYER_PROBES if args.trace else tr.PHASE_PROBES
    setup_roots, iterations = [], []  # iterations: (root span, kind, result)

    def iterate(kind: str):
        tracer.install(tr.LAYER_PROBES if kind == "traced" else tr.PHASE_PROBES)
        for d in ctx["outputs"]:
            shutil.rmtree(d, ignore_errors=True)
        gc.collect()  # every iteration starts from the same collector state
        with tracer.span("iteration") as root:
            result = workload.iterate(ctx, tracer, ops)
        tracer.uninstall()
        iterations.append((root, kind, result))
        return tracer.wall(root)

    try:
        tracer.install(setup_probes)
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            with tracer.span("setup") as root:
                ctx = workload.setup(args.seed, work, tracer, ops)
            setup_roots.append(root)
        tracer.uninstall()

        iterate("warmup")
        start = time.perf_counter()
        walls: list = []
        while True:
            traced = bool(args.trace) and len(walls) % 2 == 1
            walls.append(iterate("traced" if traced else "untraced"))
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_ITERATIONS and elapsed + median(walls) > args.seconds:
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    results = [r for _, _, r in iterations]
    for key in ("final_loss", "ua"):
        values = [r.get(key) for r in results]
        problems = [] if len(set(map(repr, values))) == 1 else [f"{key} differs: {values}"]
        ops.record(f"repeat {key}", problems)

    eps = tr.episodes(tracer)
    setups = [eps[r] for r in setup_roots]
    untraced = [eps[r] for r, kind, _ in iterations if kind == "untraced"]
    traced_eps = [eps[r] for r, kind, _ in iterations if kind == "traced"]
    for r, _, _ in iterations:
        scored = eps[r].attr_sum("evaluation.evaluate_model.utts")
        expected = eps[r].attr_sum("evaluation.evaluate_model.expected")
        ops.record("predictions", [] if scored == expected else [
            f"{scored:.0f} predictions for {expected:.0f} utterances"])

    if args.trace:
        nesting = tr.nesting_errors(tracer)
        ops.record("trace nesting", nesting[:5])
        trace_dir = ROOT / ".bench_work" / "traces"
        tracer.write(trace_dir / f"{workload.name}-s{args.seed}.jsonl.gz")
        metrics = {
            name: {"value": float(median([fn(e) for e in traced_eps])), "unit": unit}
            for name, (unit, _, fn) in tr.LAYER_METRICS.items()
        }
        metrics.update({
            name: {"value": float(median([fn(e) for e in setups])), "unit": unit}
            for name, (unit, _, fn) in tr.SETUP_METRICS.items()
        })
        traced_wall = median([e.wall for e in traced_eps])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - median([e.wall for e in untraced]), "unit": "s"}
        metrics["trace.spans"] = {"value": median([e.n_spans for e in traced_eps]),
                                  "unit": "count"}
    else:
        metrics = {
            "setup_s": {"value": median([e.wall for e in setups]), "unit": "s"},
            "wall_s": {"value": median([e.wall for e in untraced]), "unit": "s"},
            "train_utts_per_s": {
                "value": throughput(untraced, "train.train_model"), "unit": "1/s"},
            "eval_utts_per_s": {
                "value": throughput(untraced, "evaluation.evaluate_model"), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "env": environment(),
        "setup_s": [e.wall for e in setups],
        "iterations": [
            {"kind": kind, "wall_s": eps[r].wall,
             "train_utts_per_s": throughput([eps[r]], "train.train_model"),
             "eval_utts_per_s": throughput([eps[r]], "evaluation.evaluate_model"), **res}
            for r, kind, res in iterations
        ],
        "failures": ops.notes,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
