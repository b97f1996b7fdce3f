"""Span tracer that measures crossemo from outside.

Every probe replaces one public function at each name its callers look it
up by (a module attribute or a class attribute), times the call as a span
and restores the original on `uninstall`. Backward passes are timed by
wrapping the `_backward` closure of every autodiff node a traced op or
layer call creates. Spans are kept in memory; `write` dumps them once, at
exit.

A span is (name, start, end, parent). Self time is a span's duration minus
the durations of its children; children never overlap because the program
runs on one thread.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from crossemo.nn.tensor import Tensor

# every crossemo module a probe may be bound in; imported before patching so
# names bound with `from x import f` are found and replaced too
CROSSEMO_MODULES = (
    "crossemo.audio",
    "crossemo.augment",
    "crossemo.cli",
    "crossemo.config",
    "crossemo.corpus",
    "crossemo.evaluation",
    "crossemo.features",
    "crossemo.nn",
    "crossemo.nn.checkpoint",
    "crossemo.nn.layers",
    "crossemo.nn.models",
    "crossemo.nn.ops",
    "crossemo.nn.tensor",
    "crossemo.report",
    "crossemo.synth",
    "crossemo.train",
)


class Tracer:
    """Records nested spans; `install` attaches the probes to crossemo.

    Span fields live in parallel arrays rather than one object per span, so
    a long trace adds nothing for the garbage collector to scan: a traced
    run should not change how often and how long the program collects.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # index of the parent span, -1 for a root
        self.calls = array("q")
        self.key = array("q")  # spans with equal key, name and parent merge when adjacent
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._next_key = 0

    def __len__(self) -> int:
        return len(self.names)

    def wall(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    # -- recording -------------------------------------------------------

    def open(self, name: str, key: int = -1) -> int:
        parent = self._stack[-1] if self._stack else -1
        last = len(self.names) - 1
        if (
            key >= 0
            and last >= 0
            and self.key[last] == key
            and self.names[last] == name
            and self.parent[last] == parent
        ):
            # the nodes of one layer call run back to back in backward; one
            # span covers the run (only leaf nodes without work sit between)
            self.calls[last] += 1
            idx = last
        else:
            idx = len(self.names)
            self.names.append(name)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.parent.append(parent)
            self.calls.append(1)
            self.key.append(key)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")
        self.end[idx] = time.perf_counter()

    def annotate(self, idx: int, **values) -> None:
        attrs = self.attrs.setdefault(idx, {})
        for k, v in values.items():
            attrs[k] = attrs.get(k, 0) + v

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def new_key(self) -> int:
        self._next_key += 1
        return self._next_key

    # -- patching --------------------------------------------------------

    def install(self, probes) -> None:
        for module in CROSSEMO_MODULES:
            importlib.import_module(module)
        for probe in probes:
            owner_path, _, attr = probe.target.rpartition(".")
            original = _resolve(owner_path, attr)
            wrapper = probe.build(self, original)
            for owner, name in _bindings(original, owner_path, attr):
                self._patches.append((owner, name, getattr(owner, name)))
                setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- export ----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                row = {"id": i, "name": name, "start": self.start[i], "end": self.end[i],
                       "parent": self.parent[i], "calls": self.calls[i]}
                if i in self.attrs:
                    row["attrs"] = self.attrs[i]
                fh.write(json.dumps(row) + "\n")


def _resolve(owner_path: str, attr: str):
    owner = _owner(owner_path)
    return owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)


def _owner(path: str):
    if path in sys.modules:
        return sys.modules[path]
    module_path, _, cls = path.rpartition(".")
    return getattr(sys.modules[module_path], cls)


def _bindings(original, owner_path: str, attr: str):
    """Every (owner, name) through which callers reach `original`."""
    owner = _owner(owner_path)
    if inspect.isclass(owner):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "crossemo" or name.startswith("crossemo.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


# -- probes ----------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """Time calls to `target` as spans named by `name` (a string, or a
    function of the call's arguments); `after(tracer, idx, args, result)`
    runs once the call returned."""

    target: str
    name: object
    after: object = None

    def build(self, tracer: Tracer, func):
        name, after = self.name, self.after

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name(args) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, idx, args, result)
            return result

        return wrapper


def _reachable(output, inputs=()):
    """Autodiff nodes reachable from `output` without passing through
    `inputs`. With a call's inputs, these are the nodes the call created."""
    stop = {id(t) for t in inputs}
    seen = set()
    nodes = []
    stack = [output]
    while stack:
        node = stack.pop()
        if id(node) in seen or id(node) in stop:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def _time_backward(bwd_name: str, output_of=lambda result: result):
    """`after` hook: wrap the backward closure of every node the call made."""

    def after(tracer: Tracer, idx: int, args, result):
        out = output_of(result)
        if not out.requires_grad:
            return
        inputs = [a for a in args if isinstance(a, Tensor)]
        key = tracer.new_key()
        for node in _reachable(out, inputs):
            inner = node._backward
            if inner is None:  # a leaf: parameter or constant
                continue

            def timed(g, inner=inner):
                i = tracer.open(bwd_name, key)
                try:
                    inner(g)
                finally:
                    tracer.close(i)

            node._backward = timed

    return after


def _effect_span(args) -> str:
    kind = args[1].kind
    return f"audio.{kind}" if kind in ("speed", "tempo") else "audio.other_effects"


def _forward_span(args) -> str:
    return f"nn.forward_{args[0].mode}"


def _count_train(tracer, idx, args, result):
    tracer.annotate(idx, utts=len(result.fit_ids) * len(result.history))


def _count_eval(tracer, idx, args, result):
    tracer.annotate(idx, utts=len(result.predictions), expected=len(args[2].records))


def _count_plan(tracer, idx, args, result):
    _, outcomes = result
    tracer.annotate(
        idx, entries=len(outcomes), failed=sum(1 for o in outcomes if o.status != "ok")
    )


def _count_checkpoint(tracer, idx, args, result):
    tracer.annotate(idx, bytes=Path(args[1]).stat().st_size)


def _count_cache(tracer, idx, args, result):
    tracer.annotate(idx, hits=int(result is not None))


def _count_graph(tracer, idx, args, result):
    tracer.annotate(idx, nodes=len(_reachable(args[0])))


# spans the end-to-end metrics need; cheap enough for untraced runs
PHASE_PROBES = (
    Probe("crossemo.train.train_model", "train.train_model", _count_train),
    Probe("crossemo.evaluation.evaluate_model", "evaluation.evaluate_model", _count_eval),
)

LAYER_PROBES = PHASE_PROBES + (
    Probe("crossemo.synth.generate_corpus", "synth.generate_corpus"),
    Probe("crossemo.corpus.load_manifest", "corpus"),
    Probe("crossemo.corpus.save_manifest", "corpus"),
    Probe("crossemo.corpus.load_fold_plan", "corpus"),
    Probe("crossemo.corpus.save_fold_plan", "corpus"),
    Probe("crossemo.corpus.make_split_80_20", "corpus"),
    Probe("crossemo.augment.apply_plan", "augment.apply_plan", _count_plan),
    Probe("crossemo.audio.apply_effect", _effect_span),
    Probe("crossemo.audio.read_wav", "audio.read_wav"),
    Probe("crossemo.audio.write_wav", "audio.write_wav"),
    Probe("crossemo.features.compute_features", "features.compute"),
    Probe("crossemo.features.FeatureStore.batch", "features.batch"),
    Probe("crossemo.features.FeatureCache.get", "features.cache_get", _count_cache),
    Probe("crossemo.nn.models.build_model", "nn.build"),
    Probe("crossemo.nn.models.ModelGraph.forward", _forward_span),
    Probe("crossemo.nn.ops.conv2d", "nn.conv2d.fwd", _time_backward("nn.conv2d.bwd")),
    Probe("crossemo.nn.ops.max_pool2d", "nn.max_pool2d.fwd",
          _time_backward("nn.max_pool2d.bwd")),
    Probe("crossemo.nn.layers.blstm_forward", "nn.blstm.fwd", _time_backward("nn.blstm.bwd")),
    Probe("crossemo.nn.layers.dense", "nn.fc.fwd", _time_backward("nn.fc.bwd")),
    Probe("crossemo.nn.layers.attention_forward", "nn.attention.fwd",
          _time_backward("nn.attention.bwd", output_of=lambda result: result[0])),
    Probe("crossemo.nn.tensor.Tensor.backward", "nn.backward", _count_graph),
    Probe("crossemo.train.adam_step", "train.adam_step"),
    Probe("crossemo.train.predict_ids", "train.validation"),
    Probe("crossemo.nn.checkpoint.save_checkpoint", "checkpoint.save", _count_checkpoint),
    Probe("crossemo.nn.checkpoint.load_checkpoint", "checkpoint.load"),
    Probe("crossemo.nn.checkpoint.graph_from_checkpoint", "checkpoint.load"),
    Probe("crossemo.report.save_report", "report.save"),
)


# -- analysis --------------------------------------------------------------


class Episode:
    """Self times, call counts and annotations summed over the spans under
    one root span (a set-up or one iteration of the timed phase)."""

    def __init__(self, t: Tracer, root: int, members: list[int], child_time):
        self.wall = t.wall(root)
        self.n_spans = len(members)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.attrs: dict[str, list] = defaultdict(list)
        for i in members:
            name, dur = t.names[i], t.wall(i)
            self.self_s[name] += dur - child_time[i]
            self.total_s[name] += dur
            self.calls[name] += t.calls[i]
            for k, v in t.attrs.get(i, {}).items():
                self.attrs[f"{name}.{k}"].append(v)

    def attr_sum(self, key: str) -> float:
        return float(sum(self.attrs.get(key, ())))


def episodes(t: Tracer) -> dict[int, Episode]:
    """One Episode per root span, keyed by the root's index. A parent's
    index is always lower than its children's."""
    child_time = [0.0] * len(t)
    root_of = [0] * len(t)
    members: dict[int, list[int]] = defaultdict(list)
    for i in range(len(t)):
        p = t.parent[i]
        if p >= 0:
            child_time[p] += t.wall(i)
            root_of[i] = root_of[p]
        else:
            root_of[i] = i
        members[root_of[i]].append(i)
    return {r: Episode(t, r, m, child_time) for r, m in members.items()}


def nesting_errors(t: Tracer) -> list[str]:
    """Spans that do not lie within their parent."""
    bad = []
    for i, name in enumerate(t.names):
        if t.end[i] < t.start[i]:
            bad.append(f"span {i} ({name}) ends before it starts")
        p = t.parent[i]
        if p >= 0 and (t.start[i] < t.start[p] or t.end[i] > t.end[p]):
            bad.append(f"span {i} ({name}) outside parent {p} ({t.names[p]})")
    return bad


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric -> (unit, better, function of one traced Episode). All
# `_s` values are self times except features.batch_s, which is the time a
# training or eval step waits for its batch (compute and cache reads included).
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", lambda e: e.self_s["cli.main"]),
    "cli.calls": ("count", "lower", lambda e: e.calls["cli.main"]),
    "corpus.self_s": ("s", "lower", lambda e: e.self_s["corpus"]),
    "augment.apply_plan_s": ("s", "lower", lambda e: e.self_s["augment.apply_plan"]),
    "augment.entries": ("count", "lower", lambda e: e.attr_sum("augment.apply_plan.entries")),
    "augment.failed": ("count", "lower", lambda e: e.attr_sum("augment.apply_plan.failed")),
    "audio.speed_s": ("s", "lower", lambda e: e.self_s["audio.speed"]),
    "audio.tempo_s": ("s", "lower", lambda e: e.self_s["audio.tempo"]),
    "audio.other_effects_s": ("s", "lower", lambda e: e.self_s["audio.other_effects"]),
    "audio.effect_calls": ("count", "lower", lambda e: (
        e.calls["audio.speed"] + e.calls["audio.tempo"] + e.calls["audio.other_effects"])),
    "audio.read_wav_s": ("s", "lower", lambda e: e.self_s["audio.read_wav"]),
    "audio.write_wav_s": ("s", "lower", lambda e: e.self_s["audio.write_wav"]),
    "features.compute_s": ("s", "lower", lambda e: e.self_s["features.compute"]),
    "features.compute_calls": ("count", "lower", lambda e: e.calls["features.compute"]),
    "features.cache_hit_ratio": ("ratio", "higher", lambda e: _ratio(
        e.attr_sum("features.cache_get.hits"),
        e.attr_sum("features.cache_get.hits") + e.calls["features.compute"])),
    "features.batch_s": ("s", "lower", lambda e: e.total_s["features.batch"]),
    "nn.build_s": ("s", "lower", lambda e: e.self_s["nn.build"]),
    "nn.forward_train_s": ("s", "lower", lambda e: e.self_s["nn.forward_train"]),
    "nn.forward_eval_s": ("s", "lower", lambda e: e.self_s["nn.forward_eval"]),
    "nn.backward_s": ("s", "lower", lambda e: e.self_s["nn.backward"]),
    "nn.graph_nodes_per_step": ("count", "lower", lambda e: (
        statistics.median(e.attrs["nn.backward.nodes"]) if e.attrs["nn.backward.nodes"] else 0)),
    **{
        f"nn.{family}.{phase}_s": ("s", "lower",
                                   lambda e, n=f"nn.{family}.{phase}": e.self_s[n])
        for family in ("conv2d", "max_pool2d", "blstm", "fc", "attention")
        for phase in ("fwd", "bwd")
    },
    "train.self_s": ("s", "lower", lambda e: e.self_s["train.train_model"]),
    "train.adam_s": ("s", "lower", lambda e: e.self_s["train.adam_step"]),
    "train.validation_s": ("s", "lower", lambda e: e.self_s["train.validation"]),
    "train.steps": ("count", "lower", lambda e: e.calls["train.adam_step"]),
    "checkpoint.save_s": ("s", "lower", lambda e: e.self_s["checkpoint.save"]),
    "checkpoint.load_s": ("s", "lower", lambda e: e.self_s["checkpoint.load"]),
    "checkpoint.bytes": ("bytes", "lower", lambda e: e.attr_sum("checkpoint.save.bytes")),
    "evaluation.evaluate_s": ("s", "lower", lambda e: e.self_s["evaluation.evaluate_model"]),
    "report.save_s": ("s", "lower", lambda e: e.self_s["report.save"]),
}

# measured over the set-up episodes rather than the timed iterations
SETUP_METRICS = {
    "synth.generate_s": ("s", "lower", lambda e: e.self_s["synth.generate_corpus"]),
}
