"""Versioned binary checkpoints.

Layout: magic "XEMO", u32 format version, u32 header length, JSON header
(architecture tag, config, config digest, epoch, extra metadata, blob
index), then raw little-endian float32 blobs in index order. Blobs cover
every parameter (kind "param"), the batch-norm running statistics ("bn")
and any caller state ("state"; training stores the Adam moments there as
`m::<param>` and `v::<param>`). Training's last checkpoint also carries a
"run" entry in the extra metadata: the Adam step count, the plateau state,
the best-validation bookkeeping and the history rows so far, so one file
holds everything a resume needs. Loading against an expected digest
rejects mismatching configs.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import BadConfig, CheckpointMismatch, IoFailure, MalformedHeader
from ..ioutil import atomic_write_bytes
from .models import ModelGraph, build_model, config_to_dict
from .ops import BnStats

MAGIC = b"XEMO"
FORMAT_VERSION = 1


@dataclass
class CheckpointData:
    arch: str
    config: dict
    digest: str
    epoch: int
    params: dict
    bn_stats: dict
    extra: dict
    state: dict


def save_checkpoint(graph: ModelGraph, path: str | Path, epoch: int, extra: dict | None = None,
                    state: dict | None = None) -> None:
    """Write the graph's parameters and batch-norm statistics, plus the
    arrays in `state`, as one atomic file. `extra` must be a dict."""
    if extra is not None and not isinstance(extra, dict):
        raise BadConfig(f"checkpoint extra must be a dict, got {type(extra).__name__}")
    entries = [(name, "param", graph.params[name].data) for name in sorted(graph.params)]
    entries += [
        (f"{name}.{part}", "bn", getattr(graph.bn_stats[name], part))
        for name in sorted(graph.bn_stats)
        for part in ("mean", "var")
    ]
    entries += [(name, "state", state[name]) for name in sorted(state or {})]
    blobs = []
    index = []
    for name, kind, arr in entries:
        arr = arr.astype("<f4")
        index.append({"name": name, "kind": kind, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = {
        "arch": graph.arch,
        "config": config_to_dict(graph.config),
        "config_digest": graph.digest,
        "epoch": int(epoch),
        "extra": extra or {},
        "index": index,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(
        [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_bytes)), header_bytes]
        + blobs
    )
    atomic_write_bytes(path, payload)


def load_checkpoint(path: str | Path, expect_digest: str | None = None) -> CheckpointData:
    """Read a checkpoint. A header that does not decode or has mistyped fields,
    or a file size other than the one the header's blob index gives, raises
    MalformedHeader."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise MalformedHeader(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack_from("<II", raw, 4)
    if version != FORMAT_VERSION:
        raise MalformedHeader(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
        index = [(e["name"], e["kind"], tuple(map(int, e["shape"]))) for e in header["index"]]
        arch, config, digest = header["arch"], header["config"], header["config_digest"]
        epoch, extra = header["epoch"], header.get("extra", {})
    except (ValueError, KeyError, TypeError) as exc:  # incl. Unicode and JSON decode errors
        raise MalformedHeader(f"{path}: undecodable checkpoint header ({exc!r})") from exc
    if not (isinstance(config, dict) and isinstance(extra, dict) and type(epoch) is int):
        raise MalformedHeader(f"{path}: checkpoint header needs object config and extra "
                              f"and an integer epoch")
    if any(d < 0 for _, _, shape in index for d in shape):
        raise MalformedHeader(f"{path}: negative blob dimension in the index")
    expected = 12 + header_len + sum(4 * math.prod(shape) for _, _, shape in index)
    if expected != len(raw):
        raise MalformedHeader(f"{path}: {len(raw)} bytes, but its header describes {expected}")
    if expect_digest is not None and digest != expect_digest:
        raise CheckpointMismatch(f"{path}: config digest {digest} != expected {expect_digest}")
    offset = 12 + header_len
    blobs: dict = {"param": {}, "bn": {}, "state": {}}
    for name, kind, shape in index:
        if kind not in blobs:
            raise MalformedHeader(f"{path}: unknown blob kind {kind!r}")
        n = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f4", count=n, offset=offset)
        blobs[kind][name] = arr.reshape(shape).copy()
        offset += 4 * n
    return CheckpointData(arch=arch, config=config, digest=digest, epoch=epoch,
                          params=blobs["param"], bn_stats=blobs["bn"], extra=extra,
                          state=blobs["state"])


def graph_from_checkpoint(data: CheckpointData) -> ModelGraph:
    """Rebuild a graph and load the stored parameters into it."""
    graph = build_model(data.arch, dict(data.config), seed=0)
    if graph.digest != data.digest:
        raise CheckpointMismatch(
            f"rebuilt config digest {graph.digest} != stored {data.digest}"
        )
    load_into_graph(graph, data)
    graph.set_mode("eval")
    return graph


def load_into_graph(graph: ModelGraph, data: CheckpointData) -> None:
    """Copy stored parameters and batch-norm state into an existing graph.
    The checkpoint must hold exactly the graph's parameters and statistics."""
    bn_names = {f"{base}.{part}" for base in graph.bn_stats for part in ("mean", "var")}
    for kind, want, have in (
        ("parameter", set(graph.params), set(data.params)),
        ("batch-norm state", bn_names, set(data.bn_stats)),
    ):
        if have - want:
            raise CheckpointMismatch(f"unexpected {kind} in checkpoint: {sorted(have - want)}")
        if want - have:
            raise CheckpointMismatch(f"checkpoint lacks {kind}: {sorted(want - have)}")
    for name, arr in data.params.items():
        if graph.params[name].shape != arr.shape:
            raise CheckpointMismatch(
                f"parameter {name!r}: shape {arr.shape} != {graph.params[name].shape}"
            )
        graph.params[name].data = arr.astype(np.float32)
    for name, arr in data.bn_stats.items():
        base, part = name.rsplit(".", 1)
        stats: BnStats = graph.bn_stats[base]
        if part == "mean":
            stats.mean = arr.astype(np.float32)
        else:
            stats.var = arr.astype(np.float32)
