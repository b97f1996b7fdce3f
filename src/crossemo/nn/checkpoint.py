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
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import CheckpointMismatch, IoFailure, MalformedHeader
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
    arrays in `state`, as one atomic file."""
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
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise MalformedHeader(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack_from("<II", raw, 4)
    if version != FORMAT_VERSION:
        raise MalformedHeader(f"{path}: unsupported checkpoint version {version}")
    header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    if expect_digest is not None and header["config_digest"] != expect_digest:
        raise CheckpointMismatch(
            f"{path}: config digest {header['config_digest']} != expected {expect_digest}"
        )
    offset = 12 + header_len
    blobs: dict = {"param": {}, "bn": {}, "state": {}}
    for entry in header["index"]:
        if entry["kind"] not in blobs:
            raise MalformedHeader(f"{path}: unknown blob kind {entry['kind']!r}")
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f4", count=n, offset=offset).reshape(shape).copy()
        offset += 4 * n
        blobs[entry["kind"]][entry["name"]] = arr
    return CheckpointData(
        arch=header["arch"],
        config=header["config"],
        digest=header["config_digest"],
        epoch=header["epoch"],
        params=blobs["param"],
        bn_stats=blobs["bn"],
        extra=header.get("extra", {}),
        state=blobs["state"],
    )


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
