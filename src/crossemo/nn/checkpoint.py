"""Versioned binary checkpoints.

Layout: magic "XEMO", u32 format version, u32 header length, JSON header (a
`CheckpointHeader`, written as its `asdict` and read through
`errors.from_fields`), then raw little-endian float32 blobs in index order.
Blobs cover every parameter (kind "param"), the graph's buffers ("bn") and
any caller state ("state"; training stores the Adam moments there as
`m::<param>` and `v::<param>`). The schema of `extra` in the checkpoints
training writes is `train.CheckpointExtra`: all an evaluation needs and, in
the last checkpoint, all a resume needs. Loading against an expected digest
rejects mismatching configs.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import RuntimeFailure, ValidationFailure, from_fields
from ..ioutil import atomic_write_bytes, dumps_json, parse_json
from .models import ModelGraph, build_model

MAGIC = b"XEMO"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class BlobEntry:
    name: str
    kind: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class CheckpointHeader:
    arch: str
    config: dict[str, object]
    config_digest: str
    epoch: int
    extra: dict[str, object]
    index: tuple[BlobEntry, ...]


@dataclass(frozen=True)
class CheckpointData(CheckpointHeader):
    """A loaded checkpoint: its header plus each kind of blob by name."""

    params: dict
    bn_stats: dict
    state: dict


def save_checkpoint(graph: ModelGraph, path: str | Path, epoch: int, extra: dict | None = None,
                    state: dict | None = None) -> None:
    """Write the graph's parameters and buffers, plus the arrays in `state`,
    as one atomic file. `extra` must be a dict."""
    if extra is not None and not isinstance(extra, dict):
        raise ValidationFailure(f"checkpoint extra must be a dict, got {type(extra).__name__}")
    kinds = (("param", {name: p.data for name, p in graph.params.items()}),
             ("bn", graph.buffers), ("state", state or {}))
    entries = [(kind, name, np.ascontiguousarray(arrays[name], dtype="<f4"))
               for kind, arrays in kinds for name in sorted(arrays)]
    index = tuple(BlobEntry(name, kind, arr.shape) for kind, name, arr in entries)
    header = asdict(CheckpointHeader(graph.arch, asdict(graph.config), graph.digest,
                                     int(epoch), {}, index))
    header["extra"] = extra or {}  # asdict would deep-copy it, training history and all
    header_bytes = dumps_json(header, path, sort_keys=True).encode("utf-8")
    atomic_write_bytes(path, MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_bytes)),
                       header_bytes, *(arr for _, _, arr in entries))


def load_checkpoint(path: str | Path, expect_digest: str | None = None) -> CheckpointData:
    """Read a checkpoint, each blob straight into its own array. A header
    that does not decode or does not read as a CheckpointHeader, a file
    size other than the one the header's blob index gives, or a blob that
    holds a NaN or Inf raises ValidationFailure."""
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, os.fstat(fh.fileno()).st_size, path, expect_digest)
    except OSError as exc:
        raise RuntimeFailure(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(fh, size: int, path, expect_digest: str | None) -> CheckpointData:
    head = fh.read(12)
    if len(head) < 12 or head[:4] != MAGIC:
        raise ValidationFailure(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack_from("<II", head, 4)
    if version != FORMAT_VERSION:
        raise ValidationFailure(f"{path}: unsupported checkpoint version {version}")
    if 12 + header_len > size:  # checked before a read of that many bytes is sized
        raise ValidationFailure(f"{path}: its {header_len}-byte header runs past the file's end")
    try:
        obj = parse_json(fh.read(header_len).decode("utf-8"), "header")
        header = from_fields(CheckpointHeader, obj, "checkpoint header")
    except (ValueError, ValidationFailure) as exc:  # incl. Unicode and JSON decode errors
        raise ValidationFailure(f"{path}: malformed checkpoint header ({exc})") from exc
    if any(d < 0 for entry in header.index for d in entry.shape):
        raise ValidationFailure(f"{path}: negative blob dimension in the index")
    expected = 12 + header_len + sum(4 * math.prod(entry.shape) for entry in header.index)
    if expected != size:
        raise ValidationFailure(f"{path}: {size} bytes, but its header describes {expected}")
    if expect_digest is not None and header.config_digest != expect_digest:
        raise ValidationFailure(
            f"{path}: config digest {header.config_digest} != expected {expect_digest}")
    blobs: dict = {"param": {}, "bn": {}, "state": {}}
    for entry in header.index:
        if entry.kind not in blobs:
            raise ValidationFailure(f"{path}: unknown blob kind {entry.kind!r}")
        arr = np.empty(entry.shape, dtype="<f4")
        if fh.readinto(arr) != arr.nbytes:
            raise ValidationFailure(f"{path}: file ends inside blob {entry.name!r}")
        if not np.isfinite(arr).all():
            raise ValidationFailure(f"{path}: blob {entry.name!r} holds a NaN or Inf")
        blobs[entry.kind][entry.name] = arr
    return CheckpointData(**vars(header), params=blobs["param"], bn_stats=blobs["bn"],
                          state=blobs["state"])


def graph_from_checkpoint(data: CheckpointData) -> ModelGraph:
    """Rebuild a graph from placeholder weights (no random init) and load
    the stored parameters into it."""
    graph = build_model(data.arch, dict(data.config), seed=None)
    if graph.digest != data.config_digest:
        raise ValidationFailure(
            f"rebuilt config digest {graph.digest} != stored {data.config_digest}")
    load_into_graph(graph, data)
    graph.set_mode("eval")
    return graph


def check_arrays(kind: str, want: dict, have: dict) -> None:
    """Raise ValidationFailure unless the stored arrays `have` carry exactly
    the names of `want`, each at the shape of its counterpart there."""
    if unexpected := sorted(set(have) - set(want)):
        raise ValidationFailure(f"unexpected {kind} in checkpoint: {unexpected}")
    if missing := sorted(set(want) - set(have)):
        raise ValidationFailure(f"checkpoint lacks {kind}: {missing}")
    for name, arr in have.items():
        if arr.shape != want[name].shape:
            raise ValidationFailure(f"{kind} {name!r}: shape {arr.shape} != {want[name].shape}")


def load_into_graph(graph: ModelGraph, data: CheckpointData) -> None:
    """Copy stored parameters and buffers into an existing graph. The
    checkpoint must hold exactly the graph's arrays, each at its shape."""
    check_arrays("parameter", graph.params, data.params)
    check_arrays("buffer", graph.buffers, data.bn_stats)
    for name, arr in data.params.items():
        graph.params[name].data = arr.astype(np.float32, copy=False)
    graph.buffers.update({name: arr.astype(np.float32, copy=False)
                          for name, arr in data.bn_stats.items()})
