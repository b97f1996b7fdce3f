"""Small file helpers shared across modules: atomic writes, JSONL, hashing."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import ValidationFailure


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the same directory plus rename, so readers
    never observe a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def parse_json(data: str | bytes, where):
    """The JSON value in `data`; malformed JSON raises ValidationFailure
    naming `where`."""
    try:
        return json.loads(data)
    except ValueError as exc:  # incl. Unicode and JSON decode errors
        raise ValidationFailure(f"{where} is not valid JSON: {exc}") from exc


def read_json(path: str | Path):
    return parse_json(Path(path).read_bytes(), path)


def write_jsonl(path: str | Path, rows) -> None:
    atomic_write_text(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


def read_jsonl(path: str | Path) -> list:
    """The JSON value on each non-blank line of `path`."""
    lines = Path(path).read_bytes().split(b"\n")
    return [parse_json(line, f"{path} line {n}") for n, line in enumerate(lines, 1) if line.strip()]


def stable_hash64(*parts) -> int:
    """Platform-stable 64-bit hash of the string forms of `parts`.

    Used wherever a value must be a pure function of identifiers (augment
    factor draws, per-utterance synthesis seeds).
    """
    joined = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(joined.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 20)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def config_digest(obj) -> str:
    """Short digest of a JSON-serializable config, order-insensitive."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
