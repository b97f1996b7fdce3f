"""Small file helpers shared across modules: atomic writes, JSON and JSONL
without NaN or Infinity, CSV, hashing."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from .errors import RuntimeFailure, ValidationFailure


def atomic_write_bytes(path: str | Path, *chunks) -> None:
    """Write the bytes-like `chunks` in turn via a temp file in the same
    directory plus rename, so readers never observe a partial file; the
    chunks are never joined into one copy."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def csv_text(rows) -> str:
    """Rows of fields as CSV, each row ended by "\n": a field that holds a
    comma, a quote or a "\n" is quoted, its quotes doubled."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def dumps_json(obj, where, **kwargs) -> str:
    """`json.dumps` that refuses NaN and Infinity, which JSON does not
    have: a writer that meets one is a program fault, RuntimeFailure naming
    `where`."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise RuntimeFailure(f"{where}: {exc}") from exc


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, dumps_json(obj, path, indent=2, sort_keys=True) + "\n")


def _refuse(token: str):
    raise ValidationFailure(token)  # `parse_json` adds the document and the key


# built once: `json.loads(s, **kw)` builds a decoder per call, 1.5 us a row
_DECODER = json.JSONDecoder(parse_constant=_refuse)
_CONSTANT = object()  # what `_token_key` reads NaN, Infinity and -Infinity as


def _token_key(text: str) -> str | None:
    """The key of the first object to close around a NaN, Infinity or
    -Infinity in `text`, held directly or in an array; None if none does."""
    found = []

    def pairs(items):
        found.extend(k for k, v in items
                     if v is _CONSTANT or (isinstance(v, list) and _CONSTANT in v))
        return dict(items)
    json.loads(text, parse_constant=lambda token: _CONSTANT, object_pairs_hook=pairs)
    return found[0] if found else None


def parse_json(data: str | bytes, where):
    """The JSON value in `data`, bytes decoded as `json.loads` decodes them.
    Malformed JSON, and the tokens NaN, Infinity and -Infinity, which
    `json` reads but JSON does not have, raise ValidationFailure naming
    `where` (and the token's key, found by parsing once more)."""
    try:
        text = data if isinstance(data, str) else data.decode(json.detect_encoding(data),
                                                              "surrogatepass")
        return _DECODER.decode(text)
    except ValidationFailure as exc:
        key = _token_key(text)
        at = "" if key is None else f" at key {key!r}"
        raise ValidationFailure(f"{where}: {exc}{at} is not a JSON number") from None
    except ValueError as exc:  # incl. Unicode and JSON decode errors
        raise ValidationFailure(f"{where} is not valid JSON: {exc}") from exc


def read_json(path: str | Path):
    return parse_json(Path(path).read_bytes(), path)


def write_jsonl(path: str | Path, rows) -> None:
    atomic_write_text(path, "".join(dumps_json(r, path, sort_keys=True) + "\n" for r in rows))


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
