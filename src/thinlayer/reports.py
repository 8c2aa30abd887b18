"""Deterministic CSV/JSON emission and the run manifest.

Everything written here must be byte-identical across reruns with the same
config and seed, on any thread count, so floats are rendered with repr
(shortest round-trip form), line endings are fixed to "\n", and JSON keys
are sorted. Every CSV goes through `write_csv`, which takes any iterable of
rows, each a sequence of cells in header order, and streams them to the
open file one line at a time, so a lazily generated table is never held in
memory whole, and renames the file into place only once every row is
written, so a run that fails midway leaves no partial CSV. A cell holding
a comma, a quote or a line break is quoted as RFC 4180 says. The manifest
is the one exception: it carries a wall-clock timestamp by design and is
therefore excluded when reruns are compared; its checksums are how the
comparison is made without it.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

MANIFEST_NAME = "manifest.json"
HASH_BLOCK = 1 << 16  # bytes read per update of a file's digest


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # float(): numpy scalars (float subclasses) repr as np.float64(...)
        return repr(float(value))
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        # RFC 4180: enclose in quotes, double the quotes inside
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows) -> Path:
    """Write rows, each a sequence of cells in header order; None is blank.

    The rows go to path + ".part", which replaces path once the last row is
    written; on any exception the part file is removed and path is left as
    it was. Returns the path of the closed file.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    part.replace(path)
    return path


def _json_clean(obj):
    """Make numpy scalars/arrays JSON-serializable without importing numpy."""
    if isinstance(obj, dict):
        return {str(k): _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def write_json(path, obj) -> Path:
    path = Path(path)
    text = json.dumps(_json_clean(obj), sort_keys=True, indent=2, ensure_ascii=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return path


def file_sha256(path) -> str:
    """SHA-256 of the file at path, read HASH_BLOCK bytes at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir, config_sha256: str, version: str, paths) -> Path:
    """Checksum every emitted file and drop manifest.json next to them."""
    from datetime import datetime, timezone

    out_dir = Path(out_dir)
    files = []
    for p in sorted(Path(p) for p in paths):
        files.append(
            {
                "name": p.name,
                "sha256": file_sha256(p),
                "bytes": p.stat().st_size,
            }
        )
    manifest = {
        "config_sha256": config_sha256,
        "version": version,
        "created": datetime.now(timezone.utc).isoformat(),
        "files": files,
    }
    return write_json(out_dir / MANIFEST_NAME, manifest)
