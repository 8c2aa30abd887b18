"""Deterministic CSV/JSON emission and the run manifest.

Everything written here must be byte-identical across reruns with the same
config and seed, on any thread count, so floats are rendered with repr
(shortest round-trip form), line endings are fixed to "\n", and JSON keys
are sorted. Every CSV goes through `write_csv`, which takes any iterable of
rows, each a sequence of cells in header order, and streams them to the
open file one line at a time, so a lazily generated table is never held in
memory whole. A cell holding a comma, a quote or a line break is quoted as
RFC 4180 says. The manifest is the one exception: it carries a wall-clock
timestamp by design and is therefore excluded when reruns are compared;
its checksums are how the comparison is made without it.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = ["write_csv", "write_json", "write_manifest", "file_sha256"]

MANIFEST_NAME = "manifest.json"


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

    Returns the path of the closed file.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
