"""Deterministic CSV/JSON emission and the run manifest.

Everything written here must be byte-identical across reruns with the same
config and seed, on any thread count, so floats are rendered with repr
(shortest round-trip form), line endings are fixed to "\n", and JSON keys
are sorted. Every file, CSV, JSON and the manifest alike, reaches disk
through `_write`, which streams its lines to path + ".part" and renames
that file into place only once the last line is written, so a run that
fails midway leaves no partial file and an earlier file of the same name
keeps its bytes. `write_csv` takes any iterable of rows, each a sequence
of cells in header order, and renders them one line at a time, so a lazily
generated table is never held in memory whole. A cell holding a comma, a
quote or a line break is quoted as RFC 4180 says. `write_json` encodes
what `json` encodes natively; numpy floats are floats and render as such.
The manifest is the one exception to byte identity: it carries a
wall-clock timestamp by design and is therefore excluded when reruns are
compared; its checksums are how the comparison is made without it.
Checksums, of the artifacts here and of the canonical config in
`config.load_config`, are standard SHA-256 hex digests from the one
constructor `sha256`, taken from CPython's built-in module (`_sha2` from
3.12, `_sha256` before) with `hashlib` as the fallback: importing
`hashlib` loads `_hashlib`, which maps OpenSSL's libcrypto and adds about
3.4 MB to the resident set of every pipeline process, for the same bytes.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without the module
        from hashlib import sha256

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


def _write(path, lines) -> Path:
    """Write the lines, each ending in "\n", to path + ".part", which
    replaces path once the last line is written; on any exception the part
    file is removed and path is left as it was. Returns path."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    part.replace(path)
    return path


def write_csv(path, header, rows) -> Path:
    """Write the header, then rows, each a sequence of cells in header
    order; None is blank."""
    lines = (",".join(map(_cell, row)) + "\n" for row in rows)
    return _write(path, itertools.chain([",".join(header) + "\n"], lines))


def write_json(path, obj) -> Path:
    """Write obj as UTF-8 JSON, keys sorted, indented by two spaces."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
    return _write(path, [text + "\n"])


def file_sha256(path) -> str:
    """SHA-256 of the file at path, read HASH_BLOCK bytes at a time."""
    digest = sha256()
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
