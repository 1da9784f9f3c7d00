"""Deterministic, atomic file output and config fingerprinting.

Every artifact embeds the sha256 of the config document plus the effective
seed, so a run can be reproduced from any of its outputs.  Writes go to a
temp file in the target directory and are renamed into place, so a crashed
run never leaves a partial file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import tempfile
from pathlib import Path

from .errors import ConfigError, IngestError


def canonical_json(doc) -> str:
    """Stable JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def config_hash(doc) -> str:
    """sha256 hex digest of the canonical compact form of a JSON document."""
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, doc: dict, provenance: dict) -> None:
    """Write a JSON artifact, embedding provenance under its own key."""
    atomic_write_text(path, canonical_json({**doc, "provenance": provenance}))


def provenance_comment(provenance: dict) -> str:
    parts = " ".join(f"{k}={provenance[k]}" for k in sorted(provenance))
    return f"# {parts}\n"


def write_table(path, render, provenance: dict) -> None:
    """Write a text table atomically; ``render(fh)`` emits the body.

    A ``# key=value ...`` provenance comment line is prepended;
    :func:`read_table` skips leading comment lines.
    """
    buf = io.StringIO()
    buf.write(provenance_comment(provenance))
    render(buf)
    atomic_write_text(path, buf.getvalue())


def read_json(path) -> dict:
    """The JSON document at ``path``; text that is not UTF-8 or not JSON
    raises ConfigError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def read_table(path):
    """Yield ``(line number, cells)`` for the header and then each row of a
    CSV table, skipping the leading ``#`` comment lines.

    Line numbers count the file's physical lines; a record whose quoted cell
    spans lines is numbered by its last line.  A line without ``"`` is split
    on commas, which gives the cells ``csv`` would; a line holding ``"`` and
    the lines its quoted cells continue onto are parsed by ``csv``.  A file
    with no header, text that is not UTF-8, a ``csv`` error and a row whose
    cell count differs from the header's raise IngestError.  A leading
    UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write, is
    dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            comments = 0
            for line in fh:
                if not line.startswith("#"):
                    break
                comments += 1
            else:
                raise IngestError(f"{path}: empty file")
            records = _records(path, itertools.chain([line], fh), comments)
            line_no, header = next(records)
            yield line_no, header
            for line_no, row in records:
                if len(row) != len(header):
                    raise IngestError(
                        f"{path}:{line_no}: expected {len(header)} columns, got {len(row)}"
                    )
                yield line_no, row
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 text: {exc}") from None


def _records(path, lines, line_no):
    """Yield ``(line number, cells)`` per CSV record of ``lines``, the
    physical lines after the first ``line_no``."""
    for line in lines:
        if '"' in line:
            reader = csv.reader(itertools.chain([line], lines))
            try:
                row = next(reader)
            except csv.Error as exc:
                raise IngestError(f"{path}:{line_no + reader.line_num}: {exc}") from None
            line_no += reader.line_num
        else:
            line_no += 1
            line = line.rstrip("\r\n")
            row = line.split(",") if line else []
        yield line_no, row
