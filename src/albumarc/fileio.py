"""Deterministic, atomic file output and config fingerprinting.

Every artifact embeds the sha256 of the config document plus the effective
seed, so a run can be reproduced from any of its outputs.  Every write goes
through one path: a temp file in the target directory, given the mode a file
made by ``open()`` gets, is filled and renamed into place, so a crashed run
never leaves a partial file.  Tables are rendered straight into that temp
file, row by row, so writing one holds no copy of its text in memory.
"""

from __future__ import annotations

import csv
import hashlib
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


def _atomic_write(path, render) -> None:
    """Write ``path`` atomically: ``render(fh)`` fills a temp file in the
    target directory, which is then renamed into place.  On any exception
    the temp file is removed and an existing ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            # mkstemp makes the file owner-only, and os.replace keeps that mode.
            os.fchmod(fd, 0o666 & ~_umask())
            render(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _umask() -> int:
    """The process umask.  Reading it means setting it, so it is 0 between
    the two calls; the package writes from one thread."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path, text: str) -> None:
    _atomic_write(path, lambda fh: fh.write(text))


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

    def render_table(fh):
        fh.write(provenance_comment(provenance))
        render(fh)

    _atomic_write(path, render_table)


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


def read_table(path, width=None):
    """Yield ``(line number, cells)`` for the header and then each row of a
    CSV table, skipping the leading ``#`` comment lines.

    Line numbers count the file's physical lines; a record whose quoted cell
    spans lines is numbered by its last line.  A line without ``"`` is split
    on commas, which gives the cells ``csv`` would; a line holding ``"`` and
    the lines its quoted cells continue onto are parsed by ``csv``.  A file
    with no header, text that is not UTF-8, a ``csv`` error and a row whose
    cell count differs from the header's raise IngestError.  A leading
    UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write, is
    dropped.  With ``width``, each row after the header yields only its
    first ``width`` cells; a line without ``"`` is split no further.
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
            lines = itertools.chain([line], fh)
            line_no, _, header = next(_records(path, lines, comments))
            yield line_no, header
            for line_no, count, row in _records(path, lines, line_no, width):
                if count != len(header):
                    raise IngestError(
                        f"{path}:{line_no}: expected {len(header)} columns, got {count}"
                    )
                yield line_no, row
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 text: {exc}") from None


def _records(path, lines, line_no, width=None):
    """Yield ``(line number, cell count, first width cells)`` per CSV record
    of ``lines``, the physical lines after the first ``line_no``; without
    ``width``, every cell."""
    for line in lines:
        if '"' in line:
            reader = csv.reader(itertools.chain([line], lines))
            try:
                row = next(reader)
            except csv.Error as exc:
                raise IngestError(f"{path}:{line_no + reader.line_num}: {exc}") from None
            line_no += reader.line_num
            count = len(row)
        else:
            line_no += 1
            line = line.rstrip("\r\n")
            if not line:
                count, row = 0, []
            elif width is None:
                row = line.split(",")
                count = len(row)
            else:
                count = line.count(",") + 1
                row = line.split(",", width)
        yield line_no, count, row if width is None else row[:width]
