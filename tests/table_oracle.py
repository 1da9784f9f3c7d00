"""Reference writers for the per-track tables, kept as test oracles.

These wrote ``essence.csv`` and ``scalars.csv`` before both tables went
through the CLI's one table writer (``albumarc.cli._write_rows``); the CLI's
tables must match their bytes after the provenance line.
"""

from __future__ import annotations

import csv

import numpy as np


def write_essence_csv(track_ids, values, fh) -> None:
    """Write per-track essence vectors: ``track_id,essence_1,...,essence_d``."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if len(track_ids) != values.shape[0]:
        raise ValueError("track_ids and values disagree in length")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["track_id"] + [f"essence_{j + 1}" for j in range(values.shape[1])])
    for tid, row in zip(track_ids, values):
        writer.writerow([tid] + [repr(float(x)) for x in row])


def write_scalar_csv(scalar_features: dict, fh) -> None:
    """Write probe scalars as track_id,<feature>... with a stable column order."""
    names = sorted(scalar_features)
    track_ids: list[str] = []
    seen = set()
    for name in names:
        for tid in scalar_features[name]:
            if tid not in seen:
                seen.add(tid)
                track_ids.append(tid)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["track_id"] + names)
    for tid in track_ids:
        row = [tid]
        for name in names:
            value = scalar_features[name].get(tid)
            row.append("" if value is None else repr(float(value)))
        writer.writerow(row)
