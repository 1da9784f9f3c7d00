"""Dataset loading, album-length filtering, splits, and synthetic data.

One CSV schema serves both real feature exports and generated data:
``album_id,track_id,track_position,split,f001_mean,...,f075_max`` with the
525 feature columns in fixed (feature, statistic) order.  The feature
cells are parsed only where essence is computed from them
(:func:`load_feature_table`); :func:`load_album_table` reads the album
structure alone under the same row rules.  An optional companion table
``scalars.csv`` (``track_id,<name>,...``) carries named per-track scalar
features for probing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    MAX_ALBUM_LEN,
    MIN_ALBUM_LEN,
    N_FEATURES,
    N_STATS,
    STAT_NAMES,
    Album,
    Track,
    TrackFeatures,
    check_field_types,
    relative_positions,
)
from .errors import IngestError
from .fileio import read_table

log = logging.getLogger(__name__)

SPLITS = ("train", "validation", "test")

FEATURE_COLUMNS = tuple(
    f"f{i + 1:03d}_{stat}" for i in range(N_FEATURES) for stat in STAT_NAMES
)
HEADER = ("album_id", "track_id", "track_position", "split") + FEATURE_COLUMNS

# Where the synthetic latent is written into the 75x7 stats matrix.
SYNTH_LATENT_SLOTS = ((0, 0), (10, 2), (25, 4), (40, 6), (55, 1), (70, 3))
# Spread of per-track variation around an album's shared feature backdrop.
SYNTH_TRACK_JITTER = 0.15

LATENT_SHAPES = ("rising", "falling", "valley", "peak")


@dataclass(frozen=True)
class Dataset:
    """A collection of albums with per-album split assignments.

    ``split`` is None for a mixed dataset and a split tag for the result of
    :meth:`subset`.  ``scalar_features`` maps feature name -> track_id ->
    value for probe features.
    """

    albums: tuple[Album, ...]
    split_of: dict = field(default_factory=dict)
    split: str | None = None
    scalar_features: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "albums", tuple(self.albums))

    def __len__(self) -> int:
        return len(self.albums)

    def subset(self, split: str) -> "Dataset":
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        kept = tuple(a for a in self.albums if self.split_of.get(a.album_id) == split)
        return replace(self, albums=kept, split=split)

    def track_count(self) -> int:
        return sum(len(a) for a in self.albums)


def hash_split(album_id: str) -> str:
    """Stable 80/10/10 split assignment from the album id alone."""
    digest = hashlib.sha256(album_id.encode("utf-8")).digest()
    bucket = digest[0] % 10
    if bucket < 8:
        return "train"
    return "validation" if bucket == 8 else "test"


def load_album_table(path) -> Dataset:
    """Load the album structure of a feature CSV: album and track ids,
    positions and splits, with each track a plain :class:`Track`.

    The feature cells are neither parsed nor checked; every other row rule
    of :func:`load_feature_table` applies.
    """
    return _load_table(path, lambda row: Track(row[1]))


def load_feature_table(path) -> Dataset:
    """Load the per-track feature CSV into a Dataset of :class:`TrackFeatures`.

    Rows without an album id are dropped (and counted in the log).  Albums
    keep first-seen order; tracks are ordered by ``track_position``.
    """
    return _load_table(path, _feature_track)


def _feature_track(row) -> TrackFeatures:
    try:
        stats = np.array(row[4:], dtype=np.float64).reshape(N_FEATURES, N_STATS)
    except ValueError:
        raise ValueError("non-numeric feature value") from None
    return TrackFeatures(track_id=row[1], stats=stats)


def _load_table(path, make_track) -> Dataset:
    """Apply every row rule of the feature-table schema to ``path`` and build
    each track with ``make_track(row)``; a ValueError it raises is reported
    with the row's physical line."""
    by_album: dict[str, list[tuple[int, Track]]] = {}
    split_votes: dict[str, set[str]] = {}
    dropped = 0
    rows = read_table(path)
    _, header = next(rows)
    if tuple(header) != HEADER:
        raise IngestError(
            f"{path}: bad header; expected {len(HEADER)} columns starting "
            f"with {HEADER[:4]}"
        )
    for line_no, row in rows:
        album_id, pos_str, split = row[0], row[2], row[3]
        if not album_id:
            dropped += 1
            continue
        try:
            position = int(pos_str)
        except ValueError:
            raise IngestError(
                f"{path}:{line_no}: non-integer track_position {pos_str!r}"
            ) from None
        if split and split not in SPLITS:
            raise IngestError(f"{path}:{line_no}: unknown split {split!r}")
        entries = by_album.setdefault(album_id, [])
        if any(p == position for p, _ in entries):
            raise IngestError(
                f"{path}:{line_no}: duplicate track_position {position} "
                f"in album {album_id!r}"
            )
        try:
            track = make_track(row)
        except ValueError as exc:
            raise IngestError(f"{path}:{line_no}: {exc}") from None
        entries.append((position, track))
        split_votes.setdefault(album_id, set()).add(split)
    if dropped:
        log.info("dropped %d rows with missing album_id", dropped)

    albums = []
    split_of = {}
    for album_id, entries in by_album.items():
        entries.sort(key=lambda e: e[0])
        try:
            albums.append(Album(album_id=album_id, tracks=tuple(t for _, t in entries)))
        except ValueError as exc:
            raise IngestError(f"{path}: album {album_id!r}: {exc}") from None
        votes = split_votes[album_id]
        if votes == {""}:
            split_of[album_id] = hash_split(album_id)
        elif len(votes) == 1:
            split_of[album_id] = votes.pop()
        else:
            raise IngestError(
                f"{path}: album {album_id!r} has inconsistent split tags {sorted(votes)}"
            )
    return Dataset(albums=tuple(albums), split_of=split_of)


def load_scalar_table(path) -> dict[str, dict[str, float]]:
    """Load the companion per-track scalar table: feature name -> track -> value."""
    rows = read_table(path)
    _, header = next(rows)
    if len(header) < 2 or header[0] != "track_id":
        raise IngestError(f"{path}: header must be track_id,<feature>...")
    names = header[1:]
    table: dict[str, dict[str, float]] = {name: {} for name in names}
    for line_no, row in rows:
        for name, cell in zip(names, row[1:]):
            if cell == "":
                continue
            try:
                table[name][row[0]] = float(cell)
            except ValueError:
                raise IngestError(
                    f"{path}:{line_no}: non-numeric value {cell!r} for {name}"
                ) from None
    return table


def filter_albums(
    dataset: Dataset, min_len: int = MIN_ALBUM_LEN, max_len: int = MAX_ALBUM_LEN
) -> Dataset:
    """Keep albums with min_len <= length <= max_len, in stable order."""
    kept = tuple(a for a in dataset.albums if min_len <= len(a) <= max_len)
    return replace(dataset, albums=kept)


def drop_tracks_missing(dataset: Dataset, values: dict) -> tuple[Dataset, int]:
    """Drop tracks without an entry in ``values``, preserving track order,
    then re-apply the album-length filter.  Returns the new dataset and the
    number of dropped tracks."""
    albums = []
    dropped = 0
    for album in dataset.albums:
        kept = tuple(t for t in album.tracks if t.track_id in values)
        dropped += len(album) - len(kept)
        if kept:
            albums.append(Album(album_id=album.album_id, tracks=kept))
    if dropped:
        log.info("dropped %d tracks lacking a probed scalar", dropped)
    return filter_albums(replace(dataset, albums=tuple(albums))), dropped


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for synthetic albums with a planted order signal."""

    n_albums: int = 200
    length_range: tuple[int, int] = (MIN_ALBUM_LEN, MAX_ALBUM_LEN)
    latent_shape: str = "rising"
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        lo, hi = self.length_range
        if not (MIN_ALBUM_LEN <= lo <= hi <= MAX_ALBUM_LEN):
            raise ValueError(f"length_range must lie within [3, 20], got {self.length_range}")
        if self.n_albums < 1:
            raise ValueError("n_albums must be positive")
        if self.latent_shape not in LATENT_SHAPES:
            raise ValueError(f"unknown latent_shape {self.latent_shape!r}")
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError("noise_sigma must be finite and non-negative")


def latent_shape_values(shape: str, n: int) -> np.ndarray:
    """The planted shape evaluated on the n-point relative-position grid."""
    r = relative_positions(n)
    if shape == "rising":
        return r
    if shape == "falling":
        return 1.0 - r
    if shape == "valley":
        return (2.0 * r - 1.0) ** 2
    if shape == "peak":
        return 1.0 - (2.0 * r - 1.0) ** 2
    raise ValueError(f"unknown latent_shape {shape!r}")


def synth_generate(config: SynthConfig, shuffle_orders: bool = False) -> Dataset:
    """Generate a synthetic dataset with the latent planted into fixed feature
    slots.

    Each album draws one latent scalar per track, arranges the tracks so the
    latents follow ``latent_shape`` over relative position, and embeds the
    latent (plus noise at ``noise_sigma``) into :data:`SYNTH_LATENT_SLOTS`.
    The remaining feature slots mimic production character shared across an
    album: one backdrop matrix per album plus per-track jitter of
    :data:`SYNTH_TRACK_JITTER`, so within an album the track order is encoded
    only by the planted slots.  ``shuffle_orders=True`` destroys the planted
    signal by randomly permuting each album's track order after construction
    (a no-signal null).

    Splits are assigned 80/10/10 by album index.  The returned dataset also
    carries probe scalars: the exact latent, a noisy copy, and pure noise.
    """
    rng = np.random.default_rng(config.seed)
    lo, hi = config.length_range
    albums = []
    split_of = {}
    scalars: dict[str, dict[str, float]] = {"latent": {}, "latent_noisy": {}, "noise": {}}
    for i in range(config.n_albums):
        album_id = f"synth-{i:05d}"
        length = int(rng.integers(lo, hi + 1))
        latents = rng.random(length)
        shape_vals = latent_shape_values(config.latent_shape, length)
        # Rank-match: the position with the j-th smallest shape value gets the
        # j-th smallest latent, so the latent sequence follows the shape.
        ranks = np.argsort(np.argsort(shape_vals, kind="stable"), kind="stable")
        arranged = np.sort(latents)[ranks]
        backdrop = rng.standard_normal((N_FEATURES, N_STATS))
        tracks = []
        for j in range(length):
            track_id = f"{album_id}-t{j + 1:02d}"
            stats = backdrop + SYNTH_TRACK_JITTER * rng.standard_normal((N_FEATURES, N_STATS))
            for row, col in SYNTH_LATENT_SLOTS:
                stats[row, col] = arranged[j] + config.noise_sigma * rng.standard_normal()
            tracks.append(TrackFeatures(track_id=track_id, stats=stats))
            scalars["latent"][track_id] = float(arranged[j])
            scalars["latent_noisy"][track_id] = float(arranged[j] + 0.3 * rng.standard_normal())
            scalars["noise"][track_id] = float(rng.standard_normal())
        if shuffle_orders:
            tracks = [tracks[j] for j in rng.permutation(length)]
        albums.append(Album(album_id=album_id, tracks=tuple(tracks)))
        bucket = i % 10
        split_of[album_id] = "train" if bucket < 8 else ("validation" if bucket == 8 else "test")
    return Dataset(albums=tuple(albums), split_of=split_of, scalar_features=scalars)


def write_feature_csv(dataset: Dataset, fh) -> None:
    """Write a dataset in the feature-table schema to an open text file."""
    csv.writer(fh, lineterminator="\n").writerow(HEADER)
    # csv quotes the ids as it would in the full row.  A float's repr never
    # needs quoting, so the 525 values are one repr of the row as a list.
    ids = io.StringIO()
    id_writer = csv.writer(ids, lineterminator="\n")
    for album in dataset.albums:
        split = dataset.split_of.get(album.album_id, "")
        for position, track in enumerate(album.tracks, start=1):
            ids.seek(0)
            ids.truncate()
            id_writer.writerow([album.album_id, track.track_id, position, split])
            values = repr(track.flat.tolist())[1:-1].replace(", ", ",")
            fh.write(f"{ids.getvalue()[:-1]},{values}\n")


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


def load_essence_csv(path) -> tuple[list[str], np.ndarray]:
    """Load an essence export; returns track ids in file order and an (n, d)
    value matrix."""
    rows = read_table(path)
    _, header = next(rows)
    expected = ["track_id"] + [f"essence_{j + 1}" for j in range(len(header) - 1)]
    if header != expected or len(header) < 2:
        raise IngestError(f"{path}: header must be track_id,essence_1,...")
    track_ids: list[str] = []
    values: list[list[float]] = []
    seen = set()
    for line_no, row in rows:
        if row[0] in seen:
            raise IngestError(f"{path}:{line_no}: duplicate track_id {row[0]!r}")
        seen.add(row[0])
        try:
            values.append([float(x) for x in row[1:]])
        except ValueError:
            raise IngestError(f"{path}:{line_no}: non-numeric essence value") from None
        track_ids.append(row[0])
    if not track_ids:
        raise IngestError(f"{path}: no essence rows")
    return track_ids, np.array(values, dtype=np.float64)


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
