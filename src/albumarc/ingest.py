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
import math
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
    check_field_types,
    relative_positions,
)
from .errors import IngestError
from .fileio import read_table

log = logging.getLogger(__name__)

SPLITS = ("train", "validation", "test")
# The 80/10/10 split rule: the split of each of ten buckets.
_SPLIT_OF_BUCKET = ("train",) * 8 + ("validation", "test")

FEATURE_COLUMNS = tuple(
    f"f{i + 1:03d}_{stat}" for i in range(N_FEATURES) for stat in STAT_NAMES
)
HEADER = ("album_id", "track_id", "track_position", "split") + FEATURE_COLUMNS

# Where the synthetic latent is written into the 75x7 stats matrix.
SYNTH_LATENT_SLOTS = ((0, 0), (10, 2), (25, 4), (40, 6), (55, 1), (70, 3))
# Spread of per-track variation around an album's shared feature backdrop.
SYNTH_TRACK_JITTER = 0.15

LATENT_SHAPES = ("rising", "falling", "valley", "peak")


@dataclass(frozen=True, eq=False)
class Dataset:
    """A collection of albums with per-album split assignments.

    ``scalar_features`` maps feature name -> track_id -> value for probe
    features.  Datasets, as their albums, compare and hash by identity.
    """

    albums: tuple[Album, ...]
    split_of: dict = field(default_factory=dict)
    scalar_features: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "albums", tuple(self.albums))

    def __len__(self) -> int:
        return len(self.albums)

    def subset(self, split: str) -> "Dataset":
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        kept = tuple(a for a in self.albums if self.split_of.get(a.album_id) == split)
        return replace(self, albums=kept)

    def track_count(self) -> int:
        return sum(len(a) for a in self.albums)


def hash_split(album_id: str) -> str:
    """Stable 80/10/10 split assignment from the album id alone."""
    return _SPLIT_OF_BUCKET[hashlib.sha256(album_id.encode("utf-8")).digest()[0] % 10]


def load_album_table(path) -> Dataset:
    """Load the album structure of a feature CSV: album and track ids,
    positions and splits, with albums carrying no ``features``.

    The feature cells are neither parsed nor checked; every other row rule
    of :func:`load_feature_table` applies.
    """
    return _load_table(path, features=False)


def load_feature_table(path) -> Dataset:
    """Load the per-track feature CSV into a Dataset whose albums carry their
    tracks' ``features``.

    Rows without an album id are dropped (and counted in the log).  Albums
    keep first-seen order; tracks are ordered by ``track_position``.
    """
    return _load_table(path, features=True)


def _load_table(path, features: bool) -> Dataset:
    """Apply every row rule of the feature-table schema to ``path``; with
    ``features``, also parse and check the feature cells into each album's
    ``features``, else read each row only up to its fourth cell (see
    :func:`read_table`)."""
    by_album: dict[str, list[tuple[int, str, np.ndarray | None]]] = {}
    positions: dict[str, set[int]] = {}
    album_of: dict[str, str] = {}
    split_votes: dict[str, set[str]] = {}
    dropped = 0
    rows = read_table(path, None if features else 4)
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
        seen = positions.setdefault(album_id, set())
        if position in seen:
            raise IngestError(
                f"{path}:{line_no}: duplicate track_position {position} "
                f"in album {album_id!r}"
            )
        seen.add(position)
        if album_of.setdefault(row[1], album_id) != album_id:
            raise IngestError(
                f"{path}:{line_no}: track_id {row[1]!r} is already in album {album_of[row[1]]!r}"
            )
        values = None
        if features:
            try:
                values = np.array(row[4:], dtype=np.float64)
            except ValueError:
                raise IngestError(f"{path}:{line_no}: non-numeric feature value") from None
            if not np.isfinite(values).all():
                raise IngestError(f"{path}:{line_no}: track {row[1]!r}: non-finite feature value")
        by_album.setdefault(album_id, []).append((position, row[1], values))
        split_votes.setdefault(album_id, set()).add(split)
    if dropped:
        log.info("dropped %d rows with missing album_id", dropped)

    albums = []
    split_of = {}
    for album_id in list(by_album):
        # Popped, so that each album's rows are freed once stacked.
        entries = sorted(by_album.pop(album_id), key=lambda e: e[0])
        tracks = tuple(Track(track_id) for _, track_id, _ in entries)
        matrix = np.stack([values for _, _, values in entries]) if features else None
        try:
            albums.append(Album(album_id=album_id, tracks=tracks, features=matrix))
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
    """Load the companion per-track scalar table: feature name -> track ->
    value.  An empty cell is a missing value."""
    names, rows = _load_track_table(
        path, "<feature>...", lambda names: True,
        "non-numeric value {cell!r} for {name}",
        "non-finite value {cell!r} for {name} of track {track!r}", missing=True,
    )
    return {
        name: {track: row[j] for track, row in rows.items() if row[j] is not None}
        for j, name in enumerate(names)
    }


def load_essence_csv(path) -> tuple[list[str], np.ndarray]:
    """Load an essence export; returns track ids in file order and an (n, d)
    value matrix."""
    _, rows = _load_track_table(
        path, "essence_1,...", lambda names: names == [f"essence_{j + 1}" for j in range(len(names))],
        "non-numeric essence value", "non-finite essence value",
    )
    if not rows:
        raise IngestError(f"{path}: no essence rows")
    return list(rows), np.array(list(rows.values()), dtype=np.float64)


def _load_track_table(path, rule, names_ok, non_numeric, non_finite, missing=False):
    """Read a ``track_id,<column>,...`` table into its column names and
    track id -> row of floats, in file order.

    The header must be ``track_id,<rule>``: unique, non-empty column names
    for which ``names_ok`` holds.  A bad cell is reported by ``non_numeric``
    or ``non_finite``, formatted with its ``cell``, column ``name`` and
    ``track``; with ``missing``, an empty cell reads as None.
    """
    rows = read_table(path)
    _, header = next(rows)
    names = header[1:]
    if len(header) < 2 or header[0] != "track_id" or not names_ok(names):
        raise IngestError(f"{path}: header must be track_id,{rule}")
    for j, name in enumerate(names):
        if not name or name in names[:j]:
            problem = "a repeated" if name else "an empty"
            raise IngestError(f"{path}: column {j + 2} has {problem} name {name!r}")
    table: dict[str, list[float | None]] = {}
    for line_no, row in rows:
        track, where = row[0], f"{path}:{line_no}: "
        if track in table:
            raise IngestError(f"{where}duplicate track_id {track!r}")
        table[track] = cells = []
        for name, cell in zip(names, row[1:]):
            try:
                value = None if missing and cell == "" else float(cell)
            except ValueError:
                raise IngestError(where + non_numeric.format(cell=cell, name=name)) from None
            if value is not None and not math.isfinite(value):
                raise IngestError(where + non_finite.format(cell=cell, name=name, track=track))
            cells.append(value)
    return names, table


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
        mask = np.array([t.track_id in values for t in album.tracks], dtype=bool)
        kept = tuple(t for t, keep in zip(album.tracks, mask) if keep)
        dropped += len(album) - len(kept)
        if kept:
            features = None if album.features is None else album.features[mask]
            albums.append(Album(album_id=album.album_id, tracks=kept, features=features))
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
            raise ValueError(
                f"length_range must lie within [{MIN_ALBUM_LEN}, {MAX_ALBUM_LEN}], got {self.length_range}"
            )
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
    cells = N_FEATURES * N_STATS
    # Normals per track: its jitter, one noise per latent slot, the noisy
    # probe's noise and the pure-noise probe.
    track_draws = cells + len(SYNTH_LATENT_SLOTS) + 2
    # Every album's normals go into this one buffer, so that no freed block
    # of varying size is left between the albums' stats.
    buffer = np.empty(cells + hi * track_draws)
    for i in range(config.n_albums):
        album_id = f"synth-{i:05d}"
        length = int(rng.integers(lo, hi + 1))
        latents = rng.random(length)
        shape_vals = latent_shape_values(config.latent_shape, length)
        # Rank-match: the position with the j-th smallest shape value gets the
        # j-th smallest latent, so the latent sequence follows the shape.
        ranks = np.argsort(np.argsort(shape_vals, kind="stable"), kind="stable")
        arranged = np.sort(latents)[ranks]
        # One call draws the album's normals in the order per-track calls
        # would: the backdrop, then each track's.
        normals = rng.standard_normal(out=buffer[: cells + length * track_draws])
        backdrop = normals[:cells].reshape(N_FEATURES, N_STATS)
        per_track = normals[cells:].reshape(length, -1)
        stats = SYNTH_TRACK_JITTER * per_track[:, :cells].reshape(length, N_FEATURES, N_STATS)
        stats += backdrop
        for k, (row, col) in enumerate(SYNTH_LATENT_SLOTS):
            stats[:, row, col] = arranged + config.noise_sigma * per_track[:, cells + k]
        latent_noisy = arranged + 0.3 * per_track[:, -2]
        tracks = []
        for j in range(length):
            track_id = f"{album_id}-t{j + 1:02d}"
            tracks.append(Track(track_id))
            scalars["latent"][track_id] = float(arranged[j])
            scalars["latent_noisy"][track_id] = float(latent_noisy[j])
            scalars["noise"][track_id] = float(per_track[j, -1])
        features = stats.reshape(length, cells)
        if shuffle_orders:
            order = rng.permutation(length)
            tracks, features = [tracks[j] for j in order], features[order]
        albums.append(Album(album_id=album_id, tracks=tuple(tracks), features=features))
        split_of[album_id] = _SPLIT_OF_BUCKET[i % 10]
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
        for position, (track, row) in enumerate(zip(album.tracks, album.features.tolist()), start=1):
            ids.seek(0)
            ids.truncate()
            id_writer.writerow([album.album_id, track.track_id, position, split])
            values = repr(row)[1:-1].replace(", ", ",")
            fh.write(f"{ids.getvalue()[:-1]},{values}\n")
