"""Shared domain types and the small numeric utilities everything else builds on."""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import IngestError

# Per-track feature layout: one row per audio feature, one column per global
# statistic (mean, std, skew, kurtosis, median, min, max).
N_FEATURES = 75
N_STATS = 7
STAT_NAMES = ("mean", "std", "skew", "kurtosis", "median", "min", "max")

MIN_ALBUM_LEN = 3
MAX_ALBUM_LEN = 20


@dataclass(frozen=True)
class Track:
    """A track as album structure: its id alone."""

    track_id: str


@dataclass(frozen=True)
class TrackFeatures(Track):
    """A track with its feature-statistics matrix.

    ``stats`` is a ``(75, 7)`` float matrix; rows are audio features, columns
    are the global statistics in :data:`STAT_NAMES` order.
    """

    stats: np.ndarray

    def __post_init__(self):
        stats = np.asarray(self.stats, dtype=np.float64)
        if stats.shape != (N_FEATURES, N_STATS):
            raise ValueError(
                f"track {self.track_id!r}: stats must be {N_FEATURES}x{N_STATS}, "
                f"got {stats.shape}"
            )
        if not np.all(np.isfinite(stats)):
            raise ValueError(f"track {self.track_id!r}: non-finite feature value")
        stats.flags.writeable = False
        object.__setattr__(self, "stats", stats)

    @property
    def flat(self) -> np.ndarray:
        """The stats matrix flattened row-major to a 525-vector."""
        return self.stats.reshape(-1)


@dataclass(frozen=True)
class Album:
    """An ordered collection of tracks; list order is the ground-truth order.

    Tracks are :class:`TrackFeatures` where essence is computed from the
    features, plain :class:`Track` where only the structure is needed."""

    album_id: str
    tracks: tuple[Track, ...]

    def __post_init__(self):
        tracks = tuple(self.tracks)
        ids = [t.track_id for t in tracks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"album {self.album_id!r}: duplicate track ids")
        object.__setattr__(self, "tracks", tracks)

    def __len__(self) -> int:
        return len(self.tracks)


@dataclass(frozen=True)
class EssenceSeries:
    """Per-track essence values of one album, in a stated order.

    ``values`` has shape ``(n,)`` for scalar essence or ``(n, d)`` for vector
    essence.  ``normalization`` records whether the values are ``"raw"`` or
    ``"minmax"`` normalized.
    """

    album_id: str
    values: np.ndarray
    normalization: str = "raw"

    def __post_init__(self):
        if self.normalization not in ("raw", "minmax"):
            raise ValueError(f"unknown normalization tag {self.normalization!r}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[0] == 0:
            raise ValueError("values must be a non-empty 1-D or 2-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"album {self.album_id!r}: non-finite essence value")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]

    def scalars(self) -> np.ndarray:
        """The values as a 1-D array; requires scalar (d=1) essence."""
        if self.values.ndim == 1:
            return self.values
        if self.values.shape[1] == 1:
            return self.values[:, 0]
        raise ValueError(
            f"album {self.album_id!r}: essence is {self.values.shape[1]}-dimensional, "
            "expected a scalar series"
        )

    def minmax(self) -> "EssenceSeries":
        """This series min-max normalized (scalar series only)."""
        if self.normalization == "minmax":
            return self
        return EssenceSeries(
            self.album_id, normalize_minmax(self.scalars()), normalization="minmax"
        )


@dataclass(frozen=True)
class Ordering:
    """A permutation: ``positions[j]`` is the (0-based) source index placed at
    position ``j``."""

    positions: tuple[int, ...]

    def __post_init__(self):
        positions = tuple(int(i) for i in self.positions)
        n = len(positions)
        if sorted(positions) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {positions}")
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)


def normalize_minmax(values) -> np.ndarray:
    """Affinely map ``values`` onto [0, 1] along the last axis; a constant
    series (row) maps to all 0.5."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot normalize an empty series")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot normalize non-finite values")
    lo = v.min(axis=-1, keepdims=True)
    span = v.max(axis=-1, keepdims=True) - lo
    return np.divide(v - lo, span, out=np.full_like(v, 0.5), where=span > 0)


def minmax_series(values) -> np.ndarray:
    """``values`` as a 1-D array, checked to be a min-max normalized scalar
    series: an :class:`EssenceSeries` tagged ``"minmax"`` or a plain sequence,
    with at least 2 finite values in [0, 1] (to within 1e-9)."""
    if isinstance(values, EssenceSeries):
        if values.normalization != "minmax":
            raise ValueError(
                f"album {values.album_id!r}: series must be min-max normalized, "
                f"got {values.normalization!r}"
            )
        v = values.scalars()
    else:
        v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError(f"need at least 2 scalar values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if v.min() < -1e-9 or v.max() > 1.0 + 1e-9:
        raise ValueError("values must lie in [0, 1]; min-max normalize first")
    return v


def album_values(albums, values_by_track: dict, what: str = "essence") -> list[tuple[str, np.ndarray]]:
    """(album id, per-track values in track order) for each album, from a
    track_id -> value map.  A track missing from the map, or a non-finite
    value, raises IngestError naming the track or album."""
    series = []
    for album in albums:
        try:
            values = np.array([values_by_track[t.track_id] for t in album.tracks], dtype=np.float64)
        except KeyError as exc:
            raise IngestError(
                f"missing {what} for track {exc.args[0]!r} in album {album.album_id!r}"
            ) from None
        if not np.all(np.isfinite(values)):
            raise IngestError(f"non-finite {what} in album {album.album_id!r}")
        series.append((album.album_id, values))
    return series


_KINDS = {"bool": bool, "int": numbers.Integral, "float": numbers.Real, "str": str, "list": list}


def _is_kind(value, kind: str) -> bool:
    if kind == "tuple[int, int]":
        return isinstance(value, tuple) and len(value) == 2 and all(_is_kind(v, "int") for v in value)
    # bool is an int subclass, but a flag is not a number.
    return isinstance(value, _KINDS[kind]) and (kind == "bool" or not isinstance(value, bool))


def check_type(name: str, value, kind: str) -> None:
    """Raise TypeError unless ``value`` is a ``kind``: "bool", "int",
    "float" (ints included), "str", "list" or "tuple[int, int]"."""
    if not _is_kind(value, kind):
        raise TypeError(f"{name} must be {kind}, got {value!r}")


def check_field_types(config) -> None:
    """:func:`check_type` for every field of a config dataclass against its
    declared type."""
    for f in dataclasses.fields(config):
        check_type(f.name, getattr(config, f.name), f.type)


def relative_positions(n: int) -> np.ndarray:
    """The uniform grid ``[0, 1/(n-1), ..., 1]`` of n relative positions."""
    if n < 2:
        raise ValueError(f"need at least 2 positions, got {n}")
    return np.linspace(0.0, 1.0, n)
