"""The synthetic-data generator before it drew each album's normals in one
call, kept as a test oracle: ``albumarc.ingest.synth_generate`` must give
the same datasets and probe scalars, bit for bit.
"""

from __future__ import annotations

import numpy as np

from albumarc.core import N_FEATURES, N_STATS, Album, Track
from albumarc.ingest import (
    SYNTH_LATENT_SLOTS,
    SYNTH_TRACK_JITTER,
    Dataset,
    SynthConfig,
    latent_shape_values,
)


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
        tracks, rows = [], []
        for j in range(length):
            track_id = f"{album_id}-t{j + 1:02d}"
            stats = backdrop + SYNTH_TRACK_JITTER * rng.standard_normal((N_FEATURES, N_STATS))
            for row, col in SYNTH_LATENT_SLOTS:
                stats[row, col] = arranged[j] + config.noise_sigma * rng.standard_normal()
            tracks.append(Track(track_id))
            rows.append(stats.reshape(-1))
            scalars["latent"][track_id] = float(arranged[j])
            scalars["latent_noisy"][track_id] = float(arranged[j] + 0.3 * rng.standard_normal())
            scalars["noise"][track_id] = float(rng.standard_normal())
        if shuffle_orders:
            order = rng.permutation(length)
            tracks, rows = [tracks[j] for j in order], [rows[j] for j in order]
        albums.append(Album(album_id=album_id, tracks=tuple(tracks), features=np.stack(rows)))
        bucket = i % 10
        split_of[album_id] = "train" if bucket < 8 else ("validation" if bucket == 8 else "test")
    return Dataset(albums=tuple(albums), split_of=split_of, scalar_features=scalars)
