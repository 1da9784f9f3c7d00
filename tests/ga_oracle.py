"""The GA's population cost one album length at a time, kept as a test oracle.

``evolve_templates`` scored each generation this way, with a few matrix
products per distinct album length, before ``templates._population_cost``
scored all albums in one product over precomputed Gram terms.  The two must
agree to rounding.
"""

from __future__ import annotations

import numpy as np

from albumarc.core import normalize_minmax, relative_positions
from albumarc.spline import sampling_matrix


def length_groups(values_list: list[np.ndarray], xs: np.ndarray):
    """Group albums by length and precompute the spline sampling matrix and
    the albums' squared norms for each length, so population cost reduces to
    matrix products."""
    by_len: dict[int, list[np.ndarray]] = {}
    for v in values_list:
        by_len.setdefault(v.shape[0], []).append(v)
    groups = []
    for length in sorted(by_len):
        sampler = sampling_matrix(xs, relative_positions(length))
        album_values = np.stack(by_len[length])
        groups.append((sampler, album_values, (album_values**2).sum(axis=1), length))
    return groups


def population_cost(population: np.ndarray, groups) -> np.ndarray:
    """Summed per-album fitting cost for every individual, shape (m,)."""
    m, k, q = population.shape
    normalized = normalize_minmax(population.reshape(m * k, q))
    total = np.zeros(m)
    for sampler, album_values, album_norms, length in groups:
        samples = normalized @ sampler.T
        sq = (
            (samples**2).sum(axis=1)[:, None]
            + album_norms[None, :]
            - 2.0 * (samples @ album_values.T)
        )
        np.maximum(sq, 0.0, out=sq)
        per_album = sq.reshape(m, k, -1).min(axis=1)
        total += per_album.sum(axis=1) / length
    return total
