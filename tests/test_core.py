"""Domain types and the small numeric helpers underneath everything else."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from albumarc.core import (
    MAX_ALBUM_LEN,
    MIN_ALBUM_LEN,
    N_FEATURES,
    N_STATS,
    STAT_NAMES,
    Album,
    EssenceSeries,
    Ordering,
    Track,
    normalize_minmax,
    relative_positions,
)
from albumarc.ingest import Dataset


def make_track(track_id="t1"):
    return Track(track_id=track_id)


def make_features(n, fill=0.0):
    return np.full((n, N_FEATURES * N_STATS), fill)


class TestAlbum:
    def test_track_order_is_ground_truth(self):
        album = Album("a", tuple(make_track(f"t{i}") for i in range(4)))
        assert len(album) == 4
        assert tuple(t.track_id for t in album.tracks) == ("t0", "t1", "t2", "t3")

    def test_duplicate_track_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Album("a", (make_track("t"), make_track("t")))

    def test_length_filter_bounds(self):
        assert MIN_ALBUM_LEN == 3
        assert MAX_ALBUM_LEN == 20

    def test_layout_constants(self):
        assert N_FEATURES == 75
        assert N_STATS == 7
        assert len(STAT_NAMES) == 7
        assert STAT_NAMES[0] == "mean" and STAT_NAMES[-1] == "max"

    def test_features_are_row_major_stats(self):
        stats = np.arange(2 * N_FEATURES * N_STATS, dtype=float).reshape(2, N_FEATURES, N_STATS)
        album = Album("a", (make_track("t0"), make_track("t1")), features=stats.reshape(2, -1))
        assert album.features.shape == (2, 525)
        assert album.features.flags.c_contiguous
        for j in range(2):
            assert album.features[j, 7] == stats[j, 1, 0]

    def test_rejects_wrong_feature_shape(self):
        with pytest.raises(ValueError, match="features must be 2x525"):
            Album("a", (make_track("t0"), make_track("t1")), features=make_features(3))
        with pytest.raises(ValueError, match="features must be 1x525"):
            Album("a", (make_track(),), features=np.zeros((N_STATS, N_FEATURES)))

    def test_rejects_non_finite_feature_naming_track(self):
        features = make_features(3)
        features[1, 40] = np.nan
        features[2, 0] = np.inf
        tracks = tuple(make_track(f"t{j}") for j in range(3))
        with pytest.raises(ValueError, match="track 't1': non-finite feature value"):
            Album("a", tracks, features=features)

    def test_features_are_read_only(self):
        album = Album("a", (make_track(),), features=make_features(1))
        with pytest.raises(ValueError):
            album.features[0, 0] = 1.0

    def test_compares_and_hashes_by_identity(self):
        # A features matrix has no truth value, so albums, and the datasets
        # holding them, are compared and hashed as objects.
        a = Album("a", (make_track(),), features=make_features(1))
        b = Album("a", (make_track(),), features=make_features(1))
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
        dataset = Dataset(albums=(a,))
        assert dataset == dataset and dataset != Dataset(albums=(b,))
        assert hash(dataset) == hash(dataset)


class TestEssenceSeries:
    def test_scalar_series(self):
        s = EssenceSeries("a", np.array([0.1, 0.5, 0.9]))
        assert len(s) == 3
        np.testing.assert_array_equal(s.scalars(), [0.1, 0.5, 0.9])

    def test_vector_series_refuses_scalars(self):
        s = EssenceSeries("a", np.zeros((3, 4)))
        with pytest.raises(ValueError, match="scalar"):
            s.scalars()

    def test_single_column_counts_as_scalar(self):
        s = EssenceSeries("a", np.array([[0.1], [0.2]]))
        np.testing.assert_array_equal(s.scalars(), [0.1, 0.2])

    def test_minmax_view(self):
        s = EssenceSeries("a", np.array([2.0, 4.0, 3.0])).minmax()
        assert s.normalization == "minmax"
        np.testing.assert_allclose(s.scalars(), [0.0, 1.0, 0.5])
        assert s.minmax() is s

    def test_unknown_normalization_tag_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            EssenceSeries("a", np.array([0.0]), normalization="sorted")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            EssenceSeries("a", np.array([0.0, np.inf]))


def place(ordering, items):
    """``items`` reordered so that position j holds ``items[positions[j]]``,
    as the CLI lists an album's track order."""
    return [items[i] for i in ordering.positions]


class TestOrdering:
    def test_apply_places_source_items(self):
        ordering = Ordering((2, 0, 1))
        assert place(ordering, ["a", "b", "c"]) == ["c", "a", "b"]

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError, match="permutation"):
            Ordering((0, 0, 1))
        with pytest.raises(ValueError, match="permutation"):
            Ordering((1, 2, 3))

    @given(st.permutations(list(range(6))))
    def test_apply_then_invert_roundtrips(self, perm):
        ordering = Ordering(tuple(perm))
        items = list(range(6))
        placed = place(ordering, items)
        assert sorted(placed) == items
        assert [placed[ordering.positions.index(i)] for i in items] == items


class TestNormalizers:
    def test_minmax_basic(self):
        np.testing.assert_allclose(normalize_minmax([2.0, 6.0, 4.0]), [0.0, 1.0, 0.5])

    def test_minmax_constant_maps_to_half(self):
        np.testing.assert_array_equal(normalize_minmax([3.0, 3.0]), [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_minmax([])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_minmax_range_and_order(self, values):
        out = normalize_minmax(values)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        v = np.asarray(values)
        # Min-max is monotone: pairwise order of distinct inputs is preserved.
        for i in range(len(v)):
            for j in range(len(v)):
                if v[i] < v[j]:
                    assert out[i] <= out[j]


class TestRelativePositions:
    def test_grid(self):
        np.testing.assert_allclose(relative_positions(3), [0.0, 0.5, 1.0])
        np.testing.assert_allclose(relative_positions(2), [0.0, 1.0])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            relative_positions(1)
