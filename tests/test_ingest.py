"""Tests for dataset loading, filtering, splits, and synthetic generation."""

import csv
import io

import numpy as np
import pytest

from albumarc.core import N_FEATURES, N_STATS, Album, Track, TrackFeatures, relative_positions
from albumarc.errors import IngestError
from albumarc.fileio import write_table
from albumarc.ingest import (
    FEATURE_COLUMNS,
    HEADER,
    LATENT_SHAPES,
    SPLITS,
    SYNTH_LATENT_SLOTS,
    SYNTH_TRACK_JITTER,
    Dataset,
    SynthConfig,
    drop_tracks_missing,
    filter_albums,
    hash_split,
    latent_shape_values,
    load_album_table,
    load_essence_csv,
    load_feature_table,
    load_scalar_table,
    synth_generate,
    write_essence_csv,
    write_feature_csv,
    write_scalar_csv,
)

from conftest import planted_latent


def _track(track_id, fill=0.0):
    return TrackFeatures(track_id=track_id, stats=np.full((N_FEATURES, N_STATS), fill))


def _album(album_id, n, fill=0.0):
    return Album(
        album_id=album_id,
        tracks=tuple(_track(f"{album_id}-t{j:02d}", fill) for j in range(n)),
    )


def _feature_row(album_id, track_id, position, split, value=0.0):
    return [album_id, track_id, str(position), split] + [repr(value)] * 525


def _write_rows(path, rows, header=HEADER):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _raises_from_both_loaders(path, match):
    """A row rule reads the same from the structure and the feature loader."""
    messages = []
    for load in (load_feature_table, load_album_table):
        with pytest.raises(IngestError, match=match) as info:
            load(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def _write_feature_csv_per_cell(dataset, fh):
    """The feature-table writer with one repr call per cell: the oracle for
    write_feature_csv's one repr per row."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(HEADER)
    for album in dataset.albums:
        split = dataset.split_of.get(album.album_id, "")
        for position, track in enumerate(album.tracks, start=1):
            row = [album.album_id, track.track_id, str(position), split]
            row.extend(repr(float(x)) for x in track.flat)
            writer.writerow(row)


class TestSchema:
    def test_header_layout(self):
        assert len(HEADER) == 4 + 525
        assert HEADER[:4] == ("album_id", "track_id", "track_position", "split")
        assert FEATURE_COLUMNS[0] == "f001_mean"
        assert FEATURE_COLUMNS[-1] == "f075_max"
        assert FEATURE_COLUMNS[7] == "f002_mean"

    def test_roundtrip_exact(self, tmp_path):
        ds = synth_generate(SynthConfig(n_albums=6, length_range=(3, 5), seed=3))
        path = tmp_path / "dataset.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_feature_csv(ds, fh)
        loaded = load_feature_table(path)
        assert len(loaded) == len(ds)
        for orig, back in zip(ds.albums, loaded.albums):
            assert back.album_id == orig.album_id
            assert back.track_ids == orig.track_ids
            for t_orig, t_back in zip(orig.tracks, back.tracks):
                np.testing.assert_array_equal(t_back.stats, t_orig.stats)
        assert loaded.split_of == ds.split_of

    def test_roundtrip_preserves_written_text(self, tmp_path):
        ds = synth_generate(SynthConfig(n_albums=3, length_range=(3, 4), seed=9))
        path = tmp_path / "a.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_feature_csv(ds, fh)
        buf = io.StringIO()
        write_feature_csv(load_feature_table(path), buf)
        assert buf.getvalue() == path.read_text(encoding="utf-8")

    def test_leading_comment_lines_skipped(self, tmp_path):
        ds = synth_generate(SynthConfig(n_albums=3, length_range=(3, 4), seed=1))
        body = io.StringIO()
        write_feature_csv(ds, body)
        path = tmp_path / "c.csv"
        path.write_text("# config_sha256=deadbeef seed=1\n" + body.getvalue())
        assert len(load_feature_table(path)) == 3

    def test_tracks_ordered_by_position_not_file_order(self, tmp_path):
        rows = [
            _feature_row("a1", "t2", 2, "train", 0.2),
            _feature_row("a1", "t3", 3, "train", 0.3),
            _feature_row("a1", "t1", 1, "train", 0.1),
        ]
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        ds = load_feature_table(path)
        assert ds.albums[0].track_ids == ("t1", "t2", "t3")

    def test_rows_without_album_id_dropped(self, tmp_path):
        rows = [
            _feature_row("a1", "t1", 1, "train"),
            _feature_row("", "orphan", 1, "train"),
            _feature_row("a1", "t2", 2, "train"),
        ]
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        ds = load_feature_table(path)
        assert len(ds) == 1
        assert ds.albums[0].track_ids == ("t1", "t2")


class TestLoadErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        _raises_from_both_loaders(path, "empty file")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "e.csv"
        _write_rows(path, [], header=["album_id", "track_id"])
        _raises_from_both_loaders(path, "bad header")

    def test_short_row_reports_line_number(self, tmp_path):
        path = tmp_path / "e.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(HEADER)
            writer.writerow(_feature_row("a1", "t1", 1, "train"))
            writer.writerow(["a1", "t2", "2", "train", "0.0"])
        _raises_from_both_loaders(path, r"e\.csv:3: expected 529 columns, got 5")

    @pytest.mark.parametrize(
        "load, header, rows, match",
        [
            (
                load_feature_table,
                HEADER,
                [_feature_row("a1", "t1", 1, "train"), _feature_row("a1", "t2", "x", "train")],
                r"e\.csv:4: non-integer track_position 'x'",
            ),
            (
                load_album_table,
                HEADER,
                [_feature_row("a1", "t1", 1, "train"), _feature_row("a1", "t2", "x", "train")],
                r"e\.csv:4: non-integer track_position 'x'",
            ),
            (
                load_scalar_table,
                ["track_id", "tempo"],
                [["t1", "0.5"], ["t2", "fast"]],
                r"e\.csv:4: non-numeric value 'fast' for tempo",
            ),
            (
                load_essence_csv,
                ["track_id", "essence_1"],
                [["t1", "0.5"], ["t2", "x"]],
                r"e\.csv:4: non-numeric essence value",
            ),
        ],
    )
    def test_line_numbers_count_the_provenance_line(self, tmp_path, load, header, rows, match):
        # Tables the CLI writes start with a '#' provenance line; errors name
        # the physical line of the bad row.
        path = tmp_path / "e.csv"

        def render(fh):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

        write_table(path, render, {"config_sha256": "0" * 64, "seed": 1})
        with pytest.raises(IngestError, match=match):
            load(path)

    def test_non_integer_position(self, tmp_path):
        path = tmp_path / "e.csv"
        _write_rows(path, [_feature_row("a1", "t1", "first", "train")])
        _raises_from_both_loaders(path, r":2: non-integer track_position 'first'")

    def test_unknown_split_tag(self, tmp_path):
        path = tmp_path / "e.csv"
        _write_rows(path, [_feature_row("a1", "t1", 1, "dev")])
        _raises_from_both_loaders(path, r":2: unknown split 'dev'")

    def test_non_numeric_feature_value(self, tmp_path):
        row = _feature_row("a1", "t1", 1, "train")
        row[10] = "NaN-ish"
        path = tmp_path / "e.csv"
        _write_rows(path, [row])
        with pytest.raises(IngestError, match=r":2: non-numeric feature value"):
            load_feature_table(path)
        # The structure loader does not read feature cells.
        assert load_album_table(path).albums[0].track_ids == ("t1",)

    def test_non_finite_feature_value(self, tmp_path):
        row = _feature_row("a1", "t1", 1, "train")
        row[10] = "inf"
        path = tmp_path / "e.csv"
        _write_rows(path, [row])
        with pytest.raises(IngestError, match=r":2: .*non-finite"):
            load_feature_table(path)
        assert load_album_table(path).albums[0].track_ids == ("t1",)

    def test_duplicate_position_names_album(self, tmp_path):
        rows = [
            _feature_row("a1", "t1", 1, "train"),
            _feature_row("a1", "t2", 1, "train"),
        ]
        path = tmp_path / "e.csv"
        _write_rows(path, rows)
        _raises_from_both_loaders(path, r":3: duplicate track_position 1 in album 'a1'")

    def test_inconsistent_split_tags(self, tmp_path):
        rows = [
            _feature_row("a1", "t1", 1, "train"),
            _feature_row("a1", "t2", 2, "test"),
        ]
        path = tmp_path / "e.csv"
        _write_rows(path, rows)
        _raises_from_both_loaders(path, r"album 'a1' has inconsistent split tags")

    def test_duplicate_track_id_within_album(self, tmp_path):
        rows = [
            _feature_row("a1", "t1", 1, "train"),
            _feature_row("a1", "t1", 2, "train"),
        ]
        path = tmp_path / "e.csv"
        _write_rows(path, rows)
        _raises_from_both_loaders(path, r"album 'a1': duplicate track ids")


class TestAlbumTable:
    @staticmethod
    def _messy_table(path):
        """Synth albums plus rows the loaders must treat alike: an album too
        short and one too long for the length filter, rows without an album
        id, untagged splits and rows out of position order."""
        ds = synth_generate(SynthConfig(n_albums=12, length_range=(3, 6), seed=4))
        body = io.StringIO()
        write_feature_csv(ds, body)
        lines = body.getvalue().splitlines(keepends=True)
        extra = io.StringIO()
        writer = csv.writer(extra, lineterminator="\n")
        writer.writerows(_feature_row("short", f"s{j}", j, "train", 0.5) for j in (1, 2))
        writer.writerows(_feature_row("long", f"l{j}", j, "test", 0.5) for j in range(1, 22))
        writer.writerows(_feature_row("untagged", f"u{j}", j, "", 0.5) for j in (3, 1, 2))
        writer.writerow(_feature_row("", "orphan", 1, "train"))
        path.write_text(lines[0] + "".join(reversed(lines[1:])) + extra.getvalue())
        return ds

    def test_same_structure_as_feature_table(self, tmp_path):
        path = tmp_path / "d.csv"
        self._messy_table(path)
        full, structure = load_feature_table(path), load_album_table(path)
        assert [a.album_id for a in structure.albums] == [a.album_id for a in full.albums]
        assert [a.track_ids for a in structure.albums] == [a.track_ids for a in full.albums]
        assert structure.split_of == full.split_of
        kept = [a.album_id for a in filter_albums(structure).albums]
        assert kept == [a.album_id for a in filter_albums(full).albums]
        assert "short" not in kept and "long" not in kept and "untagged" in kept
        assert structure.albums[-1].track_ids == ("u1", "u2", "u3")

    def test_tracks_carry_no_features(self, tmp_path):
        path = tmp_path / "d.csv"
        self._messy_table(path)
        tracks = [t for a in load_album_table(path).albums for t in a.tracks]
        assert all(type(t) is Track for t in tracks)


class TestWriteFeatureCsv:
    def test_matches_per_cell_oracle_on_synth(self):
        ds = synth_generate(SynthConfig(n_albums=20, length_range=(3, 8), seed=7))
        ours, oracle = io.StringIO(), io.StringIO()
        write_feature_csv(ds, ours)
        _write_feature_csv_per_cell(ds, oracle)
        assert ours.getvalue() == oracle.getvalue()

    def test_matches_per_cell_oracle_on_awkward_values_and_ids(self):
        awkward = np.array([-0.0, 5e-324, 1e16, 0.1, -1.5e-300, 1.7976931348623157e308, 123456789.0])
        stats = np.resize(awkward, (N_FEATURES, N_STATS))
        ids = ['plain', 'with,comma', 'with"quote', 'with\nnewline', ' spaced ', '']
        albums = tuple(
            Album(album_id=f'album{i},"x"', tracks=(TrackFeatures(track_id=tid, stats=stats if i % 2 else -stats),))
            for i, tid in enumerate(ids)
        )
        ds = Dataset(albums=albums, split_of={albums[0].album_id: "train", albums[2].album_id: "test"})
        ours, oracle = io.StringIO(), io.StringIO()
        write_feature_csv(ds, ours)
        _write_feature_csv_per_cell(ds, oracle)
        assert ours.getvalue() == oracle.getvalue()
        assert "-0.0,5e-324,1e+16,0.1," in ours.getvalue()


class TestSplits:
    def test_hash_split_deterministic(self):
        assert hash_split("some-album") == hash_split("some-album")

    def test_hash_split_proportions(self):
        ids = [f"album-{i}" for i in range(5000)]
        counts = {s: 0 for s in SPLITS}
        for album_id in ids:
            counts[hash_split(album_id)] += 1
        assert 0.75 <= counts["train"] / 5000 <= 0.85
        assert 0.06 <= counts["validation"] / 5000 <= 0.14
        assert 0.06 <= counts["test"] / 5000 <= 0.14

    def test_untagged_rows_get_hash_split(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_rows(path, [_feature_row("a1", "t1", 1, "")])
        ds = load_feature_table(path)
        assert ds.split_of["a1"] == hash_split("a1")

    def test_subset_filters_and_tags(self):
        ds = synth_generate(SynthConfig(n_albums=20, length_range=(3, 4), seed=0))
        train = ds.subset("train")
        val = ds.subset("validation")
        test = ds.subset("test")
        assert (len(train), len(val), len(test)) == (16, 2, 2)
        assert train.split == "train"
        assert {a.album_id for a in train.albums}.isdisjoint(
            {a.album_id for a in test.albums}
        )

    def test_subset_rejects_unknown_split(self):
        ds = synth_generate(SynthConfig(n_albums=3, length_range=(3, 3), seed=0))
        with pytest.raises(ValueError, match="unknown split"):
            ds.subset("dev")

    def test_synth_split_assignment_by_index(self):
        ds = synth_generate(SynthConfig(n_albums=30, length_range=(3, 3), seed=0))
        for i, album in enumerate(ds.albums):
            expected = "train" if i % 10 < 8 else ("validation" if i % 10 == 8 else "test")
            assert ds.split_of[album.album_id] == expected


class TestFiltering:
    def test_length_filter_bounds(self):
        ds = Dataset(albums=(_album("a", 2), _album("b", 5), _album("c", 21)))
        kept = filter_albums(ds)
        assert [a.album_id for a in kept.albums] == ["b"]

    def test_length_filter_keeps_boundary_lengths(self):
        ds = Dataset(
            albums=(_album("a", 2), _album("b", 3), _album("c", 20), _album("d", 21))
        )
        kept = filter_albums(ds)
        assert [len(a) for a in kept.albums] == [3, 20]

    def test_filter_idempotent(self):
        ds = Dataset(albums=tuple(_album(f"a{n}", n) for n in range(1, 25)))
        once = filter_albums(ds)
        twice = filter_albums(once)
        assert [a.album_id for a in twice.albums] == [a.album_id for a in once.albums]

    def test_custom_bounds(self):
        ds = Dataset(albums=(_album("a", 4), _album("b", 6), _album("c", 8)))
        kept = filter_albums(ds, min_len=5, max_len=7)
        assert [a.album_id for a in kept.albums] == ["b"]

    def test_drop_tracks_missing_counts_and_refilters(self):
        ds = Dataset(albums=(_album("a", 4), _album("b", 3)))
        values = {tid: 0.0 for tid in ds.albums[0].track_ids}
        values.update({tid: 0.0 for tid in ds.albums[1].track_ids[:2]})
        kept, dropped = drop_tracks_missing(ds, values)
        assert dropped == 1
        # Album "b" shrinks to 2 tracks and falls below the length floor.
        assert [a.album_id for a in kept.albums] == ["a"]

    def test_drop_tracks_missing_noop_when_covered(self):
        ds = Dataset(albums=(_album("a", 4),))
        values = {tid: 1.0 for tid in ds.albums[0].track_ids}
        kept, dropped = drop_tracks_missing(ds, values)
        assert dropped == 0
        assert kept.albums[0].track_ids == ds.albums[0].track_ids


class TestSynthConfig:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.n_albums == 200
        assert cfg.length_range == (3, 20)
        assert cfg.latent_shape == "rising"

    @pytest.mark.parametrize("length_range", [(2, 5), (3, 21), (7, 5)])
    def test_rejects_bad_length_range(self, length_range):
        with pytest.raises(ValueError, match="length_range"):
            SynthConfig(length_range=length_range)

    def test_rejects_bad_counts_and_noise(self):
        with pytest.raises(ValueError, match="n_albums"):
            SynthConfig(n_albums=0)
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthConfig(noise_sigma=-0.1)
        with pytest.raises(ValueError, match="latent_shape"):
            SynthConfig(latent_shape="spiral")


class TestLatentShapes:
    def test_rising_and_falling_are_relative_positions(self):
        r = relative_positions(7)
        np.testing.assert_allclose(latent_shape_values("rising", 7), r)
        np.testing.assert_allclose(latent_shape_values("falling", 7), 1.0 - r)

    def test_valley_and_peak_endpoints(self):
        valley = latent_shape_values("valley", 9)
        peak = latent_shape_values("peak", 9)
        assert valley[0] == valley[-1] == 1.0
        assert valley[4] == 0.0
        assert peak[0] == peak[-1] == 0.0
        assert peak[4] == 1.0
        np.testing.assert_allclose(valley + peak, 1.0)

    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown latent_shape"):
            latent_shape_values("spiral", 5)


class TestSynthGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(n_albums=8, length_range=(3, 6), noise_sigma=0.2, seed=42)
        first = synth_generate(cfg)
        second = synth_generate(cfg)
        assert [a.album_id for a in first.albums] == [a.album_id for a in second.albums]
        for a1, a2 in zip(first.albums, second.albums):
            assert a1.track_ids == a2.track_ids
            for t1, t2 in zip(a1.tracks, a2.tracks):
                np.testing.assert_array_equal(t1.stats, t2.stats)
        assert first.scalar_features == second.scalar_features
        assert first.split_of == second.split_of

    def test_seed_changes_data(self):
        a = synth_generate(SynthConfig(n_albums=3, length_range=(3, 3), seed=0))
        b = synth_generate(SynthConfig(n_albums=3, length_range=(3, 3), seed=1))
        assert not np.array_equal(a.albums[0].tracks[0].stats, b.albums[0].tracks[0].stats)

    def test_lengths_respect_range(self):
        ds = synth_generate(SynthConfig(n_albums=50, length_range=(4, 6), seed=2))
        lengths = {len(a) for a in ds.albums}
        assert lengths <= {4, 5, 6}
        assert len(lengths) > 1

    def test_rising_noiseless_planted_latent_ascends(self):
        ds = synth_generate(SynthConfig(n_albums=12, length_range=(3, 8), seed=5))
        for album in ds.albums:
            planted = [planted_latent(t) for t in album.tracks]
            assert all(a < b for a, b in zip(planted, planted[1:]))

    @pytest.mark.parametrize("shape", LATENT_SHAPES)
    def test_planted_ranks_follow_shape(self, shape):
        ds = synth_generate(
            SynthConfig(n_albums=10, length_range=(3, 9), latent_shape=shape, seed=6)
        )
        for album in ds.albums:
            planted = np.array([planted_latent(t) for t in album.tracks])
            shape_vals = latent_shape_values(shape, len(album))
            expected = np.argsort(np.argsort(shape_vals, kind="stable"), kind="stable")
            got = np.argsort(np.argsort(planted, kind="stable"), kind="stable")
            np.testing.assert_array_equal(got, expected)

    def test_all_slots_carry_the_same_latent(self):
        ds = synth_generate(SynthConfig(n_albums=4, length_range=(3, 5), seed=7))
        for album in ds.albums:
            for track in album.tracks:
                values = [track.stats[r, c] for r, c in SYNTH_LATENT_SLOTS]
                assert len(set(values)) == 1

    def test_scalars_match_planted_latent_when_noiseless(self):
        ds = synth_generate(SynthConfig(n_albums=5, length_range=(3, 6), seed=8))
        for album in ds.albums:
            for track in album.tracks:
                assert ds.scalar_features["latent"][track.track_id] == planted_latent(track)

    def test_noise_perturbs_embedded_latent(self):
        cfg = SynthConfig(n_albums=20, length_range=(5, 10), noise_sigma=0.25, seed=9)
        ds = synth_generate(cfg)
        diffs = [
            planted_latent(t) - ds.scalar_features["latent"][t.track_id]
            for a in ds.albums
            for t in a.tracks
        ]
        assert np.std(diffs) == pytest.approx(0.25, rel=0.3)

    def test_probe_scalars_cover_every_track(self):
        ds = synth_generate(SynthConfig(n_albums=6, length_range=(3, 5), seed=10))
        all_ids = {t.track_id for a in ds.albums for t in a.tracks}
        for name in ("latent", "latent_noisy", "noise"):
            assert set(ds.scalar_features[name]) == all_ids

    def test_shuffle_orders_destroys_monotonicity(self):
        cfg = SynthConfig(n_albums=10, length_range=(6, 10), seed=11)
        ds = synth_generate(cfg, shuffle_orders=True)
        ascending = 0
        for album in ds.albums:
            planted = [planted_latent(t) for t in album.tracks]
            if all(a < b for a, b in zip(planted, planted[1:])):
                ascending += 1
            # Track ids travel with their tracks, so the probe map stays valid.
            for track in album.tracks:
                assert ds.scalar_features["latent"][track.track_id] == planted_latent(track)
        assert ascending < len(ds.albums)

    def test_backdrop_shared_within_album(self):
        ds = synth_generate(SynthConfig(n_albums=30, length_range=(5, 10), seed=12))
        mask = np.ones((N_FEATURES, N_STATS), dtype=bool)
        for r, c in SYNTH_LATENT_SLOTS:
            mask[r, c] = False
        within = []
        album_means = []
        for album in ds.albums:
            stack = np.stack([t.stats for t in album.tracks])
            within.append(stack.std(axis=0)[mask].mean())
            album_means.append(stack.mean(axis=0)[mask])
        # Tracks scatter around their album's backdrop by roughly the jitter
        # scale, while the backdrops themselves vary with unit scale.
        assert np.mean(within) == pytest.approx(SYNTH_TRACK_JITTER, rel=0.15)
        assert np.std(np.stack(album_means), axis=0).mean() > 0.5


class TestScalarTable:
    def test_roundtrip(self, tmp_path):
        scalars = {
            "tempo": {"t1": 0.5, "t2": 1.25},
            "energy": {"t1": -3.0, "t3": 0.125},
        }
        path = tmp_path / "scalars.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_scalar_csv(scalars, fh)
        loaded = load_scalar_table(path)
        assert loaded == scalars

    def test_missing_cells_are_skipped(self, tmp_path):
        path = tmp_path / "scalars.csv"
        path.write_text("track_id,tempo\nt1,0.5\nt2,\n")
        loaded = load_scalar_table(path)
        assert loaded == {"tempo": {"t1": 0.5}}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "scalars.csv"
        path.write_text("id,tempo\nt1,0.5\n")
        with pytest.raises(IngestError, match="header must be track_id"):
            load_scalar_table(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "scalars.csv"
        path.write_text("track_id,tempo\nt1,fast\n")
        with pytest.raises(IngestError, match=r":2: non-numeric value 'fast' for tempo"):
            load_scalar_table(path)


class TestEssenceCsv:
    def test_roundtrip_scalar(self, tmp_path):
        path = tmp_path / "essence.csv"
        values = np.array([0.1, 0.9, 0.5])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_essence_csv(["t1", "t2", "t3"], values, fh)
        ids, back = load_essence_csv(path)
        assert ids == ["t1", "t2", "t3"]
        np.testing.assert_array_equal(back, values.reshape(3, 1))

    def test_roundtrip_vector(self, tmp_path):
        path = tmp_path / "essence.csv"
        values = np.arange(6, dtype=np.float64).reshape(3, 2) / 7.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_essence_csv(["a", "b", "c"], values, fh)
        ids, back = load_essence_csv(path)
        assert ids == ["a", "b", "c"]
        np.testing.assert_array_equal(back, values)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="disagree in length"):
            write_essence_csv(["t1"], np.zeros((2, 1)), io.StringIO())

    def test_duplicate_track_id(self, tmp_path):
        path = tmp_path / "essence.csv"
        path.write_text("track_id,essence_1\nt1,0.5\nt1,0.6\n")
        with pytest.raises(IngestError, match=r":3: duplicate track_id 't1'"):
            load_essence_csv(path)

    def test_no_rows(self, tmp_path):
        path = tmp_path / "essence.csv"
        path.write_text("track_id,essence_1\n")
        with pytest.raises(IngestError, match="no essence rows"):
            load_essence_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "essence.csv"
        path.write_text("track_id,value\nt1,0.5\n")
        with pytest.raises(IngestError, match="header must be track_id,essence_1"):
            load_essence_csv(path)


class TestDataset:
    def test_track_count(self):
        ds = Dataset(albums=(_album("a", 3), _album("b", 5)))
        assert ds.track_count() == 8
