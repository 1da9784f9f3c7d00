"""Tests for ordering metrics, significance procedure, and template evaluation."""

import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from albumarc import evaluation
from albumarc.core import Album, EssenceSeries, Ordering, Track
from albumarc.evaluation import (
    COMPARISONS,
    evaluate_templates,
    holm_bonferroni,
    levenshtein,
    paired_t_test,
    plot_rows,
    string_edit_score,
)
from albumarc.fitcurve import fit_ordering, sample_template
from albumarc.ingest import Dataset, SynthConfig, synth_generate
from albumarc.spline import DEFAULT_KNOTS
from albumarc.templates import GAConfig, TemplateSet, evolve_templates

import eval_oracle
from eval_oracle import dp_levenshtein

KNOTS = np.array(DEFAULT_KNOTS)

short_seqs = st.lists(st.integers(min_value=0, max_value=3), max_size=8)


class TestLevenshtein:
    def test_classic_pairs(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("flaw", "lawn") == 2
        assert levenshtein("ab", "ba") == 2

    def test_empty(self):
        assert levenshtein("", "") == 0
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_identity(self):
        assert levenshtein("same", "same") == 0
        assert levenshtein((0, 1, 2), (0, 1, 2)) == 0

    def test_integer_sequences(self):
        assert levenshtein((0, 1, 2, 3), (3, 1, 2, 0)) == 2
        assert levenshtein((0, 1, 2), (2, 0, 1)) == 2

    def test_matches_dp_on_random_lists(self):
        rng = np.random.default_rng(21)
        for _ in range(3000):
            la, lb = rng.choice(21, size=2, replace=False)
            a = rng.integers(0, 5, la).tolist()
            b = rng.integers(0, 5, lb).tolist()
            assert levenshtein(a, b) == dp_levenshtein(a, b), (a, b)

    def test_matches_dp_on_permutations(self):
        rng = np.random.default_rng(22)
        for _ in range(1500):
            n = int(rng.integers(1, 21))
            perm = tuple(rng.permutation(n).tolist())
            identity = tuple(range(n))
            want = dp_levenshtein(perm, identity)
            assert levenshtein(perm, identity) == want, perm
            assert levenshtein(identity, perm) == want, perm

    def test_matches_dp_on_strings_and_tuples(self):
        rng = np.random.default_rng(23)
        letters = np.array(list("abcde"))
        for _ in range(500):
            a = "".join(letters[rng.integers(0, 5, rng.integers(0, 30))])
            b = "".join(letters[rng.integers(0, 5, rng.integers(0, 30))])
            assert levenshtein(a, b) == dp_levenshtein(a, b), (a, b)
            pairs_a = list(zip(a, a[1:]))
            pairs_b = list(zip(b, b[1:]))
            assert levenshtein(pairs_a, pairs_b) == dp_levenshtein(pairs_a, pairs_b)

    def test_long_sequences(self):
        # Bit vectors wider than a machine word.
        rng = np.random.default_rng(24)
        for n in (63, 64, 65, 200):
            a = rng.integers(0, 8, n).tolist()
            b = rng.integers(0, 8, n + 3).tolist()
            assert levenshtein(a, b) == dp_levenshtein(a, b)

    @given(short_seqs, short_seqs)
    def test_symmetry_and_bounds(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
        assert (d == 0) == (a == b)

    @given(short_seqs, short_seqs, short_seqs)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestStringEditScore:
    def test_exact_match_scores_one(self):
        assert string_edit_score([(0, 1, 2)], (0, 1, 2)) == 1.0

    def test_score_is_one_only_on_exact_match(self):
        rng = np.random.default_rng(0)
        truth = tuple(range(6))
        for _ in range(50):
            cands = [tuple(rng.permutation(6)) for _ in range(3)]
            score = string_edit_score(cands, truth)
            assert 0.0 < score <= 1.0
            assert (score == 1.0) == (truth in cands)

    def test_takes_best_candidate(self):
        truth = (0, 1, 2, 3)
        near = (0, 1, 3, 2)  # distance 2
        far = (3, 2, 1, 0)  # distance 4
        assert string_edit_score([far], truth) == pytest.approx(1 / 5)
        assert string_edit_score([far, near], truth) == pytest.approx(1 / 3)

    def test_accepts_ordering_objects(self):
        truth = Ordering(positions=(0, 1, 2))
        cand = Ordering(positions=(2, 1, 0))
        assert string_edit_score([cand], truth) == pytest.approx(1 / 3)
        assert string_edit_score([truth], (0, 1, 2)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            string_edit_score([], (0, 1))
        with pytest.raises(ValueError, match="does not match truth length"):
            string_edit_score([(0, 1, 2)], (0, 1))


class TestEditDistances:
    """The lane-packed kernel: one batched call per set of equal-length rows."""

    @staticmethod
    def check(rows, b):
        got = evaluation._edit_distances(rows, b).tolist()
        assert got == [dp_levenshtein(row.tolist(), b.tolist()) for row in rows]
        # Lanes do not reach each other: each row alone gives the same.
        assert got == [int(evaluation._edit_distances(row[None], b)[0]) for row in rows]

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 200])
    def test_batch_matches_dp_and_one_row_calls(self, m):
        # Rows repeat items of 0-5; b also holds 6 and 7, which no row has.
        rng = np.random.default_rng([25, m])
        rows = rng.integers(0, 6, (12, m))
        for nb in (0, 1, m - 1, m, m + 7):
            self.check(rows, rng.integers(0, 8, nb))

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 200])
    def test_empty_b_gives_row_length(self, m):
        rows = np.random.default_rng(m).integers(0, 4, (5, m))
        assert evaluation._edit_distances(rows, np.arange(0)).tolist() == [m] * 5

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 200])
    def test_rows_differing_in_last_column(self, m):
        # Each lane's top bit is where a carry or shift would leak.
        rng = np.random.default_rng([26, m])
        rows = np.repeat(rng.integers(0, 6, (1, m)), 8, axis=0)
        rows[:, -1] = np.arange(8)
        self.check(rows, rows[3])
        self.check(rows, rng.permutation(rows[5]))

    def test_permutations_against_identity(self):
        rng = np.random.default_rng(27)
        for n in (2, 7, 20, 64, 130):
            rows = np.stack([rng.permutation(n) for _ in range(40)])
            self.check(rows, np.arange(n))

    def test_codes_keep_equality(self):
        # Strings and tuples with repeats; items on one side only.
        rng = np.random.default_rng(28)
        letters = np.array(list("abcdefg"))
        for m in (1, 5, 64, 65):
            rows = ["".join(letters[rng.integers(0, 5, m)]) for _ in range(6)]
            b = "".join(letters[rng.integers(2, 7, m + 2)])
            got = evaluation._edit_distances(*evaluation._codes(rows, b)).tolist()
            assert got == [dp_levenshtein(row, b) for row in rows]


class TestPairedT:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.random(12)
            b = rng.random(12)
            expected = stats.ttest_rel(a, b).pvalue
            assert paired_t_test(a, b) == pytest.approx(expected, rel=1e-12)

    def test_symmetric_in_sign(self):
        rng = np.random.default_rng(4)
        a, b = rng.random(10), rng.random(10)
        assert paired_t_test(a, b) == pytest.approx(paired_t_test(b, a), rel=1e-12)

    def test_all_zero_differences_degenerate(self):
        x = np.array([0.5, 0.25, 1.0])
        with pytest.raises(ValueError, match="all differences are zero"):
            paired_t_test(x, x.copy())

    def test_constant_nonzero_difference(self):
        a = np.array([1.0, 2.0, 3.0])
        assert paired_t_test(a, a - 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length 1-D"):
            paired_t_test(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="at least 2 pairs"):
            paired_t_test(np.array([1.0]), np.array([0.0]))


class TestHolmBonferroni:
    def test_both_rejected(self):
        assert holm_bonferroni([0.01, 0.04]) == [True, True]

    def test_smallest_fails_blocks_all(self):
        assert holm_bonferroni([0.03, 0.04]) == [False, False]

    def test_step_down_stops_midway(self):
        # Sorted thresholds for m=3 are 0.05/3, 0.05/2, 0.05; 0.03 > 0.025
        # fails at the second step, so 0.04 is never tested.
        assert holm_bonferroni([0.03, 0.001, 0.04]) == [False, True, False]

    def test_results_in_original_order(self):
        assert holm_bonferroni([0.5, 0.001, 0.011]) == [False, True, True]

    def test_empty(self):
        assert holm_bonferroni([]) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="outside"):
            holm_bonferroni([1.5])
        with pytest.raises(ValueError, match="alpha"):
            holm_bonferroni([0.01], alpha=0.0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
        st.floats(min_value=0.01, max_value=0.2),
    )
    def test_dominates_plain_bonferroni(self, ps, alpha):
        rejections = holm_bonferroni(ps, alpha)
        m = len(ps)
        for p, rejected in zip(ps, rejections):
            if p <= alpha / m:
                assert rejected
            if rejected:
                assert p <= alpha


WAVY = np.array([0.1, 0.9, 0.0, 1.0, 0.2, 0.8, 0.3])  # its spline overshoots [0, 1]


def _rising_falling_templates():
    return TemplateSet(xs=KNOTS, templates=np.stack([1.0 - KNOTS, KNOTS]))


@pytest.fixture(scope="module")
def eval_setup():
    ds = synth_generate(SynthConfig(n_albums=12, length_range=(4, 9), seed=6))
    essence = ds.scalar_features["latent"]
    return ds, essence, _rising_falling_templates()


class TestEvaluateTemplates:
    def test_perfect_essence_scores_high(self, eval_setup):
        ds, essence, templates = eval_setup
        report = evaluate_templates(ds, essence, templates, seed=2)
        assert report.mean_learned == 1.0
        assert report.mean_learned > report.mean_random
        assert len(report.p_values) == len(COMPARISONS) == 2
        assert report.comparisons == COMPARISONS
        assert all(0.0 <= p <= 1.0 for p in report.p_values)

    def test_best_template_is_the_matching_shape(self, eval_setup):
        ds, _, _ = eval_setup
        # Exactly linear essence, so the rising template fits with zero
        # deviation while the peak template cannot.
        essence = {
            t.track_id: j / (len(a) - 1)
            for a in ds.albums
            for j, t in enumerate(a.tracks)
        }
        peak = 1.0 - (2.0 * KNOTS - 1.0) ** 2
        templates = TemplateSet(xs=KNOTS, templates=np.stack([peak, KNOTS]))
        report = evaluate_templates(ds, essence, templates, seed=2)
        assert all(e.best_template == 1 for e in report.albums)

    def test_report_fields_consistent(self, eval_setup):
        ds, essence, templates = eval_setup
        report = evaluate_templates(ds, essence, templates, seed=5)
        assert len(report.albums) == len(ds)
        learned = [e.learned_score for e in report.albums]
        assert report.mean_learned == pytest.approx(np.mean(learned))
        lengths = {e.album_id: e.length for e in report.albums}
        for album in ds.albums:
            assert lengths[album.album_id] == len(album)

    def test_fits_reach_fit_ordering_optima(self, eval_setup, monkeypatch):
        # evaluate_templates fits each album length's albums by one sorted
        # matching, once (the shuffled fits are those fits relabelled); every
        # row must reach fit_ordering's bottleneck exactly and its total
        # deviation up to summation order.
        ds, essence, _ = eval_setup
        templates = TemplateSet(xs=KNOTS, templates=np.stack([1.0 - KNOTS, KNOTS, WAVY]))
        batches = []

        def recording_sorted_matchings(y, keys, targets):
            orderings = sorted_matchings(y, keys, targets)
            batches.append((y.copy(), orderings))
            return orderings

        sorted_matchings = evaluation._sorted_matchings
        monkeypatch.setattr(evaluation, "_sorted_matchings", recording_sorted_matchings)
        report = evaluate_templates(ds, essence, templates, seed=4)
        monkeypatch.undo()

        curves = templates.curves()
        per_length = Counter(e.length for e in report.albums)
        assert len(batches) == len(per_length)
        # One call per album length, over that length's albums only.
        assert sorted(y.shape for y, _ in batches) == sorted((m, n) for n, m in per_length.items())
        assert sum(y.shape[0] for y, _ in batches) == len(report.albums)
        for y, orderings in batches:
            for row, fits in zip(y, orderings):
                for curve, x in zip(curves, fits):
                    assert sorted(x) == list(range(row.size))
                    want = fit_ordering(row, curve)
                    deviation = np.abs(row[x] - sample_template(curve, row.size))
                    assert deviation.max() == want.bottleneck
                    assert deviation.sum() == pytest.approx(want.total_deviation, abs=1e-9)
        again = evaluate_templates(ds, essence, templates, seed=4)
        assert report.to_dict() == again.to_dict()

    @pytest.mark.parametrize("steps", [0, 4, 1])
    def test_relabelled_values_relabel_candidates(self, steps):
        # The fit reads each value with its tie key, not its position.  Row
        # position i of a relabelled album holds value perms[i], so mapping
        # its candidates through perms gives the album's own candidates.
        # steps 0 draws distinct values, 4 quarter steps, 1 mostly ties.
        rng = np.random.default_rng([41, steps])
        curves = TemplateSet(xs=KNOTS, templates=np.stack([1.0 - KNOTS, KNOTS, WAVY])).curves()
        targets = np.stack([sample_template(curve, 9) for curve in curves])
        y = rng.uniform(0, 1, (50, 9)) if steps == 0 else rng.integers(0, steps + 1, (50, 9)) / steps
        keys = rng.random((50, 9))
        perms = np.stack([rng.permutation(9) for _ in range(50)])
        got = evaluation._sorted_matchings(y, keys, targets)
        relabelled = evaluation._sorted_matchings(
            np.take_along_axis(y, perms, axis=1), np.take_along_axis(keys, perms, axis=1), targets
        )
        assert np.array_equal(np.take_along_axis(perms[:, None, :], relabelled, axis=2), got)

    def test_deterministic(self, eval_setup):
        ds, essence, templates = eval_setup
        r1 = evaluate_templates(ds, essence, templates, seed=9)
        r2 = evaluate_templates(ds, essence, templates, seed=9)
        assert r1.to_dict() == r2.to_dict()

    def test_seed_changes_baselines(self, eval_setup):
        ds, essence, templates = eval_setup
        r1 = evaluate_templates(ds, essence, templates, seed=1)
        r2 = evaluate_templates(ds, essence, templates, seed=2)
        a = [e.random_score for e in r1.albums]
        b = [e.random_score for e in r2.albums]
        assert a != b

    def test_missing_essence_names_track_and_album(self, eval_setup):
        ds, essence, templates = eval_setup
        broken = dict(essence)
        victim = ds.albums[0].tracks[1].track_id
        del broken[victim]
        with pytest.raises(ValueError, match=f"{victim}.*album 'synth-00000'"):
            evaluate_templates(ds, broken, templates, seed=0)

    def test_empty_dataset(self, eval_setup):
        ds, essence, templates = eval_setup
        empty = ds.subset("train").subset("test")  # train albums are not test
        with pytest.raises(ValueError, match="no albums to evaluate"):
            evaluate_templates(empty, essence, templates, seed=0)

    def test_single_album_falls_back_to_p_one(self, eval_setup):
        ds, essence, templates = eval_setup
        from dataclasses import replace

        one = replace(ds, albums=ds.albums[:1])
        report = evaluate_templates(one, essence, templates, seed=0)
        assert report.p_values == (1.0, 1.0)
        assert report.rejections == (False, False)

    def test_degenerate_comparison_logs_warning(self, eval_setup, caplog):
        # On two tracks the rising and the falling template make both
        # orderings candidates, before and after shuffling, so every
        # learned-vs-shuffled difference is exactly zero.
        _, _, templates = eval_setup
        ds = Dataset(
            albums=tuple(Album(f"pair-{a}", (Track(f"p{a}-0"), Track(f"p{a}-1"))) for a in range(12))
        )
        constant = {t.track_id: 0.5 for a in ds.albums for t in a.tracks}
        with caplog.at_level(logging.WARNING, logger="albumarc.evaluation"):
            report = evaluate_templates(ds, constant, templates, seed=0)
        assert all(e.learned_score == e.shuffled_score == 1.0 for e in report.albums)
        assert report.p_values[1] == 1.0
        assert report.rejections[1] is False
        warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warned) == 1
        assert "learned_vs_shuffled" in warned[0] and "p = 1" in warned[0]

    def test_one_track_album_is_named(self, eval_setup):
        ds, essence, templates = eval_setup
        short = Album("short-album", (Track("t1"),))
        with_short = Dataset(albums=ds.albums + (short,))
        with pytest.raises(ValueError, match="album 'short-album' has 1 track"):
            evaluate_templates(with_short, {**essence, "t1": 0.5}, templates, seed=0)

    def test_non_scalar_essence_is_named(self, eval_setup):
        # One-element tuples per track, the shape EssenceSeries rows take.
        ds, essence, templates = eval_setup
        wrapped = {track: (value,) for track, value in essence.items()}
        with pytest.raises(ValueError, match="album 'synth-00000'.*one scalar per track"):
            evaluate_templates(ds, wrapped, templates, seed=0)

    def test_custom_alpha_recorded(self, eval_setup):
        ds, essence, templates = eval_setup
        report = evaluate_templates(ds, essence, templates, seed=3, alpha=0.01)
        assert report.alpha == 0.01


@pytest.fixture(scope="module")
def mixed_setup():
    """Albums of lengths 2-20, some with constant essence."""
    ds = synth_generate(
        SynthConfig(n_albums=40, length_range=(3, 20), latent_shape="valley", noise_sigma=0.05, seed=8)
    )
    essence = dict(ds.scalar_features["latent_noisy"])
    extra = []
    for a, (n, constant) in enumerate([(2, False), (2, True), (2, False), (7, True), (13, True)]):
        tracks = tuple(Track(f"extra-{a}-{j}") for j in range(n))
        extra.append(Album(f"extra-{a}", tracks))
        values = np.full(n, 0.4) if constant else np.random.default_rng(a).uniform(0, 1, n)
        essence.update({t.track_id: float(v) for t, v in zip(tracks, values)})
    # Constant essence on two synthesized albums as well.
    for album in ds.albums[:2]:
        essence.update({t.track_id: 0.25 for t in album.tracks})
    return Dataset(albums=ds.albums[:20] + tuple(extra) + ds.albums[20:]), essence


@pytest.fixture(scope="module")
def wide_setup():
    """Albums of 64, 65 and 130 tracks, wider than a machine word, among
    short synthesized ones; some wide ones with tied values."""
    ds = synth_generate(
        SynthConfig(n_albums=16, length_range=(3, 12), latent_shape="valley", noise_sigma=0.05, seed=9)
    )
    essence = dict(ds.scalar_features["latent_noisy"])
    rng = np.random.default_rng(10)
    wide = []
    for a, (n, steps) in enumerate([(64, 0), (130, 0), (65, 3), (64, 5), (65, 0), (130, 4)]):
        tracks = tuple(Track(f"wide-{a}-{j}") for j in range(n))
        wide.append(Album(f"wide-{a}", tracks))
        values = rng.uniform(0, 1, n) if steps == 0 else rng.integers(0, steps + 1, n) / steps
        essence.update({t.track_id: float(v) for t, v in zip(tracks, values)})
    albums = ds.albums[:5] + tuple(wide[:3]) + ds.albums[5:11] + tuple(wide[3:]) + ds.albums[11:]
    return Dataset(albums=albums), essence


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "templates, seed",
        [
            (np.random.default_rng(31).uniform(0, 1, (4, len(KNOTS))), 0),
            (np.random.default_rng(32).uniform(0, 1, (4, len(KNOTS))), 1),
            (np.random.default_rng(33).uniform(0, 1, (3, len(KNOTS))), 2),
            (np.stack([1.0 - KNOTS, KNOTS, WAVY]), 3),
            (WAVY[None], 4),
            (KNOTS[None], 5),
        ],
        ids=["random-k4-a", "random-k4-b", "random-k3", "wavy-k3", "wavy-k1", "rising-k1"],
    )
    def test_report_matches_per_album_oracle(self, mixed_setup, templates, seed):
        ds, essence = mixed_setup
        template_set = TemplateSet(xs=KNOTS, templates=templates)
        got = evaluate_templates(ds, essence, template_set, seed=seed).to_dict()
        want = eval_oracle.evaluate_templates(ds, essence, template_set, seed=seed).to_dict()
        assert got == want

    @pytest.mark.parametrize(
        "templates, seed",
        [
            (np.random.default_rng(34).uniform(0, 1, (4, len(KNOTS))), 6),
            (np.stack([1.0 - KNOTS, KNOTS, WAVY]), 7),
            (WAVY[None], 8),
        ],
        ids=["random-k4", "wavy-k3", "wavy-k1"],
    )
    def test_wide_albums_match_per_album_oracle(self, wide_setup, templates, seed):
        ds, essence = wide_setup
        template_set = TemplateSet(xs=KNOTS, templates=templates)
        got = evaluate_templates(ds, essence, template_set, seed=seed).to_dict()
        want = eval_oracle.evaluate_templates(ds, essence, template_set, seed=seed).to_dict()
        assert got == want


class TestNull:
    """No order in the essence, so neither comparison may reject more often
    than the family's level allows."""

    def test_corpus_scale_null(self, capsys):
        # 20 seeds x 1000 albums whose essence is the synth's per-track
        # noise scalar; rejections per comparison at k = 1 and k = 4.
        hits = {1: [0, 0], 4: [0, 0]}
        for seed in range(100, 120):
            ds = synth_generate(
                SynthConfig(n_albums=1000, latent_shape="valley", noise_sigma=0.05, seed=seed)
            )
            essence = ds.scalar_features["noise"]
            series = [
                EssenceSeries(a.album_id, tuple((essence[t.track_id],) for t in a.tracks)).minmax()
                for a in ds.subset("train").albums
            ]
            for k, counts in hits.items():
                ga = GAConfig(n_templates=k, generations=100, stagnation_patience=100, seed=seed)
                template_set, _ = evolve_templates(series, ga)
                report = evaluate_templates(ds, essence, template_set, seed=seed)
                hits[k] = [c + r for c, r in zip(counts, report.rejections)]
        with capsys.disabled():
            print(f"\nnull rejections of 20, {list(COMPARISONS)}: k=1 {hits[1]}, k=4 {hits[4]}")
        assert hits[1][0] <= 2 and hits[1][1] <= 2
        assert hits[4][1] <= 2


class TestPlotRows:
    def test_rows_match_report(self, eval_setup):
        ds, essence, templates = eval_setup
        report = evaluate_templates(ds, essence, templates, seed=7)
        rows = plot_rows(report.to_dict())
        assert [name for name, _, _ in rows] == [
            "learned",
            "random_orderings",
            "shuffled_essence",
        ]
        learned = np.array([e.learned_score for e in report.albums])
        name, mean, stderr = rows[0]
        assert mean == pytest.approx(learned.mean())
        assert stderr == pytest.approx(learned.std(ddof=1) / np.sqrt(learned.size))

    def test_single_album_stderr_zero(self, eval_setup):
        ds, essence, templates = eval_setup
        from dataclasses import replace

        one = replace(ds, albums=ds.albums[:1])
        report = evaluate_templates(one, essence, templates, seed=0)
        assert all(stderr == 0.0 for _, _, stderr in plot_rows(report.to_dict()))
