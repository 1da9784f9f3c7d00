"""Tests for GA-based template extraction and the template-set container."""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albumarc import templates
from albumarc.core import EssenceSeries, minmax_series, normalize_minmax, relative_positions
from albumarc.fitcurve import sample_template
from albumarc.ingest import SynthConfig, synth_generate
from albumarc.spline import DEFAULT_KNOTS, build_spline
from albumarc.templates import (
    GAConfig,
    TemplateSet,
    _album_terms,
    _population_cost,
    evolve_templates,
)

import ga_oracle

KNOTS = np.array(DEFAULT_KNOTS)


def _shape_albums(n_albums=60, seed=3, lengths=(5, 12)):
    """Alternating rising/falling series sampled at relative positions."""
    rng = np.random.default_rng(seed)
    albums = []
    for i in range(n_albums):
        r = relative_positions(int(rng.integers(lengths[0], lengths[1] + 1)))
        albums.append(r if i % 2 == 0 else 1.0 - r)
    return albums


def template_cost(template_set: TemplateSet, albums) -> float:
    """The GA's cost of one template set over albums (min-max normalized
    essence series), from the album terms and population cost that
    :func:`evolve_templates` minimizes."""
    album_terms = _album_terms([minmax_series(a) for a in albums], template_set.xs)
    return float(_population_cost(template_set.templates[None, :, :], album_terms)[0])


def explicit_cost(template_set: TemplateSet, albums) -> float:
    """Reference implementation: loop over spline curves per album."""
    curves = template_set.curves()
    total = 0.0
    for values in albums:
        v = values.scalars() if isinstance(values, EssenceSeries) else np.asarray(values)
        r = relative_positions(len(v))
        total += min(float(np.mean((curve(r) - v) ** 2)) for curve in curves)
    return total


class TestTemplateSet:
    def test_single_row_promoted(self):
        ts = TemplateSet(xs=KNOTS, templates=np.zeros(7))
        assert ts.templates.shape == (1, 7)
        assert ts.n_templates == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="templates must be"):
            TemplateSet(xs=KNOTS, templates=np.zeros((2, 5)))
        with pytest.raises(ValueError, match="1-D grid"):
            TemplateSet(xs=np.array([0.5]), templates=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            TemplateSet(xs=KNOTS, templates=np.full((1, 7), np.nan))

    def test_knot_grid_checked(self):
        with pytest.raises(ValueError, match="knots must be strictly increasing"):
            TemplateSet(xs=np.array([0.0, 0.7, 0.5, 1.0]), templates=np.zeros((1, 4)))
        with pytest.raises(ValueError, match="span exactly"):
            TemplateSet(xs=np.array([0.0, 0.5]), templates=np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "patch, match",
        [
            ({"xs": [0, "0.5", 1]}, r"xs\[1\] must be float"),
            ({"xs": "0 0.5 1"}, "xs must be list"),
            ({"templates": [["0", "1", "0.5"]]}, r"templates\[0\]\[0\] must be float"),
            ({"templates": [[0, None, 0.5]]}, r"templates\[0\]\[1\] must be float"),
            ({"templates": [0, 1, 0.5]}, r"templates\[0\] must be list"),
            ({"k": 3}, "k=3 but 1 template rows"),
            ({"k": True}, "k must be int"),
            ({"seed": "7"}, "seed must be int"),
            ({"final_cost": [1.0]}, "final_cost must be float"),
        ],
    )
    def test_from_dict_reads_numbers_only(self, patch, match):
        doc = {"xs": [0.0, 0.5, 1.0], "templates": [[0.0, 1.0, 0.5]], "k": 1, **patch}
        with pytest.raises((TypeError, ValueError), match=match):
            TemplateSet.from_dict(doc)

    def test_curves_renormalize_rows(self):
        ts = TemplateSet(xs=KNOTS, templates=np.array([[2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]]))
        curve = ts.curves()[0]
        np.testing.assert_allclose(
            [curve(x) for x in KNOTS], np.linspace(0, 1, 7), atol=1e-12
        )

    def test_constant_row_becomes_half(self):
        ts = TemplateSet(xs=KNOTS, templates=np.full((1, 7), 3.7))
        curve = ts.curves()[0]
        np.testing.assert_allclose([curve(x) for x in (0.0, 0.31, 1.0)], 0.5, atol=1e-12)

    def test_dict_roundtrip(self):
        ts = TemplateSet(
            xs=KNOTS,
            templates=np.random.default_rng(0).random((3, 7)),
            seed=17,
            final_cost=1.25,
        )
        back = TemplateSet.from_dict(ts.to_dict())
        np.testing.assert_array_equal(back.xs, ts.xs)
        np.testing.assert_array_equal(back.templates, ts.templates)
        assert back.seed == 17
        assert back.final_cost == 1.25

    def test_dict_roundtrip_without_metadata(self):
        ts = TemplateSet(xs=KNOTS, templates=np.zeros((1, 7)))
        doc = ts.to_dict()
        assert "seed" not in doc and "final_cost" not in doc
        assert doc["k"] == 1
        back = TemplateSet.from_dict(doc)
        assert back.seed is None and back.final_cost is None


class TestRenorm:
    """Template rows are min-max normalized one row at a time."""

    def test_rows_span_unit_interval(self):
        rows = np.array([[3.0, 1.0, 5.0], [2.0, 2.0, 2.0]])
        out = normalize_minmax(rows)
        np.testing.assert_allclose(out[0], [0.5, 0.0, 1.0])
        np.testing.assert_allclose(out[1], [0.5, 0.5, 0.5])

    def test_idempotent(self):
        rows = np.random.default_rng(1).standard_normal((5, 7))
        once = normalize_minmax(rows)
        np.testing.assert_array_equal(normalize_minmax(once), once)


class TestGAConfig:
    def test_defaults(self):
        cfg = GAConfig()
        assert (cfg.population_size, cfg.children_per_gen) == (64, 64)
        assert cfg.n_templates == 4
        assert cfg.generations == 500
        assert cfg.stagnation_patience == 50

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"population_size": 1}, "population_size"),
            ({"children_per_gen": 0}, "children_per_gen"),
            ({"n_templates": 0}, "n_templates"),
            ({"crossover_prob": 1.5}, "crossover_prob"),
            ({"generations": 0}, "generations"),
            ({"stagnation_patience": 0}, "stagnation_patience"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GAConfig(**kwargs)


class TestTemplateCost:
    def test_constant_template_hand_value(self):
        # A constant template renormalizes to 0.5 everywhere; against the
        # series [0, 0.5, 1] the squared gaps are (0.25, 0, 0.25), mean 1/6.
        ts = TemplateSet(xs=KNOTS, templates=np.zeros((1, 7)))
        assert template_cost(ts, [np.array([0.0, 0.5, 1.0])]) == pytest.approx(1 / 6)

    def test_best_template_wins(self):
        templates = np.stack([np.zeros(7), KNOTS])  # constant and exact-linear
        ts = TemplateSet(xs=KNOTS, templates=templates)
        assert template_cost(ts, [np.array([0.0, 0.5, 1.0])]) == pytest.approx(0.0, abs=1e-12)

    def test_sums_over_albums(self):
        ts = TemplateSet(xs=KNOTS, templates=np.zeros((1, 7)))
        one = template_cost(ts, [np.array([0.0, 1.0])])
        two = template_cost(ts, [np.array([0.0, 1.0]), np.array([0.0, 1.0])])
        assert two == pytest.approx(2 * one)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(5)
        ts = TemplateSet(xs=KNOTS, templates=rng.standard_normal((3, 7)))
        albums = [rng.random(int(n)) for n in rng.integers(2, 15, size=25)]
        assert template_cost(ts, albums) == pytest.approx(explicit_cost(ts, albums), rel=1e-12)

    def test_accepts_minmax_series_only(self):
        ts = TemplateSet(xs=KNOTS, templates=np.zeros((1, 7)))
        raw = EssenceSeries("a1", np.array([0.1, 2.0, 0.7]))
        with pytest.raises(ValueError, match="min-max normalized"):
            template_cost(ts, [raw])
        assert template_cost(ts, [raw.minmax()]) >= 0.0

    def test_rejects_out_of_range_values(self):
        ts = TemplateSet(xs=KNOTS, templates=np.zeros((1, 7)))
        with pytest.raises(ValueError, match="min-max normalize first"):
            template_cost(ts, [np.array([0.0, 1.5])])
        nan_album = np.array([0.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="finite"):
            template_cost(ts, [nan_album])
        with pytest.raises(ValueError, match="finite"):
            evolve_templates([nan_album, np.linspace(0, 1, 4)], GAConfig(generations=2))

    def test_rejects_short_and_empty(self):
        ts = TemplateSet(xs=KNOTS, templates=np.zeros((1, 7)))
        with pytest.raises(ValueError, match="at least 2 scalar values"):
            template_cost(ts, [np.array([0.5])])

    def test_evolve_names_one_track_album(self):
        # A series too short to fit is named, by album id or by index, with
        # its length, before the GA draws anything.
        albums = [np.linspace(0, 1, 5) for _ in range(6)]
        config = GAConfig(generations=2)
        with pytest.raises(ValueError, match=r"album 'one' has 1 track\(s\); template extraction needs at least 2"):
            evolve_templates(albums + [EssenceSeries("one", [[0.5]], "minmax")], config)
        with pytest.raises(ValueError, match=r"album 2 has 1 track\(s\)"):
            evolve_templates(albums[:2] + [np.array([0.5])] + albums[2:], config)
        with pytest.raises(ValueError, match=r"album 0 has 0 track\(s\)"):
            evolve_templates([np.array([])], config)

    def test_scale_invariance_of_template_rows(self):
        # Cost depends on templates only through their min-max renorm.
        rng = np.random.default_rng(7)
        row = rng.standard_normal(7)
        albums = [rng.random(6), rng.random(4)]
        base = template_cost(TemplateSet(xs=KNOTS, templates=row), albums)
        scaled = template_cost(TemplateSet(xs=KNOTS, templates=3.0 * row + 11.0), albums)
        assert scaled == pytest.approx(base, rel=1e-12)


def _oracle_and_cost(population, albums, xs=KNOTS):
    """The population's costs from the per-length oracle and from
    :func:`_population_cost`."""
    values = [minmax_series(a) for a in albums]
    want = ga_oracle.population_cost(population, ga_oracle.length_groups(values, xs))
    got = _population_cost(population, _album_terms(values, xs))
    return want, got


def _assert_matches_oracle(population, albums, xs=KNOTS):
    want, got = _oracle_and_cost(population, albums, xs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(
        np.argsort(got, kind="stable"), np.argsort(want, kind="stable")
    )


class TestCostOracle:
    """The one-product cost against the per-length oracle it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 12),
        k=st.integers(1, 5),
        n_albums=st.integers(1, 60),
    )
    def test_random_populations_mixed_lengths(self, seed, m, k, n_albums):
        rng = np.random.default_rng(seed)
        albums = [rng.random(int(n)) for n in rng.integers(2, 21, size=n_albums)]
        _assert_matches_oracle(rng.standard_normal((m, k, 7)), albums)

    @pytest.mark.parametrize(
        "xs", [[0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.1, 0.45, 0.7, 1.0], np.linspace(0, 1, 11)]
    )
    def test_custom_knot_grid(self, xs):
        rng = np.random.default_rng(4)
        xs = np.array(xs)
        albums = [rng.random(int(n)) for n in rng.integers(2, 21, size=50)]
        _assert_matches_oracle(rng.standard_normal((16, 3, xs.size)), albums, xs)

    def test_constant_rows_normalize_to_half(self):
        rng = np.random.default_rng(6)
        population = rng.standard_normal((16, 4, 7))
        population[::2, 1] = 2.5
        population[3] = -1.0
        albums = [rng.random(int(n)) for n in rng.integers(2, 21, size=50)]
        _assert_matches_oracle(population, albums)

    @pytest.mark.parametrize(
        "row, shape",
        [
            (KNOTS, lambda r: r),
            (3.0 * KNOTS + 1.0, lambda r: r),
            (-KNOTS, lambda r: 1.0 - r),
            (np.full(7, 4.0), lambda r: np.full(r.size, 0.5)),
        ],
        ids=["rising", "rising-scaled", "falling", "constant"],
    )
    def test_clamp_at_an_exact_fit(self, row, shape):
        # Each album equals the template's samples, so its raw squared gap
        # is rounding noise around 0, negative at some lengths: the clamp
        # keeps every cost in [0, rounding].
        costs = []
        for n in range(2, 21):
            want, got = _oracle_and_cost(row[None, None, :], [shape(relative_positions(n))])
            costs += [want[0], got[0]]
        assert 0.0 <= min(costs) and max(costs) <= 1e-15

    def test_more_albums_than_one_block(self):
        rng = np.random.default_rng(10)
        albums = [rng.random(int(n)) for n in rng.integers(2, 21, size=5000)]
        assert len(_album_terms(albums, KNOTS)[1]) > 1
        _assert_matches_oracle(rng.standard_normal((8, 4, 7)), albums)

    def test_blocks_sum_to_the_one_block_cost(self, monkeypatch):
        rng = np.random.default_rng(13)
        values = [minmax_series(rng.random(int(n))) for n in rng.integers(2, 21, size=23)]
        population = rng.standard_normal((6, 3, 7))
        want = _population_cost(population, _album_terms(values, KNOTS))
        monkeypatch.setattr(templates, "_BLOCK", 5)
        album_terms = _album_terms(values, KNOTS)
        assert len(album_terms[1]) == 5
        np.testing.assert_allclose(_population_cost(population, album_terms), want, rtol=1e-12, atol=0.0)

    def test_evolve_with_oracle_cost(self, monkeypatch):
        rng = np.random.default_rng(12)
        albums = []
        for i in range(60):
            r = relative_positions(int(rng.integers(2, 21)))
            shape = r if i % 2 else (2.0 * r - 1.0) ** 2
            albums.append(normalize_minmax(shape + 0.05 * rng.standard_normal(r.size)))
        config = GAConfig(n_templates=2, generations=120, stagnation_patience=15, seed=5)
        ts, history = evolve_templates(albums, config)
        monkeypatch.setattr(templates, "_album_terms", ga_oracle.length_groups)
        monkeypatch.setattr(templates, "_population_cost", ga_oracle.population_cost)
        oracle_ts, oracle_history = evolve_templates(albums, config)
        np.testing.assert_array_equal(ts.templates, oracle_ts.templates)
        assert len(history) == len(oracle_history)
        np.testing.assert_allclose(history, oracle_history, rtol=1e-12, atol=0.0)
        assert ts.final_cost == pytest.approx(oracle_ts.final_cost, rel=1e-12, abs=0.0)

    def test_cost_memory_is_bounded(self):
        # Albums go through in blocks, so the call's peak does not grow with
        # the corpus: 20 000 albums in one product would need 41 MB for the
        # (256, 20 000) gaps alone.
        rng = np.random.default_rng(14)
        values = [rng.random(int(n)) for n in rng.integers(3, 21, size=20_000)]
        album_terms = _album_terms(values, KNOTS)
        population = rng.standard_normal((64, 4, 7))
        tracemalloc.start()
        try:
            _population_cost(population, album_terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


@pytest.fixture(scope="module")
def recovered():
    albums = _shape_albums()
    config = GAConfig(n_templates=2, seed=7)
    return albums, config, evolve_templates(albums, config)


class TestEvolve:
    def test_deterministic(self, recovered):
        albums, config, (ts, history) = recovered
        ts2, history2 = evolve_templates(albums, config)
        np.testing.assert_array_equal(ts2.templates, ts.templates)
        np.testing.assert_array_equal(history2, history)

    def test_history_never_increases(self, recovered):
        _, _, (_, history) = recovered
        assert np.all(np.diff(history) <= 0.0)

    def test_recovers_both_planted_shapes(self, recovered):
        _, _, (ts, _) = recovered
        rising = KNOTS.copy()
        falling = 1.0 - KNOTS
        errors = np.array(
            [
                [float(np.mean((row - target) ** 2)) for target in (rising, falling)]
                for row in ts.templates
            ]
        )
        best = errors.argmin(axis=1)
        assert sorted(best) == [0, 1]
        assert errors.min(axis=1).max() <= 0.05

    def test_final_cost_matches_scoring(self, recovered):
        albums, _, (ts, history) = recovered
        assert ts.final_cost == pytest.approx(template_cost(ts, albums), abs=1e-12)
        assert history[-1] == pytest.approx(ts.final_cost, abs=1e-12)

    def test_output_rows_are_renormalized(self, recovered):
        _, _, (ts, _) = recovered
        np.testing.assert_allclose(ts.templates.min(axis=1), 0.0, atol=1e-15)
        np.testing.assert_allclose(ts.templates.max(axis=1), 1.0, atol=1e-15)

    def test_stagnation_stops_early(self, caplog):
        caplog.set_level(logging.INFO, logger="albumarc.templates")
        albums = [np.linspace(0, 1, 6)]
        config = GAConfig(
            n_templates=1, population_size=8, children_per_gen=8,
            generations=400, stagnation_patience=4, seed=0,
        )
        ts, history = evolve_templates(albums, config)
        assert len(history) < 400
        assert caplog.messages == [
            f"GA ran {len(history)} generations, best cost {ts.final_cost:.6g}; "
            "stopped: 4 generations without improvement"
        ]

    def test_generation_cap_logged(self, caplog):
        caplog.set_level(logging.INFO, logger="albumarc.templates")
        config = GAConfig(
            n_templates=1, population_size=8, children_per_gen=8,
            generations=5, stagnation_patience=50, seed=0,
        )
        ts, history = evolve_templates([np.linspace(0, 1, 6)], config)
        assert len(history) == 5
        assert caplog.messages == [
            f"GA ran 5 generations, best cost {ts.final_cost:.6g}; stopped: generation cap 5"
        ]

    def test_custom_grid(self):
        xs = np.linspace(0, 1, 5)
        albums = [np.linspace(0, 1, 4)]
        config = GAConfig(
            n_templates=1, population_size=8, children_per_gen=8,
            generations=20, stagnation_patience=20, seed=2,
        )
        ts, _ = evolve_templates(albums, config, xs=xs)
        np.testing.assert_array_equal(ts.xs, xs)
        assert ts.templates.shape == (1, 5)

    def test_seed_recorded(self):
        albums = [np.linspace(0, 1, 4)]
        config = GAConfig(
            n_templates=1, population_size=4, children_per_gen=4,
            generations=5, stagnation_patience=5, seed=21,
        )
        ts, _ = evolve_templates(albums, config)
        assert ts.seed == 21

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no albums"):
            evolve_templates([], GAConfig())


class TestFitTargets:
    def test_final_cost_is_the_fits_cost(self):
        # On noisy valleys the evolved splines overshoot [0, 1] at some album
        # lengths; the GA's cost still equals the cost against the targets
        # the fit uses.
        dataset = synth_generate(SynthConfig(n_albums=100, latent_shape="valley", noise_sigma=0.05, seed=1))
        essence = dataset.scalar_features["latent_noisy"]
        albums = [normalize_minmax([essence[t.track_id] for t in album.tracks]) for album in dataset.albums]
        ts, _ = evolve_templates(albums, GAConfig(n_templates=4, generations=200, seed=1))
        curves = ts.curves()
        lengths = sorted({len(v) for v in albums})
        splines = [curve(relative_positions(n)) for curve in curves for n in lengths]
        assert any(z.min() < 0.0 or z.max() > 1.0 for z in splines)
        cost = sum(min(float(np.mean((sample_template(c, len(v)) - v) ** 2)) for c in curves) for v in albums)
        assert abs(cost - ts.final_cost) <= 1e-9


class TestCurveConsistency:
    def test_curves_interpolate_stored_rows(self):
        rng = np.random.default_rng(9)
        rows = rng.random((2, 7))
        ts = TemplateSet(xs=KNOTS, templates=rows)
        for row, curve in zip(normalize_minmax(rows), ts.curves()):
            got = np.array([curve(x) for x in KNOTS])
            np.testing.assert_allclose(got, row, atol=1e-12)

    def test_curves_agree_with_direct_spline(self):
        rng = np.random.default_rng(11)
        row = rng.random(7)
        ts = TemplateSet(xs=KNOTS, templates=row)
        direct = build_spline(KNOTS, normalize_minmax(row))
        grid = np.linspace(0, 1, 40)
        np.testing.assert_allclose(ts.curves()[0](grid), direct(grid), atol=1e-12)
