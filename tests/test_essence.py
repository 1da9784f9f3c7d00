"""Contrastive objective, extractor/scorer networks, training, and probes."""

import copy
import json
import logging
import tracemalloc
import warnings

import numpy as np
import pytest

from albumarc.core import Album, Track
from albumarc.errors import TrainingDiverged
from albumarc.essence import TrainConfig, train
from albumarc.essence import autodiff as ad
from albumarc.essence.model import (
    EssenceModel,
    ExtractorArch,
    ScorerArch,
    flatten_params,
    init_params,
    score_candidates_graph,
    unflatten_params,
)
from albumarc.essence.objective import (
    LN2,
    batch_loss_graph,
    contrastive_permutations,
    mi_lower_bound,
)
from albumarc.essence.training import Adam, input_stats, probe_feature_mi
from albumarc.ingest import SynthConfig, synth_generate

import essence_oracle as oracle
from conftest import album_loss_graph, essence_map, info_nce_loss, pearson, validation_mi


def tiny_model(rng=None, d=1, in_dim=6, hidden=5, scorer_hidden=4):
    rng = rng or np.random.default_rng(0)
    return EssenceModel.initialize(
        rng,
        essence_dim=d,
        extractor_hidden=hidden,
        scorer_hidden=scorer_hidden,
        in_dim=in_dim,
    )


def score_one(model, sequence):
    """The scorer's score of one (n, d) essence sequence."""
    n = len(sequence)
    return float(
        score_candidates_graph(ad.as_tensor(sequence), [n], [np.arange(n)], model.scorer_params).data[0]
    )


def make_album(album_id, n, rng):
    tracks = tuple(Track(f"{album_id}-t{j}") for j in range(n))
    return Album(album_id, tracks, rng.standard_normal((n, 525)))


class TestInfoNCE:
    def test_uniform_scores_give_log_n(self):
        assert info_nce_loss(np.zeros(32), 0) == pytest.approx(np.log(32), abs=1e-12)
        assert info_nce_loss([0.0, 0.0], 1) == pytest.approx(np.log(2), abs=1e-12)

    def test_dominant_true_score(self):
        assert info_nce_loss([10.0, -10.0], 0) == pytest.approx(
            np.log1p(np.exp(-20.0)), abs=1e-15
        )

    def test_always_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.standard_normal(8) * 10
            assert info_nce_loss(s, int(rng.integers(8))) > 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(16)
        base = info_nce_loss(s, 3)
        for shift in (1.0, -250.0, 1e6):
            assert info_nce_loss(s + shift, 3) == pytest.approx(base, abs=1e-9)

    def test_stable_at_huge_scores(self):
        assert np.isfinite(info_nce_loss([1e4, 1e4 - 5.0], 0))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            info_nce_loss([1.0], 0)
        with pytest.raises(ValueError):
            info_nce_loss([1.0, np.nan], 0)
        with pytest.raises(ValueError):
            info_nce_loss([1.0, 2.0], 2)


class TestMIBound:
    def test_chance_level_is_zero_bits(self):
        assert mi_lower_bound(np.log(32), 32) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_scorer_is_log2_n(self):
        assert mi_lower_bound(0.0, 32) == pytest.approx(5.0, abs=1e-12)

    def test_bits_roundtrip(self):
        # A loss 1.924 bits below chance reads back as exactly 1.924 bits.
        loss = np.log(32) - 1.924 * LN2
        assert mi_lower_bound(loss, 32) == pytest.approx(1.924, abs=1e-12)

    def test_never_exceeds_log2_n(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            loss = float(rng.uniform(0, 10))
            assert mi_lower_bound(loss, n) <= np.log2(n) + 1e-12

    def test_requires_two_sequences(self):
        with pytest.raises(ValueError):
            mi_lower_bound(0.0, 1)


def stacked_losses(values, lengths, perms, model):
    """``batch_loss_graph``'s losses of stacked raw values, one set per album."""
    losses = batch_loss_graph(ad.as_tensor(values), lengths, [p[None] for p in perms], model.scorer_params)
    return losses.data


class TestZscoreAndPermutations:
    def test_zscore_columns(self):
        # The loss z-scores each album's columns on its own: a per-album
        # shift and positive scale of each column leaves every loss as it is,
        # up to the variance floor's 1e-12 / variance.
        rng = np.random.default_rng(3)
        model = tiny_model(rng, d=3)
        model.scorer_params = init_params(model.scorer_arch.param_shapes(), rng)
        lengths = [40, 7, 3]
        perms = [contrastive_permutations(n, 8, rng) for n in lengths]
        v = rng.standard_normal((sum(lengths), 3))
        scale = np.repeat(rng.uniform(0.5, 5.0, (3, 3)), lengths, axis=0)
        shift = np.repeat(rng.uniform(-4.0, 4.0, (3, 3)), lengths, axis=0)
        np.testing.assert_allclose(
            stacked_losses(v * scale + shift, lengths, perms, model),
            stacked_losses(v, lengths, perms, model),
            rtol=0,
            atol=1e-9,
        )

    def test_zscore_constant_column_stays_finite(self):
        # A constant album z-scores to zeros: every candidate scores alike,
        # so its loss is ln N.
        model = tiny_model(np.random.default_rng(3))
        perms = [contrastive_permutations(4, 8, np.random.default_rng(4))]
        losses = stacked_losses(np.full((4, 1), 3.0), [4], perms, model)
        assert np.all(np.isfinite(losses))
        np.testing.assert_allclose(losses, np.log(8), atol=1e-6)

    def test_negatives_are_never_identity(self):
        rng = np.random.default_rng(4)
        perms = contrastive_permutations(3, 201, rng)[1:]
        identity = np.arange(3)
        assert not any(np.array_equal(p, identity) for p in perms)

    def test_contrastive_rows(self):
        rng = np.random.default_rng(5)
        perms = contrastive_permutations(5, 8, rng)
        assert perms.shape == (8, 5)
        np.testing.assert_array_equal(perms[0], np.arange(5))
        for row in perms:
            assert sorted(row) == list(range(5))

    def test_minimal_n_gives_one_negative(self):
        rng = np.random.default_rng(6)
        perms = contrastive_permutations(4, 2, rng)
        assert perms.shape == (2, 4)
        assert not np.array_equal(perms[1], np.arange(4))

    def test_too_short_to_permute(self):
        with pytest.raises(ValueError, match="length < 2"):
            contrastive_permutations(1, 2, np.random.default_rng(0))


class TestContrastiveSet:
    """The N candidate sequences that ``album_loss_graph`` scores."""

    def test_true_sequence_is_ground_truth_order(self):
        # The loss is -log softmax over candidates whose row 0 is the album's
        # z-scored essence in its ground-truth order.
        rng = np.random.default_rng(7)
        album = make_album("a", 5, rng)
        model = tiny_model(in_dim=525)
        perms = contrastive_permutations(5, 8, rng)
        loss = album_loss_graph(
            model, model.standardize(album.features), perms, model.extractor_params, model.scorer_params
        )
        normalized = oracle.zscore_columns(model.extract_matrix(album.features))
        scores = np.array([score_one(model, normalized[p]) for p in perms])
        assert float(loss.data) == pytest.approx(info_nce_loss(scores, 0), abs=1e-12)
        np.testing.assert_array_equal(normalized[perms[0]], normalized)

    def test_all_sequences_share_one_multiset(self):
        rng = np.random.default_rng(8)
        album = make_album("a", 4, rng)
        sequences = oracle.zscore_columns(tiny_model(in_dim=525).extract_matrix(album.features))[
            contrastive_permutations(4, 6, rng)
        ]
        base = np.sort(sequences[0], axis=0)
        for seq in sequences:
            np.testing.assert_allclose(np.sort(seq, axis=0), base, atol=0)


class TestExtractor:
    def test_zeroed_output_layer_gives_half(self):
        model = tiny_model(in_dim=525)
        model.extractor_params["w2"][:] = 0.0
        model.extractor_params["b2"][:] = 0.0
        features = np.random.default_rng(0).standard_normal(525)
        np.testing.assert_allclose(model.extract_matrix(features)[0], 0.5, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        model = tiny_model(in_dim=525)
        features = rng.standard_normal(525)
        np.testing.assert_array_equal(model.extract_matrix(features), model.extract_matrix(features))

    def test_dead_input_ignored(self):
        rng = np.random.default_rng(11)
        model = tiny_model(in_dim=525)
        model.extractor_params["w1"][77, :] = 0.0
        stats = rng.standard_normal((75, 7))
        other = stats.copy()
        other[11, 0] += 5.0  # flat index 11*7+0 = 77
        a = model.extract_matrix(stats.reshape(-1))
        b = model.extract_matrix(other.reshape(-1))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(12)
        model = tiny_model(in_dim=525)
        flat = rng.standard_normal((20, 525)) * 10
        out = model.extract_matrix(flat)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_saturated_output_stays_finite_without_warnings(self):
        model = tiny_model(in_dim=525)
        model.extractor_params["b2"][:] = -800.0
        flat = np.random.default_rng(41).standard_normal((6, 525))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = model.extract_matrix(flat)
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0.0) and np.all(out < 1.0)

    def test_non_finite_rejected(self):
        model = tiny_model(in_dim=525)
        bad = np.zeros((1, 525))
        bad[0, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            model.extract_matrix(bad)


class TestScorer:
    def test_zeroed_scorer_scores_zero(self):
        model = tiny_model()
        for key in model.scorer_params:
            model.scorer_params[key][:] = 0.0
        rng = np.random.default_rng(13)
        for n in (1, 3, 7):
            assert score_one(model, rng.standard_normal((n, 1))) == 0.0

    def test_deterministic_and_order_sensitive(self):
        model = tiny_model()
        seq = np.array([[0.1], [0.9], [0.4]])
        assert score_one(model, seq) == score_one(model, seq)
        # A freshly initialized scorer is generically order-sensitive.
        assert score_one(model, seq) != score_one(model, seq[::-1])

    def test_batch_path_matches_single_path(self):
        model = tiny_model(d=2)
        rng = np.random.default_rng(14)
        seqs = rng.standard_normal((5, 4, 2))
        batch = oracle.score_sequences_np(seqs, model.scorer_params)
        singles = [score_one(model, s) for s in seqs]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_graph_path_matches_numpy_path(self):
        # Candidate orderings of stacked sequences of different lengths,
        # scored from each sequence's pair table, against the numpy scorer
        # run on each permuted sequence.
        model = tiny_model(d=3)
        rng = np.random.default_rng(15)
        lengths = [6, 1, 4]
        values = rng.standard_normal((sum(lengths), 3))
        perms = [np.stack([rng.permutation(n) for _ in range(10)]).reshape(2, 5, n) for n in lengths]
        params_t = {k: ad.Tensor(v) for k, v in model.scorer_params.items()}
        graph = score_candidates_graph(ad.Tensor(values), lengths, perms, params_t)
        sequences = np.split(values, np.cumsum(lengths)[:-1])
        expected = np.concatenate(
            [
                oracle.score_sequences_np(seq[perm.reshape(-1, len(seq))], model.scorer_params)
                for seq, perm in zip(sequences, perms)
            ]
        )
        np.testing.assert_allclose(graph.data, expected, rtol=0, atol=1e-12)

    def test_empty_sequence_rejected(self):
        # Sequences reach the scorer only as candidate orderings of an
        # album, and an empty album has none.
        with pytest.raises(ValueError):
            contrastive_permutations(0, 8, np.random.default_rng(0))


class TestGradients:
    def test_full_model_matches_finite_differences(self):
        # Whole Eq.-1 graph on a 3-track album with a tiny net.  The scorer's
        # final bias has exactly zero analytic gradient (softmax shift
        # invariance), so relative error uses a floored denominator; without
        # the floor that coordinate compares roundoff to roundoff.
        rng = np.random.default_rng(16)
        model = tiny_model(rng, d=2, in_dim=6, hidden=4, scorer_hidden=3)
        x_std = rng.standard_normal((3, 6))
        perms = contrastive_permutations(3, 4, rng)
        ext_shapes = model.extractor_arch.param_shapes()
        sco_shapes = model.scorer_arch.param_shapes()

        def loss_at(flat_ext, flat_sco):
            ext = {k: ad.Tensor(v) for k, v in unflatten_params(flat_ext, ext_shapes).items()}
            sco = {k: ad.Tensor(v) for k, v in unflatten_params(flat_sco, sco_shapes).items()}
            return album_loss_graph(model, x_std, perms, ext, sco), ext, sco

        fe = flatten_params(model.extractor_params, ext_shapes)
        fs = flatten_params(model.scorer_params, sco_shapes)
        loss, ext_t, sco_t = loss_at(fe, fs)
        ad.backward(loss)
        analytic = np.concatenate(
            [
                np.concatenate([ext_t[k].grad.reshape(-1) for k, _ in ext_shapes]),
                np.concatenate([sco_t[k].grad.reshape(-1) for k, _ in sco_shapes]),
            ]
        )
        theta = np.concatenate([fe, fs])
        eps = 1e-5
        worst = 0.0
        for i in range(theta.size):
            bumped = theta.copy()
            bumped[i] += eps
            hi = float(loss_at(bumped[: fe.size], bumped[fe.size :])[0].data)
            bumped[i] -= 2 * eps
            lo = float(loss_at(bumped[: fe.size], bumped[fe.size :])[0].data)
            fd = (hi - lo) / (2 * eps)
            rel = abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-4)
            worst = max(worst, rel)
        assert worst < 1e-4

    def test_scorer_bias_gradient_is_exactly_zero(self):
        rng = np.random.default_rng(17)
        model = tiny_model(rng)
        x_std = rng.standard_normal((4, 6))
        perms = contrastive_permutations(4, 6, rng)
        ext = {k: ad.Tensor(v) for k, v in model.extractor_params.items()}
        sco = {k: ad.Tensor(v) for k, v in model.scorer_params.items()}
        ad.backward(album_loss_graph(model, x_std, perms, ext, sco))
        np.testing.assert_allclose(sco["b2"].grad, 0.0, atol=1e-12)


class TestPersistence:
    def test_dict_roundtrip(self):
        model = tiny_model(d=2)
        model.input_mean = np.random.default_rng(18).standard_normal(6)
        model.input_std = np.abs(np.random.default_rng(19).standard_normal(6)) + 0.5
        clone = EssenceModel.from_dict(model.to_dict())
        assert clone.extractor_arch == model.extractor_arch
        assert clone.scorer_arch == model.scorer_arch
        for k in model.extractor_params:
            np.testing.assert_array_equal(clone.extractor_params[k], model.extractor_params[k])
        for k in model.scorer_params:
            np.testing.assert_array_equal(clone.scorer_params[k], model.scorer_params[k])
        np.testing.assert_array_equal(clone.input_mean, model.input_mean)

    def test_copy_is_independent(self):
        # The oracle keeps its best model with copy.deepcopy.
        model = tiny_model()
        clone = copy.deepcopy(model)
        clone.extractor_params["w1"][0, 0] += 1.0
        assert model.extractor_params["w1"][0, 0] != clone.extractor_params["w1"][0, 0]

    def test_loads_model_with_extractor_dropout_key(self):
        # A model.json from an earlier version also has
        # extractor_arch.dropout; it loads and gives the same essence.
        model = tiny_model(in_dim=525)
        model.input_mean = np.random.default_rng(26).standard_normal(525)
        doc = model.to_dict()
        assert "dropout" not in doc["extractor_arch"]
        doc["extractor_arch"]["dropout"] = 0.1
        old = EssenceModel.from_dict(json.loads(json.dumps(doc)))
        flat = np.random.default_rng(27).standard_normal((9, 525))
        np.testing.assert_array_equal(old.extract_matrix(flat), model.extract_matrix(flat))
        assert old.to_dict() == model.to_dict()

    def test_flatten_unflatten_roundtrip(self):
        arch = ScorerArch(essence_dim=3, hidden=5)
        params = init_params(arch.param_shapes(), np.random.default_rng(20))
        flat = flatten_params(params, arch.param_shapes())
        back = unflatten_params(flat, arch.param_shapes())
        for k in params:
            np.testing.assert_array_equal(back[k], params[k])
        with pytest.raises(ValueError, match="parameter vector length"):
            unflatten_params(flat[:-1], arch.param_shapes())

    def test_init_scales(self):
        ext = ExtractorArch(in_dim=100, hidden=50, out_dim=1)
        params = init_params(ext.param_shapes(), np.random.default_rng(21))
        # Hidden weights are fan-in scaled; biases start at zero.
        assert params["w1"].std() == pytest.approx(1 / np.sqrt(100), rel=0.2)
        np.testing.assert_array_equal(params["b1"], 0.0)
        sco = ScorerArch(essence_dim=1, hidden=32)
        small = init_params(sco.param_shapes(), np.random.default_rng(22), out_scale=0.01)
        assert np.abs(small["w2"]).max() < 0.1


class TestInputStats:
    def test_mean_std_and_floor(self):
        rng = np.random.default_rng(23)
        albums = [make_album(f"a{i}", 4, rng) for i in range(3)]
        mean, std = input_stats(albums)
        features = np.concatenate([a.features for a in albums])
        np.testing.assert_allclose(mean, features.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(std, features.std(axis=0), atol=1e-12)
        # Dead inputs get unit std instead of a blow-up.
        dead = [Album("d", (Track("x"), Track("y"), Track("z")), np.zeros((3, 525)))]
        _, std = input_stats(dead)
        np.testing.assert_array_equal(std, 1.0)


class TestTraining:
    def test_deterministic_given_seed(self):
        ds = synth_generate(SynthConfig(n_albums=20, length_range=(3, 8), seed=31))
        cfg = TrainConfig(seed=9, max_epochs=3, patience=3)
        m1, h1 = train(ds, cfg)
        m2, h2 = train(ds, cfg)
        assert [e.train_loss for e in h1] == [e.train_loss for e in h2]
        assert [e.val_loss for e in h1] == [e.val_loss for e in h2]
        for k in m1.extractor_params:
            np.testing.assert_array_equal(m1.extractor_params[k], m2.extractor_params[k])

    def test_empty_split_rejected(self):
        ds = synth_generate(SynthConfig(n_albums=20, length_range=(3, 8), seed=31))
        train_only = ds.subset("train")
        with pytest.raises(ValueError, match="validation"):
            train(train_only, TrainConfig(seed=0, max_epochs=1))

    def test_early_train_loss_decreases(self, planted_dataset):
        # Regression at a fixed seed: the first three epochs make progress.
        _, history = train(
            planted_dataset, TrainConfig(seed=1, learning_rate=1e-3, max_epochs=3, patience=3)
        )
        losses = [h.train_loss for h in history]
        assert losses[1] <= losses[0]
        assert losses[2] <= losses[1]

    def test_memory_holds_no_standardized_copy(self, planted_dataset):
        # Minibatches are standardized as they are gathered: a standardized
        # copy of every album's features, held through training, made the
        # peak 26.4 MB on this dataset, against 17.2 MB without it.
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            train(planted_dataset, TrainConfig(seed=5, max_epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 20e6

    def test_stop_reason_logged(self, caplog):
        ds = synth_generate(SynthConfig(n_albums=20, length_range=(3, 8), seed=31))
        caplog.set_level(logging.INFO, logger="albumarc.essence.training")
        _, capped = train(ds, TrainConfig(seed=9, max_epochs=3, patience=3))
        _, patient = train(ds, TrainConfig(seed=9, max_epochs=40, patience=2))
        best = [min(history, key=lambda h: h.val_loss) for history in (capped, patient)]
        assert len(patient) == best[1].epoch + 3 < 40
        assert caplog.messages == [
            f"training ran {len(history)} epochs, best epoch {b.epoch}, "
            f"best validation MI {b.val_mi_bits:.6g} bits; stopped: {reason}"
            for history, b, reason in zip(
                (capped, patient), best, ("epoch cap 3", "2 epochs without improvement")
            )
        ]

    def test_history_and_best_model_agree(self, default_trained):
        model, history = default_trained
        best = min(h.val_loss for h in history)
        assert validation_mi(model, history) == pytest.approx(
            mi_lower_bound(best, TrainConfig().n_sequences), abs=1e-12
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_first_album(self):
        # Huge steps make every loss of the third minibatch non-finite; the
        # error names that batch's first album, for training and probes.
        ds = synth_generate(SynthConfig(n_albums=20, length_range=(3, 8), seed=31))
        cfg = TrainConfig(seed=0, learning_rate=1e300, batch_size=4, max_epochs=3, patience=3)
        message = "non-finite training loss at epoch 0, album 'synth-00016'"
        with pytest.raises(TrainingDiverged) as info:
            train(ds, cfg)
        assert str(info.value) == message
        with pytest.raises(TrainingDiverged) as info:
            probe_feature_mi(ds, ds.scalar_features["latent"], cfg)
        assert str(info.value) == message

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(n_sequences=1)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.5)
        for bad in (
            dict(extractor_hidden=0),
            dict(scorer_hidden=0),
            dict(learning_rate=0.0),
            dict(learning_rate=-1e-3),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(weight_decay_scorer=-1e-5),
            dict(weight_decay_scorer=float("nan")),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad)
        for bad in (
            dict(batch_size="16"),
            dict(batch_size=16.5),
            dict(learning_rate="1e-3"),
            dict(max_epochs=None),
            dict(patience=True),
        ):
            with pytest.raises(TypeError):
                TrainConfig(**bad)


class TestProbes:
    def test_probe_reproduces_joint_mi(self, planted_dataset, sweep_d1):
        # Scorer-only training on the frozen learned essence lands within
        # 0.1 bits of the jointly trained model's validation MI.
        model, history = sweep_d1
        joint = validation_mi(model, history)
        values = essence_map(model, planted_dataset)
        probed = probe_feature_mi(
            planted_dataset, values, TrainConfig(seed=4, max_epochs=400, patience=50)
        )
        assert probed == pytest.approx(joint, abs=0.1)

    def test_feature_mi_ordering(self, planted_dataset, sweep_d1):
        # Learned essence carries the most order information, the noisy copy
        # of the planted latent less, pure noise none.
        model, history = sweep_d1
        essence_mi = validation_mi(model, history)
        cfg = TrainConfig(seed=4, max_epochs=150, patience=30)
        noisy_mi = probe_feature_mi(planted_dataset, planted_dataset.scalar_features["latent_noisy"], cfg)
        noise_mi = probe_feature_mi(planted_dataset, planted_dataset.scalar_features["noise"], cfg)
        assert essence_mi > noisy_mi > noise_mi
        assert noise_mi == pytest.approx(0.0, abs=0.15)

    def test_negation_invariance(self):
        # Probing v and -v gives the same MI up to seed noise: the probe MI
        # means differ by less than twice the seed-to-seed deviation.
        ds = synth_generate(SynthConfig(n_albums=100, latent_shape="rising", seed=23))
        latent = ds.scalar_features["latent"]
        negated = {k: -v for k, v in latent.items()}
        pos, neg = [], []
        for seed in range(5):
            cfg = TrainConfig(seed=seed, max_epochs=50, patience=50)
            pos.append(probe_feature_mi(ds, latent, cfg))
            neg.append(probe_feature_mi(ds, negated, cfg))
        pos, neg = np.array(pos), np.array(neg)
        assert abs(pos.mean() - neg.mean()) < 2 * pos.std(ddof=1)

    def test_missing_value_rejected(self):
        ds = synth_generate(SynthConfig(n_albums=10, length_range=(3, 6), seed=33))
        partial = dict(ds.scalar_features["latent"])
        partial.pop(next(iter(partial)))
        with pytest.raises(ValueError, match="missing feature value"):
            probe_feature_mi(ds, partial, TrainConfig(seed=0, max_epochs=1))


class TestPearson:
    def test_self_correlation(self):
        assert pearson([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        assert pearson([1.0, 2.0, 5.0], [-1.0, -2.0, -5.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.9820, abs=1e-4)

    def test_bounded(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            r = pearson(rng.standard_normal(10), rng.standard_normal(10))
            assert -1.0 <= r <= 1.0

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestMiOnAlbums:
    """The reference MI bound on freshly drawn sets, from the oracle."""

    def test_matches_manual_curve(self, planted_dataset, default_trained):
        model, _ = default_trained
        val = planted_dataset.subset("validation").albums
        rng = np.random.default_rng(25)
        mi = oracle.mi_on_albums(model, val, 32, rng)
        assert np.isfinite(mi)
        assert mi > 1.0  # trained model is far above chance on held-out albums

    def test_no_usable_albums(self, default_trained):
        model, _ = default_trained
        with pytest.raises(ValueError):
            oracle.mi_on_albums(model, [], 32, np.random.default_rng(0))


@pytest.fixture(scope="module")
def small_dataset():
    return synth_generate(SynthConfig(n_albums=20, length_range=(3, 8), seed=31))


class TestAgainstOracle:
    """The graph forward and the single training loop reproduce the numpy
    forward and the two loops kept in ``essence_oracle``."""

    def test_graph_forward_matches_numpy_reference(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            model = tiny_model(
                rng, d=d, in_dim=525, hidden=int(rng.integers(2, 40)),
                scorer_hidden=int(rng.integers(2, 16)),
            )
            model.extractor_params["b2"] = 3.0 * rng.standard_normal(d)
            model.scorer_params = init_params(model.scorer_arch.param_shapes(), rng)
            model.input_mean = rng.standard_normal(525)
            model.input_std = rng.uniform(0.5, 2.0, 525)
            flat = 3.0 * rng.standard_normal((int(rng.integers(1, 21)), 525))
            np.testing.assert_allclose(
                model.extract_matrix(flat), oracle.extract_matrix_np(model, flat), rtol=0, atol=1e-15
            )
            seqs = rng.standard_normal((int(rng.integers(1, 33)), int(rng.integers(1, 21)), d))
            np.testing.assert_allclose(
                [score_one(model, s) for s in seqs],
                oracle.score_sequences_np(seqs, model.scorer_params),
                rtol=0,
                atol=1e-12,
            )

    def test_negative_permutations_match_oracle_draws(self):
        # Block shuffling yields the oracle's one-permutation-per-draw rows,
        # identities redrawn in place, and leaves the stream where it did.
        for length in range(2, 21):
            for count in (1, 31, 200):
                mine = np.random.default_rng([length, count])
                ref = np.random.default_rng([length, count])
                np.testing.assert_array_equal(
                    contrastive_permutations(length, count + 1, mine)[1:],
                    oracle.sample_negative_permutations(length, count, ref),
                )
                assert mine.random() == ref.random()

    def test_batched_loss_matches_per_album_graphs(self):
        # One graph per minibatch sums in another order than the oracle's
        # graph per album: per-album losses and the mean gradient agree to
        # 1e-12 on random minibatches with dropout.
        rng = np.random.default_rng(42)
        worst_loss = worst_grad = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 4))
            model = tiny_model(rng, d=d, in_dim=12, hidden=8, scorer_hidden=6)
            model.scorer_params = init_params(model.scorer_arch.param_shapes(), rng)
            lengths = [int(n) for n in rng.integers(3, 21, size=int(rng.integers(1, 17)))]
            xs = [rng.standard_normal((n, 12)) for n in lengths]
            perms = [contrastive_permutations(n, 8, rng) for n in lengths]
            masks = [(rng.random((n, 8)) >= 0.1) / 0.9 for n in lengths]

            def tensors():
                return [
                    {k: ad.Tensor(v) for k, v in params.items()}
                    for params in (model.extractor_params, model.scorer_params)
                ]

            batch_params = ext, sco = tensors()
            essence = model.extractor_graph(np.concatenate(xs), ext, np.concatenate(masks))
            losses = batch_loss_graph(essence, lengths, [p[None] for p in perms], sco)
            ad.backward(ad.segment_sum(losses, [len(lengths)]))
            ref_losses, ref_grads = [], None
            for x, perm, mask in zip(xs, perms, masks):
                params = tensors()
                loss = oracle.album_loss_graph(model, x, perm, *params, mask)
                ad.backward(loss)
                ref_losses.append(float(loss.data))
                grads = [p[k].grad for p in params for k in p]
                ref_grads = grads if ref_grads is None else [a + b for a, b in zip(ref_grads, grads)]
            worst_loss = max(worst_loss, np.abs(losses.data - ref_losses).max())
            for mine, ref in zip([p[k].grad for p in batch_params for k in p], ref_grads):
                worst_grad = max(worst_grad, np.abs(mine - ref).max() / len(lengths))
        assert worst_loss <= 1e-12
        assert worst_grad <= 1e-12

    def test_batched_feature_loss_matches_zscored_albums(self):
        # The probe's loss on a raw stacked feature z-scores in the graph:
        # per-album losses and the mean scorer gradient agree to 1e-12 with
        # the oracle's numpy z-score fed to its per-album scorer graph.
        rng = np.random.default_rng(43)
        worst_loss = worst_grad = 0.0
        for _ in range(50):
            model = tiny_model(rng, scorer_hidden=int(rng.integers(2, 16)))
            model.scorer_params = init_params(model.scorer_arch.param_shapes(), rng)
            lengths = [int(n) for n in rng.integers(3, 21, size=int(rng.integers(1, 17)))]
            perms = [contrastive_permutations(n, 8, rng) for n in lengths]
            values = 3.0 * rng.standard_normal((sum(lengths), 1)) + rng.uniform(-2.0, 2.0)
            sco = {k: ad.Tensor(v) for k, v in model.scorer_params.items()}
            losses = batch_loss_graph(ad.as_tensor(values), lengths, [p[None] for p in perms], sco)
            ad.backward(ad.segment_sum(losses, [len(lengths)]))
            ref_losses, ref_grads = [], {k: 0.0 for k in sco}
            for album, perm in zip(np.split(values, np.cumsum(lengths)[:-1]), perms):
                ref_sco = {k: ad.Tensor(v) for k, v in model.scorer_params.items()}
                loss = oracle.scorer_loss_graph(oracle.zscore_columns(album), perm, ref_sco)
                ad.backward(loss)
                ref_losses.append(float(loss.data))
                ref_grads = {k: ref_grads[k] + ref_sco[k].grad for k in sco}
            worst_loss = max(worst_loss, np.abs(losses.data - ref_losses).max())
            for k in sco:
                worst_grad = max(worst_grad, np.abs(sco[k].grad - ref_grads[k]).max() / len(lengths))
        assert worst_loss <= 1e-12
        assert worst_grad <= 1e-12

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_adam_matches_flat_oracle(self, weight_decay):
        # Moments kept per array step every parameter bitwise as the flat
        # vector's Adam did, with the decay on the w* arrays only.
        rng = np.random.default_rng(44)
        shapes = ScorerArch(essence_dim=2, hidden=5).param_shapes()
        params = init_params(shapes, rng)
        start = copy.deepcopy(params)
        adam = Adam(params, 0.01, weight_decay)
        flat = flatten_params(params, shapes)
        ref = oracle.Adam(flat.size, 0.01)
        decay = oracle._decay_mask(shapes)
        for _ in range(20):
            grads = {name: rng.standard_normal(shape) for name, shape in shapes}
            for grad in grads.values():
                grad[rng.random(grad.shape) < 0.2] = 0.0
            flat = ref.step(flat, flatten_params(grads, shapes) + weight_decay * decay * flat)
            adam.step(grads)
            assert adam.params.keys() == params.keys()
            np.testing.assert_array_equal(flatten_params(adam.params, shapes), flat)
        for name in params:
            np.testing.assert_array_equal(params[name], start[name])

    @staticmethod
    def assert_same_training(ds, cfg, loss_atol, param_atol):
        # Minibatches are one graph here and a graph per album in the
        # oracle, so sums run in another order: values agree to ``*_atol``.
        model, history = train(ds, cfg)
        ref_model, ref_history = oracle.train(ds, cfg)
        assert len(history) == len(ref_history)
        for key in ("train_loss", "val_loss"):
            np.testing.assert_allclose(
                [getattr(h, key) for h in history],
                [getattr(h, key) for h in ref_history],
                rtol=0,
                atol=loss_atol,
            )
        for mine, ref in (
            (model.extractor_params, ref_model.extractor_params),
            (model.scorer_params, ref_model.scorer_params),
        ):
            assert mine.keys() == ref.keys()
            for key in mine:
                np.testing.assert_allclose(mine[key], ref[key], rtol=0, atol=param_atol)
        np.testing.assert_array_equal(model.input_mean, ref_model.input_mean)
        np.testing.assert_array_equal(model.input_std, ref_model.input_std)
        return history, ref_history

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_train_matches_oracle(self, small_dataset, seed, d, dropout):
        cfg = TrainConfig(seed=seed, essence_dim=d, dropout=dropout, max_epochs=3, patience=3)
        self.assert_same_training(small_dataset, cfg, loss_atol=1e-12, param_atol=1e-10)

    def test_early_stop_matches_oracle(self, small_dataset):
        # A large step makes the validation loss bounce, so patience 1 stops
        # the run before max_epochs.
        cfg = TrainConfig(seed=3, learning_rate=0.05, max_epochs=12, patience=1, extractor_hidden=16)
        history, ref_history = self.assert_same_training(
            small_dataset, cfg, loss_atol=1e-9, param_atol=1e-7
        )
        assert len(history) < cfg.max_epochs
        best = np.argmin([h.val_loss for h in history])
        assert best == np.argmin([h.val_loss for h in ref_history])

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probe_matches_oracle(self, small_dataset, seed, d, dropout):
        # The probe has no extractor: d and dropout must not change its draws.
        cfg = TrainConfig(seed=seed, essence_dim=d, dropout=dropout, max_epochs=3, patience=3)
        for feature in ("latent", "noise"):
            values = small_dataset.scalar_features[feature]
            assert probe_feature_mi(small_dataset, values, cfg) == pytest.approx(
                oracle.probe_feature_mi(small_dataset, values, cfg), rel=0, abs=1e-10
            )

    def test_probe_early_stop_matches_oracle(self, small_dataset):
        cfg = TrainConfig(seed=3, learning_rate=0.05, max_epochs=12, patience=1)
        values = small_dataset.scalar_features["latent"]
        assert probe_feature_mi(small_dataset, values, cfg) == pytest.approx(
            oracle.probe_feature_mi(small_dataset, values, cfg), rel=0, abs=1e-10
        )
