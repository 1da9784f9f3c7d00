"""Reference essence code, kept as a test oracle.

This is the numpy forward and the two training loops that
``albumarc.essence`` used before validation, probes and essence output moved
onto the autodiff graph and the loops were merged into one:

- :func:`score_sequences_np` and :func:`extract_matrix_np` compute scores and
  essence in plain numpy (the extractor's sigmoid is ``1 / (1 + exp(-x))``);
- :func:`train` and :func:`probe_feature_mi` are the joint-training loop and
  the scorer-only probe loop, each with its own epochs, minibatches, Adam
  steps and early stopping, validated through the numpy forward and
  :func:`conftest.info_nce_loss`;
- :func:`mi_on_albums` is the MI bound on freshly drawn contrastive sets;
- :func:`contrastive_permutations` draws negatives one
  ``rng.permutation`` at a time, redrawing accidental identities;
- :func:`zscore_columns` is the numpy per-album z-score the probe applied to
  its feature values before the loss z-scored every album in the graph;
- :class:`Adam` is the optimizer over one flat parameter vector per net,
  which the package stepped through ``flatten_params``/``unflatten_params``
  before its Adam kept its moments per parameter array;
- :func:`album_loss_graph` and :func:`scorer_loss_graph` are the per-album
  loss graphs the package built before minibatches became one graph: the
  scorer (:func:`score_sequences_graph`) runs on every candidate's L+1
  adjacent pairs, through the autodiff ops :func:`tsum`, :func:`tmean`,
  :func:`narrow` and :func:`broadcast_to`, which the package no longer uses.

The differential tests in ``test_essence.py`` hold the package to these.
"""

from __future__ import annotations

import copy

import numpy as np

from albumarc.core import Album
from albumarc.errors import TrainingDiverged
from albumarc.essence import autodiff as ad
from albumarc.essence.model import (
    EssenceModel,
    ScorerArch,
    flatten_params,
    init_params,
    unflatten_params,
)
from albumarc.essence.objective import mi_lower_bound
from albumarc.essence.training import EpochStats, TrainConfig, input_stats
from conftest import info_nce_loss


def zscore_columns(values: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Z-score each column over rows (population std, with a tiny floor)."""
    v = np.asarray(values, dtype=np.float64)
    mean = v.mean(axis=0, keepdims=True)
    std = np.sqrt(((v - mean) ** 2).mean(axis=0, keepdims=True) + eps)
    return (v - mean) / std


class Adam:
    """Standard Adam over a flat parameter vector."""

    def __init__(self, size: int, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def tsum(a, axis=None, keepdims=False) -> ad.Tensor:
    a = ad.as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        ad._accumulate(a, np.broadcast_to(g, a.data.shape))

    return ad.Tensor(out_data, (a,), backward)


def tmean(a, axis=None, keepdims=False) -> ad.Tensor:
    a = ad.as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return ad.mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def narrow(a, axis, start, length) -> ad.Tensor:
    """A contiguous slice of ``a`` along ``axis``."""
    a = ad.as_tensor(a)
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out_data = a.data[sl]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[sl] = g
        ad._accumulate(a, ga)

    return ad.Tensor(out_data, (a,), backward)


def broadcast_to(a, shape) -> ad.Tensor:
    a = ad.as_tensor(a)
    out_data = np.broadcast_to(a.data, shape)

    def backward(g):
        ad._accumulate(a, ad._unbroadcast(g, a.data.shape))

    return ad.Tensor(out_data, (a,), backward)


def score_sequences_graph(sequences: ad.Tensor, params: dict[str, ad.Tensor]) -> ad.Tensor:
    """Scores (n_seq,) for a batch of sequences (n_seq, length, d)."""
    n_seq, length, d = sequences.data.shape
    start = broadcast_to(ad.reshape(params["start_token"], (1, 1, d)), (n_seq, 1, d))
    end = broadcast_to(ad.reshape(params["end_token"], (1, 1, d)), (n_seq, 1, d))
    ext = ad.concat([start, sequences, end], axis=1)
    left = narrow(ext, 1, 0, length + 1)
    right = narrow(ext, 1, 1, length + 1)
    pairs = ad.reshape(ad.concat([left, right], axis=2), (n_seq * (length + 1), 2 * d))
    h = ad.tanh(ad.add(ad.matmul(pairs, params["w1"]), params["b1"]))
    out = ad.add(ad.matmul(h, params["w2"]), params["b2"])
    return tsum(ad.reshape(out, (n_seq, length + 1)), axis=1)


def sample_negative_permutations(
    length: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` random non-identity permutations of range(length), drawn with
    replacement; accidental identities are resampled."""
    if length < 2:
        raise ValueError("cannot permute a sequence of length < 2")
    perms = np.empty((count, length), dtype=np.intp)
    identity = np.arange(length)
    for i in range(count):
        perm = rng.permutation(length)
        while np.array_equal(perm, identity):
            perm = rng.permutation(length)
        perms[i] = perm
    return perms


def contrastive_permutations(
    length: int, n_sequences: int, rng: np.random.Generator
) -> np.ndarray:
    """Index matrix (N, length) whose row 0 is the identity (true order) and
    remaining rows are random non-identity permutations."""
    if n_sequences < 2:
        raise ValueError("need at least 2 sequences")
    perms = np.empty((n_sequences, length), dtype=np.intp)
    perms[0] = np.arange(length)
    perms[1:] = sample_negative_permutations(length, n_sequences - 1, rng)
    return perms


def score_sequences_np(sequences: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Scores (n_seq,) for a batch of sequences (n_seq, length, d), numpy path."""
    seq = np.asarray(sequences, dtype=np.float64)
    n_seq, length, d = seq.shape
    start = np.broadcast_to(params["start_token"], (n_seq, 1, d))
    end = np.broadcast_to(params["end_token"], (n_seq, 1, d))
    ext = np.concatenate([start, seq, end], axis=1)
    pairs = np.concatenate([ext[:, :-1, :], ext[:, 1:, :]], axis=2)
    h = np.tanh(pairs @ params["w1"] + params["b1"])
    return (h @ params["w2"] + params["b2"]).sum(axis=(1, 2))


def extract_matrix_np(model: EssenceModel, flat_features: np.ndarray) -> np.ndarray:
    """Essence for a stack of flattened track features, shape (n, in_dim)."""
    x = np.atleast_2d(np.asarray(flat_features, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite track features")
    p = model.extractor_params
    h = np.tanh(model.standardize(x) @ p["w1"] + p["b1"])
    logits = h @ p["w2"] + p["b2"]
    return 1.0 / (1.0 + np.exp(-logits))


def album_loss_graph(
    model: EssenceModel,
    x_std: np.ndarray,
    perms: np.ndarray,
    ext_params: dict[str, ad.Tensor],
    sco_params: dict[str, ad.Tensor],
    dropout_mask: np.ndarray | None = None,
) -> ad.Tensor:
    """Scalar contrastive-loss graph for one album."""
    essence = model.extractor_graph(x_std, ext_params, dropout_mask)
    mean = tmean(essence, axis=0, keepdims=True)
    centered = ad.sub(essence, mean)
    std = ad.sqrt(ad.add(tmean(ad.square(centered), axis=0, keepdims=True), 1e-12))
    normalized = ad.div(centered, std)
    sequences = ad.gather_rows(normalized, perms)
    scores = score_sequences_graph(sequences, sco_params)
    true_score = narrow(scores, 0, 0, 1)
    return ad.sub(ad.logsumexp(scores), ad.reshape(true_score, ()))


def scorer_loss_graph(
    values: np.ndarray,
    perms: np.ndarray,
    sco_params: dict[str, ad.Tensor],
) -> ad.Tensor:
    """Contrastive-loss graph with a fixed (already z-scored) value sequence."""
    sequences = ad.gather_rows(ad.Tensor(values), perms)
    scores = score_sequences_graph(sequences, sco_params)
    true_score = narrow(scores, 0, 0, 1)
    return ad.sub(ad.logsumexp(scores), ad.reshape(true_score, ()))


def _usable(albums) -> list[Album]:
    return [a for a in albums if len(a) >= 3]


def _fixed_validation_sets(
    albums, n_sequences: int, sets_per_album: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    sets = []
    for album in albums:
        for _ in range(sets_per_album):
            perms = contrastive_permutations(len(album), n_sequences, rng)
            sets.append((album.features, perms))
    return sets


def _validation_loss(model: EssenceModel, val_sets) -> float:
    losses = []
    for flat, perms in val_sets:
        normalized = zscore_columns(extract_matrix_np(model, flat))
        scores = score_sequences_np(normalized[perms], model.scorer_params)
        losses.append(info_nce_loss(scores, 0))
    return float(np.mean(losses))


def _grad_vector(tensors: dict[str, ad.Tensor], shapes) -> np.ndarray:
    parts = []
    for name, shape in shapes:
        grad = tensors[name].grad
        parts.append(np.zeros(shape).reshape(-1) if grad is None else grad.reshape(-1))
    return np.concatenate(parts)


def _decay_mask(shapes) -> np.ndarray:
    # Decay weight matrices only, not biases or tokens.
    parts = [
        np.full(int(np.prod(shape)), 1.0 if name.startswith("w") else 0.0)
        for name, shape in shapes
    ]
    return np.concatenate(parts)


def train(dataset, config: TrainConfig) -> tuple[EssenceModel, list[EpochStats]]:
    """Jointly train extractor and scorer; returns the best-validation model."""
    train_albums = _usable(dataset.subset("train").albums)
    val_albums = _usable(dataset.subset("validation").albums)
    if not train_albums:
        raise ValueError("train split has no usable albums")
    if not val_albums:
        raise ValueError("validation split has no usable albums")

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(seeds[0])
    batch_rng = np.random.default_rng(seeds[1])
    val_rng = np.random.default_rng(seeds[2])

    model = EssenceModel.initialize(
        init_rng,
        essence_dim=config.essence_dim,
        extractor_hidden=config.extractor_hidden,
        scorer_hidden=config.scorer_hidden,
    )
    model.input_mean, model.input_std = input_stats(train_albums)

    ext_shapes = model.extractor_arch.param_shapes()
    sco_shapes = model.scorer_arch.param_shapes()
    flat_ext = flatten_params(model.extractor_params, ext_shapes)
    flat_sco = flatten_params(model.scorer_params, sco_shapes)
    adam_ext = Adam(flat_ext.size, config.learning_rate)
    adam_sco = Adam(flat_sco.size, config.learning_rate)
    sco_decay = _decay_mask(sco_shapes)

    x_std = [model.standardize(a.features) for a in train_albums]
    val_sets = _fixed_validation_sets(
        val_albums, config.n_sequences, config.val_sets_per_album, val_rng
    )

    history: list[EpochStats] = []
    best_loss = np.inf
    best_model = copy.deepcopy(model)
    stale = 0
    hidden = config.extractor_hidden
    for epoch in range(config.max_epochs):
        order = batch_rng.permutation(len(train_albums))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            g_ext = np.zeros_like(flat_ext)
            g_sco = np.zeros_like(flat_sco)
            for i in batch:
                length = x_std[i].shape[0]
                perms = contrastive_permutations(length, config.n_sequences, batch_rng)
                mask = None
                if config.dropout > 0.0:
                    keep = batch_rng.random((length, hidden)) >= config.dropout
                    mask = keep / (1.0 - config.dropout)
                ext_t = {k: ad.Tensor(v) for k, v in model.extractor_params.items()}
                sco_t = {k: ad.Tensor(v) for k, v in model.scorer_params.items()}
                loss = album_loss_graph(model, x_std[i], perms, ext_t, sco_t, mask)
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(
                        f"non-finite training loss at epoch {epoch}, album {train_albums[i].album_id!r}"
                    )
                ad.backward(loss)
                g_ext += _grad_vector(ext_t, ext_shapes)
                g_sco += _grad_vector(sco_t, sco_shapes)
                epoch_losses.append(float(loss.data))
            g_ext /= len(batch)
            g_sco /= len(batch)
            g_sco += config.weight_decay_scorer * sco_decay * flat_sco
            flat_ext = adam_ext.step(flat_ext, g_ext)
            flat_sco = adam_sco.step(flat_sco, g_sco)
            model.extractor_params = unflatten_params(flat_ext, ext_shapes)
            model.scorer_params = unflatten_params(flat_sco, sco_shapes)

        val_loss = _validation_loss(model, val_sets)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)),
                val_loss=val_loss,
                val_mi_bits=mi_lower_bound(val_loss, config.n_sequences),
            )
        )
        if val_loss < best_loss:
            best_loss = val_loss
            best_model = copy.deepcopy(model)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return best_model, history


def mi_on_albums(
    model: EssenceModel,
    albums,
    n_sequences: int,
    rng: np.random.Generator,
    sets_per_album: int = 4,
) -> float:
    """MI bound in bits for a model on held-out albums (freshly sampled sets)."""
    usable = _usable(albums)
    if not usable:
        raise ValueError("no usable albums")
    sets = _fixed_validation_sets(usable, n_sequences, sets_per_album, rng)
    return mi_lower_bound(_validation_loss(model, sets), n_sequences)


def _normalized_album_values(albums, feature_values) -> list[np.ndarray]:
    per_album = []
    for album in albums:
        try:
            vals = np.array([feature_values[t.track_id] for t in album.tracks], dtype=np.float64)
        except KeyError as exc:
            raise ValueError(
                f"missing feature value for track {exc.args[0]!r} in album {album.album_id!r}"
            ) from None
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"non-finite feature value in album {album.album_id!r}")
        per_album.append(zscore_columns(vals[:, None]))
    return per_album


def probe_feature_mi(dataset, feature_values: dict, config: TrainConfig) -> float:
    """Validation MI bound (bits) of a fixed per-track scalar feature."""
    train_albums = _usable(dataset.subset("train").albums)
    val_albums = _usable(dataset.subset("validation").albums)
    if not train_albums:
        raise ValueError("train split has no usable albums")
    if not val_albums:
        raise ValueError("validation split has no usable albums")
    train_vals = _normalized_album_values(train_albums, feature_values)
    val_vals = _normalized_album_values(val_albums, feature_values)

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(seeds[0])
    batch_rng = np.random.default_rng(seeds[1])
    val_rng = np.random.default_rng(seeds[2])

    arch = ScorerArch(essence_dim=1, hidden=config.scorer_hidden)
    shapes = arch.param_shapes()
    params = init_params(shapes, init_rng, out_scale=0.01)
    flat = flatten_params(params, shapes)
    adam = Adam(flat.size, config.learning_rate)
    decay = _decay_mask(shapes)

    val_sets = []
    for vals in val_vals:
        for _ in range(config.val_sets_per_album):
            perms = contrastive_permutations(vals.shape[0], config.n_sequences, val_rng)
            val_sets.append((vals, perms))

    def val_loss_now() -> float:
        losses = [
            info_nce_loss(score_sequences_np(vals[perms], params), 0)
            for vals, perms in val_sets
        ]
        return float(np.mean(losses))

    best_loss = np.inf
    stale = 0
    for epoch in range(config.max_epochs):
        order = batch_rng.permutation(len(train_vals))
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            g = np.zeros_like(flat)
            for i in batch:
                vals = train_vals[i]
                perms = contrastive_permutations(vals.shape[0], config.n_sequences, batch_rng)
                sco_t = {k: ad.Tensor(v) for k, v in params.items()}
                loss = scorer_loss_graph(vals, perms, sco_t)
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(f"non-finite probe loss at epoch {epoch}")
                ad.backward(loss)
                g += _grad_vector(sco_t, shapes)
            g /= len(batch)
            g += config.weight_decay_scorer * decay * flat
            flat = adam.step(flat, g)
            params = unflatten_params(flat, shapes)
        loss = val_loss_now()
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite probe validation loss at epoch {epoch}")
        if loss < best_loss:
            best_loss = loss
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return mi_lower_bound(best_loss, config.n_sequences)
