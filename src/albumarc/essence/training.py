"""Contrastive training loop, Adam optimizer, and fixed-feature probes.

Training is single-threaded and deterministic per seed: all randomness
(initialization, batch order, negative permutations, dropout) flows from one
SeedSequence.  Validation uses contrastive sets whose permutations are fixed
once before the first epoch, so the early-stopping signal is not inflated by
per-epoch resampling luck.

Joint training and the scorer-only probe run one loop, :func:`_fit`, over one
contrastive-loss graph; validation evaluates that graph without dropout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import Album, album_values, check_field_types
from ..errors import TrainingDiverged
from . import autodiff as ad
from .model import (
    EssenceModel,
    ScorerArch,
    flatten_params,
    init_params,
    unflatten_params,
)
from .objective import (
    album_loss_graph,
    contrastive_permutations,
    mi_lower_bound,
    scorer_loss_graph,
    zscore_columns,
)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings.  Weight decay applies to scorer weight matrices
    only; dropout applies to the extractor hidden layer only."""

    batch_size: int = 16
    n_sequences: int = 32
    learning_rate: float = 1e-4
    dropout: float = 0.1
    weight_decay_scorer: float = 1e-5
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0
    essence_dim: int = 1
    extractor_hidden: int = 128
    scorer_hidden: int = 32
    val_sets_per_album: int = 4

    def __post_init__(self):
        check_field_types(self)
        for name in ("batch_size", "max_epochs", "patience", "essence_dim",
                     "extractor_hidden", "scorer_hidden", "val_sets_per_album"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_sequences < 2:
            raise ValueError("n_sequences must be at least 2")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be finite and positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not (math.isfinite(self.weight_decay_scorer) and self.weight_decay_scorer >= 0.0):
            raise ValueError("weight_decay_scorer must be finite and non-negative")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_mi_bits: float


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


def input_stats(albums) -> tuple[np.ndarray, np.ndarray]:
    """Per-input mean and std over all tracks, with a floor for dead inputs."""
    flat = np.stack([t.flat for a in albums for t in a.tracks])
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std[std < 1e-8] = 1.0
    return mean, std


def _usable_splits(dataset) -> tuple[list[Album], list[Album]]:
    """Train and validation albums long enough to permute (3+ tracks)."""
    splits = []
    for split in ("train", "validation"):
        albums = [a for a in dataset.subset(split).albums if len(a) >= 3]
        if not albums:
            raise ValueError(f"{split} split has no usable albums")
        splits.append(albums)
    return splits[0], splits[1]


def _rngs(seed: int) -> list[np.random.Generator]:
    """Initialization, batch (order, permutations, dropout) and validation
    streams, in that order."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


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


class _Net:
    """One network's parameters with their own Adam state; ``decay`` marks the
    net whose weight matrices take the scorer weight decay."""

    def __init__(self, params: dict[str, np.ndarray], shapes, lr: float, decay: bool = False):
        self.params = params
        self.shapes = shapes
        self.flat = flatten_params(params, shapes)
        self.adam = Adam(self.flat.size, lr)
        self.decay = _decay_mask(shapes) if decay else None

    def tensors(self) -> dict[str, ad.Tensor]:
        return {k: ad.Tensor(v) for k, v in self.params.items()}

    def step(self, grad: np.ndarray, weight_decay: float) -> None:
        if self.decay is not None:
            grad += weight_decay * self.decay * self.flat
        self.flat = self.adam.step(self.flat, grad)
        self.params = unflatten_params(self.flat, self.shapes)


def _fit(
    loss_graph,
    nets: list[_Net],
    train_data: list[tuple[str, np.ndarray]],
    val_data: list[tuple[str, np.ndarray]],
    config: TrainConfig,
    batch_rng: np.random.Generator,
    val_rng: np.random.Generator,
    dropout_width: int | None = None,
) -> tuple[list[EpochStats], list[dict[str, np.ndarray]]]:
    """Minimize the mean contrastive loss over minibatches of albums with
    Adam, stopping early on the validation loss.

    ``loss_graph(x, perms, params, dropout_mask)`` builds one album's loss
    graph from its (length, ...) data ``x``, an (N, length) permutation
    matrix, one dict of parameter tensors per net and an optional dropout
    mask; ``*_data`` hold (album id, x) pairs.  When ``dropout_width`` is
    given, each training album draws a (length, dropout_width) keep mask right
    after its permutations.  Returns the history and each net's parameters at
    the best validation epoch.
    """
    val_sets = [
        (x, contrastive_permutations(len(x), config.n_sequences, val_rng))
        for _, x in val_data
        for _ in range(config.val_sets_per_album)
    ]
    history: list[EpochStats] = []
    best_loss = np.inf
    best_params = [net.params for net in nets]
    stale = 0
    for epoch in range(config.max_epochs):
        order = batch_rng.permutation(len(train_data))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = [np.zeros_like(net.flat) for net in nets]
            for i in batch:
                album_id, x = train_data[i]
                perms = contrastive_permutations(len(x), config.n_sequences, batch_rng)
                mask = None
                if dropout_width is not None and config.dropout > 0.0:
                    keep = batch_rng.random((len(x), dropout_width)) >= config.dropout
                    mask = keep / (1.0 - config.dropout)
                tensors = [net.tensors() for net in nets]
                loss = loss_graph(x, perms, tensors, mask)
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(
                        f"non-finite training loss at epoch {epoch}, album {album_id!r}"
                    )
                ad.backward(loss)
                for grad, net, params in zip(grads, nets, tensors):
                    grad += _grad_vector(params, net.shapes)
                epoch_losses.append(float(loss.data))
            for grad, net in zip(grads, nets):
                grad /= len(batch)
                net.step(grad, config.weight_decay_scorer)

        tensors = [net.tensors() for net in nets]
        val_loss = float(np.mean([loss_graph(x, perms, tensors, None).data for x, perms in val_sets]))
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
            # Steps replace each net's parameter arrays and never write into them.
            best_params = [net.params for net in nets]
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return history, best_params


def train(dataset, config: TrainConfig) -> tuple[EssenceModel, list[EpochStats]]:
    """Jointly train extractor and scorer; returns the best-validation model.

    Raises TrainingDiverged if the loss goes non-finite.
    """
    train_albums, val_albums = _usable_splits(dataset)
    init_rng, batch_rng, val_rng = _rngs(config.seed)
    model = EssenceModel.initialize(
        init_rng,
        essence_dim=config.essence_dim,
        extractor_hidden=config.extractor_hidden,
        scorer_hidden=config.scorer_hidden,
    )
    model.input_mean, model.input_std = input_stats(train_albums)
    nets = [
        _Net(model.extractor_params, model.extractor_arch.param_shapes(), config.learning_rate),
        _Net(model.scorer_params, model.scorer_arch.param_shapes(), config.learning_rate, decay=True),
    ]

    def standardized(albums):
        return [(a.album_id, model.standardize(np.stack([t.flat for t in a.tracks]))) for a in albums]

    def loss_graph(x_std, perms, params, dropout_mask):
        return album_loss_graph(model, x_std, perms, *params, dropout_mask)

    history, (model.extractor_params, model.scorer_params) = _fit(
        loss_graph,
        nets,
        standardized(train_albums),
        standardized(val_albums),
        config,
        batch_rng,
        val_rng,
        dropout_width=config.extractor_hidden,
    )
    return model, history


def validation_mi(model: EssenceModel, history: list[EpochStats]) -> float:
    """MI bound in bits at the early-stopping epoch."""
    if not history:
        raise ValueError("empty history")
    return max(h.val_mi_bits for h in history)


def probe_feature_mi(dataset, feature_values: dict, config: TrainConfig) -> float:
    """Validation MI bound (bits) of a fixed per-track scalar feature.

    Trains only the scorer on z-scored sequences of the given values; the
    extractor is not involved.  Raises on albums with missing values.
    """
    train_albums, val_albums = _usable_splits(dataset)

    def zscored(albums):
        series = album_values(albums, feature_values, what="feature value")
        return [(album_id, zscore_columns(values[:, None])) for album_id, values in series]

    train_vals, val_vals = zscored(train_albums), zscored(val_albums)
    init_rng, batch_rng, val_rng = _rngs(config.seed)
    shapes = ScorerArch(essence_dim=1, hidden=config.scorer_hidden).param_shapes()
    scorer = _Net(init_params(shapes, init_rng, out_scale=0.01), shapes, config.learning_rate, decay=True)

    def loss_graph(values, perms, params, dropout_mask):
        return scorer_loss_graph(values, perms, params[0])

    history, _ = _fit(loss_graph, [scorer], train_vals, val_vals, config, batch_rng, val_rng)
    return mi_lower_bound(min(h.val_loss for h in history), config.n_sequences)
