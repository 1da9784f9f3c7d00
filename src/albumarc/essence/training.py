"""Contrastive training loop, Adam optimizer, and fixed-feature probes.

Training is single-threaded and deterministic per seed: all randomness
(initialization, batch order, negative permutations, dropout) flows from one
SeedSequence.  Validation uses contrastive sets whose permutations are fixed
once before the first epoch, so the early-stopping signal is not inflated by
per-epoch resampling luck.

Joint training and the scorer-only probe run one loop, :func:`_fit`, over one
loss graph per minibatch, :func:`~.objective.batch_loss_graph` of the
extractor's essence or of the probed feature; validation evaluates it once per
epoch over every validation album, without dropout.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ..core import Album, album_values, check_field_types
from ..errors import IngestError, TrainingDiverged
from . import autodiff as ad
from .model import EssenceModel, ScorerArch, init_params
from .objective import batch_loss_graph, contrastive_permutations, mi_lower_bound

log = logging.getLogger(__name__)


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
    """Standard Adam over one net's parameter arrays, with first and second
    moments kept per array.  ``weight_decay`` is added to the gradients of
    the weight matrices (names starting with "w"), not of biases or tokens.
    Each step replaces :attr:`params` with new arrays and never writes into
    the old ones."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}
        self.t = 0

    def tensors(self) -> dict[str, ad.Tensor]:
        return {name: ad.Tensor(p) for name, p in self.params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        m_scale = 1.0 - self.beta1**self.t
        v_scale = 1.0 - self.beta2**self.t
        params = {}
        for name, p in self.params.items():
            grad = grads[name]
            if self.weight_decay and name.startswith("w"):
                grad = grad + self.weight_decay * p
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * grad
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * grad * grad
            params[name] = p - self.lr * (m / m_scale) / (np.sqrt(v / v_scale) + self.eps)
        self.params = params


def input_stats(albums) -> tuple[np.ndarray, np.ndarray]:
    """Per-input mean and std over all tracks, with a floor for dead inputs."""
    features = np.concatenate([a.features for a in albums])
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std < 1e-8] = 1.0
    return mean, std


def _usable_splits(dataset) -> tuple[list[Album], list[Album]]:
    """Train and validation albums long enough to permute (3+ tracks); a
    split without one is a data error."""
    splits = []
    for split in ("train", "validation"):
        albums = [a for a in dataset.subset(split).albums if len(a) >= 3]
        if not albums:
            raise IngestError(f"{split} split has no usable albums")
        splits.append(albums)
    return splits[0], splits[1]


def _rngs(seed: int) -> list[np.random.Generator]:
    """Initialization, batch (order, permutations, dropout) and validation
    streams, in that order."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


def _stack(data: list[tuple[str, np.ndarray]]) -> tuple[np.ndarray, list[int]]:
    """The albums' rows stacked into one array, and each album's length."""
    return np.concatenate([x for _, x in data]), [len(x) for _, x in data]


def _fit(
    loss_graph,
    nets: list[Adam],
    train_data: list[tuple[str, np.ndarray]],
    val_data: list[tuple[str, np.ndarray]],
    config: TrainConfig,
    batch_rng: np.random.Generator,
    val_rng: np.random.Generator,
    dropout_width: int | None = None,
) -> tuple[list[EpochStats], list[dict[str, np.ndarray]]]:
    """Minimize the mean contrastive loss over minibatches of albums with
    Adam, stopping early on the validation loss.

    ``loss_graph(x, lengths, perms, params, dropout_mask)`` builds one graph
    of a batch of albums' losses, one per contrastive set, from their stacked
    data ``x``, their lengths, each album's (sets, N, length) permutation
    array, one dict of parameter tensors (or arrays) per net and an optional
    stacked dropout mask; ``x`` is a new array each call, which the graph may
    overwrite.  ``*_data`` hold (album id, x) pairs.  When
    ``dropout_width`` is given, each training album draws a (length,
    dropout_width) keep mask right after its permutations.  Returns the
    history and each net's parameters at the best validation epoch, and logs
    the epochs run, the best epoch's validation MI and the stop reason.
    """
    n_sets = config.val_sets_per_album
    val_perms = [
        np.stack([contrastive_permutations(len(x), config.n_sequences, val_rng) for _ in range(n_sets)])
        for _, x in val_data
    ]
    history: list[EpochStats] = []
    best_loss = np.inf
    best_params = [net.params for net in nets]
    stale = 0
    for epoch in range(config.max_epochs):
        order = batch_rng.permutation(len(train_data))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_data[i] for i in order[start : start + config.batch_size]]
            perms, masks = [], []
            for _, x in batch:
                perms.append(contrastive_permutations(len(x), config.n_sequences, batch_rng)[None])
                if dropout_width is not None and config.dropout > 0.0:
                    keep = batch_rng.random((len(x), dropout_width)) >= config.dropout
                    masks.append(keep / (1.0 - config.dropout))
            tensors = [net.tensors() for net in nets]
            x, lengths = _stack(batch)
            losses = loss_graph(x, lengths, perms, tensors, np.concatenate(masks) if masks else None)
            diverged = np.flatnonzero(~np.isfinite(losses.data))
            if diverged.size:
                raise TrainingDiverged(
                    f"non-finite training loss at epoch {epoch}, album {batch[diverged[0]][0]!r}"
                )
            ad.backward(ad.segment_sum(losses, [len(batch)]))
            for net, params in zip(nets, tensors):
                net.step({name: t.grad / len(batch) for name, t in params.items()})
            epoch_losses.extend(losses.data.tolist())

        losses = loss_graph(*_stack(val_data), val_perms, [net.params for net in nets], None)
        val_loss = float(np.mean(losses.data))
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
                reason = f"{config.patience} epochs without improvement"
                break
    else:
        reason = f"epoch cap {config.max_epochs}"
    best = min(history, key=lambda h: h.val_loss)
    log.info(
        "training ran %d epochs, best epoch %d, best validation MI %.6g bits; stopped: %s",
        len(history), best.epoch, best.val_mi_bits, reason,
    )
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
        Adam(model.extractor_params, config.learning_rate),
        Adam(model.scorer_params, config.learning_rate, config.weight_decay_scorer),
    ]

    def loss_graph(x, lengths, perms, params, dropout_mask):
        x -= model.input_mean
        x /= model.input_std
        essence = model.extractor_graph(x, params[0], dropout_mask)
        return batch_loss_graph(essence, lengths, perms, params[1])

    history, (model.extractor_params, model.scorer_params) = _fit(
        loss_graph,
        nets,
        [(a.album_id, a.features) for a in train_albums],
        [(a.album_id, a.features) for a in val_albums],
        config,
        batch_rng,
        val_rng,
        dropout_width=config.extractor_hidden,
    )
    return model, history


def probe_feature_mi(dataset, feature_values: dict, config: TrainConfig) -> float:
    """Validation MI bound (bits) of a fixed per-track scalar feature.

    Trains only the scorer on the given values, which the loss z-scores per
    album; the extractor is not involved.  Raises on albums with missing values.
    """
    train_albums, val_albums = _usable_splits(dataset)

    def columns(albums):
        series = album_values(albums, feature_values, what="feature value")
        return [(album_id, values[:, None]) for album_id, values in series]

    train_vals, val_vals = columns(train_albums), columns(val_albums)
    init_rng, batch_rng, val_rng = _rngs(config.seed)
    shapes = ScorerArch(essence_dim=1, hidden=config.scorer_hidden).param_shapes()
    params = init_params(shapes, init_rng, out_scale=0.01)
    scorer = Adam(params, config.learning_rate, config.weight_decay_scorer)

    def loss_graph(values, lengths, perms, params, dropout_mask):
        return batch_loss_graph(ad.as_tensor(values), lengths, perms, params[0])

    history, _ = _fit(loss_graph, [scorer], train_vals, val_vals, config, batch_rng, val_rng)
    return mi_lower_bound(min(h.val_loss for h in history), config.n_sequences)
