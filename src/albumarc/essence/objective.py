"""Contrastive objective, mutual-information bound, and feature probes.

Joint training and the scorer-only probe build the same loss: z-scored values
are gathered into N candidate orderings, scored, and the true order's
log-softmax is taken (:func:`_ordering_loss`).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .model import EssenceModel, score_sequences_graph

LN2 = float(np.log(2.0))


def info_nce_loss(scores, true_index: int) -> float:
    """Contrastive loss in nats: -log softmax(scores)[true_index].

    Computed with a max shift for numerical stability.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("need at least 2 scores")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite score")
    if not 0 <= true_index < s.size:
        raise ValueError("true_index out of range")
    shift = s.max()
    return float(np.log(np.exp(s - shift).sum()) - (s[true_index] - shift))


def mi_lower_bound(mean_loss_nats: float, n_sequences: int) -> float:
    """Mutual-information lower bound in bits: (ln N - loss) / ln 2."""
    if n_sequences < 2:
        raise ValueError("need at least 2 sequences")
    return (np.log(n_sequences) - mean_loss_nats) / LN2


def zscore_columns(values: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Z-score each column over rows (population std, with a tiny floor)."""
    v = np.asarray(values, dtype=np.float64)
    mean = v.mean(axis=0, keepdims=True)
    std = np.sqrt(((v - mean) ** 2).mean(axis=0, keepdims=True) + eps)
    return (v - mean) / std


def sample_negative_permutations(
    length: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` random non-identity permutations of range(length), drawn with
    replacement; accidental identities are dropped and drawn again.

    Rows are shuffled a block at a time by ``rng.permuted``, which takes the
    same draws from ``rng`` as one ``rng.permutation(length)`` per row.
    """
    if length < 2:
        raise ValueError("cannot permute a sequence of length < 2")
    identity = np.arange(length, dtype=np.intp)
    blocks = [np.empty((0, length), dtype=np.intp)]
    need = count
    while need:
        block = rng.permuted(np.tile(identity, (need, 1)), axis=1)
        block = block[(block != identity).any(axis=1)]
        blocks.append(block)
        need -= len(block)
    return np.concatenate(blocks)


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


def _ordering_loss(normalized: ad.Tensor, perms: np.ndarray, sco_params) -> ad.Tensor:
    """-log softmax(scores)[0] over the candidate orderings ``perms`` (N, length)
    of the z-scored rows ``normalized``; row 0 of ``perms`` is the true order."""
    scores = score_sequences_graph(ad.gather_rows(normalized, perms), sco_params)
    true_score = ad.narrow(scores, 0, 0, 1)
    return ad.sub(ad.logsumexp(scores), ad.reshape(true_score, ()))


def album_loss_graph(
    model: EssenceModel,
    x_std: np.ndarray,
    perms: np.ndarray,
    ext_params: dict[str, ad.Tensor],
    sco_params: dict[str, ad.Tensor],
    dropout_mask: np.ndarray | None = None,
) -> ad.Tensor:
    """Scalar contrastive-loss graph for one album.

    ``x_std`` is the standardized (length, in_dim) feature matrix and
    ``perms`` the (N, length) permutation-index matrix with the true order in
    row 0.
    """
    essence = model.extractor_graph(x_std, ext_params, dropout_mask)
    mean = ad.tmean(essence, axis=0, keepdims=True)
    centered = ad.sub(essence, mean)
    std = ad.sqrt(ad.add(ad.tmean(ad.square(centered), axis=0, keepdims=True), 1e-12))
    return _ordering_loss(ad.div(centered, std), perms, sco_params)


def scorer_loss_graph(
    values: np.ndarray,
    perms: np.ndarray,
    sco_params: dict[str, ad.Tensor],
) -> ad.Tensor:
    """Contrastive-loss graph with a fixed (already z-scored) value sequence;
    only the scorer parameters are in the graph."""
    return _ordering_loss(ad.as_tensor(values), perms, sco_params)

