"""Contrastive objective, mutual-information bound, and feature probes.

Joint training and the scorer-only probe build the same loss over a batch of
albums: z-scored values are scored in N candidate orderings per contrastive
set, and the true order's log-softmax is taken (:func:`ordering_losses`).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .model import EssenceModel, score_candidates_graph

LN2 = float(np.log(2.0))


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


def ordering_losses(
    values: ad.Tensor, lengths: list[int], perms: list[np.ndarray], sco_params
) -> ad.Tensor:
    """Contrastive losses -log softmax(scores)[0], one per contrastive set.

    ``values`` (sum(lengths), d) stacks the albums' z-scored sequences and
    ``perms[b]`` holds album ``b``'s sets as a (sets, N, length) array whose
    row 0 in each set is the true order.  Losses follow the sets' order,
    album by album.
    """
    scores = score_candidates_graph(values, lengths, perms, sco_params)
    n_sequences = perms[0].shape[1]
    n_sets = scores.data.size // n_sequences
    true_scores = ad.gather_rows(scores, n_sequences * np.arange(n_sets))
    return ad.sub(ad.logsumexp(ad.reshape(scores, (n_sets, n_sequences))), true_scores)


def batch_loss_graph(
    model: EssenceModel,
    x_std: np.ndarray,
    lengths: list[int],
    perms: list[np.ndarray],
    ext_params: dict[str, ad.Tensor],
    sco_params: dict[str, ad.Tensor],
    dropout_mask: np.ndarray | None = None,
) -> ad.Tensor:
    """Contrastive losses of a batch of albums, one per set (see
    :func:`ordering_losses`).

    ``x_std`` stacks the albums' standardized (length, in_dim) feature
    matrices and ``dropout_mask`` their hidden-layer keep masks.  Each album's
    essence is z-scored over its own rows (population std, with a tiny floor)
    through constant segment-averaging matrices.
    """
    member = np.repeat(np.arange(len(lengths)), lengths) == np.arange(len(lengths))[:, None]
    average = member / np.asarray(lengths, dtype=np.float64)[:, None]
    spread = member.T.astype(np.float64)
    essence = model.extractor_graph(x_std, ext_params, dropout_mask)
    centered = ad.sub(essence, ad.matmul(spread, ad.matmul(average, essence)))
    std = ad.sqrt(ad.add(ad.matmul(average, ad.square(centered)), 1e-12))
    return ordering_losses(ad.div(centered, ad.matmul(spread, std)), lengths, perms, sco_params)


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
    losses = batch_loss_graph(
        model, x_std, [len(x_std)], [perms[None]], ext_params, sco_params, dropout_mask
    )
    return ad.reshape(losses, ())
