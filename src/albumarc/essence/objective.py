"""Contrastive objective and mutual-information bound.

Joint training and the scorer-only probe build one loss over a batch of
albums, :func:`batch_loss_graph`: each album's essence (the extractor's output
in training, a fixed feature column in the probe) is z-scored over its own
rows, scored in N candidate orderings per contrastive set, and the true
order's log-softmax is taken.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .model import score_candidates_graph

LN2 = float(np.log(2.0))


def mi_lower_bound(mean_loss_nats: float, n_sequences: int) -> float:
    """Mutual-information lower bound in bits: (ln N - loss) / ln 2."""
    if n_sequences < 2:
        raise ValueError("need at least 2 sequences")
    return (np.log(n_sequences) - mean_loss_nats) / LN2


def contrastive_permutations(
    length: int, n_sequences: int, rng: np.random.Generator
) -> np.ndarray:
    """Index matrix (N, length) whose row 0 is the identity (true order) and
    remaining rows are random non-identity permutations, drawn with
    replacement; accidental identities are dropped and drawn again.

    Rows are shuffled a block at a time by ``rng.permuted``, which takes the
    same draws from ``rng`` as one ``rng.permutation(length)`` per row.
    """
    if n_sequences < 2:
        raise ValueError("need at least 2 sequences")
    if length < 2:
        raise ValueError("cannot permute a sequence of length < 2")
    identity = np.arange(length, dtype=np.intp)
    blocks = [identity[None]]
    need = n_sequences - 1
    while need:
        block = rng.permuted(np.tile(identity, (need, 1)), axis=1)
        block = block[(block != identity).any(axis=1)]
        blocks.append(block)
        need -= len(block)
    return np.concatenate(blocks)


def batch_loss_graph(
    essence: ad.Tensor, lengths: list[int], perms: list[np.ndarray], sco_params
) -> ad.Tensor:
    """Contrastive losses -log softmax(scores)[0], one per contrastive set.

    ``essence`` (sum(lengths), d) stacks the albums' essence sequences; each
    album's is z-scored over its own rows (population std, with a tiny floor)
    through constant segment-averaging matrices.  ``perms[b]`` holds album
    ``b``'s sets as a (sets, N, length) array whose row 0 in each set is the
    true order.  Losses follow the sets' order, album by album.
    """
    member = np.repeat(np.arange(len(lengths)), lengths) == np.arange(len(lengths))[:, None]
    average = member / np.asarray(lengths, dtype=np.float64)[:, None]
    spread = member.T.astype(np.float64)
    centered = ad.sub(essence, ad.matmul(spread, ad.matmul(average, essence)))
    std = ad.sqrt(ad.add(ad.matmul(average, ad.square(centered)), 1e-12))
    zscored = ad.div(centered, ad.matmul(spread, std))
    scores = score_candidates_graph(zscored, lengths, perms, sco_params)
    n_sequences = perms[0].shape[1]
    n_sets = scores.data.size // n_sequences
    true_scores = ad.gather_rows(scores, n_sequences * np.arange(n_sets))
    return ad.sub(ad.logsumexp(ad.reshape(scores, (n_sets, n_sequences))), true_scores)

