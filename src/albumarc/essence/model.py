"""Trainable essence extractor and sequence scorer.

The extractor is a two-layer feed-forward net over the flattened per-track
feature matrix with a sigmoid output, so each essence entry lies in (0, 1).
The scorer sums a small pairwise-comparison net over adjacent elements of the
(normalized) essence sequence, bracketed by learnable start and end tokens,
and has no output nonlinearity.  The architecture descriptors fix the
parameter layout that ``model.json`` stores.

Both nets have one forward, built on the autodiff graph: training
differentiates it, while essence output and scoring read its value without a
backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import N_FEATURES, N_STATS
from . import autodiff as ad


@dataclass(frozen=True)
class ExtractorArch:
    """Feed-forward extractor layout: in -> hidden (tanh) -> out (sigmoid)."""

    in_dim: int = N_FEATURES * N_STATS
    hidden: int = 128
    out_dim: int = 1

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return [
            ("w1", (self.in_dim, self.hidden)),
            ("b1", (self.hidden,)),
            ("w2", (self.hidden, self.out_dim)),
            ("b2", (self.out_dim,)),
        ]


@dataclass(frozen=True)
class ScorerArch:
    """Pairwise-comparison scorer over adjacent sequence elements.

    Learnable start/end tokens bracket the sequence; each adjacent pair is
    scored by a small tanh MLP and the pair scores are summed.
    """

    essence_dim: int = 1
    hidden: int = 32

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        d = self.essence_dim
        return [
            ("start_token", (d,)),
            ("end_token", (d,)),
            ("w1", (2 * d, self.hidden)),
            ("b1", (self.hidden,)),
            ("w2", (self.hidden, 1)),
            ("b2", (1,)),
        ]


def init_params(
    shapes: list[tuple[str, tuple[int, ...]]],
    rng: np.random.Generator,
    out_scale: float | None = None,
) -> dict[str, np.ndarray]:
    """Fan-in scaled Gaussian init.  When ``out_scale`` is given, the final
    linear layer uses it instead, so freshly initialized outputs start near
    zero (used for the scorer, keeping initial scores flat)."""
    params: dict[str, np.ndarray] = {}
    last_weight = [n for n, _ in shapes if n.startswith("w")][-1]
    for name, shape in shapes:
        if name.startswith("b"):
            params[name] = np.zeros(shape)
        elif name.endswith("_token"):
            params[name] = 0.1 * rng.standard_normal(shape)
        elif name == last_weight and out_scale is not None:
            params[name] = out_scale * rng.standard_normal(shape)
        else:
            fan_in = shape[0]
            params[name] = rng.standard_normal(shape) / np.sqrt(fan_in)
    return params


def flatten_params(
    params: dict[str, np.ndarray], shapes: list[tuple[str, tuple[int, ...]]]
) -> np.ndarray:
    return np.concatenate([params[name].reshape(-1) for name, _ in shapes])


def unflatten_params(
    flat: np.ndarray, shapes: list[tuple[str, tuple[int, ...]]]
) -> dict[str, np.ndarray]:
    flat = np.asarray(flat, dtype=np.float64)
    sizes = [int(np.prod(shape)) for _, shape in shapes]
    if flat.size != sum(sizes):
        raise ValueError(f"parameter vector length {flat.size} != expected {sum(sizes)}")
    params: dict[str, np.ndarray] = {}
    offset = 0
    for (name, shape), size in zip(shapes, sizes):
        params[name] = flat[offset : offset + size].reshape(shape).copy()
        offset += size
    return params


def score_candidates_graph(
    values: ad.Tensor, lengths: list[int], perms: list[np.ndarray], params: dict[str, ad.Tensor]
) -> ad.Tensor:
    """Flat scores of candidate orderings of stacked sequences.

    ``values`` (sum(lengths), d) stacks the sequences and ``perms[b]`` is an
    integer array (..., lengths[b]) of orderings of sequence ``b``; scores
    follow the orderings row by row, sequence by sequence.  Each of a
    sequence's (L+1)^2 possible adjacent pairs is scored once, and an
    ordering's score sums its L+1 pairs' entries.
    """
    d = values.data.shape[1]
    # Rows of ``tokens``: 0 is the start token, 1 the end token, 2 + i row i.
    tokens = ad.concat(
        [ad.reshape(params["start_token"], (1, d)), ad.reshape(params["end_token"], (1, d)), values]
    )
    lefts, rights, entries, sizes = [], [], [], []
    row = table = 0
    for length, perm in zip(lengths, perms):
        rows = np.arange(2 + row, 2 + row + length)
        lefts.append(np.repeat(np.append(0, rows), length + 1))
        rights.append(np.tile(np.append(rows, 1), length + 1))
        # Entry (i, j) of a sequence's table pairs left item i (start, then
        # rows) with right item j (rows, then end).
        perm = np.reshape(perm, (-1, length))
        entry = np.full((len(perm), length + 1), table + length, dtype=np.intp)
        entry[:, :-1] = table + perm
        entry[:, 1:] += (perm + 1) * (length + 1)
        entries.append(entry.ravel())
        sizes.append(np.full(len(perm), length + 1))
        row += length
        table += (length + 1) ** 2
    pairs = ad.concat(
        [ad.gather_rows(tokens, np.concatenate(lefts)), ad.gather_rows(tokens, np.concatenate(rights))],
        axis=1,
    )
    h = ad.tanh(ad.add(ad.matmul(pairs, params["w1"]), params["b1"]))
    pair_scores = ad.reshape(ad.add(ad.matmul(h, params["w2"]), params["b2"]), (-1,))
    return ad.segment_sum(ad.gather_rows(pair_scores, np.concatenate(entries)), np.concatenate(sizes))


@dataclass
class EssenceModel:
    """Extractor/scorer parameter bundle plus input standardization."""

    extractor_arch: ExtractorArch
    scorer_arch: ScorerArch
    extractor_params: dict[str, np.ndarray]
    scorer_params: dict[str, np.ndarray]
    input_mean: np.ndarray = field(default=None)
    input_std: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.input_mean is None:
            self.input_mean = np.zeros(self.extractor_arch.in_dim)
        if self.input_std is None:
            self.input_std = np.ones(self.extractor_arch.in_dim)

    @classmethod
    def initialize(
        cls,
        rng: np.random.Generator,
        essence_dim: int = 1,
        extractor_hidden: int = 128,
        scorer_hidden: int = 32,
        in_dim: int = N_FEATURES * N_STATS,
    ) -> "EssenceModel":
        ext = ExtractorArch(in_dim=in_dim, hidden=extractor_hidden, out_dim=essence_dim)
        sco = ScorerArch(essence_dim=essence_dim, hidden=scorer_hidden)
        return cls(
            extractor_arch=ext,
            scorer_arch=sco,
            extractor_params=init_params(ext.param_shapes(), rng),
            scorer_params=init_params(sco.param_shapes(), rng, out_scale=0.01),
        )

    def standardize(self, flat_features: np.ndarray) -> np.ndarray:
        return (flat_features - self.input_mean) / self.input_std

    def extract_matrix(self, flat_features: np.ndarray) -> np.ndarray:
        """Essence for a stack of flattened track features, shape (n, in_dim)."""
        x = np.atleast_2d(np.asarray(flat_features, dtype=np.float64))
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite track features")
        return self.extractor_graph(self.standardize(x), self.extractor_params).data

    def extractor_graph(
        self,
        x_std: np.ndarray,
        params: dict[str, ad.Tensor | np.ndarray],
        dropout_mask: np.ndarray | None = None,
    ) -> ad.Tensor:
        """Essence tensor (n, d) from standardized inputs; ``dropout_mask`` is
        a pre-scaled keep mask applied to the hidden layer during training.
        ``params`` may be plain arrays when no gradient is needed."""
        h = ad.tanh(ad.add(ad.matmul(ad.as_tensor(x_std), params["w1"]), params["b1"]))
        if dropout_mask is not None:
            h = ad.mul(h, dropout_mask)
        return ad.sigmoid(ad.add(ad.matmul(h, params["w2"]), params["b2"]))

    # ---------------------------------------------------------------- persistence

    def to_dict(self) -> dict:
        ext, sco = self.extractor_arch, self.scorer_arch
        return {
            "extractor_arch": {
                "in_dim": ext.in_dim,
                "hidden": ext.hidden,
                "out_dim": ext.out_dim,
                "hidden_activation": "tanh",
                "output_activation": "sigmoid",
            },
            "scorer_arch": {
                "essence_dim": sco.essence_dim,
                "hidden": sco.hidden,
                "hidden_activation": "tanh",
                "output_activation": "none",
            },
            "extractor_params": flatten_params(self.extractor_params, ext.param_shapes()).tolist(),
            "scorer_params": flatten_params(self.scorer_params, sco.param_shapes()).tolist(),
            "input_mean": self.input_mean.tolist(),
            "input_std": self.input_std.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EssenceModel":
        ea = doc["extractor_arch"]
        sa = doc["scorer_arch"]
        ext = ExtractorArch(in_dim=int(ea["in_dim"]), hidden=int(ea["hidden"]), out_dim=int(ea["out_dim"]))
        sco = ScorerArch(essence_dim=int(sa["essence_dim"]), hidden=int(sa["hidden"]))
        mean, std = (np.array(doc[key], dtype=np.float64) for key in ("input_mean", "input_std"))
        for key, stats in (("input_mean", mean), ("input_std", std)):
            if stats.shape != (ext.in_dim,):
                raise ValueError(f"{key} length {stats.size} != in_dim {ext.in_dim}")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and std.all()):
            raise ValueError("input standardization must be finite, with a non-zero input_std")
        return cls(
            extractor_arch=ext,
            scorer_arch=sco,
            extractor_params=unflatten_params(np.array(doc["extractor_params"]), ext.param_shapes()),
            scorer_params=unflatten_params(np.array(doc["scorer_params"]), sco.param_shapes()),
            input_mean=mean,
            input_std=std,
        )
