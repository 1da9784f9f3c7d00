"""Scoring template sets against ground-truth orderings, with baselines and
the Holm-Bonferroni significance protocol.

Per album: the essence series (in ground-truth order) is fitted to each of
the k templates, so a fitted ordering equal to the identity reproduces the
true track order.  The string edit score of the k fitted orderings is
compared against two nulls: k uniformly random orderings, and a refit after
shuffling the album's essence values.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .core import Ordering, album_values, normalize_minmax
from .fitcurve import fit_ordering
from .templates import TemplateSet

log = logging.getLogger(__name__)

COMPARISONS = ("learned_vs_random", "learned_vs_shuffled")


def levenshtein(a, b) -> int:
    """Minimum unit-cost insertions + deletions + substitutions turning
    sequence a into sequence b."""
    a = list(a)
    b = list(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, item_b in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (item_a != item_b))
        prev = cur
    return prev[-1]


def _as_positions(ordering) -> tuple[int, ...]:
    if isinstance(ordering, Ordering):
        return ordering.positions
    return tuple(int(i) for i in ordering)


def string_edit_score(candidates, truth) -> float:
    """max over candidates of 1 / (1 + levenshtein(candidate, truth)).

    In (0, 1]; equals 1 exactly when some candidate matches the truth.
    """
    truth_pos = _as_positions(truth)
    cands = [_as_positions(c) for c in candidates]
    if not cands:
        raise ValueError("need at least one candidate ordering")
    for c in cands:
        if len(c) != len(truth_pos):
            raise ValueError(
                f"candidate length {len(c)} does not match truth length {len(truth_pos)}"
            )
    return max(1.0 / (1.0 + levenshtein(c, truth_pos)) for c in cands)


def paired_t_test(a, b) -> float:
    """Two-sided paired t-test p-value on per-item score differences.

    Raises if every difference is exactly zero (undefined t statistic); a
    constant nonzero difference yields p = 0.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D score arrays")
    if x.size < 2:
        raise ValueError("need at least 2 pairs")
    d = x - y
    if np.all(d == 0.0):
        raise ValueError("degenerate paired test: all differences are zero")
    sd = d.std(ddof=1)
    if sd == 0.0:
        return 0.0
    t = d.mean() / (sd / np.sqrt(d.size))
    return float(min(1.0, 2.0 * stats.t.sf(abs(t), df=d.size - 1)))


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the family-wise level ``alpha`` is in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1)")


def holm_bonferroni(p_values, alpha: float = 0.05) -> list[bool]:
    """Holm's step-down multiple-comparison procedure.

    Sorts ascending and rejects while p_(i) <= alpha/(m - i); stops at the
    first failure.  Booleans are returned in the original order.
    """
    ps = [float(p) for p in p_values]
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value {p} outside [0, 1]")
    check_alpha(alpha)
    m = len(ps)
    rejections = [False] * m
    order = np.argsort(ps, kind="stable")
    for rank, idx in enumerate(order):
        if ps[idx] <= alpha / (m - rank):
            rejections[idx] = True
        else:
            break
    return rejections


@dataclass(frozen=True)
class AlbumEval:
    album_id: str
    length: int
    best_template: int
    learned_score: float
    random_score: float
    shuffled_score: float


@dataclass(frozen=True)
class EvalReport:
    albums: tuple
    mean_learned: float
    mean_random: float
    mean_shuffled: float
    comparisons: tuple
    p_values: tuple
    rejections: tuple
    alpha: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "albums": [
                {
                    "album_id": e.album_id,
                    "length": e.length,
                    "best_template": e.best_template,
                    "learned_score": e.learned_score,
                    "random_score": e.random_score,
                    "shuffled_score": e.shuffled_score,
                }
                for e in self.albums
            ],
            "mean_learned": self.mean_learned,
            "mean_random": self.mean_random,
            "mean_shuffled": self.mean_shuffled,
            "comparisons": list(self.comparisons),
            "p_values": list(self.p_values),
            "rejections": list(self.rejections),
            "alpha": self.alpha,
            "seed": self.seed,
        }


def _evaluate_album(album_id, values, curves, rng) -> AlbumEval:
    n = values.shape[0]
    y = normalize_minmax(values)
    truth = tuple(range(n))
    fits = [fit_ordering(y, curve) for curve in curves]
    best_template = min(
        range(len(fits)), key=lambda p: (fits[p].bottleneck, fits[p].total_deviation, p)
    )
    learned = string_edit_score([f.ordering for f in fits], truth)
    random_orderings = [tuple(rng.permutation(n)) for _ in range(len(curves))]
    random_score = string_edit_score(random_orderings, truth)
    shuffled = y[rng.permutation(n)]
    shuffled_fits = [fit_ordering(shuffled, curve) for curve in curves]
    shuffled_score = string_edit_score([f.ordering for f in shuffled_fits], truth)
    return AlbumEval(
        album_id=album_id,
        length=n,
        best_template=best_template,
        learned_score=learned,
        random_score=random_score,
        shuffled_score=shuffled_score,
    )


def evaluate_templates(
    dataset,
    essence_by_track: dict,
    template_set: TemplateSet,
    seed: int = 0,
    alpha: float = 0.05,
) -> EvalReport:
    """Score a template set on a dataset against both baselines.

    Deterministic for a given seed: each album gets its own RNG stream split
    from the master seed.  A paired test that is degenerate (fewer than two
    albums, or every per-album difference exactly zero) falls back to p = 1
    and logs a warning naming the comparison.
    """
    series = album_values(dataset.albums, essence_by_track)
    if not series:
        raise ValueError("no albums to evaluate")
    curves = template_set.curves()
    seeds = np.random.SeedSequence(seed).spawn(len(series))
    evals = [
        _evaluate_album(album_id, values, curves, np.random.default_rng(album_seed))
        for (album_id, values), album_seed in zip(series, seeds)
    ]

    learned = np.array([e.learned_score for e in evals])
    random_scores = np.array([e.random_score for e in evals])
    shuffled = np.array([e.shuffled_score for e in evals])
    p_values = []
    for name, baseline in zip(COMPARISONS, (random_scores, shuffled)):
        try:
            p_values.append(paired_t_test(learned, baseline))
        except ValueError as exc:
            log.warning("paired t-test %s falls back to p = 1: %s", name, exc)
            p_values.append(1.0)
    rejections = holm_bonferroni(p_values, alpha)
    return EvalReport(
        albums=tuple(evals),
        mean_learned=float(learned.mean()),
        mean_random=float(random_scores.mean()),
        mean_shuffled=float(shuffled.mean()),
        comparisons=COMPARISONS,
        p_values=tuple(p_values),
        rejections=tuple(rejections),
        alpha=alpha,
        seed=seed,
    )


def plot_rows(report: dict) -> list[tuple[str, float, float]]:
    """(condition, mean, standard error) rows for bar-chart export, from a
    report document as :meth:`EvalReport.to_dict` writes it."""
    rows = []
    for name, key in (
        ("learned", "learned_score"),
        ("random_orderings", "random_score"),
        ("shuffled_essence", "shuffled_score"),
    ):
        scores = np.array([album[key] for album in report["albums"]], dtype=np.float64)
        stderr = float(scores.std(ddof=1) / np.sqrt(scores.size)) if scores.size > 1 else 0.0
        rows.append((name, float(scores.mean()), stderr))
    return rows
