"""Reference template evaluation, kept as a test oracle.

The per-album loop that ``albumarc.evaluation.evaluate_templates`` runs
as one sort per album length: each template sampled once per album length,
then per album k random orderings, the shuffle and one tie key per track,
drawn in that order from the album's stream, and k sorted matchings of the
values and k of the shuffled values, each built by Python's ``sorted``.
The package fits each album once and takes the shuffled baseline as those
fits relabelled by the shuffle, a uniformly random permutation; this oracle
refits the shuffled values on their own, which checks that relabelling.
Edit distances come from the quadratic dynamic program, one candidate at a
time, where ``albumarc.evaluation`` scores every candidate of an album
length in one pass of its lane-packed bit-parallel kernel.
"""

from __future__ import annotations

import numpy as np

from albumarc.core import album_values, normalize_minmax
from albumarc.evaluation import COMPARISONS, AlbumEval, EvalReport, holm_bonferroni, paired_t_test
from albumarc.fitcurve import sample_template


def dp_levenshtein(a, b) -> int:
    """The quadratic dynamic program, as the oracle of the lane-packed
    ``levenshtein``."""
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


def edit_score(candidates, truth) -> float:
    return max(1.0 / (1.0 + dp_levenshtein(c, truth)) for c in candidates)


def sorted_matching(y, keys, z) -> tuple[int, ...]:
    """The value index per position that gives the r-th smallest target
    (equal targets by position) the r-th smallest value (equal values by
    key)."""
    n = len(y)
    by_value = sorted(range(n), key=lambda i: (y[i], keys[i]))
    by_target = sorted(range(n), key=lambda j: (z[j], j))
    x = [0] * n
    for i, j in zip(by_value, by_target):
        x[j] = i
    return tuple(x)


def evaluate_album(album_id, values, targets, rng) -> AlbumEval:
    """Score one album; ``targets`` holds each template sampled at its length."""
    n = values.shape[0]
    y = normalize_minmax(values)
    truth = tuple(range(n))
    random_orderings = [tuple(rng.permutation(n)) for _ in range(len(targets))]
    shuffle = rng.permutation(n)
    keys = rng.random(n)
    fits = [sorted_matching(y.tolist(), keys.tolist(), z.tolist()) for z in targets]
    deviations = [np.abs(y[list(x)] - z) for x, z in zip(fits, targets)]
    best_template = min(
        range(len(fits)), key=lambda p: (deviations[p].max(), deviations[p].sum(), p)
    )
    shuffled, shuffled_keys = y[shuffle].tolist(), keys[shuffle].tolist()
    shuffled_fits = [sorted_matching(shuffled, shuffled_keys, z.tolist()) for z in targets]
    return AlbumEval(
        album_id=album_id,
        length=n,
        best_template=best_template,
        learned_score=edit_score(fits, truth),
        random_score=edit_score(random_orderings, truth),
        shuffled_score=edit_score(shuffled_fits, truth),
    )


def evaluate_templates(dataset, essence_by_track, template_set, seed=0, alpha=0.05) -> EvalReport:
    """``albumarc.evaluation.evaluate_templates``, one album at a time."""
    series = album_values(dataset.albums, essence_by_track)
    curves = template_set.curves()
    lengths = {values.shape[0] for _, values in series}
    targets = {n: [sample_template(curve, n) for curve in curves] for n in lengths}
    seeds = np.random.SeedSequence(seed).spawn(len(series))
    evals = [
        evaluate_album(
            album_id, values, targets[values.shape[0]], np.random.default_rng(album_seed)
        )
        for (album_id, values), album_seed in zip(series, seeds)
    ]

    learned = np.array([e.learned_score for e in evals])
    random_scores = np.array([e.random_score for e in evals])
    shuffled = np.array([e.shuffled_score for e in evals])
    p_values = []
    for baseline in (random_scores, shuffled):
        try:
            p_values.append(paired_t_test(learned, baseline))
        except ValueError:
            p_values.append(1.0)
    return EvalReport(
        albums=tuple(evals),
        mean_learned=float(learned.mean()),
        mean_random=float(random_scores.mean()),
        mean_shuffled=float(shuffled.mean()),
        comparisons=COMPARISONS,
        p_values=tuple(p_values),
        rejections=tuple(holm_bonferroni(p_values, alpha)),
        alpha=alpha,
        seed=seed,
    )
