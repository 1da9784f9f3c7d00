"""Reference template evaluation, kept as a test oracle.

This is the per-album loop that ``albumarc.evaluation.evaluate_templates``
ran before it fitted every album of one length in one batch: each template
sampled once per album length, then per album k learned fits, k random
orderings and k fits of the shuffled values, one 1-D fit at a time
(``fit_oracle.fit_targets``).  Edit distances come from the quadratic
dynamic program that the bit-parallel ``levenshtein`` replaced.
"""

from __future__ import annotations

import numpy as np

from albumarc.core import album_values, normalize_minmax
from albumarc.evaluation import COMPARISONS, AlbumEval, EvalReport, holm_bonferroni, paired_t_test
from albumarc.fitcurve import sample_template

from fit_oracle import fit_targets


def dp_levenshtein(a, b) -> int:
    """The quadratic dynamic program ``levenshtein`` replaced, as its oracle."""
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


def evaluate_album(album_id, values, targets, rng) -> AlbumEval:
    """Score one album; ``targets`` holds each template sampled at its length."""
    n = values.shape[0]
    y = normalize_minmax(values)
    truth = tuple(range(n))
    fits = [fit_targets(y, z) for z in targets]
    best_template = min(
        range(len(fits)), key=lambda p: (fits[p].bottleneck, fits[p].total_deviation, p)
    )
    learned = edit_score([f.ordering.positions for f in fits], truth)
    random_orderings = [tuple(rng.permutation(n)) for _ in range(len(targets))]
    random_score = edit_score(random_orderings, truth)
    shuffled = y[rng.permutation(n)]
    shuffled_fits = [fit_targets(shuffled, z) for z in targets]
    shuffled_score = edit_score([f.ordering.positions for f in shuffled_fits], truth)
    return AlbumEval(
        album_id=album_id,
        length=n,
        best_template=best_template,
        learned_score=learned,
        random_score=random_score,
        shuffled_score=shuffled_score,
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
