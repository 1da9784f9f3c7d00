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
from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats

from .core import Ordering, album_values, check_type, normalize_minmax
from .fitcurve import _fit_rows, sample_template
from .templates import TemplateSet

log = logging.getLogger(__name__)

COMPARISONS = ("learned_vs_random", "learned_vs_shuffled")


def levenshtein(a, b) -> int:
    """Minimum unit-cost insertions + deletions + substitutions turning
    sequence a into sequence b; items are hashable and compared by equality.

    Bit-parallel (Myers 1999, *J. ACM* 46(3), as Hyyrö 2001 states it): bit
    i of the vertical delta vectors ``pv``/``mv`` is +1/-1 between rows i and
    i+1 of the current DP column, with the rows over ``a`` and Python ints as
    bit vectors, so each item of ``b`` costs O(1) big-int operations.
    """
    a = list(a)
    return _levenshtein(_match_masks(a), len(a), b)


def _match_masks(a) -> dict:
    """Per item of ``a``, the bit vector of the rows where it occurs."""
    match: dict = {}
    for i, item in enumerate(a):
        match[item] = match.get(item, 0) | 1 << i
    return match


def _levenshtein(match: dict, m: int, b) -> int:
    """:func:`levenshtein` from a sequence of length ``m`` with
    :func:`_match_masks` ``match`` to ``b``."""
    if not m:
        return len(list(b))
    mask = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for item in b:
        eq = match.get(item, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        # Row 0 of every DP column grows by one: a +1 horizontal delta enters.
        ph = ph << 1 | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def _as_positions(ordering) -> tuple[int, ...]:
    if isinstance(ordering, Ordering):
        return ordering.positions
    if type(ordering) is tuple and set(map(type, ordering)) <= {int}:
        return ordering
    return tuple(int(i) for i in ordering)


def string_edit_score(candidates, truth) -> float:
    """max over candidates of 1 / (1 + levenshtein(candidate, truth)).

    In (0, 1]; equals 1 exactly when some candidate matches the truth.
    """
    truth_pos = _as_positions(truth)
    cands = [_as_positions(c) for c in candidates]
    if not cands:
        raise ValueError("need at least one candidate ordering")
    m = len(truth_pos)
    for c in cands:
        if len(c) != m:
            raise ValueError(f"candidate length {len(c)} does not match truth length {m}")
    # Edit distance is symmetric, so the truth's masks serve every candidate.
    match = _match_masks(truth_pos)
    return max(1.0 / (1.0 + _levenshtein(match, m, c)) for c in cands)


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
        """The report as a JSON document: albums become objects and tuples
        become lists when :func:`~albumarc.fileio.canonical_json` writes it."""
        return asdict(self)


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
    and logs a warning naming the comparison.  Every album needs at least 2
    tracks.
    """
    series = album_values(dataset.albums, essence_by_track)
    if not series:
        raise ValueError("no albums to evaluate")
    for album_id, values in series:
        if values.shape[0] < 2:
            raise ValueError(
                f"album {album_id!r} has {values.shape[0]} track(s); evaluation needs at least 2"
            )
    curves = template_set.curves()
    k = len(curves)
    # Per album, from its own stream: k random orderings, then the shuffle.
    draws = []
    by_length: dict[int, list[int]] = {}
    seeds = np.random.SeedSequence(seed).spawn(len(series))
    for i, ((_, values), album_seed) in enumerate(zip(series, seeds)):
        rng = np.random.default_rng(album_seed)
        n = values.shape[0]
        draws.append(([tuple(rng.permutation(n).tolist()) for _ in range(k)], rng.permutation(n)))
        by_length.setdefault(n, []).append(i)

    evals: list = [None] * len(series)
    for n, members in by_length.items():
        # Rows: each album's learned fits, then each album's shuffled fits,
        # each as k consecutive rows, one per template.
        m = len(members)
        y = normalize_minmax(np.stack([series[i][1] for i in members]))
        y_shuffled = np.take_along_axis(y, np.stack([draws[i][1] for i in members]), axis=1)
        targets = np.stack([sample_template(curve, n) for curve in curves])
        orderings, bottlenecks, deviations = _fit_rows(
            np.repeat(np.concatenate((y, y_shuffled)), k, axis=0), np.tile(targets, (2 * m, 1))
        )
        bottlenecks, totals = bottlenecks.tolist(), deviations.sum(axis=1).tolist()
        truth = tuple(range(n))
        for a, i in enumerate(members):
            learned = slice(a * k, (a + 1) * k)
            refit = slice((m + a) * k, (m + a + 1) * k)
            evals[i] = AlbumEval(
                album_id=series[i][0],
                length=n,
                best_template=min(zip(bottlenecks[learned], totals[learned], range(k)))[2],
                learned_score=string_edit_score(orderings[learned], truth),
                random_score=string_edit_score(draws[i][0], truth),
                shuffled_score=string_edit_score(orderings[refit], truth),
            )

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
    report document as :meth:`EvalReport.to_dict` writes it; each score must
    be a number."""
    rows = []
    for name, key in (
        ("learned", "learned_score"),
        ("random_orderings", "random_score"),
        ("shuffled_essence", "shuffled_score"),
    ):
        scores = [album[key] for album in report["albums"]]
        for score in scores:
            check_type(key, score, "float")
        scores = np.array(scores, dtype=np.float64)
        stderr = float(scores.std(ddof=1) / np.sqrt(scores.size)) if scores.size > 1 else 0.0
        rows.append((name, float(scores.mean()), stderr))
    return rows
