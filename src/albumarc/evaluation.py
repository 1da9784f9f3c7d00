"""Scoring template sets against ground-truth orderings, with baselines and
the Holm-Bonferroni significance protocol.

Per album: the essence series (in ground-truth order) is fitted to each of
the k templates, so a fitted ordering equal to the identity reproduces the
true track order.  The fit is the sorted matching, with equal values taken
in the order of one random key per track: optimal in both the maximum and
the total deviation (see :mod:`albumarc.fitcurve`), and blind to the order
the series arrives in, which a tie-break by position would lean toward.  The
string edit score of the k fitted orderings is compared against two nulls: k
uniformly random orderings, and the k fits relabelled by one uniformly random
permutation, which is what refitting the shuffled values gives: the fit reads
each value with its key, never its position.  Levenshtein distance is the same
after one relabelling of both sequences, so that baseline scores the fits
against a random order, a null calibrated at any k; the k independent random
orderings are not once k > 1.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import stdtr

from .core import Ordering, album_values, check_type, normalize_minmax
from .fitcurve import sample_template
from .templates import TemplateSet

log = logging.getLogger(__name__)

COMPARISONS = ("learned_vs_random", "learned_vs_shuffled")


def levenshtein(a, b) -> int:
    """Minimum unit-cost insertions + deletions + substitutions turning
    sequence a into sequence b; items are hashable and compared by equality.
    One lane of :func:`_edit_distances`.
    """
    return int(_edit_distances(*_codes([a], b))[0])


def _codes(rows, b) -> tuple[np.ndarray, np.ndarray]:
    """Equal-length sequences ``rows`` and the sequence ``b`` as int codes,
    equal items equal codes; an item of ``rows`` absent from ``b`` codes as
    -1, which no item of ``b`` does."""
    code: dict = {}
    columns = [code.setdefault(item, len(code)) for item in b]
    row_codes = [[code.get(item, -1) for item in row] for row in rows]
    return np.array(row_codes, dtype=np.int64), np.array(columns, dtype=np.int64)


def _edit_distances(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Levenshtein distance from each row of the int array ``rows`` (R x m)
    to the sequence ``b`` of ints >= 0, all rows in one bit-parallel pass; -1
    in ``rows`` matches nothing.

    Myers 1999, *J. ACM* 46(3), as Hyyrö 2001 states it: bit i of the
    vertical delta vectors ``pv``/``mv`` is +1/-1 between DP rows i and i+1 of
    the current column.  Row r of ``rows`` is lane r of one Python int, bits
    r(m+1) ... r(m+1)+m-1; the zero guard bit above each lane takes the
    addition's carry and the shifted-out top bit, so no lane reaches the
    next.  Each item of ``b`` costs O(1) big-int operations for all rows, and
    only one column's match bits exist at a time.  Row 0 of a column over
    ``b`` holds its index, so a lane's distance is len(b) plus the net
    vertical delta down the lane.
    """
    r, m = rows.shape
    width = m + 1
    low = ((1 << r * width) - 1) // ((1 << width) - 1)  # bit 0 of each lane
    mask = low * ((1 << m) - 1)
    lanes = np.full((r, width), -1, dtype=np.int64)  # the guard column matches nothing
    lanes[:, :m] = rows
    match = np.empty((r, width), dtype=bool)
    pv, mv = mask, 0
    for item in b.tolist():
        eq = int.from_bytes(np.packbits(np.equal(lanes, item, out=match), bitorder="little"), "little")
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & mask
        mh = pv & xh
        # Row 0 of every DP column grows by one: a +1 horizontal delta enters
        # at bit 0 of each lane.
        ph = ph << 1 | low
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv

    def lane_counts(vector: int) -> np.ndarray:
        octets = np.frombuffer(vector.to_bytes((r * width + 7) // 8, "little"), dtype=np.uint8)
        bits = np.unpackbits(octets, bitorder="little")[: r * width]
        return bits.reshape(r, width).sum(axis=1, dtype=np.int64)

    return len(b) + lane_counts(pv) - lane_counts(mv)


def _as_positions(ordering) -> tuple[int, ...]:
    if isinstance(ordering, Ordering):
        return ordering.positions
    if type(ordering) in (tuple, list) and set(map(type, ordering)) <= {int}:
        return tuple(ordering)
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
    # Edit distance is symmetric, so the truth serves as every row's b.
    return 1.0 / (1.0 + int(_edit_distances(*_codes(cands, truth_pos)).min()))


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
    return float(min(1.0, 2.0 * stdtr(d.size - 1, -abs(t))))


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


def _sorted_matchings(y: np.ndarray, keys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The value index per position (B x k x n) that gives, for each row of
    values ``y`` (B x n) and each row of ``targets`` (k x n), the r-th
    smallest target the r-th smallest value: equal values in the order of
    their ``keys`` (B x n), equal targets in position order.  C-ordered, so
    deviations gathered through it sum along their last axis in the order a
    one-row sum takes, and a tie in the bottleneck falls to the same total."""
    target_ranks = np.argsort(np.argsort(targets, axis=1, kind="stable"), axis=1)
    return np.take(np.lexsort((keys, y)), target_ranks, axis=1)


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
    tracks, with one scalar each.
    """
    series = album_values(dataset.albums, essence_by_track)
    if not series:
        raise ValueError("no albums to evaluate")
    for album_id, values in series:
        if values.ndim != 1:
            raise ValueError(
                f"album {album_id!r}: evaluation needs one scalar per track, got shape {values.shape}"
            )
        if values.shape[0] < 2:
            raise ValueError(
                f"album {album_id!r} has {values.shape[0]} track(s); evaluation needs at least 2"
            )
    curves = template_set.curves()
    k = len(curves)
    by_length: dict[int, list[int]] = {}
    for i, (_, values) in enumerate(series):
        by_length.setdefault(values.shape[0], []).append(i)
    seeds = np.random.SeedSequence(seed).spawn(len(series))

    evals: list = [None] * len(series)
    for n, members in by_length.items():
        m = len(members)
        # Per album, from its own stream: k random orderings and the shuffle
        # (the draws of k + 1 ``permutation`` calls), then one tie key per track.
        rngs = [np.random.default_rng(seeds[i]) for i in members]
        ranks = np.tile(np.arange(n), (k + 1, 1))
        orders = np.stack([rng.permuted(ranks, axis=1) for rng in rngs])
        keys = np.stack([rng.random(n) for rng in rngs])
        y = normalize_minmax(np.stack([series[i][1] for i in members]))
        targets = np.stack([sample_template(curve, n) for curve in curves])
        fits = _sorted_matchings(y, keys, targets)
        deviations = np.abs(np.take_along_axis(y[:, None, :], fits, axis=2) - targets)
        bottlenecks, totals = deviations.max(axis=2).tolist(), deviations.sum(axis=2).tolist()
        # Refitting the shuffled album gives these fits relabelled: shuffled
        # position j holds track shuffle[j] with its value and tie key.
        unshuffle = np.argsort(orders[:, k], axis=1)
        shuffled_fits = np.take_along_axis(unshuffle[:, None, :], fits, axis=2)
        # Rows: every album's k learned fits, its k random orderings, its k
        # shuffled fits; each scored by its best of k against the identity.
        candidates = np.concatenate((fits, orders[:, :k], shuffled_fits))
        distances = _edit_distances(candidates.reshape(-1, n), np.arange(n))
        scores = (1.0 / (1.0 + distances.reshape(3, m, k).min(axis=2))).tolist()
        for a, i in enumerate(members):
            evals[i] = AlbumEval(
                album_id=series[i][0],
                length=n,
                best_template=min(zip(bottlenecks[a], totals[a], range(k)))[2],
                learned_score=scores[0][a],
                random_score=scores[1][a],
                shuffled_score=scores[2][a],
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
