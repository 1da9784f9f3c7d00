"""Acceptance gate: one test per numbered behavioral criterion.

Each test measures its criterion at the stated tolerance and prints a single
``CRITERION n PASS/FAIL`` line with the observed values, then asserts.  The
expensive trained models come from the shared session fixtures, whose build
time is counted against the runtime-bounded criteria.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from albumarc.core import EssenceSeries
from albumarc.essence import TrainConfig, train
from albumarc.essence import autodiff as ad
from albumarc.essence.model import EssenceModel, flatten_params, unflatten_params
from albumarc.essence.objective import (
    album_loss_graph,
    contrastive_permutations,
    mi_lower_bound,
)
from albumarc.evaluation import evaluate_templates, levenshtein, string_edit_score
from albumarc.fitcurve import fit_ordering, sample_template
from albumarc.ingest import SynthConfig, synth_generate
from albumarc.spline import DEFAULT_KNOTS, build_spline
from albumarc.templates import GAConfig, evolve_templates

from conftest import (
    FIXTURE_SECONDS,
    PLANTED_SEED,
    TRAIN_SEED,
    SWEEP_KW,
    essence_map,
    info_nce_loss,
    validation_mi,
)

KNOTS = np.array(DEFAULT_KNOTS)


def _report(capsys, number, ok, detail):
    line = f"CRITERION {number} {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


def _random_curves(rng, count=4):
    curves = [
        build_spline([0.0, 1.0], [0.0, 1.0]),
        build_spline([0.0, 1.0], [1.0, 0.0]),
        build_spline([0.0, 1.0], [0.5, 0.5]),
        build_spline([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]),
    ]
    for _ in range(count):
        curves.append(build_spline(KNOTS, rng.random(KNOTS.size)))
    return curves


def test_criterion_01_curve_fit_optimality(capsys):
    # fit_ordering vs. an all-permutations oracle: exact bottleneck, exact
    # total deviation among bottleneck-optimal permutations, 1000 instances.
    rng = np.random.default_rng(101)
    curves = _random_curves(rng)
    perms_by_n = {
        n: np.array(list(itertools.permutations(range(n)))) for n in range(2, 8)
    }
    start = time.monotonic()
    instances = 1000
    worst_bottleneck_gap = 0.0
    worst_total_gap = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 8))
        y = rng.random(n)
        curve = curves[rng.integers(len(curves))]
        result = fit_ordering(y, curve)
        z = sample_template(curve, n)
        dev = np.abs(y[perms_by_n[n]] - z[None, :])
        maxima = dev.max(axis=1)
        best_bottleneck = maxima.min()
        best_total = dev.sum(axis=1)[maxima <= best_bottleneck + 1e-15].min()
        worst_bottleneck_gap = max(
            worst_bottleneck_gap, abs(result.bottleneck - best_bottleneck)
        )
        worst_total_gap = max(worst_total_gap, abs(result.total_deviation - best_total))
    elapsed = time.monotonic() - start
    ok = worst_bottleneck_gap <= 1e-12 and worst_total_gap <= 1e-12 and elapsed < 60.0
    _report(
        capsys, 1, ok,
        f"{instances} instances, worst bottleneck gap {worst_bottleneck_gap:.2e}, "
        f"worst total gap {worst_total_gap:.2e}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_curve_fit_scale(capsys):
    rng = np.random.default_rng(202)
    y = rng.random(1000)
    curve = build_spline(KNOTS, rng.random(KNOTS.size))
    start = time.monotonic()
    result = fit_ordering(y, curve)
    elapsed = time.monotonic() - start
    valid = sorted(result.ordering.positions) == list(range(1000))
    ok = elapsed < 60.0 and valid
    _report(
        capsys, 2, ok,
        f"n=1000 fit in {elapsed:.2f}s (< 60s), "
        f"bottleneck {result.bottleneck:.4f}, valid permutation: {valid}",
    )


def test_criterion_03_gradient_correctness(capsys):
    # Full contrastive-loss graph vs. central finite differences over every
    # parameter, on 100 random tiny configurations.
    rng = np.random.default_rng(303)
    start = time.monotonic()
    configs = 100
    worst = 0.0
    for _ in range(configs):
        model = EssenceModel.initialize(
            rng,
            essence_dim=int(rng.integers(1, 4)),
            extractor_hidden=int(rng.integers(3, 6)),
            scorer_hidden=int(rng.integers(3, 6)),
            in_dim=int(rng.integers(4, 9)),
        )
        n_tracks = int(rng.integers(3, 6))
        x_std = rng.standard_normal((n_tracks, model.extractor_arch.in_dim))
        perms = contrastive_permutations(n_tracks, int(rng.integers(3, 7)), rng)
        ext_shapes = model.extractor_arch.param_shapes()
        sco_shapes = model.scorer_arch.param_shapes()

        def loss_at(flat_ext, flat_sco):
            ext = {k: ad.Tensor(v) for k, v in unflatten_params(flat_ext, ext_shapes).items()}
            sco = {k: ad.Tensor(v) for k, v in unflatten_params(flat_sco, sco_shapes).items()}
            return album_loss_graph(model, x_std, perms, ext, sco), ext, sco

        fe = flatten_params(model.extractor_params, ext_shapes)
        fs = flatten_params(model.scorer_params, sco_shapes)
        loss, ext_t, sco_t = loss_at(fe, fs)
        ad.backward(loss)
        analytic = np.concatenate(
            [
                np.concatenate([ext_t[k].grad.reshape(-1) for k, _ in ext_shapes]),
                np.concatenate([sco_t[k].grad.reshape(-1) for k, _ in sco_shapes]),
            ]
        )
        theta = np.concatenate([fe, fs])
        eps = 1e-5
        for i in range(theta.size):
            bumped = theta.copy()
            bumped[i] += eps
            hi = float(loss_at(bumped[: fe.size], bumped[fe.size :])[0].data)
            bumped[i] -= 2 * eps
            lo = float(loss_at(bumped[: fe.size], bumped[fe.size :])[0].data)
            fd = (hi - lo) / (2 * eps)
            rel = abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-4)
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 60.0
    _report(
        capsys, 3, ok,
        f"{configs} configurations, worst relative error {worst:.2e} (< 1e-4), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_04_mi_bound_sanity(capsys, default_trained):
    start = time.monotonic()
    chance_bits = mi_lower_bound(info_nce_loss(np.zeros(32), 0), 32)
    model, history = default_trained
    trained_bits = validation_mi(model, history)
    null_dataset = synth_generate(
        SynthConfig(n_albums=200, latent_shape="rising", noise_sigma=0.0, seed=PLANTED_SEED),
        shuffle_orders=True,
    )
    null_bits = validation_mi(*train(null_dataset, TrainConfig(seed=TRAIN_SEED)))
    elapsed = time.monotonic() - start + FIXTURE_SECONDS.get("default_trained", 0.0)
    ok = (
        abs(chance_bits) <= 1e-9
        and trained_bits >= 2.0
        and abs(null_bits) <= 0.15
        and elapsed < 600.0
    )
    _report(
        capsys, 4, ok,
        f"chance {chance_bits:.2e} bits (|.| <= 1e-9), trained {trained_bits:.4f} bits "
        f"(>= 2.0), shuffled null {null_bits:+.4f} bits (|.| <= 0.15), "
        f"{elapsed:.0f}s (< 600s)",
    )


def test_criterion_05_dimensionality_sweep(capsys, sweep_d1, sweep_d16):
    mi_1 = validation_mi(*sweep_d1)
    mi_16 = validation_mi(*sweep_d16)
    null_dataset = synth_generate(
        SynthConfig(n_albums=200, latent_shape="rising", noise_sigma=0.0, seed=PLANTED_SEED),
        shuffle_orders=True,
    )
    null_bits = validation_mi(
        *train(null_dataset, TrainConfig(seed=TRAIN_SEED, essence_dim=1, **SWEEP_KW))
    )
    gap = mi_16 - mi_1
    ok = gap < 0.2 and mi_1 > null_bits + 1.0 and mi_16 > null_bits + 1.0
    _report(
        capsys, 5, ok,
        f"d=1 {mi_1:.4f} bits, d=16 {mi_16:.4f} bits, gap {gap:+.4f} (< 0.2), "
        f"null {null_bits:+.4f} bits (both exceed by > 1)",
    )


def test_criterion_06_template_recovery(capsys):
    rng = np.random.default_rng(3)
    albums = []
    for i in range(60):
        n = int(rng.integers(5, 13))
        r = np.linspace(0.0, 1.0, n)
        albums.append(r if i % 2 == 0 else 1.0 - r)
    template_set, history = evolve_templates(albums, GAConfig(n_templates=2, seed=7))
    targets = (KNOTS, 1.0 - KNOTS)
    errors = np.array(
        [
            [float(np.mean((row - target) ** 2)) for target in targets]
            for row in template_set.templates
        ]
    )
    assignment = errors.argmin(axis=1)
    mse = errors.min(axis=1)
    monotone = bool(np.all(np.diff(history) <= 0.0))
    ok = sorted(assignment) == [0, 1] and mse.max() <= 0.05 and monotone
    _report(
        capsys, 6, ok,
        f"per-shape MSE {mse[0]:.2e}/{mse[1]:.2e} (<= 0.05), distinct shapes: "
        f"{sorted(assignment) == [0, 1]}, history non-increasing: {monotone}",
    )


def _essence_series(dataset, essence):
    return [
        EssenceSeries(
            album_id=album.album_id,
            values=tuple((essence[t.track_id],) for t in album.tracks),
        ).minmax()
        for album in dataset.albums
    ]


def test_criterion_07_statistical_protocol(capsys, planted_dataset, default_trained):
    start = time.monotonic()
    model, _ = default_trained
    essence = essence_map(model, planted_dataset)
    series = _essence_series(planted_dataset.subset("train"), essence)
    template_set, _ = evolve_templates(series, GAConfig(seed=7))
    signal = evaluate_templates(
        planted_dataset.subset("test"), essence, template_set, seed=13
    )
    both_rejected = all(signal.rejections)

    null_hits = 0
    for seed in range(100, 120):
        dataset = synth_generate(
            SynthConfig(n_albums=200, latent_shape="rising", noise_sigma=0.0, seed=seed),
            shuffle_orders=True,
        )
        null_model, _ = train(dataset, TrainConfig(seed=seed))
        null_essence = essence_map(null_model, dataset)
        null_series = _essence_series(dataset.subset("train"), null_essence)
        null_templates, _ = evolve_templates(null_series, GAConfig(seed=seed))
        null_report = evaluate_templates(
            dataset.subset("test"), null_essence, null_templates, seed=seed
        )
        null_hits += any(null_report.rejections)
    elapsed = time.monotonic() - start
    ok = both_rejected and null_hits <= 2
    ps = ", ".join(f"{p:.2e}" for p in signal.p_values)
    _report(
        capsys, 7, ok,
        f"signal p-values [{ps}] both rejected at family alpha 0.05: {both_rejected}; "
        f"no-signal rejections {null_hits}/20 (<= 2), {elapsed:.0f}s",
    )


def _one_sided_derivatives(curve, knot_index, side):
    xs, ys, m = curve.xs, curve.ys, curve.second_derivs
    seg = knot_index - 1 if side == "left" else knot_index
    h = xs[seg + 1] - xs[seg]
    x = xs[knot_index]
    a = (xs[seg + 1] - x) / h
    b = (x - xs[seg]) / h
    d1 = (
        (ys[seg + 1] - ys[seg]) / h
        - (3 * a**2 - 1) / 6.0 * h * m[seg]
        + (3 * b**2 - 1) / 6.0 * h * m[seg + 1]
    )
    d2 = a * m[seg] + b * m[seg + 1]
    return d1, d2


def test_criterion_08_spline_suite(capsys):
    rng = np.random.default_rng(808)
    hand = abs(build_spline([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])(0.25) - 0.6875)
    interp_worst = 0.0
    smooth_worst = 0.0
    for _ in range(20):
        ys = rng.random(KNOTS.size)
        curve = build_spline(KNOTS, ys)
        interp_worst = max(
            interp_worst, max(abs(curve(x) - y) for x, y in zip(KNOTS, ys))
        )
        for k in range(1, KNOTS.size - 1):
            d1_left, d2_left = _one_sided_derivatives(curve, k, "left")
            d1_right, d2_right = _one_sided_derivatives(curve, k, "right")
            smooth_worst = max(
                smooth_worst, abs(d1_left - d1_right), abs(d2_left - d2_right)
            )
    linear_worst = 0.0
    grid = np.linspace(0.0, 1.0, 201)
    for _ in range(10):
        slope, intercept = rng.standard_normal(2)
        curve = build_spline(KNOTS, slope * KNOTS + intercept)
        linear_worst = max(
            linear_worst, float(np.abs(curve(grid) - (slope * grid + intercept)).max())
        )
    ok = (
        hand <= 1e-9
        and interp_worst <= 1e-12
        and smooth_worst <= 1e-9
        and linear_worst <= 1e-9
    )
    _report(
        capsys, 8, ok,
        f"eval(0.25) error {hand:.2e} (<= 1e-9), interpolation {interp_worst:.2e} "
        f"(<= 1e-12), C1/C2 continuity {smooth_worst:.2e} (<= 1e-9), "
        f"linear reproduction {linear_worst:.2e} (<= 1e-9)",
    )


def test_criterion_09_metric_suite(capsys):
    rng = np.random.default_rng(909)
    axiom_failures = 0
    triples = 400
    for _ in range(triples):
        a, b, c = (
            [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 9))]
            for _ in range(3)
        )
        d_ab, d_ba = levenshtein(a, b), levenshtein(b, a)
        if d_ab != d_ba:
            axiom_failures += 1
        if (d_ab == 0) != (a == b):
            axiom_failures += 1
        if levenshtein(a, c) > d_ab + levenshtein(b, c):
            axiom_failures += 1
    score_failures = 0
    score_sets = 200
    for _ in range(score_sets):
        n = int(rng.integers(2, 8))
        truth = tuple(range(n))
        candidates = [tuple(rng.permutation(n)) for _ in range(int(rng.integers(1, 5)))]
        score = string_edit_score(candidates, truth)
        if not 0.0 < score <= 1.0:
            score_failures += 1
        if (score == 1.0) != (truth in candidates):
            score_failures += 1
    ok = axiom_failures == 0 and score_failures == 0
    _report(
        capsys, 9, ok,
        f"{triples} metric-axiom triples, {axiom_failures} failures; "
        f"{score_sets} score sets, {score_failures} bound/exact-match failures",
    )


C10_CONFIG = {
    "version": 1,
    "paths": {
        "dataset": "out/dataset.csv",
        "scalars": "out/scalars.csv",
        "model": "out/model.json",
        "templates": "out/templates.json",
        "eval_report": "out/eval_report.json",
    },
    "synth": {"n_albums": 20, "length_range": [3, 6], "seed": 9},
    "train": {
        "max_epochs": 2,
        "patience": 2,
        "batch_size": 8,
        "n_sequences": 8,
        "extractor_hidden": 8,
        "scorer_hidden": 8,
        "seed": 9,
    },
    "probe": {"features": ["latent"]},
    "ga": {
        "n_templates": 2,
        "population_size": 12,
        "children_per_gen": 12,
        "generations": 15,
        "stagnation_patience": 15,
        "split": "train",
        "seed": 9,
    },
    "evaluate": {"split": "test", "seed": 9},
}

ARTIFACTS = (
    "dataset.csv", "scalars.csv", "model.json", "history.csv", "essence.csv",
    "probe.json", "templates.json", "ga_history.csv", "eval_report.json",
    "scores.tsv", "curves.tsv", "curves.svg", "fit.json", "orderings.json",
)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(C10_CONFIG, indent=2))
    out = tmp_path / "out"
    album_config = tmp_path / "album_config.json"

    def run_chain():
        base = ("--config", str(config), "--out", str(out))
        for command in ("synth", "train", "probe", "extract-templates", "evaluate",
                        "plot-data"):
            result = subprocess.run(
                [sys.executable, "-m", "albumarc.cli", *base, command],
                capture_output=True, text=True,
            )
            assert result.returncode == 0, f"{command}: {result.stderr}"
        album_base = ("--config", str(album_config), "--out", str(out))
        for args in (("fit", "--values", "0.2,0.9,0.4"), ("reorder",)):
            result = subprocess.run(
                [sys.executable, "-m", "albumarc.cli", *album_base, *args],
                capture_output=True, text=True,
            )
            assert result.returncode == 0, f"{args}: {result.stderr}"

    base = ("--config", str(config), "--out", str(out))
    for command in ("synth", "train"):
        subprocess.run(
            [sys.executable, "-m", "albumarc.cli", *base, command],
            capture_output=True, text=True, check=True,
        )
    lines = (out / "essence.csv").read_text().splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    rows = [line for line in lines if line.startswith("synth-00000-")]
    (out / "album.csv").write_text("\n".join([header, *rows]) + "\n")
    album_config.write_text(
        json.dumps(
            {
                "version": 1,
                "paths": {"templates": "out/templates.json", "essence": "out/album.csv"},
                "reorder": {"template": "all"},
            }
        )
    )

    run_chain()
    snapshot = {name: (out / name).read_bytes() for name in ARTIFACTS}
    run_chain()
    mismatched = [name for name in ARTIFACTS if (out / name).read_bytes() != snapshot[name]]
    ok = not mismatched
    _report(
        capsys, 10, ok,
        f"{len(ARTIFACTS)} artifacts byte-identical across full re-run"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
