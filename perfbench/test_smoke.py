"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced with ``--scale tiny`` and checks the
result line against ``BENCHMARK.json``, checks that the fit-large check
flags wrong orderings, and that the benchmark refuses to run without the
package source.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0
    assert any(f"{workload}  failed_fraction = 0 fraction" in line for line in lines)
    assert any(line.startswith("environment ") for line in lines)


def test_fit_check_flags_wrong_orderings():
    from albumarc import fitcurve, spline
    from workloads import check_fit

    rng = np.random.default_rng(5)
    values = rng.random(30)
    curve = spline.build_spline(spline.DEFAULT_KNOTS, rng.random(len(spline.DEFAULT_KNOTS)))
    target = fitcurve.sample_template(curve, values.size)
    fit = fitcurve.fit_ordering(values, curve)
    good = list(fit.ordering.positions)
    assert check_fit(values, target, good, fit.bottleneck, fit.total_deviation) == []

    reversed_order = good[::-1]
    dev = np.abs(values[reversed_order] - target)
    assert check_fit(values, target, reversed_order, dev.max(), dev.sum())

    swapped = list(good)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    dev = np.abs(values[swapped] - target)
    assert check_fit(values, target, swapped, dev.max(), dev.sum())

    assert check_fit(values, target, [0] * values.size, fit.bottleneck, fit.total_deviation)
    assert check_fit(values, target, good, fit.bottleneck + 1e-6, fit.total_deviation)


def test_probe_scales_each_stretch_by_its_local_speed():
    from speed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    # Samples at t = 0, 1, 2, 3; the machine runs at the reference speed until
    # t = 2 and at half of it afterwards.  Each sample spends 0.1 s.
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.spent = [0.1] * 4
    probe._local = [REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    assert probe.scaled(0.5, 1.5) == pytest.approx(0.5 + 0.4)
    assert probe.scaled(2.0, 3.0) == pytest.approx(0.45)
    assert probe.scaled(1.5, 3.5) == pytest.approx(0.5 + 0.45 + 0.2)


def test_probe_keeps_a_steady_machine_on_the_wall_clock_scale():
    import time

    from speed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    end = t0 + 1.0
    while time.perf_counter() < end:
        sum(range(1000))
    t1 = time.perf_counter()
    probe.stop()
    assert len(probe.starts) >= 5
    expected = (t1 - t0 - sum(s for t, s in zip(probe.starts, probe.spent) if t0 <= t < t1)) * REFERENCE_S
    assert probe.scaled(t0, t1) == pytest.approx(expected / statistics.median(probe.costs), rel=0.5)


def test_refuses_to_run_without_the_package_source():
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(
            bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"
        )
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare)


def test_all_workloads_print_every_workload_metric():
    import run

    done = run_bench(ROOT, "--workload", "all", "--seed", "4", "--seconds", "1", "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    for workload, metrics in run.REPORTED.items():
        for name, unit, _ in run.COMMON + metrics:
            assert any(
                line.startswith(f"{workload}  {name} = ") and f" {unit} (" in line
                for line in done.stdout.splitlines()
            ), (workload, name)
    assert json.loads(done.stdout.strip().splitlines()[-1])["failed"] == 0
