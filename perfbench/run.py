"""albumarc benchmark: one workload per run, end-to-end or traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fit-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The package is imported from ``src/`` of the current directory, never from
an installed copy; without it the run fails.  The last line of standard
output is the result as one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); earlier lines print every workload metric by name
with its unit, the output digest and the environment.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` rounds alternate untraced and traced, and the metrics are the
per-layer ones.  Untraced runs give times on the fixed scale of
``speed.py``'s probe (see README.md).  Full results and the spans of a
traced run are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
# Set-ups per batch: at least MIN_SETUPS, and more while the batch's first
# SETUP_SECONDS last, up to MAX_SETUPS.  One batch runs before the rounds
# and one after, so that a short set-up is timed in two stretches of the
# machine's drifting speed.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 50, 1.0


# The workload metrics a user of each workload reads, with unit and the
# direction that is better.  Printed on every run; the end-to-end metrics
# of BENCHMARK.json are derived from the same rounds.
REPORTED = {
    "readme-pipeline": [
        ("pipeline_s", "s", "lower"),
        ("train_s", "s", "lower"),
        ("probe_s", "s", "lower"),
        ("val_mi_bits", "bits", "higher"),
    ],
    "corpus-eval": [
        ("eval_albums_per_s", "1/s", "higher"),
        ("ga_s", "s", "lower"),
        ("mean_learned_score", "score", "higher"),
    ],
    "fit-large": [
        ("fits_per_s.random", "1/s", "higher"),
        ("fits_per_s.tied", "1/s", "higher"),
    ],
}
COMMON = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("failed_fraction", "fraction", "lower"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs, for the smoke test")
    return parser.parse_args(argv)


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def source_tree_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path, args) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "git_commit": git_commit(root),
        "src_sha256": source_tree_sha256(root / "src"),
        "loadavg_at_start": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(root: Path, args, spec: dict, spans_path: Path, known_digest: str | None) -> dict:
    import workloads
    from spans import Tracer
    from speed import SpeedProbe

    # A traced run measures layers, not the machine, and its spans must not
    # take in the probe's samples.
    tracer = Tracer() if args.trace else None
    probe = None if args.trace else SpeedProbe()
    workload = workloads.WORKLOADS[args.workload](tiny=args.scale == "tiny")
    workdir = root / OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    if probe:
        probe.start()
    try:
        setups = []
        setup_ids = []

        def set_up_batch():
            start = time.perf_counter()
            state = None
            for k in range(MAX_SETUPS):
                if k >= MIN_SETUPS and time.perf_counter() - start >= SETUP_SECONDS:
                    break
                # One set of inputs at a time, so that peak RSS is the
                # workload's own.
                state = None
                t0 = time.perf_counter()
                if tracer:
                    setup_ids.append(f"setup-{len(setups)}")
                    tracer.begin(setup_ids[-1])
                    tracer.install()
                try:
                    state = workload.setup(args.seed, workdir)
                finally:
                    if tracer:
                        tracer.uninstall()
                setups.append((t0, time.perf_counter()))
            return state

        state = set_up_batch()
        rounds = []
        traced_ids = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                traced_ids.append(f"round-{len(rounds)}")
                tracer.begin(traced_ids[-1])
                tracer.install()
            try:
                if traced:
                    with tracer.span("bench.round"):
                        result = workload.run_round(state, len(rounds), tracer)
                else:
                    result = workload.run_round(state, len(rounds), None)
            finally:
                if traced:
                    tracer.uninstall()
            rounds.append((traced, result))
            # Start another round only while at least half of it fits.
            enough = len(rounds) >= (2 if tracer else 1)
            if enough and time.perf_counter() - start + result.seconds / 2 > args.seconds:
                break
        state = result = None
        set_up_batch()
    finally:
        if probe:
            probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer:
            tracer.write(spans_path)
    return summarize(args, spec, workload, probe, setups, rounds, tracer, setup_ids, traced_ids, known_digest)


def timing_summary(workload, rounds, setups, seconds) -> dict:
    """Set-up time, workload time metrics and ``op_ms`` over the untraced
    rounds, with ``seconds(t0, t1)`` giving each timed part's length."""
    timed = [workload.timings({k: seconds(*iv) for k, iv in r.intervals.items()}) for r in rounds]
    summary = {name: statistics.median(v[name] for v, _ in timed) for name in timed[0][0]}
    # Each operation's median over the rounds, then the geometric mean over
    # operations, so that no one operation decides it.
    op_s = statistics.geometric_mean([statistics.median(times) for times in zip(*(ops for _, ops in timed))])
    summary["op_ms"] = op_s * 1000.0
    summary["setup_s"] = statistics.median(seconds(*iv) for iv in setups)
    return summary


def summarize(args, spec, workload, probe, setups, rounds, tracer, setup_ids, traced_ids, known_digest) -> dict:
    plain = [r for traced, r in rounds if not traced]
    attempted = sum(r.attempted for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    problems = [p for _, r in rounds for p in r.problems]
    # Every round, and every earlier run of this seed on this source, must
    # produce the same outputs.
    digests = [r.digest for _, r in rounds]
    if known_digest is not None:
        digests.insert(0, known_digest)
    attempted += len(digests) - 1
    failed += sum(d != digests[0] for d in digests[1:])
    if len(set(digests)) > 1:
        problems.append(f"outputs differ between rounds or runs: {sorted(set(digests))}")

    # Times on the probe's fixed scale when it ran; wall time as measured
    # is kept as well.
    wall = timing_summary(workload, plain, setups, lambda t0, t1: t1 - t0)
    times = timing_summary(workload, plain, setups, probe.scaled) if probe else wall
    reported = {
        "setup_s": times["setup_s"],
        "peak_rss_mb": peak_rss_mb(),
        "failed_fraction": failed / attempted,
    }
    for name, _, _ in REPORTED[args.workload]:
        values = [r.values[name] for r in plain if name in r.values]
        reported[name] = times[name] if name in times else statistics.median(values) if values else None

    units = {name: (unit, better) for name, unit, better in COMMON + REPORTED[args.workload]}
    if args.trace:
        from spans import per_layer_metrics

        metrics = per_layer_metrics(tracer, setup_ids, traced_ids, rounds)
    else:
        metrics = {"setup_s": times["setup_s"], "op_ms": times["op_ms"], "peak_rss_mb": reported["peak_rss_mb"]}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "reported": {k: {"value": v, "unit": units[k][0], "better": units[k][1]} for k, v in reported.items()},
        "wall_times": wall,
        "probe": {"starts": probe.starts, "costs": probe.costs, "spent": probe.spent} if probe else None,
        "rounds": [
            {"traced": traced, "seconds": r.seconds, "intervals": r.intervals, "values": r.values}
            for traced, r in rounds
        ],
        "digest": digests[-1],
        "problems": problems,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": result_metrics,
        },
    }


def run_all(root: Path, args) -> int:
    """Each workload in its own process, one after another; prints every
    workload metric and one combined result line."""
    attempted = failed = 0
    metrics = {}
    for name in REPORTED:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "albumarc" / "__init__.py").is_file():
        print(f"error: {root} has no src/albumarc; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(root, args)
    if args.workload not in REPORTED:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(REPORTED)} or all",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import albumarc

    if Path(albumarc.__file__).resolve().parent != (root / "src" / "albumarc").resolve():
        print(f"error: imported albumarc from {albumarc.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec(root)
    env = environment(root, args)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    digest_file = out / "digests.json"
    known = json.loads(digest_file.read_text()) if digest_file.is_file() else {}
    key = f"{args.workload}|{args.scale}|{args.seed}|{env['src_sha256']}|{source_tree_sha256(HERE)}"
    summary = run_workload(root, args, spec, out / f"{stem}.spans.jsonl", known.get(key))
    if key not in known:
        known[key] = summary["digest"]
        digest_file.write_text(json.dumps(known, indent=2, sort_keys=True) + "\n")

    for name, m in summary["reported"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload}  {name} = {value} {m['unit']} ({m['better']} is better)")
    if args.trace:
        for name, m in summary["result"]["metrics"].items():
            print(f"{args.workload}  layer {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  output digest {summary['digest']}")
    for problem in summary["problems"]:
        print(f"{args.workload}  CHECK FAILED: {problem}")
    print("environment " + json.dumps(env, sort_keys=True))

    doc = {"environment": env, **summary}
    (out / f"{stem}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
