"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
round of work on them in ``run_round``.  Every round uses the same inputs,
checks every output and returns a :class:`Round` holding the start and end
of each timed part; ``timings`` turns the seconds of those parts into the
workload's metrics and its list of operations.  The package is reached only
through its public names, looked up at call time, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import qmc

import albumarc.cli
from albumarc import evaluation, fitcurve, ingest, spline, templates
from albumarc.core import EssenceSeries, normalize_minmax

# The checks use the package's own template sampling, taken before any
# wrapper is installed so that checking adds no spans.
_sample_template = fitcurve.sample_template


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    # Outputs that are not times, such as a quality score.
    values: dict[str, float] = field(default_factory=dict)
    # perf_counter() at the start and end of each timed part of the round.
    intervals: dict[str, tuple[float, float]] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    @contextlib.contextmanager
    def timed(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.intervals[name] = (t0, time.perf_counter())

    @property
    def seconds(self) -> float:
        """Wall time from the first timed part's start to the last one's end."""
        return max(t1 for _, t1 in self.intervals.values()) - min(t0 for t0, _ in self.intervals.values())


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _check_report(report, result: Round) -> None:
    """Scores in (0, 1] and p-values in [0, 1], as the paper defines them."""
    for album in report["albums"]:
        scores = (album["learned_score"], album["random_score"], album["shuffled_score"])
        result.check(
            all(0.0 < s <= 1.0 for s in scores),
            f"album {album['album_id']}: score outside (0, 1]: {scores}",
        )
    for name, p in zip(report["comparisons"], report["p_values"]):
        result.check(0.0 <= p <= 1.0, f"{name}: p-value {p} outside [0, 1]")


# ------------------------------------------------------------ readme-pipeline


README_CONFIG = {
    "version": 1,
    "paths": {
        "dataset": "dataset.csv",
        "scalars": "scalars.csv",
        "essence": "essence.csv",
        "model": "model.json",
        "templates": "templates.json",
        "eval_report": "eval_report.json",
    },
    "synth": {"n_albums": 200, "latent_shape": "rising", "noise_sigma": 0.0, "seed": 11},
    "train": {"seed": 5},
    "ga": {"n_templates": 4, "seed": 7},
    "evaluate": {"alpha": 0.05, "seed": 13},
}

STAGES = ("synth", "train", "probe", "extract-templates", "evaluate", "reorder")


def run_cli(args: list[str]) -> tuple[int, str]:
    """Run the albumarc entry point in this process; (exit code, output)."""
    out = io.StringIO()
    saved_argv = sys.argv
    sys.argv = ["albumarc", *args]
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            albumarc.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved_argv
    return code, out.getvalue()


class ReadmePipeline:
    """The README quick-start config, run stage by stage through the CLI."""

    name = "readme-pipeline"

    def __init__(self, tiny: bool):
        self.n_albums = 30 if tiny else 200
        self.epochs = 1 if tiny else 3

    def setup(self, seed: int, workdir: Path):
        synth_seed, train_seed, ga_seed, eval_seed = _sub_seeds(seed, 4)
        config = copy.deepcopy(README_CONFIG)
        config["synth"].update(n_albums=self.n_albums, seed=synth_seed)
        config["train"].update(seed=train_seed, max_epochs=self.epochs, patience=self.epochs)
        config["ga"]["seed"] = ga_seed
        config["evaluate"]["seed"] = eval_seed
        # The same dataset the synth stage writes, to pick the album to reorder.
        synth = config["synth"]
        dataset = ingest.synth_generate(
            ingest.SynthConfig(
                n_albums=synth["n_albums"],
                latent_shape=synth["latent_shape"],
                noise_sigma=synth["noise_sigma"],
                seed=synth["seed"],
            )
        )
        test = dataset.subset("test").albums[0]
        return {"config": config, "album": test.album_id, "length": len(test), "workdir": workdir}

    def run_round(self, state, index: int, tracer) -> Round:
        out = state["workdir"] / f"round-{index}"
        out.mkdir(parents=True)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(state["config"], indent=2))
        result = Round()
        codes = {}
        for stage in STAGES:
            if stage == "reorder":
                config_path = self._album_config(out, state["album"])
                args = ["--config", str(config_path), "--out", str(out), "reorder", "--template", "all"]
            else:
                args = ["--config", str(config_path), "--out", str(out), stage]
            with result.timed(stage), _span(tracer, f"cli.{stage}"):
                codes[stage], output = run_cli(args)
            if codes[stage] != 0:
                codes[stage] = (codes[stage], output.strip()[-300:])
                break
        for stage in STAGES:
            code = codes.get(stage, "not run")
            result.check(code == 0, f"stage {stage} exited {code}")
        if all(code == 0 for code in codes.values()) and len(codes) == len(STAGES):
            self._check_outputs(out, state, result)
        result.digest = _sha256(
            {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        )
        shutil.rmtree(out)
        return result

    @staticmethod
    def timings(seconds: dict[str, float]) -> tuple[dict[str, float], list[float]]:
        pipeline = sum(seconds.values())
        return {"pipeline_s": pipeline, "train_s": seconds["train"], "probe_s": seconds["probe"]}, [pipeline]

    @staticmethod
    def _album_config(out: Path, album_id: str) -> Path:
        """Slice one album's rows out of the train stage's essence.csv, as the
        README describes, and point a config at them."""
        lines = (out / "essence.csv").read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        rows = [ln for ln in body[1:] if ln.startswith(album_id + "-")]
        (out / "album_essence.csv").write_text("\n".join([body[0], *rows]) + "\n")
        path = out / "album_config.json"
        doc = {"version": 1, "paths": {"essence": "album_essence.csv", "templates": "templates.json"}}
        path.write_text(json.dumps(doc))
        return path

    @staticmethod
    def _check_outputs(out: Path, state, result: Round) -> None:
        model = json.loads((out / "model.json").read_text())
        mi = float(model["best_val_mi_bits"])
        result.check(np.isfinite(mi), f"validation MI {mi} is not finite")
        result.values["val_mi_bits"] = mi
        _check_report(json.loads((out / "eval_report.json").read_text()), result)
        orderings = json.loads((out / "orderings.json").read_text())["orderings"]
        n = state["length"]
        result.check(len(orderings) == state["config"]["ga"]["n_templates"], "reorder: wrong number of orderings")
        for doc in orderings:
            result.check(
                sorted(doc["ordering"]) == list(range(n)),
                f"reorder: template {doc['template_index']} ordering is not a permutation of {n}",
            )


# ----------------------------------------------------------------- corpus-eval


class CorpusEval:
    """Template extraction and evaluation over a large corpus, with the
    planted noisy latents as essence: no training."""

    name = "corpus-eval"
    n_templates = 4

    def __init__(self, tiny: bool):
        self.n_albums = 40 if tiny else 1000
        self.generations = 5 if tiny else 500

    def setup(self, seed: int, workdir: Path):
        synth_seed, ga_seed, eval_seed = _sub_seeds(seed, 3)
        dataset = ingest.synth_generate(
            ingest.SynthConfig(n_albums=self.n_albums, latent_shape="valley", noise_sigma=0.05, seed=synth_seed)
        )
        essence = dataset.scalar_features["latent_noisy"]
        series = [
            EssenceSeries(
                album_id=album.album_id,
                values=normalize_minmax(np.array([essence[t.track_id] for t in album.tracks]))[:, None],
                normalization="minmax",
            )
            for album in dataset.subset("train").albums
        ]
        ga = templates.GAConfig(
            n_templates=self.n_templates,
            generations=self.generations,
            stagnation_patience=self.generations,
            seed=ga_seed,
        )
        return {"dataset": dataset, "essence": essence, "series": series, "ga": ga, "eval_seed": eval_seed}

    def run_round(self, state, index: int, tracer) -> Round:
        result = Round()
        with result.timed("ga"):
            template_set, history = templates.evolve_templates(state["series"], state["ga"])
        with result.timed("evaluate"):
            report = evaluation.evaluate_templates(
                state["dataset"], state["essence"], template_set, seed=state["eval_seed"]
            )
        result.check(len(history) == self.generations, f"GA ran {len(history)} generations, not {self.generations}")
        result.check(
            bool(np.all(np.diff(history) <= 0)), "GA best-cost history increased"
        )
        doc = report.to_dict()
        result.check(len(doc["albums"]) == self.n_albums, f"{len(doc['albums'])} albums evaluated")
        _check_report(doc, result)
        result.values["mean_learned_score"] = report.mean_learned
        result.digest = _sha256({"templates": template_set.to_dict(), "report": doc})
        return result

    def timings(self, seconds: dict[str, float]) -> tuple[dict[str, float], list[float]]:
        values = {"ga_s": seconds["ga"], "eval_albums_per_s": self.n_albums / seconds["evaluate"]}
        return values, [seconds["ga"], seconds["evaluate"]]


# ------------------------------------------------------------------- fit-large


def check_fit(values, target, ordering, bottleneck: float, total: float) -> list[str]:
    """Problems with a fitted ordering of ``values`` onto ``target`` samples.

    Matching sorted values to sorted targets reaches both the optimal
    bottleneck and the optimal total, so an optimal ordering must equal them.
    """
    y = np.asarray(values, dtype=np.float64)
    z = np.asarray(target, dtype=np.float64)
    n = y.shape[0]
    x = [int(i) for i in ordering]
    if sorted(x) != list(range(n)):
        return [f"n={n}: ordering is not a permutation"]
    dev = np.abs(y[x] - z)
    sorted_dev = np.abs(np.sort(y) - np.sort(z))
    problems = []
    if abs(dev.max() - sorted_dev.max()) > 1e-12:
        problems.append(f"n={n}: bottleneck {dev.max()!r} != optimal {sorted_dev.max()!r}")
    if abs(dev.sum() - sorted_dev.sum()) > 1e-9:
        problems.append(f"n={n}: total {dev.sum()!r} != optimal {sorted_dev.sum()!r}")
    if abs(bottleneck - dev.max()) > 1e-12 or abs(total - dev.sum()) > 1e-9:
        problems.append(f"n={n}: reported bottleneck/total disagree with the ordering")
    return problems


TIED_KINDS = ("constant", "two-level", "quarter-step")


def _tied_values(kind: str, n: int, rng) -> np.ndarray:
    if kind == "constant":
        return np.full(n, rng.random())
    if kind == "two-level":
        return rng.integers(0, 2, n).astype(np.float64)
    return rng.integers(0, 5, n) / 4.0


class FitLarge:
    """Few large exact fits: random values and tie-heavy values."""

    name = "fit-large"

    def __init__(self, tiny: bool):
        # Per size: how many instances of each kind of values.
        if tiny:
            self.plan = {200: {"random": 2, "two-level": 1}, 400: {"random": 1, "two-level": 1}}
        else:
            self.plan = {
                # Random counts are powers of 2, as a Sobol sample needs.
                200: {"random": 64, **{kind: 2 for kind in TIED_KINDS}},
                400: {"random": 1, **{kind: 1 for kind in TIED_KINDS}},
            }

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        instances = []
        for n, counts in self.plan.items():
            # The random instances' curves take their knot values from a
            # scrambled Sobol sample: random, but evenly spread, so the fit
            # cost (which the curve decides more than the values do) varies
            # less from seed to seed.
            knots = iter(qmc.Sobol(len(spline.DEFAULT_KNOTS), seed=rng).random(counts["random"]))
            for kind, count in counts.items():
                for _ in range(count):
                    if kind == "random":
                        curve = spline.build_spline(spline.DEFAULT_KNOTS, next(knots))
                        values = rng.random(n)
                    else:
                        curve = spline.build_spline(spline.DEFAULT_KNOTS, rng.random(len(spline.DEFAULT_KNOTS)))
                        values = _tied_values(kind, n, rng)
                    instances.append({"values": values, "curve": curve, "target": _sample_template(curve, n)})
        return {"instances": instances}

    def run_round(self, state, index: int, tracer) -> Round:
        result = Round()
        orderings = []
        for i, inst in enumerate(state["instances"]):
            with result.timed(f"fit{i}"):
                fit = fitcurve.fit_ordering(inst["values"], inst["curve"])
            problems = check_fit(
                inst["values"], inst["target"], fit.ordering.positions, fit.bottleneck, fit.total_deviation
            )
            result.check(not problems, "; ".join(problems))
            orderings.append(list(fit.ordering.positions))
        result.digest = _sha256(orderings)
        return result

    def timings(self, seconds: dict[str, float]) -> tuple[dict[str, float], list[float]]:
        ops = [seconds[f"fit{i}"] for i in range(len(seconds))]
        random = [kind == "random" for counts in self.plan.values() for kind, c in counts.items() for _ in range(c)]
        values = {
            "fits_per_s.random": 1.0 / statistics.geometric_mean([t for r, t in zip(random, ops) if r]),
            "fits_per_s.tied": 1.0 / statistics.geometric_mean([t for r, t in zip(random, ops) if not r]),
        }
        return values, ops


WORKLOADS = {w.name: w for w in (ReadmePipeline, CorpusEval, FitLarge)}
