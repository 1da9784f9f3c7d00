"""Spans around calls into albumarc's public names, for the traced run.

A :class:`Tracer` keeps spans (name, start, end, parent, run id, fields) in
memory and writes them out as JSON lines when the benchmark ends.  During a
traced round, :meth:`Tracer.install` replaces each name in :data:`TRACED`
where its callers look it up with a wrapper that records a span, and
:meth:`Tracer.uninstall` puts the originals back.  Untraced runs never call
``install``, so they run the package unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from dataclasses import dataclass, field


def _fit_fields(args, kwargs, result):
    return {"n": len(args[0])}


def _rows_fields(args, kwargs, result):
    return {"rows": result.track_count()}


def _history_fields(args, kwargs, result):
    return {"steps": len(result[1])}


# Span name -> where callers look the name up ("module:attribute" or
# "module:Class.method") and an optional function of (args, kwargs, result)
# giving fields to keep on the span.  Names a later version of the package
# no longer has are skipped, and their metrics read 0.
TRACED = {
    "essence.autodiff.backward": (["albumarc.essence.autodiff:backward"], None),
    "essence.objective.album_loss_graph": (["albumarc.essence.training:album_loss_graph"], None),
    "essence.objective.scorer_loss_graph": (["albumarc.essence.training:scorer_loss_graph"], None),
    "essence.model.extractor_graph": (["albumarc.essence.model:EssenceModel.extractor_graph"], None),
    "essence.model.scorer_graph": (["albumarc.essence.model:EssenceModel.scorer_graph"], None),
    "essence.model.score_sequences_np": (
        ["albumarc.essence.training:score_sequences_np", "albumarc.essence.model:score_sequences_np"],
        None,
    ),
    "essence.model.extract_matrix": (["albumarc.essence.model:EssenceModel.extract_matrix"], None),
    "essence.training.Adam.step": (["albumarc.essence.training:Adam.step"], None),
    "essence.training.train": (["albumarc.cli:train"], _history_fields),
    "essence.training.probe_feature_mi": (["albumarc.cli:probe_feature_mi"], None),
    "ingest.load_feature_table": (["albumarc.cli:load_feature_table"], _rows_fields),
    "ingest.synth_generate": (["albumarc.cli:synth_generate", "albumarc.ingest:synth_generate"], None),
    "fileio.write": (
        ["albumarc.cli:write_json", "albumarc.cli:write_table", "albumarc.cli:atomic_write_text"],
        None,
    ),
    "templates.evolve_templates": (
        ["albumarc.cli:evolve_templates", "albumarc.templates:evolve_templates"],
        _history_fields,
    ),
    "fitcurve.fit_ordering": (
        ["albumarc.evaluation:fit_ordering", "albumarc.cli:fit_ordering", "albumarc.fitcurve:fit_ordering"],
        _fit_fields,
    ),
    "fitcurve.max_bipartite_matching": (["albumarc.fitcurve:max_bipartite_matching"], None),
    "fitcurve.min_cost_perfect_matching": (["albumarc.fitcurve:min_cost_perfect_matching"], None),
    "fitcurve.sample_template": (["albumarc.fitcurve:sample_template"], None),
    "evaluation.evaluate_templates": (
        ["albumarc.cli:evaluate_templates", "albumarc.evaluation:evaluate_templates"],
        None,
    ),
    "evaluation.string_edit_score": (["albumarc.evaluation:string_edit_score"], None),
    "evaluation.paired_t_test": (["albumarc.evaluation:paired_t_test"], None),
}


@dataclass
class Span:
    name: str
    start: float
    run_id: str
    parent: int | None
    end: float = 0.0
    fields: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(site: str):
    """(owner object, attribute name) for a ``module:attr`` or
    ``module:Class.attr`` site, or None when the package lacks it."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run_id = ""
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording

    def begin(self, run_id: str) -> None:
        """Start a new run (one set-up or one round); spans share its id."""
        self._run_id = run_id

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), self._run_id, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    # -------------------------------------------------------------- wrappers

    def _wrap(self, name, fn, fields):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if fields is not None:
                span.fields.update(fields(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for name, (sites, fields) in TRACED.items():
            for site in sites:
                found = _resolve(site)
                if found is None:
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, fields))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------- reporting

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "run_id": s.run_id,
                            **({"fields": s.fields} if s.fields else {}),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    def layer_totals(self, run_id: str) -> dict[str, dict]:
        """Per span name within one run: calls, total seconds, self seconds
        (duration minus the part its direct children cover) and the summed
        numeric fields."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.run_id == run_id and s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        totals: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if s.run_id != run_id:
                continue
            t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "fields": {}})
            t["calls"] += 1
            t["s"] += s.duration
            t["self_s"] += s.duration - child_time.get(i, 0.0)
            for key, value in s.fields.items():
                t["fields"][key] = t["fields"].get(key, 0) + value
        return totals

    def durations(self, name: str, run_ids, **match) -> list[float]:
        """Durations of every span called ``name`` in the given runs whose
        fields equal ``match``."""
        run_ids = set(run_ids)
        return [
            s.duration
            for s in self.spans
            if s.name == name
            and s.run_id in run_ids
            and all(s.fields.get(k) == v for k, v in match.items())
        ]


# Per-layer metrics taken straight from span totals: metric name, span name
# and which total ("s", "calls", "self_s" or a summed span field).
LAYER_TOTALS = [
    ("essence.autodiff.backward.s", "essence.autodiff.backward", "s"),
    ("essence.autodiff.backward.calls", "essence.autodiff.backward", "calls"),
    ("essence.objective.album_loss_graph.self_s", "essence.objective.album_loss_graph", "self_s"),
    ("essence.objective.album_loss_graph.calls", "essence.objective.album_loss_graph", "calls"),
    ("essence.model.extractor_graph.s", "essence.model.extractor_graph", "s"),
    ("essence.model.scorer_graph.s", "essence.model.scorer_graph", "s"),
    ("essence.training.Adam.step.s", "essence.training.Adam.step", "s"),
    ("essence.training.Adam.step.calls", "essence.training.Adam.step", "calls"),
    ("essence.training.epochs_run", "essence.training.train", "steps"),
    ("essence.objective.scorer_loss_graph.s", "essence.objective.scorer_loss_graph", "s"),
    ("essence.objective.scorer_loss_graph.calls", "essence.objective.scorer_loss_graph", "calls"),
    ("essence.model.score_sequences_np.s", "essence.model.score_sequences_np", "s"),
    ("essence.model.extract_matrix.s", "essence.model.extract_matrix", "s"),
    ("ingest.load_feature_table.s", "ingest.load_feature_table", "s"),
    ("ingest.load_feature_table.calls", "ingest.load_feature_table", "calls"),
    ("ingest.synth_generate.s", "ingest.synth_generate", "s"),
    ("fileio.write.s", "fileio.write", "s"),
    ("fileio.write.calls", "fileio.write", "calls"),
    *[(f"cli.{stage}.s", f"cli.{stage}", "s")
      for stage in ("synth", "train", "probe", "extract-templates", "evaluate", "reorder")],
    ("templates.evolve_templates.s", "templates.evolve_templates", "s"),
    ("fitcurve.fit_ordering.calls", "fitcurve.fit_ordering", "calls"),
    ("fitcurve.fit_ordering.self_s", "fitcurve.fit_ordering", "self_s"),
    ("fitcurve.max_bipartite_matching.s", "fitcurve.max_bipartite_matching", "s"),
    ("fitcurve.max_bipartite_matching.calls", "fitcurve.max_bipartite_matching", "calls"),
    ("fitcurve.min_cost_perfect_matching.s", "fitcurve.min_cost_perfect_matching", "s"),
    ("fitcurve.sample_template.s", "fitcurve.sample_template", "s"),
    ("evaluation.evaluate_templates.self_s", "evaluation.evaluate_templates", "self_s"),
    ("evaluation.string_edit_score.s", "evaluation.string_edit_score", "s"),
    ("evaluation.paired_t_test.s", "evaluation.paired_t_test", "s"),
]


def _total(totals: dict, span_name: str, key: str) -> float:
    t = totals.get(span_name)
    if t is None:
        return 0.0
    return float(t[key] if key in ("calls", "s", "self_s") else t["fields"].get(key, 0))


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, setup_ids, round_ids, rounds) -> dict[str, float]:
    """Every per-layer metric for one set-up plus one round: the median over
    traced set-ups plus the median over traced rounds.  A layer the workload
    never reaches reads 0."""
    setup_totals = [tracer.layer_totals(i) for i in setup_ids]
    round_totals = [tracer.layer_totals(i) for i in round_ids]

    def value(span_name, key):
        return _median(_total(t, span_name, key) for t in setup_totals) + _median(
            _total(t, span_name, key) for t in round_totals
        )

    metrics = {name: value(span_name, key) for name, span_name, key in LAYER_TOTALS}
    load_s = value("ingest.load_feature_table", "s")
    metrics["ingest.rows_per_s"] = value("ingest.load_feature_table", "rows") / load_s if load_s else 0.0
    evolve_s = value("templates.evolve_templates", "s")
    metrics["templates.generations_per_s"] = (
        value("templates.evolve_templates", "steps") / evolve_s if evolve_s else 0.0
    )
    for n in (200, 400):
        metrics[f"fitcurve.fit_ordering.ms_per_fit.n{n}"] = 1000.0 * _median(
            tracer.durations("fitcurve.fit_ordering", round_ids, n=n)
        )
    metrics["trace.overhead_s"] = _median(r.seconds for traced, r in rounds if traced) - _median(
        r.seconds for traced, r in rounds if not traced
    )
    return metrics
