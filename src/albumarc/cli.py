"""Command-line pipeline: synth, train, probe, extract-templates, fit,
evaluate, reorder, plot-data.

All commands read a versioned JSON config, checked whole when it is loaded
(unknown keys and bad values rejected), route all randomness through one
seed, write outputs atomically, and embed the config hash plus effective
seed in every artifact, so reruns with the same config and seed are
byte-identical.  A path a command needs but the config lacks is reported
before the command reads any file.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import click
import numpy as np

from . import __version__
from .core import album_values, check_type, normalize_minmax
from .errors import AlbumArcError, ConfigError, IngestError
from .essence import EssenceModel, TrainConfig, probe_feature_mi, train
from .evaluation import check_alpha, evaluate_templates, plot_rows
from .fileio import (
    atomic_write_text,
    config_hash,
    read_json,
    write_json,
    write_table,
)
from .fitcurve import fit_ordering
from .ingest import (
    SPLITS,
    Dataset,
    SynthConfig,
    drop_tracks_missing,
    filter_albums,
    load_album_table,
    load_essence_csv,
    load_feature_table,
    load_scalar_table,
    synth_generate,
    write_feature_csv,
)
from .spline import check_knots
from .templates import GAConfig, TemplateSet, evolve_templates

log = logging.getLogger(__name__)

CONFIG_VERSION = 1


def _dims(key, dims):
    if not (isinstance(dims, list) and dims):
        raise TypeError(f"dims must be a non-empty list of essence dimensions, got {dims!r}")
    for d in dims:
        TrainConfig(essence_dim=d)
    if len(set(dims)) < len(dims):
        raise ConfigError(f"config train.dims repeats an essence dimension: {dims!r}")


def _features(key, features):
    if not (isinstance(features, list) and features and all(isinstance(f, str) for f in features)):
        raise TypeError(f"features must be a non-empty list of feature names, got {features!r}")
    if len(set(features)) < len(features):
        raise ConfigError(f"config probe.features repeats a feature name: {features!r}")


def _split_name(key, split):
    if split != "all" and split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")


def _template(key, template):
    if template != "all":
        check_type(key, template, "int")


# The keys the CLI reads itself: section -> key -> (default, check of the
# key and its value).  Where the default is None, null stands for absent.
_CLI_KEYS = {
    "paths": dict.fromkeys(
        ("dataset", "scalars", "essence", "model", "templates", "eval_report"),
        (None, partial(check_type, kind="str")),
    ),
    "synth": {"shuffle_orders": (False, partial(check_type, kind="bool"))},
    "train": {"dims": (None, _dims)},
    "probe": {"features": (None, _features)},
    "ga": {"split": ("train", _split_name), "knots": (None, lambda key, knots: check_knots(knots))},
    "evaluate": {
        "alpha": (0.05, lambda key, alpha: check_alpha(alpha)),
        "split": ("test", _split_name),
        "seed": (0, partial(check_type, kind="int")),
    },
    "reorder": {"template": ("all", _template)},
}
# The stage sections, whose other keys are the fields of their config.
_STAGES = {"synth": SynthConfig, "train": TrainConfig, "ga": GAConfig}

SECTION_KEYS = {
    name: set(keys) | ({f.name for f in dataclasses.fields(_STAGES[name])} if name in _STAGES else set())
    for name, keys in _CLI_KEYS.items()
}


@dataclass
class App:
    config_path: Path | None
    seed: int | None
    out: Path
    _config: dict | None = None
    _hash: str | None = None

    @property
    def config(self) -> dict:
        """The checked config (see :func:`_load_config`), loaded on first use."""
        if self._config is None:
            if self.config_path is None:
                raise ConfigError("this command requires --config")
            self._hash, self._config = _load_config(self.config_path, self.seed)
        return self._config

    def provenance(self, seed: int | None = None) -> dict:
        """The config hash and ``seed``, by default --seed if given, else 0."""
        self.config
        return {"config_sha256": self._hash, "seed": (self.seed or 0) if seed is None else seed}

    def path(self, key: str, required: bool = True) -> Path | None:
        """paths.``key``, relative to the config's directory."""
        value = self.config[f"paths.{key}"]
        if value is None:
            if required:
                raise ConfigError(f"config paths.{key} is required for this command")
            return None
        return self.config_path.parent / value


def _load_config(path: Path, seed: int | None) -> tuple[str, dict]:
    """The config at ``path``, checked whole: its hash and a dict of its
    values.  The dict holds each key of :data:`_CLI_KEYS` as
    ``"section.key"``, given or defaulted; each stage section's config under
    the section's name; and each stage key the section gives as
    ``"section.key"``.  A ``seed`` that is not None replaces every seed, once
    the config's own seeds are checked."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if "version" not in doc:
        raise ConfigError(f"{path}: missing required 'version' field")
    if doc["version"] != CONFIG_VERSION:
        raise ConfigError(
            f"{path}: unsupported config version {doc['version']!r} "
            f"(expected {CONFIG_VERSION})"
        )
    for key, value in doc.items():
        if key == "version":
            continue
        if key not in SECTION_KEYS:
            raise ConfigError(f"{path}: unknown config section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: section {key!r} must be an object")
        unknown = set(value) - SECTION_KEYS[key]
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) in section {key!r}: {sorted(unknown)}"
            )
    config = {}
    for name, keys in _CLI_KEYS.items():
        section = doc.get(name, {})
        try:
            for key, (default, check) in keys.items():
                value = config[f"{name}.{key}"] = section.get(key, default)
                if value is not None or default is not None:
                    check(key, value)
            if name in _STAGES:
                given = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items() if k not in keys}
                stage = _STAGES[name](**given)
                config.update((f"{name}.{k}", getattr(stage, k)) for k in given)
                config[name] = stage if seed is None else dataclasses.replace(stage, seed=seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config section {name!r}: {exc}") from None
    if seed is not None:
        config["evaluate.seed"] = seed
    return config_hash(doc), config


def _essence_source(app: App) -> tuple[Path, bool]:
    """paths.essence, else paths.model, and whether it is the model."""
    essence = app.path("essence", required=False)
    if essence is not None:
        return essence, False
    model = app.path("model", required=False)
    if model is None:
        raise ConfigError("config needs paths.essence or paths.model")
    return model, True


def _load_input(path: Path, from_dict, what: str):
    """``from_dict`` of the JSON document at ``path``; a document it cannot
    read is a bad ``what`` file."""
    doc = read_json(path)
    try:
        return from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad {what} file: {exc}") from None


def _load_templates(app: App) -> TemplateSet:
    return _load_input(app.path("templates"), TemplateSet.from_dict, "templates")


def _extract_essence(model: EssenceModel, dataset: Dataset) -> tuple[list[str], np.ndarray]:
    """Track ids and their (n, d) essence, one extractor pass per album."""
    track_ids = [t.track_id for album in dataset.albums for t in album.tracks]
    values = np.vstack([model.extract_matrix(album.features) for album in dataset.albums])
    return track_ids, values


def _scalar_column(source: Path, values: np.ndarray) -> np.ndarray:
    if values.shape[1] != 1:
        raise ConfigError(f"{source}: need scalar essence (one essence column), got d={values.shape[1]}")
    return values[:, 0]


def _load_albums(dataset_path: Path, source: tuple[Path, bool], split: str) -> tuple[Dataset, dict]:
    """The length-filtered albums of ``dataset_path`` in ``split`` ("all"
    keeps every album), and track_id -> scalar essence from ``source`` (see
    :func:`_essence_source`).  From the essence CSV only the album structure
    of the dataset is read: feature cells are neither parsed nor checked;
    the model's extractor runs over the albums' features."""
    path, from_model = source
    albums = filter_albums((load_feature_table if from_model else load_album_table)(dataset_path))
    if split != "all":
        albums = albums.subset(split)
    if not len(albums):
        raise ConfigError(f"dataset has no albums in split {split!r}")
    if from_model:
        track_ids, values = _extract_essence(_load_input(path, EssenceModel.from_dict, "model"), albums)
    else:
        track_ids, values = load_essence_csv(path)
    return albums, dict(zip(track_ids, _scalar_column(path, values).tolist()))


def _fit_docs(app: App, selector: int | str, values_arg: str | None = None):
    """One fit document per template of ``selector``, an index or "all": the
    album is the ``--values`` list if given, else the paths.essence file,
    whose track ids then give each document's ``track_order``."""
    path = None if values_arg is not None else app.path("essence")
    template_set = _load_templates(app)
    indices = range(template_set.n_templates) if selector == "all" else [selector]
    for index in indices:
        if not 0 <= index < template_set.n_templates:
            raise ConfigError(f"template index {index} out of range (k={template_set.n_templates})")
    track_ids = None
    if path is None:
        try:
            values = np.array([float(x) for x in values_arg.split(",")], dtype=np.float64)
            if values.size < 2 or not np.all(np.isfinite(values)):
                raise ValueError("need at least 2 finite values")
        except ValueError:
            raise ConfigError(f"bad --values: {values_arg!r}") from None
    else:
        track_ids, values = load_essence_csv(path)
        if values.shape[0] < 2:
            raise ConfigError(f"{path}: need at least 2 tracks to fit an ordering")
        values = _scalar_column(path, values)
    y = normalize_minmax(values)
    curves = template_set.curves()
    docs = []
    for index in indices:
        result = fit_ordering(y, curves[index])
        doc = {
            "template_index": index,
            "ordering": list(result.ordering.positions),
            "bottleneck": result.bottleneck,
            "total_deviation": result.total_deviation,
            "per_position_deviation": result.per_position_deviation.tolist(),
        }
        if track_ids is not None:
            doc["track_order"] = [track_ids[i] for i in result.ordering.positions]
        docs.append(doc)
    return docs


def _write_rows(path: Path, header: list[str], rows, prov: dict, sep: str = ",") -> None:
    """Write a text table of ``header`` and ``rows`` through ``csv``: a float
    cell is written as its repr, which reads back to the same float, None as
    an empty cell, any other cell as str."""

    def render(fh):
        writer = csv.writer(fh, delimiter=sep, lineterminator="\n")
        writer.writerow(header)
        # csv writes a float as its repr; under numpy 2 an np.float64's repr
        # is "np.float64(x)", hence float().
        writer.writerows([float(c) if isinstance(c, float) else c for c in row] for row in rows)

    write_table(path, render, prov)


# --------------------------------------------------------------------- group


@click.group(name="albumarc")
@click.version_option(__version__)
@click.option("--config", "config_path", type=click.Path(path_type=Path), default=None,
              help="Versioned JSON config file.")
@click.option("--seed", type=int, default=None, help="Override every seed in the config.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path, file_okay=False),
              default=Path("."), help="Output directory.")
@click.pass_context
def cli(ctx, config_path, seed, out_dir):
    """Narrative-arc pipeline: learn essence, extract templates, reorder, evaluate."""
    level_name = os.environ.get("ND_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    ctx.obj = App(config_path=config_path, seed=seed, out=out_dir)


# ------------------------------------------------------------------ commands


@cli.command()
@click.pass_obj
def synth(app: App):
    """Generate a synthetic dataset with a planted narrative arc."""
    config = app.config["synth"]
    dataset = synth_generate(config, shuffle_orders=app.config["synth.shuffle_orders"])
    prov = app.provenance(config.seed)
    write_table(app.out / "dataset.csv", lambda fh: write_feature_csv(dataset, fh), prov)
    scalars = dataset.scalar_features
    names = sorted(scalars)
    track_ids = dict.fromkeys(tid for name in names for tid in scalars[name])
    rows = ([tid, *(scalars[name].get(tid) for name in names)] for tid in track_ids)
    _write_rows(app.out / "scalars.csv", ["track_id", *names], rows, prov)
    click.echo(
        f"wrote {app.out / 'dataset.csv'}: {len(dataset)} albums, "
        f"{dataset.track_count()} tracks ({config.latent_shape}, noise {config.noise_sigma})"
    )


@cli.command(name="train")
@click.pass_obj
def train_cmd(app: App):
    """Train the essence extractor and sequence scorer.  ``train.dims`` sweeps
    the essence dimension: one model per d, suffixed ``_d{d}``, and
    mi_by_dim.csv."""
    base, dims = app.config["train"], app.config["train.dims"]
    configs = [base] if dims is None else [dataclasses.replace(base, essence_dim=d) for d in dims]
    prov = app.provenance(base.seed)
    dataset = filter_albums(load_feature_table(app.path("dataset")))
    summary = []
    for config in configs:
        d = config.essence_dim
        suffix = "" if dims is None else f"_d{d}"
        try:
            model, history = train(dataset, config)
        except IngestError as exc:  # a split with no album to train on
            raise IngestError(f"{app.path('dataset')}: {exc}") from None
        best = min(history, key=lambda h: h.val_loss)
        doc = {
            **model.to_dict(),
            "seed": config.seed,
            "train_config": dataclasses.asdict(config),
            "best_val_loss_nats": best.val_loss,
            "best_val_mi_bits": best.val_mi_bits,
        }
        write_json(app.out / f"model{suffix}.json", doc, prov)
        _write_rows(
            app.out / f"history{suffix}.csv",
            ["epoch", "train_loss", "val_loss", "val_mi_bits"],
            map(dataclasses.astuple, history),
            prov,
        )
        track_ids, values = _extract_essence(model, dataset)
        header = ["track_id", *(f"essence_{j + 1}" for j in range(values.shape[1]))]
        rows = ([tid, *row] for tid, row in zip(track_ids, values.tolist()))
        _write_rows(app.out / f"essence{suffix}.csv", header, rows, prov)
        summary.append((d, best.val_loss, best.val_mi_bits, best.epoch))
        detail = f" (epoch {best.epoch}, {len(history)} epochs run)" if dims is None else ""
        click.echo(f"d={d}: validation MI bound {best.val_mi_bits:.4f} bits{detail}")
    if dims is not None:
        header = ["essence_dim", "val_loss_nats", "val_mi_bits", "best_epoch"]
        _write_rows(app.out / "mi_by_dim.csv", header, summary, prov)


@cli.command()
@click.pass_obj
def probe(app: App):
    """Estimate the order information carried by fixed scalar features."""
    config = app.config["train"]
    features = app.config["probe.features"]
    prov = app.provenance(config.seed)
    dataset_path, scalars_path = app.path("dataset"), app.path("scalars")
    dataset = filter_albums(load_album_table(dataset_path))
    scalars = load_scalar_table(scalars_path)
    if features is None:
        features = sorted(scalars)
    results = {}
    for name in features:
        if name not in scalars:
            raise ConfigError(f"scalar feature {name!r} not present in scalars file")
        values = scalars[name]
        covered, dropped = drop_tracks_missing(dataset, values)
        try:
            mi = probe_feature_mi(covered, values, config)
        except ValueError as exc:  # too few albums left with this feature
            raise IngestError(f"{scalars_path}: feature {name!r}: {exc}") from None
        results[name] = {"mi_bits": mi, "dropped_tracks": dropped}
        click.echo(f"{name}: {mi:.4f} bits ({dropped} tracks dropped)")
    write_json(app.out / "probe.json", {"features": results}, prov)


@cli.command(name="extract-templates")
@click.pass_obj
def extract_templates(app: App):
    """Evolve template curves over the learned essence sequences."""
    config = app.config["ga"]
    prov = app.provenance(config.seed)
    albums, essence = _load_albums(app.path("dataset"), _essence_source(app), app.config["ga.split"])
    series = [normalize_minmax(values) for _, values in album_values(albums.albums, essence)]
    template_set, history = evolve_templates(series, config, xs=app.config["ga.knots"])
    write_json(app.out / "templates.json", template_set.to_dict(), prov)
    _write_rows(app.out / "ga_history.csv", ["generation", "best_cost"], enumerate(history), prov)
    click.echo(
        f"evolved {template_set.n_templates} templates over {len(series)} albums: "
        f"final cost {template_set.final_cost:.6f} after {len(history)} generations"
    )


@cli.command()
@click.option("--values", "values_arg", default=None,
              help="Comma-separated essence values for one album (overrides paths.essence).")
@click.option("--template-index", type=int, default=0, show_default=True)
@click.pass_obj
def fit(app: App, values_arg, template_index):
    """Fit one album's essence series to a single template curve."""
    [doc] = _fit_docs(app, template_index, values_arg)
    write_json(app.out / "fit.json", doc, app.provenance())
    click.echo(
        f"template {template_index}: ordering {doc['ordering']} "
        f"(bottleneck {doc['bottleneck']:.6f}, total {doc['total_deviation']:.6f})"
    )


@cli.command()
@click.option("--template", "template_arg", default=None,
              help='Template index or "all" (default: config reorder.template, else "all").')
@click.pass_obj
def reorder(app: App, template_arg):
    """Reorder an album onto one template curve, or onto each of them."""
    selector = template_arg
    if template_arg is None:
        selector = app.config["reorder.template"]
    elif template_arg != "all":
        try:
            selector = int(template_arg)
        except ValueError:
            raise ConfigError(f'bad template selector {template_arg!r}; use an index or "all"') from None
    fits = _fit_docs(app, selector)
    write_json(app.out / "orderings.json", {"orderings": fits}, app.provenance())
    for doc in fits:
        click.echo(
            f"template {doc['template_index']}: {doc['track_order']} "
            f"(bottleneck {doc['bottleneck']:.6f})"
        )


@cli.command()
@click.pass_obj
def evaluate(app: App):
    """Score templates against ground-truth orderings and both baselines."""
    seed = app.config["evaluate.seed"]
    ga_k = app.config.get("ga.n_templates")
    prov = app.provenance(seed)
    dataset_path, source = app.path("dataset"), _essence_source(app)
    template_set = _load_templates(app)
    if ga_k is not None and ga_k != template_set.n_templates:
        raise ConfigError(
            f"config ga.n_templates={ga_k} does not match templates file k={template_set.n_templates}"
        )
    albums, essence = _load_albums(dataset_path, source, app.config["evaluate.split"])
    report = evaluate_templates(albums, essence, template_set, seed=seed, alpha=app.config["evaluate.alpha"])
    doc = report.to_dict()
    write_json(app.out / "eval_report.json", doc, prov)
    _write_scores(app, plot_rows(doc), prov)
    click.echo(
        f"mean scores: learned {report.mean_learned:.4f}, "
        f"random {report.mean_random:.4f}, shuffled {report.mean_shuffled:.4f}"
    )
    for name, p, rejected in zip(report.comparisons, report.p_values, report.rejections):
        verdict = "rejected" if rejected else "not rejected"
        click.echo(f"{name}: p={p:.3e}, null {verdict} at family alpha {report.alpha}")


def _write_scores(app: App, rows: list, prov: dict) -> None:
    """scores.tsv: bar-chart rows of an eval report."""
    _write_rows(app.out / "scores.tsv", ["condition", "mean", "stderr"], rows, prov, sep="\t")


def _report_rows(doc) -> list:
    """Bar-chart rows of an eval report document; none if it has no albums."""
    if not isinstance(doc, dict):
        raise TypeError("an eval report must be a JSON object")
    return plot_rows(doc) if doc.get("albums") else []


_SVG_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910", "#117a65")


def _curves_svg(template_set: TemplateSet, samples: np.ndarray, grid: np.ndarray) -> str:
    width, height, margin = 640, 400, 45
    span_x, span_y = width - 2 * margin, height - 2 * margin

    def px(x: float) -> float:
        return margin + x * span_x

    def py(y: float) -> float:
        return height - margin - y * span_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{px(tick):.1f}" y="{height - margin + 18:.1f}" font-size="12" '
            f'text-anchor="middle">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8:.1f}" y="{py(tick) + 4:.1f}" font-size="12" '
            f'text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 8:.1f}" font-size="13" '
        f'text-anchor="middle">relative position</text>'
    )
    for p in range(samples.shape[0]):
        color = _SVG_PALETTE[p % len(_SVG_PALETTE)]
        points = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(grid, samples[p])
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin - 4:.1f}" y="{margin + 16 * (p + 1):.1f}" '
            f'font-size="12" text-anchor="end" fill="{color}">template {p}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@cli.command(name="plot-data")
@click.pass_obj
def plot_data(app: App):
    """Export template curves (TSV + SVG) and, if available, score bars."""
    template_set = _load_templates(app)
    report_path = app.path("eval_report", required=False)
    scores = [] if report_path is None else _load_input(report_path, _report_rows, "eval report")
    prov = app.provenance()
    grid = np.linspace(0.0, 1.0, 201)
    samples = np.stack([curve(grid) for curve in template_set.curves()])
    header = ["x", *(f"template_{p}" for p in range(samples.shape[0]))]
    _write_rows(app.out / "curves.tsv", header, zip(grid, *samples), prov, sep="\t")
    svg = _curves_svg(template_set, samples, grid)
    stamp = f"<!-- config_sha256={prov['config_sha256']} seed={prov['seed']} -->\n"
    atomic_write_text(app.out / "curves.svg", stamp + svg)
    wrote = ["curves.tsv", "curves.svg"]
    if scores:
        _write_scores(app, scores, prov)
        wrote.append("scores.tsv")
    click.echo(f"wrote {', '.join(wrote)} in {app.out}")


def main():
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except (ConfigError, IngestError, FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except (AlbumArcError, ValueError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
