"""End-to-end tests for the command-line pipeline and its error handling."""

import dataclasses
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from albumarc import cli
from albumarc.core import Album, TrackFeatures
from albumarc.essence import EssenceModel
from albumarc.fileio import config_hash
from albumarc.ingest import SynthConfig, filter_albums, load_feature_table, synth_generate

from conftest import essence_map
from table_oracle import write_essence_csv, write_scalar_csv

CLI = (sys.executable, "-m", "albumarc.cli")

MAIN_CONFIG = {
    "version": 1,
    "paths": {
        "dataset": "out/dataset.csv",
        "scalars": "out/scalars.csv",
        "model": "out/model.json",
        "templates": "out/templates.json",
        "eval_report": "out/eval_report.json",
    },
    "synth": {"n_albums": 30, "length_range": [3, 8], "seed": 5},
    "train": {
        "max_epochs": 3,
        "patience": 3,
        "batch_size": 8,
        "n_sequences": 8,
        "extractor_hidden": 16,
        "scorer_hidden": 8,
        "seed": 5,
    },
    "probe": {"features": ["latent"]},
    "ga": {
        "n_templates": 2,
        "population_size": 16,
        "children_per_gen": 16,
        "generations": 25,
        "stagnation_patience": 25,
        "split": "train",
        "seed": 5,
    },
    "evaluate": {"split": "test", "seed": 5},
}


def run(*args, cwd=None, env=None):
    return subprocess.run(
        [*CLI, *args], capture_output=True, text=True, cwd=cwd, env=env
    )


def run_ok(*args, cwd=None):
    result = run(*args, cwd=cwd)
    assert result.returncode == 0, f"{args}\nstdout:{result.stdout}\nstderr:{result.stderr}"
    return result


def provenance_line(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full pipeline run: synth, train, probe, extract-templates,
    evaluate, fit, reorder, plot-data."""
    ws = tmp_path_factory.mktemp("cli")
    out = ws / "out"
    config = ws / "config.json"
    config.write_text(json.dumps(MAIN_CONFIG, indent=2))
    base = ("--config", str(config), "--out", str(out))
    logs = {}
    for command in ("synth", "train", "probe", "extract-templates", "evaluate"):
        logs[command] = run_ok(*base, command)

    # Per-album essence input for fit/reorder: slice the first album's rows.
    lines = (out / "essence.csv").read_text().splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    rows = [line for line in lines if line.startswith("synth-00000-")]
    (out / "album.csv").write_text("\n".join([header, *rows]) + "\n")
    album_config = ws / "album_config.json"
    album_config.write_text(
        json.dumps(
            {
                "version": 1,
                "paths": {"templates": "out/templates.json", "essence": "out/album.csv"},
                "reorder": {"template": "all"},
            }
        )
    )
    album_base = ("--config", str(album_config), "--out", str(out))
    logs["fit"] = run_ok(*album_base, "fit", "--values", "0.2,0.9,0.4")
    logs["reorder"] = run_ok(*album_base, "reorder")
    logs["plot-data"] = run_ok(*base, "plot-data")
    return ws, out, config, album_config, logs


class TestPipeline:
    def test_synth_outputs(self, workspace):
        ws, out, config, _, logs = workspace
        assert "30 albums" in logs["synth"].stdout
        ds = load_feature_table(out / "dataset.csv")
        assert len(ds) == 30
        assert all(3 <= len(a) <= 8 for a in ds.albums)

    def test_provenance_comment_embeds_config_hash(self, workspace):
        ws, out, config, _, _ = workspace
        expected = config_hash(json.loads(config.read_text()))
        for name in ("dataset.csv", "scalars.csv", "history.csv", "essence.csv"):
            line = provenance_line(out / name)
            assert line.startswith("#")
            assert f"config_sha256={expected}" in line
        assert "seed=5" in provenance_line(out / "dataset.csv")

    def test_train_outputs(self, workspace):
        ws, out, config, _, logs = workspace
        assert "validation MI bound" in logs["train"].stdout
        doc = json.loads((out / "model.json").read_text())
        assert doc["train_config"]["max_epochs"] == 3
        assert doc["provenance"]["config_sha256"] == config_hash(
            json.loads(config.read_text())
        )
        assert isinstance(doc["best_val_mi_bits"], float)
        history = (out / "history.csv").read_text().splitlines()
        assert history[1] == "epoch,train_loss,val_loss,val_mi_bits"
        assert len(history) == 2 + 3  # provenance + header + three epochs

    def test_essence_covers_every_track(self, workspace):
        ws, out, _, _, _ = workspace
        ds = load_feature_table(out / "dataset.csv")
        lines = [
            line
            for line in (out / "essence.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("track_id")
        ]
        assert len(lines) == ds.track_count()

    def test_probe_output(self, workspace):
        ws, out, _, _, logs = workspace
        doc = json.loads((out / "probe.json").read_text())
        assert set(doc["features"]) == {"latent"}
        entry = doc["features"]["latent"]
        assert isinstance(entry["mi_bits"], float)
        assert entry["dropped_tracks"] == 0
        assert "latent:" in logs["probe"].stdout

    def test_template_outputs(self, workspace):
        ws, out, _, _, logs = workspace
        doc = json.loads((out / "templates.json").read_text())
        assert doc["k"] == 2
        assert np.array(doc["templates"]).shape == (2, 7)
        history = (out / "ga_history.csv").read_text().splitlines()[2:]
        costs = [float(line.split(",")[1]) for line in history]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert "evolved 2 templates" in logs["extract-templates"].stdout

    def test_evaluate_outputs(self, workspace):
        ws, out, _, _, logs = workspace
        doc = json.loads((out / "eval_report.json").read_text())
        assert len(doc["p_values"]) == 2
        assert doc["comparisons"] == ["learned_vs_random", "learned_vs_shuffled"]
        assert len(doc["albums"]) == 3  # test split of 30 albums
        scores = (out / "scores.tsv").read_text().splitlines()
        assert scores[1] == "condition\tmean\tstderr"
        assert [line.split("\t")[0] for line in scores[2:]] == [
            "learned",
            "random_orderings",
            "shuffled_essence",
        ]
        assert "mean scores" in logs["evaluate"].stdout

    def test_fit_output(self, workspace):
        ws, out, _, _, logs = workspace
        doc = json.loads((out / "fit.json").read_text())
        assert doc["template_index"] == 0
        assert sorted(doc["ordering"]) == [0, 1, 2]
        assert "track_order" not in doc  # --values input has no track ids
        assert len(doc["per_position_deviation"]) == 3
        assert "ordering" in logs["fit"].stdout

    def test_reorder_output(self, workspace):
        ws, out, _, _, logs = workspace
        doc = json.loads((out / "orderings.json").read_text())
        assert len(doc["orderings"]) == 2  # one fit per template
        first = doc["orderings"][0]
        n = len(first["ordering"])
        assert sorted(first["ordering"]) == list(range(n))
        assert all(tid.startswith("synth-00000-") for tid in first["track_order"])
        assert logs["reorder"].stdout.count("template ") == 2

    def test_plot_data_outputs(self, workspace):
        ws, out, _, _, logs = workspace
        curves = (out / "curves.tsv").read_text().splitlines()
        assert curves[1] == "x\ttemplate_0\ttemplate_1"
        assert len(curves) == 2 + 201
        values = np.array([line.split("\t")[1:] for line in curves[2:]], dtype=float)
        assert values.min() >= -0.5 and values.max() <= 1.5
        svg = (out / "curves.svg").read_text()
        assert svg.startswith("<!-- config_sha256=")
        assert svg.count("<polyline") == 2
        assert "scores.tsv" in logs["plot-data"].stdout

    def test_rerun_is_byte_identical(self, workspace):
        ws, out, config, _, _ = workspace
        before = {
            name: (out / name).read_bytes()
            for name in ("dataset.csv", "scalars.csv", "templates.json", "ga_history.csv")
        }
        base = ("--config", str(config), "--out", str(out))
        run_ok(*base, "synth")
        run_ok(*base, "extract-templates")
        for name, blob in before.items():
            assert (out / name).read_bytes() == blob, name

    def test_table_cells_are_float_reprs(self, workspace, tmp_path):
        # Every number in the tables reads back to the float it was written
        # from: integer columns as ints, every other cell as repr(float).
        ws, out, config, _, _ = workspace
        doc = json.loads(config.read_text())
        doc["paths"] = {"dataset": str(out / "dataset.csv")}
        doc["train"].update(dims=[1, 2], max_epochs=2)
        sweep_config = tmp_path / "sweep.json"
        sweep_config.write_text(json.dumps(doc))
        sweep = tmp_path / "sweep"
        run_ok("--config", str(sweep_config), "--out", str(sweep), "train")
        assert not (sweep / "model.json").exists()

        def rows(path, sep=","):
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# config_sha256=")
            return [line.split(sep) for line in lines[2:]]

        # (table, separator, leading and trailing columns that hold no float)
        tables = [
            (out / "history.csv", ",", 1, 0),
            (sweep / "history_d1.csv", ",", 1, 0),
            (sweep / "history_d2.csv", ",", 1, 0),
            (out / "ga_history.csv", ",", 1, 0),
            (sweep / "mi_by_dim.csv", ",", 1, 1),
            (out / "scores.tsv", "\t", 1, 0),
            (out / "curves.tsv", "\t", 0, 0),
            (out / "essence.csv", ",", 1, 0),
            (sweep / "essence_d1.csv", ",", 1, 0),
            (sweep / "essence_d2.csv", ",", 1, 0),
            (out / "scalars.csv", ",", 1, 0),
        ]
        for path, sep, lead, trail in tables:
            table = rows(path, sep)
            assert table, path.name
            for row in table:
                floats = row[lead : len(row) - trail]
                assert floats and all(cell == repr(float(cell)) for cell in floats), (path.name, row)

        costs = rows(out / "ga_history.csv")
        templates = json.loads((out / "templates.json").read_text())
        assert float(costs[-1][1]) == templates["final_cost"]
        for d, loss, bits, epoch in rows(sweep / "mi_by_dim.csv"):
            model = json.loads((sweep / f"model_d{d}.json").read_text())
            assert model["train_config"]["essence_dim"] == int(d)
            assert (float(loss), float(bits)) == (model["best_val_loss_nats"], model["best_val_mi_bits"])
            history = rows(sweep / f"history_d{d}.csv")
            assert history[int(epoch)][2:] == [loss, bits]

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        ws, _, config, _, _ = workspace
        out2 = tmp_path / "out99"
        run_ok("--config", str(config), "--out", str(out2), "--seed", "99", "synth")
        assert "seed=99" in provenance_line(out2 / "dataset.csv")


def _table_body(path) -> str:
    """A CLI table's text after its provenance line."""
    text = path.read_bytes().decode("utf-8")
    assert text.startswith("# config_sha256=")
    return text[text.index("\n") + 1 :]


def _oracle_essence_text(out) -> str:
    """essence.csv as the reference writer writes the model's essence."""
    model = EssenceModel.from_dict(json.loads((out / "model.json").read_text()))
    essence = essence_map(model, filter_albums(load_feature_table(out / "dataset.csv")))
    fh = io.StringIO()
    write_essence_csv(list(essence), list(essence.values()), fh)
    return fh.getvalue()


class TestPerTrackTables:
    """essence.csv and scalars.csv go through the CLI's one table writer and
    keep the bytes of the reference writers in tests/table_oracle.py."""

    def test_match_oracles_on_synth(self, workspace):
        _, out, _, _, _ = workspace
        synth = MAIN_CONFIG["synth"]
        dataset = synth_generate(
            SynthConfig(n_albums=synth["n_albums"], length_range=tuple(synth["length_range"]), seed=synth["seed"])
        )
        scalars = io.StringIO()
        write_scalar_csv(dataset.scalar_features, scalars)
        assert _table_body(out / "scalars.csv") == scalars.getvalue()
        assert _table_body(out / "essence.csv") == _oracle_essence_text(out)

    def test_match_oracles_on_awkward_ids_and_missing_cells(self, tmp_path, monkeypatch):
        # synth writes a dataset whose ids csv must quote and scalars with
        # missing cells; train then writes essence for those ids.
        awkward = ["with,comma", 'with"quote', "with\nnewline", " spaced "]
        dataset = synth_generate(SynthConfig(n_albums=10, length_range=(4, 6), seed=3))
        first = dataset.albums[0]
        tracks = tuple(
            TrackFeatures(track_id=f"{awkward[j % 4]}{j}", stats=t.stats) for j, t in enumerate(first.tracks)
        )
        ids = [t.track_id for t in tracks]
        scalars = {
            "tempo": {tid: 0.1 * j for j, tid in enumerate(ids)},
            "energy": {tid: -1.0 / (j + 1) for j, tid in enumerate(ids) if j % 2},
            "mood": {"only,here": 0.25, ids[0]: 1e-300},
        }
        dataset = dataclasses.replace(
            dataset, albums=(Album(first.album_id, tracks), *dataset.albums[1:]), scalar_features=scalars
        )
        monkeypatch.setattr(cli, "synth_generate", lambda config, shuffle_orders: dataset)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"version": 1, "paths": {"dataset": "out/dataset.csv"}, "train": MAIN_CONFIG["train"]})
        )
        out = tmp_path / "out"
        for command in ("synth", "train"):
            result = CliRunner().invoke(cli.cli, ["--config", str(config), "--out", str(out), command])
            assert result.exit_code == 0, (command, result.output, result.exception)

        oracle = io.StringIO()
        write_scalar_csv(scalars, oracle)
        assert _table_body(out / "scalars.csv") == oracle.getvalue()
        assert '"with,comma0",,1e-300,0.0\n"with\nnewline2",,,0.2\n' in oracle.getvalue()
        essence = _table_body(out / "essence.csv")
        assert essence == _oracle_essence_text(out)
        assert '"with""quote1",' in essence and '"with\nnewline2",' in essence


class TestErrors:
    def test_missing_config(self):
        result = run("train")
        assert result.returncode == 2
        assert "requires --config" in result.stderr

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run("--config", str(bad), "synth")
        assert result.returncode == 2
        assert "invalid JSON" in result.stderr

    def test_non_object_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        result = run("--config", str(bad), "synth")
        assert result.returncode == 2
        assert "must be a JSON object" in result.stderr

    def test_missing_version(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        result = run("--config", str(bad), "synth")
        assert result.returncode == 2
        assert "missing required 'version'" in result.stderr

    def test_unsupported_version(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 2}')
        result = run("--config", str(bad), "synth")
        assert result.returncode == 2
        assert "unsupported config version" in result.stderr

    def test_unknown_section(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "mystery": {}}')
        result = run("--config", str(bad), "synth")
        assert result.returncode == 2
        assert "unknown config section 'mystery'" in result.stderr

    def test_unknown_key_in_section(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "synth": {"n_albums": 5, "powers": 9}}')
        result = run("--config", str(bad), "synth")
        assert result.returncode == 2
        assert "unknown key(s) in section 'synth': ['powers']" in result.stderr

    def test_missing_dataset_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"version": 1, "paths": {"dataset": "nowhere.csv"}})
        )
        result = run("--config", str(config), "train")
        assert result.returncode == 2
        assert "nowhere.csv" in result.stderr

    def test_bad_values_argument(self, workspace):
        ws, out, _, album_config, _ = workspace
        for values in ("0.1,zebra", "0.5", "0.1,nan,0.3"):
            result = run(
                "--config", str(album_config), "--out", str(out), "fit",
                "--values", values,
            )
            assert result.returncode == 2, (values, result.stderr)
            assert "bad --values" in result.stderr

    def test_template_index_out_of_range(self, workspace):
        ws, out, _, album_config, _ = workspace
        result = run(
            "--config", str(album_config), "--out", str(out), "fit",
            "--values", "0.1,0.9", "--template-index", "7",
        )
        assert result.returncode == 2
        assert "out of range" in result.stderr

    def test_bad_template_selector(self, workspace):
        ws, out, _, album_config, _ = workspace
        result = run(
            "--config", str(album_config), "--out", str(out), "reorder",
            "--template", "banana",
        )
        assert result.returncode == 2
        assert "bad template selector" in result.stderr

    def test_template_count_mismatch(self, workspace, tmp_path):
        ws, out, config, _, _ = workspace
        doc = json.loads(config.read_text())
        doc["ga"]["n_templates"] = 3
        doc["paths"] = {
            key: str(out / name)
            for key, name in (
                ("dataset", "dataset.csv"),
                ("model", "model.json"),
                ("templates", "templates.json"),
            )
        }
        bad = tmp_path / "mismatch.json"
        bad.write_text(json.dumps(doc))
        result = run("--config", str(bad), "--out", str(tmp_path), "evaluate")
        assert result.returncode == 2
        assert "does not match templates file" in result.stderr

    def test_evaluate_needs_essence_source(self, workspace, tmp_path):
        ws, out, _, _, _ = workspace
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "version": 1,
                    "paths": {
                        "dataset": str(out / "dataset.csv"),
                        "templates": str(out / "templates.json"),
                    },
                }
            )
        )
        result = run("--config", str(config), "--out", str(tmp_path), "evaluate")
        assert result.returncode == 2
        assert "paths.essence or paths.model" in result.stderr

    def test_malformed_config_values(self, workspace, tmp_path):
        # Wrong-typed or out-of-range values fail as config errors (exit 2)
        # naming their section, not as tracebacks or silent dead runs.
        _, out, config, _, _ = workspace
        cases = [
            ("train", "train", {"batch_size": "16"}),
            ("train", "train", {"extractor_hidden": 0}),
            ("train", "train", {"learning_rate": -1.0}),
            ("extract-templates", "ga", {"generations": "many"}),
            ("extract-templates", "ga", {"generations": 2.5}),
            ("extract-templates", "ga", {"knots": [0, 0.5]}),
            ("extract-templates", "ga", {"knots": [0, 0.6, 0.4, 1]}),
            ("extract-templates", "ga", {"knots": "grid"}),
            ("evaluate", "evaluate", {"alpha": "x"}),
            ("evaluate", "evaluate", {"alpha": 2.0}),
            ("evaluate", "evaluate", {"alpha": 0}),
            ("evaluate", "evaluate", {"seed": "abc"}),
            ("evaluate", "evaluate", {"split": "dev"}),
            ("synth", "synth", {"n_albums": "many"}),
            ("synth", "synth", {"n_albums": "30"}),
            ("train", "paths", {"dataset": 5}),
            ("train", "train", {"dims": []}),
            ("probe", "probe", {"features": "latent"}),
            ("evaluate", "ga", {"n_templates": "1"}),
        ]
        for command, section, patch in cases:
            doc = json.loads(config.read_text())
            doc["paths"] = {
                "dataset": str(out / "dataset.csv"),
                "model": str(out / "model.json"),
                "templates": str(out / "templates.json"),
            }
            doc[section].update(patch)
            bad = tmp_path / "malformed.json"
            bad.write_text(json.dumps(doc))
            result = run("--config", str(bad), "--out", str(tmp_path), command)
            assert result.returncode == 2, (patch, result.stderr)
            assert f"config section {section!r}" in result.stderr
            assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["fit", "reorder"])
    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_non_finite_essence_value(self, workspace, tmp_path, command, cell):
        # A non-finite cell in paths.essence is a data error (exit 2) naming
        # the file and line.
        _, out, _, _, _ = workspace
        (tmp_path / "album.csv").write_text(f"track_id,essence_1\nt1,0.2\nt2,{cell}\nt3,0.7\n")
        config = tmp_path / "album_config.json"
        paths = {"templates": str(out / "templates.json"), "essence": "album.csv"}
        config.write_text(json.dumps({"version": 1, "paths": paths}))
        result = run("--config", str(config), "--out", str(tmp_path), command)
        assert result.returncode == 2, result.stderr
        assert "album.csv:3: non-finite essence value" in result.stderr

    def test_non_finite_scalar_value(self, workspace, tmp_path):
        # A non-finite cell in paths.scalars is a data error (exit 2) naming
        # the file, line, feature and track, before any probe training.
        _, out, _, _, _ = workspace
        lines = (out / "scalars.csv").read_text().splitlines(keepends=True)
        header = lines[1].rstrip("\n").split(",")
        row = lines[2].rstrip("\n").split(",")
        column = header.index("latent")
        row[column] = "nan"
        lines[2] = ",".join(row) + "\n"
        (tmp_path / "scalars.csv").write_text("".join(lines))
        config = tmp_path / "probe_config.json"
        paths = {"dataset": str(out / "dataset.csv"), "scalars": "scalars.csv"}
        config.write_text(json.dumps({"version": 1, "paths": paths}))
        result = run("--config", str(config), "--out", str(tmp_path), "probe")
        assert result.returncode == 2, result.stderr
        assert f"scalars.csv:3: non-finite value 'nan' for latent of track {row[0]!r}" in result.stderr

    def test_sparse_scalar_feature(self, workspace, tmp_path):
        # A feature that covers no train (or validation) album long enough
        # to permute is a data error (exit 2) naming the file and feature.
        _, out, _, _, _ = workspace
        (tmp_path / "scalars.csv").write_text("track_id,tempo\nsynth-00000-t01,0.5\n")
        config = tmp_path / "probe_config.json"
        paths = {"dataset": str(out / "dataset.csv"), "scalars": "scalars.csv"}
        config.write_text(json.dumps({"version": 1, "paths": paths}))
        result = run("--config", str(config), "--out", str(tmp_path), "probe")
        assert result.returncode == 2, result.stderr
        assert "scalars.csv: feature 'tempo': train split has no usable albums" in result.stderr

    @pytest.mark.parametrize(
        "report",
        ["[]", '{"albums": 5}', '{"albums": [{"x": 1}]}',
         '{"albums": [{"learned_score": "a", "random_score": 0.5, "shuffled_score": 0.5}]}',
         '{"albums": [{"learned_score": "0.5", "random_score": 0.5, "shuffled_score": 0.5}]}',
         '{"albums": [{"learned_score": 0.5, "random_score": null, "shuffled_score": 0.5}]}',
         '{"albums": [{"learned_score": 0.5, "random_score": 0.5, "shuffled_score": true}]}'],
    )
    def test_bad_eval_report(self, workspace, tmp_path, report):
        # plot-data reads paths.eval_report before it writes anything.
        _, out, _, _, _ = workspace
        (tmp_path / "eval_report.json").write_text(report)
        config = tmp_path / "plot_config.json"
        paths = {"templates": str(out / "templates.json"), "eval_report": "eval_report.json"}
        config.write_text(json.dumps({"version": 1, "paths": paths}))
        result = run("--config", str(config), "--out", str(tmp_path / "o"), "plot-data")
        assert result.returncode == 2, result.stderr
        assert "eval_report.json: bad eval report file: " in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"xs": [0, 0.7, 0.5, 1], "templates": [[0, 1, 0.5, 0]], "k": 1}, "knots must be strictly increasing"),
            ({"xs": [0, 0.5, 1], "templates": [["0", "1", "0.5"]], "k": 1}, "templates[0][0] must be float, got '0'"),
            ({"k": 3}, "k=3 but 2 template rows"),
        ],
    )
    def test_bad_templates_file(self, workspace, tmp_path, patch, message):
        # A templates file is read as numbers on a valid knot grid, with k
        # rows, before anything is written.
        _, out, _, _, _ = workspace
        doc = {**json.loads((out / "templates.json").read_text()), **patch}
        (tmp_path / "templates.json").write_text(json.dumps(doc))
        config = tmp_path / "plot_config.json"
        config.write_text(json.dumps({"version": 1, "paths": {"templates": "templates.json"}}))
        result = run("--config", str(config), "--out", str(tmp_path / "o"), "plot-data")
        assert result.returncode == 2, result.stderr
        assert f"templates.json: bad templates file: {message}" in result.stderr
        assert not (tmp_path / "o").exists()

    def test_eval_report_without_albums(self, workspace, tmp_path):
        # A report with no albums has no score bars to write.
        _, out, _, _, _ = workspace
        (tmp_path / "eval_report.json").write_text('{"albums": []}')
        config = tmp_path / "plot_config.json"
        paths = {"templates": str(out / "templates.json"), "eval_report": "eval_report.json"}
        config.write_text(json.dumps({"version": 1, "paths": paths}))
        result = run_ok("--config", str(config), "--out", str(tmp_path / "o"), "plot-data")
        assert "scores.tsv" not in result.stdout
        assert not (tmp_path / "o" / "scores.tsv").exists()

    def test_repeated_train_dims(self, workspace, tmp_path):
        # Repeated dimensions would train one model twice and list it twice
        # in mi_by_dim.csv; they are a config error (exit 2) naming the key.
        _, out, config, _, _ = workspace
        doc = json.loads(config.read_text())
        doc["paths"] = {"dataset": str(out / "dataset.csv")}
        doc["train"]["dims"] = [1, 2, 1]
        bad = tmp_path / "dims.json"
        bad.write_text(json.dumps(doc))
        result = run("--config", str(bad), "--out", str(tmp_path / "o"), "train")
        assert result.returncode == 2, result.stderr
        assert "train.dims repeats an essence dimension" in result.stderr
        assert not (tmp_path / "o").exists()

    def test_repeated_probe_features(self, workspace, tmp_path):
        # A repeated feature would train its probe twice and print it twice;
        # it is a config error (exit 2) naming the key, before any data file
        # is read.
        _, _, config, _, _ = workspace
        doc = json.loads(config.read_text())
        doc["paths"] = {"dataset": str(tmp_path / "absent.csv"), "scalars": str(tmp_path / "absent.csv")}
        doc["probe"]["features"] = ["latent", "noise", "latent"]
        bad = tmp_path / "features.json"
        bad.write_text(json.dumps(doc))
        result = run("--config", str(bad), "--out", str(tmp_path / "o"), "probe")
        assert result.returncode == 2, result.stderr
        assert "probe.features repeats a feature name" in result.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: doc.pop("scorer_params"), "'scorer_params'"),
            (lambda doc: doc.update(extractor_params=[]), "parameter vector length 0 != expected"),
            (lambda doc: doc.update(input_mean=doc["input_mean"][:3]), "input_mean length 3 != in_dim 525"),
            (lambda doc: doc.update(input_std=doc["input_std"] + [1.0]), "input_std length 526 != in_dim 525"),
            (lambda doc: doc["input_std"].__setitem__(7, 0.0), "input standardization must be finite"),
            (lambda doc: doc["input_std"].__setitem__(7, float("inf")), "input standardization must be finite"),
            (lambda doc: doc["input_mean"].__setitem__(7, float("nan")), "input standardization must be finite"),
            (lambda doc: doc["extractor_arch"].update(hidden="128"), "extractor_arch.hidden must be int, got '128'"),
            (lambda doc: doc["extractor_arch"].update(hidden=32.9), "extractor_arch.hidden must be int, got 32.9"),
            (lambda doc: doc["scorer_arch"].update(hidden=True), "scorer_arch.hidden must be int, got True"),
            (lambda doc: doc["scorer_arch"].update(essence_dim=None), "scorer_arch.essence_dim must be int, got None"),
        ],
    )
    def test_bad_model_file(self, workspace, tmp_path, damage, message):
        # A malformed paths.model is a data error (exit 2) naming the file,
        # as a malformed templates file is.
        _, out, config, _, _ = workspace
        model = json.loads((out / "model.json").read_text())
        damage(model)
        (tmp_path / "model.json").write_text(json.dumps(model))
        doc = json.loads(config.read_text())
        doc["paths"] = {
            "dataset": str(out / "dataset.csv"),
            "model": str(tmp_path / "model.json"),
            "templates": str(out / "templates.json"),
        }
        bad = tmp_path / "model_config.json"
        bad.write_text(json.dumps(doc))
        for command in ("extract-templates", "evaluate"):
            result = run("--config", str(bad), "--out", str(tmp_path / "o"), command)
            assert result.returncode == 2, (command, result.stderr)
            assert f"model.json: bad model file: {message}" in result.stderr
            assert "Traceback" not in result.stderr
            assert not (tmp_path / "o").exists()

    def test_train_split_without_albums(self, workspace, tmp_path):
        # A dataset whose usable albums all fall in one split is a data
        # error (exit 2) naming the dataset file.
        _, out, config, _, _ = workspace
        lines = (out / "dataset.csv").read_text().splitlines(keepends=True)
        album = [line for line in lines if line.startswith("synth-00000,")]
        (tmp_path / "one.csv").write_text("".join(lines[:2] + album))
        doc = json.loads(config.read_text())
        doc["paths"] = {"dataset": str(tmp_path / "one.csv")}
        bad = tmp_path / "train_config.json"
        bad.write_text(json.dumps(doc))
        result = run("--config", str(bad), "--out", str(tmp_path / "o"), "train")
        assert result.returncode == 2, result.stderr
        assert "one.csv: " in result.stderr and "split has no usable albums" in result.stderr
        assert not (tmp_path / "o").exists()

    def test_reorder_template_from_config(self, workspace, tmp_path):
        # reorder.template is "all" or a JSON integer; anything else is a
        # config error before any file is read.  The --template flag parses
        # its text.
        _, out, _, _, _ = workspace
        absent = {"templates": str(tmp_path / "absent.json"), "essence": str(tmp_path / "absent.csv")}
        for template in ("1", True, 1.0, "first", None):
            bad = tmp_path / "reorder.json"
            bad.write_text(json.dumps({"version": 1, "paths": absent, "reorder": {"template": template}}))
            result = run("--config", str(bad), "--out", str(tmp_path / "o"), "reorder")
            assert result.returncode == 2, (template, result.stderr)
            assert "config section 'reorder': template must be int" in result.stderr
        paths = {"templates": str(out / "templates.json"), "essence": str(out / "album.csv")}
        for template, args in ((1, ()), ("all", ("--template", "1"))):
            good = tmp_path / "album_config.json"
            good.write_text(json.dumps({"version": 1, "paths": paths, "reorder": {"template": template}}))
            run_ok("--config", str(good), "--out", str(tmp_path / "o"), "reorder", *args)
            fits = json.loads((tmp_path / "o" / "orderings.json").read_text())["orderings"]
            assert [f["template_index"] for f in fits] == [1]

    def test_missing_essence_track(self, workspace, tmp_path):
        # A track absent from paths.essence is a data error (exit 2) naming
        # the track, in both commands that gather essence per album.
        _, out, config, _, _ = workspace
        lines = (out / "essence.csv").read_text().splitlines(keepends=True)
        dropped = next(line for line in lines if line.startswith("synth-"))
        (tmp_path / "essence.csv").write_text("".join(line for line in lines if line != dropped))
        doc = json.loads(config.read_text())
        doc["paths"] = {
            "dataset": str(out / "dataset.csv"),
            "essence": str(tmp_path / "essence.csv"),
            "templates": str(out / "templates.json"),
        }
        doc["ga"]["split"] = doc["evaluate"]["split"] = "all"
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps(doc))
        track = dropped.split(",")[0]
        for command in ("extract-templates", "evaluate"):
            result = run("--config", str(bad), "--out", str(tmp_path), command)
            assert result.returncode == 2, (command, result.stderr)
            assert f"missing essence for track {track!r}" in result.stderr


class TestFeatureCells:
    """Only the commands that compute essence from the features read the
    feature cells of dataset.csv."""

    @staticmethod
    def _config(directory, dataset, **paths):
        """A config in ``directory`` beside a copy of ``dataset``; configs
        made with the same ``paths`` are the same document."""
        directory.mkdir()
        (directory / "dataset.csv").write_bytes(dataset.read_bytes())
        doc = dict(MAIN_CONFIG, paths={"dataset": "dataset.csv", **paths})
        (directory / "config.json").write_text(json.dumps(doc))
        return directory / "config.json"

    @pytest.fixture(scope="class")
    def bad_cell(self, workspace, tmp_path_factory):
        """A copy of the dataset whose first feature cell on one row reads
        'NaN-ish', and that row's physical line number."""
        _, out, _, _, _ = workspace
        lines = (out / "dataset.csv").read_text().splitlines(keepends=True)
        index = len(lines) // 2
        cells = lines[index].split(",")
        cells[4] = "NaN-ish"
        lines[index] = ",".join(cells)
        path = tmp_path_factory.mktemp("bad") / "dataset.csv"
        path.write_text("".join(lines))
        return path, index + 1

    def test_feature_commands_report_bad_cell(self, workspace, bad_cell, tmp_path):
        _, out, _, _, _ = workspace
        bad, line_no = bad_cell
        config = self._config(
            tmp_path / "bad", bad,
            model=str(out / "model.json"), templates=str(out / "templates.json"),
        )
        for command in ("train", "evaluate", "extract-templates"):
            result = run("--config", str(config), "--out", str(tmp_path / "o"), command)
            assert result.returncode == 2, (command, result.stderr)
            assert f"dataset.csv:{line_no}: non-numeric feature value" in result.stderr

    def test_essence_commands_skip_feature_cells(self, workspace, bad_cell, tmp_path):
        _, out, _, _, _ = workspace
        bad, _ = bad_cell
        artifacts = {}
        for name, dataset in (("clean", out / "dataset.csv"), ("bad", bad)):
            config = self._config(
                tmp_path / name, dataset,
                essence=str(out / "essence.csv"), templates=str(out / "templates.json"),
            )
            for command in ("extract-templates", "evaluate"):
                run_ok("--config", str(config), "--out", str(config.parent / "o"), command)
            artifacts[name] = {
                p.name: p.read_bytes() for p in sorted((config.parent / "o").iterdir())
            }
        assert sorted(artifacts["clean"]) == [
            "eval_report.json", "ga_history.csv", "scores.tsv", "templates.json",
        ]
        assert artifacts["bad"] == artifacts["clean"]


class TestMisc:
    def test_version_and_help(self):
        assert "version" in run_ok("--version").stdout
        help_text = run_ok("--help").stdout
        for command in ("synth", "train", "probe", "extract-templates",
                        "fit", "evaluate", "reorder", "plot-data"):
            assert command in help_text

    def test_log_level_env_var(self, workspace, tmp_path, monkeypatch):
        import os

        ws, _, config, _, _ = workspace
        env = dict(os.environ, ND_LOG="debug")
        result = subprocess.run(
            [*CLI, "--config", str(config), "--out", str(tmp_path), "synth"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        env["ND_LOG"] = "not-a-level"
        result = subprocess.run(
            [*CLI, "--config", str(config), "--out", str(tmp_path), "synth"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
