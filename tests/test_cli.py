"""End-to-end tests for the command-line pipeline and its error handling."""

import json
import subprocess
import sys

import numpy as np
import pytest

from albumarc.fileio import config_hash
from albumarc.ingest import load_feature_table

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

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        ws, _, config, _, _ = workspace
        out2 = tmp_path / "out99"
        run_ok("--config", str(config), "--out", str(out2), "--seed", "99", "synth")
        assert "seed=99" in provenance_line(out2 / "dataset.csv")


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
