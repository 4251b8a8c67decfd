"""End-to-end tests for the command-line pipeline on a small machine."""

import base64
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnnase import cli, codec, simulate
from gnnase.config import config_from_json, config_to_json, load_config
from gnnase.errors import ChannelMismatch, InvalidConfig, InvalidConfigValue, ParseError
from gnnase.model import CHECKPOINT_FORMAT, CHECKPOINT_KEYS, PipelineSettings

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

# Small signals keep the full pipeline under a second per command: 2 kHz
# for 0.5 s gives 1000 samples and six 256-sample windows per recording.
TINY = {
    "seed": 7,
    "machine": {"sample_rate": 2000, "duration": 0.5},
    "window": {"window_len": 256, "hop": 128},
    "filter": {"cutoff": 400.0, "order": 4},
    "model": {
        "embed_dim": 16,
        "gcn1_dim": 8,
        "gcn2_dim": 8,
        "severity_dim": 4,
        "epochs": 3,
        "batch_size": 8,
    },
    "graph": {"neighbors": 2},
}


def write_config(tmp_path, extra=None, name="config.json"):
    blob = json.loads(json.dumps(TINY))
    for key, value in (extra or {}).items():
        section, _, field = key.partition(".")
        if field:
            blob.setdefault(section, {})[field] = value
        else:
            blob[section] = value
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


def read_checkpoint(path) -> tuple[dict, bytes]:
    """A checkpoint's JSON header and the tensor bytes after it, split apart from the package."""
    head, newline, body = Path(path).read_bytes().partition(b"\n")
    assert newline
    return json.loads(head), body


def write_checkpoint(path, header: dict, body: bytes) -> None:
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(body))


def tensor_span(header: dict, name: str) -> slice:
    """The bytes of tensor ``name`` in the body, located from the header's [name, shape] list."""
    offset = 0
    for listed, shape in header["params"]:
        size = 8 * int(np.prod(shape))
        if listed == name:
            return slice(offset, offset + size)
        offset += size
    raise KeyError(name)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated catalog, trained checkpoint and two request CSVs shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    config = write_config(
        root,
        extra={
            "paths.dataset_dir": str(root / "data"),
            "paths.out_dir": str(root / "run"),
            "paths.checkpoint": str(root / "run" / "model.bin"),
        },
    )
    assert run(["simulate", "--config", config, "--quiet"]) == 0
    assert run(["train", "--config", config, "--quiet"]) == 0
    # diagnose reads recording CSVs; export the catalog recordings the tests pick.
    recordings, _, _ = simulate.load_catalog(root / "data")
    (root / "requests").mkdir()
    for name in ("healthy-load0", "brb-1-load0"):
        rec = next(r for r in recordings if r.name == name)
        simulate.write_recording_csv(root / "requests" / f"{name}.csv", rec)
    return root, config


def test_cli_import_loads_no_scipy():
    # simulate, train and diagnose never need scipy; only severity ranking imports it.
    code = (
        "import sys, gnnase.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


class TestConfig:
    def test_defaults_round_trip(self):
        config = config_from_json({})
        assert config_from_json(config_to_json(config)) == config

    def test_invalid_key_path_named(self):
        with pytest.raises(InvalidConfig, match="model.learning_rate"):
            config_from_json({"model": {"learning_rate": "fast"}})

    def test_invalid_value_named(self):
        with pytest.raises(InvalidConfig, match="model"):
            config_from_json({"model": {"learning_rate": -1.0}})

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_severity_to_trunk_must_be_boolean(self, value):
        # Named for the deleted model.severity_to_trunk flag, whose values it
        # first checked; pipeline.include_frequency is the one boolean key left.
        # bool("false") is True: a string must not silently turn the features on.
        expected = r"^pipeline\.include_frequency: expected a boolean"
        with pytest.raises(InvalidConfig, match=expected):
            codec.from_json(PipelineSettings, {"include_frequency": value}, "pipeline")

    @pytest.mark.parametrize(
        "key, value", [("embed_dim", -1), ("embed_dim", 0), ("gcn1_dim", 0), ("gcn2_dim", -3),
                       ("severity_dim", 0)]
    )
    def test_layer_widths_must_be_positive(self, key, value):
        with pytest.raises(InvalidConfig, match="must be >= 1") as excinfo:
            config_from_json({"model": {key: value}})
        assert isinstance(excinfo.value.__cause__, InvalidConfigValue)

    def test_readme_config_block_matches_defaults(self):
        # The README's config example must name exactly the sections and keys
        # a resolved default config has.
        block = re.search(r"```json\n(\{\n  \"seed\".*?\n\})\n```", README.read_text(), re.S)
        documented = json.loads(block.group(1))
        defaults = config_to_json(config_from_json({}))
        assert documented.keys() == defaults.keys()
        for section, values in defaults.items():
            if isinstance(values, dict):
                assert documented[section].keys() == values.keys(), section

    def test_unknown_section_rejected(self):
        # A config written for an older version may still hold "augment".
        for section in ("typo", "augment"):
            with pytest.raises(InvalidConfig, match=rf"^{section}: unknown key$"):
                config_from_json({section: {}})

    def test_misspelled_model_key_rejected(self):
        # A typo must not silently train at the default learning rate.
        with pytest.raises(InvalidConfig, match=r"model\.learnig_rate"):
            config_from_json({"model": {"learnig_rate": 0.5}})

    @pytest.mark.parametrize("section", sorted(set(config_to_json(config_from_json({}))) - {"seed"}))
    def test_unknown_key_rejected_in_every_section(self, section):
        with pytest.raises(InvalidConfig, match=rf"{section}\.bogus"):
            config_from_json({section: {"bogus": 1}})

    def test_every_key_round_trips(self):
        defaults = config_to_json(config_from_json({}))
        doc = {
            "seed": 5,
            "machine": {"supply_frequency": 60.0, "pole_pairs": 3, "rated_current": 12.5,
                        "sample_rate": 12000.0, "duration": 2.0},
            "simulate": {"replicates": 2, "noise_snr_db": None},
            "window": {"window_len": 1024, "hop": 512},
            "filter": None,
            "model": {"embed_dim": 16, "gcn1_dim": 8, "gcn2_dim": 12, "severity_dim": 4,
                      "learning_rate": 0.05, "lr_schedule": "constant", "dropout_p": 0.25,
                      "beta": 0.5, "epochs": 7, "batch_size": 3, "lambda_anomaly": 2.0,
                      "lambda_severity": 0.5, "lambda_type": 1.5, "ablation": "no_reweight",
                      "seed": 42},
            "split": {"ratios": [0.6, 0.2, 0.2]},
            "graph": {"neighbors": 2},
            "paths": {"dataset_dir": "d", "checkpoint": "c.json", "out_dir": "o"},
        }
        assert doc.keys() == defaults.keys()
        for section, values in defaults.items():
            if isinstance(values, dict) and doc[section] is not None:
                assert doc[section].keys() == values.keys()
                assert all(doc[section][key] != values[key] for key in values), section
            else:
                assert doc[section] != values
        assert config_to_json(config_from_json(doc)) == doc

    def test_flag_overrides_beat_file(self, tmp_path):
        path = write_config(tmp_path)
        config = load_config(path, {"seed": 99, "paths.out_dir": "elsewhere"})
        assert config.seed == 99
        assert config.out_dir == "elsewhere"

    def test_master_seed_fans_out(self):
        config = config_from_json({"seed": 3})
        seeds = {
            config.simulate_seed(0),
            config.simulate_seed(1),
            config.split_seed(),
            config.train_seed(),
        }
        assert len(seeds) == 4
        assert config.model.seed == config.train_seed()

    def test_explicit_model_seed_wins(self):
        config = config_from_json({"seed": 3, "model": {"seed": 42}})
        assert config.model.seed == 42

    def test_missing_config_file(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "absent.json"]) == 1


class TestSimulate:
    def test_catalog_on_disk(self, workspace):
        root, _ = workspace
        manifest = json.loads((root / "data" / "manifest.json").read_text())
        assert len(manifest["recordings"]) == 100
        assert (root / "data" / "config_resolved.json").is_file()

    def test_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path, extra={"paths.dataset_dir": str(tmp_path / "d1")})
        assert run(["simulate", "--config", config, "--quiet"]) == 0
        first = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "d1").iterdir())
        }
        assert run(["simulate", "--config", config, "--quiet"]) == 0
        second = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "d1").iterdir())
        }
        assert first == second

    def test_replicates_multiply_catalog(self, tmp_path):
        config = write_config(
            tmp_path,
            extra={
                "simulate.replicates": 2,
                "paths.dataset_dir": str(tmp_path / "d2"),
            },
        )
        assert run(["simulate", "--config", config, "--quiet"]) == 0
        manifest = json.loads((tmp_path / "d2" / "manifest.json").read_text())
        assert len(manifest["recordings"]) == 200
        names = {e["name"] for e in manifest["recordings"]}
        assert any(name.endswith("-rep1") for name in names)

    def test_missing_parent_is_io_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            extra={"paths.dataset_dir": str(tmp_path / "no" / "such" / "dir")},
        )
        assert run(["simulate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "[cli] IoError" in err and "no" in err


class TestTrain:
    def test_outputs_exist(self, workspace):
        root, _ = workspace
        assert (root / "run" / "model.bin").is_file()
        assert (root / "run" / "training_log.csv").is_file()
        assert (root / "run" / "config_resolved.json").is_file()

    def test_log_rows_match_epochs(self, workspace):
        root, _ = workspace
        lines = (root / "run" / "training_log.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_accuracy"
        assert len(lines) - 1 == TINY["model"]["epochs"]

    def test_zero_epochs_initial_checkpoint_empty_log(self, workspace, tmp_path):
        root, _ = workspace
        config = write_config(
            tmp_path,
            extra={
                "model.epochs": 0,
                "paths.dataset_dir": str(root / "data"),
                "paths.out_dir": str(tmp_path / "run0"),
                "paths.checkpoint": str(tmp_path / "run0" / "model.bin"),
            },
        )
        assert run(["train", "--config", config, "--quiet"]) == 0
        log = (tmp_path / "run0" / "training_log.csv").read_text()
        assert log == "epoch,train_loss,val_accuracy\n"
        header, _ = read_checkpoint(tmp_path / "run0" / "model.bin")
        assert header["epoch"] == 0

    def test_rerun_byte_identical_checkpoint(self, workspace, tmp_path):
        root, _ = workspace
        blobs = []
        for tag in ("a", "b"):
            config = write_config(
                tmp_path,
                extra={
                    "paths.dataset_dir": str(root / "data"),
                    "paths.out_dir": str(tmp_path / f"run-{tag}"),
                    "paths.checkpoint": str(tmp_path / f"run-{tag}" / "model.bin"),
                },
                name=f"config-{tag}.json",
            )
            assert run(["train", "--config", config, "--quiet"]) == 0
            blobs.append((tmp_path / f"run-{tag}" / "model.bin").read_bytes())
        assert blobs[0] == blobs[1]

    def test_checkpoint_pins_the_dataset_sample_rate(self, workspace, tmp_path):
        root, _ = workspace
        # The config names another machine; the rate comes from the dataset's manifest.
        config = write_config(
            tmp_path,
            extra={
                "machine.sample_rate": 4000,
                "model.epochs": 0,
                "paths.dataset_dir": str(root / "data"),
                "paths.out_dir": str(tmp_path / "run"),
                "paths.checkpoint": "model.bin",
            },
        )
        assert run(["train", "--config", config, "--quiet"]) == 0
        header, _ = read_checkpoint(tmp_path / "run" / "model.bin")
        assert header["pipeline"]["sample_rate"] == TINY["machine"]["sample_rate"]

    def test_missing_dataset_fails(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            extra={
                "paths.dataset_dir": str(tmp_path / "nowhere"),
                "paths.out_dir": str(tmp_path / "run"),
            },
        )
        assert run(["train", "--config", config, "--quiet"]) == 1
        assert "IoError" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_checkpoint_parent_fails(self, workspace, tmp_path, capsys):
        root, _ = workspace
        config = write_config(
            tmp_path,
            extra={
                "paths.dataset_dir": str(root / "data"),
                "paths.out_dir": str(tmp_path / "run"),
                "paths.checkpoint": str(tmp_path / "nowhere" / "model.bin"),
            },
        )
        assert run(["train", "--config", config, "--quiet"]) == 1
        assert "parent directory does not exist" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestEvaluate:
    def test_missing_checkpoint_fails(self, workspace, tmp_path, capsys):
        root, _ = workspace
        config = write_config(
            tmp_path,
            extra={
                "paths.dataset_dir": str(root / "data"),
                "paths.out_dir": str(tmp_path / "run"),
                "paths.checkpoint": "model.bin",
            },
        )
        assert run(["evaluate", "--config", config, "--quiet"]) == 1
        assert "checkpoint not found" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_report_files(self, workspace):
        root, config = workspace
        assert run(["evaluate", "--config", config, "--quiet"]) == 0
        csv = (root / "run" / "report.csv").read_text()
        assert csv.startswith("variant,dataset,metric,value\n")
        assert (root / "run" / "report.txt").is_file()
        assert (root / "run" / "predictions.csv").is_file()

    def test_twice_identical(self, workspace):
        root, config = workspace
        assert run(["evaluate", "--config", config, "--quiet"]) == 0
        first = (root / "run" / "report.csv").read_bytes()
        assert run(["evaluate", "--config", config, "--quiet"]) == 0
        assert first == (root / "run" / "report.csv").read_bytes()

    def test_report_ranks_severity(self, workspace):
        root, config = workspace
        assert run(["evaluate", "--config", config, "--quiet"]) == 0
        rows = [line.split(",") for line in (root / "run" / "report.csv").read_text().splitlines()]
        rhos = [float(row[3]) for row in rows if row[2] == "severity_spearman"]
        assert rhos and all(-1.0 <= rho <= 1.0 for rho in rhos)

    def test_recount_from_predictions_csv(self, workspace):
        root, config = workspace
        assert run(["evaluate", "--config", config, "--quiet"]) == 0
        rows = (root / "run" / "predictions.csv").read_text().strip().split("\n")[1:]
        parsed = [line.split(",") for line in rows]
        report_lines = (root / "run" / "report.csv").read_text().strip().split("\n")[1:]
        for family in ("eccentricity", "bar_breakage", "bearing"):
            subset = [p for p in parsed if p[1] in (family, "healthy")]
            if not subset:
                continue
            correct = sum((p[1] != "healthy") == (p[4] == "1") for p in subset)
            expected = 100.0 * correct / len(subset)
            cell = [
                float(line.split(",")[3])
                for line in report_lines
                if line.split(",")[1] == family and line.split(",")[2] == "accuracy"
            ]
            assert cell and cell[0] == pytest.approx(expected)


class TestDiagnose:
    def test_json_schema(self, workspace, capsys):
        root, config = workspace
        recording = sorted((root / "requests").glob("healthy-*.csv"))[0]
        assert run(["diagnose", "--config", config, recording, "--quiet"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {
            "anomaly_probability",
            "severity_score",
            "type_distribution",
            "decision",
        }
        assert set(document["type_distribution"]) == {
            "eccentricity",
            "bar_breakage",
            "bearing",
        }
        assert document["decision"] in ("healthy", "eccentricity", "bar_breakage", "bearing")
        assert 0.0 <= document["anomaly_probability"] <= 1.0

    def test_malformed_row_names_line(self, workspace, tmp_path, capsys):
        root, config = workspace
        source = sorted((root / "requests").glob("healthy-*.csv"))[0]
        lines = source.read_text().strip().split("\n")
        lines[3] = lines[3].rsplit(",", 1)[0]  # drop one field on line 4
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["diagnose", "--config", config, bad, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "ParseError" in err and "line 4" in err

    def test_uneven_time_step_names_line(self, workspace, tmp_path):
        root, _ = workspace
        source = sorted((root / "requests").glob("healthy-*.csv"))[0]
        lines = source.read_text().strip().split("\n")
        # Shift every time stamp from data row 500 (line 502) on by half a
        # step: the first two steps stay even, the one ending on line 502 is not.
        for index in range(501, len(lines)):
            t, rest = lines[index].split(",", 1)
            lines[index] = f"{float(t) + 0.5 / 2000.0!r},{rest}"
        bad = tmp_path / "uneven.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 502"):
            cli.read_recording_csv(bad)

    def test_nan_time_stamp_names_line(self, workspace, tmp_path):
        root, _ = workspace
        source = sorted((root / "requests").glob("healthy-*.csv"))[0]
        lines = source.read_text().strip().split("\n")
        lines[301] = "nan," + lines[301].split(",", 1)[1]  # line 302
        bad = tmp_path / "nan_time.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 302"):
            cli.read_recording_csv(bad)

    def test_channel_mismatch(self, workspace, tmp_path, capsys):
        root, config = workspace
        source = sorted((root / "requests").glob("healthy-*.csv"))[0]
        text = source.read_text()
        bad = tmp_path / "channels.csv"
        bad.write_text(text.replace("phase_a", "phase_x", 1))
        assert run(["diagnose", "--config", config, bad, "--quiet"]) == 1
        assert "ChannelMismatch" in capsys.readouterr().err

    def test_read_recording_round_trip(self, workspace):
        root, _ = workspace
        source = sorted((root / "requests").glob("brb-*.csv"))[0]
        recording = cli.read_recording_csv(source)
        assert recording.sample_rate == 2000.0
        assert recording.n_samples == 1000
        assert set(recording.channels) == {
            "phase_a",
            "phase_b",
            "phase_c",
            "vibration",
        }

    def test_bare_checkpoint_name_lives_under_out_dir(self, workspace, tmp_path, capsys):
        root, _ = workspace
        config = write_config(
            tmp_path,
            extra={
                "paths.dataset_dir": str(root / "data"),
                "paths.out_dir": str(tmp_path / "run"),
                "paths.checkpoint": "model.bin",
            },
        )
        recording = sorted((root / "requests").glob("healthy-*.csv"))[0]
        for command in (["train"], ["evaluate"], ["diagnose", recording]):
            assert run([command[0], "--config", config, *command[1:], "--quiet"]) == 0
        assert (tmp_path / "run" / "model.bin").is_file()
        assert json.loads(capsys.readouterr().out)["decision"]

    def test_dot_slash_checkpoint_is_used_as_given(self, workspace, tmp_path, capsys, monkeypatch):
        root, _ = workspace
        # out_dir holds no checkpoint: only the working directory does.
        config = write_config(tmp_path, extra={"paths.out_dir": str(tmp_path / "run")})
        (tmp_path / "model.bin").write_bytes((root / "run" / "model.bin").read_bytes())
        monkeypatch.chdir(tmp_path)
        recording = sorted((root / "requests").glob("healthy-*.csv"))[0]
        argv = ["diagnose", "--config", config, recording, "--checkpoint", "./model.bin", "--quiet"]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["decision"]


class TestAblate:
    def test_missing_dataset_fails(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            extra={
                "paths.dataset_dir": str(tmp_path / "nowhere"),
                "paths.out_dir": str(tmp_path / "ablation"),
            },
        )
        assert run(["ablate", "--config", config, "--quiet"]) == 1
        assert "IoError" in capsys.readouterr().err
        assert not (tmp_path / "ablation").exists()

    def test_report_names_all_variants(self, workspace, tmp_path):
        root, _ = workspace
        config = write_config(
            tmp_path,
            extra={
                "model.epochs": 2,
                "paths.dataset_dir": str(root / "data"),
                "paths.out_dir": str(tmp_path / "ablation"),
            },
        )
        assert run(["ablate", "--config", config, "--quiet"]) == 0
        csv = (tmp_path / "ablation" / "report.csv").read_text()
        for variant in ("GNN-ASE", "GNN-ASE@1", "GNN-ASE@2", "GNN-ASE@3"):
            assert f"\n{variant}," in csv
        text = (tmp_path / "ablation" / "report.txt").read_text()
        assert "seed" in text and "split sizes" in text
        diffs = json.loads((tmp_path / "ablation" / "config_diffs.json").read_text())
        assert diffs["GNN-ASE@1"] == {"model.ablation": "no_reweight"}
        preds = list((tmp_path / "ablation").glob("predictions_*.csv"))
        assert len(preds) == 4


class TestErrors:
    @staticmethod
    def only_error_line(capsys) -> str:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        return lines[0]

    def test_non_numeric_ratios(self, tmp_path, capsys):
        config = write_config(tmp_path, extra={"split": {"ratios": ["a", 0.2, 0.2]}})
        assert run(["train", "--config", config, "--quiet"]) == 1
        assert self.only_error_line(capsys).startswith("[cli] InvalidConfig: split.ratios")

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), 10**400],
        ids=["nan", "inf", "-inf", "10**400"],
    )
    def test_non_finite_config_value_named(self, tmp_path, capsys, value):
        config = write_config(tmp_path, extra={"model.learning_rate": value})  # json writes NaN, Infinity
        assert run(["train", "--config", config, "--quiet"]) == 1
        assert self.only_error_line(capsys).startswith(
            "[cli] InvalidConfig: model.learning_rate: expected a finite number, got "
        )

    def test_null_model_seed(self, workspace, tmp_path, capsys):
        root, _ = workspace
        config = write_config(
            tmp_path,
            extra={
                "model.seed": None,
                "paths.dataset_dir": str(root / "data"),
                "paths.out_dir": str(tmp_path / "run"),
            },
        )
        assert run(["train", "--config", config, "--quiet"]) == 1
        assert self.only_error_line(capsys).startswith("[cli] InvalidConfig: model.seed: ")

    def test_checkpoint_config_with_unknown_key(self, workspace, tmp_path, capsys):
        def edit(header, body):
            header["config"]["bogus"] = 1

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys) == "[cli] InvalidConfig: config.bogus: unknown key"

    @pytest.mark.parametrize("document", ["manifest", "list"])
    def test_non_checkpoint_carries_package_tag(self, workspace, tmp_path, capsys, document):
        root, config = workspace
        recording = sorted((root / "requests").glob("healthy-*.csv"))[0]
        checkpoint = root / "data" / "manifest.json"
        if document == "list":
            checkpoint = tmp_path / "list.json"
            checkpoint.write_text("[1, 2]")
        argv = ["diagnose", "--config", config, recording, "--checkpoint", checkpoint, "--quiet"]
        assert run(argv) == 1
        assert self.only_error_line(capsys) == (
            "[gnnase] InvalidConfigValue: unrecognized checkpoint format None"
        )

    def test_non_object_config_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[1]")
        assert run(["simulate", "--config", config, "--seed", 1, "--quiet"]) == 1
        assert self.only_error_line(capsys) == (
            "[cli] InvalidConfig: config root must be an object, got [1]"
        )

    @pytest.mark.parametrize("key", CHECKPOINT_KEYS)
    def test_checkpoint_missing_key_named(self, workspace, tmp_path, capsys, key):
        def edit(header, body):
            del header[key]

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys) == (
            f"[gnnase] InvalidConfigValue: checkpoint lacks key(s): {key}"
        )

    def test_format_tag_alone_is_not_a_checkpoint(self, workspace, tmp_path, capsys):
        root, config = workspace
        checkpoint = tmp_path / "model.bin"
        checkpoint.write_text(json.dumps({"format": CHECKPOINT_FORMAT}))
        recording = sorted((root / "requests").glob("healthy-*.csv"))[0]
        argv = ["diagnose", "--config", config, recording, "--checkpoint", checkpoint, "--quiet"]
        assert run(argv) == 1
        assert self.only_error_line(capsys) == (
            "[gnnase] InvalidConfigValue: checkpoint lacks key(s): " + ", ".join(CHECKPOINT_KEYS)
        )

    @staticmethod
    def diagnose_edited_checkpoint(workspace, tmp_path, edit) -> int:
        """Run diagnose on a copy of the trained checkpoint, once ``edit(header, body)``
        has changed its JSON header and its tensor bytes (a bytearray) in place."""
        root, config = workspace
        header, body = read_checkpoint(root / "run" / "model.bin")
        body = bytearray(body)
        edit(header, body)
        checkpoint = tmp_path / "model.bin"
        write_checkpoint(checkpoint, header, body)
        recording = sorted((root / "requests").glob("healthy-*.csv"))[0]
        argv = ["diagnose", "--config", config, recording, "--checkpoint", checkpoint, "--quiet"]
        return run(argv)

    def test_previous_checkpoint_format_rejected(self, workspace, tmp_path, capsys):
        assert CHECKPOINT_FORMAT == "gnnase-checkpoint-v5"
        # The same model in the v4 layout: one JSON object, each tensor base64 inside it.
        root, config = workspace
        header, body = read_checkpoint(root / "run" / "model.bin")
        header["format"] = "gnnase-checkpoint-v4"
        header["params"] = {
            name: {"shape": shape, "data": base64.b64encode(body[tensor_span(header, name)]).decode()}
            for name, shape in header["params"]
        }
        checkpoint = tmp_path / "v4.json"
        checkpoint.write_text(json.dumps(header) + "\n")
        recording = sorted((root / "requests").glob("healthy-*.csv"))[0]
        argv = ["diagnose", "--config", config, recording, "--checkpoint", checkpoint, "--quiet"]
        assert run(argv) == 1
        assert self.only_error_line(capsys) == (
            "[gnnase] InvalidConfigValue: unrecognized checkpoint format 'gnnase-checkpoint-v4'"
        )

    @pytest.mark.parametrize(
        "section, entry, part",
        [("params", "b_anom", "shape"), ("standardizer", "std", None), ("params", "W_type", None)],
    )
    def test_checkpoint_missing_entry_named(
        self, workspace, tmp_path, capsys, section, entry, part
    ):
        root, _ = workspace
        listed = read_checkpoint(root / "run" / "model.bin")[0]["params"]
        index = [name for name, _ in listed].index(entry) if section == "params" else None

        def edit(header, body):
            if section == "standardizer":
                del header[section][entry]
            elif part is None:
                del header["params"][index]
            else:
                del header["params"][index][1]

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        line = self.only_error_line(capsys)
        if section == "standardizer":
            assert line == "[gnnase] InvalidConfigValue: checkpoint lacks key standardizer.std"
        else:
            assert line.startswith(f"[gnnase] InvalidConfigValue: checkpoint params[{index}] is ")
            assert line.endswith(f"expected {listed[index]}")

    def test_checkpoint_wrong_shape_named(self, workspace, tmp_path, capsys):
        def edit(header, body):
            entry = next(e for e in header["params"] if e[0] == "W_gcn2")
            entry[1] = entry[1][::-1] + [1]

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys).startswith(
            "[gnnase] InvalidConfigValue: checkpoint params[4] is ['W_gcn2', "
        )

    @pytest.mark.parametrize("entry", ["standardizer.mean"])
    def test_checkpoint_wrong_length_named(self, workspace, tmp_path, capsys, entry):
        section, part = entry.split(".")

        def edit(header, body):
            header[section][part] = header[section][part][:-1]

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys).startswith(
            f"[gnnase] InvalidConfigValue: checkpoint {entry} must hold "
        )

    @pytest.mark.parametrize(
        "change", ["truncated", "trailing", "empty", "one_float_short", "tensor_missing"]
    )
    def test_checkpoint_body_length_named(self, workspace, tmp_path, capsys, change):
        root, _ = workspace
        header, body = read_checkpoint(root / "run" / "model.bin")
        size = len(body)
        w_embed, w_sev2 = tensor_span(header, "W_embed"), tensor_span(header, "W_sev2")
        edited = {
            "truncated": body[: size // 2],
            "trailing": body + b"\n",
            "empty": b"",
            "one_float_short": body[: w_embed.stop - 8] + body[w_embed.stop :],
            "tensor_missing": body[: w_sev2.start] + body[w_sev2.stop :],
        }[change]

        def edit(header, body):
            body[:] = edited

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys) == (
            f"[gnnase] InvalidConfigValue: checkpoint must hold {size} bytes after its first "
            f"line, found {len(edited)}"
        )

    @pytest.mark.parametrize("kind", ["strings", "booleans"])
    def test_checkpoint_standardizer_non_numbers_named(self, workspace, tmp_path, capsys, kind):
        root, _ = workspace
        count = len(read_checkpoint(root / "run" / "model.bin")[0]["standardizer"]["mean"])

        def edit(header, body):
            mean = header["standardizer"]["mean"]
            mean[:] = [str(v) for v in mean] if kind == "strings" else [True] * count

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys) == (
            f"[gnnase] InvalidConfigValue: checkpoint standardizer.mean must hold {count} numbers"
        )

    @pytest.mark.parametrize(
        "entry, value",
        [
            ("params.W_embed.data", float("nan")),
            ("params.b_anom.data", float("inf")),
            ("standardizer.mean", float("nan")),
            ("standardizer.std", float("-inf")),
            pytest.param("standardizer.mean", 10**400, id="standardizer.mean-10**400"),
        ],
    )
    def test_checkpoint_non_finite_value_named(self, workspace, tmp_path, capsys, entry, value):
        section, *rest = entry.split(".")

        def edit(header, body):
            if section == "params":
                end = tensor_span(header, rest[0]).stop
                body[end - 8 : end] = np.array([value], dtype="<f8").tobytes()
            else:
                header[section][rest[0]][0] = value  # json.dumps writes NaN / -Infinity

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys) == (
            f"[gnnase] InvalidConfigValue: checkpoint {entry} holds a NaN or infinite number"
        )

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_checkpoint_std_below_floor_named(self, workspace, tmp_path, capsys, value):
        def edit(header, body):
            header["standardizer"]["std"][2] = value

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys) == (
            "[gnnase] InvalidConfigValue: checkpoint standardizer.std must hold values >= 1e-12"
        )

    @pytest.mark.parametrize(
        "key, value", [("pipeline", None), ("standardizer", None), ("epoch", "x"), ("epoch", -1)]
    )
    def test_checkpoint_bad_value_named(self, workspace, tmp_path, capsys, key, value):
        def edit(header, body):
            header[key] = value

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys).startswith(
            f"[gnnase] InvalidConfigValue: checkpoint {key} must be "
        )

    @pytest.mark.parametrize(
        "content", [b"not json", b'{"format": "caf\xe9"}', None], ids=["text", "latin1", "header_latin1"]
    )
    def test_checkpoint_not_utf8_json(self, workspace, tmp_path, capsys, content):
        root, config = workspace
        if content is None:  # the trained checkpoint, with one byte of its header not UTF-8
            content = (root / "run" / "model.bin").read_bytes().replace(b'"full"', b'"f\xfcll"', 1)
        checkpoint = tmp_path / "model.bin"
        checkpoint.write_bytes(content)
        recording = sorted((root / "requests").glob("healthy-*.csv"))[0]
        argv = ["diagnose", "--config", config, recording, "--checkpoint", checkpoint, "--quiet"]
        assert run(argv) == 1
        assert self.only_error_line(capsys).startswith(
            f"[gnnase] InvalidConfigValue: checkpoint {checkpoint} is not UTF-8 JSON: "
        )

    @pytest.mark.parametrize("edit", ["blank_line", "latin1"])
    def test_unreadable_recording_line_named(self, workspace, tmp_path, capsys, edit):
        root, config = workspace
        source = sorted((root / "requests").glob("healthy-*.csv"))[0]
        lines = source.read_bytes().split(b"\n")
        lines[3] = b"" if edit == "blank_line" else lines[3] + b"\xe9"  # line 4
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        assert run(["diagnose", "--config", config, bad, "--quiet"]) == 1
        assert self.only_error_line(capsys).startswith(f"[simulate] ParseError: {bad}: line 4: ")

    @pytest.mark.parametrize("edit", ["not_json", "entry_without_seed", "csv_catalog"])
    def test_bad_manifest_is_one_line(self, workspace, tmp_path, capsys, edit):
        root, _ = workspace
        dataset = tmp_path / "dataset"
        dataset.mkdir()
        manifest = json.loads((root / "data" / "manifest.json").read_text())
        if edit == "entry_without_seed":
            del manifest["recordings"][0]["seed"]
            named = "recordings[0].seed"
        elif edit == "csv_catalog":
            # The manifest of a catalog stored as CSV files: no channel list.
            del manifest["channels"]
            for entry in manifest["recordings"]:
                entry["file"] = entry["name"] + ".csv"
            named = "channels"
        manifest_path = dataset / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        if edit == "not_json":
            manifest_path.write_text("not json")
            named = "not UTF-8 JSON"
        config = write_config(
            tmp_path,
            extra={"paths.dataset_dir": str(dataset), "paths.out_dir": str(tmp_path / "run")},
        )
        assert run(["train", "--config", config, "--quiet"]) == 1
        line = self.only_error_line(capsys)
        assert line.startswith(f"[simulate] ParseError: {manifest_path}: ") and named in line

    def test_diagnose_refuses_another_sample_rate(self, workspace, tmp_path, capsys):
        root, config = workspace
        machine = simulate.MachineSpec(sample_rate=4000.0, duration=0.5)
        healthy = simulate.FaultSpec(kind="healthy")
        rec = simulate.synthesize(machine, simulate.OperatingPoint.from_load(0), healthy, 30.0, 1)
        fast = tmp_path / "fast.csv"
        simulate.write_recording_csv(fast, rec)
        assert run(["diagnose", "--config", config, fast, "--quiet"]) == 1
        assert self.only_error_line(capsys) == (
            "[model] SampleRateMismatch: recording fast is sampled at 4000.0 Hz, "
            "the model at 2000.0 Hz"
        )

    def test_evaluate_refuses_another_sample_rate(self, workspace, tmp_path, capsys):
        root, _ = workspace
        config = write_config(
            tmp_path,
            extra={
                "machine.sample_rate": 4000,
                "paths.dataset_dir": str(tmp_path / "data"),
                "paths.out_dir": str(tmp_path / "run"),
                "paths.checkpoint": str(root / "run" / "model.bin"),
            },
        )
        assert run(["simulate", "--config", config, "--quiet"]) == 0
        assert run(["evaluate", "--config", config, "--quiet"]) == 1
        line = self.only_error_line(capsys)
        assert line.startswith("[model] SampleRateMismatch: recording ")
        assert line.endswith(" is sampled at 4000.0 Hz, the model at 2000.0 Hz")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["diagnose", "evaluate"])
    def test_checkpoint_feature_dim_disagreeing_with_pipeline(
        self, workspace, tmp_path, capsys, command
    ):
        # 20 columns were trained, but the pipeline now yields the 12 time-domain ones.
        root, _ = workspace
        header, body = read_checkpoint(root / "run" / "model.bin")
        assert header["feature_dim"] == 20
        header["pipeline"]["include_frequency"] = False
        checkpoint = tmp_path / "model.bin"
        write_checkpoint(checkpoint, header, body)
        config = write_config(
            tmp_path,
            extra={
                "paths.dataset_dir": str(root / "data"),
                "paths.out_dir": str(tmp_path / "run"),
                "paths.checkpoint": str(checkpoint),
            },
        )
        recording = sorted((root / "requests").glob("healthy-*.csv"))[0]
        extra = [recording] if command == "diagnose" else []
        assert run([command, "--config", config, *extra, "--quiet"]) == 1
        assert self.only_error_line(capsys) == (
            "[gnnase] InvalidConfigValue: checkpoint feature_dim is 20, "
            "but its pipeline yields 12 features"
        )
        assert not (tmp_path / "run").exists()

    def test_diagnose_recording_shorter_than_a_window(self, workspace, tmp_path, capsys):
        # The 1000-sample request against a checkpoint whose windows hold 2048 samples.
        def edit(header, body):
            header["pipeline"]["window"]["window_len"] = 2048

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys) == (
            "[features] RecordingTooShort: recording length 1000 is below window_len 2048"
        )

    @pytest.mark.parametrize("value", ["no", None, 0])
    def test_checkpoint_non_boolean_include_frequency(self, workspace, tmp_path, capsys, value):
        def edit(header, body):
            header["pipeline"]["include_frequency"] = value

        assert self.diagnose_edited_checkpoint(workspace, tmp_path, edit) == 1
        assert self.only_error_line(capsys).startswith(
            "[cli] InvalidConfig: pipeline.include_frequency: expected a boolean"
        )

    @pytest.mark.parametrize("key", ["severity_bins", "severity_to_trunk"])
    def test_config_with_deleted_severity_option(self, tmp_path, capsys, key):
        value = 4 if key == "severity_bins" else False
        config = write_config(tmp_path, extra={f"model.{key}": value})
        assert run(["simulate", "--config", config, "--quiet"]) == 1
        assert self.only_error_line(capsys) == f"[cli] InvalidConfig: model.{key}: unknown key"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("filtered", [True, False], ids=["filter", "no_filter"])
    def test_non_finite_sample_rejected(self, workspace, tmp_path, capsys, value, filtered):
        root, config = workspace
        checkpoint = root / "run" / "model.bin"
        if not filtered:
            header, body = read_checkpoint(checkpoint)
            header["pipeline"]["filter"] = None
            checkpoint = tmp_path / "model.bin"
            write_checkpoint(checkpoint, header, body)
        source = sorted((root / "requests").glob("healthy-*.csv"))[0]
        lines = source.read_text().strip().split("\n")
        t, a, rest = lines[300].split(",", 2)
        lines[300] = f"{t},{value},{rest}"
        bad = tmp_path / "nonfinite.csv"
        bad.write_text("\n".join(lines) + "\n")
        argv = ["diagnose", "--config", config, bad, "--checkpoint", checkpoint, "--quiet"]
        assert run(argv) == 1
        assert self.only_error_line(capsys).startswith("[numerics] NonFinite: ")

    def test_exit_zero_only_on_success(self, tmp_path, capsys):
        config = write_config(
            tmp_path, extra={"model.ablation": "bogus"}
        )
        assert run(["simulate", "--config", config, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[")
        assert "ablation" in err
