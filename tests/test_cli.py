import json
import subprocess
import sys
from pathlib import Path

import pytest

from wsmsnet.cli import main

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def tiny_synth_config(tmp_path, stages=2, channels=16, epochs=1, lr=0.1,
                      per_class=8, **train_extra):
    body = {
        "schema_version": 1,
        "model": {
            "backbone": {"family": "resnet", "n": 1, "channels": [8, 16],
                         "class_count": 5},
            "stages": stages, "integration": "conv1x1",
            "integration_channels": channels, "sharing": "shared",
        },
        "train": {"epochs": epochs, "batch_size": 16,
                  "lr_schedule": [[1, lr]], "seed": 0, **train_extra},
        "data": {"kind": "synth", "train_per_class": per_class,
                 "test_per_class": 4, "seed": 0},
    }
    return write_config(tmp_path, body)


class TestCount:
    def test_reports_exact_totals_for_resnet110(self, capsys):
        assert main(["count", str(PRESETS / "resnet110.json")]) == 0
        out = capsys.readouterr().out
        assert "params_exact=1727962" in out
        assert "mults_exact=252887040" in out

    def test_reports_stage_overhead_for_multi_stage(self, capsys):
        assert main(["count", str(PRESETS / "wsms-resnet110-1x1.json")]) == 0
        out = capsys.readouterr().out
        assert "params_exact=1747866" in out
        assert "mults_exact=301423616" in out
        assert "stage2=0.1672" in out

    def test_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        assert main(["count", str(PRESETS / "resnet110.json"),
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "layer_path,kind,stage,params,mults,out_shape"
        assert len(lines) > 100

    def test_alternate_input_resolution(self, capsys):
        assert main(["count", str(PRESETS / "resnet110.json"),
                     "--input", "16x16"]) == 0
        assert "input=16x16" in capsys.readouterr().out

    def test_missing_config_exits_2(self, capsys):
        assert main(["count", "nope.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["count", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_bad_schema_version_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"schema_version": 9, "model": {}})
        assert main(["count", path]) == 2

    def test_invalid_model_section_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "schema_version": 1,
            "model": {"backbone": {"family": "resnet", "class_count": 10}}})
        assert main(["count", path]) == 2
        assert "needs integer 'n'" in capsys.readouterr().err


    def test_input_indivisible_by_pyramid_exits_2(self, capsys):
        assert main(["count", str(PRESETS / "wsms-resnet110-1x1.json"),
                     "--input", "30x30"]) == 2
        assert "must divide by 4" in capsys.readouterr().err

    @pytest.mark.parametrize("model,bad", [
        ({"stages": "2"}, "stages"),
        ({"integration_channels": "8"}, "integration_channels"),
        ({"stages": True}, "stages"),
        ({"backbone": {"family": "densenet", "growth": 4, "layers_per_block": "3",
                       "class_count": 5}}, "layers_per_block"),
        ({"backbone": {"family": "densenet", "growth": 4, "blocks": 2.0,
                       "class_count": 5}}, "blocks"),
        ({"backbone": {"family": "resnet", "n": 1, "channels": [8, "16"],
                       "class_count": 5}}, "channels"),
        ({"backbone": {"family": "resnet", "n": 1, "channels": 16,
                       "class_count": 5}}, "channels"),
        ({"backbone": {"family": "conv", "block_widths": [8, "8"],
                       "class_count": 5}}, "block_widths"),
        ({"backbone": {"family": "conv", "block_widths": [8, 8],
                       "convs_per_block": [1, None], "class_count": 5}}, "convs_per_block"),
        ({"backbone": {"family": "resnet", "n": 1, "channels": [8, -16],
                       "class_count": 5}}, "block 2 width must be >= 1"),
        ({"backbone": {"family": "resnet", "n": 1, "channels": [0, 16],
                       "class_count": 5}}, "stem width must be >= 1"),
        ({"backbone": {"family": "densenet", "growth": 4, "layers_per_block": 2,
                       "stem_channels": -4, "class_count": 5}}, "stem width must be >= 1"),
        ({"backbone": {"family": "conv", "block_widths": [8, -8],
                       "class_count": 5}}, "block 2 width must be >= 1"),
        ({"backbone": {"family": "conv", "block_widths": [8, 8],
                       "convs_per_block": [1, -1], "class_count": 5}}, "conv count must be >= 0"),
    ], ids=["stages", "integration_channels", "bool-stages", "layers_per_block", "blocks",
            "channels-item", "channels-scalar", "block_widths", "convs_per_block",
            "negative-channels", "zero-channels", "negative-stem_channels",
            "negative-block_widths", "negative-convs_per_block"])
    def test_non_integer_field_exits_2(self, tmp_path, capsys, model, bad):
        body = {"backbone": {"family": "resnet", "n": 1, "channels": [8, 16],
                             "class_count": 5},
                "stages": 2, "integration": "conv1x1", "integration_channels": 16}
        body.update(model)
        path = write_config(tmp_path, {"schema_version": 1, "model": body})
        assert main(["count", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad in err


class TestGradcheckCommand:
    def test_fault_injection_is_detected(self, capsys):
        assert main(["gradcheck", "--corrupt", "linear"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "linear" in out

    def test_unknown_case_exits_2(self, capsys):
        assert main(["gradcheck", "--corrupt", "nope"]) == 2
        assert "unknown gradcheck case 'nope'" in capsys.readouterr().err


class TestSynthDataCommand:
    def test_writes_splits_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert main(["synth-data", "--out", str(out_dir),
                     "--train-per-class", "4", "--test-per-class", "2"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["splits"]["train"]["examples"] == 20
        for info in manifest["splits"].values():
            assert (out_dir / info["file"]).exists()

    def test_bad_value_exits_2(self, tmp_path, capsys):
        assert main(["synth-data", "--out", str(tmp_path / "bench"), "--noise", "-1"]) == 2
        assert "noise must be >= 0" in capsys.readouterr().err


class TestTrainEvalPipeline:
    def test_train_then_eval_then_compare(self, tmp_path, capsys):
        config = tiny_synth_config(tmp_path, epochs=1)
        run_dir = tmp_path / "run"
        assert main(["train", config, "--out", str(run_dir)]) == 0
        for artifact in ("manifest.json", "metrics.jsonl",
                         "checkpoint-final.npz", "checkpoint-best.npz"):
            assert (run_dir / artifact).exists(), artifact
        assert not (run_dir / "run.lock").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["data"]["kind"] == "synth"
        assert len(manifest["normalization"]["mean"]) == 3
        capsys.readouterr()

        dump = tmp_path / "preds.csv"
        assert main(["eval", str(run_dir / "checkpoint-final.npz"), config,
                     "--out", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "error=" in out
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "id,true,pred,correct"
        assert len(lines) == 21  # 5 classes x 4 held-out examples + header

        assert main(["compare-preds", "--baselines", str(dump),
                     "--target", str(dump)]) == 0
        assert "0 examples" in capsys.readouterr().out

    def test_seed_override_is_recorded(self, tmp_path, capsys):
        config = tiny_synth_config(tmp_path, epochs=0)
        run_dir = tmp_path / "seeded"
        assert main(["train", config, "--out", str(run_dir),
                     "--seed", "7"]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["train"]["seed"] == 7
        assert manifest["data"]["config"]["seed"] == 7

    def test_existing_lock_exits_2(self, tmp_path, capsys):
        config = tiny_synth_config(tmp_path, epochs=0)
        run_dir = tmp_path / "locked"
        run_dir.mkdir()
        (run_dir / "run.lock").write_text("1234")
        assert main(["train", config, "--out", str(run_dir)]) == 2
        assert "locked" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, tmp_path, capsys):
        # lr * wd overflows float32 on the first step, so the second batch
        # sees non-finite weights and the loss stops being a number
        config = tiny_synth_config(tmp_path, epochs=2, lr=1e9,
                                   weight_decay=1e30)
        run_dir = tmp_path / "diverged"
        assert main(["train", config, "--out", str(run_dir)]) == 3
        assert "error:" in capsys.readouterr().err
        assert not (run_dir / "run.lock").exists()

    @pytest.mark.parametrize("data,flags,bad", [
        ({"noise": -1.0}, [], "noise must be >= 0"),
        ({"train_scales": [0.6]}, [], "train_scales must be like (0.6, 1.0), got (0.6,)"),
        ({"class_count": "5"}, [], "class_count must be like 5, got '5'"),
        ({"colour": True}, [], "unexpected keyword argument 'colour'"),
        ({}, ["--epochs", "-1"], "epochs must be >= 0"),
        ({}, ["--seed", "-3"], "seed must be >= 0"),
    ], ids=["negative-noise", "one-scale", "string-class_count", "unknown-key",
            "negative-epochs", "negative-seed"])
    def test_bad_data_or_override_exits_2(self, tmp_path, capsys, data, flags, bad):
        body = json.loads(Path(tiny_synth_config(tmp_path, epochs=0)).read_text())
        body["data"].update(data)
        path = write_config(tmp_path, body, "bad.json")
        assert main(["train", path, "--out", str(tmp_path / "run"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad in err

    def test_bad_train_key_exits_2(self, tmp_path, capsys):
        body = json.loads(Path(tiny_synth_config(tmp_path)).read_text())
        body["train"]["warmup"] = 1
        path = write_config(tmp_path, body, "bad.json")
        assert main(["train", path, "--out", str(tmp_path / "x")]) == 2
        assert "unknown train config keys" in capsys.readouterr().err


class TestConsoleEntryPoint:
    def test_module_invocation_works(self):
        result = subprocess.run(
            [sys.executable, "-m", "wsmsnet.cli", "--threads", "1", "count",
             str(PRESETS / "synth-wsms-tiny.json")],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert "params_exact=5485" in result.stdout
