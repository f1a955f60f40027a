import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wsmsnet.cli import CIFAR_TEST_FILE, CIFAR_TRAIN_FILES, _resolve_datasets, main
from wsmsnet.data import (Dataset, SynthScaleConfig, encode_cifar, normalize_per_channel,
                          synth_scale_dataset)
from wsmsnet.model import build_model, save_checkpoint
from wsmsnet.specs import model_from_config

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"
TINY_PRESET = str(PRESETS / "synth-wsms-tiny.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


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


def write_cifar_root(root, per_file, test_count, seed=11):
    """Five training files of ``per_file`` random records and a test file of
    ``test_count`` under ``root``; returns each file's (images, labels) by name."""
    rng = np.random.default_rng(seed)
    files = {}
    for name in (*CIFAR_TRAIN_FILES, CIFAR_TEST_FILE):
        count = test_count if name == CIFAR_TEST_FILE else per_file
        images = rng.integers(0, 256, (count, 3, 32, 32), dtype=np.uint8)
        labels = rng.integers(0, 10, count)
        (root / name).write_bytes(encode_cifar(images, labels))
        files[name] = (images, labels)
    return files


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
        ({"backbone": {"family": "resnet", "n": 1, "channels": [8, -16],
                       "class_count": 5}}, "block 2 width must be >= 1"),
        ({"backbone": {"family": "resnet", "n": 1, "channels": [0, 16],
                       "class_count": 5}}, "stem width must be >= 1"),
        ({"backbone": {"family": "resnet", "n": 1, "channels": [16, 8],
                       "class_count": 5}}, "block 2 width 8 is below the previous 16"),
        ({"backbone": {"family": "densenet", "growth": 4, "layers_per_block": 2,
                       "stem_channels": -4, "class_count": 5}}, "stem width must be >= 1"),
    ], ids=["stages", "integration_channels", "bool-stages", "layers_per_block", "blocks",
            "channels-item", "channels-scalar",
            "negative-channels", "zero-channels", "narrowing-channels",
            "negative-stem_channels"])
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

    def test_negative_seed_exits_2(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")


class TestThreadsFlag:
    @pytest.mark.parametrize("count", ("0", "-1"))
    def test_count_below_one_exits_2_before_setting_anything(self, monkeypatch, capsys,
                                                             count):
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "untouched")
        with pytest.raises(SystemExit) as exit_info:
            main(["--threads", count, "count", TINY_PRESET])
        assert exit_info.value.code == 2
        assert "thread count >= 1" in capsys.readouterr().err
        assert all(os.environ[var] == "untouched" for var in THREAD_VARS)


class TestSynthDataCommand:
    def test_writes_splits_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert main(["synth-data", "--out", str(out_dir),
                     "--train-per-class", "4", "--test-per-class", "2"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["splits"]["train"]["examples"] == 20
        for info in manifest["splits"].values():
            assert (out_dir / info["file"]).exists()

    def test_defaults_are_the_config_class_defaults(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert main(["synth-data", "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"] == json.loads(json.dumps(asdict(SynthScaleConfig())))

    def test_bad_value_exits_2(self, tmp_path, capsys):
        assert main(["synth-data", "--out", str(tmp_path / "bench"), "--noise", "-1"]) == 2
        assert "noise must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--train-per-class", "--test-per-class"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_per_class_count_below_1_exits_2(self, tmp_path, capsys, flag, count):
        out_dir = tmp_path / "bench"
        assert main(["synth-data", "--out", str(out_dir), flag, count]) == 2
        assert f"{flag[2:].replace('-', '_')} must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()


def npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def checkpoint_bytes(without: str = "", edit_meta=None) -> bytes:
    """A seed-0 checkpoint of the tiny preset with the array ``without`` left
    out and its meta object changed in place by ``edit_meta``."""
    spec = model_from_config(json.loads(Path(TINY_PRESET).read_text())["model"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_checkpoint(build_model(spec, seed=0), path)
        with np.load(path) as z:
            arrays = {key: z[key] for key in z.files if key != without}
    if edit_meta is not None:
        meta = json.loads(arrays["meta"].tobytes().decode())
        edit_meta(meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return npz_bytes(**arrays)


class TestBadInputFiles:
    @pytest.mark.parametrize("name,content,expected", [
        ("bad.npz", b"not a checkpoint\n", "is not a wsmsnet checkpoint"),
        ("old.npz", npz_bytes(meta=np.frombuffer(b'{"format_version": 99}', dtype=np.uint8)),
         "unsupported checkpoint format version 99"),
        ("nomodel.npz", npz_bytes(meta=np.frombuffer(b'{"format_version": 1}', dtype=np.uint8)),
         "checkpoint meta has no model config"),
        ("noparam.npz", checkpoint_bytes(without="param_0"),
         "checkpoint is incomplete (param_0"),
        ("list.npz", npz_bytes(meta=np.frombuffer(b'[1]', dtype=np.uint8)),
         "checkpoint meta must be an object"),
        ("params.npz", checkpoint_bytes(edit_meta=lambda m: m.update(params=5)),
         "checkpoint meta is malformed"),
        ("entries.npz", checkpoint_bytes(
            edit_meta=lambda m: m.update(params=[p["name"] for p in m["params"]])),
         "checkpoint meta is malformed"),
        ("preds.csv", b"who,what\n1,2\n", "unexpected prediction dump header"),
        ("preds.csv", b"id,true,pred,correct\n1,2,x,0\n", "preds.csv: line 2: expected"),
        ("preds.csv", b"id,true,pred,correct\n0,1,1,1\n1,2,0\n", "preds.csv: line 3: expected"),
        ("dir.npz", None, "Is a directory"),
    ], ids=["not-a-checkpoint", "other-format-version", "meta-without-model",
            "missing-param-array", "meta-not-an-object", "params-not-a-list",
            "param-entry-not-an-object", "dump-header", "dump-non-integer",
            "dump-three-columns", "checkpoint-is-a-directory"])
    def test_exits_2(self, tmp_path, capsys, name, content, expected):
        # the directory stands in for any unreadable path: a permission error
        # cannot be provoked when the tests run as root
        path = tmp_path / name
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        if name.endswith(".npz"):
            argv = ["eval", str(path), TINY_PRESET]
        else:
            argv = ["compare-preds", "--baselines", str(path), "--target", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and expected in err


def checkpoint_with(**arrays) -> bytes:
    """The tiny preset's seed-0 checkpoint with ``arrays`` in place of its own."""
    with np.load(io.BytesIO(checkpoint_bytes())) as z:
        return npz_bytes(**{**{key: z[key] for key in z.files}, **arrays})


class TestCheckpointArrays:
    @pytest.mark.parametrize("arrays,expected", [
        ({"param_0": np.zeros((3, 3), np.float32)}, "'param_0' is float32 (3, 3)"),
        ({"bn_0_mean": np.zeros(5, np.float32)}, "'bn_0_mean' is float32 (5,)"),
        ({"param_0": np.zeros((8, 3, 3, 3), np.float64)}, "'param_0' is float64 (8, 3, 3, 3)"),
        ({"param_0": np.array([None], dtype=object)}, "'param_0' cannot be read: Object arrays"),
    ], ids=["param-shape", "buffer-shape", "param-dtype", "param-object"])
    def test_an_array_unlike_the_rebuilt_one_exits_2(self, tmp_path, capsys, arrays, expected):
        path = tmp_path / "model.npz"
        path.write_bytes(checkpoint_with(**arrays))
        assert main(["eval", str(path), TINY_PRESET]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and expected in err


class TestCifarData:
    """The CIFAR data path, on five small training files and a test file."""
    PER_FILE = 40

    @pytest.fixture
    def cifar_root(self, tmp_path):
        return tmp_path, write_cifar_root(tmp_path, self.PER_FILE, 20)

    @staticmethod
    def config(train_limit, test_limit=0):
        return {"data": {"kind": "cifar10", "train_limit": train_limit,
                         "test_limit": test_limit}}

    def test_limit_keeps_the_leading_records_across_files(self, cifar_root):
        root, files = cifar_root
        limit = self.PER_FILE + 10  # all of the first file and part of the second
        train_n, eval_n, mean, std, manifest = _resolve_datasets(self.config(limit, 7), root)
        raw = np.concatenate([files[f][0] for f in CIFAR_TRAIN_FILES])[:limit]
        kept = Dataset(np.divide(raw, np.float32(255.0), dtype=np.float32),
                       np.concatenate([files[f][1] for f in CIFAR_TRAIN_FILES])[:limit],
                       np.arange(limit), 10)
        test_images, test_labels = files[CIFAR_TEST_FILE]
        test = Dataset(np.divide(test_images[:7], np.float32(255.0), dtype=np.float32),
                       test_labels[:7], np.arange(7), 10)
        want_train, (want_eval,), want_mean, want_std = normalize_per_channel(kept, test)
        for got, want in ((mean, want_mean), (std, want_std), (train_n.images, want_train.images),
                          (eval_n.images, want_eval.images)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(train_n.labels, kept.labels)
        np.testing.assert_array_equal(train_n.ids, np.arange(limit))
        np.testing.assert_array_equal(eval_n.labels, test.labels)
        digest = hashlib.sha256()
        for name in (*CIFAR_TRAIN_FILES, CIFAR_TEST_FILE):
            digest.update((root / name).read_bytes())
        assert manifest == {"kind": "cifar10", "root": str(root), "sha256": digest.hexdigest(),
                            "train_examples": limit, "test_examples": 7}

    def test_no_limit_keeps_every_record(self, cifar_root):
        root, _ = cifar_root
        train_n, eval_n, *_ = _resolve_datasets(self.config(0), root)
        assert len(train_n) == 5 * self.PER_FILE and len(eval_n) == 20

    def test_a_limit_inside_the_first_file_holds_one_file_at_a_time(self, cifar_root):
        # each file's float32 images are dropped before the next file is read
        root, _ = cifar_root
        tracemalloc.start()
        try:
            _resolve_datasets(self.config(10), root)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * self.PER_FILE * 3 * 32 * 32 * 4

    def test_each_file_is_read_once_in_order(self, cifar_root, monkeypatch):
        root, _ = cifar_root
        reads, read_bytes = [], Path.read_bytes

        def counted(path):
            reads.append(path.name)
            return read_bytes(path)
        monkeypatch.setattr(Path, "read_bytes", counted)
        _resolve_datasets(self.config(self.PER_FILE + 10, 7), root)
        assert reads == [*CIFAR_TRAIN_FILES, CIFAR_TEST_FILE]

    def test_a_few_test_records_hold_no_float_copy_of_the_test_file(self, tmp_path):
        write_cifar_root(tmp_path, 10, 400)
        tracemalloc.start()
        try:
            _resolve_datasets(self.config(0, 5), tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400 * 3 * 32 * 32 * 4

    def test_train_then_eval_through_main(self, tmp_path, capsys):
        root = tmp_path / "cifar"
        root.mkdir()
        write_cifar_root(root, 4, 8)
        body = json.loads(Path(tiny_synth_config(tmp_path)).read_text())
        body["model"]["backbone"]["class_count"] = 10
        body["data"] = {"kind": "cifar10", "train_limit": 6, "test_limit": 5}
        config, run_dir = write_config(tmp_path, body, "cifar.json"), tmp_path / "run"
        assert main(["train", config, "--out", str(run_dir), "--data", str(root)]) == 0
        digest = hashlib.sha256()
        for name in (*CIFAR_TRAIN_FILES, CIFAR_TEST_FILE):
            digest.update((root / name).read_bytes())
        assert json.loads((run_dir / "manifest.json").read_text())["data"] == {
            "kind": "cifar10", "root": str(root), "sha256": digest.hexdigest(),
            "train_examples": 6, "test_examples": 5}
        capsys.readouterr()
        assert main(["eval", str(run_dir / "checkpoint-final.npz"), config,
                     "--data", str(root)]) == 0
        assert "over 5 examples" in capsys.readouterr().out


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
        (run_dir / "run.lock").write_text(str(os.getpid()))
        assert main(["train", config, "--out", str(run_dir)]) == 2
        assert "locked" in capsys.readouterr().err

    def test_lock_of_a_finished_process_is_replaced(self, tmp_path, capsys):
        config = tiny_synth_config(tmp_path, epochs=0)
        run_dir = tmp_path / "stale"
        run_dir.mkdir()
        finished = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                                  capture_output=True, text=True, check=True)
        (run_dir / "run.lock").write_text(finished.stdout.strip())
        assert main(["train", config, "--out", str(run_dir)]) == 0
        assert (run_dir / "checkpoint-final.npz").exists()
        assert not (run_dir / "run.lock").exists()

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
        ({"colour": True}, [], "unknown synth config keys: ['colour']"),
        ({}, ["--epochs", "-1"], "epochs must be >= 0"),
        ({}, ["--seed", "-3"], "seed must be >= 0"),
        ({"class_count": 3}, [], "data section has 3 classes, model expects 5"),
        ({"eval_split": "test"}, [], "synth eval_split must be 'held' or 'seen', got 'test'"),
    ], ids=["negative-noise", "one-scale", "string-class_count", "unknown-key",
            "negative-epochs", "negative-seed", "class-count-mismatch", "bad-eval_split"])
    def test_bad_data_or_override_exits_2(self, tmp_path, capsys, data, flags, bad):
        body = json.loads(Path(tiny_synth_config(tmp_path, epochs=0)).read_text())
        body["data"].update(data)
        path = write_config(tmp_path, body, "bad.json")
        run_dir = tmp_path / "run"
        assert main(["train", path, "--out", str(run_dir), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad in err
        assert not run_dir.exists()

    def test_seen_eval_split_evaluates_on_the_seen_scales(self, tmp_path):
        body = json.loads(Path(tiny_synth_config(tmp_path, epochs=0)).read_text())
        section = {key: value for key, value in body["data"].items() if key != "kind"}
        train, seen, _held = synth_scale_dataset(SynthScaleConfig.from_dict(section))
        _, (want,), _, _ = normalize_per_channel(train, seen)
        body["data"]["eval_split"] = "seen"
        _, eval_n, *_ = _resolve_datasets(body)
        assert eval_n.images.tobytes() == want.images.tobytes()
        np.testing.assert_array_equal(eval_n.labels, want.labels)
        np.testing.assert_array_equal(eval_n.ids, want.ids)
        run_dir = tmp_path / "run"
        assert main(["train", write_config(tmp_path, body, "seen.json"),
                     "--out", str(run_dir)]) == 0
        assert json.loads((run_dir / "manifest.json").read_text())["data"]["eval_split"] == "seen"

    def test_eval_on_data_of_another_class_count_exits_2(self, tmp_path, capsys):
        body = json.loads(Path(tiny_synth_config(tmp_path, epochs=0)).read_text())
        checkpoint = tmp_path / "model.npz"
        save_checkpoint(build_model(model_from_config(body["model"]), seed=0), checkpoint)
        body["data"]["class_count"] = 3
        path = write_config(tmp_path, body, "three.json")
        assert main(["eval", str(checkpoint), path]) == 2
        assert capsys.readouterr().err.startswith(
            "error: config data section has 3 classes, model expects 5")

    def test_data_section_not_an_object_exits_2(self, tmp_path, capsys):
        body = json.loads(Path(tiny_synth_config(tmp_path, epochs=0)).read_text())
        body["data"] = ["synth"]
        path = write_config(tmp_path, body, "bad.json")
        run_dir = tmp_path / "run"
        assert main(["train", path, "--out", str(run_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: config data section must be an object")
        assert not run_dir.exists()
        checkpoint = tmp_path / "model.npz"
        save_checkpoint(build_model(model_from_config(body["model"]), seed=0), checkpoint)
        assert main(["eval", str(checkpoint), path]) == 2
        assert capsys.readouterr().err.startswith("error: config data section must be an object")

    def test_cifar_data_needs_a_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("WSMSNET_DATA", raising=False)
        run_dir = tmp_path / "run"
        assert main(["train", str(PRESETS / "cifar-smoke.json"), "--out", str(run_dir)]) == 2
        assert "dataset root not found" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_bad_train_key_exits_2(self, tmp_path, capsys):
        body = json.loads(Path(tiny_synth_config(tmp_path)).read_text())
        body["train"]["warmup"] = 1
        path = write_config(tmp_path, body, "bad.json")
        assert main(["train", path, "--out", str(tmp_path / "x")]) == 2
        assert "unknown train config keys" in capsys.readouterr().err


# Valid presets whose sections a broken field is drawn from: a resnet on synth
# data, a resnet on cifar data with limits, and a densenet.
BROKEN_BASES = ("synth-wsms-tiny", "cifar-smoke", "densenet24")
SECTIONS = ("model", "backbone", "train", "data")
REQUIRED = {"model": {"backbone"}, "train": {"epochs"}, "data": {"kind"},
            "backbone": {"family", "class_count", "n", "growth"}}
# JSON values of another kind than the one a field holds; an int also fills a
# number field, so it is no wrong kind there
WRONG_KINDS = {
    int: ["5", 1.5, True, None, [1], {}],
    float: ["0.5", False, None, [0.5], {}],
    bool: ["no", 1, 0.0, None, [True], {}],
    str: [1, 0.5, False, None, ["held"], {}],
    list: ["8", 8, 0.5, True, None, {}],
    dict: ["x", 1, [], None],
}
DELETE = object()


def section_of(body, section):
    return body["model"]["backbone"] if section == "backbone" else body[section]


def load_preset(name):
    return json.loads((PRESETS / f"{name}.json").read_text())


@st.composite
def broken_fields(draw):
    """(preset, section, key, value): one field of one section of a valid
    preset broken by an unknown key, a deleted required field, or a value of
    the wrong kind."""
    preset = draw(st.sampled_from(BROKEN_BASES))
    section = draw(st.sampled_from(SECTIONS))
    fields = section_of(load_preset(preset), section)
    how = draw(st.sampled_from(("unknown", "missing", "wrong")))
    if how == "unknown":
        return preset, section, draw(st.from_regex(r"x_[a-z]{1,6}", fullmatch=True)), 1
    if how == "missing":
        required = sorted(REQUIRED[section] & set(fields))
        return preset, section, draw(st.sampled_from(required)), DELETE
    key = draw(st.sampled_from(sorted(fields)))
    return preset, section, key, draw(st.sampled_from(WRONG_KINDS[type(fields[key])]))


class TestMalformedConfig:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(broken_fields())
    @example(("synth-wsms-tiny", "train", "epochs", 1.5))
    @example(("synth-wsms-tiny", "train", "batch_size", 64.0))
    @example(("synth-wsms-tiny", "train", "augment", "no"))
    @example(("synth-wsms-tiny", "train", "lr_schedule", [[1.7, 0.1]]))
    @example(("synth-wsms-tiny", "train", "epoch", 3))
    @example(("synth-wsms-tiny", "data", "noise", -1))
    @example(("synth-wsms-tiny", "data", "nosie", 0.1))
    @example(("synth-wsms-tiny", "data", "test_per_class", 0))
    @example(("synth-wsms-tiny", "data", "train_per_class", 0))
    @example(("synth-wsms-tiny", "data", "train_per_class", -3))
    @example(("synth-wsms-tiny", "model", "stgaes", 2))
    @example(("synth-wsms-tiny", "backbone", "chanels", [8, 16]))
    @example(("densenet24", "backbone", "growht", 12))
    @example(("cifar-smoke", "data", "train_limit", "5"))
    @example(("cifar-smoke", "data", "train_limt", 5))
    def test_train_exits_2_before_making_the_run_directory(self, capsys, case):
        preset, section, key, value = case
        body = load_preset(preset)
        if value is DELETE:
            del section_of(body, section)[key]
        else:
            section_of(body, section)[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp) / "run"
            config = write_config(Path(tmp), body)
            assert main(["train", config, "--out", str(run_dir), "--data", tmp]) == 2
            assert not run_dir.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_unknown_family_exits_2(self, tmp_path, capsys):
        body = load_preset("synth-wsms-tiny")
        body["model"]["backbone"]["family"] = "conv"
        run_dir = tmp_path / "run"
        assert main(["train", write_config(tmp_path, body), "--out", str(run_dir)]) == 2
        assert not run_dir.exists()
        assert ("unknown backbone family 'conv'; expected one of ('resnet', 'densenet')"
                in capsys.readouterr().err)

    def test_images_the_model_cannot_take_exit_2_before_making_the_run_directory(
            self, tmp_path, capsys):
        body = load_preset("synth-wsms-tiny")
        body["data"].update(image_size=33, train_per_class=2, test_per_class=2)
        run_dir = tmp_path / "run"
        assert main(["train", write_config(tmp_path, body), "--out", str(run_dir)]) == 2
        assert not run_dir.exists()
        assert "error: input 33x33 must divide by 2 for 2 stages" in capsys.readouterr().err


def run_python(*args):
    # pytest's pythonpath setting reaches only its own process, not a child
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=env)


class TestConsoleEntryPoint:
    def test_module_invocation_works(self):
        result = run_python("-m", "wsmsnet.cli", "--threads", "1", "count", TINY_PRESET)
        assert result.returncode == 0
        assert "params_exact=5485" in result.stdout

    def test_cli_import_leaves_numpy_unloaded(self):
        # --threads sets the BLAS thread variables before numpy loads, which
        # holds only while importing the CLI imports no numpy
        result = run_python("-c", "import sys, wsmsnet.cli; "
                                  "assert 'numpy' not in sys.modules")
        assert result.returncode == 0, result.stderr
