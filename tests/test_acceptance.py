"""Acceptance suite: the package's headline guarantees, end to end.

Every test here checks a promise the README makes — preset cost totals,
gradient correctness of the autodiff engine, the exact semantics of
cross-stage weight sharing, the scale-generalization benchmark, and
bit-exact reproducibility of training runs.  Tolerances are pinned as
module constants; a failure here means a shipped guarantee broke.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from blas_threads import use_one_blas_thread
from wsmsnet import cli, ops
from wsmsnet.autodiff import Tensor
from wsmsnet.cost import cost_report, stage_overhead
from wsmsnet.data import (SynthScaleConfig, normalize_per_channel,
                          synth_scale_dataset)
from wsmsnet.gradcheck import run_suite
from wsmsnet.model import build_model, image_pyramid, load_checkpoint, save_checkpoint
from wsmsnet.specs import WsmsSpec, model_from_config, stage_plan
from wsmsnet.trainer import TrainConfig, evaluate, train

PRESET_DIR = Path(__file__).resolve().parents[1] / "presets"

# Cost-model targets the presets promise (totals in millions).  Parameter
# totals must land within 2%, multiplication totals within 5%.
PARAM_RTOL = 0.02
MULT_RTOL = 0.05

RESNET_PARAM_TARGETS_M = {
    "resnet110": 1.73,
    "resnet116": 1.82,
    "resnet122": 1.92,
    "wsms-resnet110-none": 1.73,
    "wsms-resnet110-1x1": 1.75,
    "wsms-resnet110-3x3": 1.86,
    "ms-resnet110-1x1": 2.23,
}

DENSENET_PARAM_TARGETS_M = {
    "densenet24": 27.2,
    "densenet26": 31.9,
    "wsms-densenet24-none": 27.4,
    "wsms-densenet24-1x1": 28.0,
    "wsms-densenet24-3x3": 32.7,
    "ms-densenet24-1x1": 41.3,
}

MULT_TARGETS_M = {
    "resnet110": 252.0,
    "wsms-resnet110-1x1": 301.0,
    "densenet24": 6889.0,
    "wsms-densenet24-1x1": 8454.0,
}

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_BUDGET_S = 120.0
CLONE_GRAD_ATOL = 1e-10

BENCHMARK_SEEDS = (0, 1, 2, 3, 4)
BENCHMARK_PRESETS = {"wsms": "synth-wsms-tiny", "base": "synth-baseline-tiny"}
BENCHMARK_WORKERS = 2
BENCHMARK_MIN_WINS = 4
BENCHMARK_RUN_BUDGET_S = 600.0


def load_preset(name: str) -> dict:
    with open(PRESET_DIR / f"{name}.json") as f:
        return json.load(f)


def preset_spec(name: str) -> WsmsSpec:
    return model_from_config(load_preset(name)["model"])


class TestResidualFamilyParameterTable:
    """Parameter totals of every residual-family preset, within 2%."""

    @pytest.mark.parametrize("name,target_m",
                             sorted(RESNET_PARAM_TARGETS_M.items()))
    def test_preset_total(self, name, target_m):
        total_m = cost_report(preset_spec(name)).total_params / 1e6
        assert total_m == pytest.approx(target_m, rel=PARAM_RTOL), \
            f"{name}: {total_m:.4f}M vs target {target_m}M"


class TestDenseFamilyParameterTable:
    """Parameter totals of every dense-family preset, within 2%."""

    @pytest.mark.parametrize("name,target_m",
                             sorted(DENSENET_PARAM_TARGETS_M.items()))
    def test_preset_total(self, name, target_m):
        total_m = cost_report(preset_spec(name)).total_params / 1e6
        assert total_m == pytest.approx(target_m, rel=PARAM_RTOL), \
            f"{name}: {total_m:.4f}M vs target {target_m}M"


class TestMultiplicationBudget:
    """Multiplication totals at 32x32, within 5%, and the cheap-stage rule."""

    @pytest.mark.parametrize("name,target_m", sorted(MULT_TARGETS_M.items()))
    def test_preset_total(self, name, target_m):
        total_m = cost_report(preset_spec(name), (32, 32)).total_mults / 1e6
        assert total_m == pytest.approx(target_m, rel=MULT_RTOL), \
            f"{name}: {total_m:.1f}M vs target {target_m}M"

    @pytest.mark.parametrize("name", ["wsms-resnet110-1x1", "wsms-densenet24-1x1"])
    def test_added_stages_stay_cheap(self, name):
        # each pathway runs on a half-resolution input with one fewer block,
        # so stage 2 must cost under a quarter of stage 1 and stage 3 less
        ratios = stage_overhead(preset_spec(name), (32, 32))
        assert ratios[2] < 0.25, f"{name}: stage-2 overhead {ratios[2]:.4f}"
        assert ratios[3] < ratios[2]


class TestMergedFeatureWidth:
    """Concatenated pathway widths are exact, first stage leading."""

    def test_residual_family_concat_width(self):
        plan = stage_plan(preset_spec("wsms-resnet110-1x1"))
        assert plan.stage_channels == (64, 32, 16)
        assert plan.concat_channels == 112

    def test_dense_family_concat_width(self):
        plan = stage_plan(preset_spec("wsms-densenet24-1x1"))
        assert plan.concat_channels == 4656


class TestGradientRules:
    """Every backward rule agrees with finite differences, quickly."""

    def test_suite_passes_within_budget(self):
        t0 = time.perf_counter()
        results = run_suite(seed=0)
        elapsed = time.perf_counter() - t0
        worst = max(results.values())
        assert worst <= GRADCHECK_TOLERANCE, \
            f"worst case {max(results, key=results.get)}: {worst:.3e}"
        assert len(results) >= 10
        assert elapsed < GRADCHECK_BUDGET_S, f"gradcheck took {elapsed:.1f}s"

    def test_injected_fault_is_caught(self):
        results = run_suite(seed=0, corrupt="conv2d")
        assert results["conv2d"] > GRADCHECK_TOLERANCE
        clean = {k: v for k, v in results.items() if k != "conv2d"}
        assert max(clean.values()) <= GRADCHECK_TOLERANCE


class TestSharingGuarantees:
    """Sharing is real object identity with exactly the promised semantics."""

    def test_clone_gradients_sum_to_shared_gradient(self, tiny_backbone,
                                                     check_clone_gradients_sum):
        shared_spec = WsmsSpec(tiny_backbone, stages=2, integration="conv1x1",
                               integration_channels=16, sharing="shared")
        assert check_clone_gradients_sum(shared_spec, 32, CLONE_GRAD_ATOL) >= 4

    def test_batch_norm_stays_private_to_its_stage(self, tiny_wsms_spec, layer_at):
        model = build_model(tiny_wsms_spec, seed=0)
        x = Tensor(np.random.default_rng(6).standard_normal((2, 3, 32, 32)))
        before = [f.data.copy() for f in model.stage_features(x)]
        gamma = layer_at(model.stages[1].units, "stage2.stem.bn").gamma
        gamma.data[:] = 2.0
        after = [f.data for f in model.stage_features(x)]
        np.testing.assert_array_equal(before[0], after[0])
        assert not np.array_equal(before[1], after[1])

    def test_truncated_pathways_align_bitwise(self, tiny_wsms_spec):
        # running stage 1 up to the truncation point on stage 2's input must
        # reproduce stage 2 bit for bit: same conv objects, same-init bn
        model = build_model(tiny_wsms_spec, seed=0)
        x = Tensor(np.random.default_rng(8).standard_normal((2, 3, 32, 32)))
        level2 = image_pyramid(x, 2)[1]
        via_stage1 = model.stages[0](level2, False, upto_block=1)
        via_stage2 = model.stages[1](level2, False)
        np.testing.assert_array_equal(via_stage1.data, via_stage2.data)


def _train_twin(seed: int, tag: str) -> dict:
    """Train one twin of the scale benchmark at ``seed`` and evaluate it on
    the held-out and seen scale bands. Runs in a worker process, which
    renders its own data and times its own training."""
    body = load_preset(BENCHMARK_PRESETS[tag])
    train_ds, seen, held = synth_scale_dataset(SynthScaleConfig(seed=seed))
    train_n, (seen_n, held_n), _, _ = normalize_per_channel(train_ds, seen, held)
    model = build_model(model_from_config(body["model"]), seed=seed)
    cfg = TrainConfig.from_dict({**body["train"], "seed": seed})
    t0 = time.perf_counter()
    train(model, train_n, cfg)
    return {f"{tag}_secs": time.perf_counter() - t0,
            f"{tag}_held": evaluate(model, held_n)[0],
            f"{tag}_seen": evaluate(model, seen_n)[0]}


@pytest.fixture(scope="session")
def benchmark_results():
    """Train the shared-pathway model and its parameter-matched single-stage
    twin on the synthetic scale benchmark across fixed seeds; evaluate both
    on the held-out (smaller-than-trained) scale band.

    The ten trainings run in BENCHMARK_WORKERS spawned processes, each with
    one BLAS thread, set before the worker loads numpy; this process's own
    environment is left as it is.
    """
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(BENCHMARK_WORKERS, mp_context=spawn,
                             initializer=use_one_blas_thread) as pool:
        runs = {(seed, tag): pool.submit(_train_twin, seed, tag)
                for seed in BENCHMARK_SEEDS for tag in BENCHMARK_PRESETS}
        results = []
        for seed in BENCHMARK_SEEDS:
            entry = {"seed": seed}
            for tag in BENCHMARK_PRESETS:
                entry.update(runs[seed, tag].result())
            entry["won"] = entry["wsms_held"] < entry["base_held"]
            results.append(entry)
    return results


class TestScaleGeneralizationBenchmark:
    """The multi-stage model beats its parameter-matched single-stage twin on
    scales smaller than anything seen in training, across seeds."""

    def test_twins_are_parameter_matched(self):
        wsms = cost_report(preset_spec("synth-wsms-tiny")).total_params
        base = cost_report(preset_spec("synth-baseline-tiny")).total_params
        assert abs(wsms - base) / wsms < PARAM_RTOL, (wsms, base)

    def test_held_out_scales_favor_shared_pathways(self, benchmark_results):
        wins = sum(r["won"] for r in benchmark_results)
        detail = ", ".join(
            f"seed {r['seed']}: {r['wsms_held']:.1f} vs {r['base_held']:.1f}"
            f" {'WIN' if r['won'] else 'LOSS'}" for r in benchmark_results)
        assert wins >= BENCHMARK_MIN_WINS, detail

    def test_each_run_fits_the_time_budget(self, benchmark_results):
        slowest = max(max(r["wsms_secs"], r["base_secs"])
                      for r in benchmark_results)
        assert slowest < BENCHMARK_RUN_BUDGET_S, f"slowest run {slowest:.0f}s"

    def test_models_actually_learned(self, benchmark_results):
        # guard against a vacuous win between two broken models: both must
        # beat the 80% error of 5-way random guessing on the seen-scale split
        for r in benchmark_results:
            assert r["wsms_seen"] < 40.0, r
            assert r["base_seen"] < 40.0, r


def _cifar_root():
    root = os.environ.get("WSMSNET_DATA")
    if not root:
        return None
    if not (Path(root) / "data_batch_1.bin").exists():
        return None
    return root


@pytest.mark.slow
@pytest.mark.skipif(_cifar_root() is None,
                    reason="set WSMSNET_DATA to a directory of CIFAR-10 "
                           "batch files to run the smoke test")
class TestCifarSmoke:
    """Short real-image run: the full pipeline trains and the error drops."""

    def test_three_epoch_subset_run_learns(self, tmp_path):
        rc = cli.main(["train", str(PRESET_DIR / "cifar-smoke.json"),
                       "--out", str(tmp_path / "run")])
        assert rc == 0
        records = [json.loads(line) for line in
                   (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        first, last = records[0], records[-1]
        assert last["epoch"] == 3
        assert last["test_error"] < first["test_error"]
        assert last["test_error"] < 70.0


class TestReproducibilityAndPersistence:
    """Equal seeds give byte-identical runs; checkpoints restore exactly."""

    @staticmethod
    def _run(spec, train_ds, eval_ds, run_dir):
        model = build_model(spec, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=32, lr_schedule=((1, 0.1),),
                          seed=0)
        train(model, train_ds, cfg, eval_ds=eval_ds, run_dir=run_dir)
        return model

    def test_equal_seeds_reproduce_bit_for_bit(self, tiny_wsms_spec,
                                               small_synth, tmp_path):
        train_ds, _, held = small_synth
        a = self._run(tiny_wsms_spec, train_ds, held, tmp_path / "a")
        b = self._run(tiny_wsms_spec, train_ds, held, tmp_path / "b")
        for ea, eb in zip(a.params, b.params):
            assert ea.name == eb.name
            np.testing.assert_array_equal(ea.tensor.data, eb.tensor.data)
        assert ((tmp_path / "a" / "metrics.jsonl").read_bytes()
                == (tmp_path / "b" / "metrics.jsonl").read_bytes())

    def test_checkpoint_restores_the_exact_function(self, tiny_wsms_spec,
                                                    small_synth, tmp_path):
        train_ds, _, held = small_synth
        model = self._run(tiny_wsms_spec, train_ds, held, tmp_path / "run")
        restored, extras = load_checkpoint(tmp_path / "run"
                                           / "checkpoint-final.npz")
        x = Tensor(held.images[:8])
        np.testing.assert_array_equal(model.forward(x, training=False).data,
                                      restored.forward(x, training=False).data)

    def test_saved_and_reloaded_twice_is_stable(self, tiny_wsms_spec,
                                                tmp_path):
        model = build_model(tiny_wsms_spec, seed=3)
        save_checkpoint(model, tmp_path / "one.npz")
        first, _ = load_checkpoint(tmp_path / "one.npz")
        save_checkpoint(first, tmp_path / "two.npz")
        second, _ = load_checkpoint(tmp_path / "two.npz")
        assert ((tmp_path / "one.npz").read_bytes()
                == (tmp_path / "two.npz").read_bytes())
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 32, 32)))
        np.testing.assert_array_equal(first.forward(x).data,
                                      second.forward(x).data)
