import json

import numpy as np
import pytest

from wsmsnet.autodiff import Tensor
from wsmsnet.layers import ParamStore
from wsmsnet.model import build_model, load_checkpoint, save_checkpoint
from wsmsnet.trainer import (DENSENET_SCHEDULE, RESNET_SCHEDULE,
                             DivergenceError, TrainConfig, compare_preds,
                             evaluate, lr_at, read_pred_dump,
                             sgd_momentum_step, train, write_pred_dump)


class TestLearningRateSchedule:
    def test_step_boundaries_are_left_closed(self):
        schedule = ((1, 0.01), (2, 0.1), (82, 0.01), (123, 0.001))
        assert lr_at(schedule, 1) == 0.01
        assert lr_at(schedule, 2) == 0.1
        assert lr_at(schedule, 81) == 0.1
        assert lr_at(schedule, 82) == 0.01
        assert lr_at(schedule, 122) == 0.01
        assert lr_at(schedule, 123) == 0.001
        assert lr_at(schedule, 400) == 0.001

    def test_builtin_schedules_start_at_epoch_one(self):
        for schedule in (RESNET_SCHEDULE, DENSENET_SCHEDULE):
            assert schedule[0][0] == 1
            assert lr_at(schedule, 1) > 0

    def test_epoch_below_one_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            lr_at(((1, 0.1),), 0)


class TestTrainConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TrainConfig.from_dict({"epochs": 1, "optimiser": "sgd"})

    def test_schedule_must_begin_at_epoch_one(self):
        with pytest.raises(ValueError, match="start at epoch 1"):
            TrainConfig.from_dict({"epochs": 5, "lr_schedule": [[2, 0.1]]})

    def test_round_trips_nested_schedule_lists(self):
        cfg = TrainConfig.from_dict({"epochs": 3,
                                     "lr_schedule": [[1, 0.1], [2, 0.01]]})
        assert cfg.lr_schedule == ((1, 0.1), (2, 0.01))


class TestMomentumStep:
    def make_param(self, value):
        store = ParamStore()
        pid = store.create("w", "fc", np.array([value]))
        return store, store.tensor(pid)

    def test_two_steps_accumulate_velocity(self):
        store, p = self.make_param(1.0)
        velocity = {}
        grads = {p: np.array([0.5], dtype=p.dtype)}
        sgd_momentum_step(store, grads, velocity, lr=0.1, momentum=0.9,
                          weight_decay=0.0)
        assert p.data[0] == pytest.approx(0.95)
        sgd_momentum_step(store, grads, velocity, lr=0.1, momentum=0.9,
                          weight_decay=0.0)
        # v2 = 0.9*0.5 + 0.5 = 0.95; p2 = 0.95 - 0.095
        assert p.data[0] == pytest.approx(0.855)

    def test_weight_decay_enters_the_velocity(self):
        store, p = self.make_param(2.0)
        grads = {p: np.array([0.0], dtype=p.dtype)}
        sgd_momentum_step(store, grads, {}, lr=0.1, momentum=0.9,
                          weight_decay=0.5)
        assert p.data[0] == pytest.approx(2.0 - 0.1 * (0.5 * 2.0))

    def test_bn_decay_can_be_disabled(self):
        store = ParamStore()
        pid = store.create("bn.gamma", "bn", np.array([1.0]))
        p = store.tensor(pid)
        grads = {p: np.array([0.0], dtype=p.dtype)}
        sgd_momentum_step(store, grads, {}, lr=0.1, momentum=0.9,
                          weight_decay=0.5, decay_bn=False)
        assert p.data[0] == 1.0

    def test_missing_gradient_is_an_error(self):
        store, p = self.make_param(1.0)
        with pytest.raises(RuntimeError, match="missing gradient"):
            sgd_momentum_step(store, {}, {}, 0.1, 0.9, 0.0)


class TestTrainLoop:
    def config(self, **kw):
        base = dict(epochs=1, batch_size=32, momentum=0.9, weight_decay=1e-4,
                    lr_schedule=((1, 0.05),), seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def snapshot(self, model):
        return [e.tensor.data.copy() for e in model.store.entries()]

    def test_zero_epochs_leave_parameters_untouched(self, tiny_wsms_spec,
                                                    small_synth):
        train_ds, seen, _ = small_synth
        model = build_model(tiny_wsms_spec, seed=0)
        before = self.snapshot(model)
        records = train(model, train_ds, self.config(epochs=0), eval_ds=seen)
        after = self.snapshot(model)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)
        assert len(records) == 1 and records[0].epoch == 0

    def test_training_reduces_loss(self, tiny_wsms_spec, small_synth):
        train_ds, _, _ = small_synth
        model = build_model(tiny_wsms_spec, seed=0)
        records = train(model, train_ds, self.config(epochs=4), eval_ds=None)
        assert records[-1].train_loss < records[1].train_loss

    def test_equal_seeds_train_bit_identically(self, tiny_wsms_spec, small_synth,
                                               tmp_path):
        train_ds, seen, _ = small_synth
        outputs = []
        for run in ("a", "b"):
            model = build_model(tiny_wsms_spec, seed=0)
            run_dir = tmp_path / run
            train(model, train_ds, self.config(epochs=2, augment=True),
                  eval_ds=seen, run_dir=run_dir)
            outputs.append((self.snapshot(model),
                            (run_dir / "metrics.jsonl").read_bytes()))
        params_a, metrics_a = outputs[0]
        params_b, metrics_b = outputs[1]
        for a, b in zip(params_a, params_b):
            assert a.tobytes() == b.tobytes()
        assert metrics_a == metrics_b

    def test_different_seeds_diverge(self, tiny_wsms_spec, small_synth):
        train_ds, _, _ = small_synth
        finals = []
        for seed in (0, 1):
            model = build_model(tiny_wsms_spec, seed=seed)
            train(model, train_ds, self.config(seed=seed), eval_ds=None)
            finals.append(self.snapshot(model))
        assert any(a.tobytes() != b.tobytes() for a, b in zip(*finals))

    def test_non_finite_loss_raises_divergence(self, tiny_wsms_spec, small_synth, layer_at):
        train_ds, _, _ = small_synth
        model = build_model(tiny_wsms_spec, seed=0)
        weight = model.store.tensor(layer_at(model.stages[0].units, "stem").weight_id)
        weight.data[:] = np.nan
        with pytest.raises(DivergenceError) as info:
            train(model, train_ds, self.config(), eval_ds=None)
        assert info.value.epoch == 1
        assert info.value.batch == 0

    def test_metrics_file_has_epoch_zero_and_no_wallclock(self, tiny_wsms_spec,
                                                          small_synth, tmp_path):
        train_ds, seen, _ = small_synth
        model = build_model(tiny_wsms_spec, seed=0)
        train(model, train_ds, self.config(), eval_ds=seen, run_dir=tmp_path)
        lines = [json.loads(line) for line in
                 (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert [rec["epoch"] for rec in lines] == [0, 1]
        assert all("wallclock" not in rec for rec in lines)
        assert lines[0]["test_error"] is not None

    def test_best_checkpoint_tracks_lowest_test_error(self, tiny_wsms_spec,
                                                      small_synth, tmp_path):
        train_ds, seen, _ = small_synth
        model = build_model(tiny_wsms_spec, seed=0)
        train(model, train_ds, self.config(epochs=3), eval_ds=seen,
              run_dir=tmp_path)
        lines = [json.loads(line) for line in
                 (tmp_path / "metrics.jsonl").read_text().splitlines()]
        best_err = min(rec["test_error"] for rec in lines
                       if rec["test_error"] is not None)
        best_model, _ = load_checkpoint(tmp_path / "checkpoint-best.npz")
        err, _ = evaluate(best_model, seen)
        assert err == pytest.approx(best_err)


class FailsToWrite:
    def __reduce__(self):
        raise OSError("disk full")


class TestCheckpointPersistence:
    def test_round_trip_preserves_all_state(self, tiny_wsms_spec, small_synth,
                                            tmp_path):
        train_ds, seen, _ = small_synth
        model = build_model(tiny_wsms_spec, seed=0)
        train(model, train_ds,
              TrainConfig(epochs=1, batch_size=32, lr_schedule=((1, 0.05),)),
              eval_ds=None)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, extras={"note": "x"})
        loaded, extras = load_checkpoint(path)
        assert extras == {"note": "x"}
        for a, b in zip(model.store.entries(), loaded.store.entries()):
            assert a.name == b.name
            assert a.tensor.data.tobytes() == b.tensor.data.tobytes()
        for bn_a, bn_b in zip(model.batch_norms(), loaded.batch_norms()):
            assert bn_a.running_mean.tobytes() == bn_b.running_mean.tobytes()
            assert bn_a.running_var.tobytes() == bn_b.running_var.tobytes()
        x = Tensor(seen.images[:8])
        assert model.forward(x).data.tobytes() == loaded.forward(x).data.tobytes()

    def test_failed_save_leaves_earlier_checkpoint_whole(self, tiny_wsms_spec, tmp_path):
        model = build_model(tiny_wsms_spec, seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        saved = path.read_bytes()
        # the last buffer fails as it is written, after earlier arrays are
        # already in the archive
        model.batch_norms()[-1].running_var = np.array([FailsToWrite()], dtype=object)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
        assert path.read_bytes() == saved
        loaded, _ = load_checkpoint(path)
        assert [e.name for e in loaded.store.entries()] == \
            [e.name for e in model.store.entries()]

    def test_loading_rejects_other_formats(self, tmp_path):
        np.savez(tmp_path / "bad.npz",
                 meta=np.frombuffer(json.dumps({"format_version": 99}).encode(),
                                    dtype=np.uint8))
        with pytest.raises(ValueError, match="format version"):
            load_checkpoint(tmp_path / "bad.npz")


class TestEvaluation:
    def test_rows_are_ordered_by_id_and_match_error(self, tiny_wsms_spec,
                                                    small_synth):
        _, seen, _ = small_synth
        model = build_model(tiny_wsms_spec, seed=0)
        error, rows = evaluate(model, seen)
        ids = [r[0] for r in rows]
        assert ids == sorted(ids)
        assert len(rows) == len(seen)
        assert error == pytest.approx(
            100.0 * sum(1 - r[3] for r in rows) / len(rows))

    def test_class_count_mismatch_rejected(self, small_synth):
        from wsmsnet.specs import WsmsSpec, build_resnet

        _, seen, _ = small_synth
        other = build_model(WsmsSpec(build_resnet(1, 3, channels=(8,)), 1), 0)
        with pytest.raises(ValueError, match="classes"):
            evaluate(other, seen)


class TestPredictionDumps:
    ROWS = [(0, 1, 1, 1), (1, 2, 0, 0), (2, 0, 0, 1), (3, 4, 3, 0)]

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_pred_dump(path, self.ROWS)
        assert read_pred_dump(path) == self.ROWS

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("who,what\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_pred_dump(path)

    def test_compare_preds_set_algebra(self):
        base_a = [(0, 1, 0, 0), (1, 1, 1, 1), (2, 2, 0, 0), (3, 3, 0, 0)]
        base_b = [(0, 1, 2, 0), (1, 1, 0, 0), (2, 2, 1, 0), (3, 3, 3, 1)]
        target = [(0, 1, 1, 1), (1, 1, 1, 1), (2, 2, 2, 1), (3, 3, 0, 0)]
        # wrong in every baseline: {0, 2}; right in target: {0, 1, 2}
        assert compare_preds([base_a, base_b], target) == [0, 2]

    def test_compare_preds_requires_baselines(self):
        with pytest.raises(ValueError, match="baseline"):
            compare_preds([], self.ROWS)
