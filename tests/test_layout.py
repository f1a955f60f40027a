"""The runtime model and the cost model agree layer by layer, preset
checkpoint layouts stay fixed, and recomputing batch-norm ReLU outputs in
backward changes no gradient bit.

Every runtime convolution must run under its cost row's path with its cost
row's output shape, in row order, for every family, stage count, integration
and sharing: on a fixed grid of tiny specs, and on valid specs that
hypothesis draws. A preset's parameter list and batch norm buffers are what a
checkpoint is loaded against, so their order is pinned.
"""

import hashlib
import itertools
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsmsnet import layers, model as wmodel, ops
from wsmsnet.autodiff import Tape, Tensor, push, recording
from wsmsnet.cost import cost_report
from wsmsnet.model import build_model, image_pyramid, run_unit
from wsmsnet.specs import (FAMILIES, INTEGRATIONS, SHARINGS, DenseNet, ResNet,
                           WsmsSpec, block_count, integration_unit, model_from_config,
                           model_to_config, stage_units)

PRESETS = Path(__file__).resolve().parent.parent / "presets"
INPUT = 8  # three stages leave stage 3 a 2x2 input that still pools once
CLONE_GRAD_ATOL = 1e-10  # f64 gradients of tiny models, summed over at most three clones

TINY_BACKBONES = {
    "resnet": ResNet(n=1, class_count=3, channels=(4, 6, 8)),
    "densenet": DenseNet(growth=2, class_count=3, layers_per_block=2, blocks=3, stem_channels=4),
}
GRID = {
    f"{family}-{stages}-{integration}-{sharing}":
        WsmsSpec(backbone, stages, integration, 5, sharing)
    for (family, backbone), integration, sharing in itertools.product(
        TINY_BACKBONES.items(), INTEGRATIONS, SHARINGS)
    for stages in range(1, block_count(backbone) + 1)
}

# SHA-256 of each preset's layout (see layout_digest). A checkpoint loads only
# into a model of the same layout, so a changed digest means checkpoints
# written before the change no longer load.
LAYOUT_DIGESTS = {
    "cifar-smoke": "1e81a17fb499a0815dece9dc8ea3a66e1a6748c4efca8d04e44d31897067d734",
    "densenet24": "00cd0b4e52781b5e57752e76c7c1e2b3d2256c36ab755b5672a432f790ec7678",
    "densenet26": "9bd739877d0a3602f9037d66653dd2657b18fa291dad7e47a4845cb565de9269",
    "ms-densenet24-1x1": "81ffc9cafe50341dbf414f95f0a51fc77ed2c04c006c0ad0c1e0dbad1c5bbf32",
    "ms-resnet110-1x1": "45393b8251921633ca2083e7db4387a6f387333eb20413eb7b90747561020fdf",
    "resnet110": "caa573018fcf03254155344bd611379af2db2477579b0ad2b45168b890416c27",
    "resnet116": "2b9eacfdd9a00efcfef0bfffbf8ea3d0c1cc972dc3de8a1862057f6e5b7946ea",
    "resnet122": "ed8fea8b56a155830fae68d8158542f66f62d38e4dd66caddc4d495273edc602",
    "synth-baseline-tiny": "dfdf79f6899df92675e7c5937477321b05702f84da95d9bc44822a3a1319db37",
    "synth-wsms-tiny": "6090867097bcf3abc73043d408a941e2b02309998a5ec92a97c19eb9e15e7dd6",
    "wsms-densenet24-1x1": "41f95fe85dc1caee676eb38a3629c0258fde2fa9cd3e448647ad374783f9dc14",
    "wsms-densenet24-3x3": "2d6190ea552c5c8c1cbbb9d1b0ab201a73e39da87bd55b2cc71215f3fca8cd57",
    "wsms-densenet24-none": "6c52c5afe97ce311e8e5ff01d1028ccaba04d98718a1eca57bd11e3bbe8dbadd",
    "wsms-resnet110-1x1": "abfa0770a9037c230cb9e92f92438b4e26f47242c25d7708f85304b9d79d10e2",
    "wsms-resnet110-3x3": "767f6ad7c21871d96179ed977be2a8fe37ca72bddd1eb2347f7f40f84fac348b",
    "wsms-resnet110-none": "1dd4a1a165279ab51f67d3ff495f0b0176a99bdac215f30c1c0055a63d0164de",
}


def layout_digest(model) -> str:
    """Hash of (name, role, shape) per parameter in pid order plus BN buffer names."""
    layout = {"params": [[e.name, e.role, list(e.tensor.shape)] for e in model.params],
              "bn_buffers": [bn.name for bn in model.batch_norms()]}
    return hashlib.sha256(json.dumps(layout).encode()).hexdigest()


def check_layers_match_rows(spec):
    """Runtime convs run in cost row order with the rows' paths and output
    shapes, batch norms match the bn rows, and the parameter totals agree.
    The tensors the layers hold are the model's parameter list, each once,
    so a shared conv's weight is one parameter however many stages run it."""
    model = build_model(spec, seed=0)
    calls = []
    conv_call = layers.Conv2dLayer.__call__

    def recording(layer, x):
        out = conv_call(layer, x)
        calls.append((layer.name, out.shape[1:]))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers.Conv2dLayer, "__call__", recording)
        model.forward(Tensor(np.zeros((1, 3, INPUT, INPUT))))
    report = cost_report(spec, (INPUT, INPUT))
    assert calls == [(r.path, r.out_shape) for r in report.rows if r.kind == "conv"]
    assert [bn.name for bn in model.batch_norms()] == \
        [r.path for r in report.rows if r.kind == "bn"]
    assert model.param_count() == report.total_params
    run = [layer for stage in model.stages for _, unit_layers in stage.units
           for layer in unit_layers]
    run += model.integration[1] if model.integration is not None else []
    held = {id(t) for layer in run + [model.fc] for t in vars(layer).values()
            if isinstance(t, Tensor)}
    assert sorted(id(e.tensor) for e in model.params) == sorted(held)


def check_truncated_pathways_align(spec):
    """Stage 1 cut after pathway s's last block, then pathway s's own tail if
    it has one, reproduces pathway s bit for bit: same conv objects, same-init
    batch norm. At s=1 the cut keeps every block, so only skipping the tail
    keeps it from running twice."""
    k = block_count(spec.backbone)
    model = build_model(spec, seed=0)
    x = Tensor(np.random.default_rng(8).standard_normal((2, 3, INPUT, INPUT)))
    for s, level in enumerate(image_pyramid(x, spec.stages), start=1):
        pathway = model.stages[s - 1]
        truncated = model.stages[0](level, False, upto_block=k - s + 1)
        last, last_layers = pathway.units[-1]
        if last.kind == "tail":
            truncated = run_unit(last, last_layers, truncated, False)
        assert truncated.data.tobytes() == pathway(level, False).data.tobytes()


def keeping_relu(x):
    """ReLU as it ran before batch-norm outputs could be computed again: its
    backward keeps its own output, so the next conv keeps that output too."""
    out = Tensor(np.maximum(x.data, 0), dtype=x.dtype)
    if recording(x):
        kept = out.data
        push((x,), out, lambda g: (g * (kept > 0),))
    return out


def check_recomputed_relus_match_kept(spec):
    """One recorded training step, with every batch norm's gamma and beta
    drawn, gives the same gradient bytes as a run whose ReLUs keep their
    outputs; and no output of a ReLU over a batch norm is alive once the
    forward pass has returned."""
    x = Tensor(np.random.default_rng(8).standard_normal((2, 3, INPUT, INPUT)))
    labels = np.arange(2) % spec.class_count

    def step(relu):
        net = build_model(spec, seed=0)
        affine = np.random.default_rng(9)
        for bn in net.batch_norms():
            for t in (bn.gamma, bn.beta):
                t.data[...] = affine.standard_normal(t.shape)
        with pytest.MonkeyPatch.context() as patch, Tape() as tape:
            patch.setattr(wmodel, "relu", relu)
            loss = ops.softmax_cross_entropy(net.forward(x, training=True), labels)
        return net, tape, loss

    last_bn, bn_relu_outputs = [None], []
    bn_call = layers.BatchNorm.__call__

    def spied_bn(layer, y, training):
        last_bn[0] = bn_call(layer, y, training)
        return last_bn[0]

    def spied_relu(y):
        out = ops.relu(y)
        if y is last_bn[0]:
            bn_relu_outputs.append(weakref.ref(out.data))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers.BatchNorm, "__call__", spied_bn)
        net, tape, loss = step(spied_relu)
    assert bn_relu_outputs and all(ref() is None for ref in bn_relu_outputs)
    grads = tape.backward(loss)
    ref_net, ref_tape, ref_loss = step(keeping_relu)
    ref_grads = ref_tape.backward(ref_loss)
    assert loss.data.tobytes() == ref_loss.data.tobytes()
    for e, ref in zip(net.params, ref_net.params):
        assert grads[e.tensor].tobytes() == ref_grads[ref.tensor].tobytes(), e.name


class TestRuntimeMatchesCostRows:
    @pytest.mark.parametrize("spec", list(GRID.values()), ids=list(GRID))
    def test_layers_match_rows(self, spec):
        check_layers_match_rows(spec)


class TestRuntimeRunsTheSpecWalk:
    @pytest.mark.parametrize("spec", list(GRID.values()), ids=list(GRID))
    def test_stage_units_are_the_walk(self, spec):
        model = build_model(spec, seed=0)
        for s, stage in enumerate(model.stages, start=1):
            assert [unit for unit, _ in stage.units] == list(stage_units(spec, s))
        head = integration_unit(spec)
        assert (None if model.integration is None else model.integration[0]) == head
        pairs = [pair for stage in model.stages for pair in stage.units]
        pairs += [model.integration] if head is not None else []
        for unit, unit_layers in pairs:
            assert [layer.name for layer in unit_layers] == [site.path for site in unit.sites]

    @pytest.mark.parametrize("family", sorted(TINY_BACKBONES))
    def test_truncated_pathways_align_bitwise(self, family):
        backbone = TINY_BACKBONES[family]
        check_truncated_pathways_align(WsmsSpec(backbone, block_count(backbone), "conv1x1", 5))


WIDTHS = st.integers(1, 6)


@st.composite
def backbones(draw):
    """A valid tiny backbone of any family with 1..3 blocks: resnet widths
    never narrow."""
    family, k = draw(st.sampled_from(FAMILIES)), draw(st.integers(1, 3))
    class_count = draw(st.integers(2, 4))
    if family == "resnet":
        widths = sorted(draw(st.lists(WIDTHS, min_size=k, max_size=k)))
        return ResNet(n=draw(st.integers(1, 2)), class_count=class_count,
                      channels=tuple(widths))
    return DenseNet(growth=draw(st.integers(1, 3)), class_count=class_count,
                    layers_per_block=draw(st.integers(1, 2)), blocks=k,
                    stem_channels=draw(WIDTHS))


@st.composite
def wsms_specs(draw, sharing=st.sampled_from(SHARINGS)):
    backbone = draw(backbones())
    return WsmsSpec(backbone, draw(st.integers(1, block_count(backbone))),
                    draw(st.sampled_from(INTEGRATIONS)), draw(WIDTHS), draw(sharing))


# derandomized so every run of the suite checks the same examples
class TestEveryValidSpec:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(wsms_specs())
    def test_json_round_trip_returns_an_equal_spec(self, spec):
        assert model_from_config(json.loads(json.dumps(model_to_config(spec)))) == spec

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(wsms_specs())
    def test_layers_match_rows(self, spec):
        check_layers_match_rows(spec)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wsms_specs(sharing=st.just("shared")))
    def test_truncated_pathways_align_bitwise(self, spec):
        check_truncated_pathways_align(spec)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wsms_specs(sharing=st.just("shared")))
    def test_clone_gradients_sum_to_shared_gradient(self, check_clone_gradients_sum, spec):
        check_clone_gradients_sum(spec, INPUT, CLONE_GRAD_ATOL)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wsms_specs())
    def test_recomputed_relus_give_the_kept_relus_gradients(self, spec):
        check_recomputed_relus_match_kept(spec)


class TestCheckpointLayout:
    def test_every_preset_is_pinned(self):
        assert sorted(p.stem for p in PRESETS.glob("*.json")) == sorted(LAYOUT_DIGESTS)

    @pytest.mark.parametrize("name", sorted(LAYOUT_DIGESTS))
    def test_preset_layout_is_unchanged(self, name):
        cfg = json.loads((PRESETS / f"{name}.json").read_text())
        model = build_model(model_from_config(cfg["model"]), seed=0)
        assert layout_digest(model) == LAYOUT_DIGESTS[name]
