import dataclasses

import numpy as np
import pytest

from wsmsnet.autodiff import Tape, Tensor, using_precision
from wsmsnet.data import SynthScaleConfig, normalize_per_channel, synth_scale_dataset
from wsmsnet.model import build_model
from wsmsnet.ops import softmax_cross_entropy
from wsmsnet.specs import ResNet, WsmsSpec


@pytest.fixture
def f64():
    with using_precision("f64"):
        yield


@pytest.fixture(scope="session")
def tiny_backbone():
    return ResNet(n=1, class_count=5, channels=(8, 16))


@pytest.fixture(scope="session")
def tiny_wsms_spec(tiny_backbone):
    return WsmsSpec(tiny_backbone, stages=2, integration="conv1x1",
                    integration_channels=16)


@pytest.fixture(scope="session")
def small_synth():
    """A fast synthetic split pair shared by trainer-level tests."""
    cfg = SynthScaleConfig(train_per_class=16, test_per_class=8, seed=0)
    train, seen, held = synth_scale_dataset(cfg)
    train_n, (seen_n, held_n), mean, std = normalize_per_channel(train, seen, held)
    return train_n, seen_n, held_n


def _layer_at(units, path):
    """The layer a list of (Unit, layers) pairs runs at site ``path``."""
    for unit, layers in units:
        for site, layer in zip(unit.sites, layers):
            if site.path == path:
                return layer
    raise KeyError(path)


@pytest.fixture(scope="session")
def layer_at():
    """``layer_at(stage.units, path)`` finds a layer by its site path."""
    return _layer_at


def _check_clone_gradients_sum(shared_spec, size, atol):
    """Untie every shared conv of ``shared_spec`` into per-stage clones with
    identical values: the loss must not move, and each shared conv weight's
    gradient must equal the sum of its clones' gradients within ``atol`` (f64).
    Every conv weight outside the integration unit must have a clone. Returns
    how many conv weights were checked."""
    unshared_spec = dataclasses.replace(shared_spec, sharing="unshared")
    with using_precision("f64"):
        shared = build_model(shared_spec, seed=0)
        unshared = build_model(unshared_spec, seed=1)
        by_name = {e.name: e for e in shared.params}
        for e in unshared.params:
            source = e.name
            if source not in by_name:
                source = source.split(".", 1)[1]
            e.tensor.data[...] = by_name[source].tensor.data

        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((4, 3, size, size)))
        labels = np.arange(4) % shared_spec.class_count

        def grads_of(model):
            with Tape() as tape:
                loss = softmax_cross_entropy(model.forward(x, training=True), labels)
                return tape.backward(loss), loss.item()

        g_shared, loss_shared = grads_of(shared)
        g_unshared, loss_unshared = grads_of(unshared)
        assert loss_shared == loss_unshared

        unshared_by_name = {e.name: g_unshared[e.tensor] for e in unshared.params}
        checked = 0
        for e in shared.params:
            if e.role != "conv-weight" or e.name.startswith("integration"):
                continue
            clones = [g for name, g in unshared_by_name.items()
                      if name.endswith("." + e.name)]
            assert clones, e.name
            np.testing.assert_allclose(g_shared[e.tensor], np.sum(clones, axis=0),
                                       rtol=0, atol=atol)
            checked += 1
    return checked


@pytest.fixture(scope="session")
def check_clone_gradients_sum():
    """``check_clone_gradients_sum(shared_spec, size, atol)`` compares a
    shared model's conv gradients with the summed gradients of its unshared
    twin on a batch of four ``size`` x ``size`` images."""
    return _check_clone_gradients_sum
