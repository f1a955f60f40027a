import numpy as np
import pytest

from wsmsnet.autodiff import using_precision
from wsmsnet.data import SynthScaleConfig, normalize_per_channel, synth_scale_dataset
from wsmsnet.specs import WsmsSpec, build_resnet


@pytest.fixture
def f64():
    with using_precision("f64"):
        yield


@pytest.fixture(scope="session")
def tiny_backbone():
    return build_resnet(1, class_count=5, channels=(8, 16))


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


def rng_for(name: str, seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(abs(hash((name, seed))) % (2 ** 32))
