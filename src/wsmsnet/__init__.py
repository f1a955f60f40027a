"""Weight-shared multi-stage convolutional networks.

A small numpy-backed autodiff engine, ResNet/DenseNet-style backbones, the
multi-stage wrapper that shares convolution weights across an input pyramid,
a static parameter/multiplication cost model, and a training harness with a
synthetic scale-generalization benchmark.

Submodules import lazily so the command line tool can pin thread counts
before numpy initialises its BLAS backend.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # autodiff
    "Tensor": "wsmsnet.autodiff",
    "Tape": "wsmsnet.autodiff",
    "set_precision": "wsmsnet.autodiff",
    "precision": "wsmsnet.autodiff",
    "using_precision": "wsmsnet.autodiff",
    # layers
    "ParamStore": "wsmsnet.layers",
    "BatchNorm": "wsmsnet.layers",
    "Conv2dLayer": "wsmsnet.layers",
    "LinearLayer": "wsmsnet.layers",
    "he_init": "wsmsnet.layers",
    # specs and builders
    "BackboneSpec": "wsmsnet.specs",
    "WsmsSpec": "wsmsnet.specs",
    "StagePlan": "wsmsnet.specs",
    "build_resnet": "wsmsnet.specs",
    "build_densenet": "wsmsnet.specs",
    "build_conv_backbone": "wsmsnet.specs",
    "stage_plan": "wsmsnet.specs",
    "model_from_config": "wsmsnet.specs",
    "model_to_config": "wsmsnet.specs",
    "ConfigError": "wsmsnet.specs",
    # runtime model
    "Model": "wsmsnet.model",
    "build_model": "wsmsnet.model",
    "image_pyramid": "wsmsnet.model",
    "save_checkpoint": "wsmsnet.model",
    "load_checkpoint": "wsmsnet.model",
    # cost model
    "CostReport": "wsmsnet.cost",
    "stage_overhead": "wsmsnet.cost",
    # data
    "Dataset": "wsmsnet.data",
    "load_cifar": "wsmsnet.data",
    "normalize_per_channel": "wsmsnet.data",
    "augment": "wsmsnet.data",
    "SynthScaleConfig": "wsmsnet.data",
    "synth_scale_dataset": "wsmsnet.data",
    # trainer
    "TrainConfig": "wsmsnet.trainer",
    "train": "wsmsnet.trainer",
    "evaluate": "wsmsnet.trainer",
    "lr_at": "wsmsnet.trainer",
    "sgd_momentum_step": "wsmsnet.trainer",
    "compare_preds": "wsmsnet.trainer",
}


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'wsmsnet' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
