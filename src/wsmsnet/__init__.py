"""Weight-shared multi-stage convolutional networks.

A small numpy-backed autodiff engine, ResNet/DenseNet-style backbones, the
multi-stage wrapper that shares convolution weights across an input pyramid,
a static parameter/multiplication cost model, and a training harness with a
synthetic scale-generalization benchmark.

Import the submodules (``wsmsnet.model``, ``wsmsnet.trainer``, ...). This
package imports none of them, and ``wsmsnet.cli`` imports numpy only inside
its command handlers, so ``--threads`` can pin the BLAS thread count before
numpy initialises its BLAS backend.
"""

__version__ = "0.1.0"
