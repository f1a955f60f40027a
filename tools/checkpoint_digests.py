"""Print one SHA-256 digest per preset of what seed 0 computes, then one of
the gradcheck suite's numbers and one of the synthetic benchmark's data.

Run it on two commits and compare the listings: equal digests mean an engine
change left every preset's numbers bit for bit as they were.

    PYTHONPATH=src python3 tools/checkpoint_digests.py

For each preset in ``presets/``, at seed 0, on seeded random 32x32 inputs,
the model trains for 2 SGD steps at batch 2 and its final checkpoint file is
hashed. The ``gradcheck`` row hashes ``run_suite(seed=0)`` as a JSON
list of (case, max relative error) pairs, so a change to a backward rule or
to the suite shows whether any case's error moved. The last row, ``synth``,
hashes the images and labels of the seed-0 ``synth_scale_dataset`` splits
after ``normalize_per_channel``, in split order, so a change to the renderer
or to normalisation shows whether any byte of the data moved.

The first line, starting with ``#``, names numpy, OpenBLAS, the GEMM kernel
set OpenBLAS picked for this CPU and ``OPENBLAS_CORETYPE``. Kernel sets round
differently, so only listings with equal kernel sets are comparable.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so the digests do not depend on how
# many cores the machine has.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes
import ctypes.util
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from wsmsnet import data, model, specs, trainer
from wsmsnet.gradcheck import run_suite

PRESETS = Path(__file__).resolve().parent.parent / "presets"
SEED = 0
BATCH = 2
STEPS = 2


def inputs(class_count: int) -> data.Dataset:
    rng = np.random.default_rng(SEED)
    images = rng.standard_normal((BATCH, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, class_count, BATCH)
    return data.Dataset(images, labels, np.arange(BATCH), class_count)


def preset_digest(path: Path) -> str:
    """Hex digest of one preset's checkpoint after STEPS steps."""
    cfg = json.loads(path.read_text())
    spec = specs.model_from_config(cfg["model"])
    net = model.build_model(spec, SEED)
    config = dataclasses.replace(trainer.TrainConfig.from_dict(cfg["train"]),
                                 epochs=STEPS, batch_size=BATCH, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        trainer.train(net, inputs(spec.backbone.class_count), config, run_dir=tmp)
        return hashlib.sha256((Path(tmp) / "checkpoint-final.npz").read_bytes()).hexdigest()


def synth_digest() -> str:
    """Hex digest of the seed-0 synthetic splits after normalisation."""
    splits = data.synth_scale_dataset(data.SynthScaleConfig(seed=SEED))
    train, others, _, _ = data.normalize_per_channel(*splits)
    digest = hashlib.sha256()
    for ds in (train, *others):
        digest.update(ds.images.tobytes())
        digest.update(ds.labels.tobytes())
    return digest.hexdigest()


def openblas_corename() -> str:
    """The kernel set of the OpenBLAS that numpy loaded, or ``unknown``.

    Wheels bundle OpenBLAS in ``numpy.libs``; loading it again returns the
    library numpy already uses, not a second copy.
    """
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
    system = ctypes.util.find_library("openblas")
    if system:
        libs.append(system)
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(handle, symbol, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def header() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        blas = None
    return (f"# numpy {np.__version__} openblas {blas or 'unknown'} "
            f"core {openblas_corename()} "
            f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', 'unset')}")


def main() -> None:
    print(header(), flush=True)
    for path in sorted(PRESETS.glob("*.json")):
        print(f"{path.stem:24s} {preset_digest(path)}", flush=True)
    suite = json.dumps(list(run_suite(seed=SEED).items()))
    print(f"{'gradcheck':24s} {hashlib.sha256(suite.encode()).hexdigest()}", flush=True)
    print(f"{'synth':24s} {synth_digest()}", flush=True)


if __name__ == "__main__":
    main()
