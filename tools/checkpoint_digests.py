"""Print one SHA-256 digest per preset of what seed 0 computes.

Run it on two commits and compare the listings: equal digests mean an engine
change left every preset's numbers bit for bit as they were.

    PYTHONPATH=src python3 tools/checkpoint_digests.py

For each preset in ``presets/``, at seed 0, on seeded random 32x32 inputs,
the model trains for 2 SGD steps at batch 2 and its final checkpoint file is
hashed.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so the digests do not depend on how
# many cores the machine has.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from wsmsnet import data, model, specs, trainer

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


def main() -> None:
    for path in sorted(PRESETS.glob("*.json")):
        print(f"{path.stem:24s} {preset_digest(path)}", flush=True)


if __name__ == "__main__":
    main()
