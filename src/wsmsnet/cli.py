"""Command line interface.

Heavy imports happen inside the handlers so ``--threads`` can pin the BLAS
thread count through environment variables before numpy initialises.

Exit codes: 0 success, 2 configuration or usage errors, 3 runtime numeric
failures (training divergence).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

DATA_ROOT_ENV = "WSMSNET_DATA"
CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"


def _set_threads(count: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(count)


def _parse_threads(text: str) -> int:
    try:
        count = int(text)
        if count < 1:
            raise ValueError
        return count
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a thread count >= 1, got {text!r}")


def _load_config(path: str) -> dict:
    from .specs import ConfigError

    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON at line {err.lineno}, "
                          f"column {err.colno}: {err.msg}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if cfg.get("schema_version") != 1:
        raise ConfigError(f"{path}: unsupported schema_version "
                          f"{cfg.get('schema_version')!r} (expected 1)")
    return cfg


def _parse_hw(text: str):
    try:
        h, w = (int(v) for v in text.lower().split("x"))
        if h < 1 or w < 1:
            raise ValueError
        return h, w
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW with positive integers, got {text!r}")


def cmd_count(args) -> int:
    from .cost import cost_report
    from .specs import model_from_config

    cfg = _load_config(args.config)
    spec = model_from_config(cfg.get("model", {}))
    report = cost_report(spec, args.input)
    name = Path(args.config).stem
    print(f"{'layer_path':44s} {'kind':5s} {'stage':5s} {'params':>12s} "
          f"{'mults':>15s}  out_shape")
    for row in report.rows:
        shape = "x".join(str(v) for v in row.out_shape)
        print(f"{row.path:44s} {row.kind:5s} {row.stage:5d} {row.params:>12,} "
              f"{row.mults:>15,}  {shape}")
    print(f"{name}: params={report.total_params / 1e6:.2f}M "
          f"params_exact={report.total_params} "
          f"params_no_bn={report.total_params_ex_bn / 1e6:.2f}M "
          f"mults={report.total_mults / 1e6:.2f}M "
          f"mults_exact={report.total_mults} "
          f"input={args.input[0]}x{args.input[1]}")
    if spec.stages > 1:
        from .cost import stage_overhead
        ratios = stage_overhead(spec, args.input)
        pretty = ", ".join(f"stage{s}={r:.4f}" for s, r in ratios.items())
        print(f"{name}: mult overhead vs stage 1: {pretty}")
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            report.write_csv(f)
        print(f"wrote {args.csv}")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import DEFAULT_TOLERANCE, run_suite

    results = run_suite(seed=args.seed, corrupt=args.corrupt)
    failed = []
    for case, err in results.items():
        ok = err <= DEFAULT_TOLERANCE
        if not ok:
            failed.append(case)
        print(f"{case:24s} max_rel_err={err:.3e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        print(f"FAIL: {', '.join(failed)} exceeded tolerance {DEFAULT_TOLERANCE:g}")
        return 1
    print(f"all {len(results)} cases within tolerance {DEFAULT_TOLERANCE:g}")
    return 0


def _resolve_datasets(cfg: dict, data_arg=None, seed=None):
    """Read the config's data section, then load its splits.

    Returns (train, eval, mean, std, manifest), both splits normalized with
    the training split's statistics. ``seed`` overrides a synth section's.
    """
    from .data import (CifarLimits, SynthScaleConfig, load_cifar, normalize_per_channel,
                       synth_scale_dataset)
    from .specs import ConfigError, config_object, read_config

    section = dict(config_object(cfg.get("data", {}), "data"))
    kind = section.pop("kind", None)
    if kind == "synth":
        split = section.pop("eval_split", "held")
        if split not in ("held", "seen"):
            raise ConfigError(f"synth eval_split must be 'held' or 'seen', got {split!r}")
        if seed is not None:
            section["seed"] = seed
        scfg = SynthScaleConfig.from_dict(section)
        train_ds, seen, held = synth_scale_dataset(scfg)
        train_n, (eval_n,), mean, std = normalize_per_channel(
            train_ds, held if split == "held" else seen)
        manifest = {"kind": "synth", "eval_split": split, "config": asdict(scfg)}
        return train_n, eval_n, mean, std, manifest
    if kind not in ("cifar10", "cifar100"):
        raise ConfigError(f"config data section has unknown kind {kind!r}; "
                          f"expected synth, cifar10, or cifar100")
    limits = read_config(CifarLimits, section, kind)
    root = data_arg or os.environ.get(DATA_ROOT_ENV)
    if not root or not Path(root).exists():
        raise ConfigError(f"dataset root not found; pass --data or set ${DATA_ROOT_ENV}")
    digest = hashlib.sha256()  # of the six files, each read once, in this order
    train = load_cifar([Path(root) / f for f in CIFAR_TRAIN_FILES], kind,
                       limits.train_limit, digest)
    test = load_cifar(Path(root) / CIFAR_TEST_FILE, kind, limits.test_limit, digest)
    train_n, (eval_n,), mean, std = normalize_per_channel(train, test)
    manifest = {"kind": kind, "root": str(Path(root)), "sha256": digest.hexdigest(),
                "train_examples": len(train_n), "test_examples": len(eval_n)}
    return train_n, eval_n, mean, std, manifest


def _check_class_count(ds, class_count: int) -> None:
    from .specs import ConfigError

    if ds.class_count != class_count:
        raise ConfigError(f"config data section has {ds.class_count} classes, "
                          f"model expects {class_count}")


def cmd_train(args) -> int:
    from . import __version__
    from .cost import cost_report
    from .model import build_model
    from .specs import ConfigError, config_object, model_from_config, model_to_config
    from .trainer import TrainConfig, train

    cfg = _load_config(args.config)
    spec = model_from_config(cfg.get("model", {}))
    overrides = {key: value for key, value in (("seed", args.seed), ("epochs", args.epochs))
                 if value is not None}
    tcfg = TrainConfig.from_dict({**config_object(cfg.get("train", {}), "train"), **overrides})
    train_ds, eval_ds, mean, std, data_manifest = _resolve_datasets(cfg, args.data, args.seed)
    _check_class_count(train_ds, spec.class_count)
    cost_report(spec, train_ds.images.shape[2:])  # raises if the model cannot take the images

    run_dir = Path(args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    lock = run_dir / "run.lock"
    try:
        os.kill(int(lock.read_text()), 0)
    except ProcessLookupError:  # the run that wrote the lock is gone
        lock.unlink(missing_ok=True)
    except (OSError, ValueError, OverflowError):  # no lock, or a pid we may not signal
        pass
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(f"run directory {run_dir} is locked by {lock}; "
                          f"remove it if no run is active") from None
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    try:
        model = build_model(spec, seed=tcfg.seed)
        manifest = {
            "artifact_version": __version__,
            "model": model_to_config(spec),
            "train": json.loads(json.dumps(asdict(tcfg))),
            "data": data_manifest,
            "normalization": {"mean": mean.tolist(), "std": std.tolist()},
        }
        (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

        def log_fn(rec):
            parts = [f"epoch {rec.epoch:3d}"]
            if rec.lr is not None:
                parts.append(f"lr {rec.lr:g}")
            if rec.train_loss is not None:
                parts.append(f"loss {rec.train_loss:.4f}")
            if rec.train_error is not None:
                parts.append(f"train_err {rec.train_error:.2f}%")
            if rec.test_error is not None:
                parts.append(f"test_err {rec.test_error:.2f}%")
            parts.append(f"{rec.wallclock:.1f}s")
            print("  ".join(parts), flush=True)

        train(model, train_ds, tcfg, eval_ds=eval_ds, run_dir=run_dir, log_fn=log_fn)
        print(f"run artifacts in {run_dir}: manifest.json metrics.jsonl "
              f"checkpoint-final.npz checkpoint-best.npz")
    finally:
        lock.unlink(missing_ok=True)
    return 0


def cmd_eval(args) -> int:
    from .model import load_checkpoint
    from .trainer import evaluate, write_pred_dump

    model, _extras = load_checkpoint(args.checkpoint)
    _train, eval_ds, *_ = _resolve_datasets(_load_config(args.config), args.data)
    _check_class_count(eval_ds, model.class_count)
    error, rows = evaluate(model, eval_ds)
    print(f"error={error:.2f}% over {len(rows)} examples")
    if args.out:
        write_pred_dump(args.out, rows)
        print(f"wrote {args.out}")
    return 0


def cmd_synth_data(args) -> int:
    from .data import SynthScaleConfig, save_synth

    given = {f.name: getattr(args, f.name) for f in fields(SynthScaleConfig)}
    cfg = SynthScaleConfig.from_dict({k: v for k, v in given.items() if v is not None})
    manifest = save_synth(args.out, cfg)
    total = sum(info["examples"] for info in manifest["splits"].values())
    print(f"wrote {total} examples across {len(manifest['splits'])} splits to {args.out}")
    return 0


def cmd_compare_preds(args) -> int:
    from .trainer import compare_preds, read_pred_dump

    baselines = [read_pred_dump(p) for p in args.baselines]
    target = read_pred_dump(args.target)
    ids = compare_preds(baselines, target)
    print(f"{len(ids)} examples misclassified by all {len(baselines)} baselines "
          f"and classified correctly by the target")
    for example_id in ids:
        print(example_id)
    if args.out:
        with open(args.out, "w") as f:
            f.writelines(f"{i}\n" for i in ids)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsmsnet",
        description="Weight-shared multi-stage CNNs: cost model, training, benchmarks")
    parser.add_argument("--threads", type=_parse_threads, default=None,
                        help="pin BLAS/OpenMP thread count before numpy loads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="static parameter and multiplication report")
    p.add_argument("config", help="model config JSON (see presets/)")
    p.add_argument("--input", type=_parse_hw, default=(32, 32), metavar="HxW")
    p.add_argument("--csv", help="also write per-layer rows as CSV")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward rule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", default=None, metavar="CASE",
                   help="fault-injection self test: corrupt this case's gradient")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train", help="train a model described by a config file")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="run directory for artifacts")
    p.add_argument("--data", default=None,
                   help=f"dataset root (default ${DATA_ROOT_ENV})")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--epochs", type=int, default=None, help="override config epochs")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint and dump predictions")
    p.add_argument("checkpoint")
    p.add_argument("config", help="config naming the dataset to evaluate on")
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None, help="write per-example prediction CSV")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("synth-data", help="render the synthetic scale benchmark to disk")
    p.add_argument("--out", required=True)
    # each flag sets the SynthScaleConfig field of its dest; the defaults are that class's
    p.add_argument("--classes", type=int, dest="class_count", metavar="CLASSES")
    p.add_argument("--image-size", type=int)
    p.add_argument("--train-scales", type=float, nargs=2)
    p.add_argument("--test-scales", type=float, nargs=2)
    p.add_argument("--train-per-class", type=int)
    p.add_argument("--test-per-class", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("compare-preds",
                       help="ids wrong in every baseline dump but right in the target")
    p.add_argument("--baselines", nargs="+", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare_preds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        _set_threads(args.threads)

    from .data import DataFormatError
    from .specs import ConfigError
    from .trainer import DivergenceError

    try:
        return args.fn(args)
    except (ConfigError, DataFormatError, FileNotFoundError, IsADirectoryError,
            PermissionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
