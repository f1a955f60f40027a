"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

BLAS threads are pinned to 1 before numpy loads. The line before the result
is the run's protocol record; both are also written, with the spans of a
traced run, under ``.perfbench_out/`` in the checkout. The exit code is 0
whenever a result is printed (its ``correct`` field carries the checks) and 2
when the program source is not next to the benchmark.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def tracing_overhead(out_dir: Path, workload: str, traced: dict):
    """Traced end-to-end numbers over the median of this workload's untraced results."""
    untraced = [json.loads(p.read_text())["result"]["metrics"]
                for p in sorted(out_dir.glob(f"result-{workload}-seed*-trace0.json"))]
    if not untraced:
        return None
    ratios = {"untraced_runs": len(untraced)}
    for name in ("examples_per_s", "step_s_p50"):
        base = statistics.median(m[name]["value"] for m in untraced)
        ratios[name] = traced["metrics"][f"trace.{name}"]["value"] / base
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "wsmsnet" / "__init__.py").is_file():
        print(f"perfbench: no wsmsnet source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {d["name"]: d["unit"] for d in declared["per_layer" if args.trace else "end_to_end"]}
    result, record, doc = workloads.run(args.workload, args.seed, args.seconds,
                                        bool(args.trace), BLAS_THREADS)
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(set(result['metrics']) ^ set(units))} "
                           "do not match BENCHMARK.json")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workloads.OUT_DIR.mkdir(exist_ok=True)
    if doc is not None:
        record["tracing_overhead"] = tracing_overhead(workloads.OUT_DIR, args.workload, result)
    (workloads.OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({"protocol": record, "result": result}, indent=1) + "\n")
    if doc is not None:
        (workloads.OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(doc) + "\n")
    print(json.dumps({"protocol": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
