"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py REV WORKLOAD N [--seed0 K]

The change is the tracked files of the checkout this script lives in, as
they stand on disk, staged or not (``git stash create``; untracked files are
left out); the parent is commit REV. Both are exported with ``git archive``
into sibling temporary directories whose paths have the same length, so
both sides run from alike fresh trees, as the benchmark runs them, and the
repository gets no new worktree or ref. Pair i runs
``perfbench/run.py --workload WORKLOAD --seed K+i --seconds S --trace 0`` once
in each tree, one process at a time, the parent first in even pairs and the
change first in odd ones, so drift of the machine falls on both sides alike.
S is ``run_seconds`` of ``BENCHMARK.json``, so every run is timed as the
benchmark times it.

Prints one JSON object: for every end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles, the per-pair ratio change/parent, and in how
many pairs the change was better (in the direction the metric names). Each
side's ``correct`` flags and failed shares are listed per pair. ``rusage``
gives each run's minor page faults and CPU seconds (user plus system), the
``getrusage(RUSAGE_CHILDREN)`` deltas around its process, set-up and warm-up
included: each side's median and the (parent, change) values of every pair.
Progress goes to standard error.

The same object, with a ``protocol`` entry, is appended to the JSON list in
``BENCH_<WORKLOAD>.json`` at the root of the checkout, one record per
invocation. The protocol holds the pair count and order, the children's
malloc settings (glibc's defaults, as the benchmark itself runs), the
machine, and every field of ``run.py``'s own protocol line that all runs
share (BLAS threads and version, warm-up, median rule).

Needs Python 3.10.12, 3.11.4 or 3.12 and later, whose ``tarfile`` has the
``data`` extraction filter: it keeps the exported paths inside the temporary
directory.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The tree of commit ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one ``run.py`` process in ``tree``, with the
    process's minor faults and CPU seconds added under ``rusage`` and its
    protocol line, if it printed one, under ``protocol``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["protocol"] = json.loads(lines[-2])["protocol"] if len(lines) > 1 else {}
    result["rusage"] = {"minor_faults": after.ru_minflt - before.ru_minflt,
                        "cpu_s": cpu_s(after) - cpu_s(before)}
    return result


def spread(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(results: dict, declared: list) -> dict:
    """Per-metric spreads, ratios and change wins over paired ``results``."""
    metrics = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        metrics[name] = {
            "better": metric["better"], "parent": spread(parent), "change": spread(change),
            "ratios": [c / p if p else None for p, c in zip(parent, change)],
            "change_wins": wins,
        }
    return metrics


def usage(results: dict) -> dict:
    """Each side's median and the per-pair values of every ``rusage`` count."""
    counts = {}
    for key in results["parent"][0]["rusage"]:
        sides = {side: [r["rusage"][key] for r in rs] for side, rs in results.items()}
        counts[key] = {**{side: statistics.median(v) for side, v in sides.items()},
                       "pairs": [list(pair) for pair in zip(sides["parent"], sides["change"])]}
    return counts


def shared_protocol(results: dict) -> dict:
    """The fields of the runs' own protocol records that every run shares."""
    runs = [r["protocol"] for rs in results.values() for r in rs]
    return {k: v for k, v in runs[0].items() if all(run.get(k) == v for run in runs)}


def append_record(path: Path, record: dict) -> None:
    """Add ``record`` to the JSON list in ``path``, starting the list if absent."""
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="parent commit")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seed0", type=int, default=100, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed0 < 0:
        parser.error("N must be >= 1 and --seed0 >= 0")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    parent_id = git("rev-parse", args.rev)
    change_id = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    revs = {"parent": parent_id, "change": git("stash", "create") or git("rev-parse", "HEAD")}
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in trees.items():
            export(revs[side], tree)
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, seed, seconds)
                results[side].append(result)
                rate = result["metrics"]["examples_per_s"]["value"]
                faults = result["rusage"]["minor_faults"]
                print(f"pair {i} seed {seed} {side}: {rate:.3f} ex/s, {faults} minor faults",
                      file=sys.stderr, flush=True)
    record = {
        "workload": args.workload, "parent": parent_id, "change": change_id,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "protocol": {
            "pairs": args.pairs,
            "order": "one run at a time; the parent first in even pairs, the change in odd ones",
            "malloc": "glibc defaults",
            "machine": platform.machine(),
            "run": shared_protocol(results),
        },
        "seconds": seconds, "seeds": [args.seed0 + i for i in range(args.pairs)],
        "metrics": summarise(results, benchmark["end_to_end"]),
        "rusage": usage(results),
        "correct": {side: [r["correct"] for r in rs] for side, rs in results.items()},
        "failed_share": {side: [r["failed"] / r["attempted"] if r["attempted"] else None
                                for r in rs] for side, rs in results.items()},
    }
    append_record(ROOT / f"BENCH_{args.workload}.json", record)
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
