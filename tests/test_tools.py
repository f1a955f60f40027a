import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return load_tool("bench_pairs")


@pytest.fixture(scope="module")
def checkpoint_digests():
    env = dict(os.environ)
    try:
        return load_tool("checkpoint_digests")
    finally:  # loading pins BLAS threads in the environment; keep that from other tests
        os.environ.clear()
        os.environ.update(env)


def results(values):
    return [{"metrics": {name: {"value": v} for name, v in pair.items()}} for pair in values]


class TestBenchPairs:
    def test_wins_follow_each_metric_direction(self, bench_pairs):
        declared = [{"name": "examples_per_s", "better": "higher"},
                    {"name": "step_s_p50", "better": "lower"}]
        paired = {
            "parent": results([{"examples_per_s": 10.0, "step_s_p50": 2.0},
                               {"examples_per_s": 12.0, "step_s_p50": 1.0},
                               {"examples_per_s": 11.0, "step_s_p50": 1.5}]),
            "change": results([{"examples_per_s": 12.0, "step_s_p50": 1.0},
                               {"examples_per_s": 12.0, "step_s_p50": 2.0},
                               {"examples_per_s": 16.5, "step_s_p50": 1.5}]),
        }
        summary = bench_pairs.summarise(paired, declared)
        rate = summary["examples_per_s"]
        # a tie is no win
        assert rate["change_wins"] == 2 and summary["step_s_p50"]["change_wins"] == 1
        assert rate["ratios"] == [1.2, 1.0, 1.5]
        assert rate["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
        assert rate["change"]["median"] == 12.0

    @staticmethod
    def verdicts(bench_pairs, parent, change, better="higher", bound=0.25):
        declared = [{"name": "m", "better": better, "bound": bound}]
        paired = {side: results([{"m": v} for v in values])
                  for side, values in (("parent", parent), ("change", change))}
        summary = bench_pairs.summarise(paired, declared)["m"]
        return summary["claim_met"], summary["within_bound"]

    def test_claim_needs_nine_in_ten_wins_and_a_gain_past_the_spread(self, bench_pairs):
        parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
        # parent q1, q3 = 99.0, 100.75: the median must gain more than 1.75
        assert self.verdicts(bench_pairs, parent, [p + 3.0 for p in parent]) == (True, True)
        # nine wins of ten still claim; eight do not
        nine = [p + 3.0 for p in parent[:9]] + [parent[9] - 1.0]
        eight = [p + 3.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]]
        assert self.verdicts(bench_pairs, parent, nine)[0]
        assert not self.verdicts(bench_pairs, parent, eight)[0]
        # every pair won, but by less than the spread
        assert not self.verdicts(bench_pairs, parent, [p + 1.0 for p in parent])[0]

    def test_claim_and_bound_follow_a_lower_is_better_metric(self, bench_pairs):
        parent = [2.0, 2.1, 1.9, 2.0]
        assert self.verdicts(bench_pairs, parent, [1.0, 1.1, 0.9, 1.0], "lower") == (True, True)
        assert self.verdicts(bench_pairs, parent, [2.5, 2.6, 2.4, 2.5], "lower") == (False, True)
        assert self.verdicts(bench_pairs, parent, [2.6, 2.7, 2.5, 2.6], "lower") == (False, False)

    def test_bound_is_a_fraction_of_the_parent_median(self, bench_pairs):
        parent = [100.0, 100.0, 100.0]
        assert self.verdicts(bench_pairs, parent, [75.0] * 3) == (False, True)
        assert self.verdicts(bench_pairs, parent, [74.0] * 3) == (False, False)
        assert self.verdicts(bench_pairs, parent, [95.0] * 3, bound=0.1)[1]
        assert self.verdicts(bench_pairs, parent, [89.0] * 3, bound=0.1) == (False, False)
        assert self.verdicts(bench_pairs, parent, [50.0] * 3, bound=None)[1] is None

    def test_only_bench_records_leave_the_tree_clean(self, bench_pairs):
        assert not bench_pairs.dirty("")
        assert not bench_pairs.dirty(" M BENCH_synth-wsms-train.json\n?? BENCH_new.json")
        assert bench_pairs.dirty(" M BENCH_synth-wsms-train.json\n M src/wsmsnet/ops.py")
        assert bench_pairs.dirty("?? notes.txt")
        assert bench_pairs.dirty(" M perfbench/BENCH_x.json")

    def test_one_pair_has_its_value_as_quartiles(self, bench_pairs):
        assert bench_pairs.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}

    def test_usage_gives_side_medians_and_pair_values(self, bench_pairs):
        def runs(counts):
            return [{"rusage": {"minor_faults": f, "cpu_s": c}} for f, c in counts]
        paired = {"parent": runs([(100, 2.0), (300, 4.0), (200, 3.0)]),
                  "change": runs([(50, 1.5), (70, 2.5), (60, 2.0)])}
        counts = bench_pairs.usage(paired)
        assert counts["minor_faults"] == {"parent": 200, "change": 60,
                                          "pairs": [[100, 50], [300, 70], [200, 60]]}
        assert counts["cpu_s"]["parent"] == 3.0 and counts["cpu_s"]["change"] == 2.0
        assert counts["cpu_s"]["pairs"][1] == [4.0, 2.5]

    def test_run_once_counts_the_child_process(self, bench_pairs, tmp_path):
        """A stand-in run.py that touches 64 MB shows at least that many
        faults and some CPU time in its rusage."""
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(
            "import json\n"
            "block = bytearray(64 << 20)\n"
            "for i in range(0, len(block), 4096):\n"
            "    block[i] = 1\n"
            "print(json.dumps({'metrics': {}}))\n")
        result = bench_pairs.run_once(tmp_path, "w", 0, 1)
        assert result["metrics"] == {}
        assert result["rusage"]["minor_faults"] >= (64 << 20) // 4096
        assert result["rusage"]["cpu_s"] > 0

    def test_run_once_records_the_load_average_at_its_end(self, bench_pairs, tmp_path):
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(
            "import json\nprint(json.dumps({'metrics': {}}))\n")
        load = bench_pairs.run_once(tmp_path, "w", 0, 1)["rusage"]["load_1m"]
        assert isinstance(load, float) and load >= 0

    def test_run_once_keeps_the_protocol(self, bench_pairs, tmp_path):
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(
            "import json\n"
            "print(json.dumps({'protocol': {'blas_threads': '1'}}))\n"
            "print(json.dumps({'metrics': {}}))\n")
        result = bench_pairs.run_once(tmp_path, "w", 0, 1)
        assert result["protocol"] == {"blas_threads": "1"}

    def test_shared_protocol_keeps_the_fields_every_run_shares(self, bench_pairs):
        def runs(*seeds):
            return [{"protocol": {"seed": s, "blas_threads": "1"}} for s in seeds]
        assert bench_pairs.shared_protocol({"parent": runs(1, 2), "change": runs(1, 2)}) == \
            {"blas_threads": "1"}

    def test_records_are_appended_one_per_invocation(self, bench_pairs, tmp_path):
        path = tmp_path / "BENCH_w.json"
        bench_pairs.append_record(path, {"pairs": 1})
        bench_pairs.append_record(path, {"pairs": 2})
        assert [r["pairs"] for r in json.loads(path.read_text())] == [1, 2]


class TestCheckpointDigests:
    def test_preset_digest_is_repeatable(self, checkpoint_digests):
        preset = ROOT / "presets" / "synth-wsms-tiny.json"
        first = checkpoint_digests.preset_digest(preset)
        assert len(first) == 64
        assert checkpoint_digests.preset_digest(preset) == first

    def test_header_names_numpy_first(self, checkpoint_digests):
        assert checkpoint_digests.header().startswith("# numpy ")
