import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

    def test_one_pair_has_its_value_as_quartiles(self, bench_pairs):
        assert bench_pairs.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
