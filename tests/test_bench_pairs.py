import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = {
    "field_s": {"unit": "s", "better": "lower"},
    "probes_per_s": {"unit": "1/s", "better": "higher"},
}


def _result(failed=0, attempted=10, correct=True, **values):
    metrics = {name: {"value": v, "unit": "x"} for name, v in values.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


class TestSummary:
    def test_wins_follow_better_direction(self):
        pairs = [
            (_result(field_s=2.0, probes_per_s=10.0), _result(field_s=1.0, probes_per_s=20.0)),
            (_result(field_s=2.0, probes_per_s=10.0), _result(field_s=3.0, probes_per_s=5.0)),
            (_result(field_s=2.0, probes_per_s=10.0), _result(field_s=1.5, probes_per_s=11.0)),
        ]
        out = bench_pairs.summarize(pairs, [1, 2, 3], SPECS)
        assert out["metrics"]["field_s"]["change_wins"] == 2
        assert out["metrics"]["probes_per_s"]["change_wins"] == 2
        assert out["metrics"]["probes_per_s"]["better"] == "higher"

    @pytest.mark.parametrize("better", ["lower", "higher"])
    def test_ties_count_for_neither_side(self, better):
        assert bench_pairs.change_wins([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], better) == 0
        won = bench_pairs.change_wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], better)
        assert won == 1

    def test_layout(self):
        pairs = [
            (_result(failed=1, attempted=9, field_s=float(k), extra=1.0),
             _result(attempted=11, correct=k != 3, field_s=float(k) / 2, extra=1.0))
            for k in range(1, 6)
        ]
        out = bench_pairs.summarize(pairs, [7, 8, 9, 10, 11], SPECS)
        assert out["seeds"] == [7, 8, 9, 10, 11] and out["pairs"] == 5
        assert out["failed"] == {"parent": 5, "change": 0}
        assert out["attempted"] == {"parent": 45, "change": 55}
        assert out["correct"] is False
        assert list(out["metrics"]) == ["field_s"]  # metrics without a spec are left out
        field = out["metrics"]["field_s"]
        assert field["unit"] == "s"
        assert field["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
        assert field["change"] == {"median": 1.5, "q1": 1.0, "q3": 2.0}
        assert field["change_wins"] == 5

    def test_single_pair_quartiles(self):
        assert bench_pairs.quartiles([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25}

    def test_specs_from_benchmark_file(self):
        specs = bench_pairs.metric_specs(ROOT)
        assert specs["validate_s"]["better"] == "lower"
        assert specs["probes_per_s"]["better"] == "higher"
        assert specs["oracle.kelvin_calls"]["unit"] == "count"


def test_parse_seeds():
    assert bench_pairs.parse_seeds("7001-7003,7010") == [7001, 7002, 7003, 7010]
    assert bench_pairs.parse_seeds("5") == [5]
