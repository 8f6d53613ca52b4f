import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench_pairs  # noqa: E402


def result(**values):
    """A ``bench/run.py`` result line holding only the given metrics."""
    return {"metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}


def spec(better):
    return {"name": "verdict_p50_x", "unit": "x", "better": better, "bound": 0.15}


class TestSummary:
    def test_median_quartiles_and_runs(self):
        runs = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert bench_pairs.summary(runs) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": runs}

    def test_even_count_interpolates(self):
        assert bench_pairs.summary([1.0, 2.0, 3.0, 4.0]) == {
            "median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [1.0, 2.0, 3.0, 4.0],
        }


class TestCompare:
    # pair by pair: the change is better, tied, worse, better under lower-is-better
    PARENT = [1.0, 2.0, 3.0, 4.0]
    CHANGE = [0.5, 2.0, 4.0, 3.0]

    def runs(self):
        return {
            "parent": [result(verdict_p50_x=v) for v in self.PARENT],
            "change": [result(verdict_p50_x=v) for v in self.CHANGE],
        }

    @pytest.mark.parametrize("better,won", [("lower", 2), ("higher", 1)])
    def test_pairs_won_ignores_ties(self, better, won):
        assert bench_pairs.compare(spec(better), self.runs())["pairs_won"] == won

    def test_both_sides_summarised_next_to_the_bound(self):
        compared = bench_pairs.compare(spec("lower"), self.runs())
        assert (compared["unit"], compared["better"], compared["bound"]) == ("x", "lower", 0.15)
        assert compared["parent"] == bench_pairs.summary(self.PARENT)
        assert compared["change"] == bench_pairs.summary(self.CHANGE)


class TestTracedSummary:
    def test_each_metric_over_the_runs(self):
        seconds = [0.01 * i for i in range(1, 11)]
        results = [result(**{"cli.import_s": s, "parser.sentences": 4.0}) for s in seconds]
        traced = bench_pairs.traced_summary(results)
        assert list(traced) == ["cli.import_s", "parser.sentences"]
        assert traced["cli.import_s"] == bench_pairs.summary(seconds)
        assert traced["parser.sentences"] == {
            "median": 4.0, "q1": 4.0, "q3": 4.0, "runs": [4.0] * 10,
        }


class TestOrder:
    def test_first_side_alternates(self):
        assert [bench_pairs.order(i) for i in range(3)] == [
            ("parent", "change"), ("change", "parent"), ("parent", "change"),
        ]
