"""tools/bench_pairs.py: the pair summary and the --pairs parser, on synthetic runs."""
import argparse
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402


def run(pair, side, correct=True, failed=0, **values):
    return {"pair": pair, "side": side,
            "result": {"correct": correct, "failed": failed,
                       "metrics": {name: {"value": v} for name, v in values.items()}}}


def test_ties_count_for_neither_side():
    runs = [run(0, "parent", ms=10.0), run(0, "change", ms=10.0),
            run(1, "change", ms=9.0), run(1, "parent", ms=10.0),
            run(2, "parent", ms=10.0), run(2, "change", ms=11.0)]
    summary = bench_pairs.summarise(runs, {"ms": "lower"})["ms"]
    assert summary["pairs"] == 3
    assert summary["change_wins"] == 1
    assert summary["parent"]["median"] == 10.0
    assert summary["change"] == {"median": 10.0, "q1": 9.5, "q3": 10.5}


def test_incomplete_pairs_are_skipped():
    runs = [run(0, "parent", ms=10.0), run(0, "change", ms=9.0),
            run(1, "parent", ms=10.0),
            run(2, "parent", ms=10.0), {"pair": 2, "side": "change", "result": {"error": "x"}}]
    summary = bench_pairs.summarise(runs, {"ms": "lower"})["ms"]
    assert summary["pairs"] == 1
    assert summary["change_wins"] == 1


def test_better_sets_the_direction_of_a_win():
    runs = [run(0, "parent", rate=2.0, ms=10.0), run(0, "change", rate=3.0, ms=11.0),
            run(1, "parent", rate=2.0, ms=10.0), run(1, "change", rate=1.0, ms=12.0)]
    summary = bench_pairs.summarise(runs, {"rate": "higher"})
    assert summary["rate"]["better"] == "higher"
    assert summary["rate"]["change_wins"] == 1
    # a metric missing from ``better`` counts a lower value as a win
    assert summary["ms"]["better"] == "lower"
    assert summary["ms"]["change_wins"] == 0


def test_pair_count_reads_workload_and_count():
    assert bench_pairs._pair_count("kccsd-mgm-large=10") == ("kccsd-mgm-large", 10)


@pytest.mark.parametrize("text", ["W=0", "W", "W=", "=3", "W=-1"])
def test_pair_count_rejects_a_missing_or_nonpositive_count(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs._pair_count(text)


def test_incorrect_runs_count_errors_failures_and_incorrect_results():
    runs = [run(0, "parent", ms=10.0), run(0, "change", correct=False, ms=9.0),
            run(1, "parent", failed=2, ms=10.0), run(1, "change", ms=9.0),
            {"pair": 2, "side": "change", "result": {"error": "exit code 1"}},
            run(3, "change", failed=1, ms=9.0)]
    assert bench_pairs.incorrect_runs(runs) == {"parent": 1, "change": 3}


@pytest.mark.parametrize("change_correct, status", [(True, 0), (False, 1)])
def test_main_fails_when_a_change_run_is_not_correct(change_correct, status, tmp_path,
                                                     monkeypatch):
    def run_once(tree, workload, seed, trace, seconds):
        ok = change_correct or tree.name == "parent"
        return run(0, "", correct=ok, ms=10.0)["result"]

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "directions", lambda tree: {"ms": "lower"})
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--pairs", "W=2", "--out", str(out)]
    assert bench_pairs.main(argv) == status
    record = json.loads(out.read_text())
    assert record["workloads"]["W"]["incorrect"] == {"parent": 0,
                                                     "change": 0 if change_correct else 2}
