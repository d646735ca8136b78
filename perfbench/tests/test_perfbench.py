"""Self-test of the benchmark: every metric of BENCHMARK.json is emitted with
its unit, on every workload, and the span analysis computes self time.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def test_smoke_run_emits_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = summary[workload["name"]][trace]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected, (workload["name"], trace)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name


def test_self_time_subtracts_the_union_of_children():
    recorder = spans.Recorder()
    root = spans.Span(0, "root", None, 0, start=0.0, end=10.0)
    a = spans.Span(1, "a", 0, 0, start=1.0, end=4.0)
    b = spans.Span(2, "b", 0, 0, start=3.0, end=6.0)  # overlaps a, as from another thread
    c = spans.Span(3, "c", 1, 0, start=2.0, end=3.0)
    recorder.spans = [c, a, b, root]
    own = spans.self_times(recorder.spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
    assert spans.self_time_by_root(recorder.spans)[0] == {"root": 5.0, "a": 2.0, "b": 3.0, "c": 1.0}


def test_wrappers_record_spans_and_are_removed():
    sys.path.insert(0, str(ROOT / "src"))
    import steincal.statistics as statistics

    original = statistics.u_statistic
    recorder = spans.Recorder()
    instrumentation = spans.Instrumentation(recorder, [
        spans.Target("u", "steincal.statistics", "u_statistic"),
        spans.Target("gone", "steincal.statistics", "no_such_function"),
    ])
    assert instrumentation.missing == {"gone"}
    instrumentation.install()
    try:
        with recorder.span("root", root=True):
            statistics.u_statistic([[0.0, 1.0], [1.0, 0.0]])
    finally:
        instrumentation.remove()
    assert statistics.u_statistic is original
    assert [sp.name for sp in recorder.spans] == ["u", "root"]
    assert recorder.spans[0].parent == recorder.spans[1].id
