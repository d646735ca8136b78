"""steincal benchmark: four workloads driven through ``steincal.cli.cli``.

Run from the repository root:

    python3 perfbench/run.py --workload kccsd-mgm-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke               # every workload, small inputs, both passes
    python3 perfbench/run.py --record-reference    # rewrite perfbench/reference.json

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the traced run: a span pass (untraced and traced calls
alternate, which gives the tracing overhead), for the sweep a pass that
alternates one and two threads, and a separate tracemalloc pass for peak
memory per layer. Every result is checked. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
full record (environment, samples, spans) goes to perfbench/results/.
"""
import os

# One BLAS thread in every benchmark process, set before numpy is imported;
# the sweep workload's parallelism comes from its own --threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome, call_cli  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_FILE = HERE / "reference.json"
RESULTS_DIR = HERE / "results"
WORK_DIR = HERE / "work"

# The tail needs ten samples beyond it, so a run keeps going past --seconds
# (up to twice as long) until it has eleven.
TAIL_BEYOND = 10
SETUP_REPEATS = {"full": 3, "small": 1}

END_TO_END_UNITS = {
    "test_ms_p50": "ms",
    "test_ms_tail": "ms",
    "tests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (span name, module, attribute) of every public function the traced run wraps.
_LAYER_TARGETS = [
    ("harness.read_dataset", "steincal.harness", "read_dataset"),
    ("harness.write_csv", "steincal.harness", "write_csv"),
    ("models.sample_setup", "steincal.models", "sample_setup"),
    ("kernels.target_bandwidth", "steincal.harness", "resolve_target_kernel"),
    ("kernels.ground_bandwidth", "steincal.harness", "resolve_dist_kernel"),
    ("kernels.dist_gram", "steincal.kernels", "DistributionKernel.gram"),
    ("statistics.stat_matrix", "steincal.statistics", "kccsd_stat_matrix"),
    ("statistics.stat_matrix", "steincal.statistics", "skce_stat_matrix"),
    ("statistics.u_statistic", "steincal.statistics", "u_statistic"),
    ("statistics.bootstrap", "steincal.statistics", "wild_bootstrap"),
    ("sampling.mala", "steincal.sampling", "run_mala"),
]
ROOT_SPAN = "cli"

# Per-layer metric -> span whose self time (ms per test) it reports.
SELF_MS = {
    "cli.self_ms": ROOT_SPAN,
    "harness.read_dataset_ms": "harness.read_dataset",
    "harness.write_csv_ms": "harness.write_csv",
    "models.sample_setup_ms": "models.sample_setup",
    "kernels.target_bandwidth_ms": "kernels.target_bandwidth",
    "kernels.ground_bandwidth_ms": "kernels.ground_bandwidth",
    "kernels.dist_gram_ms": "kernels.dist_gram",
    "statistics.stat_matrix_ms": "statistics.stat_matrix",
    "statistics.u_statistic_ms": "statistics.u_statistic",
    "statistics.bootstrap_ms": "statistics.bootstrap",
    "sampling.mala_ms": "sampling.mala",
}
# Per-layer metric -> span whose traced peak above entry (MB per call) it reports.
PEAK_MB = {
    "kernels.target_bandwidth_peak_mb": "kernels.target_bandwidth",
    "kernels.ground_bandwidth_peak_mb": "kernels.ground_bandwidth",
    "kernels.dist_gram_peak_mb": "kernels.dist_gram",
    "statistics.stat_matrix_peak_mb": "statistics.stat_matrix",
    "statistics.bootstrap_peak_mb": "statistics.bootstrap",
}
PER_LAYER_UNITS = {
    **{name: "ms" for name in SELF_MS},
    **{name: "MB" for name in PEAK_MB},
    "harness.sweep_speedup_2t": "ratio",
    "sampling.mala_chains": "count",
    "sampling.mala_acceptance": "frac",
    "trace.overhead_frac": "frac",
    "trace.span_coverage": "frac",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _count_mala(counters, args, kwargs, result) -> None:
    # run_mala(target, cfg, init, n_samples, stream) -> MalaRun
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    n_samples = args[3] if len(args) > 3 else kwargs["n_samples"]
    proposed = cfg.burn_in + cfg.n_steps * n_samples
    counters["mala_proposed"] += proposed
    counters["mala_accepted"] += round(result.acceptance_rate * proposed)


def layer_targets() -> list:
    return [spans.Target(name, module, attr, _count_mala if name == "sampling.mala" else None)
            for name, module, attr in _LAYER_TARGETS]


# ---------------------------------------------------------------------------
# Running calls
# ---------------------------------------------------------------------------

def import_cli():
    if not (SRC / "steincal" / "__init__.py").is_file():
        raise BenchError(f"no steincal sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import steincal
    from steincal.cli import cli

    if Path(steincal.__file__).resolve().parent != (SRC / "steincal").resolve():
        raise BenchError(f"steincal imported from {steincal.__file__}, not from {SRC}")
    return cli


class Tally:
    """Tests attempted and failed, per-test times and busy time of a pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.test_ms: list[float] = []
        self.call_s: list[float] = []
        self.ok_tests = 0

    def add(self, outcome: Outcome, wall_s: float) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors += outcome.errors
        self.test_ms += outcome.test_ms
        self.call_s.append(wall_s)
        self.ok_tests += outcome.attempted - outcome.failed


def run_call(cli, workload, argv, recorder=None) -> tuple[Outcome, float]:
    start = time.perf_counter()
    try:
        if recorder is None:
            rc, out, err = call_cli(cli, argv)
        else:
            with recorder.span(ROOT_SPAN, root=True):
                rc, out, err = call_cli(cli, argv)
    except Exception:  # a crash inside the program is a failed test, not a benchmark crash
        wall = time.perf_counter() - start
        total = workload.tests_per_call()
        return Outcome(attempted=total, failed=total, errors=[traceback.format_exc()]), wall
    wall = time.perf_counter() - start
    return workload.check(argv, rc, out, err, wall * 1000.0), wall


def run_indexed(cli, workload, i: int, reference, recorder=None, threads=None):
    """Call ``i`` of a loop. Call 0 runs the reference input and compares the
    result with the one recorded in reference.json (when the workload has one)."""
    if i:
        return run_call(cli, workload, workload.argv(i, threads), recorder)
    outcome, wall = run_call(cli, workload, workload.reference_argv(), recorder)
    if reference is not None and not outcome.failed:
        workload.compare_reference(outcome, reference)
    return outcome, wall


def load_reference(workload, size: str):
    if not workload.reference:
        return None
    try:
        with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
            return json.load(fh)[size][workload.name]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference values for {workload.name} ({size}): {exc!r}") from exc


def measure_setup(workload, repeats: int) -> list[float]:
    """Set-up times, each from a fresh interpreter: import plus one warm-up call."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(workload.warmup_argv())],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["rc"] != 0:
            raise BenchError(f"warm-up call exited with {probe['rc']}")
        times.append(probe["setup_s"])
    return times


def tail(samples: list[float]) -> tuple[float, float]:
    """Tail time and its percentile level.

    p90 once TAIL_BEYOND samples lie beyond it (100 samples or more); below
    that, the order statistic with exactly TAIL_BEYOND samples beyond it (the
    maximum when there are no more samples than that). Higher percentiles of
    the sweep's per-row times move by a fifth between runs on a 2-vCPU host.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n * 0.1 >= TAIL_BEYOND:
        return float(np.percentile(ordered, 90.0)), 90.0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(cli, workload, reference, seconds: float,
               setup_times: list[float]) -> tuple[dict, Tally, dict]:
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(tally.test_ms) > TAIL_BEYOND or elapsed >= 2 * seconds
        if elapsed >= seconds and enough:
            break
        outcome, wall = run_indexed(cli, workload, i, reference)
        tally.add(outcome, wall)
        i += 1
    if not tally.test_ms:
        return {}, tally, {}
    tail_ms, level = tail(tally.test_ms)
    metrics = {
        "test_ms_p50": statistics.median(tally.test_ms),
        "test_ms_tail": tail_ms,
        "tests_per_s": tally.ok_tests / sum(tally.call_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    detail = {"tail_percentile": level, "samples": len(tally.test_ms), "calls": i,
              "test_ms": tally.test_ms, "call_s": tally.call_s, "setup_s": setup_times}
    return metrics, tally, detail


def _until(deadline: float, count: int, minimum: int) -> bool:
    return time.perf_counter() < deadline or count < minimum


def traced(cli, workload, reference, seconds: float) -> tuple[dict, Tally, dict]:
    """Span pass, (sweep only) thread pass, then a tracemalloc pass."""
    tally = Tally()
    sweep = workload.command == "experiment"
    start = time.perf_counter()
    shares = (0.4, 0.7) if sweep else (0.6, 0.6)

    # Span pass: untraced and traced calls alternate.
    recorder = spans.Recorder()
    instrumentation = spans.Instrumentation(recorder, layer_targets())
    plain_ms, traced_ms, root_walls = [], [], {}
    i = 0
    while _until(start + shares[0] * seconds, i, 4):
        if i % 2:
            instrumentation.install()
            try:
                outcome, wall = run_indexed(cli, workload, i, reference, recorder)
            finally:
                instrumentation.remove()
            root_walls[recorder.spans[-1].id] = wall
            traced_ms.append(1000.0 * wall / workload.tests_per_call())
        else:
            outcome, wall = run_indexed(cli, workload, i, reference)
            plain_ms.append(1000.0 * wall / workload.tests_per_call())
        tally.add(outcome, wall)
        i += 1

    # Thread pass (sweep only): one and two threads alternate, untraced.
    walls = {1: [], 2: []}
    while sweep and _until(start + shares[1] * seconds, len(walls[1]) + len(walls[2]), 4):
        threads = 1 + i % 2
        outcome, wall = run_indexed(cli, workload, i, reference, threads=threads)
        tally.add(outcome, wall)
        walls[threads].append(wall)
        i += 1

    # Memory pass: tracemalloc on, spans record their traced peaks.
    mem_recorder = spans.Recorder(memory=True)
    mem_instrumentation = spans.Instrumentation(mem_recorder, layer_targets())
    tracemalloc.start()
    mem_instrumentation.install()
    try:
        calls = 0
        while _until(start + seconds, calls, 1):
            outcome, wall = run_indexed(cli, workload, i, reference, mem_recorder)
            tally.add(outcome, wall)
            i += 1
            calls += 1
    finally:
        mem_instrumentation.remove()
        tracemalloc.stop()

    per_root = spans.self_time_by_root(recorder.spans)
    roots = [sp for sp in recorder.spans if sp.parent is None]
    counts = {r.id: {} for r in roots}
    for sp in recorder.spans:
        counts[sp.root][sp.name] = counts[sp.root].get(sp.name, 0) + 1
    tests = workload.tests_per_call()
    missing = instrumentation.missing

    metrics = {}
    for metric, span_name in SELF_MS.items():
        if span_name not in missing:
            metrics[metric] = statistics.median(
                1000.0 * per_root[r.id][span_name] / tests for r in roots)
    for metric, span_name in PEAK_MB.items():
        if span_name not in missing:
            peaks = [sp.peak_above_entry / 2 ** 20 for sp in mem_recorder.spans
                     if sp.name == span_name]
            metrics[metric] = statistics.median(peaks) if peaks else 0.0
    if "sampling.mala" not in missing:
        metrics["sampling.mala_chains"] = statistics.median(
            counts[r.id].get("sampling.mala", 0) / tests for r in roots)
        if "sampling.mala" not in recorder.broken_counters:
            proposed = recorder.counters["mala_proposed"]
            metrics["sampling.mala_acceptance"] = (
                recorder.counters["mala_accepted"] / proposed if proposed else 0.0)
    # Zero where the workload does not run a sweep.
    metrics["harness.sweep_speedup_2t"] = (
        statistics.median(walls[1]) / statistics.median(walls[2]) if sweep else 0.0)
    metrics["trace.overhead_frac"] = statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0
    metrics["trace.span_coverage"] = statistics.median(
        sum(per_root[r.id].values()) / root_walls[r.id] for r in roots)

    detail = {
        "missing_targets": sorted(missing),
        "plain_ms": plain_ms, "traced_ms": traced_ms,
        "thread_walls_s": walls,
        "mala_counters": dict(recorder.counters),
        "spans": [sp.to_json() for sp in recorder.spans],
        "memory_spans": [sp.to_json() for sp in mem_recorder.spans],
    }
    return metrics, tally, detail


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def emit(args, env: dict, metrics: dict, units: dict, tally: Tally, detail: dict) -> None:
    size = "small" if args.small else "full"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": size, "env": env,
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_frac": tally.failed / tally.attempted,
              "errors": tally.errors[:20], "metrics": metrics, "detail": detail}
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{size}.json"
    with open(RESULTS_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={size}")
    print("env " + json.dumps(env))
    for metric, value in metrics.items():
        print(f"  {metric:36s} {value:14.6g} {units[metric]}")
    print(f"  {'failed_frac':36s} {tally.failed / tally.attempted:14.6g} frac"
          f"  ({tally.failed} of {tally.attempted} tests)")
    if "tail_percentile" in detail:
        print(f"  test_ms_tail is p{detail['tail_percentile']:.1f} of {detail['samples']} tests")
    for error in tally.errors[:5]:
        print("check failed: " + error.strip().replace("\n", " | ")[:400], file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def bench(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    cli = import_cli()
    size = "small" if args.small else "full"
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.prepare(str(workdir), args.seed, args.small)
        rc, _out, err = call_cli(cli, workload.warmup_argv())
        if rc != 0:
            raise BenchError(f"warm-up call exited with {rc}: {err.strip()[-500:]}")
        reference = load_reference(workload, size)
        if args.trace:
            metrics, tally, detail = traced(cli, workload, reference, args.seconds)
            units = PER_LAYER_UNITS
        else:
            setup_times = measure_setup(workload, SETUP_REPEATS[size])
            metrics, tally, detail = end_to_end(cli, workload, reference, args.seconds,
                                                setup_times)
            units = END_TO_END_UNITS
        if not metrics:
            raise BenchError("no test succeeded: " + " | ".join(tally.errors[:3])[:800])
        emit(args, environment(args.seed), metrics, units, tally, detail)
    finally:
        _remove_workdir(workdir)
    return 0


def _remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:  # another run still uses it
        pass


def smoke(args) -> int:
    """Every workload at small sizes, untraced and traced, each in its own process."""
    summary, ok = {}, True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--small"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-800:]}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            summary.setdefault(name, {})[str(trace)] = result
            ok = ok and result["correct"]
            print(f"{name:18s} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} metrics={len(result['metrics'])}")
    print(json.dumps(summary))
    return 0 if ok else 1


def record_reference(args) -> int:
    """Record reference results of the checked workloads at both sizes."""
    cli = import_cli()
    out = {"rtol_of_quantile": workloads.REFERENCE_RTOL}
    for size in ("full", "small"):
        out[size] = {}
        for workload in workloads.WORKLOADS.values():
            if not workload.reference:
                continue
            workdir = WORK_DIR / f"reference-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                workload.prepare(str(workdir), workloads.REFERENCE_SEED, size == "small")
                outcome, _ = run_call(cli, workload, workload.reference_argv())
            finally:
                _remove_workdir(workdir)
            if outcome.failed:
                raise BenchError(f"{workload.name}: " + " | ".join(outcome.errors)[:800])
            out[size][workload.name] = workload.reference_record(outcome)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced input sizes")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at small sizes, both passes")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current code")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            args.seconds = 1.0 if args.seconds is None else args.seconds
            return smoke(args)
        if args.record_reference:
            return record_reference(args)
        if args.workload is None:
            parser.error("--workload is required")
        args.seconds = 25.0 if args.seconds is None else args.seconds
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
