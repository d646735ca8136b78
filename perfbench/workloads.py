"""The four benchmark workloads: inputs made from a seed, CLI calls, output checks.

Each workload makes a different layer of steincal do most of the work:

- kccsd-mgm-large: the (n, n, d) pairwise engine, the target median
  heuristic and the bootstrap (d=5, n=2048; working set far beyond cache).
- kccsd-lgm-kgfd: the second-order median heuristic (d=1, so the pairwise
  engine is cheap).
- skce-lgm-mala: the per-chain MALA loop (800 chains per test).
- sweep-lgm-small: per-test fixed costs of `steincal experiment` with two
  threads (sample_setup, stream derivation, thread pool, write_csv).

Datasets are generated here with numpy from the benchmark seed, independently
of the library's own sampler, so a change to the library cannot change them.
"""
from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

ALPHA = 0.05
BOOTSTRAP = 500
REFERENCE_SEED = 0
# Reference comparisons: statistic and quantile may move by this share of the
# reference quantile. The statistic sits near zero under the null, so a
# tolerance relative to the statistic itself would trip on cancellation.
REFERENCE_RTOL = 1e-7

CSV_HEADER = ("family,delta,n,rep,statistic_name,dist_kernel,target_kernel,"
              "statistic_value,quantile,p_value,reject,seed,wall_time_ms")

_GAUSSIAN_MEDIAN = {"family": "gaussian", "bandwidth": "median"}
_EXP_GFD = {"variant": "exp_gfd", "sigma": "median", "base_samples": 10}
_LGM_COEFFS = np.arange(1.0, 6.0)


def _test_config(statistic: dict, dist_kernel: dict) -> dict:
    return {"statistic": statistic, "dist_kernel": dist_kernel,
            "target_kernel": _GAUSSIAN_MEDIAN, "alpha": ALPHA,
            "bootstrap": BOOTSTRAP, "seed": 0}


def make_dataset(family: str, n: int, rng: np.random.Generator) -> str:
    """JSON-lines dataset of a calibrated (delta = 0) mgm or lgm setup."""
    x = rng.standard_normal((n, 5))
    if family == "mgm":
        means = x
        targets = x + rng.standard_normal((n, 5))
    elif family == "lgm":
        means = (x @ _LGM_COEFFS)[:, None]
        targets = means + rng.standard_normal((n, 1))
    else:
        raise ValueError(f"no generator for family {family!r}")
    var = [1.0] * means.shape[1]
    return "".join(
        json.dumps({"model": {"mean": mean.tolist(), "var": var}, "y": y.tolist()}) + "\n"
        for mean, y in zip(means, targets))


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``cli(argv)`` in-process, capturing its standard streams."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli(argv)
    return rc, out.getvalue(), err.getvalue()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def validity_errors(statistic, quantile, p_value, reject) -> list[str]:
    """Checks every test result must pass, whatever the inputs."""
    errors = []
    if not _finite(statistic) or not _finite(quantile):
        return [f"non-finite statistic {statistic!r} or quantile {quantile!r}"]
    if not (_finite(p_value) and 1.0 / (BOOTSTRAP + 1) - 1e-12 <= p_value <= 1.0 + 1e-12):
        errors.append(f"p_value {p_value!r} outside [1/(B+1), 1]")
    if reject is not (statistic >= quantile):
        errors.append(f"reject={reject!r} but statistic {statistic!r} vs quantile {quantile!r}")
    return errors


def reference_errors(got: dict, ref: dict) -> list[str]:
    """Compare one result with its value recorded at the reference commit."""
    tol = REFERENCE_RTOL * abs(ref["quantile"])
    errors = []
    for key in ("statistic", "quantile"):
        if not abs(got[key] - ref[key]) <= tol:
            errors.append(f"{key} {got[key]!r} != reference {ref[key]!r} (tol {tol:.3g})")
    # One bootstrap replicate may cross the statistic within the tolerance.
    if not abs(got["p_value"] - ref["p_value"]) <= 1.0 / (BOOTSTRAP + 1) + 1e-12:
        errors.append(f"p_value {got['p_value']!r} != reference {ref['p_value']!r}")
    if got["reject"] != ref["reject"] and abs(ref["statistic"] - ref["quantile"]) > tol:
        errors.append(f"reject {got['reject']!r} != reference {ref['reject']!r}")
    return errors


@dataclass
class Outcome:
    """What one CLI call produced: tests attempted and failed, per-test times."""

    attempted: int
    failed: int = 0
    test_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    results: list[dict] = field(default_factory=list)


@dataclass
class TestWorkload:
    """Closed loop of `steincal test` calls, one dataset file per call."""

    name: str
    family: str
    n: int
    small_n: int
    config: dict
    reference: bool
    pool_size: int = 4
    command: str = "test"

    def prepare(self, workdir: str, seed: int, small: bool) -> None:
        self.seed = seed
        n = self.small_n if small else self.n
        self.config_path = _write(workdir, "config.json", json.dumps(self.config))
        self.pool = [_write(workdir, f"data-{k}.jsonl",
                            make_dataset(self.family, n, np.random.default_rng([seed, 0, k])))
                     for k in range(self.pool_size)]
        self.tiny_path = _write(workdir, "tiny.jsonl",
                                make_dataset(self.family, 16, np.random.default_rng([seed, 1])))
        self.reference_path = _write(
            workdir, "reference.jsonl",
            make_dataset(self.family, n, np.random.default_rng([REFERENCE_SEED, 0, 0])))

    def tests_per_call(self) -> int:
        return 1

    def warmup_argv(self) -> list[str]:
        return ["test", "--config", self.config_path, "--data", self.tiny_path, "--seed", "0"]

    def argv(self, i: int, threads: Optional[int] = None) -> list[str]:
        return ["test", "--config", self.config_path, "--data", self.pool[i % self.pool_size],
                "--seed", str(self.seed * 100_000 + i)]

    def reference_argv(self) -> list[str]:
        return ["test", "--config", self.config_path, "--data", self.reference_path,
                "--seed", str(REFERENCE_SEED)]

    def check(self, argv: list[str], rc: int, stdout: str, stderr: str,
              wall_ms: float) -> Outcome:
        outcome = Outcome(attempted=1)
        if rc != 0:
            outcome.errors.append(f"exit code {rc}: {stderr.strip()[-500:]}")
        else:
            try:
                result = json.loads(stdout.strip().splitlines()[-1])
                outcome.errors += validity_errors(result["statistic"], result["quantile"],
                                                  result["p_value"], result["reject"])
                if result["bootstrap_count"] != BOOTSTRAP or result["alpha"] != ALPHA:
                    outcome.errors.append("alpha or bootstrap_count differ from the config")
                if result["seed"] != int(argv[argv.index("--seed") + 1]):
                    outcome.errors.append(f"seed {result['seed']!r} differs from --seed")
                outcome.results.append(result)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                outcome.errors.append(f"unreadable result {stdout[-300:]!r}: {exc!r}")
        outcome.failed = 1 if outcome.errors else 0
        if not outcome.errors:
            outcome.test_ms.append(wall_ms)
        return outcome

    def compare_reference(self, outcome: Outcome, reference: list[dict]) -> None:
        if outcome.results:
            outcome.errors += reference_errors(outcome.results[0], reference[0])
        outcome.failed = 1 if outcome.errors else 0

    def reference_record(self, outcome: Outcome) -> list[dict]:
        return [{k: outcome.results[0][k] for k in ("statistic", "quantile", "p_value", "reject")}]


@dataclass
class SweepWorkload:
    """Closed loop of `steincal experiment` calls with timings recorded;
    each CSV row is one test and its `wall_time_ms` is that test's time."""

    name: str
    config: dict
    n_grid: tuple
    small_n_grid: tuple
    repetitions: int
    small_repetitions: int
    threads: int
    reference: bool
    command: str = "experiment"

    def prepare(self, workdir: str, seed: int, small: bool) -> None:
        self.seed = seed
        grid = self.small_n_grid if small else self.n_grid
        reps = self.small_repetitions if small else self.repetitions
        self.grid, self.reps = list(grid), reps
        self.config_path = _write(workdir, "config.json", json.dumps(
            dict(self.config, n_grid=self.grid, repetitions=reps)))
        self.tiny_path = _write(workdir, "tiny.json", json.dumps(
            dict(self.config, n_grid=[8], repetitions=2)))
        self.csv_path = os.path.join(workdir, "rows.csv")

    def tests_per_call(self) -> int:
        return len(self.grid) * self.reps

    def warmup_argv(self) -> list[str]:
        return ["experiment", "--config", self.tiny_path, "--out", self.csv_path,
                "--threads", str(self.threads), "--seed", "0"]

    def argv(self, i: int, threads: Optional[int] = None) -> list[str]:
        return ["experiment", "--config", self.config_path, "--out", self.csv_path,
                "--threads", str(threads or self.threads),
                "--seed", str(self.seed * 100_000 + i)]

    def reference_argv(self) -> list[str]:
        return ["experiment", "--config", self.config_path, "--out", self.csv_path,
                "--threads", str(self.threads), "--seed", str(REFERENCE_SEED)]

    def check(self, argv: list[str], rc: int, stdout: str, stderr: str,
              wall_ms: float) -> Outcome:
        total = self.tests_per_call()
        outcome = Outcome(attempted=total)
        if rc != 0:
            outcome.errors.append(f"exit code {rc}: {stderr.strip()[-500:]}")
            outcome.failed = total
            return outcome
        with open(self.csv_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            outcome.errors.append(f"unexpected CSV header {lines[:1]!r}")
            outcome.failed = total
            return outcome
        if len(lines) - 1 != total:
            outcome.errors.append(f"{len(lines) - 1} CSV rows, expected {total}")
            outcome.failed = total
            return outcome
        seed = int(argv[argv.index("--seed") + 1])
        expected_cells = [(n, rep) for n in self.grid for rep in range(1, self.reps + 1)]
        for line, cell in zip(lines[1:], expected_cells):
            errors, row = self._parse_row(line.split(","), cell, seed)
            if errors:
                outcome.failed += 1
                outcome.errors += errors
            else:
                outcome.results.append(row)
        if not outcome.failed:
            outcome.test_ms = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        return outcome

    def _parse_row(self, parts: list[str], cell: tuple, seed: int):
        if len(parts) != 13:
            return [f"row has {len(parts)} fields, expected 13"], None
        try:
            n, rep, row_seed = int(parts[2]), int(parts[3]), int(parts[11])
            statistic, quantile, p_value = float(parts[7]), float(parts[8]), float(parts[9])
            wall = float(parts[12])
            reject = {"true": True, "false": False}[parts[10]]
        except (ValueError, KeyError) as exc:
            return [f"unreadable row {','.join(parts)!r}: {exc!r}"], None
        errors = validity_errors(statistic, quantile, p_value, reject)
        if (n, rep) != cell or row_seed != seed:
            errors.append(f"row (n={n}, rep={rep}, seed={row_seed}) expected {cell}, seed {seed}")
        if not (math.isfinite(wall) and wall > 0.0):
            errors.append(f"wall_time_ms {wall!r} is not a positive time")
        return errors, {"n": n, "rep": rep, "statistic": statistic, "quantile": quantile,
                        "p_value": p_value, "reject": reject}

    def compare_reference(self, outcome: Outcome, reference: list[dict]) -> None:
        rows = outcome.results
        if outcome.failed:
            return
        if len(rows) != len(reference):
            outcome.errors.append(f"{len(rows)} reference rows, expected {len(reference)}")
            outcome.failed = outcome.attempted
            return
        for got, ref in zip(rows, reference):
            errors = reference_errors(got, ref)
            if errors:
                outcome.failed += 1
                outcome.errors += [f"n={ref['n']} rep={ref['rep']}: {e}" for e in errors]

    def reference_record(self, outcome: Outcome) -> list[dict]:
        return outcome.results


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


WORKLOADS = {
    w.name: w for w in (
        TestWorkload(
            name="kccsd-mgm-large", family="mgm", n=2048, small_n=128, reference=True,
            config=_test_config({"name": "kccsd"}, _EXP_GFD)),
        TestWorkload(
            name="kccsd-lgm-kgfd", family="lgm", n=1024, small_n=64, reference=True,
            config=_test_config({"name": "kccsd"}, {
                "variant": "exp_kgfd", "sigma": "median", "base_samples": 10,
                "ground": {"family": "gaussian", "bandwidth": "second_order_median"}})),
        TestWorkload(
            name="skce-lgm-mala", family="lgm", n=200, small_n=24, reference=False,
            config=_test_config(
                {"name": "skce", "strategy": {"mode": "mala", "samples": 10, "step_size": 0.01,
                                              "steps": 5, "burn_in": 0}},
                {"variant": "exp_mmd", "sigma": "median", "mode": "closed_form"})),
        SweepWorkload(
            name="sweep-lgm-small", n_grid=(64, 128, 256), small_n_grid=(16, 24, 32),
            repetitions=14, small_repetitions=4, threads=2, reference=True,
            config={"setup": {"family": "lgm", "delta": 0.0},
                    "statistic": {"name": "kccsd"}, "dist_kernel": _EXP_GFD,
                    "target_kernel": _GAUSSIAN_MEDIAN, "alpha": ALPHA,
                    "bootstrap": BOOTSTRAP, "master_seed": 0, "record_timings": True}),
    )
}
