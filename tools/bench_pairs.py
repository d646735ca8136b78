"""Alternating perfbench runs on two source trees: a parent and a change.

Run from anywhere, with two checkouts of the repository:

    python tools/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --pairs kccsd-mgm-large=10 --pairs skce-lgm-mala=3 --out BENCH_7.json

A pair runs ``perfbench/run.py --workload W --seed S --trace T`` once in each
tree, both with the same seed; which tree goes first alternates from pair to
pair, so a drift of the host hits both sides alike. The last line of a run's
standard output is its JSON summary. The output file holds every summary
and, per workload and metric, the median and quartiles of each side and the
number of pairs whose change run beat its parent run (by the metric's
``better`` direction in the parent's BENCHMARK.json). It also counts each
side's runs that are not correct (an error, ``correct`` false or failed tests),
and the exit status is 1 if any change run is among them.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, trace: int, seconds) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        return json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        return {"error": f"{exc}: {proc.stderr.strip()[-500:]}"}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles and the change's wins."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    complete = [p for p in pairs.values()
                if all("metrics" in p.get(side, {}) for side in ("parent", "change"))]
    out = {}
    for metric in sorted({m for p in complete for m in p["parent"]["metrics"]}):
        values = {side: [p[side]["metrics"][metric]["value"] for p in complete
                         if metric in p[side]["metrics"]] for side in ("parent", "change")}
        if not values["parent"] or len(values["parent"]) != len(values["change"]):
            continue
        direction = better.get(metric, "lower")
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        out[metric] = {"better": direction, "pairs": len(values["parent"]),
                       "change_wins": wins, "parent": quartiles(values["parent"]),
                       "change": quartiles(values["change"])}
    return out


def incorrect_runs(runs: list) -> dict:
    """Per side, the runs without a correct result: an error, ``correct`` false or a
    failed test."""
    counts = {"parent": 0, "change": 0}
    for run in runs:
        result = run["result"]
        if "error" in result or result.get("correct") is not True or result.get("failed"):
            counts[run["side"]] += 1
    return counts


def directions(tree: Path) -> dict:
    with open(tree / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def _pair_count(text: str) -> tuple:
    name, _, count = text.partition("=")
    if not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError("expected WORKLOAD=PAIRS with PAIRS >= 1")
    return name, int(count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="change source tree")
    parser.add_argument("--pairs", type=_pair_count, action="append", required=True,
                        metavar="WORKLOAD=PAIRS", help="pairs to run for a workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair k uses first seed + k")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: run.py's own)")
    parser.add_argument("--parent-label", default="parent")
    parser.add_argument("--change-label", default="change")
    parser.add_argument("--out", type=Path, required=True, help="output JSON file")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(trees["parent"])
    record = {"labels": {"parent": args.parent_label, "change": args.change_label},
              "trace": args.trace, "seconds": args.seconds, "first_seed": args.first_seed,
              "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine()},
              "workloads": {}}
    for workload, count in args.pairs:
        runs = []
        for pair in range(count):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], workload, seed, args.trace, args.seconds)
                runs.append({"pair": pair, "seed": seed, "side": side, "result": result})
                print(f"{workload} pair {pair} {side}: "
                      + json.dumps(result.get("error") or {
                          k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                      flush=True)
        record["workloads"][workload] = {"runs": runs, "incorrect": incorrect_runs(runs),
                                         "summary": summarise(runs, better)}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    failing = {w: entry["incorrect"]["change"] for w, entry in record["workloads"].items()
               if entry["incorrect"]["change"]}
    if failing:
        print(f"change runs not correct: {json.dumps(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
