"""Compare the outputs of `steincal` on two source trees: a parent and a change.

Run from anywhere, with two checkouts of the repository:

    python tools/compare_outputs.py --parent PARENT_TREE --change CHANGE_TREE

The inputs are JSONL datasets made with plain numpy from fixed seeds, so neither
tree can change them: isotropic Gaussians with d = 5 ("mgm") and with d = 12
("wide"), and a linear Gaussian model with d = 1 ("lgm"), each at n = 40 (one row
block) and n = 700 (several). Each case runs once per tree, with
``PYTHONPATH=TREE/src`` and ``OPENBLAS_NUM_THREADS=1``:

- `steincal test` for KCCSD with exp_gfd, exp_kgfd, exp_mmd (closed form and
  sampled) and exp_wasserstein, and for SKCE with the closed form, the exact
  sampler and MALA;
- `steincal gram` for every distribution kernel;
- both of these for exp_kgfd and closed-form exp_mmd with the exact ground
  bandwidth ``"second_order_median"`` named in the config (the ``*_exact_ground``
  cases); the other exp_kgfd and exp_mmd cases take the default, sampled ground
  bandwidth;
- both of these for exp_kgfd with 3 base samples and sampled exp_mmd with 3 samples
  per model, and the SKCE test with the exact sampler's 3 samples per model (the
  ``*_m3`` cases), so that a count other than the default 10 reaches each kernel's
  sampling parameter and the sampled means' group size;
- on "wide" only the `test` and `gram` cases of exp_gfd and exp_wasserstein: they
  sum squared differences of 12 coordinates (the median heuristic of the targets,
  and the Wasserstein distance of the means), past the 8 below which numpy adds a
  row's terms one after another;
- one `steincal experiment` (two threads, timings off).

For each case it prints "identical" when both trees exit alike and write the same
bytes (for a failed run: the same last line of its error output). Otherwise it
prints the largest relative difference |a - b| / max(|a|, |b|) between the floats
of the two outputs, and the largest |a - b| over the largest |a|, or why the
outputs cannot be paired. The exit status is 1 if any case
differs. ``--case PATTERN`` (repeatable, shell-style) runs only the cases
whose names match.
"""
import argparse
import fnmatch
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIZES = (40, 700)
_KERNELS = {
    "exp_gfd": {"variant": "exp_gfd"},
    "exp_kgfd": {"variant": "exp_kgfd"},
    "exp_mmd": {"variant": "exp_mmd", "mode": "closed_form"},
    "exp_mmd_sampled": {"variant": "exp_mmd", "mode": "sampled"},
    "exp_wasserstein": {"variant": "exp_wasserstein"},
    "exp_kgfd_exact_ground": {"variant": "exp_kgfd",
                              "ground": {"bandwidth": "second_order_median"}},
    "exp_mmd_exact_ground": {"variant": "exp_mmd", "mode": "closed_form",
                             "ground": {"bandwidth": "second_order_median"}},
    "exp_kgfd_m3": {"variant": "exp_kgfd", "base_samples": 3},
    "exp_mmd_sampled_m3": {"variant": "exp_mmd", "mode": "sampled", "samples": 3},
}
_WIDE_KERNELS = ("exp_gfd", "exp_wasserstein")
_STRATEGIES = {
    "closed_form": {"mode": "closed_form"},
    "exact_sampler": {"mode": "exact_sampler", "samples": 10},
    "exact_sampler_m3": {"mode": "exact_sampler", "samples": 3},
    "mala": {"mode": "mala", "samples": 10, "step_size": 0.05, "steps": 5, "burn_in": 2},
}
_EXPERIMENT = {"setup": {"family": "lgm", "delta": 0.1}, "n_grid": [16, 64],
               "repetitions": 3, "bootstrap": 100, "statistic": {"name": "kccsd"},
               "dist_kernel": {"variant": "exp_gfd"}, "master_seed": 3,
               "record_timings": False}
_FLOAT = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan)")


def dataset_lines(family: str, n: int) -> str:
    """The JSONL dataset of one family and size, from a fixed numpy seed."""
    rng = np.random.default_rng([7, n, len(family)])
    if family in ("mgm", "wide"):
        d = 5 if family == "mgm" else 12
        means = rng.normal(size=(n, d))
        scales = rng.uniform(0.5, 1.5, size=(n, 1))
        variances = np.repeat(scales ** 2, d, axis=1)
        targets = means + 1.2 * scales * rng.normal(size=(n, d))
    else:
        x = rng.uniform(-1.0, 1.0, size=(n, 1))
        means, variances = 2.0 * x, np.ones((n, 1))
        targets = 2.0 * x + 0.3 + rng.normal(size=(n, 1))
    return "".join(json.dumps({"model": {"mean": mu.tolist(), "var": var.tolist()},
                               "y": y.tolist()}) + "\n"
                   for mu, var, y in zip(means, variances, targets))


def cases(workdir: Path) -> dict:
    """Case name -> the arguments after `steincal`, without ``--out``; the datasets and
    configs are written into ``workdir``."""
    out = {}

    def config(name, obj):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)
    for family in ("mgm", "lgm", "wide"):
        wide = family == "wide"
        for n in SIZES:
            data = workdir / f"{family}-{n}.jsonl"
            data.write_text(dataset_lines(family, n))
            for name, kernel in _KERNELS.items():
                if wide and name not in _WIDE_KERNELS:
                    continue
                test = config(f"kccsd-{name}", {"statistic": {"name": "kccsd"},
                                                "dist_kernel": kernel, "seed": 5})
                out[f"{family}-{n}/test/kccsd/{name}"] = ["test", "--config", test,
                                                          "--data", str(data)]
                out[f"{family}-{n}/gram/{name}"] = ["gram", "--config",
                                                    config(f"gram-{name}", kernel),
                                                    "--data", str(data), "--seed", "5"]
            for name, strategy in ({} if wide else _STRATEGIES).items():
                test = config(f"skce-{name}", {"statistic": {"name": "skce",
                                                             "strategy": strategy},
                                               "dist_kernel": _KERNELS["exp_gfd"],
                                               "seed": 5})
                out[f"{family}-{n}/test/skce/{name}"] = ["test", "--config", test,
                                                         "--data", str(data)]
    out["experiment/lgm/kccsd/exp_gfd"] = ["experiment", "--config",
                                           config("experiment", _EXPERIMENT),
                                           "--threads", "2"]
    return out


def run_case(tree: Path, argv: list, out: Path) -> tuple:
    """(exit code, output) of one `steincal` run in ``tree``: the file it wrote to
    ``out``, or the last line of its standard error when it failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "steincal.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        return proc.returncode, (proc.stderr.strip().splitlines() or [""])[-1]
    return 0, out.read_text()


def compare(parent: tuple, change: tuple) -> str:
    """"identical", or how the two runs of a case differ."""
    if parent == change:
        return "identical"
    if parent[0] != change[0]:
        return f"differs: exit code {parent[0]} -> {change[0]}"
    a, b = _FLOAT.split(parent[1]), _FLOAT.split(change[1])
    if len(a) != len(b) or a[0::2] != b[0::2]:
        return "differs: the outputs do not pair up float by float"
    x, y = np.array(a[1::2], dtype=float), np.array(b[1::2], dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        relative = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    relative[x == y] = 0.0
    if not np.any(relative):
        return "differs: in the text only"
    of_largest = np.max(np.abs(x - y)) / np.max(np.abs(x))
    return (f"differs: largest relative difference {np.nanmax(relative):.3g} "
            f"({of_largest:.3g} of the largest float), "
            f"{np.count_nonzero(relative)} of {len(x)} floats")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="parent source tree")
    parser.add_argument("--change", required=True, type=Path, help="changed source tree")
    parser.add_argument("--case", action="append", default=[],
                        help="run only the cases matching this pattern (repeatable)")
    args = parser.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, command in cases(work).items():
            if args.case and not any(fnmatch.fnmatch(name, p) for p in args.case):
                continue
            verdict = compare(run_case(args.parent.resolve(), command, work / "parent.out"),
                              run_case(args.change.resolve(), command, work / "change.out"))
            differ += verdict != "identical"
            print(f"{name:<40} {verdict}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
