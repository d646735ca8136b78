"""Pinned outputs of `steincal experiment`, `test` and `gram`.

The files under ``golden/`` were written by this module's ``--record`` mode.
A change that keeps the arithmetic must reproduce them: floats to 1e-12
relative, every other field (the ``reject`` flags, names, counts) exactly.
Unlike a byte comparison this survives a BLAS change that moves the last
bits. Exact-sampler SKCE and sampled exp_mmd are left out on purpose: their
draws are not part of the contract pinned here, and their agreement with the
closed forms is checked in test_statistics.py and by acceptance criterion 8.

Record again only for a change that means to alter these outputs:

    PYTHONPATH=src python tests/test_golden.py --record
"""
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from steincal.cli import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected.json"
RTOL = 1e-12

_GFD = {"variant": "exp_gfd"}
_KGFD = {"variant": "exp_kgfd", "ground": {"family": "gaussian",
                                           "bandwidth": "second_order_median"}}
_MMD = {"variant": "exp_mmd", "mode": "closed_form"}
_WASSERSTEIN = {"variant": "exp_wasserstein"}
_KCCSD = {"name": "kccsd"}
_MALA = {"name": "skce", "strategy": {"mode": "mala", "samples": 4, "step_size": 0.01,
                                      "steps": 5, "burn_in": 0}}
_SETUPS = {"hgm": {"family": "hgm", "delta": 0.5}, "mgm": {"family": "mgm", "delta": 0.2}}

# name -> (statistic, dist_kernel, setup) of an experiment with n_grid [16, 32] and 2 reps
EXPERIMENTS = {
    **{f"kccsd-{kernel['variant']}-{family}": (_KCCSD, kernel, setup)
       for kernel in (_GFD, _KGFD, _MMD, _WASSERSTEIN) for family, setup in _SETUPS.items()},
    "skce_closed_form-exp_mmd-hgm": ({"name": "skce"}, _MMD, _SETUPS["hgm"]),
    "skce_mala-exp_mmd-hgm": (_MALA, _MMD, _SETUPS["hgm"]),
}
# name -> (statistic, dist_kernel) of a `test` run, shaped like the benchmark's three
TESTS = {"kccsd-exp_gfd": (_KCCSD, _GFD), "kccsd-exp_kgfd": (_KCCSD, _KGFD),
         "skce_mala-exp_mmd": (_MALA, _MMD)}
GRAMS = {"exp_gfd": _GFD, "exp_kgfd": _KGFD, "exp_wasserstein": _WASSERSTEIN}
# dataset file -> (family, delta, n) it was drawn from when it was recorded
DATASETS = {"lgm.jsonl": ("lgm", 0.3, 10), "mgm.jsonl": ("mgm", 0.2, 8)}


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli(argv)
    assert code == 0, argv
    return out.getvalue()


def run_case(kind: str, name: str, tmp_path: Path) -> str:
    """The text `steincal` writes for one case: a CSV, a JSON line or a Gram."""
    config = tmp_path / f"{kind}-{name}.json"
    if kind == "experiment":
        statistic, dist_kernel, setup = EXPERIMENTS[name]
        config.write_text(json.dumps({
            "setup": setup, "n_grid": [16, 32], "repetitions": 2, "bootstrap": 100,
            "statistic": statistic, "dist_kernel": dist_kernel, "master_seed": 21}))
        out = tmp_path / f"{name}.csv"
        _run(["experiment", "--config", str(config), "--out", str(out)])
        return out.read_text()
    case, dataset = name.split("@")
    if kind == "test":
        statistic, dist_kernel = TESTS[case]
        config.write_text(json.dumps({"statistic": statistic, "dist_kernel": dist_kernel,
                                      "bootstrap": 100, "seed": 3}))
    else:
        config.write_text(json.dumps({"dist_kernel": GRAMS[case]}))
    return _run([kind, "--config", str(config), "--data", str(GOLDEN / dataset)])


CASES = ([("experiment", name) for name in EXPERIMENTS]
         + [("test", f"{name}@{dataset}") for name in TESTS for dataset in DATASETS]
         + [("gram", f"{name}@{dataset}") for name in GRAMS for dataset in DATASETS])


def _fields(kind: str, text: str):
    if kind == "test":
        return json.loads(text)
    return [line.split(",") for line in text.splitlines()]


def assert_close(got, want, where: str) -> None:
    """Numbers (also numeric CSV fields) to RTOL relative; everything else exactly."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{where}[{i}]")
    elif isinstance(want, bool) or not _is_number(want):
        assert got == want, f"{where}: {got!r} != {want!r}"
    else:
        a, b = float(got), float(want)
        assert abs(a - b) <= RTOL * max(abs(a), abs(b)), f"{where}: {got!r} != {want!r}"


def _is_number(value) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("kind, name", CASES, ids=[f"{k}-{n}" for k, n in CASES])
def test_output_matches_the_recorded_one(kind, name, expected, tmp_path):
    got = run_case(kind, name, tmp_path)
    want = expected[kind][name]
    assert_close(_fields(kind, got), _fields(kind, want), f"{kind} {name}")


def _record() -> None:
    """Write the datasets and the expected outputs under ``golden/``."""
    import tempfile

    from steincal.harness import write_dataset
    from steincal.models import SyntheticSetup, sample_setup
    from steincal.sampling import RandomStream

    GOLDEN.mkdir(exist_ok=True)
    for filename, (family, delta, n) in DATASETS.items():
        data = sample_setup(SyntheticSetup(family, delta), n, RandomStream(5).derive(family))
        with open(GOLDEN / filename, "w", encoding="utf-8") as fh:
            write_dataset(data, fh)

    recorded: dict = {"experiment": {}, "test": {}, "gram": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, name in CASES:
            recorded[kind][name] = run_case(kind, name, Path(tmp))
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
