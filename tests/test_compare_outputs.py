"""tools/compare_outputs.py: its verdicts on synthetic outputs, and a few n = 40 cases
of the working tree against itself."""
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import compare_outputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_equal_runs_are_identical():
    assert compare_outputs.compare((0, "1.5,2\n"), (0, "1.5,2\n")) == "identical"
    assert compare_outputs.compare((2, "steincal: numerical failure: x"),
                                   (2, "steincal: numerical failure: x")) == "identical"


def test_a_moved_float_reports_the_largest_relative_difference():
    got = compare_outputs.compare((0, '{"statistic": 1.0, "p_value": 0.5, "seed": 3}'),
                                  (0, '{"statistic": 1.0000000000000002, "p_value": 0.5, '
                                      '"seed": 3}'))
    assert got == ("differs: largest relative difference 2.22e-16 (7.4e-17 of the largest "
                   "float), 1 of 3 floats")


def test_runs_that_cannot_be_paired_differ():
    assert compare_outputs.compare((0, "1.0\n"), (2, "steincal: error")) == \
        "differs: exit code 0 -> 2"
    assert compare_outputs.compare((0, '{"reject": true, "a": 1.0}'),
                                   (0, '{"reject": false, "a": 1.0}')) == \
        "differs: the outputs do not pair up float by float"
    assert compare_outputs.compare((0, "1.0,2.0\n"), (0, "1.0,2.0,3.0\n")).startswith(
        "differs: the outputs do not pair up")


def test_the_working_tree_is_identical_to_itself():
    patterns = ["mgm-40/test/kccsd/exp_mmd_sampled", "lgm-40/test/skce/mala",
                "mgm-40/gram/exp_kgfd", "lgm-40/gram/exp_mmd_exact_ground",
                "wide-40/gram/exp_wasserstein"]
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"),
                           "--parent", str(ROOT), "--change", str(ROOT),
                           *[arg for p in patterns for arg in ("--case", p)]],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert sorted(line[0] for line in lines) == sorted(patterns)
    assert all(line[1:] == ["identical"] for line in lines)
