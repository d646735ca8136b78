"""Time one benchmark set-up in a fresh interpreter.

Set-up is the import of steincal plus one warm-up CLI call on a tiny input.
Usage, from the repository root:

    python3 perfbench/setup_probe.py '["test", "--config", "c.json", "--data", "d.jsonl"]'

Prints one JSON object: {"rc": <warm-up exit code>, "setup_s": <seconds>}.
"""
import os

# One BLAS thread, as in the benchmark process; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    argv = json.loads(sys.argv[1])
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from steincal.cli import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = cli(argv)
    print(json.dumps({"rc": rc, "setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
