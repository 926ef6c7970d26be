"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mmfuse is imported from ``src/``.
The workload's inputs come from ``--seed``. Cycles repeat until ``--seconds``
would be exceeded. With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` untraced and traced cycles alternate and the per-layer metrics
from the traced ones are printed, with the tracing slowdown. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Without the mmfuse sources it exits with code 2 and prints no result.
"""

import os

# Pin BLAS threads before NumPy loads. One thread was as fast as the default on
# a 2-CPU machine and repeats more closely.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="minimum input sizes, for the smoke test"
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mmfuse" / "__init__.py").is_file():
        print(f"perfbench: no mmfuse sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mmfuse

    if Path(mmfuse.__file__).resolve().parent != SRC / "mmfuse":
        print(f"perfbench: imported mmfuse from {mmfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
