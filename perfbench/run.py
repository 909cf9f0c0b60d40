"""Benchmark of coagchain's gap, large-chain, oracle and simulator paths.

Run from the repository root:

    python3 perfbench/run.py --workload gap-sweep --seed 1 --seconds 5 --trace 0

One single-threaded process runs a closed loop: one caller, each call
starts when the previous one returned.  Calls are timed one by one; their
outputs are checked outside the timed region.  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` runs the same loop with every layer's
public functions wrapped, prints the per-layer metrics, and writes every
span as a JSON line.  In the traced run each call shorter than 2 s runs
once more right after with the wrappers removed; ``trace.overhead_frac``
is the median over those pairs only of traced over untraced time, minus
one.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds provenance and the per-slot details.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# BLAS threads are pinned before numpy loads: the benchmark measures a
# single-threaded process, and on a 2-core Xeon VM two OpenBLAS threads made
# one N = 12 verification take 161 s instead of 35 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program(workload: str) -> tuple[float, float]:
    """Import coagchain from this checkout and warm it up.  Returns the
    seconds that took and the host's slowdown gauged right after."""
    if not (SRC / "coagchain" / "__init__.py").is_file():
        _fail(f"no coagchain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import coagchain  # noqa: F401  (timed import)
    import workloads
    workloads.warm_up(workload)
    elapsed = time.perf_counter() - start
    if Path(coagchain.__file__).resolve().parent != SRC / "coagchain":
        _fail(f"imported coagchain from {coagchain.__file__}, not {SRC}")
    import reference
    return elapsed, reference.slowdown_now()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gap-sweep", "large-chain", "oracle-check",
                                 "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import and warm-up; print seconds "
                             "and the host's slowdown")
    args = parser.parse_args(argv)

    setup = _import_program(args.workload)
    if args.setup_probe:
        print(*map(repr, setup))
        return 0

    import harness
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), first_setup=setup)


if __name__ == "__main__":
    sys.exit(main())
