"""motionloop benchmark.

    python3 perfbench/run.py --workload {train,fixtures,long,multi} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
environment record, every check problem and, for a traced run, all spans
go to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "fixtures", "long", "multi"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "motionloop" / "__init__.py").is_file():
        print(f"error: no motionloop sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy, scipy and motionloop

    import_s = time.perf_counter() - start
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), import_s=import_s)
    detail = result.pop("detail")
    record = {"environment": harness.environment(args.seed, args.workload),
              "result": result, **detail}
    out = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    for problem in detail["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    ops_failed_frac = result["failed"] / result["attempted"]
    print(f"# {args.workload} seed={args.seed} ops={detail['ops']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"ops_failed_frac={ops_failed_frac:.4g}")
    for name, m in result["metrics"].items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
