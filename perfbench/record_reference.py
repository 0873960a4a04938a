"""Rewrite perfbench/reference.json from the current program's outputs.

    python3 perfbench/record_reference.py

The reference pins the fixed-input probes every benchmark run checks: the
set-up prior's training losses and one probe op each for ``fixtures``,
``multi`` and ``long``. Re-record only for a change that is meant to alter
those outputs, and say so in the change.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

# relative tolerance of every reference comparison: far below any change in
# behaviour, above the last-bit differences a different BLAS kernel or SIMD
# path can make in float64 reductions
REL_TOL = 1e-9


def main() -> int:
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        work = Path(tmp)
        _, losses = workloads.train_prior(work / "prior.ckpt", {})
        reference = {"rel_tol": REL_TOL, "prior_losses": losses}
        for cls in (workloads.Fixtures, workloads.Multi, workloads.Long):
            wl = cls(0, work, reference)
            reference[f"{wl.name}_probe"] = wl.probe(wl.build(workloads.Checks(), {})).quality
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
