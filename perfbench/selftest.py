"""Self-test of the benchmark: each workload at one item, then two injected faults.

Run from the repository root::

    python3 perfbench/selftest.py

Every workload runs one item untraced and one traced and must report every
metric of BENCHMARK.json with no failures.  Then one evaluation route is made
to return its value off by 1e-6, and one reconstruction is made to miss its
bound; each fault must be counted as a failed item.  Exits 0 when all hold.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import optensor  # noqa: E402


@contextmanager
def patched(attr: str, make):
    """Replace ``optensor.<attr>`` by ``make(original)`` for the duration."""
    original = getattr(optensor, attr)
    setattr(optensor, attr, make(original))
    try:
        yield
    finally:
        setattr(optensor, attr, original)


def off_by(original, delta=1e-6):
    return lambda *args, **kwargs: original(*args, **kwargs) + delta


def shifted_reconstruction(original, delta=1e-6):
    def reconstruct_operation(*args, **kwargs):
        op = original(*args, **kwargs)
        return optensor.LabeledOperator(op.legs, op.matrix + delta * np.eye(op.dim))

    return reconstruct_operation


def one_item(name: str, trace: bool) -> dict:
    return run.run(name, seed=7, seconds=0.0, trace=trace)["summary"]


def main() -> int:
    spec = run.load_spec()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            summary = one_item(workload, trace)
            label = f"{workload} trace={int(trace)}"
            known = len(problems)
            if summary["failed"] or not summary["correct"] or summary["attempted"] < 1:
                problems.append(f"{label}: {summary['failed']} of {summary['attempted']} failed")
            if list(summary["metrics"]) != [m["name"] for m in wanted]:
                problems.append(f"{label}: metrics {list(summary['metrics'])}")
            values = [m["value"] for m in summary["metrics"].values()]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{label}: non-finite metric values")
            if not trace and not all(v > 0 for v in values):
                problems.append(f"{label}: an end-to-end metric is not positive")
            print(f"{label}: " + ("ok" if len(problems) == known else "; ".join(problems[known:])))

    faults = (
        ("deep", "probability_foliated", off_by),
        ("tomography", "reconstruct_operation", shifted_reconstruction),
    )
    for workload, attr, make in faults:
        with patched(attr, make):
            summary = one_item(workload, trace=False)
        caught = summary["failed"] == summary["attempted"] >= 1 and not summary["correct"]
        print(f"{workload} with faulty {attr}: "
              f"{summary['failed']} of {summary['attempted']} items failed")
        if not caught:
            problems.append(f"{workload}: faulty {attr} passed silently")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
