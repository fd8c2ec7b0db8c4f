"""optensor benchmark: seeded workloads, end-to-end metrics, and a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 0

``--trace 0`` runs one client in a closed loop for ``--seconds`` of wall
time: each item's inputs are drawn from the seed, its optensor calls are
timed, and its output is checked.  It prints the end-to-end metrics listed in
BENCHMARK.json, then items_per_s, item_ms.tail and failed_frac.
``--trace 1`` runs every item twice, untraced and with every optensor layer
wrapped in spans, and prints the per-layer metrics: self time, calls and
computed counts per item, each layer's share of item time, and the tracing
overhead.  The cli workload is traced in-process through ``cli.main``.  Spans
and a run record are written to ``.perfbench_out/``.  The last line of output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3  # set-ups per run, and fresh interpreters timed for cli.import_s
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import optensor.cli; print(time.perf_counter() - t)"
)
# End-to-end figures that every untraced run prints but BENCHMARK.json does
# not gate: across ten seeds their quartile spread reached 0.20 (items_per_s)
# and 0.27 (item_ms.tail) on a shared 2-CPU host, at or beyond the largest
# bound a gated metric may have.
UNGATED_UNITS = {"items_per_s": "1/s", "item_ms.tail": "ms"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def make_workload(name: str, seed: int, trace: bool):
    import inputs
    import workloads

    if name == "deep":
        return workloads.CircuitWorkload(seed, inputs.deep_circuit)
    if name == "wide":
        return workloads.CircuitWorkload(seed, inputs.wide_circuit)
    if name == "tomography":
        return workloads.TomographyWorkload(seed)
    if name == "cli":
        return workloads.CliWorkload(seed, OUT / f"cli-{seed}", SRC, in_process=trace)
    raise ValueError(f"unknown workload {name!r}")


class Loop:
    """Closed-loop item runner: inputs are drawn, then one call is timed and checked."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def item(self, index: int, tracer=None) -> float:
        """Run and check item ``index``; return the seconds its optensor calls took."""
        inputs = self.workload.generate(index)
        self.attempted += 1
        with tracer.installed() if tracer else nullcontext():
            start = time.perf_counter()
            try:
                with tracer.open_item(index) if tracer else nullcontext():
                    output = self.workload.run(inputs)
                elapsed = time.perf_counter() - start
                fails = self.workload.check(inputs, output)
            except Exception:  # an item that raises counts as failed; the run goes on
                elapsed = time.perf_counter() - start
                fails = [traceback.format_exc()]
        if fails:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"item {index}: " + "; ".join(fails)
        return elapsed


def tail(times_ms: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least TAIL_BEYOND samples above it.

    Returns (percentile, value, samples above).  With fewer than
    2 * TAIL_BEYOND samples this falls back to the median.
    """
    ordered = sorted(times_ms)
    n = len(ordered)
    pct = max(50, math.floor(100 * (n - TAIL_BEYOND) / n)) if n else 50
    rank = min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))
    return pct, ordered[rank], n - rank - 1


def fresh_import() -> tuple[float, float]:
    """Start an interpreter that imports optensor.cli: (its wall time, the import's time)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True,
                           capture_output=True, text=True)
    return time.perf_counter() - start, float(child.stdout)


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    # a set-up is the import a fresh program pays, then input files and a warm-up
    setups = []
    for _ in range(SETUP_REPEATS):
        _, import_s = fresh_import()
        start = time.perf_counter()
        workload = make_workload(name, seed, trace=False)
        workload.setup()
        setups.append(import_s + time.perf_counter() - start)
    loop = Loop(workload)
    times_ms: list[float] = []
    deadline = time.perf_counter() + seconds
    while not times_ms or time.perf_counter() < deadline:
        times_ms.append(1e3 * loop.item(len(times_ms)))
    pct, tail_ms, beyond = tail(times_ms)
    usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return {
        "loop": loop,
        "residues": workload.residues.max,
        "metrics": {
            "setup_s": statistics.median(setups),
            "items_per_s": len(times_ms) / (sum(times_ms) / 1e3),
            "item_ms.p50": statistics.median(times_ms),
            "item_ms.tail": tail_ms,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        },
        "notes": {
            "setup_repeats_s": setups,
            "tail_percentile": pct,
            "tail_samples_beyond": beyond,
            "items": len(times_ms),
        },
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    from tracing import LAYERS, Tracer

    workload = make_workload(name, seed, trace=True)
    workload.setup()
    loop, tracer = Loop(workload), Tracer()
    plain_s = traced_s = 0.0
    # each item runs untraced and traced back to back, in alternating order,
    # so that drift in machine speed cancels out of the overhead
    n = 0
    deadline = time.perf_counter() + seconds
    while not n or time.perf_counter() < deadline:
        if n % 2:
            traced_s += loop.item(n, tracer)
            plain_s += loop.item(n)
        else:
            plain_s += loop.item(n)
            traced_s += loop.item(n, tracer)
        n += 1
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.self_s[layer] / n
        metrics[f"{layer}.calls"] = tracer.calls[layer] / n
        metrics[f"{layer}.self_share"] = tracer.self_s[layer] / traced_s
        metrics[f"{layer}.incl_share"] = tracer.total_s[layer] / traced_s
    metrics["item.self_share"] = tracer.self_s["item"] / traced_s
    for quantity in ("calls", "self_s"):  # published as init_calls and init_self_s
        metrics[f"operators.LabeledOperator.init_{quantity}"] = metrics.pop(
            f"operators.LabeledOperator.init.{quantity}"
        )
    for layer in ("physicality.is_physical", "duotensor.default_fiducials"):
        metrics[f"{layer}.unique_frac"] = tracer.unique_frac(layer)
    for quantity, total in tracer.quantity.items():
        metrics[quantity] = total / n
    metrics["contraction.plan.peak_dim"] = tracer.peak_dim
    metrics["tomography.circuit_trace_calls"] = (
        tracer.via["contraction.circuit_trace", "optensor.tomography"] / n
    )
    metrics["cli.import_s"] = (
        statistics.median(fresh_import()[0] for _ in range(SETUP_REPEATS)) if name == "cli" else 0.0
    )
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    for residue in ("evaluator.route_diff_max", "tomography.exact_err_max",
                    "tomography.sampled_err_max"):
        metrics[residue] = workload.residues.max.get(residue, 0.0)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-{seed}.jsonl"
    tracer.write(spans_path)
    return {
        "loop": loop,
        "residues": workload.residues.max,
        "metrics": metrics,
        "notes": {"items": n, "spans_file": str(spans_path.relative_to(ROOT)),
                  "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped},
    }


def report_lines(name: str, result: dict, spec_metrics: list[dict]) -> list[str]:
    lines = []
    for m in spec_metrics:
        lines.append(f"{name} {m['name']} = {result['metrics'][m['name']]:.6g} {m['unit']}")
    notes = result["notes"]
    if "tail_percentile" in notes:
        for metric, unit in UNGATED_UNITS.items():
            lines.append(f"{name} {metric} = {result['metrics'][metric]:.6g} {unit} (not gated)")
        lines.append(
            f"{name} item_ms.tail is p{notes['tail_percentile']} "
            f"({notes['tail_samples_beyond']} of {notes['items']} items above it)"
        )
    loop = result["loop"]
    lines.append(
        f"{name} failed_frac = {loop.failed / loop.attempted:.6g} ({loop.failed}/{loop.attempted})"
    )
    for key, value in sorted(result["residues"].items()):
        lines.append(f"{name} residue {key} = {value:.3e}")
    return lines


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    if trace:
        result = run_traced(name, seed, seconds)
        wanted = spec["per_layer"]
    else:
        result = run_untraced(name, seed, seconds)
        wanted = spec["end_to_end"]
    loop = result["loop"]
    summary = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    result["lines"] = report_lines(name, result, wanted)
    result["summary"] = summary
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_info(), "summary": summary, "notes": result["notes"],
        "residues": result["residues"], "first_failure": loop.first_failure,
    }
    (OUT / f"run-{name}-{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "optensor" / "__init__.py").is_file():
        print(f"error: optensor sources not found in {SRC}", file=sys.stderr)
        return 2
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": machine_info()}))
    for line in result["lines"]:
        print(line)
    if result["loop"].first_failure:
        print(f"first failure: {result['loop'].first_failure}", file=sys.stderr)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
