"""Compare two commits on the benchmark in alternating pairs of runs.

Run from the repository root::

    python3 tools/bench_pairs.py --base HEAD~1 --change HEAD \
        --workload tomography --seed 11 --out BENCH.json

Each revision (any commit or tree) is exported with ``git archive`` into a
fresh directory, so neither side sees the working tree or a stale
``__pycache__``.  Each workload gets ten pairs; every pair runs the unchanged
``perfbench/run.py`` of each copy once for BENCHMARK.json's ``run_seconds``,
the base first in even pairs and the change first in odd ones, with the
caller's ``PYTHONDONTWRITEBYTECODE`` on both sides.  For each workload
and each end-to-end metric of BENCHMARK.json the output holds both sides'
values, medians and quartiles, how many pairs the change won, whether
the gap between the medians exceeds the base's quartile spread (the rule for
a claimed gain), and whether the median stayed within the metric's bound and
the base's spread was narrow enough to tell (the rule for no regression); it also
records the machine, the bytecode setting and each side's ``src/`` tree, so a
later commit that touches no source can be matched to the measurement.  If
``--out`` already holds a comparison of the same two revisions, the new
workloads are added to it, so that several seeds can share one file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def rev_parse(rev: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", "--verify", rev], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


def export(rev: str, into: Path) -> tuple[str, Path]:
    """``git archive`` of ``rev`` unpacked into ``into``; returns (object id, directory)."""
    object_id = rev_parse(rev)
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", object_id], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return object_id, into


def run_once(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One untraced ``perfbench/run.py`` run: its machine line and its summary line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    child = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {child.returncode}: "
                           f"{child.stderr.strip()}")
    machine = next(json.loads(l)["machine"] for l in lines if l.startswith('{"machine"'))
    return {"machine": machine, **json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(
    base: list[dict], change: list[dict], better: dict[str, str], bounds: dict[str, float]
) -> dict:
    """Per metric: both sides' quartiles, the change's wins, the median gap,
    and the no-regression rule.

    ``within_bound`` holds when the median moved the worse way by at most the
    metric's relative ``bound``.  ``unresolved`` holds when the base's quartile
    spread, relative to its median, exceeds the bound, so that a regression
    of that size could hide in the base's own noise, and some run of the
    change is not better than every run of the base.
    """
    metrics = {}
    for name, direction in better.items():
        b = [run["metrics"][name]["value"] for run in base]
        c = [run["metrics"][name]["value"] for run in change]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (x - y) > 0 for x, y in zip(b, c))
        b_stats, c_stats = quartiles(b), quartiles(c)
        gap = sign * (b_stats["median"] - c_stats["median"])  # > 0: the change is better
        b_iqr = b_stats["q3"] - b_stats["q1"]
        change_rel = c_stats["median"] / b_stats["median"] - 1
        bound = bounds[name]
        metrics[name] = {
            "unit": base[0]["metrics"][name]["unit"],
            "better": direction,
            "base": b_stats,
            "change": c_stats,
            "change_rel": change_rel,
            "change_wins": wins,
            "pairs": len(b),
            "gap_exceeds_base_iqr": gap > b_iqr,
            "bound": bound,
            "within_bound": sign * change_rel <= bound,
            "unresolved": b_iqr / b_stats["median"] > bound
            and not all(sign * (x - y) > 0 for x in b for y in c),
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--change", required=True, help="revision under test")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    # each checkout imports its own src/; both sides inherit one bytecode setting
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = Path(args.out)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        base_id, base_dir = export(args.base, Path(work) / "base")
        change_id, change_dir = export(args.change, Path(work) / "change")
        revisions = {"base": base_id, "change": change_id}
        report = json.loads(out.read_text()) if out.exists() else {"comparisons": []}
        if report.get("objects", revisions) != revisions:
            parser.error(f"{out} compares {report['objects']}, not {revisions}")
        report["objects"] = revisions
        report["src_trees"] = {side: rev_parse(f"{rev}:src") for side, rev in revisions.items()}
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for pair in range(PAIRS):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    checkout = base_dir if side == "base" else change_dir
                    runs[side].append(run_once(checkout, workload, args.seed, seconds, env))
                print(f"{workload} pair {pair + 1}/{PAIRS}: " + ", ".join(
                    f"{side} {runs[side][-1]['metrics']['item_ms.p50']['value']:.3f} ms"
                    for side in ("base", "change")
                ), file=sys.stderr, flush=True)
            report["comparisons"].append({
                "workload": workload,
                "seed": args.seed,
                "seconds": seconds,
                "bytecode": {"PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE")},
                "machine": runs["base"][0]["machine"],
                "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
                "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
                "correct": all(r["correct"] for rs in runs.values() for r in rs),
                "metrics": compare(runs["base"], runs["change"], better, bounds),
            })
            out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
