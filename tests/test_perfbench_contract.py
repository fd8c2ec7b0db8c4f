"""The library API that the benchmark's circuit workloads rely on.

``perfbench/workloads.py`` checks every item through ``len(causal.pairs)``,
``open_pairs()`` and both evaluation routes.  Running a few of its items here
makes an API break fail the test suite instead of every benchmark item.
The benchmark files are imported as they are, never modified.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("inputs"), importlib.import_module("workloads")


def test_circuit_workload_items_pass_their_checks(perfbench):
    inputs, workloads = perfbench
    cases = [(inputs.deep_circuit, index) for index in range(4)]  # widths 1-4
    cases.append((inputs.wide_circuit, 0))
    for make_circuit, index in cases:
        workload = workloads.CircuitWorkload(31, make_circuit)
        circ = workload.generate(index)
        assert workload.check(circ, workload.run(circ)) == []
