"""The library API that the benchmark relies on.

``perfbench/workloads.py`` checks every circuit item through
``len(causal.pairs)``, ``open_pairs()`` and both evaluation routes, every
tomography item through the values ``probe`` asked of a wrapping box, and
every cli item through ``cli.main``'s exit code and output;
``perfbench/tracing.py`` rebinds the library functions named in its
``LAYERS`` table.  Running a few items and resolving every traced name here
makes an API break fail the test suite instead of every benchmark item or
the traced run.  The benchmark files are imported as they are, never
modified.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import optensor as ot
from optensor import Leg
from optensor.notation import INPUT, OUTPUT

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


def test_tomography_workload_item_passes_its_check(perfbench):
    """The check reads what ``probe`` asked of a wrapping box, for every setting."""
    _, workloads = perfbench
    workload = workloads.TomographyWorkload(31)
    draws = workload.generate(0)
    assert workload.check(draws, workload.run(draws)) == []


def test_cli_workload_session_passes_its_checks(perfbench, tmp_path):
    """Every command of the session, in process, from set-up files to exit codes."""
    _, workloads = perfbench
    src = PERFBENCH.parent / "src"
    workload = workloads.CliWorkload(31, tmp_path, src, in_process=True)
    workload.setup()
    for index in range(len(workload.session)):
        argv = workload.generate(index)
        assert workload.check(argv, workload.run(argv)) == [], argv


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = [target for pairs in tracing.LAYERS.values() for target in pairs]
    assert targets
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{attr} does not resolve"
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_plan_cost_of_a_qubit_chain(monkeypatch):
    """``plan_cost`` reads each step's operands, result size and index.

    P^{a1} W_{a1}^{a2} R_{a2} plans as ``contract 0 1 over [a1] -> dim 2``
    then ``contract 2 3 over [a2] -> dim 1``.  A step costs the product of
    squared dims over the union of its operands' legs and writes
    ``16 * result_dim**2`` bytes: 2**2 * 2**2 + 2**2 = 20 multiply-adds and
    16 * 2**2 + 16 * 1**2 = 80 bytes.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    rng = np.random.default_rng(5)
    ops = [
        ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
        ot.random_physical_transformation([Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng),
        ot.random_result([Leg("a", 2, INPUT, 2)], rng),
    ]
    plan = ot.plan_contraction(ops)
    assert plan.dump() == "contract 0 1 over [a1] -> dim 2\ncontract 2 3 over [a2] -> dim 1"
    assert tracing.plan_cost([op.legs for op in ops], plan) == (20.0, 80.0)
