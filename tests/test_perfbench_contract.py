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
