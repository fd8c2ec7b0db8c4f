"""Span tracing of optensor layers from outside the library.

A :class:`Tracer` wraps public optensor functions and rebinds each wrapper in
every ``optensor`` module namespace that holds the original, so calls made
through imports such as ``evaluator.is_physical`` or ``tomography.circuit_trace``
are caught too.  Spans are recorded only while an item is open; each span
carries the item id and its parent span.  Self time (span duration minus the
time covered by child spans) and call counts are kept per layer as the spans
close.  Spans are held in memory and written out by :meth:`Tracer.write`.

Which end-to-end metric each layer should move, and on which workload:

- ``contraction.plan_contraction``: ``item_ms.p50`` on deep, where it
  dominates; little on wide; none on tomography or cli.
- ``notation.*`` (parse, validation, foliation, causal structure) and
  ``binding.resolve_binding``: deep; flat elsewhere.
- ``physicality.is_physical``: deep and wide; ``unique_frac`` (distinct
  operators per call) shows the repeated checks of reused gates.
- ``contraction.execute_plan``, ``contraction.contract_pair``, the computed
  plan counts and ``evaluator.probability*``: wide latency and
  ``peak_rss_mb``; flat on deep.
- ``operators.LabeledOperator.init`` (building and symmetrizing
  intermediates): wide and tomography.
- ``duotensor.*``, ``tomography.*`` and ``physicality.sandwich_check``:
  tomography and the cli tomography command; flat on deep and wide.
- ``operators.io``, ``duotensor.io``, ``physicality.witness_nonphysical``,
  ``cli.main`` and ``cli.import_s``: cli only.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# layer name -> the (module, attribute) pairs it wraps; a class method is "Class.method"
LAYERS = {
    "notation.parse_circuit": [("optensor.notation", "parse_circuit")],
    "notation.fragment_from_ops": [("optensor.notation", "fragment_from_ops")],
    "notation.foliate": [("optensor.notation", "foliate")],
    "notation.causal_structure": [("optensor.notation", "causal_structure")],
    "binding.resolve_binding": [("optensor.binding", "resolve_binding")],
    "physicality.is_physical": [("optensor.physicality", "is_physical")],
    "physicality.sandwich_check": [("optensor.physicality", "sandwich_check")],
    "physicality.witness_nonphysical": [("optensor.physicality", "witness_nonphysical")],
    "contraction.circuit_trace": [("optensor.contraction", "circuit_trace")],
    "contraction.plan_contraction": [("optensor.contraction", "plan_contraction")],
    "contraction.execute_plan": [("optensor.contraction", "execute_plan")],
    "contraction.contract_pair": [("optensor.contraction", "contract_pair")],
    "evaluator.probability": [("optensor.evaluator", "probability")],
    "evaluator.probability_foliated": [("optensor.evaluator", "probability_foliated")],
    "operators.LabeledOperator.init": [("optensor.operators", "LabeledOperator.__init__")],
    "duotensor.default_fiducials": [("optensor.duotensor", "default_fiducials")],
    "duotensor.compute_hopping_metric": [("optensor.duotensor", "compute_hopping_metric")],
    "duotensor.decompose": [("optensor.duotensor", "decompose")],
    "duotensor.convert_dots": [("optensor.duotensor", "convert_dots")],
    "duotensor.reconstruct": [("optensor.duotensor", "reconstruct")],
    "tomography.probe": [("optensor.tomography", "probe")],
    "tomography.reconstruct_operation": [("optensor.tomography", "reconstruct_operation")],
    "cli.main": [("optensor.cli", "main")],
    "operators.io": [("optensor.operators", a) for a in ("load", "loads", "save", "dumps")],
    "duotensor.io": [
        ("optensor.duotensor", "duotensor_to_json_dict"),
        ("optensor.duotensor", "duotensor_from_json_dict"),
    ],
}

MAX_KEPT_SPANS = 200_000  # beyond this spans are still timed but not kept
QUANTITIES = (
    "contraction.plan.flops_computed",
    "contraction.plan.bytes_computed",
    "tomography.probe.settings",
)


def _signature_key(op) -> tuple:
    """Content identity of an operator, ignoring its wire ids."""
    legs = tuple((leg.sys, leg.role, leg.dim) for leg in op.legs)
    return legs, hash(op.matrix.tobytes())


def plan_cost(legs, plan) -> tuple[float, float]:
    """Computed multiply-adds and result bytes of a plan over operand legs.

    Each operand has a ket and a bra axis per leg, so a pairwise step costs
    the product of squared dims over the union of both operands' legs, and
    produces a complex128 matrix of ``result_dim ** 2`` entries.
    """
    legs_of = dict(enumerate(legs))
    flops = 0.0
    nbytes = 0.0
    for step in plan.steps:
        left, right = legs_of.pop(step.left), legs_of.pop(step.right)
        ids_right = {leg.id for leg in right}
        ids_left = {leg.id for leg in left}
        union = left + tuple(leg for leg in right if leg.id not in ids_left)
        flops += float(np.prod([float(leg.dim) ** 2 for leg in union]))
        nbytes += 16.0 * float(step.result_dim) ** 2
        legs_of[step.result_index] = tuple(
            leg for leg in left if leg.id not in ids_right
        ) + tuple(leg for leg in right if leg.id not in ids_left)
    return flops, nbytes


class Tracer:
    """Per-layer spans, self times, counts and waste ratios for one run."""

    def __init__(self):
        self.item = None
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)  # outermost spans only
        self.calls: Counter = Counter()
        self.via: Counter = Counter()  # (layer, calling module namespace)
        self.quantity: dict[str, float] = dict.fromkeys(QUANTITIES, 0.0)
        self.peak_dim = 0
        self.distinct: dict[str, int] = Counter()  # summed per-item distinct counts
        self._seen: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []
        self._open: Counter = Counter()  # spans of each name currently open
        self._next_id = 0

    # -- items -------------------------------------------------------------

    @contextmanager
    def open_item(self, item_id):
        self.item = item_id
        self._seen.clear()
        try:
            with self.span("item"):
                yield
        finally:
            for name, seen in self._seen.items():
                self.distinct[name] += len(seen)
            self.item = None

    @contextmanager
    def span(self, name: str):
        if self.item is None:
            yield
            return
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else None
        frame = [name, time.perf_counter(), 0.0, self._next_id, parent]
        self._stack.append(frame)
        self._open[name] += 1
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            duration = end - frame[1]
            self.self_s[name] += duration - frame[2]
            if not self._open[name]:
                self.total_s[name] += duration
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += duration
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((self.item, frame[3], parent, name, frame[1], end))
            else:
                self.dropped += 1

    # -- hooks that count what a layer was asked to do ---------------------

    def _note(self, name, args, result):
        if name == "physicality.is_physical":
            self._seen[name].add(_signature_key(args[0]))
        elif name == "duotensor.default_fiducials":
            self._seen[name].add(args[0])
        elif name == "contraction.plan_contraction":
            flops, nbytes = plan_cost([op.legs for op in args[0]], result)
            self.quantity["contraction.plan.flops_computed"] += flops
            self.quantity["contraction.plan.bytes_computed"] += nbytes
            self.peak_dim = max(self.peak_dim, result.peak_dim)
        elif name == "tomography.probe":
            self.quantity["tomography.probe.settings"] += result.data.size

    def _wrap(self, name: str, fn, via: str):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            tracer.via[name, via] += 1
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer._note(name, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind every traced function in all optensor namespaces; undo on exit."""
        undo = []
        targets = [(name, spec) for name, specs in LAYERS.items() for spec in specs]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "optensor" or n.startswith("optensor.")]
        for name, (module_name, attr) in targets:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, module_name))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, self._wrap(name, original, module.__name__))
                        undo.append((module, key, original))
        try:
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    # -- report ------------------------------------------------------------

    def unique_frac(self, name: str) -> float:
        calls = self.calls[name]
        return self.distinct[name] / calls if calls else 0.0

    def write(self, path) -> None:
        """Write the kept spans as JSON lines (times in seconds from the earliest start)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for item, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "item": item, "span": sid, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin,
                }) + "\n")
