"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain inputs:
circuit text with an operator binding, or a channel.  The library under test
sees only these inputs, never the seed.

Circuits are layered registers of qudit wires.  Each wire opens with a
preparation and closes with a result; in between, a chain applies one-wire
gates and a brickwork applies two-wire gates on alternating neighbour pairs.
A few gate names are reused across operations, as real circuits reuse gates.
Gates are trace preserving and results have spectra in [0.25, 1], so every
circuit probability is at least 0.25 ** width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import optensor as ot
from optensor import LabeledOperator, Leg
from optensor.notation import INPUT, OUTPUT

DIMS = {"a": 2, "b": 3}  # qubit and qutrit wire types
NAMES_PER_SIGNATURE = 3  # distinct gate names per gate signature
NAMES_PER_END = 2  # distinct preparation / result names per wire type
RESULT_SPECTRUM = (0.25, 1.0)


@dataclass(frozen=True)
class Circuit:
    """A closed circuit as DSL text, its binding, and facts known from its shape."""

    text: str
    binding: dict[str, LabeledOperator]
    n_ops: int
    width: int
    layers: int  # layer count of the earliest foliation
    causal_pairs: int  # size of the causal relation once the results are removed


def _legs(types, role: str, first_id: int) -> list[Leg]:
    return [Leg(t, first_id + k, role, DIMS[t]) for k, t in enumerate(types)]


def channel(rng: np.random.Generator, in_types, out_types, trace_preserving=False):
    """A random physical operation from wires of ``in_types`` to ``out_types``."""
    return ot.random_physical_transformation(
        _legs(in_types, INPUT, 1),
        _legs(out_types, OUTPUT, 1 + len(in_types)),
        rng,
        trace_preserving=trace_preserving,
    )


def _result(rng: np.random.Generator, sys: str) -> LabeledOperator:
    dim = DIMS[sys]
    u = ot.random_unitary(dim, rng)
    spectrum = rng.uniform(*RESULT_SPECTRUM, dim)
    return LabeledOperator(_legs([sys], INPUT, 1), u @ np.diag(spectrum) @ u.conj().T)


def register_circuit(rng: np.random.Generator, types: list[str], n_ops: int) -> Circuit:
    """Prepare each wire of ``types``, apply gate layers, and measure every wire.

    Layers are added until the circuit has at least ``n_ops`` operations.  One
    wire gives a chain of one-wire gates; wider registers get a brickwork of
    two-wire gates on pairs starting at wire ``layer % 2``.
    """
    width = len(types)
    next_id = 1
    live: list[str] = []  # current label on each wire
    ops: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = []
    binding: dict[str, LabeledOperator] = {}

    def fresh(sys: str) -> str:
        nonlocal next_id
        label = f"{sys}{next_id}"
        next_id += 1
        return label

    def pick(prefix: str, signature: tuple[str, ...], pool: int, make) -> str:
        name = f"{prefix}{''.join(signature)}{int(rng.integers(pool))}"
        if name not in binding:
            binding[name] = make()
        return name

    for sys in types:
        live.append(fresh(sys))
        name = pick("P", (sys,), NAMES_PER_END,
                    lambda: ot.random_preparation(_legs([sys], OUTPUT, 1), rng))
        ops.append((name, (), (live[-1],)))

    layer = 0
    while len(ops) + width < n_ops:
        if width == 1:
            groups = [(0,)]
        else:
            groups = [(w, w + 1) for w in range(layer % 2, width - 1, 2)]
        for wires in groups:
            sig = tuple(types[w] for w in wires)
            name = pick("G", sig, NAMES_PER_SIGNATURE,
                        lambda: channel(rng, sig, sig, trace_preserving=True))
            ins = tuple(live[w] for w in wires)
            for w in wires:
                live[w] = fresh(types[w])
            ops.append((name, ins, tuple(live[w] for w in wires)))
        layer += 1

    for w, sys in enumerate(types):
        name = pick("R", (sys,), NAMES_PER_END, lambda: _result(rng, sys))
        ops.append((name, (live[w],), ()))

    text = "\n".join(_op_text(*op) for op in ops) + "\n"
    return Circuit(text, binding, len(ops), width, _layer_count(ops), _causal_pair_count(ops))


def _op_text(name: str, ins, outs) -> str:
    text = name
    if ins:
        text += "_{" + " ".join(ins) + "}"
    if outs:
        text += "^{" + " ".join(outs) + "}"
    return text


def _layer_count(ops) -> int:
    """One more than the longest path, in operations, of ``ops`` (in causal order)."""
    depth_of: dict[str, int] = {}  # wire label -> depth of its producer
    deepest = 0
    for _, ins, outs in ops:
        depth = 1 + max((depth_of[label] for label in ins), default=-1)
        depth_of.update((label, depth) for label in outs)
        deepest = max(deepest, depth)
    return deepest + 1


def _causal_pair_count(ops) -> int:
    """Count (output, input) label pairs joined by a directed path, results removed.

    ``ops`` is in causal order, so one backward sweep collects, for every
    operation, the set of operations it reaches.
    """
    kept = [op for op in ops if op[2]]
    consumer = {label: j for j, (_, ins, _) in enumerate(kept) for label in ins}
    reach: list[set[int]] = [set() for _ in kept]
    for i in range(len(kept) - 1, -1, -1):
        for label in kept[i][2]:
            j = consumer.get(label)
            if j is not None:
                reach[i].add(j)
                reach[i] |= reach[j]
    return sum(
        len(outs) * sum(len(kept[j][1]) for j in reach[i])
        for i, (_, _, outs) in enumerate(kept)
    )


# Item ``index`` of a workload takes its circuit shape from ``index``, cycling
# through the shapes, so every run holds the same mix; the seed draws the
# gates.  A random shape per item would make a run's median depend on how
# many items of each shape it happened to draw.
DEEP_WIDTHS = (1, 2, 3, 4)  # a chain, then brickworks 2-4 wires wide
DEEP_OPS = 150
WIDE_DEPTHS = (6, 7, 8)


def deep_circuit(rng: np.random.Generator, index: int) -> Circuit:
    """About 150 operations on a narrow qubit register: a chain or a 2-4 wide brickwork."""
    width = DEEP_WIDTHS[index % len(DEEP_WIDTHS)]
    return register_circuit(rng, ["a"] * width, DEEP_OPS)


def wide_circuit(rng: np.random.Generator, index: int) -> Circuit:
    """An 8-qubit brickwork of depth 6-8, about 40 operations.

    Qubits only: one qutrit wire would make the foliated state 2.25 times
    larger, and a mix of both would split item times into two clusters.
    """
    depth = WIDE_DEPTHS[index % len(WIDE_DEPTHS)]
    pairs = sum(len(range(d % 2, 7, 2)) for d in range(depth))
    return register_circuit(rng, ["a"] * 8, 16 + pairs)


# the channel signatures (input wire types, output wire types) of one
# tomography item: two qubits to two qubits, qutrit to qutrit, and qubit
# with qutrit to qutrit
TOMOGRAPHY_SIGNATURES = (
    (("a", "a"), ("a", "a")),
    (("b",), ("b",)),
    (("a", "b"), ("b",)),
)
