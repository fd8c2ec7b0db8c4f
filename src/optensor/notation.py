"""Symbolic circuit notation: parsing, printing, validation, and causal analysis.

Circuits are written as a sequence of operations, optionally separated by
whitespace: an operation ends where its name and port blocks end, so
``A^{a1}B_{a1}`` is two operations.  Each operation is a name followed by
optional input/output port blocks, at most one of each in either order, with
inputs as a subscript block and outputs as a superscript block; the labels of
a block are separated by whitespace::

    A^{a1 b2} B^{a3 d4} C_{b2 a3}^{a5} D_{a1}^{b6} E_{a5 d4}^{c7} F_{b6 c7}

A wire is a label id that occurs once as an output and once as an input of
the same system type.  Ids carry no meaning beyond identifying wires, so the
order of operations in the text is irrelevant.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Set
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, NoReturn, Sequence

from .errors import (
    CircuitSyntaxError,
    ClosedLoop,
    OneWireViolation,
    TypeMismatch,
)

INPUT = "input"
OUTPUT = "output"

CIRCUIT = "circuit"
PREPARATION = "preparation"
RESULT = "result"
TRANSFORMATION_FRAGMENT = "transformation-fragment"


@dataclass(frozen=True)
class SystemType:
    """A named wire type with Hilbert-space dimension ``dim``."""

    name: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"system type {self.name!r} needs dim >= 1, got {self.dim}")

    @property
    def fiducial_count(self) -> int:
        return self.dim * self.dim


class WireLabel(NamedTuple):
    """A typed, integer-labelled port, e.g. ``a1``.

    A named tuple: equal, hashed and ordered as ``(sys, id)``.
    """

    sys: str
    id: int

    def __str__(self) -> str:
        return f"{self.sys}{self.id}"


class OperationDecl(NamedTuple):
    """One operation instance: a name plus ordered input and output ports.

    A named tuple of ``(name, inputs, outputs)``.
    """

    name: str
    inputs: tuple[WireLabel, ...]
    outputs: tuple[WireLabel, ...]

    @property
    def labels(self) -> tuple[WireLabel, ...]:
        return self.inputs + self.outputs

    def __str__(self) -> str:
        text = self.name
        if self.inputs:
            text += "_{" + " ".join(str(w) for w in self.inputs) + "}"
        if self.outputs:
            text += "^{" + " ".join(str(w) for w in self.outputs) + "}"
        return text


class InternalWire(NamedTuple):
    """A wire joining the output slot of one operation to the input slot of another.

    A named tuple of ``(producer, out_slot, consumer, in_slot, label)``.
    """

    producer: int
    out_slot: int
    consumer: int
    in_slot: int
    label: WireLabel


@dataclass(frozen=True)
class CircuitFragment:
    """A validated DAG of operations connected by typed wires.

    ``open_inputs``/``open_outputs`` list the unwired ports;
    ``internal_wires`` the producer/consumer pairs.  Validation keeps a
    topological ``order`` of the operations and each one's sorted distinct
    consumers, ``successors``; neither takes part in equality or printing.
    Use :func:`fragment_from_ops` or :func:`parse_circuit` to construct one.
    """

    ops: tuple[OperationDecl, ...]
    open_inputs: tuple[WireLabel, ...]
    open_outputs: tuple[WireLabel, ...]
    internal_wires: tuple[InternalWire, ...]
    order: tuple[int, ...] = field(repr=False, compare=False)
    successors: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @property
    def kind(self) -> str:
        if not self.open_inputs and not self.open_outputs:
            return CIRCUIT
        if not self.open_inputs:
            return PREPARATION
        if not self.open_outputs:
            return RESULT
        return TRANSFORMATION_FRAGMENT

    def __str__(self) -> str:
        return " ".join(str(op) for op in self.ops)


# ---------------------------------------------------------------------------
# Parsing

_LABEL_RE = re.compile(r"([A-Za-z]+)([0-9]+)")
_WS_RE = re.compile(r"\s+")
# A well-formed operation: a name, then at most one port block of each kind in
# either order, each holding whitespace-separated labels with positive ids.
_LABEL = r"[A-Za-z]+0*[1-9][0-9]*"
_LABELS = rf"{_LABEL}(?:\s+{_LABEL})*"
_BLOCK = rf"\{{\s*({_LABELS})\s*\}}"
_OP_RE = re.compile(
    rf"([A-Za-z][A-Za-z0-9]*)(?:_{_BLOCK}(?:\^{_BLOCK})?|\^{_BLOCK}(?:_{_BLOCK})?)?"
)
# The longest well-formed start of a port block: a malformed block's error is
# named by the character where this stops.  Compiled on the first error, not
# at import.
_BLOCK_PREFIX = rf"\{{\s*({_LABELS})?\s*"


def _syntax_error(text: str, pos: int, m: re.Match | None) -> NoReturn:
    """Raise the first grammar violation of the operation at ``pos``.

    ``m`` is :data:`_OP_RE`'s match at ``pos``, if any, and stops before a
    ``^`` or ``_`` that opens either a second block of a kind or a block the
    pattern refused; the longest well-formed start of that block ends where
    the error is.
    """
    if m is None:
        raise CircuitSyntaxError("malformed operation", pos, "operation name")
    at = m.end()
    _, ins, outs, outs2, ins2 = m.groups()
    if text[at] == "^" and (outs or outs2):
        raise CircuitSyntaxError("second superscript block", at, "at most one '^{...}'")
    if text[at] == "_" and (ins or ins2):
        raise CircuitSyntaxError("second subscript block", at, "at most one '_{...}'")
    block = re.compile(_BLOCK_PREFIX).match(text, at + 1)
    if block is None:
        raise CircuitSyntaxError("malformed port block", at + 1, "'{'")
    stop = block.end()
    if stop == len(text):
        raise CircuitSyntaxError("unterminated port block", stop, "'}'")
    if text[stop] == "}":
        raise CircuitSyntaxError("empty port block", stop, "label")
    if block.end(1) == stop:
        raise CircuitSyntaxError("labels must be separated", stop, "whitespace or '}'")
    if _LABEL_RE.match(text, stop):  # a label whose id is all zeros
        raise CircuitSyntaxError("wire ids are positive", stop, "integer >= 1")
    raise CircuitSyntaxError("malformed label", stop, "label like 'a1'")


def _parse_op(text: str, pos: int, interned: dict[str, WireLabel]) -> tuple[OperationDecl, int]:
    """Parse one operation with one pattern match, else raise :func:`_syntax_error`.

    A match followed by ``^`` or ``_`` (a second block of a kind, or a block
    the pattern refused) is an error.  Labels are shared through
    ``interned``, keyed by their text.
    """
    m = _OP_RE.match(text, pos)
    if m is None or text.startswith(("^", "_"), m.end()):
        _syntax_error(text, pos, m)
    name, ins, outs, outs2, ins2 = m.groups()
    ports = []
    for block in (ins or ins2, outs or outs2):
        labels = []
        for token in block.split() if block else ():
            label = interned.get(token)
            if label is None:
                sys_name, id_text = _LABEL_RE.match(token).groups()
                label = interned[token] = WireLabel(sys_name, int(id_text))
            labels.append(label)
        ports.append(tuple(labels))
    return OperationDecl(name, *ports), m.end()


def parse_circuit(text: str) -> CircuitFragment:
    """Parse DSL text into a validated :class:`CircuitFragment`.

    Raises :class:`CircuitSyntaxError` on grammar violations and the
    :class:`WiringError` subclasses on wiring-rule violations.
    """
    ops: list[OperationDecl] = []
    interned: dict[str, WireLabel] = {}
    pos = 0
    while pos < len(text):
        ws = _WS_RE.match(text, pos)
        if ws:
            pos = ws.end()
            continue
        op, pos = _parse_op(text, pos, interned)
        ops.append(op)
    return fragment_from_ops(ops)


def fragment_from_ops(ops: Iterable[OperationDecl]) -> CircuitFragment:
    """Validate wiring rules and assemble a fragment from operation declarations."""
    ops = tuple(ops)
    # occurrences[id] -> list of (op index, role, slot, label)
    occurrences: dict[int, list[tuple[int, str, int, WireLabel]]] = {}
    for i, op in enumerate(ops):
        for slot, lab in enumerate(op.inputs):
            occurrences.setdefault(lab.id, []).append((i, INPUT, slot, lab))
        for slot, lab in enumerate(op.outputs):
            occurrences.setdefault(lab.id, []).append((i, OUTPUT, slot, lab))

    open_ids: set[int] = set()
    wires: list[InternalWire] = []
    for wire_id, occ in sorted(occurrences.items()):
        if len(occ) > 2:
            where = ", ".join(f"{ops[i].name}.{role}" for i, role, _, _ in occ)
            raise OneWireViolation(f"id {wire_id} used {len(occ)} times ({where})")
        if len(occ) == 1:
            open_ids.add(wire_id)
            continue
        (i1, r1, s1, l1), (i2, r2, s2, l2) = occ
        if r1 == r2:
            raise OneWireViolation(
                f"id {wire_id} appears twice as {r1} ({ops[i1].name}, {ops[i2].name})"
            )
        if l1.sys != l2.sys:
            raise TypeMismatch(
                f"id {wire_id} typed both {l1.sys!r} and {l2.sys!r} "
                f"({ops[i1].name}, {ops[i2].name})"
            )
        if r1 == OUTPUT:
            wires.append(InternalWire(i1, s1, i2, s2, l1))
        else:
            wires.append(InternalWire(i2, s2, i1, s1, l2))

    order, successors = _dag_order(ops, wires)
    # open ports in declaration order
    open_inputs = tuple(lab for op in ops for lab in op.inputs if lab.id in open_ids)
    open_outputs = tuple(lab for op in ops for lab in op.outputs if lab.id in open_ids)
    return CircuitFragment(ops, open_inputs, open_outputs, tuple(wires), order, successors)


def _dag_order(
    ops: Sequence[OperationDecl], wires: Sequence[InternalWire]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """A topological order of the operations, and each one's sorted distinct consumers.

    The order is the reverse finish order of a depth-first search that starts
    from each operation in index order and visits successors in sorted order.
    Raises :class:`ClosedLoop` naming the first self-loop in wire order, else
    the first cycle the search meets.
    """
    consumers: list[set[int]] = [set() for _ in ops]
    for w in wires:
        if w.producer == w.consumer:
            raise ClosedLoop(f"{ops[w.producer].name} -> {ops[w.producer].name}")
        consumers[w.producer].add(w.consumer)
    succ = tuple(tuple(sorted(s)) for s in consumers)
    state = [0] * len(ops)  # 0 unseen, 1 on stack, 2 done
    finished: list[int] = []
    # An explicit stack, so that long chains do not hit the recursion limit.
    for start in range(len(ops)):
        if state[start] != 0:
            continue
        state[start] = 1
        stack = [start]
        pending = [iter(succ[start])]
        while stack:
            for nxt in pending[-1]:
                if state[nxt] == 1:
                    cycle = stack[stack.index(nxt):] + [nxt]
                    raise ClosedLoop(" -> ".join(ops[i].name for i in cycle))
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append(nxt)
                    pending.append(iter(succ[nxt]))
                    break
            else:
                done = stack.pop()
                state[done] = 2
                finished.append(done)
                pending.pop()
    finished.reverse()
    return tuple(finished), succ


# ---------------------------------------------------------------------------
# Canonical form and printing


def _walk(root: int, ports: Sequence[Sequence[tuple[int, ...]]]) -> dict[int, int]:
    """Rank ``root``'s component breadth-first, visiting ports in slot order."""
    walk, rank = [root], {root: 0}
    for i in walk:  # the loop reaches what it appends
        for end in ports[i]:
            if end and end[0] not in rank:
                rank[end[0]] = len(walk)
                walk.append(end[0])
    return rank


def canonicalize(frag: CircuitFragment) -> CircuitFragment:
    """The fragment rewritten so that neither operation order nor wire ids matter.

    A component's code lists, per operation in the rank order of a walk, name,
    port types and each port's neighbour ``(rank, port)``; it is the smallest over
    walks from the component's rarest class of name, port types and neighbours'
    ``(name, port)``.  Operations are ordered by (name, component in code order,
    rank) and wire ids renumbered 1..n in that order: distinct names sort by name.
    """
    ops = frag.ops
    # each port, inputs then outputs, as its neighbour's (operation, port); () when open
    ports: list[list[tuple[int, ...]]] = [[()] * len(op.labels) for op in ops]
    for w in frag.internal_wires:
        out_port = len(ops[w.producer].inputs) + w.out_slot
        ports[w.producer][out_port] = (w.consumer, w.in_slot)
        ports[w.consumer][w.in_slot] = (w.producer, out_port)
    heads = [(op.name, len(op.inputs), tuple(lab.sys for lab in op.labels)) for op in ops]
    local = [h + tuple(e and (ops[e[0]].name, e[1]) for e in row) for h, row in zip(heads, ports)]
    def code(root: int) -> tuple[list[tuple], dict[int, int]]:
        rank = _walk(root, ports)
        return [heads[i] + tuple(e and (rank[e[0]], e[1]) for e in ports[i]) for i in rank], rank

    comps, placed = [], set()
    for start in range(len(ops)):
        if start in placed:
            continue
        ranked = _walk(start, ports)
        placed.update(ranked)
        counts = Counter(local[i] for i in ranked)
        rarest = min(counts, key=lambda key: (counts[key], key))
        comps.append(min((code(i) for i in ranked if local[i] == rarest), key=itemgetter(0)))
    comps.sort(key=itemgetter(0))
    # a stable sort by name keeps each name's operations in (component, rank) order
    printed = sorted((ops[i] for _, rank in comps for i in rank), key=lambda op: op.name)
    fresh: dict[int, int] = {}
    def renumber(labels: tuple[WireLabel, ...]) -> tuple[WireLabel, ...]:
        return tuple(WireLabel(w.sys, fresh.setdefault(w.id, len(fresh) + 1)) for w in labels)
    return fragment_from_ops(
        OperationDecl(op.name, renumber(op.inputs), renumber(op.outputs)) for op in printed
    )


def print_circuit(frag: CircuitFragment) -> str:
    """The DSL text of :func:`canonicalize`'s form: one text for every writing of a circuit."""
    return str(canonicalize(frag))


# ---------------------------------------------------------------------------
# Causal structure


@dataclass(frozen=True)
class CausalStructure:
    """Reachability from output ports to input ports through the wiring.

    It stores the fragment's operations, one reachability bitset per
    operation (bit ``j`` of the Python int ``reach[i]`` is set when a
    directed path of at least one wire leads from operation ``i`` to
    operation ``j``), and, for each role, a map from port label to the
    operation holding it (``producer``, ``consumer``).  ``(out_label,
    in_label)`` is related when ``out_label``'s producer reaches
    ``in_label``'s consumer.  ``pairs`` is a lazy read-only set of the
    related pairs: its ``len`` is exact and is counted from the bitsets
    without materializing a pair.
    """

    ops: tuple[OperationDecl, ...]
    reach: tuple[int, ...]
    open_output_labels: tuple[WireLabel, ...]
    open_input_labels: tuple[WireLabel, ...]
    producer: dict[WireLabel, int] = field(init=False, repr=False, compare=False)
    consumer: dict[WireLabel, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        producer = {lab: i for i, op in enumerate(self.ops) for lab in op.outputs}
        consumer = {lab: j for j, op in enumerate(self.ops) for lab in op.inputs}
        object.__setattr__(self, "producer", producer)
        object.__setattr__(self, "consumer", consumer)

    @property
    def pairs(self) -> Set[tuple[WireLabel, WireLabel]]:
        return _CausalPairs(self)

    def reaches(self, out_label: WireLabel, in_label: WireLabel) -> bool:
        i = self.producer.get(out_label)
        j = self.consumer.get(in_label)
        return i is not None and j is not None and self.reach[i] >> j & 1 == 1

    def open_pairs(self) -> frozenset[tuple[WireLabel, WireLabel]]:
        """Restriction of the relation to the fragment's open ports."""
        return frozenset(
            (o, i)
            for o in self.open_output_labels
            for i in self.open_input_labels
            if self.reaches(o, i)
        )


class _CausalPairs(Set):
    """The ``(out_label, in_label)`` pairs of a :class:`CausalStructure`, read lazily."""

    __slots__ = ("_cs",)

    def __init__(self, cs: CausalStructure):
        self._cs = cs

    @classmethod
    def _from_iterable(cls, it):
        # results of set operators such as ``&`` are ordinary frozensets
        return frozenset(it)

    def __contains__(self, item) -> bool:
        return isinstance(item, tuple) and len(item) == 2 and self._cs.reaches(*item)

    def __iter__(self) -> Iterator[tuple[WireLabel, WireLabel]]:
        ops = self._cs.ops
        for op, reach in zip(ops, self._cs.reach):
            if not op.outputs:
                continue
            for j, bit in enumerate(bin(reach)[:1:-1]):
                if bit == "1":
                    for out_lab in op.outputs:
                        for in_lab in ops[j].inputs:
                            yield out_lab, in_lab

    def __len__(self) -> int:
        # sum over i of |outputs(i)| * sum over k of k * popcount(reach[i] & mask_k),
        # where mask_k marks the operations with k inputs
        masks: dict[int, int] = {}
        for j, op in enumerate(self._cs.ops):
            if op.inputs:
                masks[len(op.inputs)] = masks.get(len(op.inputs), 0) | 1 << j
        return sum(
            len(op.outputs) * sum(k * (reach & mask).bit_count() for k, mask in masks.items())
            for op, reach in zip(self._cs.ops, self._cs.reach)
            if op.outputs and reach
        )


def causal_structure(frag: CircuitFragment) -> CausalStructure:
    """Which outputs feed, directly or not, into which inputs: one sweep of ``frag.order``."""
    reach = [0] * len(frag.ops)
    for i in reversed(frag.order):
        for s in frag.successors[i]:
            reach[i] |= (1 << s) | reach[s]
    return CausalStructure(frag.ops, tuple(reach), frag.open_outputs, frag.open_inputs)


# ---------------------------------------------------------------------------
# Foliation


@dataclass(frozen=True)
class PaddingIdentity:
    """An identity transformation inserted for a wire crossing a layer it does not act in."""

    wire: WireLabel
    layer: int


@dataclass(frozen=True)
class Foliation:
    """An ordered layering of the circuit DAG into antichains.

    ``layers`` holds operation indices; after inserting the recorded padding
    identities every wire runs from one layer to the strictly next one.
    """

    layers: tuple[tuple[int, ...], ...]
    paddings: tuple[PaddingIdentity, ...]


def foliate(frag: CircuitFragment, policy: str = "earliest") -> Foliation:
    """Layer the fragment's operations into time steps.

    ``policy="earliest"`` places each operation at its longest-path depth
    from the sources; ``"latest"`` pushes each as late as its successors
    allow within the same layer count.  Wires spanning more than one layer
    boundary are padded with recorded identity transformations.  Both
    policies sweep the fragment's topological ``order``.
    """
    if policy not in ("earliest", "latest"):
        raise ValueError(f"unknown foliation policy {policy!r}")
    n = len(frag.ops)
    order, succ = frag.order, frag.successors
    depth = [0] * n
    for i in order:
        for s in succ[i]:
            depth[s] = max(depth[s], depth[i] + 1)
    n_layers = 1 + max(depth, default=-1)

    if policy == "latest":
        late = [n_layers - 1] * n
        for i in reversed(order):
            if succ[i]:
                late[i] = min(late[s] for s in succ[i]) - 1
        depth = late

    layers: list[list[int]] = [[] for _ in range(n_layers)]
    for i, d in enumerate(depth):
        layers[d].append(i)
    paddings = [
        PaddingIdentity(w.label, k)
        for w in frag.internal_wires
        for k in range(depth[w.producer] + 1, depth[w.consumer])
    ]
    return Foliation(tuple(tuple(l) for l in layers), tuple(paddings))


# ---------------------------------------------------------------------------
# System-type registry


def parse_registry(text: str) -> dict[str, SystemType]:
    """Parse a system-type registry: one ``name dim`` pair per line."""
    registry: dict[str, SystemType] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        well_formed = len(parts) == 2 and parts[1].isascii() and parts[1].isdecimal()
        if not well_formed or int(parts[1]) < 1:
            raise ValueError(f"registry line {lineno}: expected 'name dim' with dim >= 1: {raw!r}")
        name, dim = parts[0], int(parts[1])
        if name in registry:
            raise ValueError(f"registry line {lineno}: duplicate type {name!r}")
        registry[name] = SystemType(name, dim)
    return registry
