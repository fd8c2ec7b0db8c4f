"""Shared helpers: random circuit generation with physical bindings, call
counters, and reference kernels that several test modules compare against."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from optensor import (
    LabeledOperator,
    Leg,
    OperationDecl,
    WireLabel,
    fragment_from_ops,
    identity_result,
    parse_circuit,
    random_physical_transformation,
    random_preparation,
    random_result,
    scalar_operator,
)
from optensor import binding as binding_module, contraction, physicality
from optensor.notation import INPUT, OUTPUT


DIMS = {"a": 2, "b": 3}  # qubit and qutrit wire types

# (input types, output types): qubit, qutrit and mixed legs, prep-only and
# result-only operators
SIGNATURES = [
    (("a",), ("a",)),
    (("b",), ("b",)),
    (("a", "b"), ("b",)),
    (("a", "a"), ("a", "a")),
    ((), ("a", "b")),
    (("b",), ()),
]


def signature_op(ins, outs, seed):
    in_legs = [Leg(t, i + 1, INPUT, DIMS[t]) for i, t in enumerate(ins)]
    out_legs = [Leg(t, len(ins) + i + 1, OUTPUT, DIMS[t]) for i, t in enumerate(outs)]
    if not in_legs:
        return random_preparation(out_legs, seed)
    if not out_legs:
        return random_result(in_legs, seed)
    return random_physical_transformation(in_legs, out_legs, seed)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


def random_circuit(
    rng: np.random.Generator,
    max_ops: int = 8,
    type_dims: dict[str, int] | None = None,
):
    """A random closed circuit plus a physical binding for every operation.

    Built causally: preparations open wires, transformations consume live
    wires and open fresh ones, results close wires; acyclic by construction.
    Never exceeds ``max_ops`` operations.
    """
    type_dims = type_dims or {"a": 2, "b": 3}
    types = sorted(type_dims)
    next_id = 1
    decls: list[OperationDecl] = []
    binding = {}
    live: list[WireLabel] = []

    def fresh(sys: str) -> WireLabel:
        nonlocal next_id
        wire = WireLabel(sys, next_id)
        next_id += 1
        return wire

    def leg(wire: WireLabel, role: str) -> Leg:
        return Leg(wire.sys, wire.id, role, type_dims[wire.sys])

    def add_prep():
        outs = [fresh(types[rng.integers(len(types))]) for _ in range(rng.integers(1, 3))]
        name = f"Op{len(decls)}"
        decls.append(OperationDecl(name, (), tuple(outs)))
        binding[name] = random_preparation([leg(w, OUTPUT) for w in outs], rng)
        live.extend(outs)

    def take_inputs(k: int) -> list[WireLabel]:
        picks = rng.choice(len(live), size=k, replace=False)
        chosen = [live[i] for i in sorted(picks)]
        for w in chosen:
            live.remove(w)
        return chosen

    def add_transformation():
        ins = take_inputs(int(rng.integers(1, min(2, len(live)) + 1)))
        outs = [fresh(types[rng.integers(len(types))]) for _ in range(rng.integers(1, 3))]
        name = f"Op{len(decls)}"
        decls.append(OperationDecl(name, tuple(ins), tuple(outs)))
        binding[name] = random_physical_transformation(
            [leg(w, INPUT) for w in ins],
            [leg(w, OUTPUT) for w in outs],
            rng,
            trace_preserving=bool(rng.integers(2)),
        )
        live.extend(outs)

    def add_result(k: int):
        ins = take_inputs(k)
        name = f"Op{len(decls)}"
        decls.append(OperationDecl(name, tuple(ins), ()))
        binding[name] = random_result([leg(w, INPUT) for w in ins], rng)

    add_prep()
    if max_ops >= 5 and rng.integers(2):
        add_prep()
    # reserve enough result ops (two wires each) to close what is live
    while live and len(decls) + (len(live) + 1) // 2 + 2 <= max_ops:
        if len(live) >= 4 or (len(live) > 1 and rng.integers(3) == 0):
            add_result(int(rng.integers(1, 3)))
        else:
            add_transformation()
    while live:
        add_result(min(len(live), 2))
    assert len(decls) <= max_ops
    return fragment_from_ops(decls), binding


def random_dag(rng: np.random.Generator, n_ops: int, max_width: int):
    """A closed circuit of exactly ``n_ops`` operations plus a physical binding.

    Unlike :func:`random_circuit`, it runs for as long as asked: it keeps a
    pool of at most ``max_width`` live qubit (``a``) and qutrit (``b``)
    wires, opened by ``max_width`` preparations at the start.  Trace
    preserving channels take one or two live wires to one or two fresh wires
    of either type, so many change a wire's dimension, and mid-circuit
    results discard a wire with the identity result.  Each signature has at
    most two names, reused all through the circuit.  Random results close
    the wires still live at the end, which keeps the probability far from
    underflow.
    """
    decls: list[OperationDecl] = []
    binding = {}
    live: list[WireLabel] = []
    next_id = 1

    def legs(wires, role: str) -> list[Leg]:
        return [Leg(w.sys, w.id, role, DIMS[w.sys]) for w in wires]

    def add(kind: str, ins: list[WireLabel], out_types: str, make):
        nonlocal next_id
        outs = [WireLabel(t, next_id + k) for k, t in enumerate(out_types)]
        next_id += len(outs)
        in_types = "".join(w.sys for w in ins)
        name = f"{kind}{in_types}x{out_types}{rng.integers(2)}"
        decls.append(OperationDecl(name, tuple(ins), tuple(outs)))
        if name not in binding:
            binding[name] = make(legs(ins, INPUT), legs(outs, OUTPUT))
        live.extend(outs)

    def take(k: int) -> list[WireLabel]:
        picks = sorted(rng.choice(len(live), size=k, replace=False), reverse=True)
        return [live.pop(i) for i in picks]

    def types(m: int) -> str:
        return "".join("ab"[i] for i in rng.integers(2, size=m))

    def discard(in_legs, out_legs):
        (leg,) = in_legs
        return identity_result(leg.wire, leg.dim)

    for _ in range(min(max_width, n_ops // 2)):
        add("P", [], types(1), lambda in_legs, out_legs: random_preparation(out_legs, rng))
    # each operation adds one to len(decls) + len(live), and closing the
    # live wires at the end adds the rest, so stop at n_ops exactly
    while len(decls) + len(live) < n_ops:
        if len(live) > 1 and rng.integers(4) == 0:
            add("D", take(1), "", discard)
            continue
        growth = min(max_width - len(live), n_ops - len(decls) - len(live) - 1)
        ins = take(int(rng.integers(1, min(2, len(live)) + 1)))
        add(
            "T",
            ins,
            types(int(rng.integers(1, min(2, len(ins) + growth) + 1))),
            lambda in_legs, out_legs: random_physical_transformation(
                in_legs, out_legs, rng, trace_preserving=True
            ),
        )
    while live:
        add("R", take(1), "", lambda in_legs, _: random_result(in_legs, rng))
    return fragment_from_ops(decls), binding


def random_open_fragment(rng: np.random.Generator, type_dims=None):
    """A preparation-kind fragment (open outputs only) with a physical binding."""
    type_dims = type_dims or {"a": 2, "b": 3}
    frag, binding = random_circuit(rng, max_ops=5, type_dims=type_dims)
    # drop the closing results to leave their wires open
    keep = [d for d in frag.ops if d.inputs == () or d.outputs != ()]
    names = {d.name for d in keep}
    return fragment_from_ops(keep), {k: v for k, v in binding.items() if k in names}


def random_brickwork(rng: np.random.Generator, width: int, depth: int):
    """A closed qubit brickwork plus a physical binding.

    Each wire is prepared, passes ``depth`` layers of trace-preserving
    two-wire gates on neighbour pairs starting at wire ``layer % 2``, and is
    measured.  Gates are drawn from three names, so operations on different
    wires share one bound operator, as in circuits that reuse gates.
    """
    wires = [WireLabel("a", w) for w in range(1, width + 1)]
    next_id = width + 1
    decls: list[OperationDecl] = []
    binding = {}

    def legs(ws, role: str) -> list[Leg]:
        return [Leg(w.sys, w.id, role, 2) for w in ws]

    for w in wires:
        decls.append(OperationDecl(f"P{w.id}", (), (w,)))
        binding[f"P{w.id}"] = random_preparation(legs([w], OUTPUT), rng)
    for layer in range(depth):
        for q in range(layer % 2, width - 1, 2):
            ins = (wires[q], wires[q + 1])
            wires[q], wires[q + 1] = WireLabel("a", next_id), WireLabel("a", next_id + 1)
            next_id += 2
            name = f"G{rng.integers(3)}"
            decls.append(OperationDecl(name, ins, (wires[q], wires[q + 1])))
            if name not in binding:
                binding[name] = random_physical_transformation(
                    legs(ins, INPUT), legs(wires[q : q + 2], OUTPUT), rng, trace_preserving=True
                )
    for w in wires:
        decls.append(OperationDecl(f"R{w.id}", (w,), ()))
        binding[f"R{w.id}"] = random_result(legs([w], INPUT), rng)
    return fragment_from_ops(decls), binding


def with_portfree_op(frag, binding, value: float):
    """The circuit with one port-free operation ``S`` added, bound to ``value``."""
    ops = list(frag.ops) + [OperationDecl("S", (), ())]
    return fragment_from_ops(ops), {**binding, "S": scalar_operator(value)}


def reused_name_chain(rng: np.random.Generator, n_channels: int):
    """A closed chain through two channel names used in turn.

    ``W`` maps a qubit wire ``a`` to a qutrit wire ``b`` and ``V`` maps it
    back, so every channel changes the dimension; each name is bound once.
    """
    dims = {"a": 2, "b": 3}
    systems = ["ab"[k % 2] for k in range(n_channels + 1)]
    text = ["P^{a1}"]
    for k in range(1, n_channels + 1):
        name = "WV"[(k - 1) % 2]
        text.append(f"{name}_{{{systems[k - 1]}{k}}}^{{{systems[k]}{k + 1}}}")
    text.append(f"R_{{{systems[-1]}{n_channels + 1}}}")
    binding = {
        "P": random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
        "W": random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)], rng
        ),
        "V": random_physical_transformation(
            [Leg("b", 1, INPUT, 3)], [Leg("a", 2, OUTPUT, 2)], rng
        ),
        "R": random_result([Leg(systems[-1], 1, INPUT, dims[systems[-1]])], rng),
    }
    return parse_circuit(" ".join(text)), binding


def mixed_circuits(rng: np.random.Generator):
    """Closed circuits with bindings that mix qubits and qutrits, channels
    that change a wire's dimension, port-free operations and operation
    names used more than once."""
    cases = []
    for _ in range(20):
        frag, binding = random_circuit(rng, max_ops=int(rng.integers(2, 12)))
        if rng.integers(2):
            frag, binding = with_portfree_op(frag, binding, float(rng.uniform(0.2, 1.0)))
        cases.append((frag, binding))
    for n_channels in (1, 2, 5):
        cases.append(reused_name_chain(rng, n_channels))
    cases.append(with_portfree_op(*reused_name_chain(rng, 4), 0.5))
    cases.append(random_brickwork(rng, width=4, depth=5))
    return cases


def scrambled(frag, rng: np.random.Generator):
    """The same circuit with its operations shuffled and its wire ids renamed
    bijectively to fresh ids drawn from a wider range."""
    ids = sorted({lab.id for op in frag.ops for lab in op.labels})
    drawn = rng.choice(np.arange(1, 3 * len(ids) + 2), size=len(ids), replace=False)
    fresh = dict(zip(ids, (int(k) for k in drawn)))

    def rename(labels):
        return tuple(WireLabel(lab.sys, fresh[lab.id]) for lab in labels)

    ops = [OperationDecl(op.name, rename(op.inputs), rename(op.outputs)) for op in frag.ops]
    return fragment_from_ops(ops[i] for i in rng.permutation(len(ops)))


# Prepended to a child's code: import optensor, then cap the child's own
# address space 256 MiB above what it has mapped.
_CAP_PRELUDE = """\
import resource, sys
import numpy as np
import optensor as ot
import optensor.cli
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * resource.getpagesize()
_, hard = resource.getrlimit(resource.RLIMIT_AS)
soft = mapped + (256 << 20)
if hard != resource.RLIM_INFINITY:
    soft = min(soft, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
"""

capped_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="caps the address space through /proc and RLIMIT_AS"
)


def run_capped(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``argv`` in a child Python whose address space is capped.

    A test of an allocation that cannot succeed runs only this way: the
    child caps itself 256 MiB above what it has mapped once optensor is
    imported, so the allocation fails in the child with at most that much
    more in use.  BLAS runs one thread.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _CAP_PRELUDE + code, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def count_calls(monkeypatch, module, name) -> list:
    """Count calls of ``module.name`` made through ``module`` or any optensor namespace."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    for held in list(sys.modules.values()):
        if held.__name__.startswith("optensor") and getattr(held, name, None) is original:
            monkeypatch.setattr(held, name, counting)
    return calls


def count_bind_plan_check(monkeypatch) -> dict[str, list]:
    """Count binds, contraction plans and physicality tests, by function name."""
    return {
        name: count_calls(monkeypatch, module, name)
        for module, name in (
            (binding_module, "bind_names"),
            (contraction, "_plan_greedy"),
            (physicality, "is_physical"),
        )
    }


def pair_contract(
    x: np.ndarray,
    x_subs: Sequence[int],
    y: np.ndarray,
    y_subs: Sequence[int],
    out_subs: Sequence[int],
) -> np.ndarray:
    """``np.einsum(x, x_subs, y, y_subs, out_subs)`` as one BLAS matrix product.

    Each symbol appears at most once per operand.  Symbols carried by both
    operands are summed over and every other symbol appears in ``out_subs``,
    so the contraction is a ``tensordot`` followed by an axis permutation:
    an outer product when nothing is shared, a scalar when everything is.
    """
    shared = set(x_subs) & set(y_subs)
    x_axes = [i for i, s in enumerate(x_subs) if s in shared]
    y_axes = [y_subs.index(x_subs[i]) for i in x_axes]
    raw = np.tensordot(x, y, axes=(x_axes, y_axes))
    raw_subs = [s for s in x_subs if s not in shared] + [s for s in y_subs if s not in shared]
    return raw.transpose([raw_subs.index(s) for s in out_subs])


def inout_tensor(op: LabeledOperator) -> tuple[np.ndarray, int, int]:
    """Matrix permuted to inputs-then-outputs, reshaped (Nin, Nout, Nin, Nout)."""
    order = [l.id for l in op.input_legs] + [l.id for l in op.output_legs]
    arranged = op.permuted(order)
    nin = math.prod(l.dim for l in op.input_legs)
    nout = math.prod(l.dim for l in op.output_legs)
    return arranged.matrix.reshape(nin, nout, nin, nout), nin, nout
