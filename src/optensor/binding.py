"""Attaching named operators to the operations of a circuit fragment."""

from __future__ import annotations

import itertools
from typing import Mapping

from .errors import DimMismatchError, SignatureMismatchError, UnboundOperationError
from .notation import INPUT, OUTPUT, CircuitFragment, OperationDecl
from .operators import LabeledOperator

Binding = Mapping[str, LabeledOperator]


def relabel_to_decl(op: LabeledOperator, decl: OperationDecl) -> LabeledOperator:
    """Rename an operator's wire ids to match an operation declaration.

    The operator's input legs correspond positionally to the declaration's
    input ports, and likewise for outputs; system types must agree.  The
    legs keep their order and the matrix is shared; each new leg copies the
    already-validated one with only its wire id replaced.
    """
    ports = {INPUT: iter(decl.inputs), OUTPUT: iter(decl.outputs)}
    legs = []
    for leg in op.legs:
        wire = next(ports[leg.role], None)
        if wire is None or wire.sys != leg.sys:
            raise _signature_error(op, decl)
        legs.append(leg._on_wire(wire.id))
    if len(legs) != len(decl.inputs) + len(decl.outputs):
        raise _signature_error(op, decl)
    return LabeledOperator._from_valid(tuple(legs), op.matrix)


def _signature_error(op: LabeledOperator, decl: OperationDecl) -> SignatureMismatchError:
    """Why the operator's legs do not fit the ports: the counts if they differ,
    else the first type mismatch, inputs before outputs."""
    ins, outs = op.input_legs, op.output_legs
    if len(ins) != len(decl.inputs) or len(outs) != len(decl.outputs):
        return SignatureMismatchError(
            f"{decl.name}: declared {len(decl.inputs)}->{len(decl.outputs)} ports, "
            f"operator has {len(ins)}->{len(outs)} legs"
        )
    leg, wire = next(
        (leg, wire)
        for leg, wire in zip(ins + outs, decl.inputs + decl.outputs)
        if leg.sys != wire.sys
    )
    return SignatureMismatchError(
        f"{decl.name}: port {wire} has type {wire.sys!r}, operator leg is {leg.sys!r}"
    )


def resolve_binding(frag: CircuitFragment, binding: Binding) -> list[LabeledOperator]:
    """Return one relabeled operator per operation, in declaration order."""
    bound: list[LabeledOperator] = []
    for decl in frag.ops:
        if decl.name not in binding:
            raise UnboundOperationError(f"no operator bound to {decl.name!r}")
        bound.append(relabel_to_decl(binding[decl.name], decl))
    return bound


def bind_names(frag: CircuitFragment, binding: Binding) -> tuple[
    dict[str, LabeledOperator],
    dict[str, tuple[OperationDecl, LabeledOperator]],
    list[tuple[int, ...]],
    dict[int, int],
]:
    """Bind each operation by its name, without an operator per operation.

    Returns four tables: each name, in order of first use, to the caller's
    operator; each name to its first declaration and the operator relabeled
    to it; each operation's wire ids in its operator's leg order; and each
    wire's dimension.

    Declarations are walked in order and each name is looked up once: an
    unbound name raises :class:`UnboundOperationError`, and a declaration
    whose ports do not fit the operator's legs raises the
    :class:`SignatureMismatchError` of :func:`relabel_to_decl`, which builds
    only each name's first operator.  A wire whose second end, in
    operand-scan order, has another dimension raises
    :class:`DimMismatchError` once every declaration is bound.
    """
    operators: dict[str, LabeledOperator] = {}
    first: dict[str, tuple[OperationDecl, LabeledOperator]] = {}
    # name -> its port counts, and per leg in order the port it takes, its type and dim
    legs_of: dict[str, tuple[int, int, tuple[tuple[int, str, int], ...]]] = {}
    wires: list[tuple[int, ...]] = []
    wire_dims: dict[int, int] = {}
    mismatch = None  # the first wire whose dimensions disagree
    for decl in frag.ops:
        name, ins, outs = decl
        entry = legs_of.get(name)
        if entry is None:
            if name not in binding:
                raise UnboundOperationError(f"no operator bound to {name!r}")
            op = operators[name] = binding[name]
            first[name] = (decl, relabel_to_decl(op, decl))
            # relabel_to_decl matched the k-th input leg to input port k, and likewise outputs
            ports = {INPUT: itertools.count(), OUTPUT: itertools.count(len(ins))}
            legs = tuple((next(ports[leg.role]), leg.sys, leg.dim) for leg in op.legs)
            entry = legs_of[name] = (len(ins), len(outs), legs)
        n_in, n_out, legs = entry
        labels = ins + outs
        if len(ins) != n_in or len(outs) != n_out:
            raise _signature_error(operators[name], decl)
        ids = []
        for port, sys, dim in legs:
            wire = labels[port]
            if wire.sys != sys:
                raise _signature_error(operators[name], decl)
            known = wire_dims.setdefault(wire.id, dim)
            if known != dim and mismatch is None:
                mismatch = f"wire id {wire.id} joins {sys}(dim {known}) to {sys}(dim {dim})"
            ids.append(wire.id)
        wires.append(tuple(ids))
    if mismatch is not None:
        raise DimMismatchError(mismatch)
    return operators, first, wires, wire_dims
