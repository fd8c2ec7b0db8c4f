"""Attaching named operators to the operations of a circuit fragment."""

from __future__ import annotations

from typing import Mapping

from .errors import SignatureMismatchError, UnboundOperationError
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
