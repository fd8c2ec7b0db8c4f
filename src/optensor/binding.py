"""Attaching named operators to the operations of a circuit fragment."""

from __future__ import annotations

from typing import Mapping

from .errors import SignatureMismatchError, UnboundOperationError
from .notation import CircuitFragment, OperationDecl
from .operators import LabeledOperator

Binding = Mapping[str, LabeledOperator]


def relabel_to_decl(op: LabeledOperator, decl: OperationDecl) -> LabeledOperator:
    """Rename an operator's wire ids to match an operation declaration.

    The operator's input legs correspond positionally to the declaration's
    input ports, and likewise for outputs; system types must agree.
    """
    ins, outs = op.input_legs, op.output_legs
    if len(ins) != len(decl.inputs) or len(outs) != len(decl.outputs):
        raise SignatureMismatchError(
            f"{decl.name}: declared {len(decl.inputs)}->{len(decl.outputs)} ports, "
            f"operator has {len(ins)}->{len(outs)} legs"
        )
    mapping = {}
    for leg, wire in list(zip(ins, decl.inputs)) + list(zip(outs, decl.outputs)):
        if leg.sys != wire.sys:
            raise SignatureMismatchError(
                f"{decl.name}: port {wire} has type {wire.sys!r}, "
                f"operator leg is {leg.sys!r}"
            )
        mapping[leg.id] = wire
    return op.relabeled(mapping)


def resolve_binding(frag: CircuitFragment, binding: Binding) -> list[LabeledOperator]:
    """Return one relabeled operator per operation, in declaration order."""
    bound: list[LabeledOperator] = []
    for decl in frag.ops:
        if decl.name not in binding:
            raise UnboundOperationError(f"no operator bound to {decl.name!r}")
        bound.append(relabel_to_decl(binding[decl.name], decl))
    return bound
