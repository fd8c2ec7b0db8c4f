"""Attaching named operators to the operations of a circuit fragment."""

from __future__ import annotations

import itertools
from typing import Mapping

from .errors import DimMismatchError, SignatureMismatchError, UnboundOperationError
from .notation import INPUT, OUTPUT, CircuitFragment, OperationDecl
from .operators import LabeledOperator

Binding = Mapping[str, LabeledOperator]


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
    """Return one operator per operation, in declaration order, on its declaration's wires.

    The reference binding, which builds an operator per operation: the k-th
    input leg of the name's operator moves to input port k, and likewise for
    outputs; the legs keep their order and the matrix is shared.  An unbound
    name raises :class:`UnboundOperationError`, and ports that do not fit the
    legs in count or type raise :class:`SignatureMismatchError`.
    """
    bound: list[LabeledOperator] = []
    for decl in frag.ops:
        if decl.name not in binding:
            raise UnboundOperationError(f"no operator bound to {decl.name!r}")
        op = binding[decl.name]
        ins, outs = op.input_legs, op.output_legs
        if len(ins) != len(decl.inputs) or len(outs) != len(decl.outputs) or any(
            leg.sys != wire.sys for leg, wire in zip(ins + outs, decl.labels)
        ):
            raise _signature_error(op, decl)
        bound.append(op.relabeled({leg.id: wire for leg, wire in zip(ins + outs, decl.labels)}))
    return bound


def bind_names(frag: CircuitFragment, binding: Binding) -> tuple[
    dict[str, LabeledOperator], list[tuple[int, ...]], dict[int, int]
]:
    """Bind each operation by its name, without an operator per operation.

    Returns three tables: each name, in order of first use, to the caller's
    operator; each operation's wire ids in its operator's leg order; and each
    wire's dimension.  Binding builds no leg and no operator.

    Declarations are walked in order and each name is looked up once: an
    unbound name raises :class:`UnboundOperationError`.  A name's operator
    gives its port counts, and its k-th input leg takes input port k, and
    likewise for outputs; every declaration whose ports do not fit the legs
    in count or type raises the :class:`SignatureMismatchError` of
    :func:`resolve_binding`.  A wire whose second end, in operand-scan order,
    has another dimension raises :class:`DimMismatchError` once every
    declaration is bound.
    """
    operators: dict[str, LabeledOperator] = {}
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
            n_in = len(op.input_legs)
            ports = {INPUT: itertools.count(), OUTPUT: itertools.count(n_in)}
            legs = tuple((next(ports[leg.role]), leg.sys, leg.dim) for leg in op.legs)
            entry = legs_of[name] = (n_in, len(legs) - n_in, legs)
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
    return operators, wires, wire_dims
