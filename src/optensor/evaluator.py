"""Circuit evaluation by both formulations, fragment operators, linear
combinations of circuits, and the formalism-locality proportionality test.

``probability`` contracts bound operators directly (one circuit trace);
``probability_foliated`` layers the circuit and evolves an unnormalized
state through each time step, closing with the result operators.  The two
must agree on every circuit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .binding import Binding, resolve_binding
from .contraction import _pair_contract, circuit_trace
from .errors import (
    NonCircuitTermError,
    PhysicalityWarning,
    SignatureMismatchError,
    ZeroFragmentError,
)
from .notation import CIRCUIT, CircuitFragment, causal_structure, foliate
from .operators import LabeledOperator
from .physicality import input_transpose, is_physical


def _warn_nonphysical(frag: CircuitFragment, bound: list[LabeledOperator], eps: float) -> None:
    # Every operation with one name is bound to the same binding entry, and
    # relabeling keeps its leg order and matrix, so the name's first
    # operator stands for all of them.
    reports = {}
    for decl, op in zip(frag.ops, bound):
        report = reports.get(decl.name)
        if report is None:
            report = reports[decl.name] = is_physical(op, eps)
        if not report.physical:
            warnings.warn(
                f"operator bound to {decl.name!r} is not physical "
                f"(min eig {report.input_transpose_min_eig:.3e}, "
                f"trace excess {report.output_trace_excess:.3e})",
                PhysicalityWarning,
                stacklevel=3,
            )


def probability(
    circuit: CircuitFragment,
    binding: Binding,
    eps: float = 1e-9,
    check_physical: bool = True,
) -> float:
    """Probability of a closed circuit: the circuit trace of its bound operators.

    Non-physical bindings are evaluated anyway but emit a
    :class:`PhysicalityWarning`.
    """
    if circuit.kind != CIRCUIT:
        raise NonCircuitTermError(f"fragment has open ports (kind={circuit.kind})")
    bound = resolve_binding(circuit, binding)
    if check_physical:
        _warn_nonphysical(circuit, bound, eps)
    return circuit_trace(bound).scalar


def probability_foliated(
    circuit: CircuitFragment,
    binding: Binding,
    policy: str = "earliest",
    eps: float = 1e-9,
    check_physical: bool = True,
) -> float:
    """Probability via the layered state-evolution calculation.

    Each transformation acts through the completely positive map read off
    its input transpose (its Choi matrix); the running state is never
    renormalized, so dropped weight carries the outcome probabilities.
    Wires crossing a layer are carried through untouched, which realizes the
    identity padding.
    """
    if circuit.kind != CIRCUIT:
        raise NonCircuitTermError(f"fragment has open ports (kind={circuit.kind})")
    bound = resolve_binding(circuit, binding)
    if check_physical:
        _warn_nonphysical(circuit, bound, eps)
    fol = foliate(circuit, policy)

    # Relabeling keeps leg order and matrix (see _warn_nonphysical), so one
    # Choi tensor serves every operation with a given name.
    chois: dict[str, np.ndarray] = {}
    live: list[int] = []  # wire ids carried by the state, in axis order
    state = np.array(1.0 + 0.0j)  # axes: kets of live wires, then bras
    for layer in fol.layers:
        for op_index in layer:
            decl = circuit.ops[op_index]
            in_ids = [w.id for w in decl.inputs]
            choi = chois.get(decl.name)
            if choi is None:
                ordered = bound[op_index].permuted(in_ids + [w.id for w in decl.outputs])
                choi = chois[decl.name] = input_transpose(ordered).tensor()
            p = len(in_ids)
            q = len(decl.outputs)
            k = len(live)
            # state axes: 0..k-1 kets, k..2k-1 bras
            state_subs = list(range(2 * k))
            choi_subs = [0] * (2 * (p + q))
            out_new = list(range(2 * k, 2 * k + 2 * q))
            positions = [live.index(i) for i in in_ids]
            for a, pos in enumerate(positions):
                choi_subs[a] = state_subs[pos]              # ket of consumed wire
                choi_subs[p + q + a] = state_subs[k + pos]  # bra of consumed wire
            for b in range(q):
                choi_subs[p + b] = out_new[b]
                choi_subs[p + q + p + b] = out_new[q + b]
            keep = [i for i in range(k) if i not in positions]
            out_subs = (
                [state_subs[i] for i in keep]
                + out_new[:q]
                + [state_subs[k + i] for i in keep]
                + out_new[q:]
            )
            state = _pair_contract(state, state_subs, choi, choi_subs, out_subs)
            live = [live[i] for i in keep] + [w.id for w in decl.outputs]
    if live:
        raise AssertionError("open wires remained after the final layer")
    value = complex(state)
    return float(value.real)


@dataclass(frozen=True)
class CircuitExpression:
    """A real linear combination of fragments with a common open signature."""

    terms: tuple[tuple[float, CircuitFragment], ...]

    def __post_init__(self):
        frags = [frag for _, frag in self.terms]
        if not frags:
            return
        if all(f.kind == CIRCUIT for f in frags):
            return
        reference = _fragment_signature(frags[0])
        for frag in frags[1:]:
            if _fragment_signature(frag) != reference:
                raise SignatureMismatchError(
                    "terms must share open ports and causal structure"
                )


def _fragment_signature(frag: CircuitFragment):
    return (
        frozenset(frag.open_inputs),
        frozenset(frag.open_outputs),
        causal_structure(frag).open_pairs(),
    )


def p_function(expr: CircuitExpression, binding: Binding, **kwargs) -> float:
    """Linear extension of probability to sums of circuits."""
    for _, frag in expr.terms:
        if frag.kind != CIRCUIT:
            raise NonCircuitTermError(
                f"term has open ports (kind={frag.kind}); only circuits carry probabilities"
            )
    return sum(
        coeff * probability(frag, binding, **kwargs) for coeff, frag in expr.terms
    )


def fragment_operator(frag: CircuitFragment, binding: Binding) -> LabeledOperator:
    """Contract internal wires only; the open ports remain as legs."""
    return circuit_trace(resolve_binding(frag, binding))


def formalism_locality_ratio(
    frag_a: CircuitFragment,
    frag_b: CircuitFragment,
    binding: Binding,
    eps: float = 1e-8,
) -> float | None:
    """Proportionality constant between two fragment operators, if one exists.

    When ``A = r B`` within ``eps`` (max entry, relative to ``A``), any
    completion of the two fragments into circuits has probability ratio
    ``r``; otherwise no ratio is defined and None is returned.
    """
    op_a = fragment_operator(frag_a, binding)
    op_b = fragment_operator(frag_b, binding)
    if sorted(op_a.ids) != sorted(op_b.ids):
        raise SignatureMismatchError("fragments expose different open ports")
    op_b = op_b.permuted(op_a.ids)
    if op_a.legs != op_b.legs:
        raise SignatureMismatchError("fragments expose different open ports")
    norm_b = float(np.max(np.abs(op_b.matrix)))
    if norm_b == 0.0:
        raise ZeroFragmentError("reference fragment operator is zero")
    overlap = float(np.sum(op_b.matrix.conj() * op_a.matrix).real)
    ratio = overlap / float(np.sum(np.abs(op_b.matrix) ** 2))
    residual = float(np.max(np.abs(op_a.matrix - ratio * op_b.matrix)))
    scale = max(1.0, float(np.max(np.abs(op_a.matrix))))
    if residual > eps * scale:
        return None
    return ratio
