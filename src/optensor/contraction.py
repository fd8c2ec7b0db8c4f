"""Circuit-trace contraction of labeled operators.

A repeated wire id joins an output leg to an input leg; contracting it
multiplies the two operators in that subsystem and partial-traces it out.
A raw operand list is validated as a circuit fragment.  Execution follows
a pairwise plan; any valid plan yields the same result.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .binding import bind_names
from .errors import NotApplicableError
from .notation import INPUT, InternalWire, OperationDecl, WireLabel, fragment_from_ops
from .operators import LabeledOperator, Leg, scalar_operator


class PlanStep(NamedTuple):
    """One pairwise contraction: operands by index, wire ids contracted, produced size.

    ``recipe`` is ``(pa, sa, pb, sb, shape, perm)``, the arguments that
    ``np.tensordot`` would work out for the step on tensors with one ket then
    one bra axis per leg: the step is :func:`_run_step`, i.e.
    ``dot(left.transpose(pa).reshape(sa), right.transpose(pb).reshape(sb))``
    reshaped to ``shape`` and transposed by ``perm``.
    """

    left: int
    right: int
    over: tuple[int, ...]
    result_dim: int
    result_index: int
    recipe: tuple


class WireTypes(NamedTuple):
    """An operand's legs without their wire ids: system types, roles and dims, in leg order."""

    sys: tuple[str, ...]
    roles: tuple[str, ...]
    dims: tuple[int, ...]

    @classmethod
    def of(cls, legs: Sequence[Leg]) -> WireTypes:
        return cls(
            tuple(leg.sys for leg in legs),
            tuple(leg.role for leg in legs),
            tuple(leg.dim for leg in legs),
        )


@dataclass(frozen=True)
class ContractionPlan:
    """An ordered pairwise plan over an operand list.

    ``peak_dim`` is the largest total dimension any produced intermediate
    reaches while executing the steps.  The operands the plan was built for
    are recorded as tables: ``operand_wires`` holds each operand's wire ids
    and ``operand_types`` its :class:`WireTypes`, both in leg order.
    ``result_legs`` are the legs of the result, the open wires ordered as
    they first appear in the operand scan; no other leg is built.
    """

    steps: tuple[PlanStep, ...]
    peak_dim: int
    operand_wires: tuple[tuple[int, ...], ...]
    operand_types: tuple[WireTypes, ...]
    result_legs: tuple[Leg, ...]

    def dump(self) -> str:
        """One line per step, each contracted wire written as ``sys`` then id."""
        sys_of = {
            w: sys
            for wires, types in zip(self.operand_wires, self.operand_types)
            for w, sys in zip(wires, types.sys)
        }
        lines = []
        for left, right, over, dim, _, _ in self.steps:
            wires = " ".join(f"{sys_of[w]}{w}" for w in over)
            lines.append(f"contract {left} {right} over [{wires}] -> dim {dim}")
        return "\n".join(lines)


def _raw_fragment(ops: Sequence[LabeledOperator]) -> tuple[list, list, tuple[InternalWire, ...]]:
    """Validate ``ops`` as a fragment: each operand's wire ids and wire types,
    in leg order, and the fragment's internal wires.

    Operation ``#i`` has ``ops[i]``'s input and output legs as its ports, in
    leg order, and is bound to ``ops[i]``: :func:`notation.fragment_from_ops`
    checks the wiring and :func:`binding.bind_names` the wire dimensions.
    """
    decls = []
    for i, op in enumerate(ops):
        ins, outs = [], []
        for leg in op.legs:
            (ins if leg.role == INPUT else outs).append(WireLabel(leg.sys, leg.id))
        decls.append(OperationDecl(f"#{i}", tuple(ins), tuple(outs)))
    frag = fragment_from_ops(decls)
    _, wires, _ = bind_names(frag, {decl.name: op for decl, op in zip(decls, ops)})
    return wires, [WireTypes.of(op.legs) for op in ops], frag.internal_wires


def contract_pair(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Contract all wire ids shared by two operators (tensor product if none).

    A one-step plan: each shared wire multiplies the operators in its
    subsystem, which is then traced out.  Surviving legs are ``a``'s
    followed by ``b``'s.
    """
    return execute_plan([a, b], plan_left_to_right([a, b]))


class _PlanBuilder:
    """Records a plan's steps, with their recipes, as operand pairs are chosen.

    It works on integer tables: ``wires_of`` maps each live operand to its
    wire ids in leg order, ``dims_of`` to their dimensions, and ``size_of``
    to its total dimension.
    """

    def __init__(self, wires: Sequence[tuple[int, ...]], types: Sequence[WireTypes]):
        self.operand_wires = tuple(wires)
        self.operand_types = tuple(types)
        self.n_operands = len(self.operand_wires)
        self.wires_of = dict(enumerate(self.operand_wires))
        self.dims_of = {i: t.dims for i, t in enumerate(self.operand_types)}
        self.size_of = {i: math.prod(dims) for i, dims in self.dims_of.items()}
        self.rows: list[tuple] = []
        self.peak = max(self.size_of.values(), default=1)

    def contract(self, i: int, j: int) -> int:
        """Append the step joining live operands ``i`` and ``j``; return its index.

        Shared wires are listed in the left operand's leg order; surviving
        legs are the left operand's followed by the right operand's.  On each
        shared wire the left operand's ket axis meets the right operand's bra
        axis and vice versa: a producer's ket is its consumer's bra.  The
        recipe holds what ``np.tensordot`` would compute on each call: both
        operands' transposes (kept axes and contracted axes apart, in
        tensordot's order) and 2-D shapes, the product's shape, and the
        permutation from tensordot's axis order (the left's kept kets then
        bras, then the right's) to kets then bras.
        """
        left, right = self.wires_of.pop(i), self.wires_of.pop(j)
        left_dims, right_dims = self.dims_of.pop(i), self.dims_of.pop(j)
        nl, nr = len(left), len(right)
        # one pass over each operand: ket and bra axes kept and contracted,
        # the kept wires and their dims, the kept and contracted sizes
        kets_a, bras_a, sum_kets_a, sum_bras_a = [], [], [], []
        kets_b, bras_b, sum_kets_b, sum_bras_b = [], [], [], []
        over, wires, dims_a, dims_b = [], [], [], []
        inner = size_a = size_b = 1
        for a, (w, d) in enumerate(zip(left, left_dims)):
            if w in right:
                b = right.index(w)
                sum_kets_a.append(a)
                sum_bras_a.append(nl + a)
                sum_kets_b.append(b)
                sum_bras_b.append(nr + b)
                over.append(w)
                inner *= d
            else:
                kets_a.append(a)
                bras_a.append(nl + a)
                wires.append(w)
                dims_a.append(d)
                size_a *= d
        for b, (w, d) in enumerate(zip(right, right_dims)):
            if w not in left:
                kets_b.append(b)
                bras_b.append(nr + b)
                wires.append(w)
                dims_b.append(d)
                size_b *= d
        pa = (*kets_a, *bras_a, *sum_kets_a, *sum_bras_a)
        pb = (*sum_bras_b, *sum_kets_b, *kets_b, *bras_b)
        p, n = len(kets_a), len(wires)
        perm = (*range(p), *range(2 * p, p + n), *range(p, 2 * p), *range(p + n, 2 * n))
        sa, sb = (size_a * size_a, inner * inner), (inner * inner, size_b * size_b)
        recipe = (pa, sa, pb, sb, (*dims_a, *dims_a, *dims_b, *dims_b), perm)
        dim = size_a * size_b
        k = self.n_operands + len(self.rows)
        self.rows.append((i, j, tuple(over), dim, k, recipe))
        self.wires_of[k] = tuple(wires)
        self.dims_of[k] = (*dims_a, *dims_b)
        self.size_of[k] = dim
        self.peak = max(self.peak, dim)
        return k

    def plan(self) -> ContractionPlan:
        """The plan, its last step reordering the result's legs to operand-scan order.

        Legs are built for the open wires only, from their operands' wire types.
        """
        (final,) = self.wires_of.values() or [()]
        result_legs = ()
        if final:
            result_legs = tuple(
                Leg(types.sys[p], w, types.roles[p], types.dims[p])
                for wires, types in zip(self.operand_wires, self.operand_types)
                for p, w in enumerate(wires)
                if w in final
            )
            if self.rows:
                order = [final.index(leg.id) for leg in result_legs]
                *row, (pa, sa, pb, sb, shape, perm) = self.rows[-1]
                perm = tuple(perm[n] for n in order + [len(final) + n for n in order])
                self.rows[-1] = (*row, (pa, sa, pb, sb, shape, perm))
        return ContractionPlan(
            tuple(map(PlanStep._make, self.rows)), self.peak, self.operand_wires,
            self.operand_types, result_legs,
        )


def plan_contraction(ops: Sequence[LabeledOperator]) -> ContractionPlan:
    """Greedy pairwise plan: always contract the sharing pair whose product
    has the smallest total dimension; ties go to the lowest operand indices,
    i.e. the least ``(result_dim, left, right)`` with ``left < right``.

    Disjoint groups are never contracted against each other until the final
    tensor-product steps that assemble the single result.

    Candidate pairs sit in a heap and are discarded lazily once an operand is
    consumed.  A pair's key depends only on its two operands, and a produced
    operand's index exceeds every live index, so the first live pair popped
    is the minimum over all live sharing pairs.  Planning costs O(E log E),
    where E is the number of wire-adjacent operand pairs pushed.
    """
    return _plan_greedy(*_raw_fragment(ops))


def _plan_greedy(
    wires: Sequence[tuple[int, ...]], types: Sequence[WireTypes], internal: Sequence[InternalWire]
) -> ContractionPlan:
    """:func:`plan_contraction` on validated wiring, given as tables: each
    operand's wire ids and wire types in leg order, and the internal wires
    of its fragment, which join operands by their indices."""
    ends = {w.label.id: [w.producer, w.consumer] for w in internal}  # the two live operands
    builder = _PlanBuilder(wires, types)
    wires_of, dims_of, size_of = builder.wires_of, builder.dims_of, builder.size_of

    def candidate(i: int, j: int) -> tuple[int, int, int]:
        # each shared wire leaves both operands: the product loses d twice
        wires_j, shared = wires_of[j], 1
        for w, d in zip(wires_of[i], dims_of[i]):
            if w in wires_j:
                shared *= d
        return size_of[i] * size_of[j] // (shared * shared), i, j

    pairs = {(min(holders), max(holders)) for holders in ends.values()}
    heap = [candidate(i, j) for i, j in pairs]
    heapq.heapify(heap)
    while heap:
        _, i, j = heapq.heappop(heap)
        if i not in wires_of or j not in wires_of:
            continue
        k = builder.contract(i, j)
        neighbours = set()
        for w in wires_of[k]:
            holders = ends.get(w)
            if holders:  # the wire still joins k to another live operand
                m = holders[1] if holders[0] in (i, j) else holders[0]
                ends[w] = [m, k]
                neighbours.add(m)
        for m in neighbours:
            heapq.heappush(heap, candidate(m, k))

    remaining = sorted(wires_of)
    while len(remaining) > 1:
        remaining = [builder.contract(remaining[0], remaining[1])] + remaining[2:]
    return builder.plan()


def plan_left_to_right(ops: Sequence[LabeledOperator]) -> ContractionPlan:
    """Sequential fold plan, used to cross-check plan independence."""
    wires, types, _ = _raw_fragment(ops)
    builder = _PlanBuilder(wires, types)
    acc = 0
    for j in range(1, len(ops)):
        acc = builder.contract(acc, j)
    return builder.plan()


def _run_step(recipe: tuple, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One plan step on raw tensors: ``np.tensordot``'s own calls, then the permutation."""
    pa, sa, pb, sb, shape, perm = recipe
    product = np.dot(a.transpose(pa).reshape(sa), b.transpose(pb).reshape(sb))
    return product.reshape(shape).transpose(perm)


def execute_plan(ops: Sequence[LabeledOperator], plan: ContractionPlan) -> LabeledOperator:
    """Run a plan's steps on the operators' tensors and wrap only the result as an operator.

    Raises ValueError unless ``ops`` carry the wire ids and wire types the
    plan was built for; the steps are :func:`_run_plan`'s.
    """
    tables = tuple(op.ids for op in ops), tuple(WireTypes.of(op.legs) for op in ops)
    if tables != (plan.operand_wires, plan.operand_types):
        raise ValueError("plan was built for operands with other legs")
    return _run_plan([op.tensor() for op in ops], plan)


def _run_plan(tensors: list[np.ndarray], plan: ContractionPlan) -> LabeledOperator:
    """The step loop: ``tensors`` holds one array per operand, shaped as the plan records.

    Each step is :func:`_run_step` on its recipe: two transposes and
    reshapes, one ``np.dot`` (BLAS), and a reshape and transpose of the
    product; that is the sequence ``np.tensordot`` runs, without its
    per-call argument handling, so the values are the same bit for bit.
    Operands may share an array: nothing is written to them.
    Intermediates are neither checked nor symmetrized: contracting two
    Hermitian operators over the wires they share gives a Hermitian one in
    exact arithmetic.  The result is built once with the full constructor
    check, relative to its largest entry above unit scale, so a
    :class:`NonHermitianError` reports the final deviation; its legs are
    ordered as they first appear in the operand scan.  A plan whose
    intermediates cannot be allocated raises :class:`NotApplicableError`.
    """
    if not tensors:
        return scalar_operator(1.0)
    tensors = list(tensors)
    try:
        for left, right, _, _, _, recipe in plan.steps:
            # produced operands are numbered on from the inputs, in step order
            tensors.append(_run_step(recipe, tensors[left], tensors[right]))
            tensors[left] = tensors[right] = None
        dim = math.prod(leg.dim for leg in plan.result_legs)
        return LabeledOperator(plan.result_legs, tensors[-1].reshape(dim, dim))
    except MemoryError as exc:
        raise NotApplicableError(
            f"the contraction plan's peak intermediate has dimension {plan.peak_dim}, "
            f"{16 * plan.peak_dim**2} bytes of complex128, which cannot be allocated"
        ) from exc


def circuit_trace(ops: Sequence[LabeledOperator]) -> LabeledOperator:
    """Contract every repeated wire id across the operand list.

    Returns the operator on the non-repeated legs, ordered as they first
    appear in the operand scan; with no open legs the result is a 1x1 scalar
    operator.
    """
    return execute_plan(ops, plan_contraction(ops))
