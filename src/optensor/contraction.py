"""Circuit-trace contraction of labeled operators.

A repeated wire id joins an output leg to an input leg; contracting it
multiplies the two operators in that subsystem and partial-traces it out.
Execution follows a pairwise plan; any valid plan yields the same result.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DimMismatchError, LabelArityError
from .notation import WireLabel
from .operators import LabeledOperator, scalar_operator


@dataclass(frozen=True)
class PlanStep:
    """One pairwise contraction: operands by index, wires contracted, produced size.

    ``recipe`` is ``(axes, perm)``: the step is ``np.tensordot(left, right,
    axes).transpose(perm)`` on tensors with one ket then one bra axis per leg.
    """

    left: int
    right: int
    over: tuple[WireLabel, ...]
    result_dim: int
    result_index: int
    recipe: tuple | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        wires = " ".join(str(w) for w in self.over)
        return f"contract {self.left} {self.right} over [{wires}] -> dim {self.result_dim}"


@dataclass(frozen=True)
class ContractionPlan:
    """An ordered pairwise plan over an operand list.

    ``peak_dim`` is the largest total dimension any produced intermediate
    reaches while executing the steps.  ``operand_legs`` are the legs of the
    operands the plan was built for, and ``result_legs`` the legs of the
    result, ordered as they first appear in the operand scan.
    """

    n_operands: int
    steps: tuple[PlanStep, ...]
    peak_dim: int
    operand_legs: tuple = field(default=(), compare=False, repr=False)
    result_legs: tuple = field(default=(), compare=False, repr=False)

    def dump(self) -> str:
        return "\n".join(str(s) for s in self.steps)


def _wire_ends(ops: Sequence[LabeledOperator]) -> dict[int, list[int]]:
    """Map each wire id to the indices of the operands carrying it.

    This is the one place wiring is validated: a wire id joins at most two
    legs, one output and one input, of the same type and dimension.
    """
    ends: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        for leg in op.legs:
            holders = ends.setdefault(leg.id, [])
            if not holders:
                holders.append(i)
                continue
            if len(holders) >= 2:
                raise LabelArityError(f"wire id {leg.id} appears more than twice")
            first = ops[holders[0]].leg(leg.id)
            if first.role == leg.role:
                raise LabelArityError(f"wire id {leg.id} appears twice as {leg.role}")
            if first.sys != leg.sys or first.dim != leg.dim:
                raise DimMismatchError(
                    f"wire id {leg.id} joins {first.sys}(dim {first.dim}) "
                    f"to {leg.sys}(dim {leg.dim})"
                )
            holders.append(i)
    return ends


def contract_pair(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Contract all wire ids shared by two operators (tensor product if none).

    A one-step plan: each shared wire multiplies the operators in its
    subsystem, which is then traced out.  Surviving legs are ``a``'s
    followed by ``b``'s.
    """
    return execute_plan([a, b], plan_left_to_right([a, b]))


class _PlanBuilder:
    """Records the steps of a plan, with their recipes, as operand pairs are chosen."""

    def __init__(self, ops: Sequence[LabeledOperator]):
        self.n_operands = len(ops)
        self.operand_legs = tuple(op.legs for op in ops)
        self.legs_of: dict[int, tuple] = dict(enumerate(self.operand_legs))
        self.steps: list[PlanStep] = []
        self.peak = max((op.dim for op in ops), default=1)

    def contract(self, i: int, j: int) -> int:
        """Append the step joining live operands ``i`` and ``j``; return its index.

        Shared wires are listed in the left operand's leg order; surviving
        legs are the left operand's followed by the right operand's.  On each
        shared wire the left operand's ket axis meets the right operand's bra
        axis and vice versa: a producer's ket is its consumer's bra.
        """
        left, right = self.legs_of.pop(i), self.legs_of.pop(j)
        at_right = {leg.id: b for b, leg in enumerate(right)}
        ids_left = {leg.id for leg in left}
        shared_left = [a for a, leg in enumerate(left) if leg.id in at_right]
        shared_right = [at_right[left[a].id] for a in shared_left]
        axes = (
            shared_left + [len(left) + a for a in shared_left],
            [len(right) + b for b in shared_right] + shared_right,
        )
        legs = tuple(leg for leg in left if leg.id not in at_right) + tuple(
            leg for leg in right if leg.id not in ids_left
        )
        # tensordot leaves the left's kept kets then bras, then the right's
        p, n = len(left) - len(shared_left), len(legs)
        perm = (*range(p), *range(2 * p, p + n), *range(p, 2 * p), *range(p + n, 2 * n))
        dim = math.prod(leg.dim for leg in legs)
        k = self.n_operands + len(self.steps)
        over = tuple(left[a].wire for a in shared_left)
        self.steps.append(PlanStep(i, j, over, dim, k, (axes, perm)))
        self.legs_of[k] = legs
        self.peak = max(self.peak, dim)
        return k

    def plan(self) -> ContractionPlan:
        """The plan, its last step reordering the result's legs to operand-scan order."""
        (final,) = self.legs_of.values() or [()]
        result_legs = tuple(leg for legs in self.operand_legs for leg in legs if leg in final)
        if self.steps:
            order = [final.index(leg) for leg in result_legs]
            axes, perm = self.steps[-1].recipe
            perm = tuple(perm[n] for n in order + [len(final) + n for n in order])
            self.steps[-1] = replace(self.steps[-1], recipe=(axes, perm))
        return ContractionPlan(
            self.n_operands, tuple(self.steps), self.peak, self.operand_legs, result_legs
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
    ends = _wire_ends(ops)
    builder = _PlanBuilder(ops)
    legs_of = builder.legs_of
    dims_of = {i: {leg.id: leg.dim for leg in legs} for i, legs in legs_of.items()}
    size_of = {i: math.prod(dims.values()) for i, dims in dims_of.items()}

    def candidate(i: int, j: int) -> tuple[int, int, int]:
        # each shared wire leaves both operands: the product loses d twice
        dims_i, dims_j = dims_of[i], dims_of[j]
        shared = math.prod(d * d for w, d in dims_i.items() if w in dims_j)
        return size_of[i] * size_of[j] // shared, i, j

    pairs = {tuple(holders) for holders in ends.values() if len(holders) == 2}
    heap = [candidate(i, j) for i, j in pairs]
    heapq.heapify(heap)
    while heap:
        _, i, j = heapq.heappop(heap)
        if i not in legs_of or j not in legs_of:
            continue
        k = builder.contract(i, j)
        dims_of[k] = {leg.id: leg.dim for leg in legs_of[k]}
        size_of[k] = builder.steps[-1].result_dim
        neighbours = set()
        for leg in legs_of[k]:
            holders = ends[leg.id] = [k if h in (i, j) else h for h in ends[leg.id]]
            neighbours.update(h for h in holders if h != k)
        for m in neighbours:
            heapq.heappush(heap, candidate(m, k))

    remaining = sorted(legs_of)
    while len(remaining) > 1:
        remaining = [builder.contract(remaining[0], remaining[1])] + remaining[2:]
    return builder.plan()


def plan_left_to_right(ops: Sequence[LabeledOperator]) -> ContractionPlan:
    """Sequential fold plan, used to cross-check plan independence."""
    _wire_ends(ops)
    builder = _PlanBuilder(ops)
    acc = 0
    for j in range(1, len(ops)):
        acc = builder.contract(acc, j)
    return builder.plan()


def execute_plan(ops: Sequence[LabeledOperator], plan: ContractionPlan) -> LabeledOperator:
    """Run a plan on raw tensors and wrap only the result as an operator.

    Each step is its recipe: one ``tensordot`` and one ``transpose``.
    Intermediates are neither checked nor symmetrized: contracting two
    Hermitian operators over the wires they share gives a Hermitian one in
    exact arithmetic.  The result is built once with the full constructor
    check at the operands' smallest ``tol``, so :class:`NonHermitianError`
    reports the final deviation, and its legs are ordered as they first
    appear in the operand scan.  Raises ValueError unless ``ops`` carry the
    legs the plan was built for.
    """
    if tuple(op.legs for op in ops) != plan.operand_legs:
        raise ValueError("plan was built for operands with other legs")
    if not ops:
        return scalar_operator(1.0)
    tensors = {i: op.tensor() for i, op in enumerate(ops)}
    for step in plan.steps:
        axes, perm = step.recipe
        product = np.tensordot(tensors.pop(step.left), tensors.pop(step.right), axes)
        tensors[step.result_index] = product.transpose(perm)
    (tensor,) = tensors.values()
    dim = math.prod(leg.dim for leg in plan.result_legs)
    return LabeledOperator(plan.result_legs, tensor.reshape(dim, dim), min(op.tol for op in ops))


def circuit_trace(ops: Sequence[LabeledOperator]) -> LabeledOperator:
    """Contract every repeated wire id across the operand list.

    Returns the operator on the non-repeated legs, ordered as they first
    appear in the operand scan; with no open legs the result is a 1x1 scalar
    operator.
    """
    return execute_plan(ops, plan_contraction(ops))
