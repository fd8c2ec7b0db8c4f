"""Circuit-trace contraction and the greedy planner.

The convention anchor: a prep -> channel -> result circuit must equal the
Kraus evolution of the density matrix computed entirely outside the
contraction machinery.
"""

import heapq
import math
from typing import Sequence

import numpy as np
import pytest
from conftest import (
    capped_only,
    count_calls,
    mixed_circuits,
    pair_contract,
    random_brickwork,
    random_circuit,
    random_dag,
    random_open_fragment,
    run_capped,
)

import optensor as ot
from optensor import (
    LabeledOperator,
    Leg,
    WireLabel,
    binding as binding_module,
    contraction,
    evaluator,
    notation,
    physicality,
)
from optensor.binding import resolve_binding
from optensor.contraction import ContractionPlan, _run_step
from optensor.errors import DimMismatchError, OneWireViolation, TypeMismatch
from optensor.notation import INPUT, OUTPUT

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def prep(wid, matrix, sys="a"):
    matrix = np.asarray(matrix, dtype=complex)
    return LabeledOperator((Leg(sys, wid, OUTPUT, matrix.shape[0]),), matrix)


def result(wid, matrix, sys="a"):
    matrix = np.asarray(matrix, dtype=complex)
    return LabeledOperator((Leg(sys, wid, INPUT, matrix.shape[0]),), matrix)


def test_matched_rank_one_pair():
    assert ot.circuit_trace([prep(1, P0), result(1, P0)]).scalar == pytest.approx(1.0)


def test_orthogonal_through_identity_channel():
    swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
    value = ot.circuit_trace([prep(1, P0), swap, result(2, P1)])
    assert value.scalar == pytest.approx(0.0, abs=1e-14)


def test_kraus_evolution_oracle(rng):
    """Pins where the transpose sits: value == sum_K Tr[R K rho K^dag]."""
    for _ in range(20):
        rho = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
        kraus = ot.random_kraus_set(2, 3, rng, trace_preserving=bool(rng.integers(2)))
        chan = ot.operator_from_kraus(
            kraus, [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)]
        )
        meas = ot.random_result([Leg("b", 2, INPUT, 3)], rng)
        value = ot.circuit_trace([rho, chan, meas]).scalar
        oracle = sum(
            np.trace(meas.matrix @ K @ rho.matrix @ K.conj().T) for K in kraus
        ).real
        assert abs(value - oracle) < 1e-12


def test_trace_preserving_channel_with_identity_result(rng):
    rho = ot.random_preparation([Leg("a", 1, OUTPUT, 3)], rng)
    chan = ot.random_physical_transformation(
        [Leg("a", 1, INPUT, 3)], [Leg("a", 2, OUTPUT, 3)], rng, trace_preserving=True
    )
    value = ot.circuit_trace([rho, chan, ot.identity_result(WireLabel("a", 2), 3)])
    assert abs(value.scalar - np.trace(rho.matrix).real) < 1e-10


def test_open_contraction_leaves_labels(rng):
    rho = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
    chan = ot.random_physical_transformation(
        [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)], rng
    )
    composed = ot.circuit_trace([rho, chan])
    assert [l.id for l in composed.legs] == [2]
    assert composed.legs[0].role == OUTPUT
    # composed preparation equals the channel applied to rho
    kraus_free = ot.input_transpose(chan).matrix  # Choi on (in, out)
    choi = kraus_free.reshape(2, 3, 2, 3)
    evolved = np.einsum("xy,xoyp->op", rho.matrix, choi)
    assert np.max(np.abs(composed.matrix - evolved)) < 1e-12


def test_one_wire_violations():
    with pytest.raises(ot.OneWireViolation):
        ot.circuit_trace([prep(1, P0), prep(1, P0)])
    with pytest.raises(ot.OneWireViolation):
        ot.circuit_trace([prep(1, P0), result(1, P0), result(1, P0)])


def test_dim_mismatch():
    with pytest.raises(ot.DimMismatchError):
        ot.circuit_trace([prep(1, np.eye(2) / 2), result(1, np.eye(3) / 3)])


def channel(in_id, out_id):
    return ot.identity_transformation(WireLabel("a", in_id), WireLabel("a", out_id), 2)


class TestRouteAgreement:
    """Every raw-list route raises the error that ``parse_circuit`` raises on
    the same wiring written as text, where operation ``Op<i>`` is operand ``#i``."""

    @pytest.mark.parametrize(
        "ops, text, error",
        [
            (
                [prep(1, P0), result(1, P0), result(1, P0)],
                "Op0^{a1} Op1_{a1} Op2_{a1}",
                ot.OneWireViolation,
            ),
            ([prep(1, P0), prep(1, P0)], "Op0^{a1} Op1^{a1}", ot.OneWireViolation),
            ([result(1, P0), result(1, P0)], "Op0_{a1} Op1_{a1}", ot.OneWireViolation),
            ([prep(1, P0), result(1, P0, sys="b")], "Op0^{a1} Op1_{b1}", ot.TypeMismatch),
            # without the loop check, two identity channels in a loop trace to 4.0
            ([channel(1, 2), channel(2, 1)], "Op0_{a1}^{a2} Op1_{a2}^{a1}", ot.ClosedLoop),
            (
                [channel(1, 2), channel(2, 3), channel(3, 1)],
                "Op0_{a1}^{a2} Op1_{a2}^{a3} Op2_{a3}^{a1}",
                ot.ClosedLoop,
            ),
        ],
    )
    def test_miswiring_raises_the_parsers_error(self, ops, text, error):
        with pytest.raises(error) as parsed:
            ot.parse_circuit(text)
        routes = [ot.plan_contraction, ot.plan_left_to_right, ot.circuit_trace]
        if len(ops) == 2:
            routes.append(lambda ops: ot.contract_pair(*ops))
        for route in routes:
            with pytest.raises(error) as caught:
                route(ops)
            assert type(caught.value) is type(parsed.value)
            assert str(caught.value).replace("#", "Op") == str(parsed.value)

    def test_dimension_mismatch_raises_the_binders_error(self):
        ops = [prep(1, np.eye(2) / 2), result(1, np.eye(3) / 3)]
        frag, binding = ot.parse_circuit("P^{a1} R_{a1}"), dict(zip("PR", ops))
        routes = [
            ot.plan_contraction, ot.plan_left_to_right, ot.circuit_trace,
            lambda ops: ot.contract_pair(*ops),
            lambda _: ot.probability(frag, binding),
            lambda _: ot.fragment_operator(frag, binding),
        ]
        for route in routes:
            with pytest.raises(ot.DimMismatchError) as caught:
                route(ops)
            assert str(caught.value) == "wire id 1 joins a(dim 2) to a(dim 3)"


def test_transpose_through_trace_invariance(rng):
    """Partially transposing both ends of a contracted wire changes nothing."""
    for _ in range(10):
        a = ot.random_preparation([Leg("a", 1, OUTPUT, 2), Leg("b", 2, OUTPUT, 3)], rng)
        b = ot.random_physical_transformation(
            [Leg("b", 2, INPUT, 3)], [Leg("c", 3, OUTPUT, 2)], rng
        )
        plain = ot.circuit_trace([a, b])
        flipped = ot.circuit_trace(
            [ot.partial_transpose(a, [2]), ot.partial_transpose(b, [2])]
        )
        assert np.max(np.abs(plain.matrix - flipped.permuted(plain.ids).matrix)) < 1e-12


class TestPlanner:
    def test_single_operand_empty_plan(self, rng):
        op = ot.random_preparation([Leg("a", 1, OUTPUT, 2), Leg("b", 2, OUTPUT, 3)], rng)
        plan = ot.plan_contraction([op])
        assert plan.steps == ()
        assert plan.peak_dim == 6

    def test_chain_of_twelve_qubit_ops_stays_small(self, rng):
        ops = [ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)]
        for k in range(1, 11):
            ops.append(
                ot.random_physical_transformation(
                    [Leg("a", k, INPUT, 2)], [Leg("a", k + 1, OUTPUT, 2)], rng
                )
            )
        ops.append(ot.random_result([Leg("a", 11, INPUT, 2)], rng))
        plan = ot.plan_contraction(ops)
        assert plan.peak_dim <= 16
        value = ot.execute_plan(ops, plan)
        assert -1e-10 <= value.scalar <= 1 + 1e-10

    def test_disjoint_circuits_never_cross(self, rng):
        left = [prep(1, P0), result(1, P0)]
        right = [prep(2, np.eye(3) / 3, sys="b"), result(2, np.eye(3), sys="b")]
        plan = ot.plan_contraction(left + right)
        crossing = [
            s for s in plan.steps if s.over and {s.left, s.right} & {0, 1} and {s.left, s.right} & {2, 3}
        ]
        assert crossing == []
        joint = ot.circuit_trace(left + right).scalar
        separate = ot.circuit_trace(left).scalar * ot.circuit_trace(right).scalar
        assert abs(joint - separate) < 1e-12

    def test_plan_dump_format(self):
        swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        plan = ot.plan_contraction([prep(1, P0), swap, result(2, P1)])
        lines = plan.dump().splitlines()
        assert lines[0].startswith("contract ")
        assert "over [a1]" in plan.dump() or "over [a2]" in plan.dump()
        assert all("-> dim" in line for line in lines)

    def test_multi_step_dump_is_pinned(self):
        """Qubit (a) and qutrit (b) wires, ending in a tensor-product step."""
        frag, binding = mixed_circuits(np.random.default_rng(0))[4]
        assert str(frag) == (
            "Op0^{b1 b2} Op1_{b1}^{b3 a4} Op2_{b3 a4} Op3_{b2}^{b5} Op4_{b5}^{a6} "
            "Op5_{a6}^{b7 b8} Op6_{b7 b8}^{a9} Op7_{a9}^{a10 a11} Op8_{a10 a11} S"
        )
        plan = ot.plan_contraction(resolve_binding(frag, binding))
        assert plan.dump() == (
            "contract 7 8 over [a10 a11] -> dim 2\n"
            "contract 1 2 over [b3 a4] -> dim 3\n"
            "contract 0 11 over [b1] -> dim 3\n"
            "contract 3 12 over [b2] -> dim 3\n"
            "contract 4 13 over [b5] -> dim 2\n"
            "contract 5 6 over [b7 b8] -> dim 4\n"
            "contract 10 15 over [a9] -> dim 2\n"
            "contract 14 16 over [a6] -> dim 1\n"
            "contract 9 17 over [] -> dim 1"
        )
        assert plan.peak_dim == 18

    def test_greedy_matches_left_to_right(self, rng):
        for _ in range(15):
            frag, binding = random_circuit(rng, max_ops=7)
            ops = resolve_binding(frag, binding)
            greedy = ot.circuit_trace(ops).scalar
            sequential = ot.execute_plan(ops, ot.plan_left_to_right(ops)).scalar
            assert abs(greedy - sequential) < 1e-10

    def test_empty_operand_list(self):
        assert ot.circuit_trace([]).scalar == 1.0


def test_result_label_order_is_first_appearance(rng):
    a = ot.random_preparation([Leg("a", 5, OUTPUT, 2), Leg("b", 1, OUTPUT, 2)], rng)
    b = ot.random_physical_transformation(
        [Leg("b", 1, INPUT, 2)], [Leg("c", 3, OUTPUT, 2)], rng
    )
    out = ot.circuit_trace([a, b])
    assert out.ids == (5, 3)


# ---------------------------------------------------------------------------
# Plan identity: the heap planner against the planners it replaced.  Both
# references are kept verbatim apart from their names, docstrings and return
# value: each returns its steps as ``(left, right, over, result_dim,
# result_index)`` rows, ``over`` as wire labels, and its peak.  Their wiring
# check is left to the planners under test, which must raise first.


def _reference_greedy(ops: Sequence[LabeledOperator]) -> tuple[tuple, int]:
    """The greedy planner as a full rescan of live pairs each round: O(n^3)."""
    legs_of: dict[int, tuple] = {i: op.legs for i, op in enumerate(ops)}
    steps: list[tuple] = []
    next_index = len(ops)
    peak = max((op.dim for op in ops), default=1)

    def result_of(i: int, j: int) -> tuple[tuple, int, tuple[WireLabel, ...]]:
        ids_j = {leg.id for leg in legs_of[j]}
        ids_i = {leg.id for leg in legs_of[i]}
        over = tuple(leg.wire for leg in legs_of[i] if leg.id in ids_j)
        legs = tuple(l for l in legs_of[i] if l.id not in ids_j) + tuple(
            l for l in legs_of[j] if l.id not in ids_i
        )
        dim = int(np.prod([l.dim for l in legs])) if legs else 1
        return legs, dim, over

    while True:
        active = sorted(legs_of)
        best = None
        for x, i in enumerate(active):
            ids_i = {leg.id for leg in legs_of[i]}
            for j in active[x + 1:]:
                if not any(leg.id in ids_i for leg in legs_of[j]):
                    continue
                _, dim, _ = result_of(i, j)
                key = (dim, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, i, j = best
        legs, dim, over = result_of(i, j)
        steps.append((i, j, over, dim, next_index))
        legs_of[next_index] = legs
        del legs_of[i], legs_of[j]
        peak = max(peak, dim)
        next_index += 1

    remaining = sorted(legs_of)
    while len(remaining) > 1:
        i, j = remaining[0], remaining[1]
        legs = legs_of[i] + legs_of[j]
        dim = int(np.prod([l.dim for l in legs])) if legs else 1
        steps.append((i, j, (), dim, next_index))
        legs_of[next_index] = legs
        del legs_of[i], legs_of[j]
        peak = max(peak, dim)
        remaining = [next_index] + remaining[2:]
        next_index += 1

    return tuple(steps), peak


def _reference_left_to_right(ops: Sequence[LabeledOperator]) -> tuple[tuple, int]:
    """The sequential fold plan as first written."""
    if not ops:
        return (), 1
    legs_of = {i: op.legs for i, op in enumerate(ops)}
    steps: list[tuple] = []
    peak = max(op.dim for op in ops)
    acc = 0
    next_index = len(ops)
    for j in range(1, len(ops)):
        ids_j = {leg.id for leg in legs_of[j]}
        ids_acc = {leg.id for leg in legs_of[acc]}
        over = tuple(l.wire for l in legs_of[acc] if l.id in ids_j)
        legs = tuple(l for l in legs_of[acc] if l.id not in ids_j) + tuple(
            l for l in legs_of[j] if l.id not in ids_acc
        )
        dim = int(np.prod([l.dim for l in legs])) if legs else 1
        steps.append((acc, j, over, dim, next_index))
        legs_of[next_index] = legs
        peak = max(peak, dim)
        acc = next_index
        next_index += 1
    return tuple(steps), peak


def chain(rng, n_ops, dim=2):
    """A qubit (or qudit) chain: preparation, n_ops - 2 channels, result."""
    ops = [ot.random_preparation([Leg("a", 1, OUTPUT, dim)], rng)]
    for k in range(1, n_ops - 1):
        ops.append(
            ot.random_physical_transformation(
                [Leg("a", k, INPUT, dim)], [Leg("a", k + 1, OUTPUT, dim)], rng
            )
        )
    ops.append(ot.random_result([Leg("a", n_ops - 1, INPUT, dim)], rng))
    return ops


def assert_same_plans(ops):
    for planner, reference in (
        (ot.plan_contraction, _reference_greedy),
        (ot.plan_left_to_right, _reference_left_to_right),
    ):
        plan, (steps, peak) = planner(ops), reference(ops)
        assert [step[:5] for step in plan.steps] == [
            (i, j, tuple(w.id for w in over), dim, k) for i, j, over, dim, k in steps
        ]
        assert plan.dump() == "\n".join(
            f"contract {i} {j} over [{' '.join(str(w) for w in over)}] -> dim {dim}"
            for i, j, over, dim, _ in steps
        )
        assert plan.peak_dim == peak
        assert plan == planner(ops)


class TestPlanIdentity:
    def test_random_circuits(self, rng):
        for _ in range(50):
            frag, binding = random_circuit(rng, max_ops=int(rng.integers(4, 21)))
            assert_same_plans(resolve_binding(frag, binding))

    def test_hundred_op_qubit_chain(self, rng):
        assert_same_plans(chain(rng, 100))

    def test_width_three_brickwork(self, rng):
        ops = resolve_binding(*random_brickwork(rng, width=3, depth=8))
        assert_same_plans(ops)
        assert_same_plans(ops[::-1])

    def test_sixty_disjoint_pairs(self):
        ops = [op for k in range(1, 61) for op in (prep(k, P0), result(k, P0))]
        assert_same_plans(ops)
        assert_same_plans(ops[::2] + ops[1::2])

    def test_empty_and_single_operand(self, rng):
        assert_same_plans([])
        assert_same_plans([ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)])

    @pytest.mark.parametrize(
        "ops, error, message",
        [
            (
                [prep(1, P0), result(1, P0), result(1, P0)],
                ot.OneWireViolation,
                "id 1 used 3 times (#0.output, #1.input, #2.input)",
            ),
            ([prep(1, P0), prep(1, P0)], ot.OneWireViolation, "id 1 appears twice as output (#0, #1)"),
            (
                [prep(1, np.eye(2) / 2), result(1, np.eye(3) / 3)],
                ot.DimMismatchError,
                "wire id 1 joins a(dim 2) to a(dim 3)",
            ),
            (
                [prep(1, P0), result(1, P0, sys="b")],
                ot.TypeMismatch,
                "id 1 typed both 'a' and 'b' (#0, #1)",
            ),
        ],
    )
    def test_wiring_errors(self, ops, error, message):
        for planner in (ot.plan_contraction, ot.plan_left_to_right):
            with pytest.raises(error) as caught:
                planner(ops)
            assert str(caught.value) == message


# ---------------------------------------------------------------------------
# The pair-contraction kernel (conftest.pair_contract) against np.einsum on
# the same sublists.  The kernel and the wire-id subscript rule were the
# executor's before each plan step carried its own recipe; both are kept
# verbatim as test references.


def _subscripts(legs: Sequence) -> list[int]:
    """Symbols of an operand's ket axes then bra axes, drawn from wire ids.

    A producer's ket is its consumer's bra and vice versa, so the two
    symbols of a contracted wire appear in both operands and no other
    symbol repeats.
    """
    kets = [2 * leg.id + (leg.role == OUTPUT) for leg in legs]
    bras = [2 * leg.id + (leg.role != OUTPUT) for leg in legs]
    return kets + bras


def einsum_operands(rng, dims, x_syms, y_syms):
    """Random complex operands carrying the given symbols, and an output order."""
    def draw(syms):
        shape = [dims[s] for s in syms]
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    open_syms = [s for s in x_syms + y_syms if (s in x_syms) != (s in y_syms)]
    out = [open_syms[i] for i in rng.permutation(len(open_syms))]
    return draw(x_syms), draw(y_syms), out


def assert_kernel_matches_einsum(x, x_subs, y, y_subs, out):
    got = pair_contract(x, x_subs, y, y_subs, out)
    want = np.einsum(x, x_subs, y, y_subs, out)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestPairKernel:
    def test_random_qubit_qutrit_pairs(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            dims = [int(d) for d in rng.choice([2, 3], size=n)]
            syms = list(rng.permutation(n))
            cut_x, cut_y = sorted(rng.integers(0, n + 1, size=2))
            # x holds syms[:cut_y], y holds syms[cut_x:]; the overlap is shared
            x_syms = [int(s) for s in rng.permutation(syms[:cut_y])]
            y_syms = [int(s) for s in rng.permutation(syms[cut_x:])]
            x, y, out = einsum_operands(rng, dims, x_syms, y_syms)
            assert_kernel_matches_einsum(x, x_syms, y, y_syms, out)

    def test_no_shared_symbols_is_outer_product(self, rng):
        dims = [2, 3, 2, 3]
        x, y, out = einsum_operands(rng, dims, [0, 1], [2, 3])
        assert_kernel_matches_einsum(x, [0, 1], y, [2, 3], out)
        scalar = np.array(2.0 - 1.0j)
        assert_kernel_matches_einsum(scalar, [], y, [2, 3], [3, 2])

    def test_every_symbol_shared_is_scalar(self, rng):
        dims = [3, 2, 3]
        x, y, out = einsum_operands(rng, dims, [0, 1, 2], [2, 0, 1])
        assert out == []
        assert_kernel_matches_einsum(x, [0, 1, 2], y, [2, 0, 1], out)

    def test_non_contiguous_inputs(self, rng):
        dims = [2, 3, 2, 3, 2]
        x, y, out = einsum_operands(rng, dims, [0, 1, 2, 3], [3, 1, 4])
        xt = x.transpose(2, 0, 3, 1)
        yt = y[:, :, ::-1].transpose(1, 2, 0)
        assert not xt.flags.c_contiguous and not yt.flags.c_contiguous
        assert_kernel_matches_einsum(xt, [2, 0, 3, 1], yt, [1, 4, 3], out)


# ---------------------------------------------------------------------------
# Plan execution on raw tensors against the per-step-operator executor it
# replaced.  Both references are kept verbatim apart from their names and
# docstrings, the lazy import of ``scalar_operator``, and the classes and
# texts of the pair's wiring errors, which are now the fragment validator's.


def _reference_contract_pair(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Contract all wire ids shared by two operators (tensor product if none).

    Each shared wire pairs the producer's ket with the consumer's bra and
    vice versa, i.e. the operators are multiplied in the shared subsystem
    which is then traced out.  Surviving legs are ``a``'s followed by ``b``'s.
    """
    b_index = {leg.id: j for j, leg in enumerate(b.legs)}
    shared = [(i, b_index[leg.id]) for i, leg in enumerate(a.legs) if leg.id in b_index]
    for i, j in shared:
        la, lb = a.legs[i], b.legs[j]
        if la.role == lb.role:
            raise OneWireViolation(f"id {la.id} appears twice as {la.role} (#0, #1)")
        if la.sys != lb.sys:
            raise TypeMismatch(f"id {la.id} typed both {la.sys!r} and {lb.sys!r} (#0, #1)")
        if la.dim != lb.dim:
            raise DimMismatchError(
                f"wire id {la.id} joins {la.sys}(dim {la.dim}) to {lb.sys}(dim {lb.dim})"
            )
    ka, kb = len(a.legs), len(b.legs)
    sub_a = list(range(2 * ka))  # leg i: ket i, bra ka+i
    sub_b = list(range(2 * ka, 2 * (ka + kb)))  # leg j: ket 2ka+j, bra 2ka+kb+j
    for i, j in shared:
        sub_b[j] = sub_a[ka + i]  # consumer/producer ket takes partner bra
        sub_b[kb + j] = sub_a[i]  # and bra takes partner ket
    shared_a = {i for i, _ in shared}
    shared_b = {j for _, j in shared}
    open_a = [i for i in range(ka) if i not in shared_a]
    open_b = [j for j in range(kb) if j not in shared_b]
    out = (
        [sub_a[i] for i in open_a]
        + [sub_b[j] for j in open_b]
        + [sub_a[ka + i] for i in open_a]
        + [sub_b[kb + j] for j in open_b]
    )
    raw = pair_contract(a.tensor(), sub_a, b.tensor(), sub_b, out)
    legs = tuple(a.legs[i] for i in open_a) + tuple(b.legs[j] for j in open_b)
    dim = math.prod(leg.dim for leg in legs)
    return LabeledOperator(legs, raw.reshape(dim, dim))


def _reference_execute_plan(
    ops: Sequence[LabeledOperator], plan: ContractionPlan
) -> LabeledOperator:
    """Execution with an operator, checked and symmetrized, at every step."""
    operands: dict[int, LabeledOperator] = dict(enumerate(ops))
    for step in plan.steps:
        left = operands.pop(step.left)
        right = operands.pop(step.right)
        operands[step.result_index] = _reference_contract_pair(left, right)
    if not operands:
        return ot.scalar_operator(1.0)
    if len(operands) != 1:
        raise ValueError("plan did not reduce to a single operand")
    (result,) = operands.values()
    open_ids = set(result.ids)
    open_order = [leg.id for op in ops for leg in op.legs if leg.id in open_ids]
    return result.permuted(open_order)


def executor_cases(rng):
    """Operand lists of closed circuits and of open fragments."""
    cases = [resolve_binding(frag, binding) for frag, binding in mixed_circuits(rng)]
    cases.extend(resolve_binding(*random_open_fragment(rng)) for _ in range(10))
    return cases


def assert_same_operator(got: LabeledOperator, want: LabeledOperator, atol: float):
    assert got.legs == want.legs
    assert np.max(np.abs(got.matrix - want.matrix)) <= atol


class TestRawExecutor:
    def test_matches_per_step_reference(self, rng):
        for ops in executor_cases(rng):
            for planner in (ot.plan_contraction, ot.plan_left_to_right):
                plan = planner(ops)
                got = ot.execute_plan(ops, plan)
                assert_same_operator(got, _reference_execute_plan(ops, plan), 1e-12)

    def test_contract_pair_matches_reference(self, rng):
        for ops in executor_cases(rng):
            for a, b in zip(ops, ops[1:]):
                if set(a.ids) & set(b.ids) or rng.integers(4) == 0:
                    want = _reference_contract_pair(a, b)
                    assert_same_operator(ot.contract_pair(a, b), want, 1e-12)

    @capped_only
    def test_plan_that_cannot_be_allocated_is_not_applicable(self):
        """24 disjoint qubit preparations: the plan's peak has dimension 2**24."""
        child = run_capped(
            "ops = [ot.LabeledOperator((ot.Leg('a', k, 'output', 2),), np.eye(2) / 2)\n"
            "       for k in range(1, 25)]\n"
            "try:\n"
            "    ot.circuit_trace(ops)\n"
            "except ot.NotApplicableError as exc:\n"
            "    print(isinstance(exc.__cause__, MemoryError))\n"
            "    print(exc)\n"
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines() == [
            "True",
            f"the contraction plan's peak intermediate has dimension {2**24}, "
            f"{16 * 4**24} bytes of complex128, which cannot be allocated",
        ]

    def test_non_hermitian_final_result_raises(self, rng):
        # operands built past the constructor check, as a numeric fault would
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        legs = (Leg("a", 1, OUTPUT, 2), Leg("a", 2, OUTPUT, 2))
        faulty = LabeledOperator._from_valid(legs, z)
        with pytest.raises(ot.NonHermitianError, match=r"max \|M - M\^dag\|"):
            ot.circuit_trace([faulty, result(1, np.eye(2))])
        phase = LabeledOperator._from_valid((Leg("a", 1, OUTPUT, 2),), 1j * np.eye(2))
        with pytest.raises(ot.NonHermitianError):
            ot.circuit_trace([phase, result(1, np.eye(2))])

    @pytest.mark.parametrize(
        "a, b, error, message",
        [
            (prep(1, P0), prep(1, P0), OneWireViolation, "id 1 appears twice as output (#0, #1)"),
            (result(1, P0), result(1, P0), OneWireViolation, "id 1 appears twice as input (#0, #1)"),
            (
                prep(1, np.eye(2) / 2),
                result(1, np.eye(3) / 3),
                DimMismatchError,
                "wire id 1 joins a(dim 2) to a(dim 3)",
            ),
            (
                prep(1, P0),
                result(1, P0, sys="b"),
                TypeMismatch,
                "id 1 typed both 'a' and 'b' (#0, #1)",
            ),
        ],
    )
    def test_contract_pair_wiring_errors(self, a, b, error, message):
        for contract in (ot.contract_pair, _reference_contract_pair):
            with pytest.raises(error) as caught:
                contract(a, b)
            assert str(caught.value) == message


# ---------------------------------------------------------------------------
# Each plan step, run by the executor's step code on its recipe, against the
# wire-id subscript rule it replaced.


def _einsum_step(x, x_legs, y, y_legs, legs):
    """One step as ``np.einsum`` under the wire-id subscript rule."""
    x_subs, y_subs, out_subs = _subscripts(x_legs), _subscripts(y_legs), _subscripts(legs)
    compact = {s: n for n, s in enumerate(dict.fromkeys(x_subs + y_subs))}
    return np.einsum(
        x, [compact[s] for s in x_subs],
        y, [compact[s] for s in y_subs],
        [compact[s] for s in out_subs],
    )


class TestPlanRecipe:
    def test_every_step_matches_einsum_under_wire_id_subscripts(self, rng):
        for ops in executor_cases(rng):
            for planner in (ot.plan_contraction, ot.plan_left_to_right):
                plan = planner(ops)
                operands = {i: (op.tensor(), op.legs) for i, op in enumerate(ops)}
                for n, step in enumerate(plan.steps):
                    x, x_legs = operands.pop(step.left)
                    y, y_legs = operands.pop(step.right)
                    ids_x, ids_y = {leg.id for leg in x_legs}, {leg.id for leg in y_legs}
                    legs = tuple(leg for leg in x_legs if leg.id not in ids_y) + tuple(
                        leg for leg in y_legs if leg.id not in ids_x
                    )
                    if n == len(plan.steps) - 1:  # the last step also reorders
                        assert sorted(plan.result_legs, key=str) == sorted(legs, key=str)
                        legs = plan.result_legs
                    got = _run_step(step.recipe, x, y)
                    want = _einsum_step(x, x_legs, y, y_legs, legs)
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
                    operands[step.result_index] = (got, legs)
                ((_, legs),) = operands.values()
                assert legs == plan.result_legs

    def test_result_legs_follow_the_operand_scan(self, rng):
        for ops in executor_cases(rng):
            open_ids = {leg.id for leg in ot.circuit_trace(ops).legs}
            scan = tuple(leg for op in ops for leg in op.legs if leg.id in open_ids)
            assert ot.plan_contraction(ops).result_legs == scan
            assert ot.plan_left_to_right(ops).operand_wires == tuple(op.ids for op in ops)

    def test_plan_for_other_operands_raises(self, rng):
        for ops in executor_cases(rng):
            plan = ot.plan_contraction(ops)
            shift = {leg.id: leg.id + 1000 for op in ops for leg in op.legs}
            others = [ops[:-1], [op.relabeled(shift) for op in ops]]
            if [op.legs for op in ops[::-1]] != [op.legs for op in ops]:
                others.append(ops[::-1])
            for other in others:
                with pytest.raises(ValueError, match="plan was built for operands with other legs"):
                    ot.execute_plan(other, plan)
                ot.execute_plan(other, ot.plan_contraction(other))


# ---------------------------------------------------------------------------
# Growth pinned by counts rather than clocks.


def _spy(monkeypatch, owner, name, weigh=lambda *args: 1) -> list:
    """Patch ``owner.name`` to record ``weigh(*args)`` at each call; return the records."""
    original, records = getattr(owner, name), []

    def spy(*args):
        records.append(weigh(*args))
        return original(*args)

    monkeypatch.setattr(owner, name, spy)
    return records


class TestCounts:
    def test_greedy_steps_and_heap_pushes_grow_linearly(self, monkeypatch):
        pushes = _spy(monkeypatch, heapq, "heappush")
        heaped = _spy(monkeypatch, heapq, "heapify", len)
        for n_ops in (500, 1000, 2000, 4000):
            ops = resolve_binding(*random_dag(np.random.default_rng(7), n_ops, 6))
            pushes.clear()
            heaped.clear()
            plan = ot.plan_contraction(ops)
            assert len(plan.steps) == n_ops - 1
            # 3.18 to 3.36 entries per operation at these sizes
            assert len(pushes) + sum(heaped) < 4 * n_ops

    def test_executor_makes_one_gemm_per_step_and_no_tensordot(self, rng, monkeypatch):
        cases = executor_cases(rng)
        cases.append(resolve_binding(*random_dag(np.random.default_rng(7), 1000, 6)))
        plans = [(ops, planner(ops)) for ops in cases
                 for planner in (ot.plan_contraction, ot.plan_left_to_right)]
        gemms = _spy(monkeypatch, np, "dot")
        tensordots = _spy(monkeypatch, np, "tensordot")
        for ops, plan in plans:
            gemms.clear()
            ot.execute_plan(ops, plan)
            assert len(gemms) == len(plan.steps)
        assert tensordots == []

    def test_one_graph_pass_per_fragment_and_per_raw_list(self, monkeypatch):
        """Parsing keeps the fragment's DAG order for foliation and causal
        structure, and a bound fragment checks only wire dimensions.  A raw
        operand list is validated as one fragment, by one
        ``fragment_from_ops`` (one ``_dag_order``) and one ``bind_names``:
        no other wiring pass exists."""
        orders = count_calls(monkeypatch, notation, "_dag_order")
        frags = count_calls(monkeypatch, notation, "fragment_from_ops")
        binds = count_calls(monkeypatch, binding_module, "bind_names")
        assert not hasattr(contraction, "_wire_ends")
        for n_ops in (500, 1000, 2000, 4000):
            frag, binding = random_dag(np.random.default_rng(7), n_ops, 6)
            for counts in (orders, frags, binds):
                counts.clear()
            parsed = ot.parse_circuit(str(frag))
            ot.foliate(parsed, "latest")
            ot.causal_structure(parsed)
            ot.probability(parsed, binding, check_physical=False)
            ot.probability_foliated(parsed, binding, check_physical=False)  # foliates earliest
            ot.fragment_operator(parsed, binding)
            assert (len(orders), len(frags), len(binds)) == (1, 1, 3)
            ops = resolve_binding(parsed, binding)
            for n_raw, run in enumerate((ot.circuit_trace, ot.plan_left_to_right), start=1):
                run(ops)
                assert (len(orders), len(frags), len(binds)) == (1 + n_raw, 1 + n_raw, 3 + n_raw)

    def test_bind_by_name_and_one_eigensolve_per_operator(self, monkeypatch):
        """A bind builds no leg and no operator: a bound fragment holds only
        the caller's operators and its wire tables.  The physicality margins
        of an operator object are solved once however many binds test it."""
        orders = count_calls(monkeypatch, notation, "_dag_order")
        solves = count_calls(monkeypatch, physicality, "min_eigenvalue")
        built = [
            _spy(monkeypatch, Leg, "__post_init__"),
            _spy(monkeypatch, LabeledOperator, "__init__"),
            _spy(monkeypatch, LabeledOperator, "_from_valid"),
        ]
        for n_ops in (500, 1000, 2000, 4000):
            frag, binding = random_dag(np.random.default_rng(7), n_ops, 6)
            names = {decl.name for decl in frag.ops}
            for counts in (orders, solves, *built):
                counts.clear()
            parsed = ot.parse_circuit(str(frag))
            bound = evaluator._BoundFragment(parsed, binding)
            assert built == [[], [], []]
            assert set(bound.operators) == names
            assert all(op is binding[name] for name, op in bound.operators.items())
            ot.probability(parsed, binding)
            ot.probability_foliated(parsed, binding)
            ot.p_function(ot.CircuitExpression(((1.0, parsed),)), binding)
            assert len(solves) == len({id(binding[name]) for name in names})
            assert len(orders) == 1
