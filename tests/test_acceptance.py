"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np
import pytest

import optensor as ot
from optensor import LabeledOperator, Leg, SystemType, WireLabel
from optensor.notation import INPUT, OUTPUT
from conftest import random_circuit

SEED = 987654321


def report(line):
    print(f"ACCEPTANCE {line}")


def test_c01_evaluator_equivalence():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        frag, binding = random_circuit(rng, max_ops=8, type_dims={"a": 2, "b": 3})
        direct = ot.probability(frag, binding, check_physical=False)
        layered = ot.probability_foliated(frag, binding, check_physical=False)
        worst = max(worst, abs(direct - layered))
        assert abs(direct - layered) <= 1e-10
        assert -1e-10 <= direct <= 1 + 1e-10  # physical bindings stay probabilities
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    report(f"C1 evaluator equivalence: PASS (100 circuits, max diff {worst:.2e}, {elapsed:.1f}s)")


def _random_physical_op(rng):
    din, dout = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    return ot.random_physical_transformation(
        [Leg("a", 1, INPUT, din)], [Leg("b", 2, OUTPUT, dout)], rng,
        trace_preserving=bool(rng.integers(2)),
    )


def _perturb_nonphysical(op, rng):
    """Break positivity or the trace bound by a margin is_physical must see."""
    if rng.integers(2):
        shift = 0.05 + 0.3 * rng.random()
        return LabeledOperator(op.legs, op.matrix - shift * np.eye(op.dim))
    headroom = ot.max_eigenvalue(ot.output_trace(op))
    scale = (1.1 + rng.random()) / headroom
    return LabeledOperator(op.legs, scale * op.matrix)


def test_c02_physicality_theorem():
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    worst_sandwich, worst_witness = np.inf, 0.0
    for k in range(100):
        op = _random_physical_op(rng)
        assert ot.is_physical(op, eps=1e-9).physical
        check = ot.sandwich_check(
            op, samples=1000, seed=int(rng.integers(1 << 30))
        )
        nin = int(np.prod([l.dim for l in op.input_legs]))
        assert check.ancilla_dims == tuple(dict.fromkeys((1, nin, nin * nin)))
        assert check.passed, (k, check)
        worst_sandwich = min(worst_sandwich, check.min_sandwich)
    for k in range(100):
        bad = _perturb_nonphysical(_random_physical_op(rng), rng)
        verdict = ot.is_physical(bad, eps=1e-9)
        assert not verdict.physical, k
        witness = ot.witness_nonphysical(bad)
        outside = witness.value < -1e-10 or witness.value > 1 + 1e-10
        assert outside, (k, witness.value)
        worst_witness = max(worst_witness, -witness.value if witness.value < 0 else witness.value - 1)
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    report(
        "C2 physicality theorem: PASS (100 physical + 100 perturbed, "
        f"min sandwich {worst_sandwich:.2e}, max violation {worst_witness:.2e}, {elapsed:.1f}s)"
    )


def test_c03_identity_asymmetry():
    as_result = ot.is_physical(ot.identity_result(WireLabel("a", 1), 2))
    as_prep = ot.is_physical(ot.identity_preparation(WireLabel("b", 2), 2))
    assert as_result.physical
    assert not as_prep.physical
    report(
        "C3 identity asymmetry: PASS (result margins "
        f"[{as_result.input_transpose_min_eig:.2e}, {as_result.output_trace_excess:.2e}], "
        f"prep trace excess {as_prep.output_trace_excess:.2e})"
    )


def test_c04_duotensor_round_trip():
    rng = np.random.default_rng(SEED + 2)
    fsets = {
        "a": ot.default_fiducials(SystemType("a", 2)),
        "b": ot.default_fiducials(SystemType("b", 3)),
    }
    dims = {"a": 2, "b": 3}
    worst_rt, worst_dots = 0.0, 0.0
    for k in range(50):
        sys_in = "a" if rng.integers(2) else "b"
        sys_out = "a" if rng.integers(2) else "b"
        legs = (
            Leg(sys_in, 1, INPUT, dims[sys_in]),
            Leg(sys_out, 2, OUTPUT, dims[sys_out]),
        )
        dim = dims[sys_in] * dims[sys_out]
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = LabeledOperator(legs, 0.5 * (raw + raw.conj().T))
        white = ot.decompose(op, fsets)
        back = ot.reconstruct(white, fsets, legs=legs)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.matrix - op.matrix))))
        black = ot.convert_dots(white, "black", fsets)
        again = ot.convert_dots(black, "white", fsets)
        worst_dots = max(worst_dots, float(np.max(np.abs(again.data - white.data))))
    assert worst_rt <= 1e-10
    assert worst_dots <= 1e-12
    report(
        f"C4 duotensor round trip: PASS (50 ops, reconstruct {worst_rt:.2e}, "
        f"dot conversion {worst_dots:.2e})"
    )


def test_c05_wire_decomposition():
    for n in (2, 3):
        assert ot.wire_decomposition_check(SystemType("a", n), tol=1e-10)
    report("C5 wire decomposition: PASS (N=2 and N=3 within 1e-10)")


def test_c06_tomography():
    rng = np.random.default_rng(SEED + 3)
    fsets = {"a": ot.default_fiducials(SystemType("a", 2))}
    worst_exact = 0.0
    for _ in range(20):
        hidden = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
        )
        recovered = ot.reconstruct_operation(ot.ExactBlackBox(hidden), fsets)
        worst_exact = max(
            worst_exact, float(np.max(np.abs(recovered.matrix - hidden.matrix)))
        )
    assert worst_exact <= 1e-10
    hidden = ot.random_physical_transformation(
        [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], seed=5
    )
    sampled = ot.reconstruct_operation(
        ot.SampledBlackBox(hidden, shots=10**6, seed=0), fsets
    )
    sampled_err = float(np.max(np.abs(sampled.matrix - hidden.matrix)))
    assert sampled_err <= 0.02
    report(
        f"C6 tomography: PASS (exact {worst_exact:.2e} over 20 channels, "
        f"sampled(1e6 shots) {sampled_err:.2e} <= 0.02)"
    )


def test_c07_formalism_locality():
    rng = np.random.default_rng(SEED + 4)
    frag_a = ot.parse_circuit("P^{a1} W_{a1}^{a2}")
    frag_b = ot.parse_circuit("P^{a1} V_{a1}^{a2}")
    chan = ot.random_physical_transformation(
        [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
    )
    binding = {
        "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
        "W": chan,
        "V": LabeledOperator(chan.legs, 0.4 * chan.matrix),
    }
    ratio = ot.formalism_locality_ratio(frag_a, frag_b, binding, eps=1e-8)
    assert ratio == pytest.approx(2.5, abs=1e-10)
    worst = 0.0
    for _ in range(20):
        completion = ot.random_result([Leg("a", 2, INPUT, 2)], rng)
        full = dict(binding, E=completion)
        pa = ot.probability(
            ot.parse_circuit("P^{a1} W_{a1}^{a2} E_{a2}"), full, check_physical=False
        )
        pb = ot.probability(
            ot.parse_circuit("P^{a1} V_{a1}^{a2} E_{a2}"), full, check_physical=False
        )
        worst = max(worst, abs(pa / pb - ratio))
        assert abs(pa / pb - ratio) <= 1e-8
    # discriminating power: independent channels give a wide ratio spread
    binding["V"] = ot.random_physical_transformation(
        [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
    )
    assert ot.formalism_locality_ratio(frag_a, frag_b, binding, eps=1e-8) is None
    ratios = []
    for _ in range(20):
        completion = ot.random_result([Leg("a", 2, INPUT, 2)], rng)
        full = dict(binding, E=completion)
        pa = ot.probability(
            ot.parse_circuit("P^{a1} W_{a1}^{a2} E_{a2}"), full, check_physical=False
        )
        pb = ot.probability(
            ot.parse_circuit("P^{a1} V_{a1}^{a2} E_{a2}"), full, check_physical=False
        )
        if pb > 1e-6:
            ratios.append(pa / pb)
    spread = max(ratios) - min(ratios)
    assert spread > 10 * 1e-8
    report(
        f"C7 formalism locality: PASS (ratio dev {worst:.2e} over 20 completions, "
        f"non-proportional spread {spread:.2e})"
    )


def test_c08_factorization():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(20):
        left, bind_left = random_circuit(rng, max_ops=4, type_dims={"a": 2})
        shift = {
            w.id: WireLabel(w.sys, w.id + 500)
            for op in left.ops
            for w in op.labels
        }
        left = ot.fragment_from_ops(
            ot.OperationDecl(
                d.name,
                tuple(shift[w.id] for w in d.inputs),
                tuple(shift[w.id] for w in d.outputs),
            )
            for d in left.ops
        )
        right, bind_right = random_circuit(rng, max_ops=4, type_dims={"b": 3})
        renamed_right = ot.fragment_from_ops(
            ot.OperationDecl("R" + d.name, d.inputs, d.outputs) for d in right.ops
        )
        bind_right = {"R" + k: v for k, v in bind_right.items()}
        joint = ot.fragment_from_ops(list(left.ops) + list(renamed_right.ops))
        p_joint = ot.probability(joint, {**bind_left, **bind_right}, check_physical=False)
        product = ot.probability(left, bind_left, check_physical=False) * ot.probability(
            renamed_right, bind_right, check_physical=False
        )
        worst = max(worst, abs(p_joint - product))
        assert abs(p_joint - product) <= 1e-12
    report(f"C8 factorization: PASS (20 disjoint pairs, max diff {worst:.2e})")


def test_c09_contraction_planning():
    rng = np.random.default_rng(SEED + 6)
    ops = [ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)]
    for k in range(1, 11):
        ops.append(
            ot.random_physical_transformation(
                [Leg("a", k, INPUT, 2)], [Leg("a", k + 1, OUTPUT, 2)], rng
            )
        )
    ops.append(ot.random_result([Leg("a", 11, INPUT, 2)], rng))
    assert len(ops) == 12
    start = time.perf_counter()
    plan = ot.plan_contraction(ops)
    value = ot.execute_plan(ops, plan)
    elapsed = time.perf_counter() - start
    assert plan.peak_dim <= 16          # the naive 2^12 product never exists
    assert all(step.result_dim <= 16 for step in plan.steps)
    assert elapsed <= 1.0
    assert -1e-10 <= value.scalar <= 1 + 1e-10
    report(
        f"C9 contraction planning: PASS (peak dim {plan.peak_dim} <= 16, {elapsed*1e3:.0f} ms)"
    )


def test_c10_alternate_transpose_positivity():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for _ in range(50):
        frag, binding = random_circuit(rng, max_ops=6, type_dims={"a": 2, "b": 3})
        result = ot.alternate_transpose_positivity(frag, binding, eps=1e-9)
        layer_min = min(layer.min_eig for layer in result.layers)
        worst = min(worst, layer_min)
        assert layer_min >= -1e-9
        assert result.value_in_unit_interval
    report(f"C10 alternate-transpose positivity: PASS (50 circuits, min layer eig {worst:.2e})")


def test_c11_complete_sets():
    rng = np.random.default_rng(SEED + 8)
    worst_sum, worst_prob = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        kraus = ot.random_kraus_set(n, n, rng, n_kraus=6, trace_preserving=True)
        legs_in = [Leg("a", 1, INPUT, n)]
        legs_out = [Leg("a", 2, OUTPUT, n)]
        pieces = [kraus[:2], kraus[2:3], kraus[3:]]
        elements = [ot.operator_from_kraus(p, legs_in, legs_out) for p in pieces]
        assert ot.is_complete_set(elements, eps=1e-10)
        total = sum(ot.output_trace(e).matrix for e in elements)
        worst_sum = max(worst_sum, float(np.max(np.abs(total - np.eye(n)))))
        prep = ot.random_preparation([Leg("a", 1, OUTPUT, n)], rng)
        circuit = ot.parse_circuit("P^{a1} M_{a1}^{a2} R_{a2}")
        summed = sum(
            ot.probability(
                circuit,
                {"P": prep, "M": e, "R": ot.identity_result(WireLabel("a", 2), n)},
                check_physical=False,
            )
            for e in elements
        )
        deterministic = ot.probability(
            ot.parse_circuit("P^{a1} R_{a1}"),
            {"P": prep, "R": ot.identity_result(WireLabel("a", 1), n)},
            check_physical=False,
        )
        worst_prob = max(worst_prob, abs(summed - deterministic))
        assert abs(summed - deterministic) <= 1e-9
    report(
        f"C11 complete sets: PASS (20 instruments, sum deviation {worst_sum:.2e}, "
        f"probability deviation {worst_prob:.2e})"
    )


def test_c12_unitary_invariance():
    rng = np.random.default_rng(SEED + 9)
    dims = {"a": 2, "b": 3}
    worst = 0.0
    for _ in range(20):
        frag, binding = random_circuit(rng, max_ops=6, type_dims=dims)
        before = ot.probability(frag, binding, check_physical=False)
        unitaries = {
            w.id: ot.random_unitary(dims[w.sys], rng)
            for op in frag.ops
            for w in op.labels
        }
        transformed = {}
        for decl, bound in zip(frag.ops, ot.resolve_binding(frag, binding)):
            moved = ot.transform(
                bound, {leg.id: unitaries[leg.id] for leg in bound.legs}
            )
            assert ot.is_physical(moved, eps=1e-9).physical
            transformed[decl.name] = moved
        after = ot.probability(frag, transformed, check_physical=False)
        worst = max(worst, abs(before - after))
        assert abs(before - after) <= 1e-10
    report(f"C12 unitary invariance: PASS (20 circuits, max value drift {worst:.2e})")
