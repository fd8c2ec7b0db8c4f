"""Physicality: spectral test, sandwich sampling, witnesses, complete sets,
alternate-transpose layer positivity, and unitary transformations."""

import re
import sys

import numpy as np
import pytest

import optensor as ot
from optensor import LabeledOperator, Leg, WireLabel, physicality
from optensor.notation import INPUT, OUTPUT
from conftest import (
    count_bind_plan_check,
    count_calls,
    haar_batch,
    random_circuit,
    reference_sandwich_check,
)

PHI_PLUS = 0.5 * np.outer([1, 0, 0, 1], [1, 0, 0, 1])


def pt_entangled_prep():
    bell = LabeledOperator((Leg("a", 1, OUTPUT, 2), Leg("b", 2, OUTPUT, 2)), PHI_PLUS)
    return ot.partial_transpose(bell, [2])


class TestInputTranspose:
    def test_identity_result_fixed(self):
        iden = ot.identity_result(WireLabel("a", 1), 3)
        assert np.array_equal(ot.input_transpose(iden).matrix, np.eye(3))

    def test_swap_becomes_entangled_projector(self):
        swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        it = ot.input_transpose(swap)
        assert np.max(np.abs(it.matrix - 2 * PHI_PLUS)) < 1e-15

    def test_involution(self, rng):
        op = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)], rng
        )
        twice = ot.input_transpose(ot.input_transpose(op))
        assert np.max(np.abs(twice.matrix - op.matrix)) == 0.0


class TestIsPhysical:
    def test_identity_result_is_physical(self):
        report = ot.is_physical(ot.identity_result(WireLabel("a", 1), 2))
        assert report.physical
        assert report.input_transpose_min_eig >= -1e-12
        assert report.output_trace_excess <= 1e-12

    def test_identity_preparation_is_not(self):
        report = ot.is_physical(ot.identity_preparation(WireLabel("b", 2), 2))
        assert not report.physical
        assert report.output_trace_excess == pytest.approx(1.0)  # trace 2 vs 1
        assert report.input_transpose_min_eig >= 0  # positivity holds

    def test_swap_channel_is_physical(self):
        swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        report = ot.is_physical(swap)
        assert report.physical
        assert report.input_transpose_min_eig >= -1e-12
        assert abs(report.output_trace_excess) <= 1e-12

    def test_transposed_entangled_prep_is_not(self):
        report = ot.is_physical(pt_entangled_prep())
        assert not report.physical
        assert report.input_transpose_min_eig == pytest.approx(-0.5)


class TestSandwichCheck:
    def test_physical_ops_pass(self, rng):
        for _ in range(5):
            op = ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 2)], rng
            )
            report = ot.sandwich_check(op, samples=300, seed=int(rng.integers(1 << 30)))
            assert report.passed, report

    def test_identity_prep_fails_trace_condition(self):
        report = ot.sandwich_check(ot.identity_preparation(WireLabel("b", 1), 2), samples=50)
        assert not report.passed
        assert report.max_trace_scalar > 1 + 1e-9
        assert report.max_trace_scalar == pytest.approx(2.0)

    def test_zero_operator_passes(self):
        zero = LabeledOperator((Leg("a", 1, INPUT, 2),), np.zeros((2, 2)))
        report = ot.sandwich_check(zero, samples=20)
        assert report.passed
        assert report.min_sandwich == pytest.approx(0.0, abs=1e-15)
        assert report.max_trace_scalar == pytest.approx(0.0, abs=1e-15)

    def test_vectorized_value_matches_circuit_trace(self):
        """One literal sample evaluated through the circuit machinery."""
        op = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)], seed=11
        )
        g = 2
        sample_rng = np.random.default_rng(99)
        alpha = sample_rng.standard_normal((2, g)) + 1j * sample_rng.standard_normal((2, g))
        alpha /= np.linalg.norm(alpha)
        gamma = sample_rng.standard_normal((3, g)) + 1j * sample_rng.standard_normal((3, g))
        gamma /= np.linalg.norm(gamma)
        prep = LabeledOperator(
            (Leg("a", 1, OUTPUT, 2), Leg("g", 7, OUTPUT, g)),
            ot.projector(alpha.reshape(-1)),
        )
        res = LabeledOperator(
            (Leg("b", 2, INPUT, 3), Leg("g", 7, INPUT, g)),
            ot.projector(gamma.reshape(-1)),
        )
        by_trace = ot.circuit_trace([prep, op, res]).scalar
        tensor = op.permuted([1, 2]).matrix.reshape(2, 3, 2, 3)
        by_einsum = np.einsum(
            "ig,IG,IyiY,YG,yg->", alpha, alpha.conj(), tensor, gamma, gamma.conj()
        ).real
        assert abs(by_trace - by_einsum) < 1e-13
        # and the identity-result trace scalar
        iden = ot.contract_pair(
            ot.identity_result(WireLabel("b", 2), 3),
            ot.identity_result(WireLabel("g", 7), g),
        )
        trace_by_circuit = ot.circuit_trace([prep, op, iden]).scalar
        tout = np.einsum(tensor, [0, 1, 2, 1], [0, 2])
        trace_by_einsum = np.einsum("ig,Ig,Ii->", alpha, alpha.conj(), tout).real
        assert abs(trace_by_circuit - trace_by_einsum) < 1e-13

    @pytest.mark.parametrize("perturbation", [0.0, 0.05, 0.3])
    def test_matches_five_operand_reference(self, rng, perturbation):
        ancillas = (1, 2, 4, 9)
        signatures = [
            ([Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)]),
            ([Leg("a", 1, INPUT, 2), Leg("a", 2, INPUT, 2)], [Leg("a", 3, OUTPUT, 2)]),
            ([], [Leg("b", 1, OUTPUT, 3)]),
        ]
        for ins, outs in signatures:
            op = ot.random_physical_transformation(ins, outs, rng) if ins else (
                ot.random_preparation(outs, rng)
            )
            raw = rng.standard_normal((op.dim, op.dim)) + 1j * rng.standard_normal(
                (op.dim, op.dim)
            )
            op = LabeledOperator(op.legs, op.matrix + perturbation * (raw + raw.conj().T))
            seed = int(rng.integers(1 << 30))
            got = ot.sandwich_check(op, ancillas, samples=200, seed=seed)
            want = reference_sandwich_check(op, ancillas, samples=200, seed=seed)
            assert abs(got.min_sandwich - want.min_sandwich) <= 1e-12
            assert abs(got.max_trace_scalar - want.max_trace_scalar) <= 1e-12
            assert got.passed == want.passed
            assert got.ancilla_dims == want.ancilla_dims

    def test_one_draw_vectors_match_the_reference_sampler(self):
        shapes = [(2, 1), (3, 1), (2, 4), (6, 4), (1, 1)]
        for seed, samples in ((0, 1), (7, 30), (123456789, 300)):
            got = physicality._gaussian_vectors(seed, samples, shapes)
            rng = np.random.default_rng(seed)
            for (vectors, norms), (rows, cols) in zip(got, shapes):
                want = haar_batch(rng, samples, rows, cols)
                assert vectors.shape == (rows, cols, samples) and norms.shape == (samples,)
                units = vectors.transpose(2, 0, 1) / np.sqrt(norms)[:, None, None]
                assert np.max(np.abs(units - want)) <= 1e-15

    def test_empty_ancilla_dims_rejected(self):
        with pytest.raises(ValueError, match=r"at least one dimension, got \(\)"):
            ot.sandwich_check(pt_entangled_prep(), ())

    @pytest.mark.parametrize("bad", [0, -3, 2.7, 2.0, True, "2"])
    def test_ancilla_dim_not_a_positive_integer_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"integer >= 1, got {bad!r}")):
            ot.sandwich_check(pt_entangled_prep(), (1, bad))

    @pytest.mark.parametrize("bad", [True, 2.5, 300.0, "300"])
    def test_non_integer_samples_rejected(self, bad):
        with pytest.raises(TypeError, match="samples must be an integer"):
            ot.sandwich_check(pt_entangled_prep(), (1,), samples=bad)

    def test_duplicate_ancilla_dims_checked_once(self):
        op = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        report = ot.sandwich_check(op, (2, 1, np.int64(2), 1), samples=20)
        assert report.ancilla_dims == (2, 1)
        assert all(type(g) is int for g in report.ancilla_dims)
        assert report == ot.sandwich_check(op, (2, 1), samples=20)


class TestWitness:
    def test_transposed_entangled_prep_witness(self):
        witness = ot.witness_nonphysical(pt_entangled_prep())
        assert witness.condition == "positivity"
        assert witness.value <= -0.5 + 1e-10
        # the witness pair is itself physical
        assert ot.is_physical(witness.preparation).physical
        assert ot.is_physical(witness.result).physical

    def test_identity_preparation_witness(self):
        witness = ot.witness_nonphysical(ot.identity_preparation(WireLabel("b", 1), 2))
        assert witness.condition == "trace"
        assert witness.value == pytest.approx(2.0)
        assert witness.value > 1 + 1e-10

    def test_physical_operator_raises(self):
        swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        with pytest.raises(ot.NotApplicableError):
            ot.witness_nonphysical(swap)

    def test_channel_positivity_witness(self, rng):
        for _ in range(5):
            op = ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 3)], [Leg("b", 2, OUTPUT, 2)], rng
            )
            bad = LabeledOperator(
                op.legs, op.matrix - 0.3 * np.eye(op.dim)
            )
            report = ot.is_physical(bad)
            if report.input_transpose_min_eig >= -1e-9:
                continue
            witness = ot.witness_nonphysical(bad)
            assert witness.value < -1e-10
            # value is the negative eigenvalue scaled by the input dimension
            assert witness.value == pytest.approx(
                report.input_transpose_min_eig / 3, abs=1e-10
            )

    def test_trace_only_witness_on_channel(self, rng):
        op = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 2)], rng, trace_preserving=True
        )
        inflated = LabeledOperator(op.legs, 1.4 * op.matrix)
        report = ot.is_physical(inflated)
        assert not report.physical and report.input_transpose_min_eig >= -1e-12
        witness = ot.witness_nonphysical(inflated)
        assert witness.condition == "trace"
        assert witness.value == pytest.approx(1.4)


class TestCompleteSets:
    def test_projective_measurement(self):
        p0 = LabeledOperator((Leg("a", 1, INPUT, 2),), np.diag([1.0, 0.0]))
        p1 = LabeledOperator((Leg("a", 1, INPUT, 2),), np.diag([0.0, 1.0]))
        assert ot.is_complete_set([p0, p1])

    def test_kraus_split_instrument(self, rng):
        kraus = ot.random_kraus_set(2, 2, rng, n_kraus=4, trace_preserving=True)
        legs_in = [Leg("a", 1, INPUT, 2)]
        legs_out = [Leg("b", 2, OUTPUT, 2)]
        elements = [
            ot.operator_from_kraus(kraus[:2], legs_in, legs_out),
            ot.operator_from_kraus(kraus[2:], legs_in, legs_out),
        ]
        assert ot.is_complete_set(elements, eps=1e-10)

    def test_reads_the_margin_that_is_physical_solved(self, rng, monkeypatch):
        from optensor import physicality

        kraus = ot.random_kraus_set(2, 2, rng, n_kraus=4, trace_preserving=True)
        legs_in, legs_out = [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 2)]
        elements = [
            ot.operator_from_kraus(kraus[:2], legs_in, legs_out),
            ot.operator_from_kraus(kraus[2:], legs_in, legs_out),
        ]
        for op in elements:
            ot.is_physical(op)
        solves = count_calls(monkeypatch, physicality, "min_eigenvalue")
        assert ot.is_complete_set(elements, eps=1e-10)
        assert solves == []

    def test_double_swap_is_not_complete(self):
        swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        assert not ot.is_complete_set([swap, swap])

    def test_signature_mismatch(self):
        p0 = LabeledOperator((Leg("a", 1, INPUT, 2),), np.eye(2))
        q0 = LabeledOperator((Leg("b", 1, INPUT, 2),), np.eye(2))
        with pytest.raises(ot.SignatureMismatchError):
            ot.is_complete_set([p0, q0])


class TestAlternateTranspose:
    def test_three_layer_example(self, rng):
        frag = ot.parse_circuit("A^{a1 b2} B_{b2}^{c3 a4} C_{a1 c3 a4}")
        binding = {
            "A": ot.random_preparation(
                [Leg("a", 1, OUTPUT, 2), Leg("b", 2, OUTPUT, 2)], rng
            ),
            "B": ot.random_physical_transformation(
                [Leg("b", 2, INPUT, 2)],
                [Leg("c", 3, OUTPUT, 2), Leg("a", 4, OUTPUT, 2)],
                rng,
            ),
            "C": ot.random_result(
                [Leg("a", 1, INPUT, 2), Leg("c", 3, INPUT, 2), Leg("a", 4, INPUT, 2)],
                rng,
            ),
        }
        report = ot.alternate_transpose_positivity(frag, binding)
        assert len(report.layers) == 3
        assert report.all_positive
        assert report.value_in_unit_interval
        # padding identity appears in the middle layer
        assert any(m.startswith("pad:") for m in report.layers[1].members)

    def test_prep_result_pair(self, rng):
        frag = ot.parse_circuit("A^{a1} B_{a1}")
        binding = {
            "A": ot.random_preparation([Leg("a", 1, OUTPUT, 3)], rng),
            "B": ot.random_result([Leg("a", 1, INPUT, 3)], rng),
        }
        report = ot.alternate_transpose_positivity(frag, binding)
        assert report.all_positive and len(report.layers) == 2

    def test_nonphysical_binding_raises(self, rng):
        frag = ot.parse_circuit("A^{a1} B_{a1}")
        binding = {
            "A": ot.identity_preparation(WireLabel("a", 1), 2),
            "B": ot.random_result([Leg("a", 1, INPUT, 2)], rng),
        }
        with pytest.raises(ot.NotApplicableError):
            ot.alternate_transpose_positivity(frag, binding)

    def test_reused_names_checked_once_and_message_shared(self, rng, monkeypatch):
        from optensor import evaluator

        frag = ot.parse_circuit("P^{a1} W_{a1}^{a2} W_{a2}^{a3} R_{a3}")
        wire = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        binding = {
            "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
            "W": wire,
            "R": ot.random_result([Leg("a", 1, INPUT, 2)], rng),
        }
        checked = []

        def counting_is_physical(op, eps):
            checked.append(op)
            return ot.is_physical(op, eps)

        monkeypatch.setattr(evaluator, "is_physical", counting_is_physical)
        ot.alternate_transpose_positivity(frag, binding)
        assert len(checked) == 3
        binding["W"] = LabeledOperator(wire.legs, 1.5 * wire.matrix)  # output trace 1.5 I
        with pytest.warns(ot.PhysicalityWarning) as caught:
            ot.probability(frag, binding)
        with pytest.raises(ot.NotApplicableError) as raised:
            ot.alternate_transpose_positivity(frag, binding)
        report = ot.is_physical(binding["W"])
        message = (
            f"operator bound to 'W' is not physical "
            f"(min eig {report.input_transpose_min_eig:.3e}, "
            f"trace excess {report.output_trace_excess:.3e})"
        )
        assert str(raised.value) == message
        assert [str(w.message) for w in caught] == [message] * 2

    def test_open_fragment_rejected_before_any_eigensolve(self, rng, monkeypatch):
        frag = ot.parse_circuit("P^{a1} W_{a1}^{a2}")
        binding = {
            "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
            "W": ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
            ),
        }
        solves = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(matrix):
            solves.append(matrix)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        with pytest.raises(ot.NonCircuitTermError):
            ot.alternate_transpose_positivity(frag, binding)
        assert solves == []

    def test_binds_once_and_plans_once(self, rng, monkeypatch):
        frag = ot.parse_circuit("P^{a1} W_{a1}^{a2} W_{a2}^{a3} R_{a3}")
        binding = {
            "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
            "W": ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2),
            "R": ot.random_result([Leg("a", 1, INPUT, 2)], rng),
        }
        calls = count_bind_plan_check(monkeypatch)
        ot.alternate_transpose_positivity(frag, binding)
        assert {name: len(made) for name, made in calls.items()} == {
            "bind_names": 1,
            "_plan_greedy": 1,
            "is_physical": 3,  # P, W and R
        }

    def test_one_eigensolve_per_name_or_padding_dim_and_parity(self, rng, monkeypatch):
        from optensor import evaluator

        frag = ot.parse_circuit("P^{a1 a6} Q^{b2} W_{a1}^{a3} W_{a3}^{a4} W_{a4}^{a5} R_{a5 b2 a6}")
        binding = {
            "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2), Leg("a", 6, OUTPUT, 2)], rng),
            "Q": ot.random_preparation([Leg("b", 2, OUTPUT, 3)], rng),
            "W": ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
            ),
            "R": ot.random_result(
                [Leg("a", 1, INPUT, 2), Leg("b", 2, INPUT, 3), Leg("a", 3, INPUT, 2)], rng
            ),
        }
        solves = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(matrix):
            if sys._getframe(1).f_globals["__name__"] == evaluator.__name__:
                solves.append(matrix)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        report = ot.alternate_transpose_positivity(frag, binding)
        # P, Q and R at parity 0; W, and paddings of dims 3 and 2, at both parities
        assert len(solves) == 9
        # the reports as they were with one eigensolve per member
        pinned = [
            (("P", "Q"), 0.00027740603676607484),
            (("W", "pad:b2", "pad:a6"), -9.829320059549598e-17),
            (("W", "pad:b2", "pad:a6"), -9.829320059549598e-17),
            (("W", "pad:b2", "pad:a6"), -9.829320059549598e-17),
            (("R",), 0.042915471960665585),
        ]
        assert [layer.index for layer in report.layers] == list(range(len(pinned)))
        assert [layer.members for layer in report.layers] == [m for m, _ in pinned]
        for layer, (_, min_eig) in zip(report.layers, pinned):
            assert layer.min_eig == pytest.approx(min_eig, abs=1e-12)
        assert report.value == pytest.approx(0.00012596552102837771, rel=1e-12)

    def test_paddings_join_their_layer_after_its_operations(self, rng):
        padded = 0
        for _ in range(10):
            frag, binding = random_circuit(rng, max_ops=8)
            for policy in ("earliest", "latest"):
                fol = ot.foliate(frag, policy)
                report = ot.alternate_transpose_positivity(frag, binding, policy=policy)
                for k, layer in enumerate(report.layers):
                    pads = [f"pad:{pad.wire}" for pad in fol.paddings if pad.layer == k]
                    names = [frag.ops[i].name for i in fol.layers[k]]
                    assert list(layer.members) == names + pads
                    padded += len(pads)
        assert padded > 0

    def test_random_circuits_all_layers_positive(self, rng):
        for _ in range(10):
            frag, binding = random_circuit(rng, max_ops=6)
            report = ot.alternate_transpose_positivity(frag, binding, eps=1e-9)
            assert report.all_positive
            assert report.value_in_unit_interval


class TestTransform:
    def test_identity_unitaries_fix_operator(self, rng):
        op = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)], rng
        )
        same = ot.transform(op, {1: np.eye(2), 2: np.eye(3)})
        assert np.max(np.abs(same.matrix - op.matrix)) < 1e-15

    def test_closed_circuit_invariant(self, rng):
        for _ in range(10):
            frag, binding = random_circuit(rng, max_ops=6)
            before = ot.probability(frag, binding, check_physical=False)
            unitaries = {
                w.id: ot.random_unitary(
                    {"a": 2, "b": 3}[w.sys], rng
                )
                for op in frag.ops
                for w in op.labels
            }
            transformed = {
                decl.name: ot.transform(
                    bound, {leg.id: unitaries[leg.id] for leg in bound.legs}
                )
                for decl, bound in zip(
                    frag.ops, ot.resolve_binding(frag, binding)
                )
            }
            after = ot.probability(frag, transformed, check_physical=False)
            assert abs(before - after) < 1e-10

    def test_transformed_physical_stays_physical(self, rng):
        op = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 3)], [Leg("b", 2, OUTPUT, 2)], rng
        )
        moved = ot.transform(
            op, {1: ot.random_unitary(3, rng), 2: ot.random_unitary(2, rng)}
        )
        assert ot.is_physical(moved).physical

    def test_non_unitary_rejected(self):
        op = ot.identity_result(WireLabel("a", 1), 2)
        with pytest.raises(ot.NonUnitaryError):
            ot.transform(op, {1: np.array([[1, 0], [0, 2.0]])})
        with pytest.raises(ot.DimMismatchError):
            ot.transform(op, {1: np.eye(3)})


def test_theorem_agreement_on_mixed_population(rng):
    """Spectral verdicts never disagree with the definition-side checks."""
    mismatches = 0
    for k in range(40):
        din, dout = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        op = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, din)], [Leg("b", 2, OUTPUT, dout)], rng
        )
        if k % 2:
            noise = rng.standard_normal((op.dim, op.dim))
            noise = noise + noise.T + 1j * (rng.standard_normal((op.dim, op.dim)))
            noise = 0.5 * (noise + noise.conj().T)
            op = LabeledOperator(op.legs, op.matrix + 0.25 * noise)
        report = ot.is_physical(op, eps=1e-9)
        if report.physical:
            check = ot.sandwich_check(op, samples=400, seed=k)
            if not check.passed:
                mismatches += 1
        else:
            witness = ot.witness_nonphysical(op)
            if not (witness.value < -1e-10 or witness.value > 1 + 1e-10):
                mismatches += 1
    assert mismatches == 0
