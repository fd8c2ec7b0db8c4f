"""Fiducial sets, the hopping metric, decomposition, and dot conversion."""

import copy
import json
import re
import warnings

import numpy as np
import pytest

import optensor as ot
from optensor import LabeledOperator, Leg, SystemType, WireLabel
from optensor.duotensor import (
    BLACK,
    WHITE,
    _fiducial_overlaps,
    _fiducial_stack,
    compute_hopping_metric,
)
from optensor.notation import INPUT, OUTPUT
from conftest import count_calls, signature_op

QUBIT = SystemType("a", 2)

# overlaps Tr(P_i P_j) of |0>, |1>, |+>, |+i> projectors
QUBIT_METRIC = np.array(
    [
        [1.0, 0.0, 0.5, 0.5],
        [0.0, 1.0, 0.5, 0.5],
        [0.5, 0.5, 1.0, 0.5],
        [0.5, 0.5, 0.5, 1.0],
    ]
)


@pytest.fixture(scope="module")
def qubit_fiducials():
    return ot.default_fiducials(QUBIT)


@pytest.fixture(scope="module")
def qutrit_fiducials():
    return ot.default_fiducials(SystemType("b", 3))


class TestDefaultFiducials:
    def test_qubit_elements(self, qubit_fiducials):
        fset = qubit_fiducials
        assert fset.k == 4
        expected = [
            np.diag([1.0, 0.0]),
            np.diag([0.0, 1.0]),
            0.5 * np.array([[1, 1], [1, 1]]),
            0.5 * np.array([[1, -1j], [1j, 1]]),
        ]
        for prep, matrix in zip(fset.preps, expected):
            assert np.max(np.abs(prep.matrix - matrix)) < 1e-15

    def test_qubit_metric_values(self, qubit_fiducials):
        assert np.max(np.abs(qubit_fiducials.metric - QUBIT_METRIC)) < 1e-12
        assert qubit_fiducials.metric[0, 0] == pytest.approx(1.0)   # |0> then |0>
        assert qubit_fiducials.metric[0, 2] == pytest.approx(0.5)   # |0> then |+>

    def test_qutrit_rank(self, qutrit_fiducials):
        assert qutrit_fiducials.k == 9
        assert np.linalg.matrix_rank(qutrit_fiducials.metric) == 9

    def test_elements_are_physical(self, qutrit_fiducials):
        for prep in qutrit_fiducials.preps:
            assert ot.is_physical(prep).physical
        for result in qutrit_fiducials.results:
            assert ot.is_physical(result).physical

    def test_metric_inverse(self, qubit_fiducials):
        prod = qubit_fiducials.metric @ qubit_fiducials.metric_inv
        assert np.max(np.abs(prod - np.eye(4))) < 1e-10

    def test_hopping_metric_recompute(self, qubit_fiducials):
        again = ot.hopping_metric(qubit_fiducials)
        assert np.max(np.abs(again - qubit_fiducials.metric)) < 1e-12

    def test_cached_per_system_type(self):
        assert ot.default_fiducials(SystemType("a", 2)) is ot.default_fiducials(QUBIT)
        assert ot.default_fiducials(SystemType("b", 2)) is not ot.default_fiducials(QUBIT)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_metric_matches_pairwise_circuits(self, d):
        fset = ot.default_fiducials(SystemType("a", d))
        expected = _pairwise_metric(fset.preps, fset.results)
        assert np.max(np.abs(ot.hopping_metric(fset) - expected)) <= 1e-14

    def test_complex_metric_entry_named(self, qubit_fiducials):
        results = list(qubit_fiducials.results)
        for j in (1, 3):  # Tr(P_i R_j) gains 1e-6 i for every i
            tampered = ot.LabeledOperator(results[j].legs, results[j].matrix)
            object.__setattr__(tampered, "matrix", results[j].matrix + 1e-6j * np.eye(2))
            results[j] = tampered
        message = "metric entry (0,1) has imaginary part 1.000e-06"
        with pytest.raises(ot.SingularMetricError, match=re.escape(message)):
            compute_hopping_metric(qubit_fiducials.preps, results)


def _pairwise_metric(preps, results):
    """The hopping metric as one two-operator circuit per entry."""
    metric = np.empty((len(preps), len(results)))
    for i, prep in enumerate(preps):
        for j, result in enumerate(results):
            aligned = result.relabeled({result.ids[0]: prep.legs[0].wire})
            metric[i, j] = ot.circuit_trace([prep, aligned]).scalar
    return metric


class TestDecompose:
    def test_first_fiducial_has_unit_vector_weights(self, qubit_fiducials):
        prep = qubit_fiducials.prep_op(0, WireLabel("a", 1))
        dt = ot.decompose(prep, {"a": qubit_fiducials})
        assert dt.colors == (WHITE,)
        assert np.max(np.abs(dt.data - np.array([1.0, 0, 0, 0]))) < 1e-12

    def test_identity_result_reconstructs(self, qubit_fiducials):
        iden = ot.identity_result(WireLabel("a", 1), 2)
        dt = ot.decompose(iden, {"a": qubit_fiducials})
        back = ot.reconstruct(dt, {"a": qubit_fiducials}, legs=iden.legs)
        assert np.max(np.abs(back.matrix - np.eye(2))) < 1e-12

    def test_random_channel_round_trip(self, rng, qubit_fiducials):
        fsets = {"a": qubit_fiducials}
        for _ in range(5):
            op = ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
            )
            dt = ot.decompose(op, fsets)
            assert dt.data.shape == (4, 4)
            back = ot.reconstruct(dt, fsets, legs=op.legs)
            assert np.max(np.abs(back.matrix - op.matrix)) <= 1e-10

    def test_round_trip_any_hermitian(self, rng, qubit_fiducials, qutrit_fiducials):
        """Exactness holds for arbitrary Hermitian input, physical or not."""
        fsets = {"a": qubit_fiducials, "b": qutrit_fiducials}
        for _ in range(5):
            raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            herm = 0.5 * (raw + raw.conj().T)
            op = ot.LabeledOperator(
                (Leg("a", 1, INPUT, 2), Leg("b", 2, OUTPUT, 3)), herm
            )
            back = ot.reconstruct(ot.decompose(op, fsets), fsets, legs=op.legs)
            assert np.max(np.abs(back.matrix - op.matrix)) <= 1e-10

    def test_reconstruct_matches_pathless_einsum(self, rng, qubit_fiducials, qutrit_fiducials):
        """The per-leg kernel against the one-pass einsum expression."""
        fsets = {"a": qubit_fiducials, "b": qutrit_fiducials}
        for legs in (
            (Leg("b", 1, INPUT, 3), Leg("b", 2, INPUT, 3), Leg("b", 3, OUTPUT, 3)),
            (Leg("a", 1, INPUT, 2), Leg("b", 2, OUTPUT, 3)),
            (Leg("a", 1, OUTPUT, 2),),
        ):
            shape = tuple(leg.dim**2 for leg in legs)
            indices = tuple(ot.DuoIndex(l.sys, l.id, l.role, l.dim, WHITE) for l in legs)
            dt = ot.Duotensor(indices, rng.standard_normal(shape))
            k = len(legs)
            operands = [dt.data, list(range(k))]
            for m, leg in enumerate(legs):
                operands.extend([_fiducial_stack(fsets, leg), [m, k + m, 2 * k + m]])
            want = np.einsum(*operands, list(range(k, 3 * k)))
            got = ot.reconstruct(dt, fsets).matrix
            assert np.max(np.abs(got - want.reshape(got.shape))) <= 1e-12

    def test_reconstruct_rejects_legs_unlike_the_indices(self, rng):
        prep = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
        fsets = ot.default_fiducials_for(prep)
        dt = ot.decompose(prep, fsets)
        moved = ot.reconstruct(dt, fsets, legs=[Leg("a", 5, OUTPUT, 2)])
        assert moved.legs == (Leg("a", 5, OUTPUT, 2),)
        assert np.max(np.abs(moved.matrix - prep.matrix)) <= 1e-10
        for leg in (
            Leg("a", 1, INPUT, 2),  # would silently rebuild a result operator
            Leg("b", 1, OUTPUT, 2),
            Leg("a", 1, OUTPUT, 3),
        ):
            with pytest.raises(ot.ShapeMismatchError, match="does not match index"):
                ot.reconstruct(dt, fsets, legs=[leg])

    def test_zero_duotensor_reconstructs_zero(self, qubit_fiducials):
        dt = ot.Duotensor(
            (ot.DuoIndex("a", 1, INPUT, 2, WHITE),), np.zeros(4)
        )
        back = ot.reconstruct(dt, {"a": qubit_fiducials})
        assert np.max(np.abs(back.matrix)) == 0.0


class TestConvertDots:
    def test_round_trip_identity(self, rng, qubit_fiducials, qutrit_fiducials):
        fsets = {"a": qubit_fiducials, "b": qutrit_fiducials}
        indices = (
            ot.DuoIndex("a", 1, INPUT, 2, WHITE),
            ot.DuoIndex("b", 2, OUTPUT, 3, WHITE),
        )
        data = rng.standard_normal((4, 9))
        dt = ot.Duotensor(indices, data)
        there = ot.convert_dots(dt, BLACK, fsets)
        back = ot.convert_dots(there, WHITE, fsets)
        assert np.max(np.abs(back.data - data)) <= 1e-12
        assert there.colors == (BLACK, BLACK)

    def test_prep_white_to_black_gives_probabilities(self, qubit_fiducials):
        fsets = {"a": qubit_fiducials}
        prep = qubit_fiducials.prep_op(0, WireLabel("a", 1))
        dt = ot.decompose(prep, fsets)
        black = ot.convert_dots(dt, BLACK, fsets)
        assert np.max(np.abs(black.data - np.array([1.0, 0.0, 0.5, 0.5]))) < 1e-12

    def test_all_black_equals_fiducial_probabilities(self, rng, qubit_fiducials):
        """Metric consistency: black entries are circuit values with fiducials."""
        fsets = {"a": qubit_fiducials}
        op = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
        )
        black = ot.convert_dots(ot.decompose(op, fsets), BLACK, fsets)
        for i in range(4):
            for j in range(4):
                circuit_value = ot.circuit_trace(
                    [
                        qubit_fiducials.prep_op(i, WireLabel("a", 1)),
                        op,
                        qubit_fiducials.result_op(j, WireLabel("a", 2)),
                    ]
                ).scalar
                assert abs(black.data[i, j] - circuit_value) <= 1e-10

    def test_mixed_targets(self, qubit_fiducials):
        fsets = {"a": qubit_fiducials}
        dt = ot.Duotensor((ot.DuoIndex("a", 1, INPUT, 2, WHITE),), np.ones(4))
        mixed = ot.convert_dots(dt, [BLACK], fsets)
        assert mixed.colors == (BLACK,)


class TestWireDecomposition:
    def test_qubit(self):
        assert ot.wire_decomposition_check(SystemType("a", 2))

    def test_qutrit(self):
        assert ot.wire_decomposition_check(SystemType("a", 3))

    def test_perturbed_metric_fails(self, qubit_fiducials):
        from dataclasses import replace

        bad_inv = qubit_fiducials.metric_inv * 1.01
        tampered = replace(qubit_fiducials, metric_inv=bad_inv)
        assert not ot.wire_decomposition_check(QUBIT, fset=tampered)


class TestValidation:
    def test_non_spanning_rejected(self, qubit_fiducials):
        repeated = (qubit_fiducials.preps[0],) * 4
        with pytest.raises(ot.SingularBasisError):
            ot.make_fiducials(QUBIT, repeated, qubit_fiducials.results)

    def test_non_physical_prep_rejected(self, qubit_fiducials):
        bloated = ot.LabeledOperator(
            (Leg("a", 1, OUTPUT, 2),), 3.0 * np.eye(2)
        )
        preps = (bloated,) + qubit_fiducials.preps[1:]
        with pytest.raises(ot.SingularBasisError):
            ot.make_fiducials(QUBIT, preps, qubit_fiducials.results)

    def test_fiducial_leg_roles_checked(self, qubit_fiducials):
        results = qubit_fiducials.results
        with pytest.raises(ot.SingularBasisError, match="exactly one output leg"):
            ot.make_fiducials(QUBIT, results, results)

    def test_fiducial_dims_checked(self, qubit_fiducials, qutrit_fiducials):
        with pytest.raises(ot.DimMismatchError):
            compute_hopping_metric(qubit_fiducials.preps, qutrit_fiducials.results)

    def test_ill_conditioned_gram_warns(self, qubit_fiducials):
        """|0>, |1>, |+> and a state 1e-5 from |+> span, with a Gram
        condition number near 1e10: building the set warns, decomposing does not."""
        v = np.array([1.0, np.exp(1e-5j)]) / np.sqrt(2)
        near_plus = LabeledOperator(qubit_fiducials.preps[2].legs, np.outer(v, v.conj()))
        preps = qubit_fiducials.preps[:3] + (near_plus,)
        with pytest.warns(ot.ConditioningWarning, match="condition number"):
            fset = ot.make_fiducials(QUBIT, preps, qubit_fiducials.results)
        prep = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ot.ConditioningWarning)
            ot.decompose(prep, {"a": fset})


class TestSerialization:
    def test_dump_and_load(self, tmp_path, qubit_fiducials):
        ot.dump_fiducials(qubit_fiducials, tmp_path / "fid")
        again = ot.load_fiducials(tmp_path / "fid")
        assert np.max(np.abs(again.metric - qubit_fiducials.metric)) < 1e-12
        for a, b in zip(again.preps, qubit_fiducials.preps):
            assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("type", 1, "field 'type' must be a string, got 1"),
            ("dim", 2.9, "field 'dim' must be an integer, got 2.9"),
            ("metric", "0.5", "field 'metric' entries must be numbers, got '0.5'"),
        ],
    )
    def test_manifest_with_a_wrongly_typed_field_rejected(
        self, tmp_path, qubit_fiducials, field, bad, message
    ):
        ot.dump_fiducials(qubit_fiducials, tmp_path / "fid")
        path = tmp_path / "fid" / "manifest.json"
        manifest = json.loads(path.read_text())
        if field == "metric":
            manifest["metric"][0][0] = bad
        else:
            manifest[field] = bad
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as caught:
            ot.load_fiducials(tmp_path / "fid")
        assert str(caught.value) == message

    def test_duotensor_json_round_trip(self, rng):
        from optensor.duotensor import duotensor_from_json_dict, duotensor_to_json_dict

        dt = ot.Duotensor(
            (
                ot.DuoIndex("a", 1, INPUT, 2, BLACK),
                ot.DuoIndex("b", 2, OUTPUT, 3, WHITE),
            ),
            rng.standard_normal((4, 9)),
        )
        again = duotensor_from_json_dict(duotensor_to_json_dict(dt))
        assert again.indices == dt.indices
        assert np.array_equal(again.data, dt.data)

    @pytest.mark.parametrize(
        "key, value, message",
        [("role", "inptu", "role must be 'input' or 'output', got 'inptu'"), ("dim", 0, "dim >= 1")]
        + [
            (key, bad, f"field {key!r} must be an integer, got {bad!r}")
            for key in ("id", "dim")
            for bad in (2.9, True, "2")
        ]
        + [(key, 7, f"field {key!r} must be a string, got 7") for key in ("type", "role", "color")],
    )
    def test_duotensor_json_with_a_bad_index_rejected(self, key, value, message):
        from optensor.duotensor import duotensor_from_json_dict, duotensor_to_json_dict

        dt = ot.Duotensor((ot.DuoIndex("a", 1, INPUT, 2, WHITE),), np.zeros(4))
        data = duotensor_to_json_dict(dt)
        data["indices"][0][key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            duotensor_from_json_dict(data)

    @pytest.mark.parametrize("bad", ["0.25", True, [0.25]])
    def test_duotensor_json_with_a_non_number_entry_rejected(self, bad):
        from optensor.duotensor import duotensor_from_json_dict, duotensor_to_json_dict

        dt = ot.Duotensor((ot.DuoIndex("a", 1, INPUT, 2, WHITE),), np.zeros(4))
        data = duotensor_to_json_dict(dt)
        data["data"][0] = bad
        with pytest.raises(ValueError) as caught:
            duotensor_from_json_dict(data)
        assert str(caught.value) == f"field 'data' entries must be numbers, got {bad!r}"


def test_fiducial_set_deepcopies():
    fset = ot.default_fiducials(QUBIT)
    again = copy.deepcopy(fset)
    assert [op.legs for op in again.preps] == [op.legs for op in fset.preps]
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(again.results, fset.results))
    assert np.array_equal(again.metric, fset.metric)


class TestStoredFamilies:
    """A fiducial set holds each family's stack and Gram dual, read-only."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stacks_are_the_family_matrices(self, d):
        fset = ot.default_fiducials(SystemType("a", d))
        for stack, family in ((fset.prep_stack, fset.preps), (fset.result_stack, fset.results)):
            want = np.stack([op.matrix for op in family])
            assert not stack.flags.writeable
            assert (stack.dtype, stack.shape) == (want.dtype, want.shape)
            assert stack.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_duals_invert_the_gram_matrices(self, d):
        fset = ot.default_fiducials(SystemType("a", d))
        for stack, dual in ((fset.prep_stack, fset.prep_dual), (fset.result_stack, fset.result_dual)):
            gram = np.einsum("jab,lba->jl", stack, stack).real
            assert not dual.flags.writeable
            assert np.max(np.abs(dual @ gram - np.eye(fset.k))) <= 1e-12

    def test_conversions_stack_solve_and_cond_nothing(self, monkeypatch):
        op = signature_op(("a", "b"), ("b",), seed=2)
        fsets = ot.default_fiducials_for(op)
        calls = {
            name: count_calls(monkeypatch, module, name)
            for module, name in ((np, "stack"), (np.linalg, "solve"), (np.linalg, "cond"))
        }
        white = ot.decompose(op, fsets)
        ot.probe(ot.ExactBlackBox(op), fsets)
        ot.reconstruct(white, fsets, legs=op.legs)
        ot.reconstruct_operation(ot.SampledBlackBox(op, 100, seed=1), fsets)
        assert {name: len(c) for name, c in calls.items()} == {"stack": 0, "solve": 0, "cond": 0}
        # the spies do see a set being built
        fset = fsets["a"]
        ot.make_fiducials(fset.sys_type, fset.preps, fset.results)
        assert len(calls["stack"]) > 0 and len(calls["cond"]) == 2


def test_shape_mismatch():
    with pytest.raises(ot.ShapeMismatchError):
        ot.Duotensor((ot.DuoIndex("a", 1, INPUT, 2, WHITE),), np.zeros(5))


def test_data_is_a_read_only_copy():
    data = np.arange(4.0)
    dt = ot.Duotensor((ot.DuoIndex("a", 1, INPUT, 2, WHITE),), data)
    assert data.flags.writeable and not dt.data.flags.writeable
    data[0] = 7.0
    assert dt.data[0] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_rejected(bad):
    with pytest.raises(ValueError, match="duotensor data must be finite"):
        ot.Duotensor((ot.DuoIndex("a", 1, INPUT, 2, WHITE),), [0.0, bad, 0.0, 0.0])


class TestFiducialOverlaps:
    def test_real_overlaps_of_hermitian_operands(self, rng, qubit_fiducials):
        op = ot.random_preparation([Leg("a", 1, OUTPUT, 2), Leg("a", 2, OUTPUT, 2)], rng)
        stacks = [_fiducial_stack({"a": qubit_fiducials}, leg) for leg in op.legs]
        overlaps = _fiducial_overlaps(op, stacks)
        assert overlaps.dtype == np.float64
        want = np.einsum("iab,jcd,bdac->ij", *stacks, op.tensor()).real
        np.testing.assert_allclose(overlaps, want, atol=1e-15)

    def test_imaginary_residue_raises(self, rng, qubit_fiducials):
        op = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
        stack = _fiducial_stack({"a": qubit_fiducials}, op.legs[0])
        residue = float(np.max(_fiducial_overlaps(op, [stack])))
        message = f"imaginary residue {residue:.3e} beyond tol=1.0e-10"
        with pytest.raises(ot.NonHermitianError, match=re.escape(message)):
            _fiducial_overlaps(op, [1j * stack])

    def test_large_channels_decompose_probe_and_reconstruct(self, rng, qutrit_fiducials):
        # above unit scale the residue is judged relative to the overlaps, as
        # the operator constructor judges a Hermiticity deviation
        fsets = {"b": qutrit_fiducials}
        for _ in range(10):
            chan = ot.random_physical_transformation(
                [Leg("b", 1, INPUT, 3)], [Leg("b", 2, OUTPUT, 3)], rng
            )
            big = LabeledOperator(chan.legs, 1e8 * chan.matrix)
            scale = float(np.max(np.abs(big.matrix)))
            black = ot.probe(ot.ExactBlackBox(big), fsets)
            unit = ot.probe(ot.ExactBlackBox(chan), fsets)
            np.testing.assert_allclose(black.data, 1e8 * unit.data, rtol=0, atol=1e-12 * scale)
            rebuilt = ot.reconstruct(ot.decompose(big, fsets), fsets)
            recovered = ot.reconstruct_operation(ot.ExactBlackBox(big), fsets)
            for op in (rebuilt, recovered):
                assert np.max(np.abs(op.matrix - big.matrix)) <= 1e-12 * scale

    def test_relative_residue_raises_at_large_scale(self, rng, qutrit_fiducials):
        chan = ot.random_physical_transformation(
            [Leg("b", 1, INPUT, 3)], [Leg("b", 2, OUTPUT, 3)], rng
        )
        big = LabeledOperator(chan.legs, 1e8 * chan.matrix)
        stacks = [_fiducial_stack({"b": qutrit_fiducials}, leg) for leg in big.legs]
        skewed = [stacks[0] * (1 + 1e-6j), stacks[1]]  # residue 1e-6 of each overlap
        with pytest.raises(ot.NonHermitianError, match="fiducial overlaps have imaginary residue"):
            _fiducial_overlaps(big, skewed)
