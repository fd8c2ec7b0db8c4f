"""Labeled-operator arithmetic: tensor products, partial trace/transpose,
eigenvalues, random generators, and the file format."""

import copy
import itertools
import json
import pickle

import numpy as np
import pytest

import optensor as ot
from optensor import LabeledOperator, Leg, WireLabel
from optensor.notation import INPUT, OUTPUT


def op_out(sys, wid, matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return LabeledOperator((Leg(sys, wid, OUTPUT, matrix.shape[0]),), matrix)


def op_in(sys, wid, matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return LabeledOperator((Leg(sys, wid, INPUT, matrix.shape[0]),), matrix)


P0 = np.array([[1, 0], [0, 0]])
P1 = np.array([[0, 0], [0, 1]])
PHI_PLUS = 0.5 * np.outer([1, 0, 0, 1], [1, 0, 0, 1])


class TestConstruction:
    def test_hermiticity_enforced(self):
        with pytest.raises(ot.NonHermitianError):
            op_out("a", 1, [[0, 1], [0, 0]])

    def test_small_noise_symmetrized(self):
        noisy = np.array([[1.0, 1e-12j], [0.0, 0.0]])
        op = op_out("a", 1, noisy)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) == 0.0

    def test_large_scale_noise_symmetrized(self, rng):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        hermitian = 1e6 * (h + h.conj().T)
        n = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noise = 1e-9 * (n - n.conj().T)  # anti-Hermitian
        assert np.max(np.abs(noise)) > 1e-10
        op = LabeledOperator((Leg("a", 1, OUTPUT, 2), Leg("a", 2, OUTPUT, 2)), hermitian + noise)
        assert np.array_equal(op.matrix, op.matrix.conj().T)
        np.testing.assert_allclose(op.matrix, hermitian, rtol=0, atol=1e-8)

    def test_unit_scale_tolerance_is_absolute(self):
        for matrix in ([[0.5, 0.5], [0.5 + 2e-10, 0.5]], [[1.0, 2e-10j], [0.0, 0.0]]):
            with pytest.raises(ot.NonHermitianError, match="exceeds tol=1.0e-10"):
                op_out("a", 1, matrix)
        op_out("a", 1, [[1.0, 0.9e-10j], [0.0, 0.0]])

    def test_tolerance_is_relative_above_unit_scale(self):
        op_out("a", 1, [[100.0, 5e-9], [0.0, 0.0]])
        with pytest.raises(ot.NonHermitianError):
            op_out("a", 1, [[100.0, 2e-8], [0.0, 0.0]])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ot.DuplicateLabelError):
            LabeledOperator(
                (Leg("a", 1, INPUT, 2), Leg("a", 1, OUTPUT, 2)), np.eye(4)
            )

    def test_shape_must_match_dims(self):
        with pytest.raises(ot.DimMismatchError):
            LabeledOperator((Leg("a", 1, OUTPUT, 3),), np.eye(2))

    def test_immutable(self):
        op = op_out("a", 1, P0)
        with pytest.raises(AttributeError):
            op.tol = 0.5
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda op: pickle.loads(pickle.dumps(op))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_rebuild_through_the_constructor(self, rng, clone):
        op = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)], rng
        )
        report = ot.is_physical(op)
        again = clone(op)
        assert again is not op and again.legs == op.legs
        assert np.array_equal(again.matrix, op.matrix) and not again.matrix.flags.writeable
        assert not hasattr(again, "_margins")  # the cached margins stay behind
        assert ot.is_physical(again) == report

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            op_out("a", 1, [[np.nan, 0], [0, 0]])


class TestRearrangement:
    def test_relabeled_reuses_the_matrix(self, rng):
        op = ot.random_physical_transformation([Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)], rng)
        moved = op.relabeled({1: WireLabel("a", 7), 2: 8})
        assert moved.matrix is op.matrix
        assert [str(leg) for leg in moved.legs] == ["a7:inp", "b8:out"]

    def test_relabeled_collision_rejected(self, rng):
        op = ot.random_physical_transformation([Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng)
        with pytest.raises(ot.DuplicateLabelError):
            op.relabeled({1: 2})

    def test_permuted_matches_constructor_bit_for_bit(self, rng):
        """The unchecked permutation gives the bytes a full construction gives."""
        in_legs = [Leg("a", 1, INPUT, 2), Leg("b", 2, INPUT, 3)]
        out_legs = [Leg("b", 3, OUTPUT, 3), Leg("a", 4, OUTPUT, 2)]
        ops = [
            ot.random_physical_transformation(in_legs, out_legs, rng),
            ot.random_physical_transformation(in_legs[:1], out_legs, rng, trace_preserving=True),
            ot.contract_pair(
                ot.identity_transformation(WireLabel("b", 2), WireLabel("b", 3), 3),
                ot.random_preparation([Leg("a", 4, OUTPUT, 2)], rng),
            ),
        ]
        for op in ops:
            k = len(op.legs)
            for perm in itertools.permutations(range(k)):
                new = op.permuted([op.ids[p] for p in perm])
                tensor = op.tensor().transpose(list(perm) + [p + k for p in perm])
                old = LabeledOperator(new.legs, tensor.reshape(op.dim, op.dim))
                assert new.matrix.tobytes() == old.matrix.tobytes()
                assert not new.matrix.flags.writeable


class TestTensorProduct:
    def test_identity_times_identity(self):
        a = op_out("a", 1, np.eye(2))
        b = op_out("b", 2, np.eye(3))
        prod = ot.contract_pair(a, b)
        assert np.array_equal(prod.matrix, np.eye(6))
        assert prod.ids == (1, 2)

    def test_basis_projectors(self):
        prod = ot.contract_pair(op_out("a", 1, P0), op_out("b", 2, P1))
        assert np.array_equal(np.diag(prod.matrix).real, [0, 1, 0, 0])

    def test_commutes_up_to_permutation(self, rng):
        for _ in range(10):
            a = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
            b = ot.random_preparation([Leg("b", 2, OUTPUT, 3)], rng)
            ab = ot.contract_pair(a, b)
            ba = ot.contract_pair(b, a).permuted([1, 2])
            # permutation-matrix oracle: P (B x A) P^T == A x B
            d_a, d_b = 2, 3
            perm = np.zeros((6, 6))
            for i in range(d_b):
                for j in range(d_a):
                    perm[j * d_b + i, i * d_a + j] = 1.0
            direct = perm @ np.kron(b.matrix, a.matrix) @ perm.T
            assert np.max(np.abs(ab.matrix - ba.matrix)) < 1e-14
            assert np.max(np.abs(ab.matrix - direct)) < 1e-14


class TestPartialTrace:
    def test_bell_marginal(self):
        bell = LabeledOperator(
            (Leg("a", 1, OUTPUT, 2), Leg("b", 2, OUTPUT, 2)), PHI_PLUS
        )
        marginal = ot.partial_trace(bell, [2])
        assert marginal.ids == (1,)
        assert np.max(np.abs(marginal.matrix - np.eye(2) / 2)) < 1e-15

    def test_product_rule(self, rng):
        for _ in range(10):
            a = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
            b = ot.random_preparation([Leg("b", 2, OUTPUT, 3)], rng)
            traced = ot.partial_trace(ot.contract_pair(a, b), [2])
            expected = a.matrix * np.trace(b.matrix)
            assert np.max(np.abs(traced.matrix - expected)) < 1e-14

    def test_swap_trace_is_dimension(self):
        for n in (2, 3, 4):
            swap = identity_swap(n)
            total = ot.partial_trace(swap, [1, 2])
            # summation oracle: Tr SWAP = sum_ij [i==j]
            oracle = sum(1.0 for i in range(n) for j in range(n) if i == j)
            assert abs(total.scalar - oracle) < 1e-14
            assert oracle == n

    def test_unknown_label(self):
        with pytest.raises(ot.UnknownLabelError):
            ot.partial_trace(op_out("a", 1, P0), [9])

    def test_full_trace_returns_scalar(self):
        op = op_out("a", 1, np.eye(2))
        assert ot.partial_trace(op, [1]).scalar == 2.0


def identity_swap(n):
    return ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), n)


class TestPartialTranspose:
    def test_identity_fixed(self):
        op = op_in("a", 1, np.eye(3))
        assert np.array_equal(ot.partial_transpose(op, [1]).matrix, np.eye(3))

    def test_involution(self, rng):
        op = ot.random_preparation(
            [Leg("a", 1, OUTPUT, 2), Leg("b", 2, OUTPUT, 3)], rng
        )
        twice = ot.partial_transpose(ot.partial_transpose(op, [1]), [1])
        assert np.max(np.abs(twice.matrix - op.matrix)) < 1e-15

    def test_swap_transposes_to_entangled_projector(self):
        swap = identity_swap(2)
        pt = ot.partial_transpose(swap, [1])
        # entrywise oracle: sum_ij |j><i| x |j><i|
        oracle = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                ket = np.zeros(2)
                bra = np.zeros(2)
                ket[j] = 1
                bra[i] = 1
                oracle += np.kron(np.outer(ket, bra), np.outer(ket, bra))
        assert np.max(np.abs(pt.matrix - oracle)) < 1e-15
        assert np.max(np.abs(pt.matrix - 2 * PHI_PLUS)) < 1e-15

    def test_peres_negative_eigenvalue(self):
        bell = LabeledOperator(
            (Leg("a", 1, OUTPUT, 2), Leg("b", 2, OUTPUT, 2)), PHI_PLUS
        )
        pt = ot.partial_transpose(bell, [1])
        assert abs(ot.min_eigenvalue(pt) - (-0.5)) < 1e-12

    def test_transpose_inside_trace_invisible(self, rng):
        op = ot.random_preparation(
            [Leg("a", 1, OUTPUT, 2), Leg("b", 2, OUTPUT, 3)], rng
        )
        for subset in ([1], [2], [1, 2]):
            a = ot.partial_trace(ot.partial_transpose(op, subset), subset)
            b = ot.partial_trace(op, subset)
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-14


class TestEigenvalues:
    def test_identity(self):
        assert ot.min_eigenvalue(op_in("a", 1, np.eye(4))) == 1.0

    def test_diagonal(self):
        assert ot.min_eigenvalue(op_in("a", 1, np.diag([3.0, -2.0]))) == -2.0
        assert ot.max_eigenvalue(op_in("a", 1, np.diag([3.0, -2.0]))) == 3.0

    def test_shift_invariance(self, rng):
        for _ in range(10):
            op = ot.random_result([Leg("a", 1, INPUT, 4)], rng)
            lam = ot.min_eigenvalue(op)
            shifted = LabeledOperator(op.legs, op.matrix - lam * np.eye(4))
            assert ot.min_eigenvalue(shifted) >= -1e-12


class TestInvariants:
    def test_hermiticity_preserved(self, rng):
        a = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
        b = ot.random_preparation([Leg("b", 2, OUTPUT, 3)], rng)
        for op in (
            ot.contract_pair(a, b),
            ot.partial_trace(ot.contract_pair(a, b), [1]),
            ot.partial_transpose(ot.contract_pair(a, b), [2]),
        ):
            assert np.max(np.abs(op.matrix - op.matrix.conj().T)) == 0.0

    def test_trace_multiplicative(self, rng):
        for _ in range(10):
            a = ot.random_result([Leg("a", 1, INPUT, 3)], rng)
            b = ot.random_result([Leg("b", 2, INPUT, 2)], rng)
            lhs = np.trace(ot.contract_pair(a, b).matrix)
            rhs = np.trace(a.matrix) * np.trace(b.matrix)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestRandomGenerators:
    def test_reproducible_bit_for_bit(self):
        legs_in = [Leg("a", 1, INPUT, 2)]
        legs_out = [Leg("b", 2, OUTPUT, 3)]
        one = ot.random_physical_transformation(legs_in, legs_out, seed=42)
        two = ot.random_physical_transformation(legs_in, legs_out, seed=42)
        assert np.array_equal(one.matrix, two.matrix)

    def test_generated_operators_are_physical(self, rng):
        for k in range(10):
            op = ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)], rng
            )
            report = ot.is_physical(op, 1e-10)
            assert report.physical, report

    def test_trace_preserving_gives_identity_output_trace(self, rng):
        for dims in ((2, 2), (3, 2), (6, 2)):
            op = ot.random_physical_transformation(
                [Leg("a", 1, INPUT, dims[0])],
                [Leg("b", 2, OUTPUT, dims[1])],
                rng,
                trace_preserving=True,
            )
            traced = ot.output_trace(op)
            assert np.max(np.abs(traced.matrix - np.eye(dims[0]))) <= 1e-12

    def test_random_preparation_and_result_are_physical(self, rng):
        prep = ot.random_preparation([Leg("a", 1, OUTPUT, 3)], rng)
        assert ot.is_physical(prep).physical
        result = ot.random_result([Leg("a", 1, INPUT, 3)], rng)
        assert ot.is_physical(result).physical


class TestSerialization:
    def test_round_trip_exact(self, rng):
        op = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("c", 5, OUTPUT, 3)], rng
        )
        again = ot.loads(ot.dumps(op))
        assert again.legs == op.legs
        assert np.array_equal(again.matrix, op.matrix)  # bit exact

    def test_format_fields(self):
        payload = ot.to_json_dict(op_out("a", 3, P0))
        assert payload["labels"] == [
            {"id": "a3", "type": "a", "dim": 2, "role": "output"}
        ]
        assert payload["matrix"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]

    def test_file_round_trip(self, tmp_path, rng):
        op = ot.random_preparation([Leg("a", 1, OUTPUT, 3)], rng)
        ot.save(op, tmp_path / "op.json")
        again = ot.load(tmp_path / "op.json")
        assert np.array_equal(again.matrix, op.matrix)

    @pytest.mark.parametrize("bad", [2.9, True, "2"])
    def test_non_integer_dim_rejected(self, bad):
        payload = ot.to_json_dict(op_out("a", 1, P0))
        payload["labels"][0]["dim"] = bad
        with pytest.raises(ValueError, match=f"field 'dim' must be an integer, got {bad!r}"):
            ot.loads(json.dumps(payload))

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("type", 1, "field 'type' must be a string, got 1"),
            ("role", 1, "field 'role' must be a string, got 1"),
            ("matrix", [True, False], "field 'matrix' entries must be numbers, got True"),
            ("matrix", ["0.25", 0], "field 'matrix' entries must be numbers, got '0.25'"),
        ],
    )
    def test_non_string_label_or_non_number_entry_rejected(self, field, bad, message):
        payload = ot.to_json_dict(op_out("a", 1, P0))
        if field == "matrix":
            payload["matrix"][0] = bad
        else:
            payload["labels"][0][field] = bad
        with pytest.raises(ValueError) as caught:
            ot.loads(json.dumps(payload))
        assert str(caught.value) == message

    def test_bad_label_id_rejected(self):
        payload = ot.to_json_dict(op_out("a", 1, P0))
        payload["labels"][0]["id"] = "b1"
        with pytest.raises(ValueError):
            ot.from_json_dict(payload)

    # an Arabic-Indic one passes str.isdigit and int(), a superscript two
    # passes str.isdigit only, and an integer is not a string
    @pytest.mark.parametrize("bad", ["a\u0661", "a\u00b2", 1])
    def test_label_id_needs_ascii_digits(self, bad):
        payload = ot.to_json_dict(op_out("a", 1, P0))
        payload["labels"][0]["id"] = bad
        message = f"field 'id' must be the type 'a' followed by ASCII digits, got {bad!r}"
        with pytest.raises(ValueError) as caught:
            ot.loads(json.dumps(payload))
        assert str(caught.value) == message
