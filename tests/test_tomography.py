"""Process tomography: exact linear inversion and shot-noise behaviour."""

import re

import numpy as np
import pytest

import optensor as ot
from optensor import Leg, SystemType, WireLabel, evaluator, tomography
from optensor.cli import main
from optensor.contraction import circuit_trace
from optensor.duotensor import _fiducial_stack, _per_leg
from optensor.notation import INPUT, OUTPUT
from conftest import SIGNATURES, count_calls, reference_sandwich_check, signature_op


@pytest.fixture(scope="module")
def fsets():
    return {"a": ot.default_fiducials(SystemType("a", 2))}


def qubit_channel(seed, trace_preserving=False):
    return ot.random_physical_transformation(
        [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], seed,
        trace_preserving=trace_preserving,
    )


class TestProbe:
    def test_identity_channel_diagonal_entry(self, fsets):
        swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        black = ot.probe(ot.ExactBlackBox(swap), fsets)
        assert black.data[0, 0] == pytest.approx(1.0)  # |0> in, |0> found
        assert black.data[0, 1] == pytest.approx(0.0)

    def test_depolarizing_channel_flat(self, fsets):
        kraus = [
            0.5 * np.eye(2),
            0.5 * np.array([[0, 1], [1, 0]]),
            0.5 * np.array([[0, -1j], [1j, 0]]),
            0.5 * np.array([[1, 0], [0, -1]]),
        ]
        chan = ot.operator_from_kraus(
            kraus, [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)]
        )
        black = ot.probe(ot.ExactBlackBox(chan), fsets)
        # every rank-one result sees the maximally mixed state
        assert np.max(np.abs(black.data - 0.5)) < 1e-12

    def test_probe_matches_decomposition(self, fsets, rng):
        op = qubit_channel(rng)
        black = ot.probe(ot.ExactBlackBox(op), fsets)
        expected = ot.convert_dots(ot.decompose(op, fsets), "black", fsets)
        assert np.max(np.abs(black.data - expected.data)) <= 1e-10

    def test_exact_values_are_probabilities(self, fsets, rng):
        for _ in range(5):
            op = qubit_channel(rng)
            black = ot.probe(ot.ExactBlackBox(op), fsets)
            assert black.data.min() >= -1e-10
            assert black.data.max() <= 1 + 1e-10


class TestExactReconstruction:
    def test_identity_channel(self, fsets):
        swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        recovered = ot.reconstruct_operation(ot.ExactBlackBox(swap), fsets)
        assert np.max(np.abs(recovered.matrix - swap.matrix)) <= 1e-10

    def test_random_channels(self, rng, fsets):
        for _ in range(5):
            hidden = qubit_channel(rng)
            recovered = ot.reconstruct_operation(ot.ExactBlackBox(hidden), fsets)
            assert np.max(np.abs(recovered.matrix - hidden.matrix)) <= 1e-10

    def test_zero_input_box(self, fsets):
        plus = 0.5 * np.array([[1, 1], [1, 1]])
        hidden = ot.LabeledOperator((Leg("a", 1, OUTPUT, 2),), plus)
        recovered = ot.reconstruct_operation(ot.ExactBlackBox(hidden), fsets)
        assert np.max(np.abs(recovered.matrix - plus)) <= 1e-10

    def test_works_for_nonphysical_hermitian(self, rng, fsets):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        herm = 0.5 * (raw + raw.conj().T)
        hidden = ot.LabeledOperator(
            (Leg("a", 1, INPUT, 2), Leg("a", 2, OUTPUT, 2)), herm
        )
        recovered = ot.reconstruct_operation(ot.ExactBlackBox(hidden), fsets)
        assert np.max(np.abs(recovered.matrix - herm)) <= 1e-10


def shot_noise_amplification(fsets, signature, shots):
    """Crude propagated-noise scale: per-entry binomial sigma blown up by the
    inverse-metric conversion on each leg."""
    sigma = np.sqrt(0.25 / shots)
    amplification = 1.0
    total_settings = 1.0
    for leg in signature:
        amplification *= np.linalg.norm(fsets[leg.sys].metric_inv, 2)
        total_settings *= fsets[leg.sys].k
    return sigma * amplification * np.sqrt(total_settings)


class TestSampledReconstruction:
    def test_regression_bound_at_1e6_shots(self, fsets):
        hidden = qubit_channel(seed=5)
        box = ot.SampledBlackBox(hidden, shots=10**6, seed=0)
        recovered = ot.reconstruct_operation(box, fsets)
        error = np.max(np.abs(recovered.matrix - hidden.matrix))
        assert error <= 0.02

    def test_schedule_independent_noise(self, fsets):
        hidden = qubit_channel(seed=5)
        box = ot.SampledBlackBox(hidden, shots=1000, seed=3)
        a = box.probability((1, 2), fsets)
        b = box.probability((1, 2), fsets)
        assert a == b  # one memoized array, not a shared cursor

    def test_error_decreases_with_shots(self, fsets):
        hidden = qubit_channel(seed=9)
        wins = 0
        for seed in range(10):
            few = ot.reconstruct_operation(
                ot.SampledBlackBox(hidden, shots=10**4, seed=seed), fsets
            )
            many = ot.reconstruct_operation(
                ot.SampledBlackBox(hidden, shots=10**6, seed=seed), fsets
            )
            err_few = np.max(np.abs(few.matrix - hidden.matrix))
            err_many = np.max(np.abs(many.matrix - hidden.matrix))
            if err_many < err_few:
                wins += 1
        assert wins >= 9

    def test_noisy_reconstruction_nearly_physical(self, fsets):
        hidden = qubit_channel(seed=21, trace_preserving=True)
        shots = 10**6
        box = ot.SampledBlackBox(hidden, shots=shots, seed=1)
        recovered = ot.reconstruct_operation(box, fsets)
        eps = 3.0 * shot_noise_amplification(fsets, hidden.legs, shots)
        report = ot.is_physical(recovered, eps=eps)
        assert report.physical, (report, eps)


# ---------------------------------------------------------------------------
# Per-setting reference: one fiducial circuit built and contracted per setting


def _fiducial_circuit_value(hidden, setting, fsets):
    ops = [hidden]
    for leg, index in zip(hidden.legs, setting):
        fset = fsets[leg.sys]
        if leg.role == INPUT:
            ops.append(fset.prep_op(index, leg.wire))
        else:
            ops.append(fset.result_op(index, leg.wire))
    return circuit_trace(ops).scalar


def reference_probe(hidden, fsets):
    shape = tuple(fsets[leg.sys].k for leg in hidden.legs)
    data = np.empty(shape)
    for setting in np.ndindex(*shape):
        data[setting] = _fiducial_circuit_value(hidden, setting, fsets)
    return data


def rotated_fiducials(fset, seed):
    """The set's projectors conjugated by one random unitary."""
    u = ot.random_unitary(fset.sys_type.dim, seed)

    def rotate(ops):
        return [ot.LabeledOperator(op.legs, u @ op.matrix @ u.conj().T) for op in ops]

    return ot.make_fiducials(fset.sys_type, rotate(fset.preps), rotate(fset.results))


class TestProbeOracle:
    @pytest.mark.parametrize("ins, outs", SIGNATURES)
    def test_matches_per_setting_circuits(self, ins, outs):
        op = signature_op(ins, outs, seed=len(ins) * 10 + len(outs))
        fsets = ot.default_fiducials_for(op)
        black = ot.probe(ot.ExactBlackBox(op), fsets)
        assert np.max(np.abs(black.data - reference_probe(op, fsets))) <= 1e-12

    def test_one_box_two_fiducial_sets(self):
        op = signature_op(("a",), ("a",), seed=11)
        default = {"a": ot.default_fiducials(SystemType("a", 2))}
        rotated = {"a": rotated_fiducials(default["a"], seed=12)}
        box = ot.ExactBlackBox(op)
        first = ot.probe(box, default).data
        second = ot.probe(box, rotated).data
        again = ot.probe(box, default).data
        assert np.max(np.abs(first - reference_probe(op, default))) <= 1e-12
        assert np.max(np.abs(second - reference_probe(op, rotated))) <= 1e-12
        assert np.max(np.abs(first - second)) > 1e-3
        assert np.array_equal(again, first)

    @pytest.mark.parametrize(
        "legs, fsets, message",
        [
            (
                (Leg("a", 1, INPUT, 2), Leg("a", 2, OUTPUT, 2)),
                {"a": SystemType("a", 3)},
                "wire id 1 joins a(dim 2) to a(dim 3)",
            ),
            (
                (Leg("a", 1, INPUT, 2), Leg("b", 2, OUTPUT, 3)),
                {"a": SystemType("a", 2), "b": SystemType("b", 2)},
                "wire id 2 joins b(dim 3) to b(dim 2)",
            ),
        ],
    )
    def test_dim_mismatch(self, legs, fsets, message):
        op = ot.random_physical_transformation(legs[:1], legs[1:], seed=1)
        fsets = {name: ot.default_fiducials(t) for name, t in fsets.items()}
        with pytest.raises(ot.DimMismatchError, match=re.escape(message)):
            reference_probe(op, fsets)
        for box in (ot.ExactBlackBox(op), ot.SampledBlackBox(op, shots=100)):
            with pytest.raises(ot.DimMismatchError, match=re.escape(message)):
                ot.probe(box, fsets)


def test_cli_sampled_stdout_pinned(tmp_path, capsys):
    """Seeded CLI tomography prints the same bytes: one draw from default_rng(3)."""
    g = 0.3
    kraus = [np.array([[1, 0], [0, np.sqrt(1 - g)]]), np.array([[0, np.sqrt(g)], [0, 0]])]
    chan = ot.operator_from_kraus(kraus, [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)])
    ot.save(chan, tmp_path / "damping.json")
    argv = ["tomography", str(tmp_path / "damping.json"), "--shots", "10000", "--seed", "3"]
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "shots": 10000,\n  "seed": 3,\n  "max_entry_error": "2.190964399528e-02"\n}\n'
    )


SAMPLER_SEEDS = [0, 3, 2**31 - 1, 2**32, 2**64 + 5]
CHANNEL_SIGNATURES = [(("a",), ("a",)), (("a", "a"), ("a", "a")), (("b",), ("b",))]


class Wrapping:  # as a foreign box would, it asks the inner box per setting
    def __init__(self, box):
        self.box = box

    @property
    def signature(self):
        return self.box.signature

    def probability(self, setting, fsets):
        return self.box.probability(setting, fsets)


class TestSampledProbeOracle:
    @pytest.mark.parametrize("ins, outs", SIGNATURES)
    def test_one_seed_gives_one_array(self, ins, outs):
        op = signature_op(ins, outs, seed=len(ins) * 10 + len(outs))
        fsets = ot.default_fiducials_for(op)
        for seed in SAMPLER_SEEDS:
            for shots in (100, 10**6):
                black = ot.probe(ot.SampledBlackBox(op, shots, seed), fsets).data
                again = ot.probe(ot.SampledBlackBox(op, shots, seed), fsets).data
                assert np.array_equal(black, again)
                assert np.array_equal(np.round(black * shots) / shots, black)
                setting = (0,) * len(op.legs)
                box = ot.SampledBlackBox(op, shots, seed)
                assert box.probability(setting, fsets) == black[setting]

    @pytest.mark.parametrize("ins, outs", SIGNATURES)
    def test_wrapper_asked_in_shuffled_order_sees_the_direct_array(self, ins, outs):
        op = signature_op(ins, outs, seed=len(ins) * 10 + len(outs))
        fsets = ot.default_fiducials_for(op)
        direct = ot.probe(ot.SampledBlackBox(op, 1000, seed=7), fsets).data
        box = Wrapping(ot.SampledBlackBox(op, 1000, seed=7))
        order = list(np.ndindex(*direct.shape))
        np.random.default_rng(1).shuffle(order)
        for setting in order:
            assert box.probability(setting, fsets) == direct[setting]

    @pytest.mark.parametrize("ins, outs", SIGNATURES)
    def test_different_seeds_give_different_arrays(self, ins, outs):
        op = signature_op(ins, outs, seed=len(ins) * 10 + len(outs))
        fsets = ot.default_fiducials_for(op)
        arrays = [ot.probe(ot.SampledBlackBox(op, 1000, s), fsets).data for s in SAMPLER_SEEDS]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.array_equal(a, b)

    def test_overlaps_just_outside_0_and_1_are_clamped(self):
        # |0><0| pushed one ulp above 1 and |1><1| 1e-17 below 0
        prep = ot.LabeledOperator(
            (Leg("a", 1, OUTPUT, 2),), np.diag([1 + 2.3e-16, -1e-17])
        )
        fsets = ot.default_fiducials_for(prep)
        exact = ot.probe(ot.ExactBlackBox(prep), fsets).data
        assert exact[0] > 1 and exact[1] < 0
        with np.errstate(all="raise"):
            black = ot.probe(ot.SampledBlackBox(prep, 1000, seed=2), fsets).data
        assert (black[0], black[1]) == (1.0, 0.0)

    @pytest.mark.parametrize("ins, outs", CHANNEL_SIGNATURES)
    def test_bound_at_1e6_shots_over_seeds(self, ins, outs):
        dims = {"a": 2, "b": 3}
        legs = [Leg(t, k + 1, INPUT, dims[t]) for k, t in enumerate(ins)]
        legs += [Leg(t, len(ins) + k + 1, OUTPUT, dims[t]) for k, t in enumerate(outs)]
        for seed in range(5):
            hidden = ot.random_physical_transformation(legs[: len(ins)], legs[len(ins):], seed)
            fsets = ot.default_fiducials_for(hidden)
            recovered = ot.reconstruct_operation(ot.SampledBlackBox(hidden, 10**6, seed), fsets)
            assert np.max(np.abs(recovered.matrix - hidden.matrix)) <= 0.02

    def test_zero_leg_box(self):
        op = ot.LabeledOperator((), np.array([[0.37]]))
        for seed in SAMPLER_SEEDS:
            box = ot.SampledBlackBox(op, 1000, seed)
            black = ot.probe(box, {}).data
            assert black.shape == ()
            assert np.array_equal(black, ot.probe(ot.SampledBlackBox(op, 1000, seed), {}).data)
            assert box.probability((), {}) == black
            assert abs(black - 0.37) <= 0.1

    def test_seed_errors(self, fsets):
        op = qubit_channel(seed=5)
        with pytest.raises(ValueError):
            ot.probe(ot.SampledBlackBox(op, 100, seed=-1), fsets)
        for seed in (1.5, "3"):
            with pytest.raises(TypeError):
                ot.probe(ot.SampledBlackBox(op, 100, seed=seed), fsets)

    def test_shots_errors(self, fsets):
        op = qubit_channel(seed=5)
        for shots in (0, -3):
            with pytest.raises(ValueError, match="shots must be at least 1"):
                ot.probe(ot.SampledBlackBox(op, shots), fsets)
        for shots in (1.5, 100.0, "3"):
            with pytest.raises(TypeError, match="shots must be an integer"):
                ot.probe(ot.SampledBlackBox(op, shots), fsets)
        black = ot.probe(ot.SampledBlackBox(op, np.int64(1)), fsets).data
        assert set(np.unique(black)) <= {0.0, 1.0}

    def test_foreign_box_asked_every_setting_in_order(self, fsets):
        class Recording:
            def __init__(self, box):
                self.box, self.asked = box, []

            @property
            def signature(self):
                return self.box.signature

            def probability(self, setting, fsets):
                self.asked.append(setting)
                return self.box.probability(setting, fsets)

        inner = ot.SampledBlackBox(qubit_channel(seed=5), 1000, seed=3)
        box = Recording(inner)
        black = ot.probe(box, fsets).data
        assert box.asked == list(np.ndindex(4, 4))
        assert all(type(i) is int for setting in box.asked for i in setting)
        assert np.array_equal(black, ot.probe(inner, fsets).data)

    @pytest.mark.parametrize("ins, outs", SIGNATURES)
    def test_box_asked_setting_by_setting_computes_the_overlaps_once(
        self, ins, outs, monkeypatch
    ):
        op = signature_op(ins, outs, seed=len(ins) * 10 + len(outs))
        fsets = ot.default_fiducials_for(op)
        calls = count_calls(monkeypatch, tomography, "_fiducial_overlaps")
        for make in (lambda: ot.ExactBlackBox(op), lambda: ot.SampledBlackBox(op, 1000, seed=3)):
            want = ot.probe(make(), fsets).data
            calls.clear()
            black = ot.probe(Wrapping(make()), fsets).data
            assert np.array_equal(black, want)
            assert len(calls) == 1


# The per-leg fiducial kernel against the einsum expressions it replaced,
# kept verbatim apart from the reference names.


def _reference_overlaps(op, stacks):
    k = len(stacks)
    operands: list = [op.tensor(), list(range(2 * k))]
    for m, stack in enumerate(stacks):
        # Tr(F_j . op) on leg m: F's row meets op's bra, F's column the ket
        operands.extend([stack, [2 * k + m, k + m, m]])
    return np.einsum(*operands, list(range(2 * k, 3 * k)), optimize=True).real


def _reference_decompose(op, fsets):
    stacks = [_fiducial_stack(fsets, leg) for leg in op.legs]
    weights = _reference_overlaps(op, stacks)
    for m, stack in enumerate(stacks):
        gram = np.einsum("jab,lba->jl", stack, stack).real
        moved = np.moveaxis(weights, m, 0)
        solved = np.linalg.solve(gram, moved.reshape(gram.shape[0], -1)).reshape(moved.shape)
        weights = np.moveaxis(solved, 0, m)
    return weights


def _reference_reconstruct(data, fsets, legs):
    k = len(legs)
    operands: list = [data, list(range(k))]
    for m, leg in enumerate(legs):
        stack = _fiducial_stack(fsets, leg)
        operands.extend([stack, [m, k + m, 2 * k + m]])
    out = list(range(k, 2 * k)) + list(range(2 * k, 3 * k))
    raw = np.einsum(*operands, out, optimize=True)
    dim = int(np.prod([l.dim for l in legs])) if legs else 1
    return raw.reshape(dim, dim)


def _reference_convert_dots(dt, targets, fsets):
    data = dt.data
    for m, (ix, want) in enumerate(zip(dt.indices, targets)):
        if want == ix.color:
            continue
        fset = fsets[ix.sys]
        if want == ot.BLACK:
            matrix = fset.metric if ix.role == INPUT else fset.metric.T
        else:
            matrix = fset.metric_inv if ix.role == INPUT else fset.metric_inv.T
        data = np.moveaxis(np.tensordot(matrix, data, axes=([1], [m])), 0, m)
    return data


def _reference_per_leg(data, matrices):
    k = data.ndim
    operands: list = [data, list(range(k))]
    out = list(range(k))
    for m, matrix in enumerate(matrices):
        if matrix is not None:
            operands.extend([matrix, [k + m, m]])
            out[m] = k + m
    return np.einsum(*operands, out)


def _assert_close(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.max(np.abs(np.asarray(got) - want), initial=0.0) <= 1e-12


@pytest.mark.parametrize("ins, outs", SIGNATURES + [((), ())])
def test_per_leg_kernel_matches_einsum_references(ins, outs):
    """Decompose, reconstruct, exact probe, both dot conversions, the per-leg
    kernel on a non-contiguous input and sandwich sampling against the einsum
    expressions; the last case has no legs."""
    op = signature_op(ins, outs, seed=3) if ins or outs else ot.scalar_operator(0.75)
    fsets = ot.default_fiducials_for(op)
    white = ot.decompose(op, fsets)
    _assert_close(white.data, _reference_decompose(op, fsets))
    rebuilt = ot.reconstruct(white, fsets, legs=op.legs)
    _assert_close(rebuilt.matrix, _reference_reconstruct(white.data, fsets, op.legs))
    probing = [_fiducial_stack(fsets, leg, probing=True) for leg in op.legs]
    black = ot.probe(ot.ExactBlackBox(op), fsets)
    _assert_close(black.data, _reference_overlaps(op, probing))
    for source, target in ((white, ot.BLACK), (black, ot.WHITE)):
        converted = ot.convert_dots(source, target, fsets)
        targets = [target] * len(source.indices)
        _assert_close(converted.data, _reference_convert_dots(source, targets, fsets))
    # the kernel alone on a transposed, so non-contiguous, array, with a
    # rectangular matrix (K_out != K_in) on every leg but the second
    rng = np.random.default_rng(len(op.legs))
    data = rng.standard_normal(black.data.shape[::-1]).T
    matrices = [rng.standard_normal((kin + m + 1, kin)) for m, kin in enumerate(data.shape)]
    if len(matrices) > 1:
        matrices[1] = None
    _assert_close(_per_leg(data, matrices), _reference_per_leg(data, matrices))
    got = ot.sandwich_check(op, (1, 2, 4), samples=50, seed=4)
    want = reference_sandwich_check(op, (1, 2, 4), samples=50, seed=4)
    assert abs(got.min_sandwich - want.min_sandwich) <= 1e-12
    assert abs(got.max_trace_scalar - want.max_trace_scalar) <= 1e-12
    assert (got.passed, got.samples, got.ancilla_dims) == (
        want.passed, want.samples, want.ancilla_dims
    )


@pytest.mark.parametrize("ins, outs", SIGNATURES)
def test_per_leg_kernel_is_one_matmul_per_leg(ins, outs, monkeypatch):
    """No tensordot or moveaxis anywhere on the fiducial side, and one
    ``np.matmul`` per leg matrix that is not ``None``."""
    op = signature_op(ins, outs, seed=3)
    fsets = ot.default_fiducials_for(op)
    white = ot.decompose(op, fsets)
    targets = [ot.BLACK if m % 2 else ot.WHITE for m in range(len(op.legs))]
    ordered = op.permuted([l.id for l in op.input_legs + op.output_legs])
    counts = {name: count_calls(monkeypatch, np, name) for name in ("tensordot", "moveaxis")}
    matmuls = count_calls(monkeypatch, np, "matmul")
    k = len(op.legs)
    for call, legs_applied in (
        (lambda: ot.probe(ot.ExactBlackBox(op), fsets), k),
        (lambda: ot.decompose(op, fsets), 2 * k),  # the overlaps, then the Gram inverses
        (lambda: ot.convert_dots(white, targets, fsets), targets.count(ot.BLACK)),
        (lambda: ot.reconstruct(white, fsets, legs=op.legs), k),
        (lambda: evaluator._transfer_matrix(ordered), k),
    ):
        matmuls.clear()
        call()
        assert len(matmuls) == legs_applied
    assert counts == {"tensordot": [], "moveaxis": []}


def test_convert_dots_unchanged_index_needs_no_fiducials(rng, fsets):
    """Only recolored indices look up a fiducial set."""
    indices = (
        ot.DuoIndex("a", 1, INPUT, 2, ot.WHITE),
        ot.DuoIndex("z", 2, OUTPUT, 3, ot.BLACK),
        ot.DuoIndex("a", 3, OUTPUT, 2, ot.BLACK),
    )
    dt = ot.Duotensor(indices, rng.standard_normal((4, 9, 4)))
    targets = [ot.BLACK, ot.BLACK, ot.WHITE]
    converted = ot.convert_dots(dt, targets, fsets)
    assert converted.colors == tuple(targets)
    _assert_close(converted.data, _reference_convert_dots(dt, targets, fsets))
