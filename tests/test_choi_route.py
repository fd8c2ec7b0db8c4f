"""One route to the Choi form: bitwise parity with the validating implementations.

``partial_transpose`` moves entries of an exactly Hermitian matrix without
re-validating them, ``is_physical`` reads its trace excess from the array,
``sandwich_check`` and ``witness_nonphysical`` take the Choi matrix and the
output trace from ``input_transpose`` and ``output_trace``, ``make_fiducials``
tests its elements with ``is_physical``, and ``identity_transformation`` is
the identity's ``unitary_channel``.  Each reference below is the earlier
implementation kept verbatim; every result must be equal bit for bit.
"""

import numpy as np
import pytest

import optensor as ot
from optensor import LabeledOperator, Leg, SystemType, WireLabel, evaluator, operators
from optensor import physicality
from optensor.duotensor import (
    FiducialSet,
    SingularBasisError,
    SingularMetricError,
    _span_rank,
    compute_hopping_metric,
)
from optensor.notation import INPUT, OUTPUT
from optensor.operators import _resolve_ids
from conftest import SIGNATURES, inout_tensor, mixed_circuits, signature_op


# ---------------------------------------------------------------------------
# References: the validating implementations


def _reference_partial_transpose(op, over):
    """Transpose the given legs in the computational basis (an involution)."""
    ids = set(_resolve_ids(op, over))
    if not ids:
        return op
    k = len(op.legs)
    axes = list(range(2 * k))
    for i, leg in enumerate(op.legs):
        if leg.id in ids:
            axes[i], axes[k + i] = axes[k + i], axes[i]
    tensor = op.tensor().transpose(axes)
    return LabeledOperator(op.legs, tensor.reshape(op.dim, op.dim))


def _reference_input_transpose(op):
    return _reference_partial_transpose(op, [leg.id for leg in op.input_legs])


def _reference_is_physical(op, eps=1e-9):
    """Spectral physicality test with both margins reported."""
    lam = ot.min_eigenvalue(_reference_input_transpose(op))
    traced = ot.output_trace(op)
    excess = ot.max_eigenvalue(
        LabeledOperator(traced.legs, traced.matrix - np.eye(traced.dim))
    )
    return ot.PhysicalityReport(lam >= -eps and excess <= eps, lam, excess, eps)


def _reference_output_trace(op):
    """Partial trace over every output leg, as one einsum on the (in, out) tensor."""
    tensor, nin, nout = inout_tensor(op)
    return LabeledOperator(op.input_legs, np.einsum(tensor, [0, 1, 2, 1], [0, 2]))


def _reference_make_fiducials(sys_type, preps, results, tol=1e-10):
    """Assemble and validate a fiducial set, computing the metric and its inverse."""
    k = sys_type.fiducial_count
    if len(preps) != k or len(results) != k:
        raise SingularBasisError(f"need {k} preps and results for {sys_type.name}")
    if _span_rank(preps) < k or _span_rank(results) < k:
        raise SingularBasisError(f"fiducials for {sys_type.name} do not span")
    for prep in preps:
        eigs = np.linalg.eigvalsh(prep.matrix)
        if eigs[0] < -tol or float(np.trace(prep.matrix).real) > 1 + tol:
            raise SingularBasisError("fiducial preparation is not physical")
    for result in results:
        eigs = np.linalg.eigvalsh(result.matrix)
        if eigs[0] < -tol or eigs[-1] > 1 + tol:
            raise SingularBasisError("fiducial result is not physical")
    metric = compute_hopping_metric(preps, results)
    if metric.min() < -1e-12 or metric.max() > 1 + 1e-12:
        raise SingularMetricError("metric entries must be probabilities")
    try:
        metric_inv = np.linalg.inv(metric)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(str(exc)) from exc
    if np.max(np.abs(metric @ metric_inv - np.eye(k))) > 1e-10:
        raise SingularMetricError("metric inverse fails G G^-1 = I")
    metric.setflags(write=False)
    metric_inv.setflags(write=False)
    return FiducialSet(sys_type, tuple(preps), tuple(results), metric, metric_inv)


def _reference_identity_transformation(in_wire, out_wire, dim):
    """The wire operator: the identity channel in input-transposed Choi form.

    Its matrix is the SWAP between the input and output factors,
    ``sum_ij |j><i| (x) |i><j|``.
    """
    swap = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            swap[j * dim + i, i * dim + j] = 1.0
    legs = (
        Leg(in_wire.sys, in_wire.id, INPUT, dim),
        Leg(out_wire.sys, out_wire.id, OUTPUT, dim),
    )
    return LabeledOperator(legs, swap)


# ---------------------------------------------------------------------------
# The corpus: bound operators and tomography channels, each in several leg
# orders, with a rank-deficient Choi matrix, scaled and shifted


def _interleaved(op):
    """Legs reordered output, input, output, ... while both roles last."""
    ins, outs = list(op.input_legs), list(op.output_legs)
    order = []
    while ins or outs:
        order += [leg.id for leg in outs[:1] + ins[:1]]
        ins, outs = ins[1:], outs[1:]
    return op.permuted(order)


def _rank_deficient(op):
    """The operator whose Choi matrix keeps only the top half of the spectrum."""
    w, v = np.linalg.eigh(_reference_input_transpose(op).matrix)
    w[: len(w) // 2] = 0.0
    choi = LabeledOperator(op.legs, (v * w) @ v.conj().T)
    return _reference_input_transpose(choi)


def _variants(op):
    return [
        op,
        op.permuted(op.ids[::-1]),
        _interleaved(op),
        _rank_deficient(op),
        LabeledOperator(op.legs, 1.7 * op.matrix),
        LabeledOperator(op.legs, op.matrix - 0.3 * np.eye(op.dim)),
    ]


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(31)
    bound = {id(op): op for _, binding in mixed_circuits(rng) for op in binding.values()}
    channels = [signature_op(ins, outs, seed=k) for k, (ins, outs) in enumerate(SIGNATURES)]
    return [variant for op in [*bound.values(), *channels] for variant in _variants(op)]


def test_corpus_covers_both_verdicts(corpus):
    verdicts = [ot.is_physical(op).physical for op in corpus]
    assert len(corpus) > 300
    assert 50 < verdicts.count(False) < len(corpus) - 50


def test_partial_transpose_matches_validating_reference(corpus):
    for op in corpus:
        ins, outs = [leg.id for leg in op.input_legs], [leg.id for leg in op.output_legs]
        for subset in (ins, outs, op.ids[:1]):
            got = ot.partial_transpose(op, subset)
            want = _reference_partial_transpose(op, subset)
            assert got.legs == want.legs
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert not got.matrix.flags.writeable


def test_is_physical_margins_bitwise(corpus):
    for op in corpus:
        assert ot.is_physical(op) == _reference_is_physical(op)
        assert ot.is_physical(op, 1e-3) == _reference_is_physical(op, 1e-3)


def test_witness_bitwise(corpus, monkeypatch):
    nonphysical = [op for op in corpus if not _reference_is_physical(op).physical]
    got = [ot.witness_nonphysical(op) for op in nonphysical]
    monkeypatch.setattr(physicality, "input_transpose", _reference_input_transpose)
    monkeypatch.setattr(physicality, "is_physical", _reference_is_physical)
    want = [physicality.witness_nonphysical(op) for op in nonphysical]
    assert {w.condition for w in want} == {"positivity", "trace"}
    for g, w in zip(got, want):
        assert (g.condition, g.value) == (w.condition, w.value)
        for a, b in ((g.preparation, w.preparation), (g.result, w.result)):
            assert a.legs == b.legs and a.matrix.tobytes() == b.matrix.tobytes()


def test_sandwich_check_bitwise(corpus, monkeypatch):
    got = [ot.sandwich_check(op, samples=16, seed=k) for k, op in enumerate(corpus)]
    monkeypatch.setattr(physicality, "input_transpose", _reference_input_transpose)
    monkeypatch.setattr(physicality, "output_trace", _reference_output_trace)
    want = [physicality.sandwich_check(op, samples=16, seed=k) for k, op in enumerate(corpus)]
    assert {w.passed for w in want} == {True, False}
    assert got == want


def test_transfer_matrix_bitwise(corpus, monkeypatch):
    ordered = [op.permuted([l.id for l in op.input_legs + op.output_legs]) for op in corpus]
    got = [evaluator._transfer_matrix(op) for op in ordered]
    monkeypatch.setattr(evaluator, "input_transpose", _reference_input_transpose)
    for g, op in zip(got, ordered):
        assert np.array_equal(g, evaluator._transfer_matrix(op))


def _outcome(make, sys_type, preps, results):
    try:
        fset = make(sys_type, preps, results)
    except ValueError as exc:
        return type(exc), str(exc)
    return fset.metric.tobytes(), fset.metric_inv.tobytes()


def test_make_fiducials_decisions_and_messages(corpus):
    """Each one-leg operator of the corpus takes one fiducial's place."""
    decisions = []
    for op in corpus:
        if len(op.legs) != 1:
            continue
        leg = op.legs[0]
        fset = ot.default_fiducials(SystemType(leg.sys, leg.dim))
        for j in (0, fset.k - 1):
            preps, results = list(fset.preps), list(fset.results)
            (preps if leg.role == OUTPUT else results)[j] = op
            got = _outcome(ot.make_fiducials, fset.sys_type, preps, results)
            assert got == _outcome(_reference_make_fiducials, fset.sys_type, preps, results)
            decisions.append(got[0] is SingularBasisError)
    assert len(decisions) > 50 and 0 < sum(decisions) < len(decisions)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_identity_transformation_bytes(dim):
    a, b = WireLabel("a", 1), WireLabel("b", 7)
    got = ot.identity_transformation(a, b, dim)
    want = _reference_identity_transformation(a, b, dim)
    assert got.legs == want.legs
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert ot.dumps(got) == ot.dumps(want)


def test_is_physical_validates_one_operator(corpus, monkeypatch):
    """Only the output trace, a sum, goes through the validating constructor,
    and only on the first call for an operator object, which keeps its margins.
    Fresh copies are tested, since a corpus operator's margins may be cached."""
    fresh = [
        LabeledOperator(op.legs, op.matrix) for op in corpus if op.input_legs and op.output_legs
    ]
    calls = []
    init = LabeledOperator.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(operators.LabeledOperator, "__init__", counting_init)
    for op in fresh:
        calls.clear()
        first = ot.is_physical(op)
        assert len(calls) == 1
        calls.clear()
        assert ot.is_physical(op) == first
        assert calls == []
