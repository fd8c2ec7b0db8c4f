"""Physicality of labeled operators: spectral tests, sandwich sampling,
witness construction, complete sets, and unitary transformations.

Every test takes operators on their own; alternate-transpose positivity,
which binds a whole circuit, lives with evaluation.

An operator is physical iff its input transpose is positive semidefinite and
its output partial trace is bounded above by the identity.  These are
exactly the operators whose circuits always evaluate to probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .contraction import circuit_trace
from .errors import DimMismatchError, NotApplicableError, SignatureMismatchError
from .notation import INPUT, OUTPUT, WireLabel
from .operators import (
    LabeledOperator,
    Leg,
    _require_unitary,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    projector,
    scalar_operator,
)

ANCILLA_SYS = "g"


def input_transpose(op: LabeledOperator) -> LabeledOperator:
    """Partial transpose over every input leg (the Choi form of the operator)."""
    return partial_transpose(op, [leg.id for leg in op.input_legs])


def output_trace(op: LabeledOperator) -> LabeledOperator:
    """Partial trace over every output leg; an operator on the inputs."""
    return partial_trace(op, [leg.id for leg in op.output_legs])


@dataclass(frozen=True)
class PhysicalityReport:
    physical: bool
    input_transpose_min_eig: float
    output_trace_excess: float  # max eigenvalue of Tr_out(op) - I
    eps: float

    def __bool__(self) -> bool:
        return self.physical


def is_physical(op: LabeledOperator, eps: float = 1e-9) -> PhysicalityReport:
    """Spectral physicality test with both margins reported.

    The margins, the input transpose's smallest eigenvalue and the output
    trace's largest excess over the identity, are solved on the first call
    for an operator object and kept on it: an operator is immutable and its
    matrix read-only.  Each call applies its own ``eps``.
    """
    margins = getattr(op, "_margins", None)
    if margins is None:
        lam = min_eigenvalue(input_transpose(op))
        traced = output_trace(op).matrix
        excess = float(np.linalg.eigvalsh(traced - np.eye(len(traced)))[-1])
        margins = (lam, excess)
        object.__setattr__(op, "_margins", margins)
    lam, excess = margins
    return PhysicalityReport(lam >= -eps and excess <= eps, lam, excess, eps)


# ---------------------------------------------------------------------------
# Definition-side Monte-Carlo check


@dataclass(frozen=True)
class SandwichReport:
    passed: bool
    min_sandwich: float
    max_trace_scalar: float
    samples: int
    ancilla_dims: tuple[int, ...]


def _haar_batch(rng: np.random.Generator, n: int, rows: int, cols: int) -> np.ndarray:
    v = rng.standard_normal((n, rows * cols)) + 1j * rng.standard_normal((n, rows * cols))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v.reshape(n, rows, cols)


def sandwich_check(
    op: LabeledOperator,
    ancilla_dims: Sequence[int] | None = None,
    samples: int = 1000,
    seed: int = 0,
    eps: float = 1e-9,
) -> SandwichReport:
    """Sample the defining circuits of physicality.

    Random rank-one projector preparations on (inputs x ancilla) and results
    on (outputs x ancilla) sandwich the operator; the trace condition pairs
    each preparation with the identity result.  Passes iff the smallest
    sandwich value stays above ``-eps`` and the largest trace value below
    ``1 + eps``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    in_legs, out_legs = op.input_legs, op.output_legs
    nin = math.prod(l.dim for l in in_legs)
    nout = math.prod(l.dim for l in out_legs)
    arranged = op.permuted([l.id for l in in_legs] + [l.id for l in out_legs])
    if ancilla_dims is None:
        ancilla_dims = (1, nin, nin * nin)
    dims = tuple(dict.fromkeys(max(1, int(g)) for g in ancilla_dims))
    rng = np.random.default_rng(seed)
    trace_out = output_trace(arranged).matrix
    choi = input_transpose(arranged).matrix  # rows and columns (in, out)
    min_sandwich = math.inf
    max_trace = -math.inf
    for g in dims:
        alpha = _haar_batch(rng, samples, nin, g)
        gamma = _haar_batch(rng, samples, nout, g)
        # value of  prep . op . result  for every sample at once; the
        # ancilla is traced out first, pairing each sample's prep and result
        pair = np.matmul(alpha, gamma.conj().transpose(0, 2, 1)).reshape(samples, -1)
        vals = ((pair @ choi) * pair.conj()).sum(axis=1)
        trace_vals = (alpha.conj() * (trace_out @ alpha)).sum(axis=(1, 2))
        min_sandwich = min(min_sandwich, float(vals.real.min()))
        max_trace = max(max_trace, float(trace_vals.real.max()))
    passed = min_sandwich >= -eps and max_trace <= 1.0 + eps
    return SandwichReport(passed, min_sandwich, max_trace, samples, dims)


# ---------------------------------------------------------------------------
# Witness construction


@dataclass(frozen=True)
class Witness:
    """A preparation/result pair whose circuit with the operator leaves [0, 1]."""

    preparation: LabeledOperator
    result: LabeledOperator
    value: float
    condition: str  # "positivity" or "trace"


def _fresh_ancilla_id(op: LabeledOperator) -> int:
    return (max(op.ids) if op.ids else 0) + 1


def witness_nonphysical(op: LabeledOperator, eps: float = 1e-9) -> Witness:
    """Build and evaluate an explicit violating circuit for a non-physical operator.

    A failed input-transpose positivity yields a maximally entangled rank-one
    preparation and a result carrying the negative eigenvector; a failed
    trace condition yields the violating eigenprojector preparation paired
    with the identity result.  Raises :class:`NotApplicableError` when the
    operator is physical.
    """
    report = is_physical(op, eps)
    if report.physical:
        raise NotApplicableError("operator is physical; no witness exists")
    in_legs, out_legs = op.input_legs, op.output_legs
    nin = math.prod(l.dim for l in in_legs)
    anc = _fresh_ancilla_id(op)

    if report.input_transpose_min_eig < -eps:
        choi = input_transpose(op.permuted([l.id for l in in_legs] + [l.id for l in out_legs]))
        w, v = np.linalg.eigh(choi.matrix)
        vec = v[:, 0].reshape(nin, -1)  # (in, out) components
        alpha = np.eye(nin) / math.sqrt(nin)
        prep_legs = tuple(Leg(l.sys, l.id, OUTPUT, l.dim) for l in in_legs) + (
            Leg(ANCILLA_SYS, anc, OUTPUT, nin),
        )
        result_legs = tuple(Leg(l.sys, l.id, INPUT, l.dim) for l in out_legs) + (
            Leg(ANCILLA_SYS, anc, INPUT, nin),
        )
        prep = LabeledOperator(prep_legs, projector(alpha.reshape(-1)))
        result = LabeledOperator(result_legs, projector(vec.T.reshape(-1)))
        value = circuit_trace([prep, op, result]).scalar
        return Witness(prep, result, value, "positivity")

    traced = output_trace(op)
    if in_legs:
        w, v = np.linalg.eigh(traced.matrix)
        prep_legs = tuple(Leg(l.sys, l.id, OUTPUT, l.dim) for l in in_legs)
        prep = LabeledOperator(prep_legs, projector(v[:, -1]))
    else:
        prep = scalar_operator(1.0)
    nout = math.prod(l.dim for l in out_legs)
    result = LabeledOperator(
        tuple(Leg(l.sys, l.id, INPUT, l.dim) for l in out_legs), np.eye(nout)
    )
    value = circuit_trace([prep, op, result]).scalar
    return Witness(prep, result, value, "trace")


# ---------------------------------------------------------------------------
# Complete sets


def is_complete_set(ops: Sequence[LabeledOperator], eps: float = 1e-9) -> bool:
    """True iff every member has positive input transpose (the margin that
    :func:`is_physical` solves once per operator) and the summed output
    traces equal the identity on the inputs."""
    if not ops:
        raise SignatureMismatchError("empty operator set")
    signature = ops[0].legs
    for op in ops[1:]:
        if op.legs != signature:
            raise SignatureMismatchError(
                f"leg signature {op.legs} differs from {signature}"
            )
    for op in ops:
        if is_physical(op, eps).input_transpose_min_eig < -eps:
            return False
    total = sum(output_trace(op).matrix for op in ops)
    return bool(np.max(np.abs(total - np.eye(total.shape[0]))) <= eps)


# ---------------------------------------------------------------------------
# Unitary transformations


def transform(
    op: LabeledOperator, unitaries: Mapping[int | WireLabel, np.ndarray]
) -> LabeledOperator:
    """Conjugate the operator by one unitary per leg.

    Applying the same unitary to both ends of every wire leaves every closed
    operator circuit invariant, and physicality is preserved.
    """
    per_id: dict[int, np.ndarray] = {}
    for key, u in unitaries.items():
        per_id[key if isinstance(key, int) else key.id] = np.asarray(u, dtype=complex)
    total = np.eye(1)
    for leg in op.legs:
        u = per_id.get(leg.id)
        if u is None:
            u = np.eye(leg.dim)
        else:
            _require_unitary(u)
            if u.shape[0] != leg.dim:
                raise DimMismatchError(
                    f"unitary for {leg.sys}{leg.id} is {u.shape[0]}x{u.shape[1]}, "
                    f"leg dim is {leg.dim}"
                )
        total = np.kron(total, u)
    return LabeledOperator(op.legs, total @ op.matrix @ total.conj().T)
