"""Fiducial operator sets, the hopping metric, and duotensor conversions.

A fiducial set for an N-dimensional system holds K = N^2 preparation
operators and K result operators, each physical, spanning the Hermitian
operators.  The hopping metric G[i][j] is the probability of fiducial
preparation i followed by fiducial result j; together with its inverse it
converts duotensor indices between "black" (probability) and "white"
(expansion-coefficient) form.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConditioningWarning,
    DimMismatchError,
    NonHermitianError,
    ShapeMismatchError,
    SingularBasisError,
    SingularMetricError,
)
from .notation import INPUT, OUTPUT, SystemType, WireLabel
from .operators import TOL, Leg, LabeledOperator, _beyond_tol, identity_transformation
from .operators import _json_int, _json_numbers, _json_str, from_json_dict, to_json_dict
from .physicality import is_physical

BLACK = "black"
WHITE = "white"

COND_WARN_THRESHOLD = 1e8


@dataclass(frozen=True, eq=False)
class FiducialSet:
    """Spanning physical preparations and results for one system type.

    Next to the metric and its inverse, a set computes once what depends on
    it alone, all read-only: each family's matrices stacked ``(K, d, d)``,
    and the inverse of each family's Gram matrix ``Tr(F_j F_l)``, the dual
    that turns a leg's overlaps with the family into expansion weights.
    """

    sys_type: SystemType
    preps: tuple[LabeledOperator, ...]
    results: tuple[LabeledOperator, ...]
    metric: np.ndarray
    metric_inv: np.ndarray
    prep_stack: np.ndarray = field(init=False, repr=False)
    result_stack: np.ndarray = field(init=False, repr=False)
    prep_dual: np.ndarray = field(init=False, repr=False)
    result_dual: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        prep_stack = _one_leg_stack(self.preps, OUTPUT)
        result_stack = _one_leg_stack(self.results, INPUT)
        for name, array in (
            ("prep_stack", prep_stack),
            ("result_stack", result_stack),
            ("prep_dual", _gram_dual(prep_stack)),
            ("result_dual", _gram_dual(result_stack)),
        ):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def k(self) -> int:
        return self.sys_type.fiducial_count

    def prep_op(self, index: int, wire: WireLabel) -> LabeledOperator:
        return self.preps[index].relabeled({self.preps[index].ids[0]: wire})

    def result_op(self, index: int, wire: WireLabel) -> LabeledOperator:
        return self.results[index].relabeled({self.results[index].ids[0]: wire})


def _span_rank(ops: Sequence[LabeledOperator]) -> int:
    stack = np.stack([op.matrix.reshape(-1) for op in ops])
    return int(np.linalg.matrix_rank(np.concatenate([stack.real, stack.imag], axis=1)))


def _one_leg_stack(ops: Sequence[LabeledOperator], role: str) -> np.ndarray:
    """Matrices of fiducials that each have a single leg of ``role``, shape (K, d, d)."""
    for op in ops:
        if len(op.legs) != 1 or op.legs[0].role != role:
            raise SingularBasisError(f"fiducial {op!r} needs exactly one {role} leg")
    return np.stack([op.matrix for op in ops])


def _gram_dual(stack: np.ndarray) -> np.ndarray:
    """Inverse of the Gram matrix ``Tr(F_j F_l)`` of a stack of Hermitian fiducials.

    Warns with :class:`ConditioningWarning` when the Gram matrix's condition
    number exceeds ``COND_WARN_THRESHOLD``; the warning names the line that
    called ``make_fiducials``.
    """
    gram = np.einsum("jab,lba->jl", stack, stack).real
    cond = np.linalg.cond(gram)
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"fiducial Gram system condition number {cond:.2e}",
            ConditioningWarning,
            stacklevel=5,
        )
    try:
        return np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularBasisError(str(exc)) from exc


def compute_hopping_metric(
    preps: Sequence[LabeledOperator], results: Sequence[LabeledOperator]
) -> np.ndarray:
    """G[i][j] = value of the circuit (prep i) -> (result j) = Tr(prep_i . result_j)."""
    prep_stack = _one_leg_stack(preps, OUTPUT)
    result_stack = _one_leg_stack(results, INPUT)
    if prep_stack.shape[1:] != result_stack.shape[1:]:
        raise DimMismatchError(
            f"preparations have dim {prep_stack.shape[-1]}, "
            f"results have dim {result_stack.shape[-1]}"
        )
    metric = np.einsum("iab,jba->ij", prep_stack, result_stack)
    complex_entries = np.argwhere(np.abs(metric.imag) > 1e-12)
    if complex_entries.size:
        i, j = complex_entries[0]  # the first in row-major order
        raise SingularMetricError(
            f"metric entry ({i},{j}) has imaginary part {metric[i, j].imag:.3e}"
        )
    return metric.real.copy()


def hopping_metric(fset: FiducialSet) -> np.ndarray:
    """Recompute the hopping metric from the fiducial elements."""
    return compute_hopping_metric(fset.preps, fset.results)


def make_fiducials(
    sys_type: SystemType,
    preps: Sequence[LabeledOperator],
    results: Sequence[LabeledOperator],
) -> FiducialSet:
    """Assemble and validate a fiducial set, computing the metric and its inverse.

    The set also computes its stacks and Gram duals, so an ill-conditioned
    family warns here, with :class:`ConditioningWarning`.
    """
    k = sys_type.fiducial_count
    if len(preps) != k or len(results) != k:
        raise SingularBasisError(f"need {k} preps and results for {sys_type.name}")
    if _span_rank(preps) < k or _span_rank(results) < k:
        raise SingularBasisError(f"fiducials for {sys_type.name} do not span")
    if not all(is_physical(prep, TOL) for prep in preps):
        raise SingularBasisError("fiducial preparation is not physical")
    if not all(is_physical(result, TOL) for result in results):
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


@functools.lru_cache
def default_fiducials(sys_type: SystemType) -> FiducialSet:
    """Rank-one projector fiducials: the basis states plus, for each pair
    j < k, the real and imaginary superposition projectors.

    For a qubit this is |0>, |1>, |+>, |+i>; every element is manifestly a
    realizable preparation and (read with an input leg) a valid result.
    Cached per system type: a fiducial set and its arrays are read-only.
    """
    n = sys_type.dim
    vectors: list[np.ndarray] = [np.eye(n)[j] for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            plus = (np.eye(n)[j] + np.eye(n)[k]) / np.sqrt(2)
            plus_i = (np.eye(n)[j] + 1j * np.eye(n)[k]) / np.sqrt(2)
            vectors.extend([plus, plus_i])
    projectors = [np.outer(v, v.conj()) for v in vectors]
    prep_leg = Leg(sys_type.name, 1, OUTPUT, n)
    result_leg = Leg(sys_type.name, 1, INPUT, n)
    preps = [LabeledOperator((prep_leg,), p) for p in projectors]
    results = [LabeledOperator((result_leg,), p) for p in projectors]
    return make_fiducials(sys_type, preps, results)


# ---------------------------------------------------------------------------
# Duotensors


@dataclass(frozen=True)
class DuoIndex:
    sys: str
    id: int
    role: str
    dim: int
    color: str

    def __post_init__(self):
        if self.role not in (INPUT, OUTPUT):
            raise ValueError(f"role must be {INPUT!r} or {OUTPUT!r}, got {self.role!r}")
        if self.dim < 1:
            raise ValueError(f"duotensor index {self.sys}{self.id} needs dim >= 1")
        if self.color not in (BLACK, WHITE):
            raise ValueError(f"color must be {BLACK!r} or {WHITE!r}")

    @property
    def k(self) -> int:
        return self.dim * self.dim


@dataclass(frozen=True, eq=False)
class Duotensor:
    """A real coefficient array with typed, colored indices; it keeps a read-only copy."""

    indices: tuple[DuoIndex, ...]
    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=float)
        expected = tuple(ix.k for ix in self.indices)
        if data.shape != expected:
            raise ShapeMismatchError(f"data shape {data.shape}, indices need {expected}")
        if not np.isfinite(data).all():
            raise ValueError("duotensor data must be finite")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def colors(self) -> tuple[str, ...]:
        return tuple(ix.color for ix in self.indices)


def _fiducial_family(
    fsets: Mapping[str, FiducialSet], leg: Leg, probing: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The stored stack (K, d, d) of the fiducials attached to one leg, and their Gram dual.

    An expansion (``decompose``, ``reconstruct``) takes results for inputs
    and preparations for outputs.  ``probing`` takes the fiducials that
    close the leg in a circuit: preparations for inputs, results for outputs.
    """
    fset = fsets[leg.sys]
    if (leg.role == INPUT) != probing:
        stack, dual = fset.result_stack, fset.result_dual
    else:
        stack, dual = fset.prep_stack, fset.prep_dual
    dim = stack.shape[-1]
    if dim != leg.dim:
        if probing:  # the message bind_names gives for the probing circuit
            raise DimMismatchError(
                f"wire id {leg.id} joins {leg.sys}(dim {leg.dim}) to {leg.sys}(dim {dim})"
            )
        raise ShapeMismatchError(
            f"fiducials for {leg.sys!r} have dim {dim}, leg has {leg.dim}"
        )
    return stack, dual


def _fiducial_stack(
    fsets: Mapping[str, FiducialSet], leg: Leg, probing: bool = False
) -> np.ndarray:
    """The stored stack of :func:`_fiducial_family`."""
    return _fiducial_family(fsets, leg, probing)[0]


def _per_leg(data: np.ndarray, matrices: Sequence[np.ndarray | None]) -> np.ndarray:
    """Apply ``matrices[m]`` to axis ``m`` of ``data``; ``None`` leaves that axis alone.

    The fiducial side acts on each leg on its own, so every conversion is
    one ``np.matmul`` per leg: the matrix times the data viewed as
    ``(pre, K, post)``, the axes before and after the leg each fused into
    one, which leaves the result in axis order with no transpose.
    """
    shape = list(data.shape)
    for m, matrix in enumerate(matrices):
        if matrix is not None:
            pre, post = math.prod(shape[:m]), math.prod(shape[m + 1:])
            data = np.matmul(matrix, data.reshape(pre, shape[m], post))
            shape[m] = matrix.shape[0]
    return data.reshape(shape)


def _fiducial_overlaps(op: LabeledOperator, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Tr((F_j1 x ... x F_jk) . op) for every choice of one fiducial per leg.

    Each leg's bra and ket axes of the operator tensor are fused into one
    axis of ``d**2`` entries, and each stack is flattened to ``(K, d**2)``
    so that F's row meets op's bra and F's column the ket.  The overlaps of
    Hermitian matrices are real; an imaginary residue beyond the operators'
    Hermiticity rule raises :class:`NonHermitianError` instead of being dropped.
    """
    k = len(stacks)
    order = [axis for m in range(k) for axis in (k + m, m)]
    fused = op.tensor().transpose(order).reshape([leg.dim**2 for leg in op.legs])
    overlaps = _per_leg(fused, [stack.reshape(len(stack), -1) for stack in stacks])
    residue = float(np.max(np.abs(overlaps.imag)))
    if _beyond_tol(residue, overlaps.real):
        raise NonHermitianError(
            f"fiducial overlaps have imaginary residue {residue:.3e} beyond tol={TOL:.1e}"
        )
    # a contiguous copy: matmul falls back from BLAS on the strided .real view
    return overlaps.real.copy()


def decompose(op: LabeledOperator, fsets: Mapping[str, FiducialSet]) -> Duotensor:
    """Expand an operator in the tensor-product fiducial basis (all-white form).

    The expansion is exact: the Gram system of Hilbert-Schmidt overlaps
    factorizes leg by leg, and each leg's fiducial set holds its solution,
    the Gram dual, which one matmul applies to that leg's overlaps.
    """
    families = [_fiducial_family(fsets, leg) for leg in op.legs]
    overlaps = _fiducial_overlaps(op, [stack for stack, _ in families])
    weights = _per_leg(overlaps, [dual for _, dual in families])
    indices = tuple(DuoIndex(l.sys, l.id, l.role, l.dim, WHITE) for l in op.legs)
    return Duotensor(indices, weights)


def reconstruct(
    dt: Duotensor,
    fsets: Mapping[str, FiducialSet],
    legs: Sequence[Leg] | None = None,
) -> LabeledOperator:
    """Weighted sum of tensor products of fiducial operators (all-white input).

    ``legs`` may rename the wire ids; each must match its index otherwise.
    """
    if any(ix.color != WHITE for ix in dt.indices):
        raise ShapeMismatchError("reconstruct needs the all-white form")
    if legs is None:
        legs = tuple(Leg(ix.sys, ix.id, ix.role, ix.dim) for ix in dt.indices)
    legs = tuple(legs)
    if len(legs) != len(dt.indices):
        raise ShapeMismatchError("leg count does not match index count")
    for leg, ix in zip(legs, dt.indices):
        if (leg.sys, leg.role, leg.dim) != (ix.sys, ix.role, ix.dim):
            raise ShapeMismatchError(f"leg {leg} does not match index {ix}")
    k = len(legs)
    # each leg's fused axis runs over (ket, bra) of its d x d block
    stacks = [_fiducial_stack(fsets, leg) for leg in legs]
    fused = _per_leg(dt.data, [stack.reshape(len(stack), -1).T for stack in stacks])
    dims = [leg.dim for leg in legs]
    split = fused.reshape([d for d in dims for _ in range(2)])
    raw = split.transpose(list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2)))
    dim = math.prod(dims)
    return LabeledOperator(legs, raw.reshape(dim, dim))


def convert_dots(
    dt: Duotensor,
    target: str | Sequence[str],
    fsets: Mapping[str, FiducialSet],
) -> Duotensor:
    """Recolor duotensor indices using the hopping metric.

    White-to-black applies G (input-role indices contract the result side,
    output-role the preparation side); black-to-white applies the inverse.
    Converting there and back is the identity.
    """
    targets = [target] * len(dt.indices) if isinstance(target, str) else list(target)
    if len(targets) != len(dt.indices):
        raise ShapeMismatchError("one target color per index required")
    matrices: list[np.ndarray | None] = []
    for ix, want in zip(dt.indices, targets):
        if want not in (BLACK, WHITE):
            raise ValueError(f"unknown color {want!r}")
        if want == ix.color:
            matrices.append(None)
            continue
        fset = fsets[ix.sys]
        matrix = fset.metric if want == BLACK else fset.metric_inv
        matrices.append(matrix if ix.role == INPUT else matrix.T)
    new_indices = tuple(
        DuoIndex(ix.sys, ix.id, ix.role, ix.dim, want) for ix, want in zip(dt.indices, targets)
    )
    return Duotensor(new_indices, _per_leg(dt.data, matrices))


def wire_decomposition_check(
    sys_type: SystemType,
    fset: FiducialSet | None = None,
    tol: float = 1e-10,
) -> bool:
    """Check that the inverse-metric pairing of fiducials rebuilds the wire.

    The identity transformation must equal
    ``sum_jk G^-1[j][k] (result_j on the input) x (prep_k on the output)``,
    the reconstruction of the all-white duotensor whose data is ``G^-1``.
    """
    fset = fset if fset is not None else default_fiducials(sys_type)
    name, n = sys_type.name, sys_type.dim
    wire = Duotensor(
        (DuoIndex(name, 1, INPUT, n, WHITE), DuoIndex(name, 2, OUTPUT, n, WHITE)),
        fset.metric_inv,
    )
    built = reconstruct(wire, {name: fset}).matrix
    expected = identity_transformation(WireLabel(name, 1), WireLabel(name, 2), n).matrix
    return bool(np.max(np.abs(built - expected)) <= tol)


# ---------------------------------------------------------------------------
# Serialization


def duotensor_to_json_dict(dt: Duotensor) -> dict:
    return {
        "indices": [
            {"type": ix.sys, "id": ix.id, "role": ix.role, "dim": ix.dim, "color": ix.color}
            for ix in dt.indices
        ],
        "data": [float(x) for x in dt.data.reshape(-1)],
    }


def duotensor_from_json_dict(data: dict) -> Duotensor:
    indices = tuple(
        DuoIndex(
            _json_str(e, "type"), _json_int(e, "id"), _json_str(e, "role"),
            _json_int(e, "dim"), _json_str(e, "color"),
        )
        for e in data["indices"]
    )
    shape = tuple(ix.k for ix in indices)
    values = _json_numbers(data["data"], "data")
    return Duotensor(indices, np.array(values, dtype=float).reshape(shape))


def dump_fiducials(fset: FiducialSet, directory) -> None:
    """Write one operator file per element plus a manifest with the metric."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "type": fset.sys_type.name,
        "dim": fset.sys_type.dim,
        "preps": [],
        "results": [],
        "metric": [[float(x) for x in row] for row in fset.metric],
    }
    for kind, family in (("prep", fset.preps), ("result", fset.results)):
        for i, op in enumerate(family):
            name = f"{kind}_{i:02d}.json"
            (directory / name).write_text(json.dumps(to_json_dict(op), indent=2) + "\n")
            manifest[kind + "s"].append(name)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_fiducials(directory) -> FiducialSet:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    sys_type = SystemType(_json_str(manifest, "type"), _json_int(manifest, "dim"))
    preps = [
        from_json_dict(json.loads((directory / name).read_text()))
        for name in manifest["preps"]
    ]
    results = [
        from_json_dict(json.loads((directory / name).read_text()))
        for name in manifest["results"]
    ]
    fset = make_fiducials(sys_type, preps, results)
    stored = [_json_numbers(row, "metric") for row in manifest["metric"]]
    if np.max(np.abs(fset.metric - np.array(stored))) > 1e-10:
        raise SingularMetricError("stored metric disagrees with recomputed metric")
    return fset


def default_fiducials_for(legs_or_ops) -> dict[str, FiducialSet]:
    """Default fiducial sets for every system type appearing on the given legs."""
    legs = getattr(legs_or_ops, "legs", legs_or_ops)
    fsets: dict[str, FiducialSet] = {}
    for leg in legs:
        if leg.sys in fsets:
            if fsets[leg.sys].sys_type.dim != leg.dim:
                raise ShapeMismatchError(
                    f"type {leg.sys!r} appears with dims "
                    f"{fsets[leg.sys].sys_type.dim} and {leg.dim}"
                )
            continue
        fsets[leg.sys] = default_fiducials(SystemType(leg.sys, leg.dim))
    return fsets
