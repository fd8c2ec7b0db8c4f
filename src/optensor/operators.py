"""Labeled Hermitian operators on tensor products of typed subsystems.

A :class:`LabeledOperator` is a dense Hermitian matrix whose factors are
identified by wire labels, each tagged as an input or an output.  All
operations here are pure: they return new operators and never mutate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateLabelError,
    NonHermitianError,
    NonUnitaryError,
    UnknownLabelError,
)
from .notation import INPUT, OUTPUT, WireLabel

TOL = 1e-10  # Hermiticity (relative above unit scale), unitarity and fiducial physicality


def _beyond_tol(deviation: float, values: np.ndarray) -> bool:
    """The Hermiticity rule: beyond ``TOL``, and beyond ``TOL * max|values|`` if that is more."""
    return deviation > TOL and deviation > TOL * float(np.max(np.abs(values)))


@dataclass(frozen=True)
class Leg:
    """One subsystem factor of a labeled operator."""

    sys: str
    id: int
    role: str  # INPUT or OUTPUT
    dim: int

    def __post_init__(self):
        if self.role not in (INPUT, OUTPUT):
            raise ValueError(f"role must be {INPUT!r} or {OUTPUT!r}, got {self.role!r}")
        if self.dim < 1:
            raise ValueError(f"leg {self} needs dim >= 1")

    @property
    def wire(self) -> WireLabel:
        return WireLabel(self.sys, self.id)

    def __str__(self) -> str:
        return f"{self.sys}{self.id}:{self.role[:3]}"


class LabeledOperator:
    """Hermitian operator with one labeled leg per tensor factor.

    The matrix is stored with factor order equal to ``legs`` order and is
    symmetrized on construction; a deviation from Hermiticity beyond ``TOL``,
    relative to ``max|M|`` above unit scale, raises :class:`NonHermitianError`.
    The one private slot ``_margins`` caches :func:`physicality.is_physical`'s
    two margins, which depend only on the (immutable) legs and matrix.
    """

    __slots__ = ("legs", "matrix", "_margins")

    def __init__(self, legs: Iterable[Leg], matrix: np.ndarray):
        legs = tuple(legs)
        _check_distinct_ids(legs)
        dim = 1
        for leg in legs:
            dim *= leg.dim
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (dim, dim):
            raise DimMismatchError(
                f"matrix shape {matrix.shape} does not match total dimension {dim}"
            )
        if not (np.all(np.isfinite(matrix.real)) and np.all(np.isfinite(matrix.imag))):
            raise ValueError("matrix entries must be finite")
        deviation = float(np.max(np.abs(matrix - matrix.conj().T)))
        if _beyond_tol(deviation, matrix):
            raise NonHermitianError(f"max |M - M^dag| = {deviation:.3e} exceeds tol={TOL:.1e}")
        matrix = 0.5 * (matrix + matrix.conj().T)
        matrix.setflags(write=False)
        self._set(legs, matrix)

    @classmethod
    def _from_valid(cls, legs: tuple[Leg, ...], matrix: np.ndarray) -> LabeledOperator:
        """An operator on a matrix that is already Hermitian, finite and read-only.

        For new legs over a validated matrix or an exact rearrangement of one,
        which needs neither the checks nor the symmetrizing copy again.
        """
        _check_distinct_ids(legs)
        op = object.__new__(cls)
        op._set(legs, matrix)
        return op

    def _set(self, legs: tuple[Leg, ...], matrix: np.ndarray) -> None:
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledOperator is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, which checks the
        # matrix again, makes it read-only and leaves the cached margins behind
        return type(self), (self.legs, self.matrix)

    # -- structure ---------------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(leg.dim for leg in self.legs)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(leg.id for leg in self.legs)

    def leg(self, wire_id: int) -> Leg:
        for leg in self.legs:
            if leg.id == wire_id:
                return leg
        raise UnknownLabelError(wire_id)

    def legs_with_role(self, role: str) -> tuple[Leg, ...]:
        return tuple(leg for leg in self.legs if leg.role == role)

    @property
    def input_legs(self) -> tuple[Leg, ...]:
        return self.legs_with_role(INPUT)

    @property
    def output_legs(self) -> tuple[Leg, ...]:
        return self.legs_with_role(OUTPUT)

    def tensor(self) -> np.ndarray:
        """Matrix reshaped to one ket and one bra axis per leg (kets first)."""
        return self.matrix.reshape(self.dims + self.dims)

    @property
    def scalar(self) -> float:
        """The value of a leg-free (1x1) operator."""
        if self.legs:
            raise ValueError("operator has open legs; not a scalar")
        return float(self.matrix[0, 0].real)

    # -- rearrangement -----------------------------------------------------

    def permuted(self, id_order: Sequence[int]) -> LabeledOperator:
        """Reorder legs to the given id order (a permutation of ``self.ids``)."""
        if sorted(id_order) != sorted(self.ids):
            raise UnknownLabelError(f"{id_order} is not a permutation of {self.ids}")
        if tuple(id_order) == self.ids:
            return self
        perm = [self.ids.index(i) for i in id_order]
        k = len(self.legs)
        tensor = self.tensor().transpose(perm + [p + k for p in perm])
        new_legs = tuple(self.legs[p] for p in perm)
        dim = self.dim
        # P M P^T moves entries without arithmetic: still exactly Hermitian and finite
        matrix = tensor.reshape(dim, dim)
        matrix.setflags(write=False)
        return LabeledOperator._from_valid(new_legs, matrix)

    def relabeled(self, mapping: dict[int, WireLabel | int]) -> LabeledOperator:
        """Rename wire ids (and optionally types); matrix is unchanged."""
        new_legs = []
        for leg in self.legs:
            target = mapping.get(leg.id)
            if target is None:
                new_legs.append(leg)
            elif isinstance(target, WireLabel):
                new_legs.append(Leg(target.sys, target.id, leg.role, leg.dim))
            else:
                new_legs.append(Leg(leg.sys, int(target), leg.role, leg.dim))
        return LabeledOperator._from_valid(tuple(new_legs), self.matrix)

    def __repr__(self) -> str:
        legs = ", ".join(str(l) for l in self.legs)
        return f"LabeledOperator([{legs}], dim={self.dim})"


def _check_distinct_ids(legs: tuple[Leg, ...]) -> None:
    ids = [leg.id for leg in legs]
    if len(set(ids)) != len(ids):
        raise DuplicateLabelError(f"repeated wire ids in {[str(l) for l in legs]}")


def _resolve_ids(op: LabeledOperator, over: Iterable[WireLabel | Leg | int]) -> list[int]:
    ids = []
    for item in over:
        wire_id = item if isinstance(item, int) else item.id
        op.leg(wire_id)  # raises UnknownLabelError
        ids.append(wire_id)
    if len(set(ids)) != len(ids):
        raise DuplicateLabelError(f"repeated ids in {ids}")
    return ids


# ---------------------------------------------------------------------------
# Core operations


def partial_trace(op: LabeledOperator, over: Iterable[WireLabel | Leg | int]) -> LabeledOperator:
    """Trace out the given legs; remaining legs keep their order."""
    ids = set(_resolve_ids(op, over))
    if not ids:
        return op
    k = len(op.legs)
    tensor = op.tensor()
    keep = [i for i, leg in enumerate(op.legs) if leg.id not in ids]
    traced = [i for i, leg in enumerate(op.legs) if leg.id in ids]
    subscripts = list(range(k)) + list(range(k, 2 * k))
    for i in traced:
        subscripts[k + i] = subscripts[i]
    out = [subscripts[i] for i in keep] + [subscripts[k + i] for i in keep]
    reduced = np.einsum(tensor, subscripts, out)
    new_legs = tuple(op.legs[i] for i in keep)
    dim = math.prod(leg.dim for leg in new_legs)
    return LabeledOperator(new_legs, reduced.reshape(dim, dim))


def partial_transpose(op: LabeledOperator, over: Iterable[WireLabel | Leg | int]) -> LabeledOperator:
    """Transpose the given legs in the computational basis (an involution)."""
    ids = set(_resolve_ids(op, over))
    if not ids:
        return op
    k = len(op.legs)
    axes = list(range(2 * k))
    for i, leg in enumerate(op.legs):
        if leg.id in ids:
            axes[i], axes[k + i] = axes[k + i], axes[i]
    # only moves entries, and each Hermitian-partner pair onto another such
    # pair: the result is still exactly Hermitian and finite
    matrix = op.tensor().transpose(axes).reshape(op.dim, op.dim)
    matrix.setflags(write=False)
    return LabeledOperator._from_valid(op.legs, matrix)


def min_eigenvalue(op: LabeledOperator) -> float:
    """Smallest eigenvalue via a Hermitian eigensolver."""
    return float(np.linalg.eigvalsh(op.matrix)[0])


def max_eigenvalue(op: LabeledOperator) -> float:
    return float(np.linalg.eigvalsh(op.matrix)[-1])


# ---------------------------------------------------------------------------
# Constructors


def scalar_operator(value: float) -> LabeledOperator:
    return LabeledOperator((), np.array([[value]], dtype=complex))


def identity_result(wire: WireLabel, dim: int) -> LabeledOperator:
    """The deterministic result operator: identity on one input leg."""
    return LabeledOperator((Leg(wire.sys, wire.id, INPUT, dim),), np.eye(dim))


def identity_preparation(wire: WireLabel, dim: int) -> LabeledOperator:
    """Identity carried by a single output leg (not physical for dim > 1)."""
    return LabeledOperator((Leg(wire.sys, wire.id, OUTPUT, dim),), np.eye(dim))


def identity_transformation(in_wire: WireLabel, out_wire: WireLabel, dim: int) -> LabeledOperator:
    """The wire operator: the identity channel in input-transposed Choi form.

    Its matrix is the SWAP between the input and output factors,
    ``sum_ij |j><i| (x) |i><j|``.
    """
    return unitary_channel(np.eye(dim), in_wire, out_wire)


def projector(vector: np.ndarray) -> np.ndarray:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def operator_from_kraus(
    kraus: Sequence[np.ndarray],
    in_legs: Sequence[Leg],
    out_legs: Sequence[Leg],
) -> LabeledOperator:
    """Operator tensor of the completely positive map with the given Kraus set.

    The Choi matrix ``sum_ij |i><j| (x) K|i><j|K^dag`` is input-transposed so
    that circuit contraction reproduces the map's action on states.
    """
    din = math.prod(l.dim for l in in_legs)
    dout = math.prod(l.dim for l in out_legs)
    choi = np.zeros((din * dout, din * dout), dtype=complex)
    for K in kraus:
        K = np.asarray(K, dtype=complex)
        if K.shape != (dout, din):
            raise DimMismatchError(f"Kraus shape {K.shape}, expected {(dout, din)}")
        # vec(K) in the |i>_in (x) K|i>_out layout
        block = K.T.reshape(-1)  # index order (in, out)
        choi += np.outer(block, block.conj())
    legs = tuple(in_legs) + tuple(out_legs)
    op_in_choi_form = LabeledOperator(legs, choi)
    return partial_transpose(op_in_choi_form, [l.id for l in in_legs])


def unitary_channel(
    unitary: np.ndarray, in_wire: WireLabel, out_wire: WireLabel
) -> LabeledOperator:
    u = np.asarray(unitary, dtype=complex)
    _require_unitary(u)
    dim = u.shape[0]
    return operator_from_kraus(
        [u],
        [Leg(in_wire.sys, in_wire.id, INPUT, dim)],
        [Leg(out_wire.sys, out_wire.id, OUTPUT, dim)],
    )


def _require_unitary(u: np.ndarray) -> None:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NonUnitaryError(f"expected a square matrix, got shape {u.shape}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if dev > TOL:
        raise NonUnitaryError(f"max |U^dag U - I| = {dev:.3e} exceeds tol={TOL:.1e}")


# ---------------------------------------------------------------------------
# Random instances (explicit seeds; no global RNG)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def haar_state(dim: int, seed) -> np.ndarray:
    """Haar-random pure state as a normalized complex Gaussian vector."""
    rng = _rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, seed) -> np.ndarray:
    rng = _rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_preparation(legs: Sequence[Leg], seed, mixed: bool = True) -> LabeledOperator:
    """Random physical preparation: a density operator on the output legs.

    Mixed states come from partially tracing a pure state on a doubled space.
    """
    legs = tuple(legs)
    if any(l.role != OUTPUT for l in legs):
        raise ValueError("preparation legs must all be outputs")
    rng = _rng(seed)
    dim = math.prod(l.dim for l in legs)
    if mixed:
        purification = haar_state(dim * dim, rng).reshape(dim, dim)
        rho = purification @ purification.conj().T
    else:
        rho = projector(haar_state(dim, rng))
    return LabeledOperator(legs, rho)


def random_result(legs: Sequence[Leg], seed) -> LabeledOperator:
    """Random physical result: a random-basis operator with spectrum in [0, 1]."""
    legs = tuple(legs)
    if any(l.role != INPUT for l in legs):
        raise ValueError("result legs must all be inputs")
    rng = _rng(seed)
    dim = math.prod(l.dim for l in legs)
    u = random_unitary(dim, rng)
    return LabeledOperator(legs, u @ np.diag(rng.uniform(0.0, 1.0, dim)) @ u.conj().T)


def random_kraus_set(
    din: int, dout: int, seed, n_kraus: int | None = None, trace_preserving: bool = False
) -> list[np.ndarray]:
    """Random Kraus operators with ``sum K^dag K <= I`` (``= I`` if trace preserving)."""
    rng = _rng(seed)
    # enough operators that sum K^dag K is full rank on the input space
    n_kraus = n_kraus or max(2, -(-din // dout) + 1)
    kraus = [
        rng.standard_normal((dout, din)) + 1j * rng.standard_normal((dout, din))
        for _ in range(n_kraus)
    ]
    total = sum(K.conj().T @ K for K in kraus)
    if trace_preserving:
        w, v = np.linalg.eigh(total)
        if w[0] <= 0:
            raise ValueError(f"need more Kraus operators: sum K^dag K is rank deficient")
        inv_sqrt = v @ np.diag(w ** -0.5) @ v.conj().T
        return [K @ inv_sqrt for K in kraus]
    scale = rng.uniform(0.3, 1.0) / np.sqrt(np.linalg.eigvalsh(total)[-1])
    return [K * scale for K in kraus]


def random_physical_transformation(
    in_legs: Sequence[Leg],
    out_legs: Sequence[Leg],
    seed,
    trace_preserving: bool = False,
    n_kraus: int | None = None,
) -> LabeledOperator:
    """Operator tensor of a random completely positive, trace-non-increasing map.

    Physical by construction: its input transpose is the Choi matrix of the
    sampled Kraus map, and ``sum K^dag K <= I`` bounds the output trace.
    """
    rng = _rng(seed)
    din = math.prod(l.dim for l in in_legs)
    dout = math.prod(l.dim for l in out_legs)
    kraus = random_kraus_set(din, dout, rng, n_kraus, trace_preserving)
    return operator_from_kraus(kraus, in_legs, out_legs)


# ---------------------------------------------------------------------------
# Serialization (decimal round trip is exact for float64)


def to_json_dict(op: LabeledOperator) -> dict:
    return {
        "labels": [
            {"id": f"{leg.sys}{leg.id}", "type": leg.sys, "dim": leg.dim, "role": leg.role}
            for leg in op.legs
        ],
        "matrix": [[float(z.real), float(z.imag)] for z in op.matrix.reshape(-1)],
    }


def _json_int(entry: dict, field: str) -> int:
    """``entry[field]``, which must be a JSON integer: not a bool, float or string."""
    value = entry[field]
    if type(value) is not int:
        raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _json_str(entry: dict, field: str) -> str:
    """``entry[field]``, which must be a JSON string."""
    value = entry[field]
    if type(value) is not str:
        raise ValueError(f"field {field!r} must be a string, got {value!r}")
    return value


def _json_numbers(values: list, field: str) -> list:
    """``values``, each of which must be a JSON number: not a bool, string or list."""
    for value in values:
        if type(value) not in (int, float):
            raise ValueError(f"field {field!r} entries must be numbers, got {value!r}")
    return values


def _json_wire_id(entry: dict) -> int:
    """The wire id of ``entry["id"]``, which must be ``entry["type"]`` then ASCII digits."""
    sys_name, id_text = _json_str(entry, "type"), entry["id"]
    digits = id_text[len(sys_name):] if type(id_text) is str and id_text.startswith(sys_name) else ""
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(
            f"field 'id' must be the type {sys_name!r} followed by ASCII digits, got {id_text!r}"
        )
    return int(digits)


def from_json_dict(data: dict) -> LabeledOperator:
    legs = [
        Leg(_json_str(entry, "type"), _json_wire_id(entry), _json_str(entry, "role"),
            _json_int(entry, "dim"))
        for entry in data["labels"]
    ]
    dim = math.prod(l.dim for l in legs)
    pairs = data["matrix"]
    _json_numbers([x for pair in pairs for x in pair], "matrix")
    flat = np.array([complex(re, im) for re, im in pairs])
    if flat.size != dim * dim:
        raise DimMismatchError(f"matrix has {flat.size} entries, expected {dim * dim}")
    return LabeledOperator(tuple(legs), flat.reshape(dim, dim))


def dumps(op: LabeledOperator) -> str:
    return json.dumps(to_json_dict(op), indent=2)


def loads(text: str) -> LabeledOperator:
    return from_json_dict(json.loads(text))


def save(op: LabeledOperator, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(op))
        fh.write("\n")


def load(path) -> LabeledOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())

