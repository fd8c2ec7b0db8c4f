"""Circuit evaluation by both formulations, fragment operators, linear
combinations of circuits, alternate-transpose positivity, and the
formalism-locality proportionality test.

``probability`` contracts bound operators directly (one circuit trace);
``probability_foliated`` layers the circuit and evolves an unnormalized
state through each time step, closing with the result operators.  The two
must agree on every circuit.  Each entry point binds its fragment once, as
a :class:`_BoundFragment`, and evaluates that.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .binding import Binding, bind_names
from .contraction import WireTypes, _plan_greedy, _run_plan
from .duotensor import _fiducial_overlaps
from .errors import (
    NonCircuitTermError,
    NotApplicableError,
    PhysicalityWarning,
    SignatureMismatchError,
    ZeroFragmentError,
)
from .notation import CIRCUIT, INPUT, CircuitFragment, WireLabel, causal_structure, foliate
from .operators import LabeledOperator, identity_transformation, partial_transpose
from .physicality import input_transpose, is_physical


def _require_circuit(frag: CircuitFragment) -> None:
    """Refuse a fragment with open ports: only a closed circuit has a probability."""
    if frag.kind != CIRCUIT:
        raise NonCircuitTermError(f"fragment has open ports (kind={frag.kind})")


class _BoundFragment:
    """A fragment with its operators bound, open or closed, shared by every route.

    Binding works per name (:func:`binding.bind_names`): each operation is
    only its wire ids, in its operator's leg order, and no leg or operator is
    built.  Per name it keeps the caller's operator, the one object every
    route reads: the physicality pass tests it (its margins are cached on
    it), the trace reshapes it, and the foliated transfer matrices and
    alternate-transpose positivity need only its leg order and roles.  The
    fragment validated the wiring; binding adds each wire's dimension, and a
    wire whose second end, in operand-scan order, has another raises
    :class:`DimMismatchError`.  The plan is built on first use from the same
    wire tables, and the trace runs it on one reshaped array per name.
    """

    def __init__(self, frag: CircuitFragment, binding: Binding):
        self.frag = frag
        self.operators, self.wires, self.wire_dims = bind_names(frag, binding)

    def nonphysical(self, eps: float) -> list[str]:
        """One message per operation whose bound operator is not physical, in order."""
        reports = {name: is_physical(op, eps) for name, op in self.operators.items()}
        return [
            f"operator bound to {decl.name!r} is not physical "
            f"(min eig {reports[decl.name].input_transpose_min_eig:.3e}, "
            f"trace excess {reports[decl.name].output_trace_excess:.3e})"
            for decl in self.frag.ops
            if not reports[decl.name].physical
        ]

    @functools.cached_property
    def plan(self):
        """The greedy contraction plan of the wire tables, joined by the fragment's wires."""
        ends = {w.label.id: [w.producer, w.consumer] for w in self.frag.internal_wires}
        types = {name: WireTypes.of(op.legs) for name, op in self.operators.items()}
        return _plan_greedy(self.wires, [types[decl.name] for decl in self.frag.ops], ends)

    def trace(self) -> LabeledOperator:
        """The contracted operators, on the open legs in operand-scan order (1x1 if none)."""
        tensors = {name: op.tensor() for name, op in self.operators.items()}
        return _run_plan([tensors[decl.name] for decl in self.frag.ops], self.plan)

    def foliated(self, policy: str) -> float:
        """The layered state-evolution value (see :func:`probability_foliated`)."""
        decls = self.frag.ops
        fol = foliate(self.frag, policy)
        steps = [op_index for layer in fol.layers for op_index in layer]
        # the k-th input leg takes input port k, and likewise outputs, so inputs
        # then outputs, each in leg order, is every declaration's port order
        transfers = {
            name: _transfer_matrix(op.permuted([l.id for l in op.input_legs + op.output_legs]))
            for name, op in self.operators.items()
        }
        axis_sizes = {
            name: [leg.dim**2 for leg in op.output_legs] for name, op in self.operators.items()
        }
        size = peak = 1
        for op_index in steps:
            n_in, n_out = transfers[decls[op_index].name].shape
            size = size // n_in * n_out
            peak = max(peak, size)

        try:
            state, spare = np.empty(peak), np.empty(peak)
        except (ValueError, MemoryError) as exc:
            raise NotApplicableError(
                f"the foliated state under policy {policy!r} needs {peak} coefficients, "
                f"{16 * peak} bytes in two float64 buffers, which cannot be allocated"
            ) from exc
        state[0] = 1.0
        live: list[int] = []  # wire ids carried by the state, in axis order
        shape: list[int] = []  # their axis sizes, d**2 each
        size = 1
        for op_index in steps:
            decl = decls[op_index]
            transfer, out_sizes = transfers[decl.name], axis_sizes[decl.name]
            n_in, n_out = transfer.shape
            consumed = [live.index(w.id) for w in decl.inputs]
            # the consumed wires, in declaration order, form the block
            # live[start:stop]; a preparation's empty block is at the end
            start = min(consumed, default=len(live))
            stop = start + len(consumed)
            if consumed != list(range(start, stop)):
                order = [*range(start), *consumed]
                order += [i for i in range(start, len(live)) if i not in consumed]
                np.copyto(
                    spare[:size].reshape([shape[i] for i in order]),
                    state[:size].reshape(shape).transpose(order),
                )
                state, spare = spare, state
                live = [live[i] for i in order]
                shape = [shape[i] for i in order]
            rows, cols = math.prod(shape[:start]), math.prod(shape[stop:])
            out = spare[: rows * n_out * cols]
            if cols == 1:
                np.matmul(state[:size].reshape(rows, n_in), transfer, out=out.reshape(rows, n_out))
            else:
                np.matmul(
                    transfer.T,
                    state[:size].reshape(rows, n_in, cols),
                    out=out.reshape(rows, n_out, cols),
                )
            state, spare = spare, state
            size = out.size
            live[start:stop] = [w.id for w in decl.outputs]
            shape[start:stop] = out_sizes
        if live:
            raise AssertionError("open wires remained after the final layer")
        return float(state[0])


def _bind_circuit(
    circuit: CircuitFragment, binding: Binding, eps: float, check_physical: bool
) -> _BoundFragment:
    """Bind a closed circuit, warning about non-physical operators."""
    _require_circuit(circuit)
    bound = _BoundFragment(circuit, binding)
    if check_physical:
        for message in bound.nonphysical(eps):
            # the caller of probability, probability_foliated or p_function
            warnings.warn(message, PhysicalityWarning, stacklevel=3)
    return bound


def probability(
    circuit: CircuitFragment,
    binding: Binding,
    eps: float = 1e-9,
    check_physical: bool = True,
) -> float:
    """Probability of a closed circuit: the circuit trace of its bound operators.

    Non-physical bindings are evaluated anyway but emit a
    :class:`PhysicalityWarning`.
    """
    return _bind_circuit(circuit, binding, eps, check_physical).trace().scalar


def probability_foliated(
    circuit: CircuitFragment,
    binding: Binding,
    policy: str = "earliest",
    eps: float = 1e-9,
    check_physical: bool = True,
) -> float:
    """Probability via the layered state-evolution calculation.

    The unnormalized state is held as real coefficients: each live wire is
    one axis of ``d**2`` entries ``Tr(G_a rho)`` in the orthonormal
    Hermitian basis of :func:`_hermitian_basis`.  Each operation acts
    through the real transfer matrix of the completely positive map read off
    its input transpose (its Choi matrix); the state is never renormalized,
    so dropped weight carries the outcome probabilities.  Wires crossing a
    layer are carried through untouched, which realizes the identity
    padding.

    A pre-pass finds the largest state, and the state then moves between
    two flat buffers of that size, its wire axes staying in place: an
    operation's outputs replace its consumed wires as one block at the first
    of them, and a preparation appends its wires.  Each operation is one
    matrix product of the transfer matrix with the middle axis of the
    ``(L, n_in, R)`` view of the state, into the spare buffer, after which
    the buffers swap roles.  The state is permuted first, by one copy into
    the spare buffer, only when the consumed wires are not adjacent and in
    declaration order.  A state too large to allocate raises
    :class:`NotApplicableError`.
    """
    return _bind_circuit(circuit, binding, eps, check_physical).foliated(policy)


@functools.lru_cache
def _hermitian_basis(dim: int) -> np.ndarray:
    """An orthonormal basis of the ``dim x dim`` Hermitian matrices, shape (d^2, d, d).

    The diagonal units ``E_jj``, then for each ``j < k`` the pair
    ``(E_jk + E_kj)/sqrt2`` and ``i(E_jk - E_kj)/sqrt2``.  It is orthonormal
    under ``Tr(A B)``, so a Hermitian operator is ``sum_a Tr(G_a A) G_a``
    with real coefficients.  Cached per dimension and read-only.
    """
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    for j in range(dim):
        basis[j, j, j] = 1.0
    a = dim
    for j in range(dim):
        for k in range(j + 1, dim):
            basis[a, j, k] = basis[a, k, j] = 1 / np.sqrt(2)
            basis[a + 1, j, k], basis[a + 1, k, j] = 1j / np.sqrt(2), -1j / np.sqrt(2)
            a += 2
    basis.setflags(write=False)
    return basis


def _transfer_matrix(op: LabeledOperator) -> np.ndarray:
    """The real matrix of an operation's map on basis coefficients.

    ``op`` lists its input legs first.  Entry ``(a, b)`` is
    ``Tr((G_a^T (x) G_b) . Choi)``: coefficient ``b`` of the map applied to
    the input basis element ``a``, with multi-leg indices flattened row-major
    in leg order.  The shape is ``(prod d_in**2, prod d_out**2)``.
    """
    choi = input_transpose(op)
    stacks = [
        _hermitian_basis(leg.dim).transpose(0, 2, 1) if leg.role == INPUT
        else _hermitian_basis(leg.dim)
        for leg in choi.legs
    ]
    n_in = math.prod(leg.dim**2 for leg in choi.input_legs)
    return _fiducial_overlaps(choi, stacks).reshape(n_in, -1)


@dataclass(frozen=True)
class CircuitExpression:
    """A real linear combination of fragments with a common open signature."""

    terms: tuple[tuple[float, CircuitFragment], ...]

    def __post_init__(self):
        frags = [frag for _, frag in self.terms]
        if not frags:
            return
        if all(f.kind == CIRCUIT for f in frags):
            return
        reference = _fragment_signature(frags[0])
        for frag in frags[1:]:
            if _fragment_signature(frag) != reference:
                raise SignatureMismatchError(
                    "terms must share open ports and causal structure"
                )


def _fragment_signature(frag: CircuitFragment):
    return (
        frozenset(frag.open_inputs),
        frozenset(frag.open_outputs),
        causal_structure(frag).open_pairs(),
    )


def p_function(
    expr: CircuitExpression, binding: Binding, eps: float = 1e-9, check_physical: bool = True
) -> float:
    """Linear extension of probability to sums of circuits, all checked closed before any binds."""
    for _, frag in expr.terms:
        _require_circuit(frag)
    # binds here, as probability does, so that a warning points at the caller
    total = 0
    for coeff, frag in expr.terms:
        total += coeff * _bind_circuit(frag, binding, eps, check_physical).trace().scalar
    return total


def fragment_operator(frag: CircuitFragment, binding: Binding) -> LabeledOperator:
    """Contract internal wires; open ports stay as legs, in operand-scan order.  Never warns."""
    return _BoundFragment(frag, binding).trace()


def formalism_locality_ratio(
    frag_a: CircuitFragment,
    frag_b: CircuitFragment,
    binding: Binding,
    eps: float = 1e-8,
) -> float | None:
    """Proportionality constant between two fragment operators, if one exists.

    When ``A = r B`` within ``eps`` (max entry, relative to ``A``), any
    completion of the two fragments into circuits has probability ratio
    ``r``; otherwise no ratio is defined and None is returned.
    """
    op_a = fragment_operator(frag_a, binding)
    op_b = fragment_operator(frag_b, binding)
    if set(op_a.legs) != set(op_b.legs):
        raise SignatureMismatchError("fragments expose different open ports")
    op_b = op_b.permuted(op_a.ids)
    norm_b = float(np.max(np.abs(op_b.matrix)))
    if norm_b == 0.0:
        raise ZeroFragmentError("reference fragment operator is zero")
    overlap = float(np.sum(op_b.matrix.conj() * op_a.matrix).real)
    ratio = overlap / float(np.sum(np.abs(op_b.matrix) ** 2))
    residual = float(np.max(np.abs(op_a.matrix - ratio * op_b.matrix)))
    scale = max(1.0, float(np.max(np.abs(op_a.matrix))))
    if residual > eps * scale:
        return None
    return ratio


# ---------------------------------------------------------------------------
# Alternate-transpose positivity across a foliation


@dataclass(frozen=True)
class LayerMargin:
    index: int
    members: tuple[str, ...]
    min_eig: float


@dataclass(frozen=True)
class AlternateTransposeReport:
    layers: tuple[LayerMargin, ...]
    value: float
    eps: float

    @property
    def all_positive(self) -> bool:
        return all(layer.min_eig >= -self.eps for layer in self.layers)

    @property
    def value_in_unit_interval(self) -> bool:
        return -self.eps <= self.value <= 1.0 + self.eps


def _tensor_spectrum_range(factors: list[tuple[float, float]]) -> tuple[float, float]:
    """Exact (min, max) eigenvalue of a tensor product from per-factor extremes."""
    lo, hi = 1.0, 1.0
    for fmin, fmax in factors:
        candidates = (lo * fmin, lo * fmax, hi * fmin, hi * fmax)
        lo, hi = min(candidates), max(candidates)
    return lo, hi


def alternate_transpose_positivity(
    circuit: CircuitFragment,
    binding: Binding,
    eps: float = 1e-9,
    policy: str = "earliest",
) -> AlternateTransposeReport:
    """Foliate a physically bound circuit and check each layer operator is PSD
    after partial transposes on alternating layer boundaries.

    Operators in even layers (0-based) get their outputs transposed, odd
    layers their inputs, so exactly the wires crossing alternate boundaries
    are transposed on both ends.  Identity paddings join their layer after
    its operations.  The circuit value is evaluated alongside.

    A member's spectrum depends only on its matrix, leg order and layer
    parity, so it is solved once per operation name (its operator holds both) or
    padding dimension, and parity.
    """
    bound = _bind_circuit(circuit, binding, eps, check_physical=False)
    if nonphysical := bound.nonphysical(eps):
        raise NotApplicableError(nonphysical[0])
    fol = foliate(circuit, policy)
    pads: dict[int, list[WireLabel]] = {}
    for pad in fol.paddings:
        pads.setdefault(pad.layer, []).append(pad.wire)
    spectra: dict[tuple, tuple[float, float]] = {}  # (name or padding dim, parity) -> extremes
    layers: list[LayerMargin] = []
    for k, layer_ops in enumerate(fol.layers):
        # (member, key, wire): a name is its own key, a padding's key is its dimension
        members = [(circuit.ops[i].name, circuit.ops[i].name, None) for i in layer_ops]
        members += [(f"pad:{wire}", bound.wire_dims[wire.id], wire) for wire in pads.get(k, ())]
        for _, key, wire in members:
            if (key, k % 2) in spectra:
                continue
            if wire is None:
                op = bound.operators[key]
            else:
                op = identity_transformation(wire, WireLabel(wire.sys, 0), key)
            side = op.output_legs if k % 2 == 0 else op.input_legs
            spectrum = np.linalg.eigvalsh(partial_transpose(op, [l.id for l in side]).matrix)
            spectra[key, k % 2] = (float(spectrum[0]), float(spectrum[-1]))
        extremes = [spectra[key, k % 2] for _, key, _ in members]
        lo, _ = _tensor_spectrum_range(extremes) if extremes else (0.0, 0.0)
        layers.append(LayerMargin(k, tuple(name for name, _, _ in members), lo))
    return AlternateTransposeReport(tuple(layers), bound.trace().scalar, eps)
