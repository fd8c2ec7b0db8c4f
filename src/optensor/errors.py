"""Exception and warning types shared across the package."""

from __future__ import annotations


class CircuitSyntaxError(ValueError):
    """Raised when circuit text does not match the DSL grammar.

    Carries the character offset of the failure and a description of what
    was expected there.
    """

    def __init__(self, message: str, position: int, expected: str):
        super().__init__(f"{message} at position {position} (expected {expected})")
        self.position = position
        self.expected = expected


class WiringError(ValueError):
    """Base class for violations of the circuit wiring rules."""


class OneWireViolation(WiringError):
    """An input or output slot would have more than one wire attached."""


class TypeMismatch(WiringError):
    """A wire joins ports of different system types."""


class ClosedLoop(WiringError):
    """The wiring contains a directed cycle."""


class DuplicateLabelError(ValueError):
    """Two operator legs carry the same wire id."""


class UnknownLabelError(KeyError):
    """A referenced wire id is not a leg of the operator."""


class NonHermitianError(ValueError):
    """Matrix deviates from Hermiticity beyond tolerance."""


class DimMismatchError(ValueError):
    """Dimensions disagree: the two ends of a wire, or a matrix and its legs."""


class SignatureMismatchError(ValueError):
    """Operator leg signature does not match what the context requires."""


class SingularMetricError(ValueError):
    """Hopping metric is singular and cannot be inverted."""


class SingularBasisError(ValueError):
    """Fiducial basis does not span the operator space."""


class ShapeMismatchError(ValueError):
    """Duotensor data shape does not match its index list."""


class NonUnitaryError(ValueError):
    """Supplied matrix is not unitary within tolerance."""


class UnboundOperationError(KeyError):
    """A circuit operation has no operator bound to it."""


class NonCircuitTermError(ValueError):
    """A linear-combination term is an open fragment, not a circuit."""


class ZeroFragmentError(ValueError):
    """Reference fragment operator is zero; no ratio is defined."""


class NotApplicableError(ValueError):
    """Requested construction does not apply (e.g. witness for a physical operator)."""


class PhysicalityWarning(UserWarning):
    """A bound operator fails the physicality conditions."""


class ConditioningWarning(UserWarning):
    """A linear solve is badly conditioned; results may lose precision."""
