"""Process tomography: reconstruct a black-box operation from fiducial circuits.

The box is probed with every combination of fiducial preparations on its
inputs and fiducial results on its outputs; the probability array is the
all-black duotensor, which the inverse hopping metric converts to expansion
coefficients, yielding the operator by fiducial weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .duotensor import (
    BLACK,
    WHITE,
    DuoIndex,
    Duotensor,
    FiducialSet,
    _fiducial_overlaps,
    _fiducial_stack,
    convert_dots,
    reconstruct,
)
from .operators import LabeledOperator, Leg


@dataclass(frozen=True)
class _FiducialBox:
    """A hidden operator whose fiducial-circuit values are computed all at once.

    The memo maps the tuple of fiducial sets on the legs to the all-black
    array; the sets are immutable and hash by identity.
    """

    hidden: LabeledOperator
    _black: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def signature(self) -> tuple[Leg, ...]:
        return self.hidden.legs

    def _exact(self, setting: tuple[int, ...], fsets: Mapping[str, FiducialSet]) -> float:
        legs = self.hidden.legs
        key = tuple(fsets[leg.sys] for leg in legs)
        black = self._black.get(key)
        if black is None:
            stacks = [_fiducial_stack(fsets, leg, probing=True) for leg in legs]
            black = self._black[key] = _fiducial_overlaps(self.hidden, stacks)
        return float(black[tuple(setting)])


@dataclass(frozen=True)
class ExactBlackBox(_FiducialBox):
    """Evaluates fiducial circuits of a hidden operator exactly.

    The first call for given fiducial sets contracts the operator with every
    fiducial combination in one einsum and keeps the array; each later call
    with the same sets is an O(1) lookup.
    """

    def probability(
        self, setting: tuple[int, ...], fsets: Mapping[str, FiducialSet]
    ) -> float:
        return self._exact(setting, fsets)


@dataclass(frozen=True)
class SampledBlackBox(_FiducialBox):
    """Adds binomial shot noise to each fiducial-circuit probability.

    Each setting draws from its own RNG stream seeded by (seed, setting), so
    results do not depend on probe order.  The exact values come from the
    same memoized array as :class:`ExactBlackBox`, so each call after the
    first for given fiducial sets costs an O(1) lookup plus one draw.
    """

    shots: int
    seed: int = 0

    def probability(
        self, setting: tuple[int, ...], fsets: Mapping[str, FiducialSet]
    ) -> float:
        p = min(1.0, max(0.0, self._exact(setting, fsets)))
        rng = np.random.default_rng((self.seed,) + tuple(setting))
        return float(rng.binomial(self.shots, p)) / float(self.shots)


def probe(bb, fsets: Mapping[str, FiducialSet]) -> Duotensor:
    """All fiducial-circuit probabilities of the box: the all-black duotensor.

    Every setting is asked of ``bb.probability`` in turn, so a wrapping box
    sees each one.  For the library's boxes the first call contracts the
    whole array once and each further call is an O(1) lookup.
    """
    legs = bb.signature
    shape = tuple(fsets[leg.sys].k for leg in legs)
    data = np.empty(shape)
    for setting in np.ndindex(*shape):
        data[setting] = bb.probability(tuple(int(i) for i in setting), fsets)
    indices = tuple(DuoIndex(l.sys, l.id, l.role, l.dim, BLACK) for l in legs)
    return Duotensor(indices, data)


def reconstruct_operation(bb, fsets: Mapping[str, FiducialSet]) -> LabeledOperator:
    """Probe, convert black to white with the inverse metric, and rebuild."""
    black = probe(bb, fsets)
    white = convert_dots(black, WHITE, fsets)
    return reconstruct(white, fsets, legs=bb.signature)
