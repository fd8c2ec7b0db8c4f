"""Process tomography: reconstruct a black-box operation from fiducial circuits.

The box is probed with every combination of fiducial preparations on its
inputs and fiducial results on its outputs; the probability array is the
all-black duotensor, which the inverse hopping metric converts to expansion
coefficients, yielding the operator by fiducial weighting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping

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

    The memo maps the fiducial sets on the legs (a tuple, or the one set of
    a one-leg box) to the box's array of values, one per setting; the sets
    are immutable and hash by identity.  The key is looked up by one
    ``itemgetter`` made once per box, so a box asked setting by setting pays
    no per-call rebuild of it.
    """

    hidden: LabeledOperator
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _key: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        systems = [leg.sys for leg in self.hidden.legs]
        key = itemgetter(*systems) if systems else lambda fsets: ()
        object.__setattr__(self, "_key", key)

    @property
    def signature(self) -> tuple[Leg, ...]:
        return self.hidden.legs

    def _values(self, fsets: Mapping[str, FiducialSet]) -> np.ndarray:
        key = self._key(fsets)
        values = self._memo.get(key)
        if values is None:
            stacks = [_fiducial_stack(fsets, leg, probing=True) for leg in self.hidden.legs]
            values = self._memo[key] = self._from_overlaps(_fiducial_overlaps(self.hidden, stacks))
        return values

    def _from_overlaps(self, overlaps: np.ndarray) -> np.ndarray:
        return overlaps

    def probability(
        self, setting: tuple[int, ...], fsets: Mapping[str, FiducialSet]
    ) -> float:
        return float(self._values(fsets)[tuple(setting)])


@dataclass(frozen=True)
class ExactBlackBox(_FiducialBox):
    """Evaluates fiducial circuits of a hidden operator exactly.

    The first call for given fiducial sets contracts the operator with every
    fiducial combination, one leg at a time, and keeps the array; each later
    call with the same sets is an O(1) lookup.
    """


@dataclass(frozen=True)
class SampledBlackBox(_FiducialBox):
    """Adds binomial shot noise to each fiducial-circuit probability.

    Each setting draws ``binomial(shots, p)`` for an integer ``shots >= 1``,
    with ``p`` clamped to [0, 1].  The first call for given fiducial sets
    draws the whole array at once from a fresh ``np.random.default_rng(seed)``,
    so one seed always gives one array, whatever order the settings are
    asked in; each later call is an O(1) lookup.  ``shots`` and ``seed`` are
    checked when the box is made, and a bool is not an integer here.
    """

    shots: int
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if isinstance(self.shots, bool) or not isinstance(self.shots, (int, np.integer)):
            raise TypeError(f"shots must be an integer, not {type(self.shots).__name__}")
        if self.shots < 1:
            raise ValueError(f"shots must be at least 1, got {self.shots}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, not {type(self.seed).__name__}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def _from_overlaps(self, overlaps: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        counts = rng.binomial(self.shots, np.clip(overlaps, 0, 1), size=overlaps.shape)
        return counts / self.shots


def probe(bb, fsets: Mapping[str, FiducialSet]) -> Duotensor:
    """All fiducial-circuit probabilities of the box: the all-black duotensor.

    The library's boxes hand over their whole memoized array, contracted
    one leg at a time on first use; a sampled box then draws it with one
    binomial call.  Any other box is asked ``bb.probability`` for every
    setting in row-major order, so a wrapping box sees each one, and the
    values it passes on from a library box are that box's array.
    """
    legs = bb.signature
    if isinstance(bb, _FiducialBox):
        data = bb._values(fsets)
    else:
        shape = tuple(fsets[leg.sys].k for leg in legs)
        settings = itertools.product(*map(range, shape))
        data = np.array([bb.probability(s, fsets) for s in settings], dtype=float).reshape(shape)
    indices = tuple(DuoIndex(l.sys, l.id, l.role, l.dim, BLACK) for l in legs)
    return Duotensor(indices, data)


def reconstruct_operation(bb, fsets: Mapping[str, FiducialSet]) -> LabeledOperator:
    """Probe, convert black to white with the inverse metric, and rebuild."""
    black = probe(bb, fsets)
    white = convert_dots(black, WHITE, fsets)
    return reconstruct(white, fsets, legs=bb.signature)
