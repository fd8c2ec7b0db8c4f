"""Process tomography: reconstruct a black-box operation from fiducial circuits.

The box is probed with every combination of fiducial preparations on its
inputs and fiducial results on its outputs; the probability array is the
all-black duotensor, which the inverse hopping metric converts to expansion
coefficients, yielding the operator by fiducial weighting.
"""

from __future__ import annotations

import itertools
import math
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

    The memo maps the tuple of fiducial sets on the legs to the box's array
    of values, one per setting; the sets are immutable and hash by identity.
    """

    hidden: LabeledOperator
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def signature(self) -> tuple[Leg, ...]:
        return self.hidden.legs

    def _values(self, fsets: Mapping[str, FiducialSet]) -> np.ndarray:
        legs = self.hidden.legs
        key = tuple(fsets[leg.sys] for leg in legs)
        values = self._memo.get(key)
        if values is None:
            stacks = [_fiducial_stack(fsets, leg, probing=True) for leg in legs]
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
    with ``p`` clamped to [0, 1], from its own PCG64 stream, identical to
    ``np.random.default_rng((seed,) + setting)``; so results do not depend on
    probe order.  The first call for given fiducial sets draws the whole
    array, deriving every stream's state in one batch; each later call is
    an O(1) lookup.
    """

    shots: int
    seed: int = 0

    def _from_overlaps(self, overlaps: np.ndarray) -> np.ndarray:
        if not isinstance(self.shots, (int, np.integer)):
            raise TypeError(f"shots must be an integer, not {type(self.shots).__name__}")
        if self.shots < 1:
            raise ValueError(f"shots must be at least 1, got {self.shots}")
        bitgen = np.random.PCG64()
        draw = np.random.Generator(bitgen).binomial
        stream = {"state": 0, "inc": 0}  # refilled for each setting
        state = {"bit_generator": "PCG64", "state": stream, "has_uint32": 0, "uinteger": 0}
        shots = float(self.shots)
        sampled = []
        for p, (stream["state"], stream["inc"]) in zip(
            overlaps.ravel().tolist(), _stream_states(self.seed, overlaps.shape)
        ):
            bitgen.state = state
            sampled.append(float(draw(self.shots, min(1.0, max(0.0, p)))) / shots)
        return np.array(sampled).reshape(overlaps.shape)


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _stream_states(seed: int, shape: tuple[int, ...]) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng((seed,) + setting)`` for every setting.

    Settings run in row-major order.  numpy's ``SeedSequence`` mixes its
    entropy words, the seed's little-endian 32-bit words then the setting's
    indices, into a pool of 4 words with hash constants that do not depend
    on the data, so the mixing runs on one array per pool word across all
    settings; PCG64's seeding step then runs on Python integers.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [int(seed) >> s & _M32 for s in range(0, max(int(seed).bit_length(), 1), 32)]
    count = math.prod(shape)
    entropy = [np.full(count, w, np.uint32) for w in words]
    entropy += list(np.indices(shape, np.uint32).reshape(len(shape), count))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ value >> np.uint32(16)

    padding = [np.zeros(count, np.uint32)] * (4 - len(entropy))
    pool = [hashmix(word) for word in entropy[:4] + padding]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 words cycled from the pool, paired little-endian
    const, state_words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value = value * np.uint32(const)
        state_words.append((value ^ value >> np.uint32(16)).astype(np.uint64))
    halves = [
        (state_words[2 * j] | state_words[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)
    ]
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*halves):
        # pcg64_set_seed: inc = 2i + 1; step, add the seed, step
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _M128
        states.append((((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _M128, inc))
    return states


def probe(bb, fsets: Mapping[str, FiducialSet]) -> Duotensor:
    """All fiducial-circuit probabilities of the box: the all-black duotensor.

    The library's boxes hand over their whole memoized array, contracted
    (and for a sampled box, drawn) on first use.  Any other box is asked
    ``bb.probability`` for every setting in row-major order, so a wrapping
    box sees each one.
    """
    legs = bb.signature
    if isinstance(bb, _FiducialBox):
        data = bb._values(fsets)
    else:
        shape = tuple(fsets[leg.sys].k for leg in legs)
        data = np.empty(shape)
        for setting in itertools.product(*map(range, shape)):
            data[setting] = bb.probability(setting, fsets)
    indices = tuple(DuoIndex(l.sys, l.id, l.role, l.dim, BLACK) for l in legs)
    return Duotensor(indices, data)


def reconstruct_operation(bb, fsets: Mapping[str, FiducialSet]) -> LabeledOperator:
    """Probe, convert black to white with the inverse metric, and rebuild."""
    black = probe(bb, fsets)
    white = convert_dots(black, WHITE, fsets)
    return reconstruct(white, fsets, legs=bb.signature)
