"""Counter-based uniform variates for reproducible parallel Monte Carlo.

Every random draw in the simulator is addressed by ``(base_seed, index,
slot)``: ``index`` identifies the atom / shot / trajectory and ``slot``
the purpose of the draw within it.  The value is a splitmix-style hash
of that address, so results never depend on execution order, chunking,
or thread count, and the same triple yields the same variate on every
machine.

The mixing function is the standard splitmix64 finalizer; substream
seeds are spaced by the 64-bit golden-ratio increment.  Each is written
once, in expressions that run on a Python int (masked to 64 bits) and on
a uint64 numpy array (whose arithmetic wraps mod 2**64) alike.
"""

from __future__ import annotations

from . import _np as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int | np.ndarray) -> int | np.ndarray:
    """splitmix64 finalizer of an int, or of a uint64 array in place."""
    for shift, multiplier in ((30, _MIX1), (27, _MIX2)):
        z &= MASK64
        z ^= z >> shift
        z *= multiplier
    z &= MASK64
    z ^= z >> 31
    return z


def draw_u64(base_seed: int, index: int | np.ndarray, slot: int) -> int | np.ndarray:
    """Word for draw ``slot`` of substream ``index`` (an int or a uint64 array); ints wrap mod 2**64."""
    word = mix64(GOLDEN * index + (base_seed + GOLDEN & MASK64))
    word += GOLDEN * (slot + 1) & MASK64
    return mix64(word)


def uniform_at(base_seed: int, index: int, slot: int) -> float:
    """Uniform variate in [0, 1) with 53 random bits."""
    return _uniform(base_seed, index, slot)


def uniforms_at(base_seed: int, indices: np.ndarray, slot: int) -> np.ndarray:
    """``uniform_at`` over an array of substream indices."""
    return _uniform(base_seed, np.asarray(indices, dtype=np.uint64), slot)


def _uniform(base_seed: int, index: int | np.ndarray, slot: int) -> float | np.ndarray:
    # Neither wrapper calls the other, so a call is one draw or one array of them.
    word = draw_u64(base_seed, index, slot)
    word >>= 11
    return word * 2.0**-53
