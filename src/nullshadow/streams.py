"""Counter-based uniform variates for reproducible parallel Monte Carlo.

Every random draw in the simulator is addressed by ``(base_seed, index,
slot)``: ``index`` identifies the atom / shot / trajectory and ``slot``
the purpose of the draw within it.  The value is a splitmix-style hash
of that address, so results never depend on execution order, chunking,
or thread count, and the same triple yields the same variate on every
machine.

The mixing function is the standard splitmix64 finalizer; substream
seeds are spaced by the 64-bit golden-ratio increment.  Both a scalar
path (plain ints) and a vectorized path (uint64 numpy arrays) are
provided and produce identical values.
"""

from __future__ import annotations

from . import _np as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def draw_u64(base_seed: int, index: int, slot: int) -> int:
    """64-bit word for draw ``slot`` of substream ``index``."""
    stream = mix64((base_seed + GOLDEN * (index + 1)) & MASK64)
    return mix64((stream + GOLDEN * (slot + 1)) & MASK64)


def uniform_at(base_seed: int, index: int, slot: int) -> float:
    """Uniform variate in [0, 1) with 53 random bits."""
    return (draw_u64(base_seed, index, slot) >> 11) * (1.0 / (1 << 53))


def uniforms_at(base_seed: int, indices: np.ndarray, slot: int) -> np.ndarray:
    """Vectorized ``uniform_at`` over an array of substream indices."""
    idx = np.asarray(indices, dtype=np.uint64)
    base = np.uint64((base_seed + GOLDEN) & MASK64)
    slot_off = np.uint64((GOLDEN * (slot + 1)) & MASK64)
    stream = _mix64_array(base + np.uint64(GOLDEN) * idx)
    words = _mix64_array(stream + slot_off)
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))
