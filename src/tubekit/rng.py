"""Counter-based deterministic random numbers (splitmix64).

Every stochastic artifact in the toolkit (phantom noise, demo weights)
draws from these helpers instead of a stateful generator, so a value
depends only on (seed, counter) and outputs are reproducible bit-for-bit
across runs and platforms with IEEE-754 doubles.

Mixing function: splitmix64.  State i is seed + (i+1)*GOLDEN, finalized
with the standard xor-shift/multiply avalanche.
"""

import numpy as np

from .errors import ParameterError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, counters: np.ndarray) -> np.ndarray:
    """Mix (seed, counter) pairs into uint64 words.

    counters: array of non-negative integers; returns uint64 array of the
    same shape.  Pure function of its arguments.
    """
    with np.errstate(over="ignore"):
        z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
             + (counters.astype(np.uint64) + np.uint64(1)) * _GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def uniform01(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniform doubles in (0, 1], one per counter (53-bit mantissa)."""
    bits = splitmix64(seed, counters)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def normal(seed: int, counters: np.ndarray) -> np.ndarray:
    """Standard normal deviates via Box-Muller, one per counter.

    Uses counters 2i and 2i+1 internally so callers can treat the counter
    space as one-draw-per-index.
    """
    c = counters.astype(np.uint64)
    with np.errstate(over="ignore"):
        u1 = uniform01(seed, c * np.uint64(2))
        u2 = uniform01(seed, c * np.uint64(2) + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def uniform_range(seed: int, n: int, lo: float, hi: float) -> np.ndarray:
    """n uniform doubles in [lo, hi) from counters 0..n-1."""
    u = uniform01(seed, np.arange(n, dtype=np.uint64)) - 2.0 ** -53
    return lo + (hi - lo) * u


def check_derived_seed(seed: int, scale: int, offset: int):
    """A ParameterError unless 0 <= seed and the largest seed derived from
    it, scale*seed + offset, lies below 2^64: ``splitmix64`` reads a seed
    modulo 2^64, so a seed beyond would alias another.  The message names
    ``seed`` and the range of seeds that pass."""
    limit = -(-(2 ** 64 - offset) // scale)  # the least seed with scale*seed + offset >= 2^64
    if not 0 <= seed < limit:
        raise ParameterError(f"seed must lie in [0, {limit}), got {seed}")
