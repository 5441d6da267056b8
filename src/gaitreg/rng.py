"""Deterministic pseudo-random generator used for every stochastic choice.

The generator is splitmix64 (Steele, Lea & Flood; also the seeding routine
of xoshiro).  It is a counter-based mixer, so the i-th output of a stream
is a pure function of (seed, i):

    state_i = seed + i * 0x9E3779B97F4A7C15          (mod 2**64)
    z = state_i
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9          (mod 2**64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB          (mod 2**64)
    output_i = z ^ (z >> 31)

Down-stream conventions, all fixed so that fixtures are reproducible from
the constants in this file alone:

* uniform doubles take the top 53 bits: u = (output >> 11) * 2**-53, in [0, 1).
* one normal deviate consumes two uniforms via Box-Muller:
  n = sqrt(-2*ln(1 - u0)) * cos(2*pi*u1); 1 - u0 is in (0, 1] so the log is finite.
* permutations are Fisher-Yates, descending index, j = floor(u * (i + 1)).
* sub-stream seeds are derived by folding integer parts through the same
  mixer (see derive_seed), never by wall clock.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Fold integers into one 64-bit sub-stream seed.

    derive_seed(a, b, ...) = mix64(...mix64(mix64(a + G) + b + G)...), with
    G the golden-gamma increment.  Order matters; negative parts are taken
    mod 2**64.
    """
    h = 0
    for p in parts:
        h = mix64((h + _GOLDEN + (p & _MASK)) & _MASK)
    return h


class SplitMix64:
    """One splitmix64 stream with block (vectorized) output."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK)
        self._count = 0

    def u64_block(self, k: int) -> np.ndarray:
        """Next k raw 64-bit outputs as a uint64 array."""
        idx = np.arange(self._count + 1, self._count + k + 1, dtype=np.uint64)
        self._count += k
        with np.errstate(over="ignore"):
            z = self._seed + idx * np.uint64(_GOLDEN)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        return z

    def uniform_block(self, k: int) -> np.ndarray:
        """Next k doubles uniform on [0, 1)."""
        return (self.u64_block(k) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self) -> float:
        return float(self.uniform_block(1)[0])

    def normal_block(self, k: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Next k standard-normal deviates scaled to (mean, std)."""
        u = self.uniform_block(2 * k)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        z = r * np.cos(2.0 * np.pi * u[1::2])
        return mean + std * z

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        return float(self.normal_block(1, mean, std)[0])

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        if n < 2:
            return np.arange(n)
        # swap k exchanges position i = n - 1 - k with floor(u_k * (i + 1))
        swaps = (self.uniform_block(n - 1) * np.arange(n, 1, -1)).astype(np.int64).tolist()
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), swaps):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm)
