"""Deterministic random number generation.

``SeededRng`` wraps numpy's Philox bit generator, a counter-based generator
whose output stream depends only on its key, so equal seeds reproduce equal
draw sequences across runs and platforms. Independent streams for concurrent
owners are derived by ``split``: a child's key is seeded from the tuple
(seed, stream path), never from shared mutable state.
"""

import numpy as np


class SeededRng:
    """Single-owner random stream keyed by (seed, stream path)."""

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self._path = tuple(int(p) for p in _path)
        ss = np.random.SeedSequence([self.seed, *self._path])
        self._gen = np.random.Generator(np.random.Philox(ss))

    def split(self, stream_id: int) -> "SeededRng":
        """Derive an independent child stream; children never overlap."""
        return SeededRng(self.seed, self._path + (int(stream_id),))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform draws in [low, high)."""
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
