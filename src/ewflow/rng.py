"""Deterministic random number generation with derivable substreams."""

from __future__ import annotations

import numpy as np

__all__ = ["Rng", "MAX_SEED"]

# Seeds are unsigned 64-bit integers: 0 <= seed < MAX_SEED.
MAX_SEED = 2**64


class Rng:
    """Counter-based generator (Philox) with platform-stable streams.

    Identical seeds produce identical draw sequences; Gaussian variates come
    from the generator's ziggurat transform. ``derive`` yields statistically
    independent substreams keyed by integer indices, so parallel work (grid
    cells, particles) can be split without changing any output.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < MAX_SEED:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self.path = _path
        ss = np.random.SeedSequence(entropy=seed, spawn_key=_path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def derive(self, *indices: int) -> "Rng":
        """Independent substream keyed by (seed, *path, *indices)."""
        return Rng(self.seed, self.path + tuple(int(i) for i in indices))

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def categorical(self, probs, size: int) -> np.ndarray:
        """Draw indices from a probability vector by inverse-CDF lookup."""
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1:
            raise ValueError("probs must be a vector")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("probs must be nonnegative and finite")
        total = p.sum()
        if total <= 0:
            raise ValueError("probs must have positive mass")
        cdf = np.cumsum(p / total)
        cdf[-1] = 1.0
        u = self._gen.uniform(0.0, 1.0, size)
        return np.searchsorted(cdf, u, side="right").astype(np.int64)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={self.path})"
