"""Regular periodic grids on the unit torus (d <= 3)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    d: int
    n: int

    @property
    def size(self):
        return self.n ** self.d

    @property
    def h(self):
        return 1.0 / self.n

    @property
    def centers(self):
        g = np.arange(self.n) / self.n
        if self.d == 1:
            return g[:, None]
        mesh = np.meshgrid(*([g] * self.d), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def flat_index(self, multi):
        """Flatten per-axis indices (..., d) into linear cell indices."""
        multi = np.asarray(multi)
        idx = multi[..., 0] % self.n
        for a in range(1, self.d):
            idx = idx * self.n + (multi[..., a] % self.n)
        return idx

    def cell_of(self, points):
        """Linear index of the cell containing each point (mod 1)."""
        pts = np.asarray(points, dtype=float)
        multi = np.floor(pts * self.n).astype(np.int64)
        return self.flat_index(multi)

    def neighbor(self, idx, axis, step):
        """Linear indices shifted by ``step`` cells along ``axis`` (periodic)."""
        idx = np.asarray(idx)
        stride = self.n ** (self.d - 1 - axis)
        along = (idx // stride) % self.n
        return idx + ((along + step) % self.n - along) * stride

    def interp_weights(self, points):
        """Periodic multilinear interpolation stencil.

        Returns (indices, weights) with shapes (m, 2^d); weights are
        nonnegative and sum to one per point.
        """
        pts = np.asarray(points, dtype=float) * self.n
        lo = np.floor(pts)
        frac = pts - lo
        lo = lo.astype(np.int64)
        lo %= self.n
        hi = lo + 1
        hi[hi == self.n] = 0
        idx = np.empty((pts.shape[0], 1 << self.d), dtype=np.int64)
        wts = np.empty(idx.shape)
        for corner in range(idx.shape[1]):
            i, w = 0, 1.0
            for a in range(self.d):
                up = (corner >> a) & 1
                i = i * self.n + (hi[:, a] if up else lo[:, a])
                w = w * (frac[:, a] if up else 1.0 - frac[:, a])
            idx[:, corner] = i
            wts[:, corner] = w
        return idx, wts
