"""Torus grid: the interpolation stencil against its reference loop."""

import numpy as np
import pytest

from levyhom.grid import TorusGrid


def _interp_weights_reference(grid, points):
    """Reference stencil: per-corner multi-indices wrapped by flat_index."""
    pts = np.asarray(points, dtype=float) * grid.n
    base = np.floor(pts).astype(np.int64)
    frac = pts - base
    m = pts.shape[0]
    ncorn = 1 << grid.d
    idx = np.empty((m, ncorn), dtype=np.int64)
    wts = np.empty((m, ncorn))
    for corner in range(ncorn):
        offs = [(corner >> a) & 1 for a in range(grid.d)]
        multi = base + np.asarray(offs)[None, :]
        idx[:, corner] = grid.flat_index(multi)
        w = np.ones(m)
        for a in range(grid.d):
            w = w * (frac[:, a] if offs[a] else 1.0 - frac[:, a])
        wts[:, corner] = w
    return idx, wts


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 5)])
def test_interp_weights_equal_reference(d, n):
    grid = TorusGrid(d, n)
    rng = np.random.default_rng(d)
    below_one = np.nextafter(1.0, 0.0)
    special = np.array([-1.0, -grid.h, -0.3 * grid.h, 0.0, grid.h, 0.5,
                        1.0 - grid.h, below_one, 1.0, 2.0 + 3 * grid.h,
                        -2.0 - below_one])
    pts = np.concatenate([
        rng.uniform(-3.0, 3.0, (2000, d)),
        rng.choice(special, (400, d)),
        np.repeat(special[:, None], d, axis=1),
    ])
    idx, wts = grid.interp_weights(pts)
    ref_idx, ref_wts = _interp_weights_reference(grid, pts)
    assert np.array_equal(idx, ref_idx) and np.array_equal(wts, ref_wts)
    assert idx.min() >= 0 and idx.max() < grid.size
