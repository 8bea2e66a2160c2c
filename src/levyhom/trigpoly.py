"""Real trigonometric polynomials on the torus, in x alone or jointly in (x, z).

Coefficients live on the integer lattice as a dict ``{(mx, mz): complex}`` with
Hermitian symmetry (``c[-m] == conj(c[m])``), so evaluations are real. This is
the workhorse representation for periodic jump kernels and drift fields: exact
Fourier data makes directional averaging and mode bookkeeping exact as well.
"""

from __future__ import annotations

import numpy as np

_TWO_PI = 2.0 * np.pi


def _as_mode(m, dim):
    m = tuple(int(v) for v in m)
    if len(m) != dim:
        raise ValueError(f"mode {m} has wrong dimension, expected {dim}")
    return m


class TrigPoly:
    """Finite Fourier sum ``sum_m c_m exp(2 pi i (mx.x + mz.z))`` with real values."""

    def __init__(self, dim_x, dim_z, coeffs, tol=1e-15):
        self.dim_x = int(dim_x)
        self.dim_z = int(dim_z)
        sym = {}
        for (mx, mz), c in coeffs.items():
            mx = _as_mode(mx, self.dim_x)
            mz = _as_mode(mz, self.dim_z)
            sym[(mx, mz)] = sym.get((mx, mz), 0.0) + complex(c)
        # store both Hermitian halves: real values, and exact rebuilds
        full = {}
        for (mx, mz), c in sym.items():
            neg = (tuple(-v for v in mx), tuple(-v for v in mz))
            full[(mx, mz)] = full.get((mx, mz), 0.0) + 0.5 * c
            full[neg] = full.get(neg, 0.0) + 0.5 * np.conj(c)
        self.coeffs = {m: c for m, c in full.items() if abs(c) > tol}
        self._compile()

    def _compile(self):
        # real form: value = const + sum 2(Re c cos(2 pi m.y) - Im c sin(...))
        # over one representative of each conjugate mode pair
        const = 0.0
        reps = []
        for (mx, mz), c in sorted(self.coeffs.items()):
            m = mx + mz
            if not any(m):
                const += c.real
                continue
            first = next(v for v in m if v != 0)
            if first < 0:
                continue
            reps.append((mx, mz, c))
        n = len(reps)
        self._const = const
        self._mx = np.array([r[0] for r in reps], dtype=float).reshape(n,
                                                                       self.dim_x)
        self._mz = np.array([r[1] for r in reps], dtype=float).reshape(n,
                                                                       self.dim_z)
        self._amp_cos = np.array([2.0 * r[2].real for r in reps])
        self._amp_sin = np.array([-2.0 * r[2].imag for r in reps])
        self._n_terms = n

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, dim_x, dim_z, value):
        return cls(dim_x, dim_z, {((0,) * dim_x, (0,) * dim_z): value})

    @classmethod
    def cos_x(cls, dim_x, dim_z, mode, amplitude=1.0):
        mode = _as_mode(mode, dim_x)
        z0 = (0,) * dim_z
        neg = tuple(-v for v in mode)
        return cls(dim_x, dim_z, {(mode, z0): amplitude / 2.0,
                                  (neg, z0): amplitude / 2.0})

    @classmethod
    def sin_x(cls, dim_x, dim_z, mode, amplitude=1.0):
        mode = _as_mode(mode, dim_x)
        z0 = (0,) * dim_z
        neg = tuple(-v for v in mode)
        return cls(dim_x, dim_z, {(mode, z0): amplitude / 2.0j,
                                  (neg, z0): -amplitude / 2.0j})

    @classmethod
    def cos_z(cls, dim_x, dim_z, mode, amplitude=1.0):
        mode = _as_mode(mode, dim_z)
        x0 = (0,) * dim_x
        neg = tuple(-v for v in mode)
        return cls(dim_x, dim_z, {(x0, mode): amplitude / 2.0,
                                  (x0, neg): amplitude / 2.0})

    # -- algebra -----------------------------------------------------------
    def __add__(self, other):
        if np.isscalar(other):
            other = TrigPoly.const(self.dim_x, self.dim_z, other)
        merged = dict(self.coeffs)
        for m, c in other.coeffs.items():
            merged[m] = merged.get(m, 0.0) + c
        return TrigPoly(self.dim_x, self.dim_z, merged)

    __radd__ = __add__

    def __mul__(self, other):
        if np.isscalar(other):
            return TrigPoly(self.dim_x, self.dim_z,
                            {m: c * other for m, c in self.coeffs.items()})
        out = {}
        for (ax, az), ca in self.coeffs.items():
            for (bx, bz), cb in other.coeffs.items():
                key = (tuple(p + q for p, q in zip(ax, bx)),
                       tuple(p + q for p, q in zip(az, bz)))
                out[key] = out.get(key, 0.0) + ca * cb
        return TrigPoly(self.dim_x, self.dim_z, out)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, TrigPoly) else -other)

    # -- evaluation and queries ---------------------------------------------
    def __call__(self, x=None, z=None):
        """Evaluate at points; ``x``/``z`` have trailing dimension dim_x/dim_z."""
        if self._n_terms == 0:
            shape = ()
            if self.dim_x:
                shape = np.asarray(x).shape[:-1]
            if self.dim_z:
                shape = np.broadcast_shapes(shape, np.asarray(z).shape[:-1])
            return np.full(shape, self._const) if shape else self._const
        phase = 0.0
        shape = ()
        if self.dim_x:
            x = np.asarray(x, dtype=float)
            phase = x @ self._mx.T
            shape = x.shape[:-1]
        if self.dim_z:
            z = np.asarray(z, dtype=float)
            phase = phase + z @ self._mz.T
            shape = np.broadcast_shapes(shape, z.shape[:-1])
        phase = _TWO_PI * phase
        val = np.cos(phase) @ self._amp_cos + self._const
        if np.any(self._amp_sin):
            val = val + np.sin(phase) @ self._amp_sin
        return np.broadcast_to(val, shape).copy() if val.shape != shape else val

    @property
    def mean(self):
        """Integral over the full torus (coefficient of the zero mode)."""
        z0 = ((0,) * self.dim_x, (0,) * self.dim_z)
        return float(np.real(self.coeffs.get(z0, 0.0)))

    def max_mode_order(self):
        orders = [max([abs(v) for v in mx + mz] or [0])
                  for (mx, mz) in self.coeffs]
        return max(orders or [0])

    def depends_on_z(self):
        return any(any(v != 0 for v in mz) for (_, mz) in self.coeffs)

    def depends_on_x(self):
        return any(any(v != 0 for v in mx) for (mx, _) in self.coeffs)

    def collect_z_modes(self, weight):
        """x-poly of coefficients sum_mz c_(mx,mz) weight(mz) (bool: select)."""
        out = {}
        for (mx, mz), c in self.coeffs.items():
            out[(mx, ())] = out.get((mx, ()), 0.0) + c * weight(mz)
        return TrigPoly(self.dim_x, 0, out)

    def mollify_z(self, width):
        """Gaussian mollification in z: damp mode mz by exp(-2 pi^2 w^2 |mz|^2)."""
        out = {}
        for (mx, mz), c in self.coeffs.items():
            damp = np.exp(-2.0 * np.pi ** 2 * width ** 2 *
                          sum(v * v for v in mz))
            out[(mx, mz)] = c * damp
        return TrigPoly(self.dim_x, self.dim_z, out)

    def bounds_exact(self):
        """Crude certified bounds: mean +/- sum of |nonzero-mode coefficients|."""
        z0 = ((0,) * self.dim_x, (0,) * self.dim_z)
        spread = sum(abs(c) for m, c in self.coeffs.items() if m != z0)
        return self.mean - spread, self.mean + spread

    def __repr__(self):
        return f"TrigPoly(dim_x={self.dim_x}, dim_z={self.dim_z}, terms={len(self.coeffs)})"
