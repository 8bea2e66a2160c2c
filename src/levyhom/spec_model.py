"""Coefficient data for periodic Levy-type generators and derived quantities.

A :class:`JumpSpec` bundles the pieces of the integro-differential generator

    L f(x) = int (f(x+z) - f(x) - <grad f(x), z> 1_{|z|<=1}) k(x,z) Pi(dz)
             + <b(x), grad f(x)>

where the jump measure splits into an isotropic small-jump part on {|z|<=1}
and a spherically decomposed tail  1_{r>1} (rho0(dtheta) + kappa(r,dtheta))
dr / (r phi(r))  driven by a regularly varying scaling function phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .quadrature import (log_edges, panel_nodes, power_radial_integral,
                         power_tail_transform, radial_fourier_integral)
from .trigpoly import TrigPoly


class IntegrabilityError(Exception):
    """Raised when a drift tail integral diverges for the given scaling function."""


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2 points for d=1)."""
    if d == 1:
        return 2.0
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


# longest table that categorical_index counts instead of searching:
# ns per draw of the clipped search / the count, uniforms a strided column
# of a packet block (2-core Xeon host, best of 7):
#   draws   8 entries  16 entries  24 entries  32 entries  64 entries
#   2^12    16.7/12.7  24.0/25.3   24.4/25.9   27.6/32.8   39.8/69.3
#   2^14    19.3/6.5   26.9/14.2   31.8/21.2   33.1/27.2   45.3/53.2
#   2^16    17.8/7.0   31.5/11.5   36.3/18.8   39.8/21.6   55.1/49.1
_SHORT_TABLE = 16


def categorical_index(cum, u):
    """Categorical draws from uniforms ``u`` on the ascending cumulative
    table ``cum``: the first entry past each uniform, at most the last one
    (a table whose last entry rounds below one).

    That index is the number of entries at or below u among all but the
    last. A table of at most ``_SHORT_TABLE`` entries counts them, one
    comparison per entry on a contiguous copy of u; a longer one takes the
    clipped ``searchsorted``. Both give the same intp values."""
    if len(cum) > _SHORT_TABLE:
        return np.minimum(np.searchsorted(cum, u, side="right"),
                          len(cum) - 1)
    u = np.ascontiguousarray(u)
    idx = np.zeros(u.shape, dtype=np.intp)
    for c in cum[:-1]:
        idx += u >= c
    return idx


# ---------------------------------------------------------------------------
# spherical measures
# ---------------------------------------------------------------------------

class SphericalMeasure:
    """Finite measure on the unit sphere: uniform, density, or atomic.

    Internally every variant carries a fixed node table (thetas, weights) used
    by all quadratures; for atoms the table is exact.
    """

    def __init__(self, d, variant, thetas, weights, meta=None):
        self.d = int(d)
        self.variant = variant
        self.thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        self.weights = np.asarray(weights, dtype=float)
        self.meta = meta or {}
        if self.weights.ndim != 1 or len(self.weights) != len(self.thetas):
            raise ValueError("node/weight shape mismatch")
        if np.any(self.weights < 0):
            raise ValueError("angular weights must be nonnegative")
        norms = np.linalg.norm(self.thetas, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("directions must be unit vectors (within 1e-12)")
        self.total_mass = float(self.weights.sum())
        if not np.isfinite(self.total_mass) or self.total_mass <= 0:
            raise ValueError("total angular mass must be finite and positive")
        self._cum = np.cumsum(self.weights) / self.total_mass

    # -- constructors ------------------------------------------------------
    @classmethod
    def uniform(cls, d, total_mass=1.0, n_nodes=None):
        if total_mass <= 0:
            raise ValueError("total_mass must be positive")
        if d == 1:
            thetas = np.array([[1.0], [-1.0]])
            weights = np.array([0.5, 0.5]) * total_mass
        elif d == 2:
            n = n_nodes or 64
            ang = (np.arange(n) + 0.5) / n * 2 * np.pi
            thetas = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            weights = np.full(n, total_mass / n)
        elif d == 3:
            npol = 16
            naz = n_nodes // npol if n_nodes else 32
            u, wu = np.polynomial.legendre.leggauss(npol)
            az = (np.arange(naz) + 0.5) / naz * 2 * np.pi
            uu, aa = np.meshgrid(u, az, indexing="ij")
            s = np.sqrt(1 - uu ** 2)
            thetas = np.stack([s * np.cos(aa), s * np.sin(aa),
                               uu], axis=-1).reshape(-1, 3)
            ww = (wu[:, None] * np.full(naz, 1.0 / naz)).ravel()
            weights = ww / ww.sum() * total_mass
        else:
            raise ValueError("d must be 1, 2 or 3")
        return cls(d, "uniform", thetas, weights,
                   meta={"total_mass": total_mass, "n_nodes": len(weights)})

    @classmethod
    def density(cls, d, fn, n_nodes=None):
        """Measure fn(theta) sigma(dtheta) against surface measure; fn >= 0."""
        base = cls.uniform(d, total_mass=sphere_area(d), n_nodes=n_nodes)
        vals = np.asarray([fn(t) for t in base.thetas], dtype=float)
        if np.any(vals < 0):
            raise ValueError("density must be nonnegative")
        return cls(d, "density", base.thetas, base.weights * vals,
                   meta={"n_nodes": len(base.weights)})

    @classmethod
    def atoms(cls, d, pairs):
        """Atomic measure from (direction, weight) pairs; directions unit."""
        thetas = np.array([p[0] for p in pairs], dtype=float).reshape(len(pairs), d)
        weights = np.array([p[1] for p in pairs], dtype=float)
        if np.any(weights <= 0):
            raise ValueError("atom weights must be positive")
        return cls(d, "atoms", thetas, weights,
                   meta={"atoms": [(list(map(float, t)), float(w))
                                   for t, w in zip(thetas, weights)]})

    def sample_from_uniforms(self, u1, u2=None):
        """Map uniforms in [0,1) to directions; fixed draw budget of two."""
        u1 = np.asarray(u1, dtype=float)
        if self.variant == "uniform" and self.d == 2:
            ang = u1 * 2 * np.pi
            return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        if self.variant == "uniform" and self.d == 3:
            zc = 2.0 * u1 - 1.0
            az = 2 * np.pi * np.asarray(u2, dtype=float)
            s = np.sqrt(np.maximum(1 - zc ** 2, 0.0))
            return np.stack([s * np.cos(az), s * np.sin(az), zc], axis=-1)
        # atoms, densities (via node table) and d=1 all reduce to a
        # categorical draw over the node table
        return np.take(self.thetas, categorical_index(self._cum, u1), axis=0)


# ---------------------------------------------------------------------------
# scaling functions
# ---------------------------------------------------------------------------

class ScalingFunction:
    """Strictly increasing radial scaling phi on (1, infinity).

    Variants: pure power r^alpha, a finite positive mixture of powers, and
    r^alpha log(1+r). ``index`` is the regular-variation exponent at infinity.
    """

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = params
        if kind == "power":
            self.index = float(params["alpha"])
            if self.index <= 0:
                raise ValueError("alpha must be positive")
        elif kind == "mixed":
            pairs = [(float(b), float(w)) for b, w in params["nu"]]
            if not pairs or any(w <= 0 for _, w in pairs):
                raise ValueError("mixture needs positive weights")
            if any(not (0 < b < 2) for b, _ in pairs):
                raise ValueError("mixture exponents must lie in (0, 2)")
            self.params["nu"] = sorted(pairs)
            self.index = max(b for b, _ in pairs)
        elif kind == "power_log":
            self.index = float(params["alpha"])
            if self.index <= 0:
                raise ValueError("alpha must be positive")
        else:
            raise ValueError(f"unknown scaling kind {kind!r}")

    @classmethod
    def power(cls, alpha):
        return cls("power", alpha=alpha)

    @classmethod
    def mixed(cls, nu):
        return cls("mixed", nu=list(nu))

    @classmethod
    def power_log(cls, alpha):
        return cls("power_log", alpha=alpha)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "power":
            return r ** self.index
        if self.kind == "mixed":
            out = np.zeros_like(r)
            for b, w in self.params["nu"]:
                out = out + w * r ** b
            return out
        return r ** self.index * np.log1p(r)

    # -- tail integrals ------------------------------------------------------
    def tail_integrable(self) -> bool:
        """Whether int_1^inf dr/phi(r) converges."""
        return self.index > 1.0

    def radial_tail_mass(self, a, b):
        """int_a^b dr / (r phi(r)), the radial factor of the large-jump mass."""
        if self.kind == "power":
            al = self.index
            upper = 0.0 if np.isinf(b) else b ** (-al)
            return (a ** (-al) - upper) / al
        from scipy.integrate import quad

        val, _ = quad(lambda r: 1.0 / (r * self(r)), a, b,
                      epsabs=1e-14, epsrel=1e-12, limit=400)
        return val

    def envelope(self):
        """(c, b) with phi(r) >= c r^b on r >= 1: the leading power term."""
        if self.kind == "power":
            return 1.0, self.index
        if self.kind == "mixed":
            b, w = self.params["nu"][-1]
            return w, b
        return math.log(2.0), self.index

    def monotone_on_sample(self):
        """Whether phi increases strictly on 512 log-spaced radii in
        (1, 1e6]."""
        v = self(np.geomspace(1.0 + 1e-9, 1e6, 512))
        return bool(np.all(np.diff(v) > 0))

    def to_dict(self):
        if self.kind == "mixed":
            return {"variant": "mixed",
                    "nu": [[b, w] for b, w in self.params["nu"]]}
        return {"variant": self.kind, "alpha": self.index}


@dataclass
class IndexProbeResult:
    alpha_hat: float
    converged: bool
    per_lambda: list


def scaling_index_probe(phi: ScalingFunction, lambda_grid=None):
    """Empirical scaling index from phi(lambda r)/phi(lambda) ~ r^alpha.

    Least-squares slope of log phi(lambda r)/phi(lambda) against log r, for
    r in {2, 10, 100, 1000}, at the largest lambda; the ladder of lambdas is
    used to flag non-convergence.
    """
    r_grid = np.array([2.0, 10.0, 100.0, 1000.0])
    lambda_grid = np.asarray(lambda_grid if lambda_grid is not None else
                             [1e4, 1e6, 1e8], dtype=float)
    logr = np.log(r_grid)
    per_lambda = []
    for lam in lambda_grid:
        y = np.log(phi(lam * r_grid) / phi(lam))
        slope = float(logr @ y / (logr @ logr))
        per_lambda.append((float(lam), slope))
    slopes = np.array([s for _, s in per_lambda])
    converged = bool(len(slopes) < 2 or abs(slopes[-1] - slopes[-2]) < 0.02)
    return IndexProbeResult(float(slopes[-1]), converged, per_lambda)


# ---------------------------------------------------------------------------
# radial perturbation kappa(r, dtheta) = g(r) * base(dtheta)
# ---------------------------------------------------------------------------

class RadialPerturbation:
    """Separable perturbation of the large-jump angular measure."""

    def __init__(self, g=None, base=None, form=None):
        self.g = g
        self.base = base
        self.form = form or {}

    @classmethod
    def none(cls):
        return cls(g=None, base=None)

    @classmethod
    def power_ratio(cls, beta, alpha, base):
        """g(r) = r^beta / (r^alpha + r^beta) with beta < alpha."""
        if beta >= alpha:
            raise ValueError("need beta < alpha for a vanishing perturbation")

        def g(r):
            r = np.asarray(r, dtype=float)
            return r ** beta / (r ** alpha + r ** beta)

        return cls(g=g, base=base,
                   form={"form": "power_ratio", "beta": beta, "alpha": alpha})

    @property
    def is_none(self):
        return self.g is None

    def decay_check(self):
        """(sup |g| * |base|, value at r = 1e6) on 64 log-spaced radii in
        [2, 1e6]; both should be finite / tiny."""
        if self.is_none:
            return 0.0, 0.0
        r = np.geomspace(2.0, 1e6, 64)
        vals = np.abs(np.asarray(self.g(r), dtype=float)) * self.base.total_mass
        return float(vals.max()), float(vals[-1])

    def sup_abs(self, r_lo):
        """sup |g| on r >= r_lo, sampled at 64 log-spaced radii to 1e6 r_lo."""
        r = np.geomspace(r_lo, r_lo * 1e6, 64)
        return float(np.max(np.abs(self.g(r))))


# ---------------------------------------------------------------------------
# small-jump part
# ---------------------------------------------------------------------------

class SmallJumpPart:
    """Jump measure on {|z| <= 1}: isotropic stable density or nothing."""

    def __init__(self, kind, alpha0=None):
        self.kind = kind
        if kind == "stable":
            self.alpha0 = float(alpha0)
            if not (0 < self.alpha0 < 2):
                raise ValueError("alpha0 must lie in (0, 2)")
        elif kind == "zero":
            self.alpha0 = None
        else:
            raise ValueError(f"unknown small-jump kind {kind!r}")

    @classmethod
    def stable_density(cls, alpha0):
        return cls("stable", alpha0)

    @classmethod
    def zero(cls):
        return cls("zero")

    def second_moment(self, d):
        """m2 = int_{|z|<=1} |z|^2 Pi(dz); always finite for alpha0 < 2."""
        if self.kind == "zero":
            return 0.0
        return sphere_area(d) / (2.0 - self.alpha0)

    def ball_second_moment(self, d, delta):
        """int_{|z|<=delta} |z|^2 Pi(dz) for delta <= 1."""
        if self.kind == "zero":
            return 0.0
        return sphere_area(d) * delta ** (2.0 - self.alpha0) / (2.0 - self.alpha0)

    def annulus_mass(self, d, a, b):
        """Pi({a < |z| <= b}) for 0 < a < b <= 1."""
        if self.kind == "zero":
            return 0.0
        a0 = self.alpha0
        return sphere_area(d) * (a ** (-a0) - b ** (-a0)) / a0


def surface_measure(d):
    """Surface measure of the unit sphere, the angular law of small jumps."""
    return SphericalMeasure.uniform(d, sphere_area(d),
                                    n_nodes=16 if d == 2 else None)


# ---------------------------------------------------------------------------
# kernels and drift fields
# ---------------------------------------------------------------------------

class PeriodicKernel:
    """Bounded kernel k(x, z) given by a trig poly, so 1-periodic in x and
    in z; ``kmin``/``kmax`` default to the poly's exact bounds."""

    def __init__(self, poly: TrigPoly, kmin=None, kmax=None):
        self.d = poly.dim_x
        self.poly = poly
        lo, hi = poly.bounds_exact()
        self.kmin = float(lo if kmin is None else kmin)
        self.kmax = float(hi if kmax is None else kmax)
        if self.kmin < 0:
            raise ValueError("kernels must be nonnegative")

    @classmethod
    def trig(cls, poly, kmin=None, kmax=None):
        return cls(poly, kmin=kmin, kmax=kmax)

    def depends_on_z(self):
        return self.poly.depends_on_z()

    def depends_on_x(self):
        return self.poly.depends_on_x()

    def __call__(self, x, z):
        return self.poly(x, z)

    def z_functional(self, z, w, f=None):
        """x -> sum_q w_q f_q k(x, z_q) over nodes z (Q, d), ``f`` None or
        (Q, m): the x-only TrigPoly (m of them in a DriftField with ``f``)
        of coefficients sum_mz c_(mx,mz) F(mz), where
        F(mz) = sum_q w_q f_q e^{2 pi i mz.z_q}."""
        wf = w[:, None] if f is None else w[:, None] * f
        mz = sorted({m for _, m in self.poly.coeffs})
        phase = np.asarray(mz, dtype=float).reshape(-1, self.d) @ z.T
        F = dict(zip(mz, np.exp(2j * np.pi * phase) @ wf))
        polys = [self.poly.collect_z_modes(lambda m, j=j: F[m][j])
                 for j in range(wf.shape[1])]
        return polys[0] if f is None else DriftField(polys)

    def refine_bounds(self):
        """Measured kmin/kmax from a sample grid (64^2 points in d = 1, 65536
        seeded points otherwise); exact for a constant poly."""
        if self.poly.max_mode_order() == 0:
            c = self.poly.mean
            return c, c
        if self.d == 1:
            g = (np.arange(64) + 0.5) / 64
            xs, zs = np.meshgrid(g, g, indexing="ij")
            vals = self(xs[..., None], zs[..., None])
        else:
            rng = np.random.Generator(np.random.Philox(key=np.uint64(0)))
            xs = rng.random((65536, self.d))
            zs = rng.random((65536, self.d)) * 4.0 - 2.0
            vals = self(xs, zs)
        return float(np.min(vals)), float(np.max(vals))

    def continuity_modulus(self):
        """Sampled sup_z |k(x+h, z) - k(x, z)| at 64 seeded points, per step
        size h in (0.1, 0.01, 0.001)."""
        n = 64
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        xs = rng.random((n, self.d))
        zs = rng.random((n, self.d)) * 4.0 - 2.0
        out = []
        for h in (0.1, 0.01, 0.001):
            dx = rng.standard_normal((n, self.d))
            dx = dx / np.linalg.norm(dx, axis=1, keepdims=True) * h
            out.append(float(np.max(np.abs(self(xs + dx, zs) - self(xs, zs)))))
        return out


class DriftField:
    """Bounded 1-periodic vector field b(x): one x-only trig poly per
    component."""

    def __init__(self, components):
        self.components = list(components)
        self.d = self.components[0].dim_x

    @classmethod
    def zero(cls, d):
        return cls([TrigPoly.const(d, 0, 0.0) for _ in range(d)])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        vals = [comp(x) for comp in self.components]
        return np.stack(np.broadcast_arrays(*vals), axis=-1)

    def is_zero(self):
        return all(not comp.coeffs for comp in self.components)

    def sup_norm_estimate(self):
        return max(sum(abs(c) for c in comp.coeffs.values())
                   for comp in self.components)


# ---------------------------------------------------------------------------
# the assembled specification
# ---------------------------------------------------------------------------

@dataclass
class JumpSpec:
    d: int
    small: SmallJumpPart
    rho0: SphericalMeasure
    phi: ScalingFunction
    kappa: RadialPerturbation
    kernel: PeriodicKernel
    drift: DriftField
    config_dict: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self):
        if self.rho0.d != self.d:
            raise ValueError("angular measure dimension mismatch")
        self._radial_cache = {}

    # -- radial weights of the large-jump part ------------------------------
    def angular_terms(self):
        """List of (measure, radial_weight_fn or None) making up rho0 + kappa."""
        terms = [(self.rho0, None)]
        if not self.kappa.is_none:
            terms.append((self.kappa.base, self.kappa.g))
        return terms

    # -- radial Fourier integrals of the large-jump part ---------------------
    def radial_integral(self, s, R, weighted):
        """int_1^R e^{2 pi i s r} w(r) / phi(r) dr on an array ``s``, w = g
        of kappa when ``weighted`` (else 1): the radial factor of the drift
        of jumps with 1 < |z| <= R. Power phi without weight takes the
        closed form (``power_radial_integral``); otherwise QAWO, or QAWF
        when R = inf, per |s| (``_quadpack``)."""
        if self.phi.kind == "power" and not weighted:
            return power_radial_integral(self.phi.index, s, R)
        return self._quadpack(s, R, weighted, per_r=False)

    def tail_transform(self, s, weighted):
        """F(s) = int_1^inf e^{2 pi i s r} w(r) / (r phi(r)) dr on an array
        ``s``, w = g of kappa when ``weighted`` (else 1): the closed form
        E_{1+alpha}(-2 pi i s) (``power_tail_transform``) for power phi
        without weight, else QAWF per |s| (``_quadpack``)."""
        if self.phi.kind == "power" and not weighted:
            return power_tail_transform(self.phi.index, s)
        return self._quadpack(s, np.inf, weighted, per_r=True)

    def _quadpack(self, s, R, weighted, per_r):
        """QUADPACK's int_1^R e^{2 pi i s r} w(r) / phi(r) dr, times 1/r
        when ``per_r``, on an array ``s``: one call per distinct |s|,
        cached on the spec, with F(-s) = conj F(s)."""
        s = np.asarray(s, dtype=float)
        g = self.kappa.g if weighted else None
        wfn = g
        if per_r:
            wfn = (lambda r: g(r) / r) if weighted else (lambda r: 1.0 / r)
        F = np.empty(s.size, dtype=complex)
        for i, v in enumerate(np.abs(s).ravel()):
            key = (round(float(v), 14), R, weighted, per_r)
            if key not in self._radial_cache:
                self._radial_cache[key] = radial_fourier_integral(
                    self.phi, v, 1.0, R, weight_fn=wfn)
            F[i] = self._radial_cache[key]
        F = F.reshape(s.shape)
        return np.where(s >= 0, F, np.conj(F))


def jump_nodes(spec: JumpSpec, lo, hi, per_decade, min_panels, order):
    """Quadrature nodes (z, w, compensated) of Pi on the shell lo < |z| <= hi.

    Radii are Gauss-Legendre nodes of ``order`` on log-spaced panels, split
    at |z| = 1. Below it the isotropic density r^{-1-alpha0} weights the
    surface measure; above it each angular term of rho0 + kappa carries the
    radial weight g(r) / (r phi(r)). Nodes with |z| <= 1 are compensated.
    """
    d = spec.d
    parts = []                      # (radii, radial weights, measure, comp)
    if spec.small.kind == "stable" and lo < 1.0:
        edges = log_edges(lo, min(hi, 1.0), per_decade=per_decade,
                          min_panels=min_panels)
        r, rw = panel_nodes(edges, order)
        parts.append((r, rw * r ** (-1.0 - spec.small.alpha0),
                      surface_measure(d), True))
    if hi > 1.0:
        edges = log_edges(max(lo, 1.0), hi, per_decade=per_decade,
                          min_panels=min_panels)
        r, rw = panel_nodes(edges, order)
        for measure, weight_fn in spec.angular_terms():
            rad = rw / (r * spec.phi(r))
            if weight_fn is not None:
                rad = rad * np.asarray(weight_fn(r), dtype=float)
            parts.append((r, rad, measure, False))
    zs, ws, comp = [np.empty((0, d))], [np.empty(0)], [np.empty(0, bool)]
    for r, rad, measure, compensated in parts:
        zs.append((r[:, None, None] * measure.thetas[None]).reshape(-1, d))
        ws.append((rad[:, None] * measure.weights[None, :]).ravel())
        comp.append(np.full(ws[-1].size, compensated))
    return np.concatenate(zs), np.concatenate(ws), np.concatenate(comp)


def _angular_mass_bound(spec: JumpSpec, R):
    """|rho0| + |base| sup_{r>=R} |g|: a bound on the angular mass of
    rho0 + kappa at every radius past R."""
    mass = spec.rho0.total_mass
    if not spec.kappa.is_none:
        mass = mass + spec.kappa.base.total_mass * spec.kappa.sup_abs(R)
    return mass


def tail_mass_bound(spec: JumpSpec, R):
    """Closed-form upper bound on Pi({|z| > R}) for R >= 1.

    (|rho0| + |base| sup_{r>=R} |g|) int_R^inf dr / (c r^{1+b}) with the
    envelope phi >= c r^b; exact for power phi without kappa.
    """
    c, b = spec.phi.envelope()
    return _angular_mass_bound(spec, R) * (R ** (-b) / (c * b))


def tail_radius(spec: JumpSpec, limit, cap=1e18):
    """Smallest R in [1, cap] with tail_mass_bound(spec, R) <= limit.

    Bisection in log R (120 halvings); None when even ``cap`` leaves more
    tail mass than ``limit``.
    """
    lo, hi = 1.0, cap
    if tail_mass_bound(spec, hi) > limit:
        return None
    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if tail_mass_bound(spec, mid) > limit:
            lo = mid
        else:
            hi = mid
    return hi


def _drift_trig(spec: JumpSpec, x, R):
    """Mode-by-mode drift integral of the trig kernel at x (..., d), in
    elementwise real arithmetic: a matmul or complex array product may fuse
    operations and round a row apart from the same point alone. The radial
    integrals of all modes on an angular term's nodes come from one call."""
    x = np.asarray(x, dtype=float)
    coeffs = spec.kernel.poly.coeffs
    terms = []
    for measure, g in spec.angular_terms():
        s = np.array([measure.thetas @ np.asarray(mz, dtype=float)
                      for _, mz in coeffs])
        terms.append((measure, spec.radial_integral(s, R, g is not None)))
    out = np.zeros(x.shape[:-1] + (spec.d,))
    for i, ((mx, _), c) in enumerate(coeffs.items()):
        xphase = np.exp(1j * 2 * np.pi * (x * np.asarray(mx, dtype=float)
                                          ).sum(axis=-1))
        re = c.real * xphase.real - c.imag * xphase.imag
        im = c.real * xphase.imag + c.imag * xphase.real
        for measure, radial in terms:
            angular = (measure.weights * radial[i]) @ measure.thetas
            out = out + re[..., None] * np.real(angular) \
                - im[..., None] * np.imag(angular)
    return out


def truncated_drift(spec: JumpSpec, x, R):
    """Drift of jumps with 1 < |z| <= R: int_{1<|z|<=R} z k(x,z) Pi(dz).

    ``x`` is one point (d,) or points (..., d); the result has the shape of
    ``x``, and each row equals the call on that row alone, bit for bit."""
    if R <= 1.0:
        raise ValueError("R must exceed 1")
    return _drift_trig(spec, x, float(R))


def full_drift(spec: JumpSpec, x):
    """Tail drift int_{|z|>1} z k(x,z) Pi(dz); requires an integrable tail.

    ``x`` (..., d) as in ``truncated_drift``."""
    if not spec.phi.tail_integrable():
        raise IntegrabilityError(
            "full drift undefined: int_1^inf dr/phi(r) diverges "
            f"(scaling index {spec.phi.index})")
    return _drift_trig(spec, x, np.inf)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: dict
    note: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {"passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed,
                            "measured": c.measured, "note": c.note}
                           for c in self.checks]}

    def summary(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.measured} {c.note}".rstrip())
        return "\n".join(lines)


def validate(spec: JumpSpec, require_positive_kmin=False) -> ValidationReport:
    """Screen the hypotheses the homogenization statements rest on.

    This checks measurable sufficient conditions (kernel bounds, periodicity,
    scaling monotonicity and index, perturbation decay, small-jump moments);
    it does not prove well-posedness or ergodicity.
    """
    checks = []

    mass = spec.rho0.total_mass
    checks.append(CheckResult(
        "angular_mass_positive", bool(np.isfinite(mass) and mass > 0),
        {"total_mass": mass}))

    mono = spec.phi.monotone_on_sample()
    checks.append(CheckResult("phi_strictly_increasing", mono, {}))

    probe = scaling_index_probe(spec.phi)
    idx_ok = abs(probe.alpha_hat - spec.phi.index) <= 0.05 and probe.converged
    checks.append(CheckResult(
        "phi_index_probe", bool(idx_ok),
        {"declared": spec.phi.index, "alpha_hat": probe.alpha_hat,
         "converged": probe.converged}))

    sup_k, last_k = spec.kappa.decay_check()
    checks.append(CheckResult(
        "kappa_decay", bool(np.isfinite(sup_k) and last_k <= max(1e-3, 1e-3 * sup_k)),
        {"sup": sup_k, "at_r=1e6": last_k}))

    m2 = spec.small.second_moment(spec.d)
    checks.append(CheckResult("small_jump_second_moment",
                              bool(np.isfinite(m2)), {"m2": m2}))

    kmin_m, kmax_m = spec.kernel.refine_bounds()
    bounds_ok = (kmin_m >= spec.kernel.kmin - 1e-9 and
                 kmax_m <= spec.kernel.kmax + 1e-9 and kmin_m >= 0)
    if require_positive_kmin and min(kmin_m, spec.kernel.kmin) <= 0:
        bounds_ok = False
    checks.append(CheckResult(
        "kernel_bounds", bool(bounds_ok),
        {"declared": [spec.kernel.kmin, spec.kernel.kmax],
         "measured": [kmin_m, kmax_m]},
        "strictly positive lower bound required" if require_positive_kmin else ""))

    # a trig kernel is periodic in x and z by construction
    for name in ("kernel_x_periodicity", "kernel_z_periodicity"):
        checks.append(CheckResult(name, True, {"defect": 0.0}))

    modulus = spec.kernel.continuity_modulus()
    cont_ok = all(b <= a + 1e-12 for a, b in zip(modulus, modulus[1:]))
    checks.append(CheckResult("kernel_continuity_modulus", bool(cont_ok),
                              {"sampled_modulus": modulus}))

    bsup = spec.drift.sup_norm_estimate()
    checks.append(CheckResult("drift_bounded", bool(np.isfinite(bsup)),
                              {"sup_norm": bsup}))

    if require_positive_kmin:
        ok = spec.small.kind == "stable"
        checks.append(CheckResult(
            "small_jump_stable_form", bool(ok),
            {"kind": spec.small.kind},
            "well-posedness screening expects an isotropic stable small part"))

    return ValidationReport(checks)
