"""Limiting laws of the scaled processes and samplers for them.

Two families arise: rotation-free stable processes driven by the
scale-covariant measure (effective angular intensity k̄0 on the original
angular nodes, with the compensation convention pinned by the scaling index),
and Brownian motion with an effective covariance matrix. The stable sampler
reuses the same compound-Poisson engine as the original process so that the
discretization bias cancels in two-sample comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .corrector import (covariance_matrix, critical_covariance,
                        solve_recentering_corrector)
from .pathsim import (EndpointBatch, JumpDriver, SimConfig, _Component,
                      run_paths)
from .quadrature import power_law_radii
from .regimes import (CAUCHY_CENTER, CRITICAL_LOG, DIFFUSIVE, STABLE_CENTER,
                      STABLE_NO_CENTER, Regime)
from .spec_model import JumpSpec, SphericalMeasure

_EULER_GAMMA = 0.5772156649015329

CONVENTION_BY_REGIME = {STABLE_NO_CENTER: "none",
                        CAUCHY_CENTER: "unit_ball",
                        STABLE_CENTER: "full"}


@dataclass
class LimitLaw:
    kind: str                               # "stable" | "gaussian"
    alpha: Optional[float] = None
    rho0: Optional[SphericalMeasure] = None
    kbar0: Optional[np.ndarray] = None      # per rho0 node
    convention: Optional[str] = None        # none | unit_ball | full
    A: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "stable":
            conv_ok = {"none": 0 < self.alpha < 1,
                       "unit_ball": self.alpha == 1.0,
                       "full": 1 < self.alpha < 2}
            if self.convention not in conv_ok:
                raise ValueError(f"unknown convention {self.convention!r}")
            if not conv_ok[self.convention]:
                raise ValueError(
                    f"convention {self.convention!r} inconsistent with "
                    f"alpha={self.alpha}")
            self.kbar0 = np.asarray(self.kbar0, dtype=float)
            if np.any(self.kbar0 < 0):
                raise ValueError("effective intensities must be nonnegative")
        elif self.kind == "gaussian":
            self.A = np.asarray(self.A, dtype=float)
            if not np.allclose(self.A, self.A.T, atol=1e-12):
                raise ValueError("covariance must be symmetric")
            if np.linalg.eigvalsh(self.A).min() < -1e-10:
                raise ValueError("covariance must be positive semidefinite")
        else:
            raise ValueError(f"unknown law kind {self.kind!r}")

    @property
    def d(self):
        return self.rho0.d if self.kind == "stable" else self.A.shape[0]

    def kbar_at(self, thetas):
        """Effective intensity at arbitrary directions: nearest stored node."""
        sims = np.atleast_2d(thetas) @ self.rho0.thetas.T
        return self.kbar0[np.argmax(sims, axis=1)]


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def _radial_symbol(s, alpha, convention):
    """int_0^inf (e^{isr} - 1 - isr * conv(r)) r^{-1-alpha} dr, closed form.

    The two power cases come from Gamma(-a) (-is)^a with the principal
    branch; the unit-ball case at alpha = 1 carries the classical
    log-corrected imaginary part.
    """
    if s == 0.0:
        return 0.0 + 0.0j
    a = alpha
    sa = abs(s) ** a
    sign = 1.0 if s > 0 else -1.0
    phase = complex(math.cos(math.pi * a / 2), -sign * math.sin(math.pi * a / 2))
    if convention == "none":
        return -math.gamma(1.0 - a) / a * sa * phase
    if convention == "full":
        return math.gamma(2.0 - a) / (a * (a - 1.0)) * sa * phase
    # unit-ball compensation at alpha = 1
    mag = abs(s)
    return complex(-math.pi * mag / 2.0,
                   sign * mag * (1.0 - _EULER_GAMMA - math.log(mag)))


def radial_symbol_quadrature(s, alpha, convention, r_hi=1e7):
    """Oscillatory-quadrature evaluation of the radial symbol (test oracle).

    Splits at r = 1: plain rules handle the integrable singularity, weighted
    cosine/sine rules the oscillatory tail, and the non-oscillatory tail
    pieces are integrated in closed form.
    """
    if s == 0.0:
        return 0.0 + 0.0j
    conv = {"none": lambda r: 0.0, "unit_ball": lambda r: float(r <= 1.0),
            "full": lambda r: 1.0}[convention]
    re_in, _ = quad(lambda r: (math.cos(s * r) - 1.0) * r ** (-1 - alpha),
                    0.0, 1.0, limit=400)
    im_in, _ = quad(lambda r: (math.sin(s * r) - s * r * conv(r))
                    * r ** (-1 - alpha), 0.0, 1.0, limit=400)
    w = abs(s)
    re_osc, _ = quad(lambda r: r ** (-1 - alpha), 1.0, r_hi, weight="cos",
                     wvar=w, limit=800)
    im_osc, _ = quad(lambda r: r ** (-1 - alpha), 1.0, r_hi, weight="sin",
                     wvar=w, limit=800)
    if s < 0:
        im_osc = -im_osc
    re = re_in + re_osc - 1.0 / alpha          # subtract the tail mass
    im = im_in + im_osc
    if convention == "full":
        im -= s / (alpha - 1.0)                # compensator tail beyond r = 1
    return complex(re, im)


def char_exponent(law: LimitLaw, u):
    """Levy exponent eta(u): characteristic function is exp(t eta(u))."""
    u = np.asarray(u, dtype=float)
    if law.kind == "gaussian":
        return complex(-0.5 * float(u @ law.A @ u), 0.0)
    total = 0.0 + 0.0j
    for th, w, kb in zip(law.rho0.thetas, law.rho0.weights, law.kbar0):
        s = float(u @ th)
        total += w * kb * _radial_symbol(s, law.alpha, law.convention)
    return total


def char_fn(law: LimitLaw, u, t=1.0):
    """Characteristic function E exp(i <u, Y_t>)."""
    return complex(np.exp(t * char_exponent(law, u)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _matrix_sqrt(A):
    vals, vecs = np.linalg.eigh(A)
    vals = np.maximum(vals, 0.0)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def _stable_driver(law: LimitLaw, cfg: SimConfig, horizon):
    a = law.alpha
    d = law.d
    delta = float(cfg.delta)
    kmax = float(law.kbar0.max()) if law.kbar0.size else 0.0
    if kmax <= 0:
        raise ValueError("limit law carries no jump intensity")
    # radial cap from the truncation budget
    mass_tail = lambda R: law.rho0.total_mass * R ** (-a) / a
    limit = cfg.truncation_budget / max(horizon * kmax, 1e-300)
    rmax = cfg.rmax if cfg.rmax is not None else \
        (limit * a / law.rho0.total_mass) ** (-1.0 / a)
    ca, cb = delta ** -a, rmax ** -a
    comp = _Component(law.rho0.total_mass * (ca - cb) / a,
                      partial(power_law_radii, lo=delta, hi=rmax, a=a),
                      law.rho0.sample_from_uniforms)

    kernel_varies = float(law.kbar0.min()) < kmax * (1 - 1e-12)
    kernel_fn = (lambda x, z: law.kbar_at(
        z / np.linalg.norm(z, axis=-1, keepdims=True))) if kernel_varies \
        else None

    # Gaussian substitution of the sub-delta stable activity
    M = np.einsum("n,n,ni,nj->ij", law.rho0.weights, law.kbar0,
                  law.rho0.thetas, law.rho0.thetas)
    C = delta ** (2.0 - a) / (2.0 - a) * M
    chol = _matrix_sqrt(C)

    # compensation conventions as a constant drift
    v = np.einsum("n,n,ni->i", law.rho0.weights, law.kbar0, law.rho0.thetas)
    if law.convention == "none":
        drift = v * delta ** (1.0 - a) / (1.0 - a)
    elif law.convention == "unit_ball":
        drift = -v * math.log(1.0 / delta)
    else:
        drift = -v * delta ** (1.0 - a) / (a - 1.0)

    const_drift = drift if np.any(np.abs(drift) > 0) else None
    return JumpDriver(d, [comp], kmax, kernel_fn, gauss_chol=chol,
                      constant_drift=const_drift,
                      meta={"rmax": rmax, "delta": delta})


def sample_limit(law: LimitLaw, t, n, seed, cfg: Optional[SimConfig] = None
                 ) -> EndpointBatch:
    """Draws of Y_t under the limit law.

    Gaussian laws are sampled exactly through the matrix square root; stable
    laws run through the compound-Poisson + Gaussian-substitution engine with
    the appropriate constant compensation drift.
    """
    cfg = cfg or SimConfig()
    if law.kind == "gaussian":
        root = _matrix_sqrt(law.A)
        gen = np.random.Generator(np.random.Philox(
            key=np.array([np.uint64(seed & (2 ** 64 - 1)), np.uint64(0)],
                         dtype=np.uint64)))
        samples = math.sqrt(t) * gen.standard_normal((n, law.d)) @ root.T
        return EndpointBatch(samples=samples, regime="limit_gaussian",
                             eps=0.0, seed=seed, t=t,
                             meta={"sampler": "exact_gaussian"})
    driver = _stable_driver(law, cfg, t)
    dt = cfg.dt if cfg.dt is not None else min(0.01, t / 10.0)
    samples = run_paths(driver, t, n, seed, dt, workers=cfg.workers)
    return EndpointBatch(samples=samples, regime="limit_stable", eps=0.0,
                         seed=seed, t=t,
                         meta={"sampler": "engine", "delta": cfg.delta,
                               "rmax": driver.meta["rmax"]})


def exact_symmetric_stable_1d(alpha, scale_exponent, t, n, seed):
    """Chambers-Mallows-Stuck draws of a symmetric 1d stable variable.

    Third-party oracle used only in tests: returns samples with characteristic
    function exp(-t * scale_exponent * |u|^alpha).
    """
    gen = np.random.Generator(np.random.Philox(
        key=np.array([np.uint64(seed), np.uint64(1)], dtype=np.uint64)))
    u = (gen.random(n) - 0.5) * math.pi
    w = -np.log(gen.random(n))
    x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
         * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))
    return (t * scale_exponent) ** (1.0 / alpha) * x


# ---------------------------------------------------------------------------
# predicted limits from the pipeline
# ---------------------------------------------------------------------------

def predicted_limit(spec: JumpSpec, mu, regime_name, operator=None,
                    corrector_mode="full") -> LimitLaw:
    """Assemble the limit law the theory predicts for the declared regime."""
    from .averaging import effective_kernel_table

    regime = Regime.from_name(regime_name)
    problems = regime.consistency_problems(spec)
    if problems:
        raise ValueError("; ".join(problems))

    if regime_name in CONVENTION_BY_REGIME:
        kbar0 = effective_kernel_table(spec.kernel, mu, spec.rho0)
        return LimitLaw(kind="stable", alpha=spec.phi.index, rho0=spec.rho0,
                        kbar0=kbar0,
                        convention=CONVENTION_BY_REGIME[regime_name],
                        meta={"source": "effective_kernel_table"})

    if regime_name == CRITICAL_LOG:
        cov = critical_covariance(spec, mu)
        return LimitLaw(kind="gaussian", A=cov.A,
                        meta={"source": "critical_covariance",
                              "converged": cov.meta.get("converged")})

    psi = solve_recentering_corrector(spec, mu, mode=corrector_mode,
                                      operator=operator, n=mu.grid.n
                                      if hasattr(mu, "grid") else 64)
    cov = covariance_matrix(spec, mu, psi=psi)
    return LimitLaw(kind="gaussian", A=cov.A,
                    meta={"source": "covariance_with_corrector",
                          "corrector_sup": psi.sup_norm})
