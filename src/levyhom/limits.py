"""Limiting laws of the scaled processes and exact samplers for them.

Two families arise: rotation-free stable processes driven by the
scale-covariant measure (effective angular intensity k̄0 on the original
angular nodes, with the compensation convention pinned by the scaling index),
and Brownian motion with an effective covariance matrix. Both are drawn
exactly. The stable exponent is a finite sum over the nodes of rho0, so a
stable draw is a sum of independent totally right-skewed stable variables
along those nodes (Chambers, Mallows & Stuck, JASA 71, 1976; the alpha = 1
form of Weron, Stat. Probab. Lett. 28, 1996); a Gaussian draw goes through
the matrix square root of the covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .corrector import (covariance_matrix, critical_covariance,
                        solve_recentering_corrector)
from .pathsim import EndpointBatch, philox_key
from .regimes import (CAUCHY_CENTER, CRITICAL_LOG, DIFFUSIVE,
                      STABLE_NO_CENTER, Regime)
from .spec_model import JumpSpec, SphericalMeasure

_EULER_GAMMA = 0.5772156649015329


@dataclass
class LimitLaw:
    kind: str                               # "stable" | "gaussian"
    alpha: Optional[float] = None
    rho0: Optional[SphericalMeasure] = None
    kbar0: Optional[np.ndarray] = None      # per rho0 node
    A: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "stable":
            if not 0 < self.alpha < 2:
                raise ValueError(f"stable index alpha={self.alpha} outside "
                                 "(0, 2)")
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

    @property
    def convention(self):
        """Compensation of the exponent, by alpha: none | unit_ball | full."""
        return {STABLE_NO_CENTER: "none", CAUCHY_CENTER: "unit_ball"}.get(
            Regime.of(self.alpha).name, "full")


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


def char_exponent(law: LimitLaw, u):
    """Levy exponent eta(u): characteristic function is exp(t eta(u))."""
    u = np.asarray(u, dtype=float)
    if law.kind == "gaussian":
        return complex(-0.5 * float(u @ law.A @ u), 0.0)
    total = 0.0 + 0.0j
    conv = law.convention
    for th, w, kb in zip(law.rho0.thetas, law.rho0.weights, law.kbar0):
        s = float(u @ th)
        total += w * kb * _radial_symbol(s, law.alpha, conv)
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


def _skewed_stable_unit(alpha, v, w):
    """S_alpha(1, 1, 0) draws from V ~ U(-pi/2, pi/2) and W ~ Exp(1):
    Chambers-Mallows-Stuck with beta = 1, in Weron's form at alpha = 1."""
    if alpha == 1.0:
        h = math.pi / 2 + v
        return 2 / math.pi * (h * np.tan(v)
                              - np.log(math.pi / 2 * w * np.cos(v) / h))
    tan = math.tan(math.pi * alpha / 2)
    b = math.atan(tan) / alpha
    scale = (1.0 + tan * tan) ** (1.0 / (2.0 * alpha))
    return (scale * np.sin(alpha * (v + b)) / np.cos(v) ** (1.0 / alpha)
            * (np.cos(v - alpha * (v + b)) / w) ** ((1.0 - alpha) / alpha))


def sample_limit(law: LimitLaw, t, n, seed) -> EndpointBatch:
    """Exact draws of Y_t under the limit law.

    Gaussian laws go through the matrix square root. A stable law is
    sum_n theta_n X_n over the nodes with c_n = t w_n kbar_n > 0, where X_n
    has exponent c_n * _radial_symbol, i.e. X_n ~ S_alpha(sigma_n, 1, mu_n):
    sigma^alpha = c Gamma(1 - alpha) cos(pi alpha / 2) / alpha and mu = 0 for
    both power conventions; sigma = c pi / 2 and mu = c (1 - gamma) at
    alpha = 1 (unit-ball compensation), where rescaling S_1(1, 1, 0) by sigma
    adds (2 / pi) sigma log sigma. A law without intensity is all zeros.
    """
    gen = np.random.Generator(np.random.Philox(key=philox_key(seed, 0)))
    if law.kind == "gaussian":
        root = _matrix_sqrt(law.A)
        samples = math.sqrt(t) * gen.standard_normal((n, law.d)) @ root.T
        return EndpointBatch(samples=samples, regime="limit_gaussian",
                             eps=0.0, seed=seed, t=t,
                             meta={"sampler": "exact_gaussian"})
    a = law.alpha
    c = t * law.rho0.weights * law.kbar0
    live = c > 0
    c = c[live]
    u = gen.random((n, c.size, 2))
    x = _skewed_stable_unit(a, math.pi * (u[..., 0] - 0.5),
                            -np.log1p(-u[..., 1]))
    if a == 1.0:
        sigma = c * math.pi / 2
        x = sigma * x + 2 / math.pi * sigma * np.log(sigma) \
            + c * (1.0 - _EULER_GAMMA)
    else:
        x = x * (c * math.gamma(1.0 - a) * math.cos(math.pi * a / 2) / a
                 ) ** (1.0 / a)
    return EndpointBatch(samples=x @ law.rho0.thetas[live],
                         regime="limit_stable", eps=0.0, seed=seed, t=t,
                         meta={"sampler": "exact_stable"})


# ---------------------------------------------------------------------------
# predicted limits from the pipeline
# ---------------------------------------------------------------------------

def predicted_limit(spec: JumpSpec, mu) -> LimitLaw:
    """Assemble the limit law the theory predicts for the spec's regime:
    the stable laws and the critical Gaussian from the ray averages k̄0 on
    rho0's nodes (``critical_covariance`` in closed form), the diffusive
    Gaussian from the corrector's covariance."""
    from .averaging import effective_kernel_table

    regime = Regime.of(spec.phi.index)
    if regime.name not in (CRITICAL_LOG, DIFFUSIVE):
        kbar0 = effective_kernel_table(spec.kernel, mu, spec.rho0)
        return LimitLaw(kind="stable", alpha=spec.phi.index, rho0=spec.rho0,
                        kbar0=kbar0, meta={"source": "effective_kernel_table"})

    if regime.name == CRITICAL_LOG:
        cov = critical_covariance(spec, mu)
        return LimitLaw(kind="gaussian", A=cov.A,
                        meta={"source": "critical_covariance",
                              "converged": cov.meta.get("converged")})

    psi = solve_recentering_corrector(spec, mu)
    cov = covariance_matrix(spec, mu, psi=psi)
    return LimitLaw(kind="gaussian", A=cov.A,
                    meta={"source": "covariance_with_corrector",
                          "corrector_sup": psi.sup_norm})
