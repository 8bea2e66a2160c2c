"""Nonlocal Poisson solves on the torus and the diffusive covariance matrix.

The generator is discretized on a regular periodic grid: the singular part of
the small-jump integral is replaced inside one grid cell by its second-order
Taylor proxy (a scaled discrete Laplacian with the exact radial coefficient),
the remaining jump integral by log-spaced Gauss-Legendre quadrature with
multilinear interpolation, the compensator by central differences, and the
drift by upwind differences. Dense solves are restricted to d in {1, 2}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import j0

from .grid import TorusGrid
from .quadrature import radial_fourier_integral
from .spec_model import (JumpSpec, full_drift, jump_nodes, tail_mass_bound,
                         truncated_drift)

_TWO_PI = 2.0 * np.pi


def operator_radius(spec: JumpSpec, tol=1e-8, cap=1e12):
    """Radial cutoff R with tail mass bound * kmax below ``tol``."""
    kmax = spec.kernel.kmax
    lo, hi = 1.0, cap
    if kmax * tail_mass_bound(spec, hi) > tol:
        return cap
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if kmax * tail_mass_bound(spec, mid) > tol:
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

@dataclass
class AssembledOperator:
    grid: TorusGrid
    matrix: np.ndarray
    spec: JumpSpec

    def apply(self, values):
        return self.matrix @ values

    def stationary_weights(self):
        """Left null vector of the generator matrix, normalized to mass one.

        This is the invariant measure of the discretized dynamics; tiny
        negative entries from the compensator stencil are clipped.
        """
        N = self.grid.size
        aug = np.zeros((N + 1, N + 1))
        aug[:N, :N] = self.matrix.T
        aug[:N, N] = 1.0
        aug[N, :N] = 1.0
        rhs = np.zeros(N + 1)
        rhs[N] = 1.0
        sol = np.linalg.solve(aug, rhs)
        w = sol[:N]
        w = np.maximum(w, 0.0)
        return w / w.sum()


def assemble_operator(spec: JumpSpec, n) -> AssembledOperator:
    """Dense grid discretization of the generator; d in {1, 2} only."""
    if spec.d == 1:
        if n > 128:
            raise ValueError("grid resolution capped at 128 in d=1")
    elif spec.d == 2:
        if n > 64:
            raise ValueError("grid resolution capped at 64 in d=2")
    else:
        raise ValueError("grid assembly supports d in {1, 2}")
    grid = TorusGrid(spec.d, int(n))
    N, d, h = grid.size, spec.d, grid.h
    centers = grid.centers
    L = np.zeros((N, N))

    # the compensated ball and the tail use different panel densities
    zs, ws, comp = (np.concatenate(p) for p in zip(
        jump_nodes(spec, h, 1.0, 8, 6, 8),
        jump_nodes(spec, 1.0, operator_radius(spec), 6, 6, 8)))
    targets_rel = zs                       # (Q, d)
    rows_idx = np.arange(N)

    # near-field Taylor coefficient: 0.5 * int_{|z|<=h} z (x) z Pi(dz) = c I
    c_near = 0.5 * spec.small.ball_second_moment(d, h) / d
    k_origin = spec.kernel(centers, np.zeros_like(centers)) if c_near else None

    chunk = max(1, int(2e6 / max(len(ws), 1)))
    for i0 in range(0, N, chunk):
        sl = slice(i0, min(i0 + chunk, N))
        X = centers[sl]
        R = X.shape[0]
        K = spec.kernel(X[:, None, :], np.broadcast_to(targets_rel,
                                                       (R,) + targets_rel.shape))
        W = K * ws[None, :]                # (R, Q)
        pts = (X[:, None, :] + targets_rel[None, :, :]).reshape(-1, d)
        idx, iw = grid.interp_weights(pts)
        idx = idx.reshape(R, -1)
        contrib = (W[:, :, None] * iw.reshape(R, len(ws), -1)).reshape(R, -1)
        for r in range(R):
            row = L[i0 + r]
            np.add.at(row, idx[r], contrib[r])
            row[i0 + r] -= W[r].sum()
            # compensator of the small-jump nodes, by central differences
            if comp.any():
                cvec = W[r, comp] @ zs[comp]           # (d,)
                for a in range(d):
                    up = grid.neighbor(i0 + r, a, +1)
                    dn = grid.neighbor(i0 + r, a, -1)
                    row[up] -= cvec[a] / (2 * h)
                    row[dn] += cvec[a] / (2 * h)

    # near-field Laplacian proxy
    if c_near:
        coef = c_near * np.asarray(k_origin).reshape(N) / h ** 2
        for a in range(d):
            up = grid.neighbor(rows_idx, a, +1)
            dn = grid.neighbor(rows_idx, a, -1)
            np.add.at(L, (rows_idx, up), coef)
            np.add.at(L, (rows_idx, dn), coef)
            np.add.at(L, (rows_idx, rows_idx), -2 * coef)

    # upwind drift
    bvals = spec.drift(centers).reshape(N, d)
    for a in range(d):
        up = grid.neighbor(rows_idx, a, +1)
        dn = grid.neighbor(rows_idx, a, -1)
        pos = np.maximum(bvals[:, a], 0.0) / h
        neg = np.maximum(-bvals[:, a], 0.0) / h
        np.add.at(L, (rows_idx, up), pos)
        np.add.at(L, (rows_idx, dn), neg)
        np.add.at(L, (rows_idx, rows_idx), -(pos + neg))

    return AssembledOperator(grid, L, spec)


# ---------------------------------------------------------------------------
# Fourier multiplier oracle (x-independent, z-independent kernels)
# ---------------------------------------------------------------------------

def fourier_multiplier(spec: JumpSpec, mode):
    """Multiplier m(n) of the generator on exp(2 pi i n.x), by direct quadrature.

    Requires coefficients independent of x and a kernel independent of z, so
    the generator acts diagonally on Fourier modes. Serves as an independent
    oracle for the grid discretization.
    """
    if spec.kernel.depends_on_x() or spec.kernel.depends_on_z():
        raise ValueError("multiplier defined for constant-in-(x,z) kernels only")
    if spec.drift.is_trig and any(c.depends_on_x()
                                  for c in spec.drift.components):
        raise ValueError("multiplier requires a constant drift")
    mode = np.asarray(mode, dtype=float)
    d = spec.d
    kval = spec.kernel(np.zeros((1, d)), np.zeros((1, d)))[0]
    total = 0.0 + 0.0j

    if spec.small.kind == "stable":
        a0 = spec.small.alpha0
        nn = float(np.linalg.norm(mode))
        if nn > 0:
            if d == 1:
                f = lambda r: 2.0 * (np.cos(_TWO_PI * nn * r) - 1.0) * r ** (-1 - a0)
            elif d == 2:
                f = lambda r: _TWO_PI * (j0(_TWO_PI * nn * r) - 1.0) * r ** (-1 - a0)
            else:
                raise ValueError("small-jump multiplier implemented for d <= 2")
            val, _ = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=400)
            total += val

    for measure, weight_fn in spec.angular_terms():
        svals = measure.thetas @ mode
        for s, w in zip(svals, measure.weights):
            osc = radial_fourier_integral(
                spec.phi, float(s), 1.0, np.inf,
                weight_fn=(lambda r, g=weight_fn: g(r) / r) if weight_fn
                else (lambda r: 1.0 / r))
            flat = radial_fourier_integral(
                spec.phi, 0.0, 1.0, np.inf,
                weight_fn=(lambda r, g=weight_fn: g(r) / r) if weight_fn
                else (lambda r: 1.0 / r))
            total += w * (osc - flat)

    total *= kval
    bvec = spec.drift(np.zeros((1, d))).reshape(d)
    total += 1j * _TWO_PI * float(mode @ bvec)
    return complex(total)


# ---------------------------------------------------------------------------
# corrector fields
# ---------------------------------------------------------------------------

@dataclass
class CorrectorField:
    grid: TorusGrid
    values: np.ndarray
    gradient: np.ndarray
    mu_weights: np.ndarray
    residual_rel: float
    method: str
    meta: dict = field(default_factory=dict)

    @property
    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    @property
    def grad_sup_norm(self):
        return float(np.max(np.abs(self.gradient)))

    def mu_mean(self):
        return float(self.mu_weights @ self.values)

    def __call__(self, points):
        idx, w = self.grid.interp_weights(np.atleast_2d(points))
        return (self.values[idx] * w).sum(axis=1)

    def to_csv(self, path):
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            header = [f"x_{a}" for a in range(self.grid.d)] + ["psi"] + \
                     [f"dpsi_{a}" for a in range(self.grid.d)]
            w.writerow(header)
            for c, v, g in zip(self.grid.centers, self.values, self.gradient):
                w.writerow([f"{u:.17g}" for u in c] + [f"{v:.17g}"] +
                           [f"{u:.17g}" for u in g])


def _central_gradient(grid: TorusGrid, values):
    N, d, h = grid.size, grid.d, grid.h
    idx = np.arange(N)
    grad = np.empty((N, d))
    for a in range(d):
        up = grid.neighbor(idx, a, +1)
        dn = grid.neighbor(idx, a, -1)
        grad[:, a] = (values[up] - values[dn]) / (2 * h)
    return grad


def _zero_field(op: AssembledOperator, mu_w, method):
    grid = op.grid
    z = np.zeros(grid.size)
    return CorrectorField(grid, z, np.zeros((grid.size, grid.d)), mu_w, 0.0,
                          method)


def solve_poisson(spec: JumpSpec, f, method="grid", n=128, mu_weights=None,
                  operator: Optional[AssembledOperator] = None,
                  mean_tol=1e-8) -> CorrectorField:
    """Zero-mean periodic solution of (generator) psi = f.

    ``f`` is a callable of grid centers or an array of grid values. The
    solvability precondition is that f integrates to ~0 against the invariant
    weights; violations beyond ``mean_tol`` raise.
    """
    if method == "grid":
        op = operator if operator is not None else assemble_operator(spec, n)
        grid = op.grid
        fv = np.asarray(f(grid.centers) if callable(f) else f,
                        dtype=float).reshape(grid.size)
        mu_w = (np.asarray(mu_weights).reshape(grid.size)
                if mu_weights is not None else op.stationary_weights())
        fnorm = float(np.max(np.abs(fv)))
        if fnorm == 0.0:
            return _zero_field(op, mu_w, "grid")
        defect = float(mu_w @ fv)
        if abs(defect) > mean_tol * max(fnorm, 1.0):
            raise ValueError(
                f"right-hand side is not mean-free (defect {defect:.3e}); "
                "the discrete Poisson system is singular")
        # project onto the range of the discrete operator using its own
        # invariant weights; the projection size records how far the caller's
        # measure and the discretized dynamics disagree
        w_op = op.stationary_weights()
        range_defect = float(w_op @ fv)
        fv_proj = fv - range_defect
        N = grid.size
        aug = np.zeros((N + 1, N + 1))
        aug[:N, :N] = op.matrix
        aug[:N, N] = 1.0
        aug[N, :N] = w_op
        rhs = np.concatenate([fv_proj, [0.0]])
        sol = np.linalg.solve(aug, rhs)
        psi = sol[:N]
        psi = psi - float(mu_w @ psi)
        resid = float(np.max(np.abs(op.matrix @ psi - fv_proj))) / fnorm
        grad = _central_gradient(grid, psi)
        return CorrectorField(grid, psi, grad, mu_w, resid, "grid",
                              meta={"lagrange_shift": float(sol[N]),
                                    "range_projection": range_defect})

    if method == "fourier":
        return _solve_fourier(spec, f, n, mu_weights)

    raise ValueError(f"unknown method {method!r}")


def _solve_fourier(spec: JumpSpec, f, n, mu_weights):
    """Mode-space solve; kernel must be constant in x and z.

    The drift may be a trig poly: its convolution matrix in mode space stays
    bounded because only finitely many modes interact.
    """
    if spec.kernel.depends_on_x() or spec.kernel.depends_on_z():
        raise ValueError("fourier solve requires a constant-in-(x,z) kernel")
    if spec.d != 1:
        raise ValueError("fourier solve implemented in d=1")
    grid = TorusGrid(1, int(n))
    fv = np.asarray(f(grid.centers) if callable(f) else f,
                    dtype=float).reshape(grid.size)
    fhat = np.fft.fft(fv) / grid.size
    N2 = grid.size // 2
    modes = np.fft.fftfreq(grid.size, d=1.0 / grid.size).astype(int)
    keep = np.abs(modes) <= min(N2 - 1, 42)
    kept = np.nonzero(keep)[0]
    mlist = modes[kept]
    diag = np.array([fourier_multiplier_drift_free(spec, m) for m in mlist])
    M = np.diag(diag)
    # drift convolution: (b f')^(n) = sum_m bhat(m) 2 pi i (n - m) fhat(n-m)
    if spec.drift.is_trig:
        bcoef = spec.drift.components[0].coeffs
        pos = {m: i for i, m in enumerate(mlist)}
        for (mx, _), c in bcoef.items():
            mb = mx[0]
            for i, mrow in enumerate(mlist):
                src = mrow - mb
                j = pos.get(src)
                if j is not None:
                    M[i, j] += c * 1j * _TWO_PI * src
    else:
        raise ValueError("fourier solve needs a trig-poly drift")
    sel = mlist != 0
    A = M[:, sel]
    rhs = fhat[kept]
    coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    psihat = np.zeros(grid.size, dtype=complex)
    psihat[kept[sel]] = coef
    psi = np.real(np.fft.ifft(psihat * grid.size))
    mu_w = (np.asarray(mu_weights).reshape(grid.size) if mu_weights is not None
            else np.full(grid.size, 1.0 / grid.size))
    psi = psi - float(mu_w @ psi)
    grad = _central_gradient(grid, psi)
    # residual measured against the same mode-space operator
    res_hat = M @ psihat[kept] - fhat[kept]
    resid = float(np.sum(np.abs(res_hat))) / max(float(np.max(np.abs(fv))), 1e-300)
    return CorrectorField(grid, psi, grad, mu_w, resid, "fourier")


def fourier_multiplier_drift_free(spec: JumpSpec, m):
    """Multiplier of the drift-free part of the generator (see fourier_multiplier)."""
    from .spec_model import DriftField
    mode = np.zeros(spec.d)
    mode[0] = m if np.isscalar(m) else m[0]
    spec_nodrift = JumpSpec(spec.d, spec.small, spec.rho0, spec.phi,
                            spec.kappa, spec.kernel, DriftField.zero(spec.d))
    return fourier_multiplier(spec_nodrift, mode)


# ---------------------------------------------------------------------------
# right-hand sides for the recentering correctors
# ---------------------------------------------------------------------------

def corrector_rhs(spec: JumpSpec, mu, mode="full", R=None, grid_n=128):
    """Mean-free field -(tail drift) - b + averages, on the measure's grid.

    ``mode='full'`` uses the full tail drift (needs an integrable tail);
    ``mode='truncated'`` uses jumps up to radius R. The enforced mean shift is
    recorded so callers can see how far the analytic averages were off.
    """
    centers = mu.centers
    if mode == "full":
        tail = np.array([full_drift(spec, x) for x in centers])
    elif mode == "truncated":
        if R is None or R <= 1.0:
            raise ValueError("truncated mode needs R > 1")
        tail = np.array([truncated_drift(spec, x, R) for x in centers])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    bvals = spec.drift(centers).reshape(len(centers), spec.d)
    tail_avg = mu.weights @ tail
    b_avg = mu.weights @ bvals
    values = -(tail + bvals) + (tail_avg + b_avg)[None, :]
    shift = mu.weights @ values
    values = values - shift[None, :]
    return values, {"enforced_shift": shift.tolist(),
                    "tail_average": tail_avg.tolist(),
                    "drift_average": b_avg.tolist()}


# ---------------------------------------------------------------------------
# covariance matrices
# ---------------------------------------------------------------------------

@dataclass
class CovarianceMatrix:
    A: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = 0.5 * (self.A + self.A.T)

    @property
    def eigenvalues(self):
        return np.linalg.eigvalsh(self.A)

    @property
    def is_psd(self):
        return bool(self.eigenvalues.min() >= -1e-10)

    def to_json(self, path=None):
        evals, evecs = np.linalg.eigh(self.A)
        payload = {"matrix": self.A.tolist(), "eigenvalues": evals.tolist(),
                   "eigenvectors": evecs.tolist(), "meta": self.meta}
        if path is not None:
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2)
        return payload


class AtomJumpMeasure:
    """Finite collection of jump atoms, usable wherever quadrature nodes are."""

    def __init__(self, d, atoms):
        self.d = int(d)
        self.z = np.array([a[0] for a in atoms], dtype=float).reshape(-1, d)
        self.w = np.array([a[1] for a in atoms], dtype=float)

    def nodes(self):
        return self.z, self.w

    def small_support_directions(self, directions):
        return [False for _ in directions]

    def second_moment_total(self):
        return float(self.w @ np.sum(self.z ** 2, axis=1))


class VectorCorrector:
    """Componentwise corrector field psi: T^d -> R^d."""

    def __init__(self, components):
        self.components = list(components)
        self.d = len(self.components)

    def __call__(self, points):
        pts = np.atleast_2d(points)
        return np.stack([c(pts) for c in self.components], axis=-1)

    @property
    def sup_norm(self):
        return max(c.sup_norm for c in self.components)

    @property
    def grad_sup_norm(self):
        return max(c.grad_sup_norm for c in self.components)

    @property
    def residual_rel(self):
        return max(c.residual_rel for c in self.components)

    def mu_mean(self):
        return np.array([c.mu_mean() for c in self.components])


def solve_recentering_corrector(spec: JumpSpec, mu, mode="full", R=None,
                                operator: Optional[AssembledOperator] = None,
                                n=128, mean_tol=1e-6) -> VectorCorrector:
    """Corrector for the recentering drift: solves one Poisson problem per axis."""
    op = operator if operator is not None else assemble_operator(spec, n)
    rhs, _ = corrector_rhs(spec, mu, mode=mode, R=R, grid_n=op.grid.n)
    comps = [solve_poisson(spec, rhs[:, a], method="grid", operator=op,
                           mu_weights=mu.weights, mean_tol=mean_tol)
             for a in range(spec.d)]
    return VectorCorrector(comps)


def covariance_matrix(spec_or_atoms, mu, psi: Optional[VectorCorrector] = None
                      ) -> CovarianceMatrix:
    """Diffusive covariance int int (z + dpsi)(z + dpsi)^T k Pi(dz) mu(dx).

    ``psi=None`` means the corrector vanishes identically. Accepts either a
    JumpSpec (quadrature nodes, finite second moment enforced) or an
    AtomJumpMeasure for singular check fixtures.
    """
    if isinstance(spec_or_atoms, AtomJumpMeasure):
        zq, wq = spec_or_atoms.nodes()
        kern = None
    else:
        spec = spec_or_atoms
        spec.second_moment_total()      # raises when the tail is too heavy
        # tail cutoff where the residual second moment is below 1e-9
        al = spec.phi.index
        mass = spec.rho0.total_mass * spec.kernel.kmax
        hi = max((1e-9 * (al - 2.0) / max(mass, 1e-300)) ** (1.0 / (2.0 - al)),
                 10.0)
        zq, wq, _ = jump_nodes(spec, 1e-7, min(hi, 1e9), 6, 8, 8)
        kern = spec.kernel

    if isinstance(psi, CorrectorField):
        psi = VectorCorrector([psi])
    A = _second_moment(zq, wq, kern, mu, psi)
    return CovarianceMatrix(A, meta={"with_corrector": psi is not None})


def _second_moment(zq, wq, kern, mu, psi=None):
    """int int (z + dpsi)(z + dpsi)^T k(x,z) w(dz) mu(dx) on nodes (zq, wq)."""
    A = np.zeros((zq.shape[1], zq.shape[1]))
    for xc, mw in zip(mu.centers, mu.weights):
        if mw == 0.0:
            continue
        if psi is not None:
            disp = zq + psi(xc[None, :] + zq) - psi(xc[None, :])
        else:
            disp = zq
        kv = kern(np.broadcast_to(xc, zq.shape), zq) if kern is not None else 1.0
        wk = wq * kv * mw
        A += np.einsum("q,qi,qj->ij", wk, disp, disp)
    return A


# ---------------------------------------------------------------------------
# critical (logarithmic) covariance
# ---------------------------------------------------------------------------

def critical_covariance(spec: JumpSpec, mu, eps_ladder=None, log_factor=None
                        ) -> CovarianceMatrix:
    """Limit of the truncated second moment over the slowly varying factor.

    Evaluates A(eps) = [int int_{|z|<=1/eps} z z^T k Pi dmu] / phi_c(eps) on a
    ladder and removes the O(1/phi_c) correction by a least-squares fit that is
    linear in 1/phi_c (the truncated moment grows like A phi_c + const when the
    critical scaling holds). A poor fit flags non-convergence.
    """
    eps_ladder = list(eps_ladder if eps_ladder is not None
                      else [1e-2, 1e-3, 1e-4, 1e-6])
    phi_c = log_factor or (lambda e: abs(math.log(e)))
    d = spec.d
    vals = []
    for eps in eps_ladder:
        zq, wq, _ = jump_nodes(spec, 1e-7, 1.0 / eps, 6, 8, 8)
        A_eps = _second_moment(zq, wq, spec.kernel, mu) / phi_c(eps)
        vals.append(A_eps)
    vals = np.array(vals)                       # (m, d, d)
    L = np.array([phi_c(e) for e in eps_ladder])
    # per entry: A(eps) = A + C / L  -> linear regression in 1/L
    X = np.stack([np.ones_like(L), 1.0 / L], axis=1)
    coef, res, *_ = np.linalg.lstsq(X, vals.reshape(len(L), -1), rcond=None)
    A_extrap = coef[0].reshape(d, d)
    fitted = X @ coef
    resid = float(np.max(np.abs(fitted - vals.reshape(len(L), -1))))
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    converged = resid <= 5e-2 * scale
    return CovarianceMatrix(A_extrap,
                            meta={"ladder": [(e, v.tolist()) for e, v in
                                             zip(eps_ladder, vals)],
                                  "fit_residual": resid,
                                  "converged": bool(converged)})


# ---------------------------------------------------------------------------
# degeneracy prediction
# ---------------------------------------------------------------------------

@dataclass
class DegeneracyVerdict:
    directions: np.ndarray
    has_small_support: list
    predicted_nondegenerate: bool
    notes: str = ""


def nondegeneracy_check(spec_or_atoms, directions=None, irreducible=True
                        ) -> DegeneracyVerdict:
    """Predict whether the diffusive covariance can degenerate.

    The criterion is the existence, for each probe direction, of arbitrarily
    small jumps in the support of the measure aligned with that direction. The
    isotropic stable small part supplies them for every direction; a purely
    atomic measure never does.
    """
    if isinstance(spec_or_atoms, AtomJumpMeasure):
        d = spec_or_atoms.d
        dirs = (np.eye(d) if directions is None
                else np.atleast_2d(np.asarray(directions, dtype=float)))
        flags = spec_or_atoms.small_support_directions(dirs)
    else:
        spec = spec_or_atoms
        d = spec.d
        dirs = (np.eye(d) if directions is None
                else np.atleast_2d(np.asarray(directions, dtype=float)))
        flags = [spec.small.kind == "stable" for _ in dirs]
    ok = bool(irreducible and all(flags))
    note = "" if ok else \
        "no small-jump support along some probe direction; degeneracy possible"
    return DegeneracyVerdict(dirs, flags, ok, note)
