"""Nonlocal Poisson solves on the torus and the diffusive covariance matrix.

On Fourier modes the trig kernel and drift act through exact multipliers;
``mode_operator`` is the generator's Fourier-Galerkin truncation (any
d <= 3) to the modes of one box, |l|_inf <= ``mode_box(spec)``: MODE_BOX[d],
or four times the longest x-mode step when that is larger. ``mode_model``
is the one route from a spec to that operator: the modes, M, one sparse LU
and the left null vector v. The invariant measure keeps its model, and the
mixing curve and the corrector (``mode_poisson_solver``) solve on it;
``mode_set`` refuses more than MODE_CAP modes. The dense grid
discretization (``assemble_operator``, d in {1, 2}; ``solve_poisson``) is
the mode route's oracle. It replaces the singular part of the small-jump
integral inside one grid cell by its second-order Taylor proxy (a scaled
discrete Laplacian with the exact radial coefficient), the remaining jump
integral by log-spaced Gauss-Legendre quadrature with multilinear
interpolation, the compensator by central differences, and the drift by
upwind differences. The grid solve centres psi against its own operator's
invariant density, the mode solve against the measure it is given.

The critical covariance (phi = r^2) needs no radial quadrature: it is the
closed form sum_n w_n k̄0(theta_n) theta_n theta_n^T over rho0's nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply, splu
from scipy.special import gamma, jv, roots_jacobi

from .averaging import effective_kernel_table
from .grid import TorusGrid
from .spec_model import (IntegrabilityError, JumpSpec, full_drift,
                         jump_nodes, tail_radius, truncated_drift)

_TWO_PI = 2.0 * np.pi


def operator_radius(spec: JumpSpec):
    """Radial cutoff R with tail mass bound * kmax below 1e-8, or 1e12."""
    return tail_radius(spec, 1e-8 / max(spec.kernel.kmax, 1e-300), 1e12) \
        or 1e12


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

@dataclass
class AssembledOperator:
    grid: TorusGrid
    matrix: np.ndarray
    meta: dict = field(default_factory=dict)
    _weights: Optional[np.ndarray] = field(default=None, init=False,
                                           repr=False)

    def stationary_weights(self):
        """Left null vector of the generator matrix, normalized to mass one.

        This is the invariant measure of the discretized dynamics, solved on
        the first call and kept. Negative entries from the compensator
        stencil are clipped; ``meta`` records the mass they carried and the
        solve residual max |L^T w| over max |L| max |w|.
        """
        if self._weights is not None:
            return self._weights
        N = self.grid.size
        aug = np.zeros((N + 1, N + 1))
        aug[:N, :N] = self.matrix.T
        aug[:N, N] = 1.0
        aug[N, :N] = 1.0
        rhs = np.zeros(N + 1)
        rhs[N] = 1.0
        w = np.linalg.solve(aug, rhs)[:N]
        resid = float(np.abs(self.matrix.T @ w).max()
                      / (np.abs(self.matrix).max() * np.abs(w).max()))
        self._weights, clipped = density_weights(w)
        self.meta.update(residual=resid, clipped_mass=clipped)
        return self._weights


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

    return AssembledOperator(grid, L)


# ---------------------------------------------------------------------------
# mode space (Fourier-Galerkin) generator for trig-poly coefficients
# ---------------------------------------------------------------------------

MODE_BOX = {1: 40, 2: 16, 3: 8}     # least box |l|_inf <= MODE_BOX[d]
MODE_CAP = 20000                    # most modes one operator takes


def _bessel_pair(nu, rho):
    """A = rho^-nu J_nu(rho) and B = (A(rho) - A(0)) / rho^2, both entire;
    by power series below rho = 2, where A(rho) - A(0) cancels."""
    k = np.arange(1, 21)
    a0 = 2.0 ** -nu / gamma(nu + 1.0)
    B = np.polynomial.polynomial.polyval(rho ** 2, (-1.0) ** k / (
        2.0 ** (2 * k + nu) * gamma(k + 1.0) * gamma(k + nu + 1.0)))
    A = a0 + rho ** 2 * B
    big = rho >= 2.0
    A[big] = rho[big] ** -nu * jv(nu, rho[big])
    B[big] = (A[big] - a0) / rho[big] ** 2
    return A, B


def generator_multipliers(spec: JumpSpec, modes, mz):
    """m_mz(n) = int e^{2 pi i mz.z}(e^{2 pi i n.z} - 1 - 2 pi i n.z
    1_{|z|<=1}) Pi(dz) for each row n of ``modes``.

    Small part: r^{-1-alpha0} dr against surface measure, whose Fourier
    transform is (2 pi)^{d/2} A_{d/2-1}(|xi|) with first moment
    i (2 pi)^{d/2} A_{d/2}(|xi|) xi (``_bessel_pair``). With p = |n + mz|
    and q = |mz| it gives (2 pi)^{d/2+2} int_0^1 r^{1-alpha0}
    [p^2 B(2 pi r p) - q^2 B(2 pi r q) + n.mz A_{d/2}(2 pi r q)] dr, entire
    in r apart from the weight: one Gauss-Jacobi rule. Tail: the angular
    nodes of rho0 + kappa weigh F((n+mz).theta) - F(mz.theta), F(s) the
    radial Fourier integral of g(r) / (r phi(r)) on r > 1
    (``JumpSpec.tail_transform``): the closed form E_{1+alpha}(-2 pi i s)
    for power phi on rho0, one call per angular term; QAWF per |s|, cached
    on the spec, for other phi and for the kappa term.
    """
    mz = np.asarray(mz, dtype=float)
    shifted = np.atleast_2d(np.asarray(modes, dtype=float)) + mz
    total = np.zeros(len(shifted), dtype=complex)
    if spec.small.kind == "stable":
        d, beta = spec.d, 1.0 - spec.small.alpha0
        keys = np.stack([np.linalg.norm(shifted, axis=1),
                         np.full(len(shifted), np.linalg.norm(mz)),
                         (shifted - mz) @ mz], axis=1)
        keys, inv = np.unique(np.round(keys, 12), axis=0, return_inverse=True)
        p, q, nq = keys.T
        x, w = roots_jacobi(int(2 * p.max()) + 40, 0.0, beta)
        rho = _TWO_PI * 0.5 * (1.0 + x)
        Bp = _bessel_pair(d / 2 - 1, np.outer(p, rho))[1]
        Bq = _bessel_pair(d / 2 - 1, np.outer(q, rho))[1]
        Aq = _bessel_pair(d / 2, np.outer(q, rho))[0]
        f = (p ** 2)[:, None] * Bp - (q ** 2)[:, None] * Bq + nq[:, None] * Aq
        total += (_TWO_PI ** (d / 2 + 2) * 2.0 ** (-beta - 1) * (f @ w))[
            np.ravel(inv)]
    for measure, g in spec.angular_terms():
        s = np.vstack([shifted, mz[None]]) @ measure.thetas.T
        F = spec.tail_transform(s, g is not None)
        total += (F[:-1] - F[-1]) @ measure.weights
    return total


def fourier_multiplier(spec: JumpSpec, mode):
    """Multiplier m(n) of the generator on exp(2 pi i n.x) when it is
    diagonal (kernel constant in x and z, constant drift): an oracle for
    the grid discretization."""
    if spec.kernel.depends_on_x() or spec.kernel.depends_on_z():
        raise ValueError("multiplier defined for constant-in-(x,z) kernels only")
    if any(c.depends_on_x() for c in spec.drift.components):
        raise ValueError("multiplier requires a constant drift")
    mode, d = np.asarray(mode, dtype=float), spec.d
    kval = spec.kernel(np.zeros((1, d)), np.zeros((1, d)))[0]
    m = generator_multipliers(spec, mode[None], (0,) * d)[0]
    bvec = spec.drift(np.zeros((1, d))).reshape(d)
    return complex(kval * m + 1j * _TWO_PI * float(mode @ bvec))


def x_mode_steps(spec: JumpSpec):
    """The nonzero x-modes of the kernel and drift, as a (steps, d) array."""
    steps = {mx for c in [spec.kernel.poly] + spec.drift.components
             for mx, _ in c.coeffs} - {(0,) * spec.d}
    return np.array(sorted(steps), dtype=np.int64).reshape(-1, spec.d)


def mode_box(spec: JumpSpec):
    """The box |l|_inf <= MODE_BOX[d], widened to four times the longest
    x-mode step (|.|_inf) when that is larger, so that the modes reached
    from 0 reach four steps out in each direction: the box of mu, the
    mixing curve and the corrector."""
    return max(MODE_BOX[spec.d],
               4 * int(np.abs(x_mode_steps(spec)).max(initial=0)))


def mode_set(spec: JumpSpec, box, seeds=()):
    """Modes of the box |l|_inf <= box reached from 0 and from the modes in
    ``seeds`` by steps along the x-modes of the kernel and drift ({0} when
    there are neither), breadth first and mode 0 first. Raises as soon as
    the set passes MODE_CAP modes."""
    d = spec.d
    cap = ValueError(f"the modes of the box |l|_inf <= {box} pass the mode "
                     f"cap of {MODE_CAP}")
    steps = x_mode_steps(spec).tolist()
    found = list(dict.fromkeys([(0,) * d] + [tuple(m) for m in seeds]))
    seen = set(found)
    for m in found:                 # grows while it is walked: breadth first
        for s in steps:
            nb = tuple(a + b for a, b in zip(m, s))
            if max(map(abs, nb)) <= box and nb not in seen:
                seen.add(nb)
                found.append(nb)
                if len(found) > MODE_CAP:
                    raise cap
    return np.array(found, dtype=np.int64).reshape(-1, d)


def mode_operator(spec: JumpSpec, modes):
    """Sparse matrix of the generator on e_l = e^{2 pi i l.x}, l in the rows
    of ``modes``: column j holds L e_{modes[j]} on the same modes, the rest
    dropped (Galerkin truncation).

    For k = sum c_(mx,mz) e^{2 pi i (mx.x + mz.z)} and b = sum b_j e_j,
    L e_l = sum c_(mx,mz) m_mz(l) e_{l+mx} + 2 pi i sum_j <b_j, l> e_{l+j}
    (``generator_multipliers``); L e_0 = 0 needs no multiplier.
    """
    K, box = len(modes), int(np.abs(modes).max())
    lookup = np.full((2 * box + 1,) * spec.d, -1)
    lookup[tuple((modes + box).T)] = np.arange(K)
    live = modes[1:]
    entries = [(np.empty(0, int), np.empty(0, int), np.empty(0, complex))]

    def put(shift, coef):
        tgt = live + np.asarray(shift)
        col = np.nonzero(np.all(np.abs(tgt) <= box, axis=1))[0]
        row = lookup[tuple((tgt[col] + box).T)]
        entries.append((row[row >= 0], 1 + col[row >= 0],
                        coef[col[row >= 0]]))

    by_mz = {}
    for (mx, mz), c in spec.kernel.poly.coeffs.items():
        by_mz.setdefault(mz, []).append((mx, c))
    for mz, terms in (by_mz.items() if len(live) else ()):
        m = generator_multipliers(spec, live, mz)
        for mx, c in terms:
            put(mx, m * c)
    for a, comp in enumerate(spec.drift.components):
        for (mx, _), c in comp.coeffs.items():
            put(mx, 2j * np.pi * live[:, a] * c)
    rows, cols, vals = map(np.concatenate, zip(*entries))
    return sparse.csc_matrix((vals, (rows, cols)), shape=(K, K))


@dataclass
class ModeModel:
    """The mode operator of one spec on one mode set.

    ``modes`` (mode 0 first) and their sparse operator ``M``;
    ``solve(b, adjoint)`` solves with M on the modes other than 0, on one
    sparse LU (None when 0 is the only mode); ``v`` is the left null vector
    of M with v_0 = 1: v_p = int e^{2 pi i p.x} mu(dx) for the invariant
    measure mu, since L* mu = 0 reads v^T M = 0. ``source`` holds the
    arguments ``(spec, box, seeds)`` of ``mode_model``: the LU does not
    pickle, so a pickled model is built again from them, bit for bit."""
    modes: np.ndarray
    M: sparse.csc_matrix
    solve: Optional[Callable]
    v: np.ndarray
    source: tuple

    def __reduce__(self):
        return mode_model, self.source


def mode_model(spec: JumpSpec, box=None, seeds=()) -> ModeModel:
    """The ``ModeModel`` of ``mode_set(spec, box, seeds)``, box
    ``mode_box(spec)`` when not given: one ``mode_operator``, one LU."""
    box = box or mode_box(spec)
    modes = mode_set(spec, box, seeds)
    M = mode_operator(spec, modes)
    solve = None
    if len(modes) > 1:
        slu = splu(M[1:, 1:].tocsc())
        solve = lambda b, adjoint: slu.solve(np.asarray(b, dtype=complex),
                                             trans="T" if adjoint else "N")
    v = np.ones(len(modes), dtype=complex)
    if solve is not None:
        v[1:] = solve(-M[0, 1:].toarray().ravel(), True)
    return ModeModel(modes, M, solve, v, (spec, box, seeds))


def mode_semigroup(M, F, times):
    """e^{tM} F at each of the ascending ``times`` (array of shape
    (len(times),) + F.shape), stepped from t = 0, and the propagator that
    ran.

    ``"dense"`` takes one ``scipy.linalg.expm`` of h M per distinct step h
    (steps equal to 1e-12 relative share one) and a product per time;
    ``"krylov"`` one ``expm_multiply`` per step. Dense when
    K^3 <= 2 nnz(M) |M|_1 t_last: the dense cost grows like K^3, the Krylov
    stepping's like nnz(M) times the number of products, which grows with
    |t_last M|_1; its norm estimates cost milliseconds even at K = 3.
    """
    times = np.asarray(times, dtype=float)
    steps = np.diff(times, prepend=0.0)
    K = M.shape[0]
    out = np.empty((len(times),) + F.shape, dtype=complex)
    norm = np.max(np.asarray(abs(M).sum(axis=0)), initial=0.0)
    if K ** 3 <= 2 * M.nnz * norm * times[-1]:
        keys = np.round(steps / max(steps.max(), 1e-300), 12)
        _, first, which = np.unique(keys, return_index=True,
                                    return_inverse=True)
        A = M.toarray()
        props = [expm(steps[i] * A) for i in first]
        for k, j in enumerate(np.ravel(which)):
            F = out[k] = props[j] @ F
        return out, "dense"
    # expm_multiply's norm estimates draw from NumPy's global generator;
    # a fixed seed keeps the result a function of M, F and the times
    state = np.random.get_state()
    np.random.seed(0)
    try:
        for k, h in enumerate(steps):
            F = out[k] = expm_multiply(h * M, F)
    finally:
        np.random.set_state(state)
    return out, "krylov"


def modes_on_grid(modes, coef, grid: TorusGrid):
    """Values of sum_j coef_j e^{2 pi i modes_j.x} at the grid centers, one
    column per column of ``coef`` and all in one inverse FFT (modes past
    the Nyquist range alias exactly at the nodes)."""
    coef = np.asarray(coef)
    U = np.zeros(coef.shape[1:] + (grid.n,) * grid.d, dtype=complex)
    np.add.at(U, (...,) + tuple((np.asarray(modes) % grid.n).T), coef.T)
    # in place: a fresh output per axis costs more than the transform
    np.fft.ifftn(U, axes=tuple(range(coef.ndim - 1, U.ndim)), out=U)
    return U.real.reshape(coef.shape[1:] + (grid.size,)).T * grid.size


def density_weights(w):
    """Nonnegative part of w at mass one, and the mass it drops over the
    total."""
    clipped = float(np.maximum(-w, 0.0).sum() / w.sum())
    w = np.maximum(w, 0.0)
    return w / w.sum(), clipped


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


def solve_poisson(op: AssembledOperator, f, mean_tol=1e-8) -> CorrectorField:
    """Zero-mean periodic solution of (generator) psi = f on the grid of the
    assembled operator ``op``.

    ``f`` is a callable of grid centers or an array of grid values. The
    solvability precondition is that f integrates to ~0 against the
    operator's invariant weights; violations beyond ``mean_tol`` raise. The
    multiplier of the bordered system absorbs the remaining mean.
    """
    grid = op.grid
    fv = np.asarray(f(grid.centers) if callable(f) else f,
                    dtype=float).reshape(grid.size)
    w = op.stationary_weights()
    fnorm = float(np.max(np.abs(fv)))
    defect = float(w @ fv)
    if abs(defect) > mean_tol * max(fnorm, 1.0):
        raise ValueError(
            f"right-hand side is not mean-free (defect {defect:.3e}); "
            "the discrete Poisson system is singular")
    N = grid.size
    aug = np.zeros((N + 1, N + 1))
    aug[:N, :N] = op.matrix
    aug[:N, N] = 1.0
    aug[N, :N] = w
    sol = np.linalg.solve(aug, np.concatenate([fv, [0.0]]))
    # adding 0.0 turns the -0.0 that a zero right-hand side can leave into 0.0
    psi = sol[:N] + 0.0
    resid = float(np.max(np.abs(op.matrix @ psi + sol[N] - fv))) / max(
        fnorm, 1e-300)
    return CorrectorField(grid, psi, _central_gradient(grid, psi), w, resid,
                          "grid")


def mode_poisson_solver(model: ModeModel, mu):
    """``solve(f)``: the zero-mean solution of (generator) psi = f, f and
    psi as values on mu's grid, on the operator and LU of ``model`` for
    every f. f^ is read on the model's modes inside the grid's Nyquist
    range (|l|_inf < n/2) and its mode 0 dropped, so that psi solves
    L psi = f - mu(f) on the modes; psi is then centred against mu itself.
    The residual is sum |M psi^ - f^| over the modes, relative to max |f|."""
    grid, modes = mu.grid, model.modes
    inside = 2 * np.abs(modes).max(axis=1) < grid.n

    def solve_one(f):
        fv = np.asarray(f(grid.centers) if callable(f) else f,
                        dtype=float).reshape((grid.n,) * grid.d)
        fhat = np.where(inside, np.fft.fftn(fv)[tuple((modes % grid.n).T)],
                        0.0) / grid.size
        psihat = np.concatenate([[0.0], model.solve(fhat[1:], False)
                                 if model.solve else []])
        psi = modes_on_grid(modes, psihat, grid)
        psi = psi - float(mu.weights @ psi)
        resid = float(np.sum(np.abs(model.M @ psihat - fhat))
                      / max(np.abs(fv).max(), 1e-300))
        return CorrectorField(grid, psi, _central_gradient(grid, psi),
                              mu.weights, resid, "fourier")

    return solve_one


# ---------------------------------------------------------------------------
# right-hand sides for the recentering correctors
# ---------------------------------------------------------------------------

def corrector_rhs(spec: JumpSpec, mu, mode="full", R=None):
    """Mean-free field -(tail drift) - b + averages, on the measure's grid.

    ``mode='full'`` uses the full tail drift (needs an integrable tail);
    ``mode='truncated'`` uses jumps up to radius R. The enforced mean shift is
    recorded so callers can see how far the analytic averages were off.
    """
    centers = mu.centers
    if mode == "full":
        tail = full_drift(spec, centers)
    elif mode == "truncated":
        if R is None or R <= 1.0:
            raise ValueError("truncated mode needs R > 1")
        tail = truncated_drift(spec, centers, R)
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


def solve_recentering_corrector(spec: JumpSpec, mu, mode="full", R=None
                                ) -> VectorCorrector:
    """Corrector for the recentering drift, one Poisson problem per axis on
    mu's grid, all on one mode operator and one sparse LU
    (``mode_poisson_solver``): mu's own ``ModeModel``, or
    ``mode_model(spec)`` for a measure without one, with psi centred
    against mu. Raises in d = 3."""
    if spec.d > 2:
        raise ValueError(f"no diffusive corrector in d={spec.d}: the "
                         f"covariance's loop over mu's cells grows like n^3")
    rhs, _ = corrector_rhs(spec, mu, mode=mode, R=R)
    solve = mode_poisson_solver(
        mu.model if mu.model is not None else mode_model(spec), mu)
    return VectorCorrector(solve(rhs[:, a]) for a in range(spec.d))


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
        al = spec.phi.index
        if al <= 2.0:
            raise IntegrabilityError(
                "second moment diverges for scaling index <= 2")
        # tail cutoff where the residual second moment is below 1e-9
        mass = spec.rho0.total_mass * spec.kernel.kmax
        hi = max((1e-9 * (al - 2.0) / max(mass, 1e-300)) ** (1.0 / (2.0 - al)),
                 10.0)
        zq, wq, _ = jump_nodes(spec, 1e-7, min(hi, 1e9), 6, 8, 8)
        kern = spec.kernel

    A = _second_moment(zq, wq, kern, mu, psi)
    return CovarianceMatrix(A, meta={"with_corrector": psi is not None})


def _second_moment(zq, wq, kern, mu, psi=None):
    """int int (z + dpsi)(z + dpsi)^T k(x,z) w(dz) mu(dx) on nodes (zq, wq).

    Without a corrector mu is contracted first, kbar_q = sum_x mu(x)
    k(x, z_q) over blocks of nodes, and one sum over the nodes follows.
    """
    if psi is None:
        kbar = np.full(len(wq), float(mu.weights.sum()))
        X = mu.centers
        step = max(1, int(2e6 / len(X)))
        for q0 in range(0, len(wq), step) if kern is not None else ():
            zb = zq[q0:q0 + step]
            shape = (len(X),) + zb.shape
            kbar[q0:q0 + step] = mu.weights @ kern(
                np.broadcast_to(X[:, None, :], shape),
                np.broadcast_to(zb, shape))
        return np.einsum("q,qi,qj->ij", wq * kbar, zq, zq)
    A = np.zeros((zq.shape[1], zq.shape[1]))
    for xc, mw in zip(mu.centers, mu.weights):
        if mw == 0.0:
            continue
        disp = zq + psi(xc[None, :] + zq) - psi(xc[None, :])
        kv = kern(np.broadcast_to(xc, zq.shape), zq) if kern is not None else 1.0
        wk = wq * kv * mw
        A += np.einsum("q,qi,qj->ij", wk, disp, disp)
    return A


# ---------------------------------------------------------------------------
# critical (logarithmic) covariance
# ---------------------------------------------------------------------------

def critical_covariance(spec: JumpSpec, mu) -> CovarianceMatrix:
    """Limit of the truncated second moment over log R, in closed form.

    For phi = r^2 the moment int int_{|z|<=R} z z^T k Pi dmu is
    A log R + O(1), A = sum_n w_n k̄0(theta_n) theta_n theta_n^T over rho0's
    nodes with k̄0 the ray averages of k against mu: small jumps, each ray's
    oscillation and kappa (g(r) <= r^(beta - alpha)) give O(1).
    ``meta["converged"]`` is whether phi is the pure power r^2, the one phi
    for which that holds (r^2 log(1 + r) grows like log log R).
    """
    kbar0 = effective_kernel_table(spec.kernel, mu, spec.rho0)
    thetas = spec.rho0.thetas
    A = np.einsum("n,ni,nj->ij", spec.rho0.weights * kbar0, thetas, thetas)
    converged = spec.phi.kind == "power" and spec.phi.index == 2.0
    return CovarianceMatrix(A, meta={"converged": converged})


# ---------------------------------------------------------------------------
# degeneracy prediction
# ---------------------------------------------------------------------------

@dataclass
class DegeneracyVerdict:
    directions: np.ndarray
    has_small_support: list
    predicted_nondegenerate: bool
    notes: str = ""


def nondegeneracy_check(spec_or_atoms) -> DegeneracyVerdict:
    """Predict whether the diffusive covariance can degenerate.

    The criterion is the existence, for each axis direction, of arbitrarily
    small jumps in the support of the measure aligned with that direction. The
    isotropic stable small part supplies them for every direction; a purely
    atomic measure never does.
    """
    d = spec_or_atoms.d
    ok = (not isinstance(spec_or_atoms, AtomJumpMeasure)
          and spec_or_atoms.small.kind == "stable")
    note = "" if ok else \
        "no small-jump support along some probe direction; degeneracy possible"
    return DegeneracyVerdict(np.eye(d), [ok] * d, ok, note)
