"""Acceptance suite: one test per documented criterion, stated tolerances.

Each test prints a PASS/FAIL line (run pytest with -s to see them inline)
and asserts the same conditions that line reports.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from levyhom.averaging import (cesaro_average, effective_directional_kernel,
                               fourier_mean)
from levyhom.config import fixture_config, load_config
from levyhom.corrector import (AtomJumpMeasure, assemble_operator,
                               covariance_matrix, critical_covariance,
                               fourier_multiplier, nondegeneracy_check,
                               solve_poisson)
from levyhom.ergodic import (ergodic_average_decay, estimate_invariant_measure,
                             mu_average, stationary_measure, TorusMeasure)
from levyhom.limits import LimitLaw, predicted_limit
from levyhom.pathsim import (SimConfig, simulate_endpoints,
                             simulate_snapshots)
from levyhom.spec_model import (IntegrabilityError, PeriodicKernel,
                                SphericalMeasure, full_drift, truncated_drift,
                                validate)
from levyhom.trigpoly import TrigPoly
from levyhom.verify import ecf_distance, theorem_check

from conftest import make_spec


def _report(num, ok, detail=""):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. exact directional means and their Cesaro agreement
# --------------------------------------------------------------------------

def test_acceptance_1_fourier_mean_exactness():
    f = TrigPoly.cos_z(0, 2, (1, 0), 1.0)              # cos(2 pi x1) in d=2
    v_perp = fourier_mean(f, (0.0, 1.0), x=())
    v_par = fourier_mean(f, (1.0, 0.0), x=())
    k = (TrigPoly.const(2, 2, 1.0) +
         TrigPoly.cos_z(2, 2, (1, 0), 1.0) * TrigPoly.cos_z(2, 2, (0, 1), 0.5))
    th = np.array([1.0, 1.0]) / math.sqrt(2.0)
    v_diag = fourier_mean(k, th, x=(0.0, 0.0))
    ces = cesaro_average(PeriodicKernel.trig(k), np.zeros(2), th, T=1e4)
    ok = (v_perp == 1.0 and v_par == 0.0
          and abs(v_diag - 1.25) < 1e-14 and abs(ces - v_diag) <= 1e-2)
    assert _report(1, ok, f"means=({v_perp},{v_par},{v_diag}), "
                          f"cesaro gap={abs(ces - v_diag):.2e}")


# --------------------------------------------------------------------------
# 2. effective kernel equals the full space average off rational directions
# --------------------------------------------------------------------------

def test_acceptance_2_effective_kernel_constants():
    th = np.array([1.0, math.sqrt(2.0)])
    th = th / np.linalg.norm(th)
    mu = TorusMeasure.uniform(2, 16)
    checks = []
    for poly, want in [
        (TrigPoly.const(2, 2, 1.0) +
         TrigPoly.cos_z(2, 2, (1, 0), 1.0) * TrigPoly.cos_z(2, 2, (0, 1), 0.5),
         1.0),
        (TrigPoly.const(2, 2, 1.5) + TrigPoly.cos_z(2, 2, (2, 1), 0.5) +
         TrigPoly.cos_x(2, 2, (1, 0), 0.25) * TrigPoly.cos_z(2, 2, (1, 1), 1.0),
         1.5),
    ]:
        got = effective_directional_kernel(PeriodicKernel.trig(poly), mu, th)
        checks.append(abs(got - want) <= 1e-3)
    assert _report(2, all(checks), f"checks={checks}")


# --------------------------------------------------------------------------
# 3. truncated and tail drift analytics
# --------------------------------------------------------------------------

def test_acceptance_3_drift_truncation_analytics():
    spec = make_spec(alpha=1.5, rho0=SphericalMeasure.atoms(1, [((1.0,), 1.0)]))
    x = np.zeros(1)
    b4 = truncated_drift(spec, x, 4.0)[0]
    binf = full_drift(spec, x)[0]
    sym = make_spec(alpha=1.5)
    b_sym = full_drift(sym, x)[0]
    heavy = make_spec(alpha=0.5,
                      rho0=SphericalMeasure.atoms(1, [((1.0,), 1.0)]))
    raised = False
    try:
        full_drift(heavy, x)
    except IntegrabilityError:
        raised = True
    # b_R = int_1^R r r^-2.5 dr = 2(1-R^-1/2); 7/12 is Pi(1<|z|<=4), mass not drift
    ok_inf = abs(binf - 2.0) <= 1e-8
    ok_sym = abs(b_sym) <= 1e-12
    ok_b4 = abs(b4 - 2.0 * (1.0 - 4.0 ** -0.5)) <= 1e-8
    ok_tail = abs((binf - b4) - 2.0 * 4.0 ** -0.5) <= 1e-8
    ok = ok_inf and ok_sym and raised and ok_b4 and ok_tail
    assert _report(3, ok, f"b4={b4!r}, binf={binf!r}, tail={binf - b4!r}, "
                          f"sym={b_sym!r}, integrability_raise={raised}")


# --------------------------------------------------------------------------
# 4. corrector solve against the independent multiplier oracle
# --------------------------------------------------------------------------

def test_acceptance_4_corrector_oracle():
    spec = make_spec(alpha=0.5, alpha0=0.5)
    op = assemble_operator(spec, 128)
    f = lambda pts: np.cos(2 * np.pi * pts[:, 0])
    fld = solve_poisson(op, f)
    m1 = fourier_multiplier(spec, [1.0])
    exact = np.cos(2 * np.pi * op.grid.centers[:, 0]) / m1.real
    rel = float(np.max(np.abs(fld.values - exact)) / np.max(np.abs(exact)))
    ok = rel <= 0.05 and fld.residual_rel <= 1e-6 and abs(fld.mu_mean()) <= 1e-10
    assert _report(4, ok, f"rel_Linf={rel:.4f}, residual={fld.residual_rel:.2e}, "
                          f"mean={fld.mu_mean():.2e}")


# --------------------------------------------------------------------------
# 5. covariance degeneracy and its prediction
# --------------------------------------------------------------------------

def test_acceptance_5_covariance_degeneracy():
    mu = TorusMeasure.uniform(2, 8)
    atoms = AtomJumpMeasure(2, [((1.0, 0.0), 1.0)])
    cov_atom = covariance_matrix(atoms, mu, psi=None)
    e2 = np.array([0.0, 1.0])
    degenerate_val = float(e2 @ cov_atom.A @ e2)
    verdict_atom = nondegeneracy_check(atoms)

    spec = make_spec(d=2, alpha=3.0, alpha0=1.0,
                     rho0=SphericalMeasure.uniform(2, 1.0, 32))
    cov_full = covariance_matrix(spec, mu, psi=None)
    verdict_full = nondegeneracy_check(spec)
    min_eig = float(cov_full.eigenvalues.min())

    ok = (degenerate_val <= 1e-12 and not verdict_atom.predicted_nondegenerate
          and min_eig >= 1e-8 and verdict_full.predicted_nondegenerate)
    assert _report(5, ok, f"<A e2,e2>={degenerate_val:.2e}, "
                          f"min_eig={min_eig:.3e}")


# --------------------------------------------------------------------------
# 6. critical covariance closed forms
# --------------------------------------------------------------------------

def test_acceptance_6_critical_covariance():
    mu = TorusMeasure.uniform(2, 4)
    spec_u = make_spec(d=2, alpha=2.0, alpha0=1.0,
                       rho0=SphericalMeasure.uniform(2, 1.0, 32))
    cov_u = critical_covariance(spec_u, mu)
    gap_u = float(np.max(np.abs(cov_u.A - 0.5 * np.eye(2))))

    rho_axes = SphericalMeasure.atoms(2, [((1.0, 0.0), 1.0),
                                          ((0.0, 1.0), 1.0)])
    spec_a = make_spec(d=2, alpha=2.0, alpha0=1.0, rho0=rho_axes)
    cov_a = critical_covariance(spec_a, mu)
    gap_a = float(np.max(np.abs(cov_a.A - np.eye(2))))

    ok = gap_u <= 1e-3 and gap_a <= 1e-3 and cov_u.meta["converged"]
    assert _report(6, ok, f"|A-I/2|={gap_u:.2e}, |A-I|={gap_a:.2e}")


# --------------------------------------------------------------------------
# 7. simulator calibration: symbol match and bit reproducibility
# --------------------------------------------------------------------------

def test_acceptance_7_simulator_calibration():
    spec = make_spec(alpha=0.5, alpha0=0.5)
    cfg = SimConfig(paths=10_000, horizon=1.0, delta=0.05, seed=7)
    ends = simulate_endpoints(spec, cfg)[:, 0]

    def symbol(u):
        val_in, _ = quad(lambda r: 2 * (np.cos(u * r) - 1) * r ** -1.5,
                         0.0, 1.0, limit=400)
        val_cos, _ = quad(lambda r: 1.0 / (r * spec.phi(r)), 1.0, np.inf,
                          weight="cos", wvar=u, limlst=100, limit=400)
        return val_in + (val_cos - spec.phi.radial_tail_mass(1.0, np.inf))

    bad = 0
    for u in np.linspace(0.3, 5.0, 20):
        target = math.exp(symbol(u))
        vals = np.cos(u * ends)
        se = vals.std() / math.sqrt(len(ends))
        if abs(vals.mean() - target) > 3 * se:
            bad += 1

    reps = []
    for workers in (1, 4):
        c = SimConfig(paths=400, horizon=1.0, delta=0.1, seed=3,
                      workers=workers)
        reps.append(simulate_endpoints(spec, c))
    bit_exact = bool(np.array_equal(reps[0], reps[1]))
    ok = bad == 0 and bit_exact
    assert _report(7, ok, f"symbol misses={bad}/20, bit_exact={bit_exact}")


# --------------------------------------------------------------------------
# 8. stable-limit convergence at desk scale, with negative control
# --------------------------------------------------------------------------

def test_acceptance_8_stable_limit_ladder():
    settings = load_config(fixture_config("ex4_1_stable"))
    spec = settings.spec
    ladder = [1.0 / 8, 1.0 / 32, 1.0 / 128]
    rep = theorem_check(spec, ladder, n=5000,
                        seed=settings.sim.seed, sim=settings.sim)
    mu = stationary_measure(spec, 128)
    law = predicted_limit(spec, mu)
    wrong = LimitLaw(kind="stable", alpha=0.5, rho0=spec.rho0,
                     kbar0=2.0 * law.kbar0)
    rep_neg = theorem_check(spec, [1.0 / 8, 1.0 / 32],
                            n=5000, seed=settings.sim.seed, law=wrong,
                            sim=settings.sim)
    ks_seq = [round(r.ks_max, 4) for r in rep.rows]
    ok = rep.verdict == "PASS" and rep_neg.verdict == "FAIL"
    assert _report(8, ok, f"ks={ks_seq}, control={rep_neg.verdict}")


# --------------------------------------------------------------------------
# 9. diffusive limit with the corrector in the covariance
# --------------------------------------------------------------------------

def test_acceptance_9_diffusive_limit_with_corrector():
    settings = load_config(fixture_config("ex4_1_diffusive"))
    spec = settings.spec
    mu = stationary_measure(spec, 128)
    law = predicted_limit(spec, mu)
    assert law.meta["corrector_sup"] >= 0.1
    rep = theorem_check(spec, [1.0 / 64], n=5000,
                        seed=settings.sim.seed, sim=settings.sim)
    wrong = LimitLaw(kind="gaussian",
                     A=covariance_matrix(spec, mu, psi=None).A)
    rep_neg = theorem_check(spec, [1.0 / 64], n=5000,
                            seed=settings.sim.seed, law=wrong,
                            sim=settings.sim)
    ok = rep.verdict == "PASS" and rep_neg.verdict == "FAIL"
    assert _report(9, ok, f"ks={rep.rows[-1].ks_max:.4f}, "
                          f"control_ks={rep_neg.rows[-1].ks_max:.4f}, "
                          f"psi_sup={law.meta['corrector_sup']:.3f}")


# --------------------------------------------------------------------------
# 10. decay of ergodic averages under scaling
# --------------------------------------------------------------------------

def test_acceptance_10_ergodic_average_decay():
    spec = make_spec(alpha=0.5, alpha0=0.5)      # constant-coefficient d=1
    f = lambda pts: np.cos(2 * np.pi * pts[:, 0])
    out = ergodic_average_decay(spec, f, [1.0 / 4, 1.0 / 8, 1.0 / 16],
                                SimConfig(paths=2000, delta=0.25, seed=17))
    ok = out["bounded_within_factor_4"]
    assert _report(10, ok, f"ratio={out['bounded_ratio']:.2f}, "
                           f"rows={[(r['eps'], round(r['compensated'], 4)) for r in out['rows']]}")


# --------------------------------------------------------------------------
# 11. invariant measure: uniform fixture and stationarity residual
# --------------------------------------------------------------------------

def test_acceptance_11_invariant_measure():
    spec = make_spec(alpha=0.5, alpha0=0.5)
    cfg = SimConfig(paths=200, horizon=200.0, delta=0.25, seed=23)
    mu_mc = estimate_invariant_measure(spec, cfg, grid_n=16)
    tv = mu_mc.tv_distance(TorusMeasure.uniform(1, 16))

    xdep = load_config(fixture_config("ex4_1_stable")).spec
    mu = stationary_measure(xdep, 64)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(29)))
    n_paths = 4000
    cells = gen.choice(mu.grid.size, p=mu.weights, size=n_paths)
    ends = np.empty((n_paths, 1))
    for cell in np.unique(cells):
        rows = np.nonzero(cells == cell)[0]
        sub = SimConfig(paths=len(rows), horizon=0.5, delta=0.25,
                        seed=3000 + int(cell))
        snaps = simulate_snapshots(xdep, sub, [0.5], x0=mu.centers[cell])
        ends[rows] = snaps[:, 0, :]
    ends_mod = ends - np.floor(ends)
    fs = [lambda p: np.cos(2 * np.pi * p[:, 0]),
          lambda p: np.sin(2 * np.pi * p[:, 0]),
          lambda p: np.cos(4 * np.pi * p[:, 0]),
          lambda p: np.sin(4 * np.pi * p[:, 0]),
          lambda p: np.cos(6 * np.pi * p[:, 0])]
    resids = []
    for f in fs:
        target = float(mu_average(mu, f))
        vals = np.asarray(f(ends_mod))
        se = vals.std() / math.sqrt(n_paths)
        resids.append(abs(vals.mean() - target) <= 3 * se)
    ok = tv <= 0.05 and all(resids)
    assert _report(11, ok, f"tv={tv:.4f}, residual_checks={resids}")
