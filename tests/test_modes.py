"""The mode-space (Fourier-Galerkin) generator against its oracles: the grid
route, closed-form invariant densities, direct quadrature of the
multipliers, and the spectral d=1 solve it replaced."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from levyhom import cli, corrector
from levyhom.config import FIXTURES, dump_config, fixture_config, load_config
from levyhom.corrector import (VectorCorrector, assemble_operator,
                               corrector_rhs, covariance_matrix,
                               critical_covariance, generator_multipliers,
                               jump_nodes, mode_model, mode_operator,
                               mode_poisson_solver, mode_semigroup, mode_set,
                               solve_poisson, solve_recentering_corrector)
from levyhom.ergodic import TorusMeasure, mixing_rate, stationary_measure
from levyhom.grid import TorusGrid
from levyhom.limits import predicted_limit
from levyhom.quadrature import radial_fourier_integral
from levyhom.spec_model import (DriftField, PeriodicKernel,
                                RadialPerturbation, ScalingFunction,
                                SphericalMeasure)
from levyhom.trigpoly import TrigPoly

from conftest import fresh_python, make_spec
from oracles import stationary_measure_grid

_TWO_PI = 2.0 * np.pi


def _fixture_spec(name):
    return load_config(fixture_config(name)).spec


def _coupled_spec_2d():
    """x-dependent d=2 kernel with a coupled x (x) z term and a trig drift."""
    poly = (TrigPoly.const(2, 2, 1.0) + TrigPoly.cos_x(2, 2, (1, 0), 0.4)
            + TrigPoly(2, 2, {((0, 1), (1, 0)): 0.1,
                              ((0, -1), (-1, 0)): 0.1}))
    rho = SphericalMeasure.atoms(2, [((1.0, 0.0), 1.0), ((0.0, 1.0), 0.5),
                                     ((-1.0, 0.0), 0.5)])
    drift = DriftField([TrigPoly.sin_x(2, 0, (0, 1), 0.2),
                        TrigPoly.const(2, 0, 0.05)])
    return make_spec(d=2, alpha=1.5, alpha0=1.0, rho0=rho, drift=drift,
                     kernel=PeriodicKernel.trig(poly))


@pytest.fixture(scope="module")
def coupled_grid():
    """The d=2 coupled spec and its grid operators at n = 16 and 32."""
    spec = _coupled_spec_2d()
    return spec, {n: assemble_operator(spec, n) for n in (16, 32)}


# --------------------------------------------------------------------------
# invariant measure
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ex4_0_axes", "ex4_1_critical"])
def test_x_independent_d2_kernels_give_exact_uniform(name, monkeypatch):
    def no_multiplier(*args, **kwargs):
        raise AssertionError("no multiplier is needed when mu is uniform")

    monkeypatch.setattr(corrector, "generator_multipliers", no_multiplier)
    mu = stationary_measure(_fixture_spec(name))
    assert mu.grid.n == 64
    assert np.all(mu.weights == 1.0 / 4096)
    assert mu.meta["route"] == "fourier_galerkin"
    assert mu.meta["unknowns"] == 0
    assert mu.meta["residual"] == 0.0 and mu.meta["clipped_mass"] == 0.0
    assert mu.meta["edge_mass"] == 0.0


@pytest.mark.parametrize("d, tol", [(1, 1e-12), (2, 1e-6), (3, 2e-4)])
def test_symmetric_jumps_give_harmonic_profile(d, tol):
    # symmetric jumps with a z-independent intensity k(x): L = k A with A
    # symmetric, so L* mu = A(k mu) = 0 gives the density 1/k in any d; the
    # tolerance is the truncation error of the default mode box
    e = tuple(int(i == 0) for i in range(d))
    poly = TrigPoly.const(d, d, 1.0) + TrigPoly.cos_x(d, d, e, 0.5)
    if d > 1:
        diag = tuple(int(i > 0) for i in range(d))
        poly = poly + TrigPoly.sin_x(d, d, diag, 0.3)
    atoms = [(s * np.eye(d)[a], 0.5) for a in range(d) for s in (1.0, -1.0)]
    spec = make_spec(d=d, alpha=0.75, alpha0=1.0,
                     kernel=PeriodicKernel.trig(poly),
                     rho0=SphericalMeasure.atoms(d, atoms))
    mu = stationary_measure(spec)
    want = 1.0 / spec.kernel(mu.centers, np.zeros_like(mu.centers))
    assert mu.tv_distance(want / want.sum()) <= tol
    assert mu.meta["residual"] <= 1e-14


def test_uniform_rho0_with_x_modes_on_both_axes_gives_harmonic_profile():
    # the same identity under the 64-node uniform rho0, whose directions
    # meet the whole box of modes with distinct frequencies |(n + mz).theta|
    poly = (TrigPoly.const(2, 2, 1.0) + TrigPoly.cos_x(2, 2, (1, 0), 0.4)
            + TrigPoly.cos_x(2, 2, (0, 1), 0.4))
    spec = make_spec(d=2, alpha=1.5, alpha0=1.0,
                     kernel=PeriodicKernel.trig(poly),
                     rho0=SphericalMeasure.uniform(2, 1.0, n_nodes=64))
    mu = stationary_measure(spec)
    assert mu.meta["route"] == "fourier_galerkin"
    want = 1.0 / spec.kernel(mu.centers, np.zeros_like(mu.centers))
    assert mu.tv_distance(want / want.sum()) <= 1e-6


def test_mode_set_is_the_sublattice_of_the_x_modes():
    poly = TrigPoly.const(1, 1, 1.0) + TrigPoly.cos_x(1, 1, (2,), 0.5)
    spec = make_spec(kernel=PeriodicKernel.trig(poly))
    modes = mode_set(spec, 7)
    assert modes[0, 0] == 0
    assert sorted(modes[:, 0]) == [-6, -4, -2, 0, 2, 4, 6]
    assert len(mode_set(make_spec(d=2), 16)) == 1
    # the density only has even modes: it has period 1/2
    w = stationary_measure(spec).weights
    assert np.allclose(w[:64], w[64:], rtol=0, atol=1e-16)


def test_mode_set_stops_at_the_cap(monkeypatch):
    # x-modes e1, e2, e3 and 5 e1 reach every mode of the box 20 in d = 3,
    # 41^3 of them; the walk raises past the cap, before any multiplier
    def no_multiplier(*args, **kwargs):
        raise AssertionError("the cap stops the walk before multipliers")

    monkeypatch.setattr(corrector, "generator_multipliers", no_multiplier)
    poly = TrigPoly.const(3, 3, 1.0)
    for mx in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (5, 0, 0)):
        poly = poly + TrigPoly.cos_x(3, 3, mx, 0.1)
    spec = make_spec(d=3, kernel=PeriodicKernel.trig(poly))
    assert corrector.mode_box(spec) == 20
    with pytest.raises(ValueError, match="mode cap of 20000"):
        stationary_measure(spec)


def test_coupled_d2_kernel_matches_grid_route(coupled_grid):
    spec, ops = coupled_grid
    mu = stationary_measure(spec, 32)
    assert mu.meta["route"] == "fourier_galerkin"
    assert mu.meta["unknowns"] == 33 ** 2 - 1
    coarse = stationary_measure(spec, 32, box=8)
    assert mu.tv_distance(coarse) <= 1e-5
    # the coefficient mass where the box cuts the coupling shrinks with it
    assert 0.0 < mu.meta["edge_mass"] <= 1e-8 < coarse.meta["edge_mass"] <= 1e-4
    tv = {n: stationary_measure(spec, n).tv_distance(
        op.stationary_weights()) for n, op in ops.items()}
    # the grid converges towards the mode solution as it is refined
    assert tv[32] <= 2e-3 and tv[32] < tv[16]
    assert mu.tv_distance(np.full(mu.grid.size, 1.0 / mu.grid.size)) > 0.05


def _one_mode_spec(d, mode):
    """k = 1 + 0.5 cos(2 pi mode x_1), symmetric atoms on the axes."""
    e = tuple(mode * int(i == 0) for i in range(d))
    atoms = [(s * np.eye(d)[a], 0.5) for a in range(d) for s in (1.0, -1.0)]
    return make_spec(d=d, alpha=1.5, alpha0=1.0,
                     rho0=SphericalMeasure.atoms(d, atoms),
                     kernel=PeriodicKernel.trig(
                         TrigPoly.const(d, d, 1.0)
                         + TrigPoly.cos_x(d, d, e, 0.5)))


def test_long_d1_x_mode_widens_the_box_past_the_grid_oracle():
    # ex4_1_diffusive with its x-mode 1 moved to 11: the box widens to 44
    # and mu on it is near box 132, far nearer than the grid at n = 128
    raw = fixture_config("ex4_1_diffusive")
    raw["kernel"]["terms"][1]["x_mode"] = [11]
    spec = load_config(raw).spec
    mu = stationary_measure(spec)
    assert (mu.meta["mode_box"], mu.grid.n) == (44, 128)
    ref = stationary_measure(spec, 128, box=132)
    assert mu.tv_distance(ref) <= 1e-3
    assert stationary_measure_grid(spec, 128).tv_distance(ref) \
        >= mu.tv_distance(ref) + 0.03


def test_long_d2_x_mode_widens_the_box():
    # ex4_0_axes with 0.2 cos 2 pi 6x1 + 0.2 cos 2 pi x2 added: box 24
    spec = _fixture_spec("ex4_0_axes")
    poly = (spec.kernel.poly + TrigPoly.cos_x(2, 2, (6, 0), 0.2)
            + TrigPoly.cos_x(2, 2, (0, 1), 0.2))
    spec = replace(spec, kernel=PeriodicKernel.trig(poly))
    mu = stationary_measure(spec)
    assert (mu.meta["mode_box"], mu.grid.n) == (24, 64)
    assert mu.tv_distance(stationary_measure(spec, 64, box=48)) <= 1e-5


def test_long_d3_x_mode_widens_the_box():
    # an x-mode of length 3 in d = 3, past a quarter of MODE_BOX[3]
    spec = _one_mode_spec(3, 3)
    mu = stationary_measure(spec)
    assert (mu.meta["mode_box"], mu.grid.n) == (12, 32)
    assert mu.tv_distance(np.full(mu.grid.size, 1.0 / mu.grid.size)) > 0.1
    assert mu.tv_distance(stationary_measure(spec, 32, box=24)) <= 2e-3


@pytest.mark.parametrize("phi, kappa", [
    (ScalingFunction.power(1.5), (0.4, 1.5)),
    (ScalingFunction.power_log(0.8), None),
    (ScalingFunction.mixed([(0.5, 1.0), (1.2, 0.5)]), None)],
    ids=["kappa", "power_log", "mixed"])
def test_every_radial_law_matches_grid_route(phi, kappa):
    # the kappa-weighted tail transforms, power_log and mixed phi, a coupled
    # x (x) z term and a drift in d = 1
    rho = SphericalMeasure.atoms(1, [((1.0,), 1.0), ((-1.0,), 0.3)])
    poly = (TrigPoly.const(1, 1, 1.0) + TrigPoly.cos_x(1, 1, (1,), 0.5)
            + TrigPoly(1, 1, {((1,), (1,)): 0.1, ((-1,), (-1,)): 0.1}))
    spec = make_spec(alpha0=1.2, rho0=rho, phi=phi,
                     kappa=(RadialPerturbation.power_ratio(*kappa, rho)
                            if kappa else None),
                     kernel=PeriodicKernel.trig(poly),
                     drift=DriftField([TrigPoly.sin_x(1, 0, (1,), 0.2)]))
    tv = [stationary_measure(spec, n).tv_distance(
        stationary_measure_grid(spec, n)) for n in (32, 64)]
    assert tv[1] <= 1e-3 and tv[1] < 0.7 * tv[0]


def _old_d1_spectral_measure(spec, modes=40, grid_n=128):
    """The deleted d=1 route (z-independent trig kernel, trig drift, no
    small jumps): lstsq on modes -40..40 of m0(n) k^ and 2 pi i n b^."""
    assert spec.small.kind == "zero"

    def F(s):
        return radial_fourier_integral(spec.phi, s, 1.0, np.inf,
                                       weight_fn=lambda r: 1.0 / r)

    m0 = {}
    for n in range(1, modes + 1):
        total = 0.0 + 0.0j
        for th, w in zip(spec.rho0.thetas[:, 0], spec.rho0.weights):
            total += w * (F(float(th * n)) - F(0.0))
        m0[n] = total
        m0[-n] = np.conj(total)
    khat = {mx[0]: complex(c) for (mx, _), c in spec.kernel.poly.coeffs.items()}
    bhat = {mx[0]: complex(c)
            for (mx, _), c in spec.drift.components[0].coeffs.items()}
    cols = [l for l in range(-modes, modes + 1) if l != 0]
    pos = {l: i for i, l in enumerate(cols)}
    A = np.zeros((2 * modes, 2 * modes), dtype=complex)
    rhs = np.zeros(2 * modes, dtype=complex)
    for row, n in enumerate(cols):
        for q, coef in [(q, m0[n] * kq) for q, kq in khat.items()] + \
                [(j, 2j * np.pi * n * bj) for j, bj in bhat.items()]:
            l = -n - q
            if l == 0:
                rhs[row] -= coef
            elif abs(l) <= modes:
                A[row, pos[l]] += coef
    u = np.linalg.lstsq(A, rhs, rcond=None)[0]
    x = TorusGrid(1, grid_n).centers[:, 0]
    dens = np.ones(grid_n)
    for l, i in pos.items():
        dens = dens + np.real(u[i] * np.exp(2j * np.pi * l * x))
    dens = np.maximum(dens, 0.0)
    return dens / dens.sum()


def test_diffusive_measure_matches_deleted_d1_route():
    spec = _fixture_spec("ex4_1_diffusive")
    mu = stationary_measure(spec)
    old = _old_d1_spectral_measure(spec)
    assert np.max(np.abs(mu.weights - old) / old) <= 1e-13


_DIGEST_SCRIPT = """
import hashlib
from levyhom.config import fixture_config, load_config
from levyhom.ergodic import stationary_measure
for name in ("ex4_1_diffusive", "ex4_1_centered", "ex4_1_stable",
             "ex4_3_mixed"):
    w = stationary_measure(load_config(fixture_config(name)).spec).weights
    print(name, hashlib.sha256(w.tobytes()).hexdigest())
"""


SEMIGROUP_TIMES = np.linspace(0.05, 0.8, 8)


def _semigroup_case(spec, box):
    """The mode operator on the modes reached from +-e1 in the box, and
    the coefficients of cos and sin(2 pi x1) on them."""
    e1 = tuple(np.eye(spec.d, dtype=int)[0])
    modes = mode_set(spec, box, seeds=[e1, tuple(-np.array(e1))])
    F = np.zeros((len(modes), 2), dtype=complex)
    for sign in (1, -1):
        row = np.all(modes == sign * np.array(e1), axis=1)
        F[row] = [0.5, -0.5j * sign]
    return mode_operator(spec, modes), F


def _axes_on_both_axes_spec():
    """ex4_0_axes with x-modes on both axes: 289 modes in the box 8."""
    spec = _fixture_spec("ex4_0_axes")
    poly = (spec.kernel.poly + TrigPoly.cos_x(2, 2, (1, 0), 0.2)
            + TrigPoly.cos_x(2, 2, (0, 1), 0.2))
    return replace(spec, kernel=PeriodicKernel.trig(poly))


@pytest.mark.parametrize("spec, box, route", [
    (_fixture_spec("ex4_1_centered"), 40, "dense"),
    (_axes_on_both_axes_spec(), 8, "krylov")], ids=["centered", "axes2"])
def test_semigroup_routes_agree(spec, box, route):
    # each case checks the route the rule picks against the other one,
    # stepped here from 0 through the same times
    M, F = _semigroup_case(spec, box)
    assert M.shape[0] == {"dense": 81, "krylov": 289}[route]
    got, took = mode_semigroup(M, F, SEMIGROUP_TIMES)
    assert took == route
    other, G = [], F
    for h in np.diff(SEMIGROUP_TIMES, prepend=0.0):
        G = (expm_multiply(h * M, G) if route == "dense"
             else expm(h * M.toarray()) @ G)
        other.append(G)
    assert np.abs(got - np.array(other)).max() <= 1e-13


def test_dense_semigroup_draws_nothing_from_the_global_generator(
        monkeypatch):
    M, F = _semigroup_case(_fixture_spec("ex4_1_critical"), 16)
    np.random.seed(12345)
    before = np.random.get_state()

    def no_seed(*args):
        raise AssertionError("the dense route seeds no global generator")

    monkeypatch.setattr(np.random, "seed", no_seed)
    assert mode_semigroup(M, F, SEMIGROUP_TIMES)[1] == "dense"
    after = np.random.get_state()
    assert after[0] == before[0] and after[2:] == before[2:]
    assert np.array_equal(after[1], before[1])


def test_measure_bits_do_not_depend_on_blas_threads():
    digests = [fresh_python(_DIGEST_SCRIPT, threads) for threads in (1, 2)]
    assert len(digests[0].split()) == 8
    assert digests[0] == digests[1]


# --------------------------------------------------------------------------
# multipliers and the Poisson solve
# --------------------------------------------------------------------------

def _small_by_quadrature_d1(a0, n, mz):
    # the bracket summed over theta = +-1, with cos a - cos b written as a
    # product of sines so that quad sees no cancellation near r = 0
    def f(r):
        return 2.0 * (-2.0 * np.sin(np.pi * (n + 2 * mz) * r)
                      * np.sin(np.pi * n * r)
                      + _TWO_PI * n * r * np.sin(_TWO_PI * mz * r)) \
            * r ** (-1.0 - a0)
    return quad(f, 0.0, 1.0, limit=400, epsabs=1e-13, epsrel=1e-12)[0]


def _small_by_quadrature_d2(a0, n, mz):
    def inner(r):
        def g(t):
            th = np.array([np.cos(t), np.sin(t)])
            a, b = _TWO_PI * r * (mz @ th), _TWO_PI * r * (n @ th)
            return (np.exp(1j * a) * (np.exp(1j * b) - 1.0 - 1j * b)).real
        return quad(g, 0.0, _TWO_PI, limit=200, epsabs=1e-15)[0] \
            * r ** (-1.0 - a0)
    return quad(inner, 0.0, 1.0, limit=200, epsabs=1e-12, epsrel=1e-10)[0]


@pytest.mark.parametrize("d, a0, n, mz", [
    (1, 0.5, [-7], [1]), (1, 1.2, [3], [1]), (1, 1.2, [41], [0]),
    (2, 1.0, [2, 1], [1, 0]), (2, 0.5, [-3, 2], [0, 1])])
def test_multiplier_matches_quadrature(d, a0, n, mz):
    # small part by direct quadrature; tail by the radial transform per atom
    rho0 = SphericalMeasure.atoms(d, [(np.eye(d)[0], 0.7),
                                      (-np.eye(d)[d - 1], 0.4)])
    spec = make_spec(d=d, alpha=1.5, alpha0=a0, rho0=rho0)
    n, mz = np.array(n, dtype=float), np.array(mz, dtype=float)
    got = generator_multipliers(spec, n[None], mz)[0]

    def F(s):
        return radial_fourier_integral(spec.phi, s, 1.0, np.inf,
                                       weight_fn=lambda r: 1.0 / r)

    want = (_small_by_quadrature_d1(a0, n[0], mz[0]) if d == 1
            else _small_by_quadrature_d2(a0, n, mz))
    want += sum(w * (F(float((n + mz) @ th)) - F(float(mz @ th)))
                for th, w in zip(rho0.thetas, rho0.weights))
    assert got == pytest.approx(want, rel=1e-9)


def test_multiplier_vanishes_at_mode_zero_and_is_hermitian():
    spec = _fixture_spec("ex4_3_mixed")
    modes = np.array([[0], [3], [-3]])
    for mz in [(1,), (-1,), (0,)]:
        m = generator_multipliers(spec, modes, mz)
        assert m[0] == 0.0
        neg = generator_multipliers(spec, modes, tuple(-v for v in mz))
        assert m[1] == pytest.approx(np.conj(neg[2]), rel=1e-14)


def test_poisson_fourier_matches_grid_in_d2(coupled_grid):
    spec, ops = coupled_grid
    gaps = []
    for n, op in ops.items():
        mu = stationary_measure(spec, n)
        x = mu.centers
        g = (np.cos(_TWO_PI * x[:, 0]) + 0.5 * np.sin(_TWO_PI * x[:, 1])
             + 0.3 * np.cos(_TWO_PI * (x[:, 0] + x[:, 1])))
        f = g - mu.weights @ g
        fld = mode_poisson_solver(mu.model, mu)(f)
        grid = solve_poisson(op, f, mean_tol=1e-2)
        gaps.append(np.max(np.abs(fld.values - grid.values))
                    / np.max(np.abs(fld.values)))
        assert abs(fld.mu_mean()) <= 1e-12
    assert fld.residual_rel <= 1e-12
    assert gaps[1] <= 0.05 and gaps[1] < gaps[0]


def test_poisson_fourier_in_d3_matches_multiplier():
    # k = 1 and no drift: the generator is diagonal, so L psi = cos(2 pi x1)
    # has psi = cos(2 pi x1) / m(e1) with m from the multiplier oracle
    atoms = [(s * np.eye(3)[a], 0.5) for a in range(3) for s in (1.0, -1.0)]
    spec = make_spec(d=3, alpha=0.75, alpha0=1.0,
                     rho0=SphericalMeasure.atoms(3, atoms))
    f = lambda pts: np.cos(_TWO_PI * pts[:, 0])
    model = mode_model(spec, seeds=[(1, 0, 0), (-1, 0, 0)])
    fld = mode_poisson_solver(model, TorusMeasure.uniform(3, 8))(f)
    m1 = corrector.fourier_multiplier(spec, [1.0, 0.0, 0.0])
    want = f(fld.grid.centers) / m1.real
    assert abs(m1.imag) <= 1e-12 * abs(m1)
    assert np.max(np.abs(fld.values - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.allclose(fld.mu_weights, 1.0 / 512, rtol=0, atol=1e-18)


def _count_builds(monkeypatch):
    """The mode count of each ``mode_operator`` build from now on: every
    route reaches it through ``corrector.mode_model``."""
    built = []
    build = corrector.mode_operator

    def counted(spec, modes):
        built.append(len(modes))
        return build(spec, modes)

    monkeypatch.setattr(corrector, "mode_operator", counted)
    return built


def test_recentering_corrector_builds_one_mode_operator(monkeypatch):
    # both axes of a d=2 corrector are solved on mu's own mode operator and
    # LU, to the bits of a solver per axis; a measure without a model costs
    # one build
    spec = _coupled_spec_2d()
    mu = stationary_measure(spec, 16)
    rhs = corrector_rhs(spec, mu)[0]
    want = [mode_poisson_solver(mu.model, mu)(rhs[:, a]) for a in range(2)]
    built = _count_builds(monkeypatch)
    psi = solve_recentering_corrector(spec, mu)
    assert built == []
    for got, ref in zip(psi.components, want):
        assert got.residual_rel == ref.residual_rel
        for a, b in ((got.values, ref.values), (got.gradient, ref.gradient),
                     (got.mu_weights, ref.mu_weights)):
            assert a.tobytes() == b.tobytes()
    solve_recentering_corrector(spec, replace(mu, model=None))
    assert built == [len(mu.model.modes)]


@pytest.mark.parametrize("n", [16, 32])
def test_corrector_is_centred_against_mu_on_coarse_grids(n):
    # below 2 mode_box + 2 nodes the grid's Nyquist range cuts f^, but psi
    # is still solved on mu's modes and centred against mu itself
    spec = _fixture_spec("ex4_1_diffusive")
    mu = stationary_measure(spec, n)
    psi = solve_recentering_corrector(spec, mu).components[0]
    assert abs(mu.weights @ psi.values) <= 1e-12
    assert psi.mu_weights.tobytes() == mu.weights.tobytes()


X_DEPENDENT_FIXTURES = ["ex4_1_stable", "ex4_1_cauchy", "ex4_1_centered",
                        "ex4_1_diffusive", "ex4_3_mixed"]


@pytest.mark.parametrize("command, name", [
    *(("effective", name) for name in sorted(FIXTURES)),
    *(("corrector", name) for name in ("ex4_1_diffusive", "ex4_1_cauchy",
                                        "ex4_1_critical"))])
def test_a_command_builds_one_operator_per_mode_set(command, name, tmp_path,
                                                    monkeypatch):
    # mu's model serves the mixing curve, which needs cos and sin 2 pi x1,
    # and the corrector; the x-independent fixtures' mu has mode 0 alone,
    # which computes no multiplier, and their curve a seeded 3-mode model
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dump_config(fixture_config(name)))
    built = _count_builds(monkeypatch)
    assert cli.main([command, str(cfg), "--out", str(tmp_path)]) == 0
    if name in X_DEPENDENT_FIXTURES:
        assert built == [81]
    else:
        assert built == ([1, 3] if command == "effective" else [1])


@pytest.mark.parametrize("name", X_DEPENDENT_FIXTURES)
def test_mixing_reuses_the_measure_model(name, monkeypatch):
    # mu's modes are the seeded walk's, in the same order: the curve is the
    # seeded model's to the bit, with no operator built
    spec = _fixture_spec(name)
    e1 = np.eye(spec.d, dtype=int)[0]
    polys = [TrigPoly.cos_x(spec.d, 0, e1), TrigPoly.sin_x(spec.d, 0, e1)]
    times = np.linspace(0.05, 0.8, 8)
    mu = stationary_measure(spec)
    want = mixing_rate(spec, polys, times, mu=replace(mu, model=None))
    built = _count_builds(monkeypatch)
    got = mixing_rate(spec, polys, times, mu=mu)
    assert built == []
    assert np.array(got.table).tobytes() == np.array(want.table).tobytes()
    assert (got.propagator, got.modes) == (want.propagator, want.modes)


def test_a_measure_round_trips_through_pickle(monkeypatch):
    # the LU does not pickle: loading builds mu's model again, once, and the
    # corrector and the mixing curve read it to the bits of the original
    import pickle
    spec = _fixture_spec("ex4_1_diffusive")
    e1 = np.eye(spec.d, dtype=int)[0]
    polys = [TrigPoly.cos_x(spec.d, 0, e1), TrigPoly.sin_x(spec.d, 0, e1)]
    times = np.linspace(0.05, 0.8, 8)
    mu = stationary_measure(spec)
    blob = pickle.dumps(mu)
    built = _count_builds(monkeypatch)
    loaded = pickle.loads(blob)
    assert built == [len(mu.model.modes)]
    assert loaded.weights.tobytes() == mu.weights.tobytes()
    assert loaded.meta == mu.meta
    for a, b in ((loaded.model.modes, mu.model.modes),
                 (loaded.model.v, mu.model.v)):
        assert a.tobytes() == b.tobytes()
    psi = [solve_recentering_corrector(spec, m).components[0]
           for m in (mu, loaded)]
    for name in ("values", "gradient", "mu_weights"):
        assert getattr(psi[0], name).tobytes() == \
            getattr(psi[1], name).tobytes()
    assert psi[0].residual_rel == psi[1].residual_rel
    mix = [mixing_rate(spec, polys, times, mu=m) for m in (mu, loaded)]
    assert np.array(mix[0].table).tobytes() == np.array(mix[1].table).tobytes()
    assert mix[0] == mix[1]
    assert built == [len(mu.model.modes)]


def test_diffusive_prediction_assembles_no_grid_operator(monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("mu and psi of a trig spec come from the modes")

    monkeypatch.setattr(corrector, "assemble_operator", no_assembly)
    built = _count_builds(monkeypatch)
    spec = _fixture_spec("ex4_1_diffusive")
    law = predicted_limit(spec, stationary_measure(spec))
    assert law.A[0, 0] == pytest.approx(1.735455, abs=1e-6)
    # psi is solved on mu's model: one mode operator in all
    assert built == [81]


def test_grid_covariance_converges_to_the_mode_covariance():
    # ex4_1_diffusive with mu and psi both from the grid operator, against
    # both from the mode operator: the gap is the grid's discretization
    # error, and it falls by at least 1.5 per doubling of n
    spec = _fixture_spec("ex4_1_diffusive")
    gaps = []
    for n in (32, 64, 128):
        op = assemble_operator(spec, n)
        mu = TorusMeasure(op.grid, op.stationary_weights())
        psi = VectorCorrector([solve_poisson(op, corrector_rhs(spec, mu)[0])])
        A_grid = covariance_matrix(spec, mu, psi).A[0, 0]
        mu = stationary_measure(spec, n)
        psi = solve_recentering_corrector(spec, mu)
        assert psi.components[0].method == "fourier"
        gaps.append(abs(A_grid - covariance_matrix(spec, mu, psi).A[0, 0]))
    assert gaps[0] >= 1.5 * gaps[1] and gaps[1] >= 1.5 * gaps[2]


# --------------------------------------------------------------------------
# what a run records about its invariant measure
# --------------------------------------------------------------------------

def test_measure_meta_records_route_residual_and_clipped_mass(coupled_grid):
    spec, ops = coupled_grid
    mus = (stationary_measure(spec, 16), stationary_measure_grid(spec, 8))
    for mu in mus:
        assert mu.meta["route"] in ("fourier_galerkin", "grid_adjoint")
        assert mu.meta["clipped_mass"] >= 0.0
        assert np.isfinite(mu.meta["residual"])
    assert 0.0 <= mus[0].meta["edge_mass"] <= 1e-5
    op = assemble_operator(spec, 8)
    assert op.meta == {}
    op.stationary_weights()
    assert op.meta["clipped_mass"] >= 0.0
    assert np.isfinite(op.meta["residual"]) and op.meta["residual"] < 1e-10


# --------------------------------------------------------------------------
# second moments: mu contracted first
# --------------------------------------------------------------------------

def _second_moment_loop(zq, wq, kern, mu):
    """The per-cell loop the contraction replaced."""
    A = np.zeros((zq.shape[1], zq.shape[1]))
    for xc, mw in zip(mu.centers, mu.weights):
        if mw == 0.0:
            continue
        kv = kern(np.broadcast_to(xc, zq.shape), zq) if kern is not None \
            else 1.0
        A += np.einsum("q,qi,qj->ij", wq * kv * mw, zq, zq)
    return A


@pytest.mark.parametrize("rho0", [
    SphericalMeasure.uniform(2, 1.0, 32),
    SphericalMeasure.atoms(2, [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)])])
@pytest.mark.parametrize("x_dependent", [False, True])
def test_second_moment_contraction_matches_cell_loop(rho0, x_dependent):
    # the acceptance-6 specs, and the same with an x-dependent kernel under
    # a nonuniform measure
    kernel = None
    mu = TorusMeasure.uniform(2, 4)
    if x_dependent:
        kernel = PeriodicKernel.trig(_coupled_spec_2d().kernel.poly)
        w = np.random.default_rng(0).random(64)
        mu = TorusMeasure(TorusGrid(2, 8), w / w.sum())
    spec = make_spec(d=2, alpha=2.0, alpha0=1.0, rho0=rho0, kernel=kernel)
    for eps in (1e-2, 1e-6):
        zq, wq, _ = jump_nodes(spec, 1e-7, 1.0 / eps, 6, 8, 8)
        want = _second_moment_loop(zq, wq, spec.kernel, mu)
        got = corrector._second_moment(zq, wq, spec.kernel, mu)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    cov = critical_covariance(spec, mu)
    assert cov.meta["converged"]
