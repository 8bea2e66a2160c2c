"""Independent oracles for the limit laws, used only by the tests."""

import math

import numpy as np
from scipy.integrate import quad

from levyhom.corrector import assemble_operator
from levyhom.ergodic import TorusMeasure, default_grid_n
from levyhom.pathsim import philox_key


def radial_symbol_quadrature(s, alpha, convention):
    """Oscillatory-quadrature evaluation of the radial symbol (test oracle).

    Splits at r = 1: plain rules handle the integrable singularity, weighted
    cosine/sine rules the oscillatory tail up to r = 1e7, and the
    non-oscillatory tail pieces are integrated in closed form.
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
    re_osc, _ = quad(lambda r: r ** (-1 - alpha), 1.0, 1e7, weight="cos",
                     wvar=w, limit=800)
    im_osc, _ = quad(lambda r: r ** (-1 - alpha), 1.0, 1e7, weight="sin",
                     wvar=w, limit=800)
    if s < 0:
        im_osc = -im_osc
    re = re_in + re_osc - 1.0 / alpha          # subtract the tail mass
    im = im_in + im_osc
    if convention == "full":
        im -= s / (alpha - 1.0)                # compensator tail beyond r = 1
    return complex(re, im)


def exact_symmetric_stable_1d(alpha, scale_exponent, t, n, seed):
    """Chambers-Mallows-Stuck draws of a symmetric 1d stable variable.

    Third-party oracle used only in tests: returns samples with characteristic
    function exp(-t * scale_exponent * |u|^alpha).
    """
    gen = np.random.Generator(np.random.Philox(key=philox_key(seed, 1)))
    u = (gen.random(n) - 0.5) * math.pi
    w = -np.log(gen.random(n))
    x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
         * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))
    return (t * scale_exponent) ** (1.0 / alpha) * x


def stationary_measure_grid(spec, n=None):
    """Invariant measure of the dense grid generator (d <= 2): the left
    null vector of ``assemble_operator``, the oracle of the mode route."""
    n = n or default_grid_n(spec.d)
    op = assemble_operator(spec, n)
    w = op.stationary_weights()
    return TorusMeasure(op.grid, w, {"route": "grid_adjoint", "grid_n": n,
                                     **op.meta})
