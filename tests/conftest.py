"""Shared fixture specs used across the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from levyhom.spec_model import (DriftField, JumpSpec, PeriodicKernel,
                                RadialPerturbation, ScalingFunction,
                                SmallJumpPart, SphericalMeasure)
from levyhom.trigpoly import TrigPoly


def make_spec(d=1, alpha=0.5, alpha0=0.5, kernel=None, drift=None,
              rho0=None, phi=None, kappa=None, small=None):
    kernel = kernel if kernel is not None else PeriodicKernel.trig(
        TrigPoly.const(d, d, 1.0))
    drift = drift if drift is not None else DriftField.zero(d)
    rho0 = rho0 if rho0 is not None else SphericalMeasure.uniform(d, 1.0)
    phi = phi if phi is not None else ScalingFunction.power(alpha)
    kappa = kappa if kappa is not None else RadialPerturbation.none()
    small = small if small is not None else (
        SmallJumpPart.stable_density(alpha0) if alpha0 else SmallJumpPart.zero())
    return JumpSpec(d=d, small=small, rho0=rho0, phi=phi, kappa=kappa,
                    kernel=kernel, drift=drift)


def fresh_python(script, blas_threads=None):
    """stdout of ``script`` in a new interpreter with this checkout's
    sources and ``blas_threads`` BLAS threads (None: the library default)."""
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if blas_threads is not None:
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS"), str(blas_threads)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def constant_spec_1d():
    """k=1, b=0, alpha=0.5, uniform angular mass 1."""
    return make_spec()


@pytest.fixture
def xdep_spec_1d():
    """k(x,z) = 1 + 0.5 cos(2 pi x), z-independent; symmetric jumps."""
    poly = TrigPoly.const(1, 1, 1.0) + TrigPoly.cos_x(1, 1, (1,), 0.5)
    return make_spec(kernel=PeriodicKernel.trig(poly))


@pytest.fixture
def one_sided_spec_1d():
    """Atomic angular measure on +1, k=1, phi = r^1.5."""
    return make_spec(alpha=1.5, rho0=SphericalMeasure.atoms(1, [((1.0,), 1.0)]))
