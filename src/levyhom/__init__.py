"""Levy-type jump processes in periodic media: simulation, effective limits,
correctors, and desk-scale statistical verification of the scaling theorems."""

__version__ = "0.1.0"

from .spec_model import (DriftField, IntegrabilityError, JumpSpec,
                         PeriodicKernel, RadialPerturbation, ScalingFunction,
                         SmallJumpPart, SphericalMeasure, full_drift,
                         scaling_index_probe, truncated_drift, validate)
from .trigpoly import TrigPoly

__all__ = [
    "DriftField", "IntegrabilityError", "JumpSpec", "PeriodicKernel",
    "RadialPerturbation", "ScalingFunction", "SmallJumpPart",
    "SphericalMeasure", "TrigPoly", "full_drift", "scaling_index_probe",
    "truncated_drift", "validate",
]
