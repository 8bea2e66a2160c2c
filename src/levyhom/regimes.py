"""Scaling regimes: the paper's five cases, read off the tail index alpha.

alpha alone fixes the time scale rho and the recentering average c of the
scaled process Y_t = eps * (X_{rho t} - rho t c):

    alpha    regime            rho                  c
    (0, 1)   stable_no_center  phi(1/eps)           0
    1        cauchy_center     phi(1/eps)           tail truncated at 1/eps
    (1, 2)   stable_center     phi(1/eps)           full tail
    2        critical_log      eps^-2 / |log eps|   full tail
    > 2      diffusive         eps^-2               full tail

Stable limits below alpha = 2, Brownian ones from 2 on; 1 and 2 match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

STABLE_NO_CENTER = "stable_no_center"
CAUCHY_CENTER = "cauchy_center"
STABLE_CENTER = "stable_center"
CRITICAL_LOG = "critical_log"
DIFFUSIVE = "diffusive"


@dataclass
class EffectiveDrifts:
    """Invariant-measure averages of the drift fields."""
    b_bar: np.ndarray
    b_inf_bar: Optional[np.ndarray] = None
    b_trunc_bar: Optional[Callable[[float], np.ndarray]] = None


class RegimeError(ValueError):
    pass


@dataclass(frozen=True)
class Regime:
    name: str

    @classmethod
    def of(cls, alpha):
        """The case of the tail index alpha."""
        if alpha < 1:
            return cls(STABLE_NO_CENTER)
        if alpha == 1:
            return cls(CAUCHY_CENTER)
        if alpha < 2:
            return cls(STABLE_CENTER)
        return cls(CRITICAL_LOG if alpha == 2 else DIFFUSIVE)

    def time_scale(self, spec, eps):
        """rho(1/eps): unscaled horizon per unit of scaled time."""
        if self.name == DIFFUSIVE:
            return eps ** -2
        if self.name == CRITICAL_LOG:
            return eps ** -2 / abs(math.log(eps))
        return float(spec.phi(1.0 / eps))

    def needs_centering(self):
        return self.name != STABLE_NO_CENTER

    def centering_average(self, drifts: EffectiveDrifts, eps, d):
        """The average c subtracted at rate rho: 0, b̄_{1/eps}+b̄, or b̄_inf+b̄."""
        if self.name == STABLE_NO_CENTER:
            return np.zeros(d)
        if self.name == CAUCHY_CENTER:
            if drifts is None or drifts.b_trunc_bar is None:
                raise RegimeError("regime needs the truncated drift average "
                                  "at radius 1/eps")
            return np.asarray(drifts.b_trunc_bar(1.0 / eps)) + drifts.b_bar
        if drifts is None or drifts.b_inf_bar is None:
            raise RegimeError(f"regime {self.name!r} needs the full tail "
                              "drift average")
        return np.asarray(drifts.b_inf_bar) + drifts.b_bar
