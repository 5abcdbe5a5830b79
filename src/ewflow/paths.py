"""Gaussian probability paths and the velocity/score correspondence.

Convention throughout: t = 0 is data, t = 1 is noise. A path is the kernel
N(mu_t * x0, sigma_t^2 I); along it the conditional velocity and conditional
score are related by an affine map whose coefficients depend only on the
schedule, so either parameterization can be converted to the other at any
interior time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

__all__ = [
    "T_EPS",
    "clamp_time",
    "PathSchedule",
    "perturb",
    "cond_score",
    "cond_velocity",
    "velocity_from_score",
    "score_from_velocity",
]

# Interior-time guard: keeps sigma > 0 at the data end and mu > 0 at the
# noise end, so every conversion below is well defined.
T_EPS = 1e-3


def clamp_time(t):
    return np.clip(t, T_EPS, 1.0 - T_EPS)


@dataclass(frozen=True)
class PathSchedule:
    """Schedule (mu_t, sigma_t) with analytic time derivatives.

    kind "ot":  mu = 1 - t, sigma = sigma_min + (1 - sigma_min) t.
    kind "vp":  mu = exp(-B(t)/2) with B the integral of a linear noise rate
                from beta_min to beta_max; sigma = sqrt(1 - mu^2), so
                mu^2 + sigma^2 = 1 identically.
    """

    kind: str
    sigma_min: float = 0.0054
    beta_min: float = 0.1
    beta_max: float = 20.0

    def __post_init__(self):
        if self.kind not in ("ot", "vp"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "ot" and not 0 < self.sigma_min < 1:
            raise ValueError("sigma_min must lie in (0, 1)")
        if self.kind == "vp" and not 0 < self.beta_min < self.beta_max:
            raise ValueError("need 0 < beta_min < beta_max")

    @staticmethod
    def ot(sigma_min: float = 0.0054) -> "PathSchedule":
        return PathSchedule("ot", sigma_min=sigma_min)

    @staticmethod
    def vp(beta_min: float = 0.1, beta_max: float = 20.0) -> "PathSchedule":
        return PathSchedule("vp", beta_min=beta_min, beta_max=beta_max)

    def _rate(self, t):
        return self.beta_min + (self.beta_max - self.beta_min) * t

    def _rate_integral(self, t):
        return self.beta_min * t + 0.5 * (self.beta_max - self.beta_min) * t**2

    def mu(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "ot":
            return 1.0 - t
        return np.exp(-0.5 * self._rate_integral(t))

    def sigma(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "ot":
            return self.sigma_min + (1.0 - self.sigma_min) * t
        return np.sqrt(np.maximum(1.0 - self.mu(t) ** 2, 0.0))

    def dmu(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "ot":
            return -np.ones_like(t)
        return -0.5 * self._rate(t) * self.mu(t)

    def dsigma(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "ot":
            return (1.0 - self.sigma_min) * np.ones_like(t)
        return 0.5 * self._rate(t) * self.mu(t) ** 2 / self.sigma(t)

    def drift_coef(self, t):
        """a(t) = dmu/mu, the linear-in-x part of the marginal velocity."""
        return self.dmu(t) / self.mu(t)

    def score_coef(self, t):
        """c(t) = (dmu*sigma - mu*dsigma) * sigma / mu, the score multiplier."""
        return (self.dmu(t) * self.sigma(t) - self.mu(t) * self.dsigma(t)) * self.sigma(t) / self.mu(t)

    def config(self) -> dict:
        if self.kind == "ot":
            return {"path.kind": "ot", "path.sigma_min": self.sigma_min}
        return {"path.kind": "vp", "path.beta_min": self.beta_min, "path.beta_max": self.beta_max}


def _bcast(coef, x):
    coef = np.asarray(coef, dtype=float)
    if coef.ndim == 1 and np.ndim(x) == 2:
        return coef[:, None]
    return coef


def perturb(sched: PathSchedule, x0: np.ndarray, t, rng: Rng):
    """Draw x_t = mu_t x0 + sigma_t eps with fresh standard-normal eps.

    Returns (x_t, eps); eps is what weighted score losses regress against.
    """
    x0 = np.asarray(x0, dtype=float)
    t = clamp_time(t)
    eps = rng.normal(x0.shape)
    x_t = _bcast(sched.mu(t), x0) * x0 + _bcast(sched.sigma(t), x0) * eps
    return x_t, eps


def cond_score(sched: PathSchedule, x, x0, t):
    """Score of the path kernel: -(x - mu_t x0) / sigma_t^2."""
    t = clamp_time(t)
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    return -(x - _bcast(sched.mu(t), x) * x0) / _bcast(sched.sigma(t), x) ** 2


def cond_velocity(sched: PathSchedule, x, x0, t):
    """Velocity of the per-datum path, via the affine score relation.

    For the ot schedule this reduces to ((1 - sigma_min) x - x0) / sigma_t.
    """
    return velocity_from_score(sched, x, cond_score(sched, x, x0, t), t)


def velocity_from_score(sched: PathSchedule, x, score, t):
    """Marginal velocity from the marginal score at (x, t)."""
    t = clamp_time(t)
    x = np.asarray(x, dtype=float)
    score = np.asarray(score, dtype=float)
    return _bcast(sched.drift_coef(t), x) * x + _bcast(sched.score_coef(t), x) * score


def score_from_velocity(sched: PathSchedule, x, velocity, t):
    """Inverse of velocity_from_score; fails where the score multiplier vanishes."""
    t = clamp_time(t)
    x = np.asarray(x, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    c = np.asarray(sched.score_coef(t), dtype=float)
    if np.any(np.abs(c) < 1e-14):
        bad = np.atleast_1d(np.asarray(t))[np.argmin(np.abs(np.atleast_1d(c)))]
        raise ValueError(f"velocity/score conversion is degenerate at t={float(bad)}")
    return (velocity - _bcast(sched.drift_coef(t), x) * x) / _bcast(c, x)
