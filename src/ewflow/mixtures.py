"""Diagonal-covariance Gaussian mixtures.

Mixtures serve double duty here: they are the synthetic data distributions,
and because a Gaussian perturbation kernel maps a mixture to another mixture
in closed form, they are also their own exact references at every noise
level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

__all__ = [
    "GaussianMixture",
    "gmm_logpdf",
    "gmm_density",
    "gmm_score",
    "gmm_sample",
    "path_marginal",
]


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of axis-aligned Gaussians: weights (K,), means (K,d), variances (K,d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        v = np.atleast_2d(np.asarray(self.variances, dtype=float))
        if w.ndim != 1 or m.shape != v.shape or m.shape[0] != w.shape[0]:
            raise ValueError(
                f"inconsistent mixture shapes: weights {w.shape}, means {m.shape}, vars {v.shape}"
            )
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if np.any(w < 0):
            raise ValueError("mixture weights must be nonnegative")
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise ValueError("all component variances must be strictly positive")
        for name, arr in (("weights", w), ("means", m), ("variances", v)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @staticmethod
    def create(weights, means, variances) -> "GaussianMixture":
        """Build a mixture, normalizing the weights exactly."""
        w = np.asarray(weights, dtype=float)
        return GaussianMixture(w / w.sum(), np.asarray(means, float), np.asarray(variances, float))


def _as_points(gmm: GaussianMixture, x) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != gmm.dim:
        raise ValueError(f"point dim {pts.shape[1]} != mixture dim {gmm.dim}")
    return pts, single


def _component_logpdfs(gmm: GaussianMixture, pts: np.ndarray) -> np.ndarray:
    # (B, K) log of w_k * N(x; m_k, diag v_k)
    diff = pts[:, None, :] - gmm.means[None, :, :]
    quad = (diff**2 / gmm.variances[None]).sum(-1)
    lognorm = -0.5 * np.log(2.0 * np.pi * gmm.variances).sum(-1)
    with np.errstate(divide="ignore"):
        logw = np.log(gmm.weights)
    return logw[None] + lognorm[None] - 0.5 * quad


def gmm_logpdf(gmm: GaussianMixture, x):
    pts, single = _as_points(gmm, x)
    lw = _component_logpdfs(gmm, pts)
    m = lw.max(axis=1, keepdims=True)
    out = m[:, 0] + np.log(np.exp(lw - m).sum(axis=1))
    return out[0] if single else out


def gmm_density(gmm: GaussianMixture, x):
    """Mixture density, vectorized over rows of x."""
    return np.exp(gmm_logpdf(gmm, x))


def gmm_score(gmm: GaussianMixture, x):
    """Gradient of the mixture log-density: responsibility-weighted component scores."""
    pts, single = _as_points(gmm, x)
    lw = _component_logpdfs(gmm, pts)
    m = lw.max(axis=1, keepdims=True)
    r = np.exp(lw - m)
    r /= r.sum(axis=1, keepdims=True)
    comp_score = -(pts[:, None, :] - gmm.means[None]) / gmm.variances[None]
    out = (r[..., None] * comp_score).sum(axis=1)
    return out[0] if single else out


def gmm_sample(gmm: GaussianMixture, rng: Rng, n: int) -> np.ndarray:
    """n i.i.d. draws: categorical component choice, then a diagonal Gaussian."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = rng.categorical(gmm.weights, n)
    eps = rng.normal((n, gmm.dim))
    return gmm.means[idx] + np.sqrt(gmm.variances[idx]) * eps


def path_marginal(gmm: GaussianMixture, sched, t: float) -> GaussianMixture:
    """Marginal of the mixture pushed through the Gaussian path at time t.

    Each component N(m, v) becomes N(mu_t * m, mu_t^2 * v + sigma_t^2).
    """
    mu = float(sched.mu(t))
    sig2 = float(sched.sigma(t)) ** 2
    return GaussianMixture(gmm.weights, mu * gmm.means, mu**2 * gmm.variances + sig2)
