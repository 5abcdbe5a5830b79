"""Energy functions and their closed-form interaction with Gaussian mixtures.

An energy E with scale beta defines the reweighted target
q(x) = p(x) exp(-beta E(x)) / Z.  For linear and diagonal-quadratic energies
the reweighting of a diagonal Gaussian mixture is again a mixture, which is
what makes every guided quantity in this package exactly checkable.

Classifier-style energies are those interpreted as E = -log p(c|x); they must
be nonnegative (shift-normalized) so that p(c|x) = exp(-E) is a probability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import DensityGrid
from .mixtures import GaussianMixture

__all__ = ["EnergySpec", "tilt_mixture"]


@dataclass(frozen=True)
class EnergySpec:
    """An energy function E(x) together with its guidance scale beta.

    kinds:
      "linear":     E(x) = a . x
      "quadratic":  E(x) = 0.5 * sum_d diag_d * (x_d - center_d)^2
      "grid":       E tabulated on a 2D grid, bilinear between nodes
    shift is subtracted from the raw energy; classifier=True asserts the
    shifted energy is nonnegative so exp(-E) is a valid class probability.
    """

    kind: str
    beta: float
    a: np.ndarray | None = None
    diag: np.ndarray | None = None
    center: np.ndarray | None = None
    table: DensityGrid | None = None
    shift: float = 0.0
    classifier: bool = False

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic", "grid"):
            raise ValueError(f"unknown energy kind {self.kind!r}")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.kind == "linear":
            if self.a is None:
                raise ValueError("linear energy needs coefficient vector a")
            object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
            if self.classifier:
                raise ValueError(
                    "a linear energy is unbounded below and cannot be shift-normalized "
                    "into a classifier energy"
                )
        elif self.kind == "quadratic":
            if self.diag is None:
                raise ValueError("quadratic energy needs diagonal coefficients")
            diag = np.asarray(self.diag, dtype=float)
            center = (
                np.zeros_like(diag) if self.center is None else np.asarray(self.center, dtype=float)
            )
            if center.shape != diag.shape:
                raise ValueError("center and diag must have the same shape")
            object.__setattr__(self, "diag", diag)
            object.__setattr__(self, "center", center)
            if self.classifier and np.any(diag < 0):
                raise ValueError("classifier quadratic energy needs nonnegative curvature")
        else:
            if self.table is None:
                raise ValueError("grid energy needs a table")

    @staticmethod
    def linear(a, beta: float) -> "EnergySpec":
        return EnergySpec("linear", beta, a=a)

    @staticmethod
    def quadratic(diag, beta: float, center=None, classifier: bool = False) -> "EnergySpec":
        return EnergySpec("quadratic", beta, diag=diag, center=center, classifier=classifier)

    @staticmethod
    def from_table(table: DensityGrid, beta: float, classifier: bool = False) -> "EnergySpec":
        """Tabulated energy; classifier tables are shifted so min E = 0."""
        shift = float(table.values.min()) if classifier else 0.0
        return EnergySpec("grid", beta, table=table, shift=shift, classifier=classifier)

    @property
    def dim(self) -> int:
        return 2 if self.kind == "grid" else len(self.a if self.kind == "linear" else self.diag)

    def __call__(self, x) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"a {self.dim}-D energy cannot score {pts.shape[1]}-D points")
        if self.kind == "linear":
            raw = pts @ self.a
        elif self.kind == "quadratic":
            raw = 0.5 * ((pts - self.center[None]) ** 2 * self.diag[None]).sum(-1)
        else:
            raw = _bilinear(self.table, pts)
        out = raw - self.shift
        if np.ndim(x) == 1:
            return float(out[0])
        return out

    def prob_c(self, x) -> np.ndarray:
        """p(c|x) = exp(-E(x)), clamped to [1e-12, 1]; classifier energies only."""
        if not self.classifier:
            raise ValueError("prob_c requires a classifier energy (E = -log p(c|x))")
        return np.clip(np.exp(-np.asarray(self(x))), 1e-12, 1.0)

    def with_beta(self, beta: float) -> "EnergySpec":
        return replace(self, beta=float(beta))

    def has_closed_tilt(self) -> bool:
        return self.kind in ("linear", "quadratic")


def _bilinear(table: DensityGrid, pts: np.ndarray) -> np.ndarray:
    xs, ys = table.xs, table.ys
    fx = np.clip((pts[:, 0] - xs[0]) / (xs[1] - xs[0]), 0, table.nx - 1 - 1e-9)
    fy = np.clip((pts[:, 1] - ys[0]) / (ys[1] - ys[0]), 0, table.ny - 1 - 1e-9)
    ix, iy = fx.astype(int), fy.astype(int)
    tx, ty = fx - ix, fy - iy
    v = table.values
    return (
        v[iy, ix] * (1 - tx) * (1 - ty)
        + v[iy, ix + 1] * tx * (1 - ty)
        + v[iy + 1, ix] * (1 - tx) * ty
        + v[iy + 1, ix + 1] * tx * ty
    )


def tilt_mixture(
    gmm: GaussianMixture, energy: EnergySpec, beta: float | None = None
) -> tuple[GaussianMixture, float]:
    """Closed-form reweighting of a mixture by exp(-beta E).

    Returns the normalized tilted mixture and log Z, where
    Z = E_{x ~ gmm}[exp(-beta E(x))].  Componentwise, a linear tilt shifts
    means; a quadratic tilt also sharpens variances.  Raises if the tilt
    makes any component's precision nonpositive (divergent Z).
    """
    if not energy.has_closed_tilt():
        raise ValueError(f"no closed-form tilt for energy kind {energy.kind!r}")
    if energy.dim != gmm.dim:
        raise ValueError(f"a {energy.dim}-D energy cannot tilt a {gmm.dim}-D mixture")
    b = energy.beta if beta is None else float(beta)
    if b == 0.0:
        return gmm, 0.0
    m, v, w = gmm.means, gmm.variances, gmm.weights
    if energy.kind == "linear":
        new_m = m - b * v * energy.a[None]
        new_v = v
        log_mult = (-b * (m @ energy.a)) + 0.5 * b**2 * (v @ (energy.a**2))
    else:
        lam = 1.0 / v + b * energy.diag[None]
        if np.any(lam <= 0):
            raise ValueError(
                "tilted precision is nonpositive: exp(-beta E) grows faster than the "
                "mixture decays, so the normalization integral diverges"
            )
        new_v = 1.0 / lam
        new_m = (m / v + b * energy.diag[None] * energy.center[None]) / lam
        log_mult = 0.5 * (
            np.log(new_v / v) - m**2 / v - b * energy.diag[None] * energy.center[None] ** 2
            + new_m**2 * lam
        ).sum(-1)
    log_mult = log_mult + b * energy.shift
    with np.errstate(divide="ignore"):
        lw = np.log(w) + log_mult
    top = lw.max()
    log_z = top + np.log(np.exp(lw - top).sum())
    return GaussianMixture(np.exp(lw - log_z), new_m, new_v), float(log_z)

