"""Exact references for energy-guided generation.

For a base density p0, an energy E with scale beta, and a Gaussian path, the
guided marginals q_t, the time-dependent energy

    E_t(x) = -log E_{x0 | x}[exp(-beta E(x0))],

the guided velocity field, and the guided score all have either closed forms
(mixture base + linear/quadratic energy) or midpoint-quadrature forms on a
node set.  Both routes are exposed so each can check the other.

The guided velocity is the posterior average of per-datum velocities with
Boltzmann reweighting:

    u_hat_t(x) = E_{x0 | x}[ u_t(x | x0) * exp(-beta E(x0)) ] / exp(-E_t(x)),

and the guided score has the same form with conditional scores in place of
velocities.  Guidance built from a classifier probability p(c|x) = exp(-E)
admits two inequivalent score compositions: exponent-inside (exact) and
exponent-outside (what affine score mixing produces); both are provided.
"""

from __future__ import annotations

import numpy as np

from .energies import EnergySpec, tilt_mixture
from .grids import DensityGrid, mixture_bounds
from .mixtures import GaussianMixture, gmm_logpdf, gmm_score, path_marginal
from .paths import PathSchedule, clamp_time, velocity_from_score

__all__ = ["GuidedOracle"]

_CHUNK = 4096


def _logsumexp(a: np.ndarray, axis: int = -1):
    top = a.max(axis=axis, keepdims=True)
    out = top[..., 0] + np.log(np.exp(a - top).sum(axis=axis))
    return out


class GuidedOracle:
    """Exact guided marginals, fields, and scores for one (p0, E, path) triple.

    base may be a GaussianMixture or a normalized DensityGrid.  Quadrature
    uses the base's own nodes (mixture bases get a midpoint grid over their
    padded bounding box).  Computed q_t grids are cached per time.
    """

    def __init__(
        self,
        base,
        energy: EnergySpec,
        sched: PathSchedule,
        grid_res: int = 256,
        pad_sigmas: float = 4.0,
        bounds=None,
    ):
        self.base = base
        self.energy = energy
        self.sched = sched
        self.grid_res = grid_res
        self._qt_cache: dict[tuple[float, float], DensityGrid] = {}

        if isinstance(base, GaussianMixture):
            self.analytic = energy.has_closed_tilt()
            self.dim = base.dim
            self.bounds = bounds
            if self.dim == 2 and bounds is None:
                self.bounds = mixture_bounds(base, pad_sigmas)
        elif isinstance(base, DensityGrid):
            if not base.is_normalized():
                raise ValueError("grid base must be normalized")
            self.analytic = False
            self.dim = 2
            self.bounds = ((base.x_min, base.x_max), (base.y_min, base.y_max))
        else:
            raise TypeError(f"unsupported base {type(base).__name__}")

        self._nodes = None
        self._log_mass = None
        self._node_energy = None
        self._node_area = None
        if self.analytic:
            self._tilted, self._log_z = tilt_mixture(base, energy)
        else:
            self._tilted = None
            self._log_z = None

    # ------------------------------------------------------------------ nodes

    def _ensure_nodes(self):
        if self._nodes is not None:
            return
        if isinstance(self.base, DensityGrid):
            self._nodes = self.base.centers()
            self._log_mass = np.log(np.maximum(self.base.masses().ravel(), 1e-300))
            self._node_area = self.base.cell_area
        elif self.dim == 2:
            grid = DensityGrid.from_mixture(self.base, self.grid_res, bounds=self.bounds)
            self._nodes = grid.centers()
            self._log_mass = np.log(np.maximum(grid.masses().ravel(), 1e-300))
            self._node_area = grid.cell_area
        elif self.dim == 1:
            lo = float(self.base.means.min() - 8.0 * np.sqrt(self.base.variances.max()))
            hi = float(self.base.means.max() + 8.0 * np.sqrt(self.base.variances.max()))
            n = self.grid_res * self.grid_res  # match 2D node budget in 1D
            h = (hi - lo) / n
            centers = (lo + h * (np.arange(n) + 0.5))[:, None]
            dens = np.exp(gmm_logpdf(self.base, centers))
            self._nodes = centers
            self._log_mass = np.log(np.maximum(dens * h / (dens * h).sum(), 1e-300))
            self._node_area = h
        else:
            raise ValueError("quadrature nodes are only built for 1D or 2D bases")
        e = np.asarray(self.energy(self._nodes), dtype=float)
        if not np.all(np.isfinite(e)):
            raise ValueError("energy is not finite on the quadrature nodes")
        self._node_energy = e

    def _log_kernel(self, x: np.ndarray, t: float) -> np.ndarray:
        """(B, N) log N(x; mu_t x0_n, sigma_t^2 I) against all nodes."""
        mu = float(self.sched.mu(t))
        sig2 = float(self.sched.sigma(t)) ** 2
        d = self.dim
        sq = (
            (x**2).sum(-1)[:, None]
            - 2.0 * mu * (x @ self._nodes.T)
            + mu**2 * (self._nodes**2).sum(-1)[None, :]
        )
        return -0.5 * sq / sig2 - 0.5 * d * np.log(2.0 * np.pi * sig2)

    # -------------------------------------------------------------- constants

    def log_z(self) -> float:
        """log E_{p0}[exp(-beta E)]; constant in both x and t."""
        if self.analytic:
            return self._log_z
        self._ensure_nodes()
        lw = self._log_mass - self.energy.beta * self._node_energy
        return float(_logsumexp(lw[None])[0])

    def tilted_base(self) -> GaussianMixture:
        if not self.analytic:
            raise ValueError("tilted base mixture requires a closed-form energy")
        return self._tilted

    # -------------------------------------------------- densities and energies

    def marginal_logdensity(self, x, t: float, route: str = "auto"):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        if self._use_analytic(route):
            return gmm_logpdf(path_marginal(self.base, self.sched, t), x)
        self._ensure_nodes()
        out = np.empty(len(x))
        for sl in _chunks(len(x)):
            out[sl] = _logsumexp(self._log_kernel(x[sl], t) + self._log_mass[None])
        return out

    def marginal_score(self, x, t: float, route: str = "auto"):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        if self._use_analytic(route):
            return gmm_score(path_marginal(self.base, self.sched, t), x)
        return self._weighted_cond_score(x, t, beta=0.0)

    def intermediate_energy(self, x, t: float, beta: float | None = None, route: str = "auto"):
        """E_t(x) = -log E_{x0|x}[exp(-beta E(x0))]; tends to -log Z as t -> 1."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        b = self.energy.beta if beta is None else float(beta)
        if b == 0.0:
            return np.zeros(len(x))
        if self._use_analytic(route):
            tilted, log_z = tilt_mixture(self.base, self.energy, b)
            log_q = gmm_logpdf(path_marginal(tilted, self.sched, t), x) + log_z
            log_p = gmm_logpdf(path_marginal(self.base, self.sched, t), x)
            return log_p - log_q
        self._ensure_nodes()
        out = np.empty(len(x))
        for sl in _chunks(len(x)):
            lk = self._log_kernel(x[sl], t) + self._log_mass[None]
            num = _logsumexp(lk - b * self._node_energy[None])
            den = _logsumexp(lk)
            if not np.all(np.isfinite(num)):
                raise FloatingPointError(
                    "all quadrature terms underflowed while evaluating the intermediate energy"
                )
            out[sl] = -(num - den)
        return out

    # --------------------------------------------------------- guided fields

    def guided_score(self, x, t: float, beta: float | None = None, route: str = "auto"):
        """Score of the guided marginal q_t at (x, t)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        b = self.energy.beta if beta is None else float(beta)
        if self._use_analytic(route):
            tilted, _ = tilt_mixture(self.base, self.energy, b)
            return gmm_score(path_marginal(tilted, self.sched, t), x)
        return self._weighted_cond_score(x, t, b)

    def guided_velocity(self, x, t: float, beta: float | None = None, route: str = "auto"):
        """Velocity field generating q_t.

        The quadrature route evaluates the Boltzmann-weighted posterior
        average of per-datum velocities directly; the analytic route converts
        the guided score, so the two are independent checks of each other.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        b = self.energy.beta if beta is None else float(beta)
        if self._use_analytic(route):
            return velocity_from_score(self.sched, x, self.guided_score(x, t, b, "analytic"), t)
        self._ensure_nodes()
        mu = float(self.sched.mu(t))
        a_coef = float(self.sched.drift_coef(t))
        c_coef = float(self.sched.score_coef(t))
        sig2 = float(self.sched.sigma(t)) ** 2
        out = np.empty_like(x)
        for sl in _chunks(len(x)):
            w = self._posterior_weights(x[sl], t, b)
            # u_t(x|x0_n) = a x + c * (-(x - mu x0_n)/sigma^2), averaged over nodes
            mean_x0 = w @ self._nodes
            cond = -(x[sl] - mu * mean_x0) / sig2
            out[sl] = a_coef * x[sl] + c_coef * cond
        return out

    def _posterior_weights(self, x: np.ndarray, t: float, beta: float) -> np.ndarray:
        lk = self._log_kernel(x, t) + self._log_mass[None] - beta * self._node_energy[None]
        top = lk.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(top)):
            raise FloatingPointError("posterior weights underflowed at every node")
        w = np.exp(lk - top)
        return w / w.sum(axis=1, keepdims=True)

    def _weighted_cond_score(self, x: np.ndarray, t: float, beta: float) -> np.ndarray:
        self._ensure_nodes()
        mu = float(self.sched.mu(t))
        sig2 = float(self.sched.sigma(t)) ** 2
        out = np.empty_like(x)
        for sl in _chunks(len(x)):
            w = self._posterior_weights(x[sl], t, beta)
            out[sl] = -(x[sl] - mu * (w @ self._nodes)) / sig2
        return out

    # ---------------------------------------------- classifier-style guidance

    def cep_score_exact(self, x, t: float, beta: float | None = None, route: str = "auto"):
        """Exponent-inside composition: grad log p_t + grad log E[p(c|x0)^beta].

        Equals the guided score of q proportional to p * exp(-beta E).
        """
        self._require_classifier()
        return self.guided_score(x, t, beta=beta, route=route)

    def cfg_score_exact(self, x, t: float, beta: float | None = None, route: str = "auto"):
        """Exponent-outside composition: grad log p_t + beta * grad log E[p(c|x0)].

        This is what affine mixing of conditional and unconditional scores
        produces; it matches cep_score_exact only at beta = 1.
        """
        self._require_classifier()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        b = self.energy.beta if beta is None else float(beta)
        s_p = self.marginal_score(x, t, route=route)
        s_q1 = self.guided_score(x, t, beta=1.0, route=route)
        return s_p + b * (s_q1 - s_p)

    def _require_classifier(self):
        if not self.energy.classifier:
            raise ValueError(
                "classifier-guidance comparison requires a classifier energy "
                "(E = -log p(c|x), nonnegative)"
            )

    # ------------------------------------------------------------------ grids

    def guided_q0_grid(self, resolution: int | None = None) -> DensityGrid:
        return self.guided_qt_grid(0.0, resolution=resolution)

    def guided_qt_grid(
        self, t: float, resolution: int | None = None, route: str = "auto"
    ) -> DensityGrid:
        """Normalized grid of q_t; t <= 0 means the data-end distribution q_0.

        route "convolve" pushes the q_0 node masses through the path kernel
        instead of using q_t = p_t exp(-E_t) / Z; the two must agree.
        """
        if self.dim != 2:
            raise ValueError("density grids are 2D only")
        res = resolution or self.grid_res
        key = (round(float(t), 12), res, route if route != "auto" else "a" if self.analytic else "q")
        if key in self._qt_cache:
            return self._qt_cache[key]
        at_data_end = t <= 0.0
        if route == "convolve":
            grid = self._qt_by_convolution(t, res)
        elif self._use_analytic(route):
            tilted = self._tilted if at_data_end else path_marginal(self._tilted, self.sched, float(clamp_time(t)))
            grid = DensityGrid.from_fn(
                lambda p: np.exp(gmm_logpdf(tilted, p)), self.bounds, res
            )
        else:
            grid = self._qt_by_reweighting(t, res)
        self._qt_cache[key] = grid
        return grid

    def _qt_by_reweighting(self, t: float, res: int) -> DensityGrid:
        self._ensure_nodes()
        b = self.energy.beta
        if t <= 0.0:
            if isinstance(self.base, DensityGrid):
                vals = self.base.values * np.exp(
                    -b * self._node_energy.reshape(self.base.values.shape)
                )
                return DensityGrid(
                    self.base.x_min, self.base.x_max, self.base.y_min, self.base.y_max, vals
                ).normalized()
            grid = DensityGrid.from_mixture(self.base, res, bounds=self.bounds)
            e = np.asarray(self.energy(grid.centers()), dtype=float).reshape(grid.values.shape)
            return DensityGrid(
                grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.values * np.exp(-b * e)
            ).normalized()
        tq = float(clamp_time(t))
        ref = self._reference_grid(res)
        pts = ref.centers()
        log_p = self.marginal_logdensity(pts, tq, route="quad")
        e_t = self.intermediate_energy(pts, tq, route="quad")
        vals = np.exp(log_p - e_t - self.log_z()).reshape(res, res)
        return DensityGrid(ref.x_min, ref.x_max, ref.y_min, ref.y_max, vals).normalized()

    def _qt_by_convolution(self, t: float, res: int) -> DensityGrid:
        q0 = self.guided_qt_grid(0.0, resolution=res)
        if t <= 0.0:
            return q0
        tq = float(clamp_time(t))
        mu = float(self.sched.mu(tq))
        sig2 = float(self.sched.sigma(tq)) ** 2
        src = q0.centers()
        mass = q0.masses().ravel()
        out = self._reference_grid(res)
        pts = out.centers()
        vals = np.zeros(len(pts))
        for sl in _chunks(len(pts)):
            sq = (
                (pts[sl] ** 2).sum(-1)[:, None]
                - 2.0 * mu * (pts[sl] @ src.T)
                + mu**2 * (src**2).sum(-1)[None, :]
            )
            kern = np.exp(-0.5 * sq / sig2) / (2.0 * np.pi * sig2)
            vals[sl] = kern @ mass
        return DensityGrid(out.x_min, out.x_max, out.y_min, out.y_max, vals.reshape(res, res)).normalized()

    def _reference_grid(self, res: int) -> DensityGrid:
        (x0, x1), (y0, y1) = self.bounds
        return DensityGrid(x0, x1, y0, y1, np.full((res, res), 1.0 / ((x1 - x0) * (y1 - y0))))

    # ------------------------------------------------------------- diagnostics

    def continuity_residual(
        self, t: float, resolution: int = 512, dt: float = 1e-3, velocity=None
    ) -> float:
        """Integral of |d/dt q_t + div(q_t u_t)| over the grid.

        Time derivative by central difference, divergence by second-order
        central differences on the cell-center lattice.  u_t is the guided
        velocity unless a velocity callable (pts, t) -> u is given.
        """
        if self.dim != 2:
            raise ValueError("continuity residual is a 2D grid check")
        res = resolution
        ref = self._reference_grid(res)
        pts = ref.centers()
        hx = (ref.x_max - ref.x_min) / res
        hy = (ref.y_max - ref.y_min) / res
        t = float(clamp_time(t))
        route = "analytic" if self.analytic else "quad"
        q_plus = self._qt_values(pts, t + dt, route)
        q_minus = self._qt_values(pts, t - dt, route)
        dq_dt = (q_plus - q_minus) / (2.0 * dt)
        q = self._qt_values(pts, t, route)
        u = self.guided_velocity(pts, t, route=route) if velocity is None else velocity(pts, t)
        fx = (q * u[:, 0]).reshape(res, res)
        fy = (q * u[:, 1]).reshape(res, res)
        # values are laid out with y varying along axis 0
        div = np.gradient(fy, hy, axis=0) + np.gradient(fx, hx, axis=1)
        resid = dq_dt.reshape(res, res) + div
        return float(np.abs(resid).sum() * hx * hy)

    def _qt_values(self, pts: np.ndarray, t: float, route: str) -> np.ndarray:
        t = float(clamp_time(t))
        if route == "analytic":
            return np.exp(gmm_logpdf(path_marginal(self._tilted, self.sched, t), pts))
        log_p = self.marginal_logdensity(pts, t, route="quad")
        e_t = self.intermediate_energy(pts, t, route="quad")
        return np.exp(log_p - e_t - self.log_z())

    def _use_analytic(self, route: str) -> bool:
        if route == "auto":
            return self.analytic
        if route == "analytic":
            if not self.analytic:
                raise ValueError("no analytic route for this base/energy combination")
            return True
        if route == "quad":
            return False
        raise ValueError(f"unknown route {route!r}")


def _chunks(n: int, size: int = _CHUNK):
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))
