"""Exact references for energy-guided generation.

For a base density p0, an energy E with scale beta, and a Gaussian path, the
guided marginals q_t, the time-dependent energy

    E_t(x) = -log E_{x0 | x}[exp(-beta E(x0))],

the guided velocity field, and the guided score each have two routes: closed
forms by mixture algebra (mixture base + linear/quadratic energy), and
midpoint quadrature over one node set (grids.quadrature_nodes, 8 sigma past
the base's means).  The two routes share no arithmetic, so each checks the other.

On the quadrature route one Gaussian kernel K_t(x, x0) = N(x; mu_t x0,
sigma_t^2 I) is evaluated against the nodes and reduced to the posterior of
x0 given x_t = x under the node weights m_n exp(-beta E_n):

    log p_t(x) = log sum_n m_n K_t(x, x0_n)
    log q_t(x) = log sum_n m_n exp(-beta E_n) K_t(x, x0_n) - log Z
    E_t(x)     = log p_t(x) - log q_t(x) - log Z

and the guided score is -(x - mu_t E_q[x0 | x]) / sigma_t^2, the posterior
average of per-datum scores.  The guided velocity is that score mapped by
paths.velocity_from_score on both routes.

The kernel is isotropic and every node set is a tensor grid (axes xs, ys),
so K_t factors into per-axis kernels kx (B, nx) and ky (B, ny), each scaled
to a row maximum of 1, and the node sum is one matmul against the (ny, nx)
weight grid W = exp(c - max c), c = log m - beta E:

    S = rowsum((ky @ W) * kx)

costing nx + ny exps per query row instead of nx * ny; first moments weight
kx by xs, or ky by ys, in the same sums.  When the query set is the 2D node
grid itself (node_logdensity_and_score, for the exact marginal losses), the
sums at every node are matrix products, S = Ky W Kx^T and its two first
moments, from one (n, n) kernel per axis instead of one kernel row per node;
a 1D node set is a single line with nothing to factor and takes the
per-point route.  A term below the smallest normal double may underflow, so
a row (or node) whose S is not above N * tiny / eps (N nodes) is recomputed
by the log-domain reduction of the joint kernel, which also raises a
FloatingPointError naming t, beta and the rows when the kernel underflows at
every node.

Guidance built from a classifier probability p(c|x) = exp(-E) admits two
inequivalent score compositions: exponent-inside (exact) and exponent-outside
(what affine score mixing produces); both are provided.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .energies import EnergySpec, tilt_mixture
from .grids import DensityGrid, QuadratureNodes, mixture_bounds, node_blocks, quadrature_nodes
from .mixtures import GaussianMixture, gmm_logpdf, gmm_score, path_marginal
from .paths import T_EPS, PathSchedule, clamp_time, velocity_from_score

__all__ = ["GuidedOracle"]


class GuidedOracle:
    """Exact guided marginals, fields, and scores for one (p0, E, path) triple.

    base is a GaussianMixture.  The quadrature route uses the node set
    `nodes` on the base's 8-sigma box, built on first use.  The grids of
    guided_q0_grid and continuity_residual lie on `bounds`, its 4-sigma box.
    """

    def __init__(
        self,
        base: GaussianMixture,
        energy: EnergySpec,
        sched: PathSchedule,
        grid_res: int = 256,
    ):
        if not isinstance(base, GaussianMixture):
            raise TypeError(f"unsupported base {type(base).__name__}")
        self.base = base
        self.energy = energy
        self.sched = sched
        self.grid_res = grid_res
        self.analytic = energy.has_closed_tilt()
        self.dim = base.dim
        self.bounds = mixture_bounds(base) if self.dim == 2 else None
        if self.analytic:
            self._tilted, self._log_z = tilt_mixture(base, energy)
        else:
            self._tilted = None
            self._log_z = None

    @cached_property
    def nodes(self) -> QuadratureNodes:
        """The quadrature node set of the base, with the energy on it."""
        return quadrature_nodes(self.base, self.energy, self.grid_res)

    # ------------------------------------------------------------- quadrature

    def _axis_log_kernels(self, qs, t: float, axes) -> list:
        """Per-axis log N(q; mu_t g, sigma_t^2) of the query coordinates q in
        qs against each coordinate array g of axes, one (len(q), len(g))
        block per axis: the columns of the query points (x.T) on the point
        route, the node axes themselves on the node route.

        The joint log kernel against the tensor grid of axes is their
        broadcast sum (_joint_log_kernel).  Each is a direct difference: the
        expanded square |x|^2 - 2 mu x.g + mu^2 |g|^2 loses digits to
        cancellation at small sigma_t.
        """
        mu = float(self.sched.mu(t))
        sig2 = float(self.sched.sigma(t)) ** 2
        out = []
        for q, g in zip(qs, axes):
            lk = q[:, None] - mu * g
            np.square(lk, out=lk)
            lk *= -0.5 / sig2
            lk -= 0.5 * np.log(2.0 * np.pi * sig2)
            out.append(lk)
        return out

    def _posterior(self, x: np.ndarray, t: float, beta: float, mean=False, prior=False):
        """Posterior of x0 given x_t = x under node weights m_n exp(-beta E_n).

        Returns (log_norm, post_mean, log_p): the log-normaliser
        log sum_n m_n exp(-beta E_n) K_t(x, x0_n); with mean, the posterior
        mean of x0; with prior, the beta = 0 log-normaliser log p_t(x) from
        the same kernel factors.  Each block of rows (grids.node_blocks)
        evaluates the per-axis kernels once; the sums are factored over the
        tensor grid (_factored_sums), and a row whose sum is not above
        _UNDERFLOW_FLOOR per node is redone by the log-domain joint reduction.
        """
        nodes = self.nodes
        floor = len(nodes.points) * _UNDERFLOW_FLOOR
        tilts = [  # (beta, mean?, log weights, their max, scaled weight grid, output)
            (b, want_mean, *self._weight_grid(b), np.empty(len(x)))
            for b, want_mean in ([(0.0, False)] if prior else []) + [(beta, mean)]
        ]
        post_mean = np.empty_like(x) if mean else None
        for sl in node_blocks(len(x), len(nodes.points)):
            lks = self._axis_log_kernels(x[sl].T, t, nodes.axes)
            peaks = [lk.max(axis=1, keepdims=True) for lk in lks]
            # a row whose kernel is -inf at every node yields nan here and is
            # left to the log-domain reduction, which names it
            with np.errstate(invalid="ignore", divide="ignore"):
                ks = [np.exp(lk - peak) for lk, peak in zip(lks, peaks)]
                shift = sum(peak[:, 0] for peak in peaks)
                for b, want_mean, log_w, top, w, log_norm in tilts:
                    s, moments = _factored_sums(ks, w, nodes.axes, want_mean)
                    log_norm[sl] = np.log(s) + shift + top
                    if want_mean:
                        post_mean[sl] = moments / s[:, None]
                    bad = np.flatnonzero(~(s > floor))
                    if len(bad) == 0:
                        continue
                    rows = sl.start + bad
                    joint = _joint_log_kernel([lk[bad] for lk in lks]) + log_w
                    log_norm[rows], m = _reduce(joint, t, b, sl, rows, nodes.points if want_mean else None)
                    if want_mean:
                        post_mean[rows] = m
        return tilts[-1][-1], post_mean, tilts[0][-1] if prior else None

    def _weight_grid(self, beta: float):
        """(log w, max log w, W): the node log weights log m - beta E, their
        maximum, and W = exp(log w - max) as the (ny, nx) grid, or the line
        in 1D."""
        nodes = self.nodes
        log_w = nodes.log_mass - beta * nodes.energy if beta else nodes.log_mass
        top = float(log_w.max())
        return log_w, top, np.exp(log_w - top).reshape([len(g) for g in reversed(nodes.axes)])

    def _score_from_mean(self, x: np.ndarray, t: float, post_mean: np.ndarray) -> np.ndarray:
        """Posterior average of per-datum scores -(x - mu_t x0) / sigma_t^2."""
        mu = float(self.sched.mu(t))
        sig2 = float(self.sched.sigma(t)) ** 2
        return -(x - mu * post_mean) / sig2

    # -------------------------------------------------------------- constants

    def log_z(self) -> float:
        """log E_{p0}[exp(-beta E)]; constant in both x and t."""
        if self.analytic:
            return self._log_z
        return self.nodes.log_z

    # -------------------------------------------------- densities and energies

    def marginal_logdensity(self, x, t: float, route: str = "auto"):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        if self._use_analytic(route):
            return gmm_logpdf(path_marginal(self.base, self.sched, t), x)
        return self._posterior(x, t, 0.0)[0]

    def guided_logdensity(self, x, t: float, route: str = "auto"):
        """log q_t(x).  The quadrature route normalizes by the node set's own
        log Z, so q_t integrates to one over the same nodes at every t."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        if self._use_analytic(route):
            return gmm_logpdf(path_marginal(self._tilted, self.sched, t), x)
        return self._posterior(x, t, self.energy.beta)[0] - self.nodes.log_z

    def node_logdensity_and_score(self, t: float):
        """(log q_t, guided score) on the quadrature route at every node, in
        the order of nodes.points; the exact marginal losses take weights and
        targets here.

        A 1D node set takes the per-point posterior.  A 2D node set is its own
        query set, so its per-axis kernels are (nx, nx) and (ny, ny), rows
        scaled to a maximum of 1, and the sums at every node are matrix
        products: S = Ky W Kx^T and the first moments Ky (W xs) Kx^T and
        (Ky ys) W Kx^T, with log shift peak_y[a] + peak_x[b] at node (a, b).
        A node whose S is not above _UNDERFLOW_FLOOR per node is redone by
        the log-domain joint reduction, as in _posterior.
        """
        t = float(clamp_time(t))
        nodes, beta = self.nodes, self.energy.beta
        if len(nodes.axes) == 1:
            log_norm, post_mean, _ = self._posterior(nodes.points, t, beta, mean=True)
            return log_norm - nodes.log_z, self._score_from_mean(nodes.points, t, post_mean)
        xs, ys = nodes.axes
        lkx, lky = self._axis_log_kernels(nodes.axes, t, nodes.axes)
        peak_x, peak_y = lkx.max(axis=1, keepdims=True), lky.max(axis=1, keepdims=True)
        log_w, top, w = self._weight_grid(beta)
        with np.errstate(invalid="ignore", divide="ignore"):
            kx, ky = np.exp(lkx - peak_x), np.exp(lky - peak_y)
            left = ky @ w
            sums = np.concatenate([left, left * xs, (ky * ys) @ w]) @ kx.T
            s, mx, my = (part.ravel() for part in np.split(sums, 3))
            log_norm = np.log(s) + (peak_y + peak_x.T).ravel() + top
            post_mean = np.stack([mx, my], axis=1) / s[:, None]
        n = len(nodes.points)
        bad = np.flatnonzero(~(s > n * _UNDERFLOW_FLOOR))
        for sl in node_blocks(len(bad), n):
            rows = bad[sl]
            iy, ix = np.divmod(rows, len(xs))
            joint = _joint_log_kernel([lkx[ix], lky[iy]]) + log_w
            log_norm[rows], post_mean[rows] = _reduce(joint, t, beta, slice(0, n), rows, nodes.points)
        return log_norm - nodes.log_z, self._score_from_mean(nodes.points, t, post_mean)

    def marginal_score(self, x, t: float, route: str = "auto"):
        return self.guided_score(x, t, beta=0.0, route=route)

    def intermediate_energy(self, x, t: float, route: str = "auto"):
        """E_t(x) = -log E_{x0|x}[exp(-beta E(x0))]; tends to -log Z as t -> 1."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        b = self.energy.beta
        if b == 0.0:
            return np.zeros(len(x))
        if self._use_analytic(route):
            log_q = gmm_logpdf(path_marginal(self._tilted, self.sched, t), x) + self._log_z
            log_p = gmm_logpdf(path_marginal(self.base, self.sched, t), x)
            return log_p - log_q
        log_norm, _, log_p = self._posterior(x, t, b, prior=True)
        return -(log_norm - log_p)

    # --------------------------------------------------------- guided fields

    def guided_score(self, x, t: float, beta: float | None = None, route: str = "auto"):
        """Score of the guided marginal q_t at (x, t)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        b = self.energy.beta if beta is None else float(beta)
        if self._use_analytic(route):
            tilted, _ = tilt_mixture(self.base, self.energy, b)
            return gmm_score(path_marginal(tilted, self.sched, t), x)
        return self._score_from_mean(x, t, self._posterior(x, t, b, mean=True)[1])

    def guided_velocity(self, x, t: float, route: str = "auto"):
        """Velocity field generating q_t: the guided score of the same route
        mapped by velocity_from_score.  The check of either route is the
        other one (quadrature against closed-form mixture algebra)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        return velocity_from_score(self.sched, x, self.guided_score(x, t, route=route), t)

    # ---------------------------------------------- classifier-style guidance

    def cep_score_exact(self, x, t: float, beta: float | None = None):
        """Exponent-inside composition: grad log p_t + grad log E[p(c|x0)^beta].

        Equals the guided score of q proportional to p * exp(-beta E).
        """
        self._require_classifier()
        return self.guided_score(x, t, beta=beta)

    def cfg_score_exact(self, x, t: float, beta: float | None = None):
        """Exponent-outside composition: grad log p_t + beta * grad log E[p(c|x0)].

        This is what affine mixing of conditional and unconditional scores
        produces; it matches cep_score_exact only at beta = 1.
        """
        self._require_classifier()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(clamp_time(t))
        b = self.energy.beta if beta is None else float(beta)
        s_p = self.marginal_score(x, t)
        s_q1 = self.guided_score(x, t, beta=1.0)
        return s_p + b * (s_q1 - s_p)

    def _require_classifier(self):
        if not self.energy.classifier:
            raise ValueError(
                "classifier-guidance comparison requires a classifier energy "
                "(E = -log p(c|x), nonnegative)"
            )

    # ------------------------------------------------------------------ grids

    def guided_q0_grid(self, resolution: int | None = None) -> DensityGrid:
        """Normalized grid of the guided target q_0 = p0 exp(-beta E) / Z at
        the cell centers of `bounds`: the tilted mixture on the analytic
        route, p0 exp(-beta E) on the quadrature route, with its log-domain
        maximum subtracted so an energy that underflows exp(-beta E) at
        every cell still gives a grid.
        """
        if self.dim != 2:
            raise ValueError("density grids are 2D only")
        res = self.grid_res if resolution is None else resolution
        if self.analytic:
            return DensityGrid.from_fn(
                lambda p: np.exp(gmm_logpdf(self._tilted, p)), self.bounds, res
            )

        def tilted(p):
            log_q = gmm_logpdf(self.base, p) - self.energy.beta * self.energy(p)
            return np.exp(log_q - log_q.max())

        return DensityGrid.from_fn(tilted, self.bounds, res)

    # ------------------------------------------------------------- diagnostics

    def continuity_residual(self, t: float, resolution: int = 512) -> float:
        """Integral of |d/dt q_t + div(q_t u_t)| over the grid.

        Time derivative by central difference (step 1e-3), divergence by
        second-order central differences on the cell-center lattice; u_t is
        the guided velocity.  The time stencil must lie inside the clamp
        [T_EPS, 1 - T_EPS]: a clamped end would shrink the step and scale
        dq/dt wrongly, so such a t raises a ValueError.
        """
        if self.dim != 2:
            raise ValueError("continuity residual is a 2D grid check")
        dt = 1e-3
        t = float(t)
        if not (T_EPS <= t - dt and t + dt <= 1.0 - T_EPS):
            raise ValueError(
                f"continuity residual at t={t:g}: its time stencil t +- {dt:g} leaves "
                f"[{T_EPS:g}, {1.0 - T_EPS:g}], so t must lie in [{T_EPS + dt:g}, {1.0 - T_EPS - dt:g}]"
            )
        res = resolution
        (x0, x1), (y0, y1) = self.bounds
        pts = DensityGrid(x0, x1, y0, y1, np.zeros((res, res))).centers()
        hx = (x1 - x0) / res
        hy = (y1 - y0) / res
        q_plus = np.exp(self.guided_logdensity(pts, t + dt))
        q_minus = np.exp(self.guided_logdensity(pts, t - dt))
        dq_dt = (q_plus - q_minus) / (2.0 * dt)
        q = np.exp(self.guided_logdensity(pts, t))
        u = self.guided_velocity(pts, t)
        fx = (q * u[:, 0]).reshape(res, res)
        fy = (q * u[:, 1]).reshape(res, res)
        # values are laid out with y varying along axis 0
        div = np.gradient(fy, hy, axis=0) + np.gradient(fx, hx, axis=1)
        resid = dq_dt.reshape(res, res) + div
        return float(np.abs(resid).sum() * hx * hy)

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


# Every factored term below the smallest normal double may be lost to
# underflow, so N such terms lose less than eps times a sum above
# N * tiny / eps: about 6.6e-288 at 65,536 nodes.
_UNDERFLOW_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _joint_log_kernel(lks: list) -> np.ndarray:
    """(B, N) joint log kernel from per-axis blocks, row-major with y slow."""
    if len(lks) == 1:
        return lks[0]
    lkx, lky = lks
    return (lky[:, :, None] + lkx[:, None, :]).reshape(len(lkx), -1)


def _factored_sums(ks: list, w: np.ndarray, axes, mean: bool):
    """Row sums S = sum_n w_n prod_a k_a[:, n_a] of the tensor-grid weights w
    against per-axis kernel factors ks, and with mean the first moments
    sum_n w_n K_n x0_n as a (B, d) array.

    In 2D, w is the (ny, nx) weight grid: S = rowsum((ky @ w) * kx), the x
    moment is rowsum((ky @ w) * kx * xs) and the y moment
    rowsum(((ky * ys) @ w) * kx), so a row costs nx + ny kernel exps.  Row
    sums are numpy reductions, never BLAS matrix-vector products: OpenBLAS's
    gemv rounds a block's last rows by the block's length, and a result must
    not depend on how the rows were split into blocks.
    """
    if len(ks) == 1:
        (k,), (line,) = ks, axes
        p = k * w
        s = p.sum(axis=1)
        if not mean:
            return s, None
        p *= line
        return s, p.sum(axis=1)[:, None]
    kx, ky = ks
    xs, ys = axes
    p = ky @ w
    p *= kx
    s = p.sum(axis=1)
    if not mean:
        return s, None
    py = (ky * ys) @ w
    py *= kx
    p *= xs
    return s, np.stack([p.sum(axis=1), py.sum(axis=1)], axis=1)


def _reduce(lk: np.ndarray, t: float, beta: float, block: slice, rows: np.ndarray, points=None):
    """Row-wise log sum_n exp(lk[:, n]) and, given points, the mean of the
    points under the row-wise softmax of lk.  lk holds query rows `rows` of
    the row block `block` at time t and scale beta, which a failure names."""
    top = lk.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(top)):
        bad = rows[~np.isfinite(top[:, 0])]
        raise FloatingPointError(
            f"posterior weights underflowed at every node at t={t:g}, beta={beta:g} "
            f"for {len(bad)} query rows in {block.start}:{block.stop} (first {bad[0]})"
        )
    w = lk - top
    np.exp(w, out=w)
    total = w.sum(axis=1, keepdims=True)
    log_norm = top[:, 0] + np.log(total[:, 0])
    if points is None:
        return log_norm, None
    w /= total
    return log_norm, w @ points
