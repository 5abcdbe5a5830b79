"""Built-in invariant suite: fast structural checks behind `ewflow selftest`.

Each check returns pass/fail with wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datasets import make_dataset
from .energies import EnergySpec
from .mixtures import gmm_logpdf, path_marginal
from .nn import MlpModel, backward, forward, forward_cached
from .oracle import GuidedOracle
from .paths import PathSchedule, T_EPS, cond_velocity, perturb, score_from_velocity, velocity_from_score
from .rng import Rng
from .training import loss_ced_exact, loss_cefm_exact, loss_ed_exact, loss_efm_exact

__all__ = ["CheckResult", "run_selftest"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str


def _timed(name, fn):
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # noqa: BLE001
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, passed, time.perf_counter() - start, detail)


def _check_conversion_roundtrip():
    rng = Rng(101)
    worst = 0.0
    for sched in (PathSchedule.ot(), PathSchedule.vp()):
        x = rng.normal((64, 2))
        s = rng.normal((64, 2))
        t = rng.uniform(T_EPS, 1 - T_EPS, 64)
        v = velocity_from_score(sched, x, s, t)
        s2 = score_from_velocity(sched, x, v, t)
        worst = max(worst, float(np.abs(s2 - s).max()))
    return worst < 1e-10, f"max round-trip error {worst:.2e}"


def _check_cond_velocity_derivative():
    rng = Rng(102)
    worst = 0.0
    h = 1e-6
    for sched in (PathSchedule.ot(), PathSchedule.vp()):
        x0 = rng.normal((8, 2))
        eps = rng.normal((8, 2))
        # strictly interior times: sigma(t) ~ sqrt(t) for vp makes central
        # differences unreliable right at the clamp boundary
        for t in np.linspace(0.0, 1.0, 103)[1:-1]:
            x_t = float(sched.mu(t)) * x0 + float(sched.sigma(t)) * eps
            u = cond_velocity(sched, x_t, x0, np.full(8, t))
            xp = float(sched.mu(t + h)) * x0 + float(sched.sigma(t + h)) * eps
            xm = float(sched.mu(t - h)) * x0 + float(sched.sigma(t - h)) * eps
            fd = (xp - xm) / (2 * h)
            worst = max(worst, float(np.abs(u - fd).max()))
    return worst < 1e-6, f"max |analytic - finite difference| {worst:.2e}"


def _check_nn_gradients():
    rng = Rng(103)
    model = MlpModel.init(2, 2, rng, hidden=(16, 16), embed_dim=8)
    x = rng.normal((4, 2))
    t = rng.uniform(0.1, 0.9, 4)
    up = rng.normal((4, 2))
    out, cache = forward_cached(model, x, t)
    gw, _ = model.layer_views(backward(model, cache, up))
    h = 1e-5
    worst = 0.0
    prng = Rng(104)
    for _ in range(20):
        li = int(prng.integers(0, len(model.weights)))
        r = int(prng.integers(0, model.weights[li].shape[0]))
        c = int(prng.integers(0, model.weights[li].shape[1]))
        orig = model.weights[li][r, c]
        model.weights[li][r, c] = orig + h
        fp = float((forward(model, x, t) * up).sum())
        model.weights[li][r, c] = orig - h
        fm = float((forward(model, x, t) * up).sum())
        model.weights[li][r, c] = orig
        fd = (fp - fm) / (2 * h)
        rel = abs(fd - gw[li][r, c]) / max(abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst < 1e-4, f"max relative gradient error {worst:.2e} over 20 probes"


def _gradient_equality(marginal_loss, conditional_loss, oracle, model, t_nodes):
    fa, fb = (  # each loss returns (value, (grads_w, grads_b))
        np.concatenate([g.ravel() for layers in loss(model, oracle, t_nodes)[1] for g in layers])
        for loss in (marginal_loss, conditional_loss)
    )
    return float(np.linalg.norm(fa - fb) / max(np.linalg.norm(fa), 1e-300))


def _check_gradient_equality():
    rng = Rng(105)
    gmm = make_dataset("8gaussians")
    energy = EnergySpec.quadratic([0.25, 0.25], beta=1.0, center=[4.0, 0.0], classifier=True)
    oracle = GuidedOracle(gmm, energy, PathSchedule.ot(), grid_res=32)
    model = MlpModel.init(2, 2, rng, hidden=(16,), embed_dim=8)
    rel_flow = _gradient_equality(loss_efm_exact, loss_cefm_exact, oracle, model, [0.5])
    rel_score = _gradient_equality(loss_ed_exact, loss_ced_exact, oracle, model, [0.5])
    ok = rel_flow < 1e-5 and rel_score < 1e-5
    return ok, f"relative gradient gap: flow {rel_flow:.2e}, score {rel_score:.2e}"


def _check_guidance_composition_identity():
    gmm = make_dataset("bimodal2d")
    energy = EnergySpec.quadratic([0.25, 0.25], beta=1.0, center=[2.0, 0.0], classifier=True)
    oracle = GuidedOracle(gmm, energy, PathSchedule.vp())
    rng = Rng(106)
    x = rng.normal((100, 2)) * 2.0
    worst = 0.0
    for t in (0.25, 0.5, 0.75):
        a = oracle.cfg_score_exact(x, t, beta=1.0)
        b = oracle.cep_score_exact(x, t, beta=1.0)
        worst = max(worst, float(np.abs(a - b).max()))
    return worst < 1e-6, f"max |affine - exact| at unit scale {worst:.2e}"


def _check_continuity():
    gmm = make_dataset("8gaussians")
    energy = EnergySpec.quadratic([0.25, 0.25], beta=1.0, center=[4.0, 0.0], classifier=True)
    worst = 0.0
    for sched in (PathSchedule.ot(), PathSchedule.vp()):
        oracle = GuidedOracle(gmm, energy, sched)
        worst = max(worst, oracle.continuity_residual(0.5, 768))
    return worst < 5e-3, f"max integrated residual {worst:.2e} (budget 5e-3)"


def _check_perturb_statistics():
    rng = Rng(107)
    sched = PathSchedule.ot()
    x0 = np.full((200_000, 1), 2.0)
    t = np.full(200_000, 0.5)
    x_t, eps = perturb(sched, x0, t, rng)
    mean_err = abs(float(x_t.mean()) - 2.0 * 0.5)
    sig = float(sched.sigma(0.5))
    var_err = abs(float(x_t.var()) - sig**2)
    ok = mean_err < 0.005 and var_err < 0.005 and abs(float(eps.mean())) < 0.01
    return ok, f"mean err {mean_err:.4f}, var err {var_err:.4f}"


def _check_marginal_consistency():
    line = np.linspace(-4, 4, 41)[:, None]
    axis = np.linspace(-5, 5, 21)
    lattice = np.stack([g.ravel() for g in np.meshgrid(axis, axis)], axis=-1)
    cases = [("bimodal1d", PathSchedule.vp(), line)] + [
        ("8gaussians", sched, lattice) for sched in (PathSchedule.ot(), PathSchedule.vp())
    ]
    worst = 0.0
    for name, sched, x in cases:
        gmm = make_dataset(name)
        oracle = GuidedOracle(gmm, EnergySpec.linear([0.0] * gmm.dim, 0.0), sched, grid_res=64)
        for t in (0.3, 0.7):
            analytic = gmm_logpdf(path_marginal(gmm, sched, t), x)
            quad = oracle.marginal_logdensity(x, t, route="quad")
            worst = max(worst, float(np.abs(analytic - quad).max()))
    return worst < 1e-4, f"max |log p_t analytic - quadrature| {worst:.2e} (bimodal1d, 8gaussians)"


def run_selftest() -> list[CheckResult]:
    checks = [
        ("velocity/score round trip", _check_conversion_roundtrip),
        ("conditional velocity = path derivative", _check_cond_velocity_derivative),
        ("network gradients vs finite differences", _check_nn_gradients),
        ("marginal vs conditional loss gradients", _check_gradient_equality),
        ("guidance compositions agree at unit scale", _check_guidance_composition_identity),
        ("guided field satisfies continuity", _check_continuity),
        ("perturbation statistics", _check_perturb_statistics),
        ("analytic vs quadrature marginals", _check_marginal_consistency),
    ]
    return [_timed(name, fn) for name, fn in checks]
