import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ewflow
from ewflow import grids
from ewflow import oracle as oracle_mod
from ewflow.datasets import make_dataset
from ewflow.energies import EnergySpec, tilt_mixture
from ewflow.mixtures import (
    GaussianMixture, gmm_density, gmm_logpdf, gmm_sample, gmm_score, path_marginal,
)
from ewflow.oracle import GuidedOracle
from ewflow.paths import PathSchedule, velocity_from_score
from ewflow.rng import Rng


def _gauss_linear_oracle(beta=1.0, sched=None):
    gmm = GaussianMixture.create([1.0], [[0.0]], [[1.0]])
    return GuidedOracle(gmm, EnergySpec.linear([1.0], beta), sched or PathSchedule.ot(), grid_res=64)


def _bimodal_classifier_oracle(beta=1.0, sched=None):
    gmm = make_dataset("bimodal1d")
    energy = EnergySpec.quadratic([0.25], beta, center=[2.0], classifier=True)
    return GuidedOracle(gmm, energy, sched or PathSchedule.vp(), grid_res=64)


def test_log_z_routes_agree():
    orc = _gauss_linear_oracle(beta=1.3)
    assert orc.log_z() == pytest.approx(1.3**2 / 2, rel=1e-10)
    quad = GuidedOracle(orc.base, orc.energy, orc.sched, grid_res=64)
    quad.analytic = False
    assert quad.log_z() == pytest.approx(orc.log_z(), abs=1e-6)


def test_intermediate_energy_zero_guidance():
    orc = _gauss_linear_oracle(beta=0.0)
    x = np.linspace(-2, 2, 7)[:, None]
    assert np.abs(orc.intermediate_energy(x, 0.4)).max() == 0.0


def test_intermediate_energy_gaussian_linear_closed_form():
    beta = 1.0
    orc = _gauss_linear_oracle(beta)
    sched = orc.sched
    x = np.linspace(-3, 3, 11)[:, None]
    for t in (0.2, 0.5, 0.8):
        mu, sig = float(sched.mu(t)), float(sched.sigma(t))
        m = mu * x[:, 0] / (mu**2 + sig**2)
        v = sig**2 / (mu**2 + sig**2)
        want = beta * m - beta**2 * v / 2
        got_a = orc.intermediate_energy(x, t, route="analytic")
        got_q = orc.intermediate_energy(x, t, route="quad")
        assert np.abs(got_a - want).max() < 1e-10
        assert np.abs(got_q - want).max() < 1e-6


def test_intermediate_energy_flattens_to_minus_log_z():
    orc = _gauss_linear_oracle(1.0)
    x = np.linspace(-3, 3, 31)[:, None]
    e = orc.intermediate_energy(x, 0.999, route="quad")
    assert np.ptp(e) < 0.01
    assert abs(e.mean() - (-orc.log_z())) < 2e-2


def test_guided_q0_gaussian_linear_grid_moments():
    # 2D version of N(0,1) with E = x . (1, 0): q0 = N((-1, 0), I)
    gmm = GaussianMixture.create([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    orc = GuidedOracle(gmm, EnergySpec.linear([1.0, 0.0], 1.0), PathSchedule.ot(), grid_res=128)
    grid = orc.guided_q0_grid(256)
    pts = grid.centers()
    mass = grid.masses().ravel()
    mean = mass @ pts
    var = mass @ (pts - mean) ** 2
    assert abs(mean[0] + 1.0) < 0.01 and abs(mean[1]) < 0.01
    assert abs(var[0] - 1.0) < 0.02 and abs(var[1] - 1.0) < 0.02


def test_guided_q0_gaussian_quadratic_variance():
    gmm = GaussianMixture.create([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    orc = GuidedOracle(gmm, EnergySpec.quadratic([1.0, 1.0], 1.0), PathSchedule.ot(), grid_res=128)
    grid = orc.guided_q0_grid(256)
    pts = grid.centers()
    mass = grid.masses().ravel()
    var = mass @ (pts - mass @ pts) ** 2
    assert np.abs(var - 0.5).max() < 0.02


def test_guided_velocity_zero_guidance_equals_marginal_velocity():
    gmm = make_dataset("bimodal1d")
    sched = PathSchedule.ot()
    orc = GuidedOracle(gmm, EnergySpec.linear([0.0], 0.0), sched, grid_res=64)
    x = np.linspace(-4, 4, 21)[:, None]
    for t in (0.3, 0.7):
        marg = path_marginal(gmm, sched, t)
        want = velocity_from_score(sched, x, gmm_score(marg, x), np.full(len(x), t))
        got = orc.guided_velocity(x, t, route="quad")
        assert np.abs(got - want).max() < 1e-4


def test_guided_score_gaussian_linear_closed_form_and_quadrature():
    beta = 1.0
    orc = _gauss_linear_oracle(beta)
    sched = orc.sched
    x = np.linspace(-3, 3, 11)[:, None]
    for t in (0.25, 0.6):
        mu, sig = float(sched.mu(t)), float(sched.sigma(t))
        want = -(x + beta * mu) / (mu**2 + sig**2)
        assert np.abs(orc.guided_score(x, t, route="analytic") - want).max() < 1e-10
        assert np.abs(orc.guided_score(x, t, route="quad") - want).max() < 1e-4


def test_guided_velocity_routes_agree():
    gmm = make_dataset("8gaussians")
    energy = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[4.0, 0.0], classifier=True)
    # the node box must cover the p0-weighted posterior support of probes
    # mapped outward by 1/mu_t; the 8-sigma box of every node set does
    orc = GuidedOracle(gmm, energy, PathSchedule.ot(), grid_res=160)
    pts = Rng(1).normal((20, 2)) * 1.2
    for t in (0.3, 0.6):
        a = orc.guided_velocity(pts, t, route="analytic")
        q = orc.guided_velocity(pts, t, route="quad")
        assert np.abs(a - q).max() < 1e-4


def test_score_decomposition_identity():
    # grad log q_t = grad log p_t - grad E_t, each computed independently by
    # quadrature (E_t gradient via central differences)
    orc = _bimodal_classifier_oracle(beta=2.0)
    x = np.linspace(-3.5, 3.5, 15)[:, None]
    h = 1e-4
    for t in (0.35, 0.7):
        s_q = orc.guided_score(x, t, route="quad")[:, 0]
        s_p = orc.marginal_score(x, t, route="quad")[:, 0]
        de = (
            orc.intermediate_energy(x + h, t, route="quad")
            - orc.intermediate_energy(x - h, t, route="quad")
        ) / (2 * h)
        assert np.abs(s_q - (s_p - de)).max() < 1e-4


def test_normalizer_constant_across_time():
    orc = _bimodal_classifier_oracle(beta=1.5)
    nodes = orc.nodes
    z = np.exp(orc.log_z())
    for t in np.linspace(0.1, 0.9, 9):
        log_p = orc.marginal_logdensity(nodes.points, t, route="quad")
        e_t = orc.intermediate_energy(nodes.points, t, route="quad")
        z_t = float(np.exp(log_p - e_t).sum() * nodes.cell_area)
        assert abs(z_t - z) < 1e-3 * max(z, 1.0)
        # the one-pass log q_t is the two-pass log p_t - E_t - log Z
        log_q = orc.guided_logdensity(nodes.points, t, route="quad")
        assert np.abs(log_q - (log_p - e_t - nodes.log_z)).max() < 1e-12


def test_cfg_cep_equal_at_unit_scale_and_differ_beyond():
    orc = _bimodal_classifier_oracle(beta=1.0)
    rng = Rng(2)
    worst = 0.0
    for _ in range(100):
        x = rng.normal((1, 1)) * 2.0
        t = float(rng.uniform(0.05, 0.95))
        d = np.abs(orc.cfg_score_exact(x, t, beta=1.0) - orc.cep_score_exact(x, t, beta=1.0))
        worst = max(worst, float(d.max()))
    assert worst < 1e-6
    # at beta = 2 the exponent placement matters on a bimodal target
    grid = np.linspace(-4, 4, 81)[:, None]
    gap = 0.0
    for t in (0.2, 0.5, 0.8):
        d = np.abs(orc.cfg_score_exact(grid, t, beta=2.0) - orc.cep_score_exact(grid, t, beta=2.0))
        gap = max(gap, float(d.max()))
    assert gap > 0.1


def test_cfg_cep_zero_scale_is_marginal_score():
    orc = _bimodal_classifier_oracle()
    x = np.linspace(-3, 3, 11)[:, None]
    s_p = orc.marginal_score(x, 0.4)
    assert np.abs(orc.cfg_score_exact(x, 0.4, beta=0.0) - s_p).max() < 1e-12
    assert np.abs(orc.cep_score_exact(x, 0.4, beta=0.0) - s_p).max() < 1e-10


def test_cfg_requires_classifier_energy():
    orc = _gauss_linear_oracle()
    with pytest.raises(ValueError, match="classifier"):
        orc.cfg_score_exact(np.zeros((1, 1)), 0.5, beta=2.0)


def test_shift_invariance_of_guided_quantities():
    gmm = make_dataset("bimodal2d")
    base_energy = EnergySpec.quadratic([0.25, 0.25], 1.5, center=[2.0, 0.0])
    shifted = replace(base_energy, shift=base_energy.shift - 3.0)  # E + 3
    sched = PathSchedule.ot()
    a = GuidedOracle(gmm, base_energy, sched, grid_res=96)
    b = GuidedOracle(gmm, shifted, sched, grid_res=96)
    assert b.log_z() == pytest.approx(a.log_z() - 1.5 * 3.0, abs=1e-10)
    pts = Rng(3).normal((10, 2)) * 2
    for t in (0.3, 0.7):
        assert np.abs(a.guided_velocity(pts, t) - b.guided_velocity(pts, t)).max() < 1e-8
        assert np.abs(a.guided_score(pts, t) - b.guided_score(pts, t)).max() < 1e-8
    ga = a.guided_q0_grid(96)
    gb = b.guided_q0_grid(96)
    assert np.abs(ga.values - gb.values).max() < 1e-8


def test_large_beta_stays_finite():
    orc = _bimodal_classifier_oracle(beta=50.0)
    x = np.linspace(-4, 4, 17)[:, None]
    e = orc.intermediate_energy(x, 0.5, route="quad")
    s = orc.guided_score(x, 0.5, route="quad")
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(s))


def test_grid_base_oracle_matches_mixture_oracle():
    gmm = make_dataset("bimodal2d")
    energy = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[2.0, 0.0], classifier=True)
    with pytest.raises(TypeError, match="unsupported base DensityGrid"):
        GuidedOracle(grids.DensityGrid.from_mixture(gmm, 128), energy, PathSchedule.ot())
    # The quadrature route of a mixture base: p0 exp(-beta E) is the tilted
    # mixture at every cell center, so its q_0 grid and the closed form's
    # differ by rounding.
    quad = GuidedOracle(gmm, energy, PathSchedule.ot(), grid_res=128)
    quad.analytic = False
    c = quad.guided_q0_grid()
    tilted = tilt_mixture(gmm, energy)[0]
    b = grids.DensityGrid.from_fn(lambda p: np.exp(gmm_logpdf(tilted, p)), quad.bounds, 128)
    assert (c.x_min, c.x_max, c.y_min, c.y_max) == (b.x_min, b.x_max, b.y_min, b.y_max)
    assert 0.5 * np.abs(c.masses() - b.masses()).sum() < 1e-12


def test_kernel_blocks_are_bit_identical_to_one_block(monkeypatch):
    gmm = make_dataset("8gaussians")
    energy = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[4.0, 0.0], classifier=True)
    sched = PathSchedule.ot()
    orc = GuidedOracle(gmm, energy, sched, grid_res=64)
    n_nodes = len(orc.nodes.points)
    # row counts that are not a multiple of the 256-row block: a greedy split
    # would leave a short last block (76 and 1 rows)
    sizes = {0.35: 1100, 0.7: 2049}
    queries = {t: gmm_sample(path_marginal(gmm, sched, t), Rng(21), n) for t, n in sizes.items()}

    def fields():
        out = []
        for t, x in queries.items():
            out += [
                orc.guided_velocity(x, t, route="quad"),
                orc.intermediate_energy(x, t, route="quad"),
                orc.marginal_logdensity(x, t, route="quad"),
                orc.guided_logdensity(x, t, route="quad"),
                orc.guided_score(x, t, route="quad"),
            ]
        return out

    assert all(len(list(grids.node_blocks(n, n_nodes))) > 1 for n in sizes.values())
    shipped = fields()
    monkeypatch.setattr(grids, "_BLOCK_BYTES", 8 * max(sizes.values()) * n_nodes)
    assert all(len(list(grids.node_blocks(n, n_nodes))) == 1 for n in sizes.values())
    for a, b in zip(shipped, fields()):
        assert np.array_equal(a, b)


def test_underflow_names_time_beta_and_rows():
    orc = _bimodal_classifier_oracle(beta=1.5, sched=PathSchedule.ot())
    # |x - mu_t x0|^2 / sigma_t^2 overflows for this far-off query at t = 1e-3
    # (sigma_t = 0.0064), so its log-kernel is -inf at every node
    x = np.array([[0.0], [1e153], [0.5]])
    want = r"t=0\.001, beta=1\.5 for 1 query rows in 0:3 \(first 1\)"
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=want):
        orc.guided_score(x, 1e-3, route="quad")


BENCH_ENERGY = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[4.0, 0.0], classifier=True)
FIELDS = ("guided_velocity", "intermediate_energy", "marginal_logdensity")


def _core_points(gmm, sched, t, n, rng):
    """n draws of p_t within 2.5 standard deviations of a component."""
    marginal = path_marginal(gmm, sched, t)
    x = gmm_sample(marginal, rng, 4 * n)
    z = np.abs((x[:, None, :] - marginal.means[None]) / np.sqrt(marginal.variances[None]))
    return x[z.max(axis=-1).min(axis=-1) <= 2.5][:n]


def _recording_reduce(monkeypatch):
    """Record the query rows of every log-domain reduction the oracle makes."""
    rows = []
    reduce = oracle_mod._reduce

    def recording(lk, t, beta, block, r, points=None):
        rows.extend(r)
        return reduce(lk, t, beta, block, r, points)

    monkeypatch.setattr(oracle_mod, "_reduce", recording)
    return rows


@pytest.mark.parametrize("kind", ["ot", "vp"])
def test_factored_sums_match_log_domain_joint_reduction(monkeypatch, kind):
    gmm = make_dataset("8gaussians")
    sched = PathSchedule.ot() if kind == "ot" else PathSchedule.vp()
    orc = GuidedOracle(gmm, BENCH_ENERGY, sched, grid_res=64)
    calls = _recording_reduce(monkeypatch)
    for i, t in enumerate((0.05, 0.35, 0.7, 0.999)):
        core = _core_points(gmm, sched, t, 300, Rng(23 + i))
        x = np.concatenate([core, 3.0 * core])
        calls.clear()
        factored = [getattr(orc, f)(x, t, route="quad") for f in FIELDS]
        assert calls == []
        # a floor no sum exceeds sends every row to the log-domain joint reduction
        with monkeypatch.context() as m:
            m.setattr(oracle_mod, "_UNDERFLOW_FLOOR", np.inf)
            joint = [getattr(orc, f)(x, t, route="quad") for f in FIELDS]
        assert len(calls) > 0
        for f, a, b in zip(FIELDS, factored, joint):
            rel = np.abs(a - b).max() / np.abs(b).max()
            assert rel < 1e-12, (f, t, rel)


def _holed_grid_oracle():
    """No mass in |x|, |y| < 1.5 of a 64^2 grid on [-6, 6]^2, at beta = 20.

    At t = 1e-3 every factored term of a query inside the square, more than
    one cell from its edge, underflows, while the log-domain sum is finite
    (the empty cells' clamped log mass and the edge cells compete).
    """
    gauss = GaussianMixture.create([1.0], [[0.0, 0.0]], [[4.0, 4.0]])
    box = ((-6.0, 6.0), (-6.0, 6.0))
    full = grids.DensityGrid.from_fn(lambda p: gmm_density(gauss, p), box, 64)
    xx, yy = np.meshgrid(full.xs, full.ys)
    empty = (np.abs(xx) < 1.5) & (np.abs(yy) < 1.5)
    base = grids.DensityGrid(-6.0, 6.0, -6.0, 6.0, np.where(empty, 0.0, full.values)).normalized()
    energy = EnergySpec.linear([1.0, 0.0], 20.0)
    orc = GuidedOracle(gauss, energy, PathSchedule.ot())
    orc.nodes = grids.quadrature_nodes(base, energy)  # the holed grid's cells as the node set
    return orc


def _long_double_log_q_and_score(orc, x, t):
    """log q_t and the guided score at x by direct differences over the
    oracle's node set in long double."""
    ld = np.longdouble
    nodes = orc.nodes
    mu, sig2 = ld(orc.sched.mu(t)), ld(orc.sched.sigma(t)) ** 2
    pts, xl = nodes.points.astype(ld), x.astype(ld)
    lk = -((xl[:, None, :] - mu * pts[None]) ** 2).sum(-1) / (2 * sig2) - np.log(2 * np.pi * sig2)
    lk += nodes.log_mass.astype(ld) - ld(orc.energy.beta) * nodes.energy.astype(ld)
    top = lk.max(axis=1, keepdims=True)
    w = np.exp(lk - top)
    total = w.sum(axis=1)
    log_q = top[:, 0] + np.log(total) - ld(nodes.log_z)
    return log_q, -(xl - mu * (w @ pts) / total[:, None]) / sig2


def test_underflowed_factored_rows_fall_back_to_log_domain(monkeypatch):
    orc = _holed_grid_oracle()
    t = 1e-3
    x = np.array([[0.0, 0.0], [0.5, -0.7], [-1.0, 1.2], [1.3, 0.1], [3.0, 2.0], [-4.0, 0.5]])
    inside = (np.abs(x) < 1.5).all(axis=1)
    calls = _recording_reduce(monkeypatch)
    log_q = orc.guided_logdensity(x, t, route="quad")
    assert calls == np.flatnonzero(inside).tolist() and inside.sum() > 0
    calls.clear()
    score = orc.guided_score(x, t, route="quad")
    assert calls == np.flatnonzero(inside).tolist()

    want_log_q, want_score = _long_double_log_q_and_score(orc, x, t)
    assert np.abs(log_q - want_log_q).max() < 1e-12 * np.abs(want_log_q).max()
    assert np.abs(score - want_score).max() < 1e-12 * np.abs(want_score).max()


def test_underflowed_nodes_fall_back_to_log_domain(monkeypatch):
    # The node route queries every cell of the holed grid.  The ring of empty
    # cells next to filled ones keeps a factored sum near 1e-246, above the
    # floor; every empty cell further in takes the log-domain reduction.
    orc = _holed_grid_oracle()
    t = 1e-3
    pts = orc.nodes.points
    cell = 12.0 / 64
    deep = np.flatnonzero((np.abs(pts) < 1.5 - cell).all(axis=1))
    calls = _recording_reduce(monkeypatch)
    log_q, score = orc.node_logdensity_and_score(t)
    assert calls == deep.tolist() and len(deep) == 14 * 14

    hole = np.flatnonzero((np.abs(pts) < 1.5).all(axis=1))
    pick = np.concatenate([hole, [0, 100, 2080, 4095]])
    want_log_q, want_score = _long_double_log_q_and_score(orc, pts[pick], t)
    assert np.abs(log_q[pick] - want_log_q).max() < 1e-12 * np.abs(want_log_q).max()
    assert np.abs(score[pick] - want_score).max() < 1e-12 * np.abs(want_score).max()


@pytest.mark.parametrize("case", ["ot-48", "ot-64", "vp-48", "vp-64", "gauss1d"])
def test_node_route_matches_point_route(case):
    # the node set contracted over its own grid against one kernel row per node
    if case == "gauss1d":
        orc = GuidedOracle(make_dataset("gauss1d"), EnergySpec.linear([1.0], 1.0), PathSchedule.ot(), grid_res=32)
    else:
        kind, res = case.split("-")
        sched = PathSchedule.ot() if kind == "ot" else PathSchedule.vp()
        orc = GuidedOracle(make_dataset("8gaussians"), BENCH_ENERGY, sched, grid_res=int(res))
    pts = orc.nodes.points
    for t in (0.01, 0.05, 0.25, 0.5, 0.75, 0.999):
        log_q, score = orc.node_logdensity_and_score(t)
        want_log_q = orc.guided_logdensity(pts, t, route="quad")
        want_score = orc.guided_score(pts, t, route="quad")
        assert np.abs(log_q - want_log_q).max() < 1e-11 * np.abs(want_log_q).max(), t
        assert np.abs(score - want_score).max() < 1e-11 * np.abs(want_score).max(), t


def test_quadrature_matches_closed_form_when_box_covers_tails():
    # The 8-sigma node box leaves no tail mass outside the nodes, so the
    # midpoint rule on 64^2 nodes meets the closed form to rounding.
    gmm = make_dataset("8gaussians")
    sched = PathSchedule.ot()
    orc = GuidedOracle(gmm, BENCH_ENERGY, sched, grid_res=64)
    for i, t in enumerate((0.35, 0.7)):
        x = _core_points(gmm, sched, t, 300, Rng(27 + i))
        for f in FIELDS:
            quad = getattr(orc, f)(x, t, route="quad")
            exact = getattr(orc, f)(x, t, route="analytic")
            assert np.abs(quad - exact).max() < 1e-10, (f, t)


@pytest.mark.parametrize("kind", ["ot", "vp"])
def test_default_resolution_quadrature_matches_closed_form_on_all_draws(kind):
    # Every draw of p_t, tails included: at t >= 0.1 the midpoint rule on the
    # default 256^2 nodes meets the closed form to rounding; at t = 0.05 the
    # narrowest kernel sets the error.
    gmm = make_dataset("8gaussians")
    sched = PathSchedule.ot() if kind == "ot" else PathSchedule.vp()
    orc = GuidedOracle(gmm, BENCH_ENERGY, sched)
    for i, (t, tol) in enumerate(((0.05, 1e-5), (0.1, 1e-10), (0.2, 1e-10), (0.35, 1e-10), (0.7, 1e-10))):
        x = gmm_sample(path_marginal(gmm, sched, t), Rng(31 + i), 300)
        for f in FIELDS:
            err = np.abs(getattr(orc, f)(x, t, route="quad") - getattr(orc, f)(x, t, route="analytic")).max()
            assert err < tol, (f, t, err)


def test_guided_q0_grid_of_an_energy_that_underflows_everywhere_is_normalized():
    # exp(-beta E) underflows at every cell for E + 1e4, so the quadrature
    # route's q_0 grid needs its log-domain shift to match the grid of E.
    gmm = make_dataset("bimodal2d")
    bowl = lambda p: 0.125 * ((p - [2.0, 0.0]) ** 2).sum(-1)  # noqa: E731
    table = grids.DensityGrid.from_fn(bowl, [(-4.0, 4.0), (-3.0, 3.0)], 32, normalize=False)
    raised = replace(table, values=table.values + 1e4)
    grid, high = (
        GuidedOracle(gmm, EnergySpec.from_table(tab, 1.0), PathSchedule.ot()).guided_q0_grid(64)
        for tab in (table, raised)
    )
    assert np.all(np.exp(-1.0 * raised.values) == 0.0)
    assert high.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(high.values - grid.values).max() < 1e-9 * grid.values.max()


def test_continuity_residual_refuses_a_time_stencil_across_the_clamp():
    orc = GuidedOracle(make_dataset("8gaussians"), BENCH_ENERGY, PathSchedule.ot(), grid_res=32)
    for t in (0.999, 0.9985, 0.0015, 1e-3):
        with pytest.raises(ValueError, match=rf"t={t:g}: .* t must lie in \[0\.002, 0\.998\]"):
            orc.continuity_residual(t, resolution=32)
    assert np.isfinite(orc.continuity_residual(0.998, resolution=32))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_default_resolution_quadrature_call_has_bounded_peak_rss():
    # The child reports its own peak RSS (VmHWM), not ru_maxrss: Linux carries
    # the parent's resident size across fork and exec into ru_maxrss, so a
    # large test process would inflate the child's figure.
    code = """
import re
import numpy as np
from ewflow.datasets import make_dataset
from ewflow.energies import EnergySpec
from ewflow.mixtures import gmm_sample, path_marginal
from ewflow.oracle import GuidedOracle
from ewflow.paths import PathSchedule
from ewflow.rng import Rng

gmm = make_dataset("8gaussians")
energy = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[4.0, 0.0], classifier=True)
sched = PathSchedule.ot()
orc = GuidedOracle(gmm, energy, sched)
assert len(orc.nodes.points) == 256**2
x = gmm_sample(path_marginal(gmm, sched, 0.5), Rng(22), 1024)
assert np.all(np.isfinite(orc.guided_velocity(x, 0.5, route="quad")))
with open("/proc/self/status") as fh:
    print(int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1)) / 1024.0)
"""
    src = str(Path(ewflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    peak_mib = float(out.stdout.split()[-1])
    # Budget 150 MiB: the interpreter with numpy plus a few byte-budgeted kernel
    # blocks. Blocks of 4096 rows took about 1,076 MiB on this call.
    assert peak_mib < 150.0
