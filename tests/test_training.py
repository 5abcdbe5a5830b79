import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewflow
from ewflow import grids, training
from ewflow.datasets import make_dataset
from ewflow.energies import EnergySpec
from ewflow.grids import DensityGrid, quadrature_nodes
from ewflow.mixtures import gmm_sample
from ewflow.nn import MlpModel, forward
from ewflow.oracle import GuidedOracle
from ewflow.paths import PathSchedule, cond_velocity, velocity_from_score
from ewflow.rng import Rng
from ewflow.training import (
    TrainConfig,
    WeightedBatch,
    batch_softmax,
    build_weighted_batch,
    loss_ced,
    loss_ced_exact,
    loss_cefm,
    loss_cefm_exact,
    loss_cfg_pair,
    loss_cfm,
    loss_ed_exact,
    loss_efm_exact,
    make_classifier_labels,
    train_density_model,
)


def test_batch_softmax_examples():
    assert np.allclose(batch_softmax(np.zeros(4), 1.0), 0.25)
    w = batch_softmax(np.array([0.0, np.log(2.0)]), 1.0)
    assert np.allclose(w, [2 / 3, 1 / 3])
    assert np.allclose(batch_softmax(np.array([5.0, -3.0, 9.0]), 0.0), 1 / 3)


def test_batch_softmax_normalization_and_finiteness():
    w = batch_softmax(Rng(0).normal(256) * 50, 2.0)
    assert abs(w.sum() - 1.0) < 1e-9
    with pytest.raises(ValueError):
        batch_softmax(np.array([1.0, np.inf]), 1.0)


@settings(max_examples=50, deadline=None)
@given(
    shift=st.floats(-50, 50),
    beta=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_softmax_shift_invariance(shift, beta, seed):
    e = Rng(seed).normal(16)
    a = batch_softmax(e, beta)
    b = batch_softmax(e + shift, beta)
    assert np.abs(a - b).max() < 1e-12


def _setup_batch(beta=1.0, n=64, seed=3):
    gmm = make_dataset("bimodal1d")
    energy = EnergySpec.linear([1.0], beta)
    sched = PathSchedule.ot()
    data = gmm_sample(gmm, Rng(seed), 4096)
    batch = build_weighted_batch(data, energy, sched, Rng(seed + 1), n)
    return gmm, energy, sched, batch


def test_build_weighted_batch_contract():
    gmm, _, sched, batch = _setup_batch()
    assert abs(batch.weights.sum() - 1.0) < 1e-9
    # idx names the pool rows the batch drew (_setup_batch's pool, seed 3)
    assert np.array_equal(gmm_sample(gmm, Rng(3), 4096)[batch.idx], batch.x0)
    # x_t is exactly mu x0 + sigma eps for the returned eps
    mu = np.asarray(sched.mu(batch.times))[:, None]
    sig = np.asarray(sched.sigma(batch.times))[:, None]
    assert np.abs(batch.x_t - (mu * batch.x0 + sig * batch.eps)).max() < 1e-14
    with pytest.raises(ValueError):
        build_weighted_batch(np.zeros((10, 1)), None, sched, Rng(0), 1)


def test_weighted_batch_beta_zero_uniform():
    _, _, _, batch = _setup_batch(beta=0.0)
    assert np.allclose(batch.weights, 1.0 / len(batch.x0))


def test_loss_cefm_zero_at_exact_target():
    # zero-parameter model outputs 0; with x0 = 0 and eps = 0 the conditional
    # velocity target is identically 0, so the loss must vanish
    sched = PathSchedule.ot()
    model = MlpModel.init(1, 1, Rng(4), hidden=(8,), embed_dim=4)
    for w in model.weights:
        w[:] = 0.0
    n = 8
    batch = WeightedBatch(
        x0=np.zeros((n, 1)),
        weights=np.full(n, 1 / n),
        times=np.linspace(0.2, 0.8, n),
        eps=np.zeros((n, 1)),
        x_t=np.zeros((n, 1)),
    )
    loss, _ = loss_cefm(model, batch, sched)
    assert loss == pytest.approx(0.0, abs=1e-24)
    loss_score, _ = loss_ced(model, batch, sched)
    assert loss_score == pytest.approx(0.0, abs=1e-24)


def test_loss_values_match_straight_line_recomputation():
    gmm, energy, sched, batch = _setup_batch(beta=1.5, n=32)
    model = MlpModel.init(1, 1, Rng(5), hidden=(16, 16), embed_dim=8)

    pred = forward(model, batch.x_t, batch.times)
    want_cefm = 0.0
    for i in range(len(batch.x0)):
        u = cond_velocity(sched, batch.x_t[i : i + 1], batch.x0[i : i + 1], batch.times[i])
        want_cefm += batch.weights[i] * float(((pred[i] - u[0]) ** 2).sum())
    got, _ = loss_cefm(model, batch, sched)
    assert got == pytest.approx(want_cefm, rel=1e-10)

    want_ced = 0.0
    for i in range(len(batch.x0)):
        want_ced += batch.weights[i] * float(((pred[i] - batch.eps[i]) ** 2).sum())
    got, _ = loss_ced(model, batch, sched)
    assert got == pytest.approx(want_ced, rel=1e-10)


def test_cfm_equals_cefm_with_uniform_weights():
    gmm, _, sched, batch = _setup_batch(beta=0.0, n=32)
    model = MlpModel.init(1, 1, Rng(6), hidden=(8,), embed_dim=4)
    a, _ = loss_cfm(model, batch, sched)
    b, _ = loss_cefm(model, batch, sched)
    assert a == pytest.approx(b, rel=1e-12)


def test_score_and_velocity_targets_are_conversions():
    # velocity_from_score applied to the score target -eps/sigma reproduces the
    # conditional velocity target sample by sample
    _, _, sched, batch = _setup_batch(n=16)
    sig = np.asarray(sched.sigma(batch.times))[:, None]
    v_from_s = velocity_from_score(sched, batch.x_t, -batch.eps / sig, batch.times)
    u = cond_velocity(sched, batch.x_t, batch.x0, batch.times)
    assert np.abs(v_from_s - u).max() < 1e-10


def test_classifier_labels_match_quadrature_frequency():
    gmm = make_dataset("bimodal2d")
    energy = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[2.0, 0.0], classifier=True)
    data = gmm_sample(gmm, Rng(7), 200_000)
    labels = make_classifier_labels(data, energy, Rng(8))
    # quadrature estimate of P(c=1) = E_p0[exp(-E)]
    orc = GuidedOracle(gmm, energy.with_beta(1.0), PathSchedule.ot(), grid_res=128)
    p1 = np.exp(orc.log_z())
    se = np.sqrt(p1 * (1 - p1) / len(data))
    assert abs(labels.mean() - p1) < 3 * se + 1e-3


def test_cfg_pair_all_labels_one_when_energy_zero():
    gmm = make_dataset("bimodal1d")
    energy = EnergySpec.quadratic([0.0], 1.0, classifier=True)  # E = 0 everywhere
    data = gmm_sample(gmm, Rng(9), 1000)
    labels = make_classifier_labels(data, energy, Rng(10))
    assert np.all(labels == 1)
    sched = PathSchedule.vp()
    model = MlpModel.init(1, 1, Rng(11), hidden=(8,), embed_dim=4, context_dim=2)
    for w in model.weights:
        w[:] = 0.0
    batch = build_weighted_batch(data, energy, sched, Rng(12), 32)
    lu, lc, _ = loss_cfg_pair(model, batch, labels[:32], sched)
    # with zero parameters both heads predict 0 and see identical targets
    assert lu == pytest.approx(lc, rel=1e-12)


def test_cfg_pair_heads_ignore_the_energy_weights():
    # beta > 0, so batch.weights are not uniform; the null head must still take
    # the plain row mean and the class head the mean over label-1 rows
    _, _, sched, batch = _setup_batch(beta=2.0, n=32)
    assert np.ptp(batch.weights) > 1e-3
    labels = (Rng(20).uniform(size=32) < 0.4).astype(np.int64)
    model = MlpModel.init(1, 1, Rng(21), hidden=(8,), embed_dim=4, context_dim=2)
    lu, lc, _ = loss_cfg_pair(model, batch, labels, sched)
    sq = {}
    for head, token in (("null", [1.0, 0.0]), ("class", [0.0, 1.0])):
        pred = forward(model, batch.x_t, batch.times, context=np.tile(token, (32, 1)))
        sq[head] = ((pred - batch.eps) ** 2).sum(axis=1)
    assert lu == pytest.approx(sq["null"].mean(), rel=1e-12)
    assert lc == pytest.approx(sq["class"][labels == 1].mean(), rel=1e-12)


def test_cfg_pair_requires_two_token_context():
    model = MlpModel.init(1, 1, Rng(13), hidden=(8,), embed_dim=4)
    _, _, sched, batch = _setup_batch(n=8)
    with pytest.raises(ValueError, match="context"):
        loss_cfg_pair(model, batch, np.ones(8, dtype=int), sched)


def _exact_setup(grid_res=32):
    gmm = make_dataset("8gaussians")
    energy = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[4.0, 0.0], classifier=True)
    oracle = GuidedOracle(gmm, energy, PathSchedule.ot(), grid_res=grid_res)
    model = MlpModel.init(2, 2, Rng(14), hidden=(16,), embed_dim=8)
    return oracle, model


def _flat(grads):
    return np.concatenate([g.ravel() for g in grads[0] + grads[1]])


def test_exact_marginal_and_conditional_gradients_match():
    oracle, model = _exact_setup()
    t_nodes = [0.3, 0.6]
    for marg_fn, cond_fn in ((loss_efm_exact, loss_cefm_exact), (loss_ed_exact, loss_ced_exact)):
        lm, gm = marg_fn(model, oracle, t_nodes)
        lc, gc = cond_fn(model, oracle, t_nodes)
        fa, fb = _flat(gm), _flat(gc)
        rel = np.linalg.norm(fa - fb) / np.linalg.norm(fa)
        assert rel < 1e-5
        # loss values differ by the model-independent spread constant
        assert lc > lm - 1e-12


def test_marginal_exact_losses_take_one_kernel_pass_per_time(monkeypatch):
    oracle, model = _exact_setup()
    calls = []
    kernel = GuidedOracle._axis_log_kernels

    def counting(self, qs, *args):
        calls.append([len(q) for q in qs])
        return kernel(self, qs, *args)

    monkeypatch.setattr(GuidedOracle, "_axis_log_kernels", counting)
    # the node grid is its own query set: per time one (n, n) kernel per
    # axis, never one kernel row per node
    n = oracle.grid_res
    t_nodes = [0.25, 0.5, 0.75]
    for fn in (loss_efm_exact, loss_ed_exact):
        calls.clear()
        fn(model, oracle, t_nodes)
        assert calls == [[n, n]] * len(t_nodes)


@pytest.mark.parametrize("grid_res", [48, 56])
def test_exact_loss_blocks_are_bit_identical_to_one_block(monkeypatch, grid_res):
    # 48 is the acceptance-05 grid.  A budget of 20 kernel rows splits each
    # (n, n) per-axis kernel into three blocks: 16 rows each at 48, and at 56
    # near-equal blocks where a greedy split would leave a short last block of 16.
    oracle, model = _exact_setup(grid_res=grid_res)
    t_nodes = [0.25, 0.5, 0.75]
    fns = (loss_efm_exact, loss_cefm_exact, loss_ed_exact, loss_ced_exact)
    shipped = [fn(model, oracle, t_nodes) for fn in fns]
    splits, node_blocks = [], training.node_blocks

    def recorded(n_rows, n_nodes):
        blocks = list(node_blocks(n_rows, n_nodes))
        splits.append(len(blocks))
        return blocks

    monkeypatch.setattr(training, "node_blocks", recorded)
    monkeypatch.setattr(grids, "_BLOCK_BYTES", 8 * grid_res * 20)
    for fn, (loss, grads) in zip(fns, shipped):
        loss_split, grads_split = fn(model, oracle, t_nodes)
        assert loss == loss_split
        assert np.array_equal(_flat(grads), _flat(grads_split))
    assert splits and min(splits) >= 3


@pytest.mark.parametrize("t", [0.02, 0.35, 0.98])
def test_factored_kernel_moments_match_the_double_sum_over_node_pairs(t):
    # 16 x 12 nodes on a box that is not square, so a swapped axis or a wrong
    # ravel order cannot pass
    base = DensityGrid(-4.0, 4.0, -3.0, 3.0, Rng(16).uniform(0.5, 1.5, (12, 16))).normalized()
    node_set = quadrature_nodes(base, EnergySpec.quadratic([0.25, 0.25], 1.0, center=[2.0, 0.0]))
    x = node_set.points
    w = np.exp(node_set.log_mass)
    sched = PathSchedule.ot()
    mu, sig2 = float(sched.mu(t)), float(sched.sigma(t)) ** 2
    s0, s1, s2 = training._kernel_moments(node_set, w, mu, sig2)
    # probe x (rows) against node x0 (columns)
    d2 = ((x[:, None, :] - mu * x[None, :, :]) ** 2).sum(-1)
    r = np.exp(-0.5 * d2 / sig2) / (2.0 * np.pi * sig2) * w
    for got, want in ((s0, r.sum(1)), (s1, r @ x), (s2, r @ (x**2).sum(-1))):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _exact_setup_1d(kind, grid_res=32):
    energy = EnergySpec.linear([1.0], 1.0)
    sched = PathSchedule.ot() if kind == "ot" else PathSchedule.vp()
    oracle = GuidedOracle(make_dataset("gauss1d"), energy, sched, grid_res=grid_res)
    model = MlpModel.init(1, 1, Rng(17), hidden=(16,), embed_dim=8)
    return oracle, model


@pytest.mark.parametrize("kind", ["ot", "vp"])
def test_exact_marginal_and_conditional_gradients_match_in_1d(kind):
    oracle, model = _exact_setup_1d(kind)
    t_nodes = [0.05, 0.35, 0.75]
    for marg_fn, cond_fn in ((loss_efm_exact, loss_cefm_exact), (loss_ed_exact, loss_ced_exact)):
        fa = _flat(marg_fn(model, oracle, t_nodes)[1])
        fb = _flat(cond_fn(model, oracle, t_nodes)[1])
        assert np.linalg.norm(fa - fb) / np.linalg.norm(fa) < 1e-5


def test_exact_loss_blocks_are_bit_identical_to_one_block_in_1d(monkeypatch):
    # 1600 nodes on one axis: the conditional form's (N, N) axis kernel is
    # built in three row blocks, as is the marginal form's kernel
    oracle, model = _exact_setup_1d("ot", grid_res=40)
    n_nodes = len(oracle.nodes.points)
    t_nodes = [0.25, 0.5, 0.75]
    fns = (loss_efm_exact, loss_cefm_exact, loss_ed_exact, loss_ced_exact)
    assert len(list(grids.node_blocks(n_nodes, n_nodes))) == 3
    shipped = [fn(model, oracle, t_nodes) for fn in fns]
    monkeypatch.setattr(grids, "_BLOCK_BYTES", 8 * n_nodes * n_nodes)
    assert len(list(grids.node_blocks(n_nodes, n_nodes))) == 1
    for fn, (loss, grads) in zip(fns, shipped):
        loss_one, grads_one = fn(model, oracle, t_nodes)
        assert loss == loss_one
        assert np.array_equal(_flat(grads), _flat(grads_one))


def test_exact_flow_loss_beta_zero_is_plain_field_matching():
    gmm = make_dataset("bimodal2d")
    energy = EnergySpec.quadratic([0.25, 0.25], 0.0, center=[2.0, 0.0])
    oracle = GuidedOracle(gmm, energy, PathSchedule.ot(), grid_res=32)
    model = MlpModel.init(2, 2, Rng(15), hidden=(8,), embed_dim=4)
    t = 0.5
    loss, _ = loss_efm_exact(model, oracle, [t])
    # recompute by hand: weights p_t(x) dx, target = unguided marginal velocity
    nodes = oracle.nodes.points
    w = np.exp(oracle.marginal_logdensity(nodes, t, route="quad")) * oracle.nodes.cell_area
    target = oracle.guided_velocity(nodes, t, route="quad")
    pred = forward(model, nodes, np.full(len(nodes), t))
    want = float((w * ((pred - target) ** 2).sum(axis=1)).sum())
    assert loss == pytest.approx(want, rel=1e-10)


def test_train_density_model_deterministic():
    cfg = TrainConfig(
        dataset="gauss1d",
        loss="ced",
        sched=PathSchedule.vp(),
        energy=EnergySpec.linear([1.0], 1.0),
        steps=60,
        batch=32,
        lr=1e-3,
        seed=123,
        hidden=(16,),
        embed_dim=8,
        n_data=2048,
        log_every=20,
    )
    a = train_density_model(cfg)
    b = train_density_model(cfg)
    assert np.array_equal(a.model.flat_params(), b.model.flat_params())
    assert [r[:2] for r in a.log_rows] == [r[:2] for r in b.log_rows]


def _drop_workspace(monkeypatch):
    """Run training.forward_cached without the workspace it is handed; returns
    the list of the workspaces it was handed, None where there was none."""
    handed, real = [], training.forward_cached

    def fresh(*args, workspace=None, **kwargs):
        handed.append(workspace)
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "forward_cached", fresh)
    return handed


@pytest.mark.parametrize("loss", training.LOSS_KINDS)
def test_training_loop_workspace_is_bit_identical_to_fresh_buffers(monkeypatch, loss):
    # cfg's step makes two loss_ced calls that share the one workspace
    energy = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[2.0, 0.0], classifier=True)
    cfg = TrainConfig(
        dataset="bimodal2d", loss=loss, sched=PathSchedule.vp(), energy=energy, steps=40,
        batch=64, lr=1e-3, seed=5, hidden=(16, 16), embed_dim=8, n_data=1024, beta_max=2.0,
        log_every=10,
    )
    shipped = train_density_model(cfg)
    handed = _drop_workspace(monkeypatch)
    fresh = train_density_model(cfg)
    assert len(handed) == cfg.steps * (2 if loss == "cfg" else 1)
    assert len({id(ws) for ws in handed}) == 1 and handed[0] is not None
    assert np.array_equal(shipped.model.params, fresh.model.params)
    assert [r[:2] for r in shipped.log_rows] == [r[:2] for r in fresh.log_rows]


def test_training_loop_does_not_refault_its_buffers():
    # The 64x64/e32, batch-512 recipe of acceptance 01/02/11.  Fresh (512, 64)
    # activation buffers every step were unmapped and faulted in again by the
    # allocator: 0.56 minor faults per row.  Steps 51..250 are counted, after
    # the first steps have grown the heap.  The child runs BLAS on one thread,
    # as the benchmark does; with two BLAS threads the loop reads 0.0 too,
    # since backward builds its SiLU' products in the cache's activations
    # (0.19 per row while they were fresh (512, 64) arrays).
    code = """
import resource
from ewflow import training
from ewflow.energies import EnergySpec
from ewflow.paths import PathSchedule

warm, counted, batch = 50, 200, 512
cfg = training.TrainConfig(
    dataset="gauss1d", loss="ced", sched=PathSchedule.vp(),
    energy=EnergySpec.linear([1.0], 1.0), steps=warm + counted, batch=batch, lr=5e-4,
    seed=1, hidden=(64, 64), embed_dim=32, n_data=65_536,
)
real, reads = training.adam_step, []

def step(*args):
    real(*args)
    if args[0].step in (warm, warm + counted):
        reads.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

training.adam_step = step
training.train_density_model(cfg)
print((reads[1] - reads[0]) / (counted * batch))
"""
    src = str(Path(ewflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.split()[-1]) < 0.05


def test_train_config_validation():
    with pytest.raises(ValueError, match="unknown loss"):
        TrainConfig(dataset="gauss1d", loss="nope", sched=PathSchedule.ot())
    with pytest.raises(ValueError, match="energy"):
        TrainConfig(dataset="gauss1d", loss="cefm", sched=PathSchedule.ot())
    with pytest.raises(ValueError, match="classifier"):
        TrainConfig(
            dataset="gauss1d",
            loss="cfg",
            sched=PathSchedule.ot(),
            energy=EnergySpec.linear([1.0], 1.0),
        )
    for field in ("steps", "log_every"):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            TrainConfig(dataset="gauss1d", loss="cfm", sched=PathSchedule.ot(), **{field: 0})
