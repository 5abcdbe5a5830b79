import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ewflow import nn, rl, training
from ewflow.metrics import sliced_wasserstein
from ewflow.nn import AdamState, MlpModel, forward_workspace
from ewflow.paths import PathSchedule
from ewflow.rl import (
    BanditSpec,
    ChainMdpSpec,
    OfflineDataset,
    QipoConfig,
    behavior_pretrain,
    build_support_set,
    make_bandit_dataset,
    make_chain_dataset,
    q_forward,
    q_learning_step,
    qipo_iterate,
    sample_policy_actions,
    soft_value_iteration,
    support_weights,
    train_q,
)
from ewflow.rng import Rng

SCHED = PathSchedule.vp()


def test_bandit_dataset_shapes_and_rewards():
    spec = BanditSpec(w=[1.0, -2.0])
    ds = make_bandit_dataset(spec, 512, Rng(0))
    assert ds.actions.shape == (512, 2)
    assert np.allclose(ds.rewards, ds.actions @ np.array([1.0, -2.0]))


def test_behavior_pretrain_matches_behavior_moments():
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 8192, Rng(2))
    policy = behavior_pretrain(ds, SCHED, Rng(3), steps=10_000)
    acts = sample_policy_actions(policy, "score", SCHED, np.zeros((1, 1)), Rng(4), 4000)[0]
    assert abs(acts.mean()) < 0.05
    assert abs(acts.std() - 1.0) < 0.05


def test_behavior_pretrain_degenerate_single_action():
    n = 4096
    a_star = 0.7
    ds = OfflineDataset(np.zeros((n, 1)), np.full((n, 1), a_star), np.zeros(n), np.zeros((n, 1)))
    policy = behavior_pretrain(ds, SCHED, Rng(5), steps=5000)
    acts = sample_policy_actions(policy, "score", SCHED, np.zeros((1, 1)), Rng(6), 2000)[0]
    assert abs(acts.mean() - a_star) < 0.1
    assert acts.std() < 0.1


def test_behavior_pretrain_conditions_on_state():
    n = 8192
    rng = Rng(7)
    states = np.where(rng.uniform(size=(n, 1)) < 0.5, -1.0, 1.0)
    actions = 2.0 * states + 0.2 * rng.normal((n, 1))
    ds = OfflineDataset(states, actions, np.zeros(n), states.copy())
    policy = behavior_pretrain(ds, SCHED, Rng(8), steps=6000)
    lo = sample_policy_actions(policy, "score", SCHED, np.array([[-1.0]]), Rng(9), 1000)[0]
    hi = sample_policy_actions(policy, "score", SCHED, np.array([[1.0]]), Rng(10), 1000)[0]
    assert lo.mean() < -1.5 and hi.mean() > 1.5


def test_flow_policy_pretrain_works_too():
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 8192, Rng(11))
    sched = PathSchedule.ot()
    policy = behavior_pretrain(ds, sched, Rng(12), kind="velocity", steps=8000)
    acts = sample_policy_actions(policy, "velocity", sched, np.zeros((1, 1)), Rng(13), 2000)[0]
    assert abs(acts.mean()) < 0.08
    assert abs(acts.std() - 1.0) < 0.08


def test_support_set_layout_and_weights():
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 512, Rng(14))
    policy = behavior_pretrain(ds, SCHED, Rng(15), steps=800)
    states = ds.states[:8]
    acts = build_support_set(policy, "score", SCHED, states, ds.actions[:8], 4, Rng(16))
    assert acts.shape == (8, 5, 1)
    assert np.array_equal(acts[:, 0, :], ds.actions[:8])
    with pytest.raises(ValueError):
        build_support_set(policy, "score", SCHED, states, ds.actions[:8], 0, Rng(17))

    q = np.zeros((8, 5))
    assert np.allclose(support_weights(q, 2.0), 0.2)
    qv = spec.q_values(None, acts.reshape(-1, 1)).reshape(8, 5)
    w = support_weights(qv, 1.0)
    assert np.array_equal(w.argmax(axis=1), qv.argmax(axis=1))
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-9


def test_q_learning_td_targets():
    rng = Rng(18)
    qnet = MlpModel.init(2, 1, rng, hidden=(8,), embed_dim=0)
    q_target = qnet.copy()
    adam = AdamState.for_model(qnet, lr=0.0)  # inspect loss without moving
    batch = {
        "states": rng.normal((16, 1)),
        "actions": rng.normal((16, 1)),
        "rewards": rng.normal(16),
        "next_states": rng.normal((16, 1)),
    }
    support = rng.normal((16, 1, 1))  # single support action
    # gamma = 0: target is exactly the reward
    pred = q_forward(qnet, batch["states"], batch["actions"])
    want = float(((pred - batch["rewards"]) ** 2).mean())
    loss = q_learning_step(qnet, q_target, adam, batch, support, beta=3.0, gamma=0.0, lam_soft=0.0)
    assert loss == pytest.approx(want, rel=1e-12)
    # single support action: softmax weight 1, target r + gamma * Q_target
    qn = q_forward(q_target, batch["next_states"], support[:, 0, :])
    want_target = batch["rewards"] + 0.9 * qn
    pred = q_forward(qnet, batch["states"], batch["actions"])
    want = float(((pred - want_target) ** 2).mean())
    loss = q_learning_step(qnet, q_target, adam, batch, support, beta=3.0, gamma=0.9, lam_soft=0.0)
    assert loss == pytest.approx(want, rel=1e-12)


def test_soft_value_iteration_chain_properties():
    spec = ChainMdpSpec()
    q = soft_value_iteration(spec, beta=1.0)
    assert q.shape == (5, 2)
    # pushing right is better everywhere on this chain
    assert np.all(q[:, 1] > q[:, 0])
    # values increase toward the rewarding end
    assert np.all(np.diff(q[:, 1]) > 0)


def test_chain_q_learning_converges_to_soft_value_iteration():
    spec = ChainMdpSpec()
    q_star = soft_value_iteration(spec, beta=1.0)
    ds = make_chain_dataset(spec, repeats=64, rng=Rng(19))
    qnet = train_q(ds, np.eye(2), 1.0, spec.gamma, Rng(20), steps=8000, batch=128, lr=1e-3, lam_soft=0.05)
    states = spec.one_hot(np.repeat(np.arange(5), 2))
    actions = spec.action_one_hot(np.tile(np.arange(2), 5))
    q_learned = q_forward(qnet, states, actions).reshape(5, 2)
    assert np.abs(q_learned - q_star).max() < 0.05


def test_bandit_q_regression():
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 8192, Rng(21))
    qnet = train_q(ds, np.zeros((1, 1)), 0.0, 0.0, Rng(22), steps=4000, batch=256, lr=1e-3, lam_soft=0.005)
    probes = np.linspace(-2, 2, 9)[:, None]
    got = q_forward(qnet, np.zeros((9, 1)), probes)
    assert np.abs(got - probes[:, 0]).max() < 0.1


def test_qipo_beta_zero_stays_at_behavior():
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 2048, Rng(23))
    policy = behavior_pretrain(ds, SCHED, Rng(24), steps=4000)
    cfg = QipoConfig(beta=0.0, m_support=8, k_renew=10, k3=3, batch=128, lr=1e-4, eval_n=2000)
    res = qipo_iterate(policy, spec.q_values, ds, SCHED, cfg, Rng(25), spec=spec)
    assert abs(res.eval_rows[-1]["policy_mean"][0]) < 0.1


def test_qipo_one_shot_large_support_matches_single_tilt():
    # K_renew > K3: one renewal only.  With M = 128 the support estimator's
    # target is close to the exact exp(Q)-tilt N(1, 1) of the behavior but not
    # equal to it: its mean is 0.980 and its variance 0.981.  Exact draws of
    # that target score sliced-W 0.047 on average against this reference
    # (0.080 at most over 200 seeds), well inside the 0.1 band.
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 1024, Rng(26))
    policy = behavior_pretrain(ds, SCHED, Rng(27), steps=6000)
    cfg = QipoConfig(
        beta=1.0, m_support=128, k_renew=1000, k3=30, batch=64, lr=3e-4, eval_n=4000,
        eval_every=30,
    )
    res = qipo_iterate(policy, spec.q_values, ds, SCHED, cfg, Rng(28), spec=spec)
    draws = sample_policy_actions(
        res.policy, "score", SCHED, np.zeros((1, 1)), Rng(29), 4000
    )[0]
    ref = np.array([[1.0]]) + Rng(30).normal((4000, 1))
    assert res.support_renewals == 1
    assert sliced_wasserstein(draws, ref, rng=Rng(31)) < 0.1


def test_qipo_eval_rows_count_support_renewals():
    # K_renew > K3: every eval row follows the first and only renewal, so it
    # reports one cycle and the single-tilt target beta * w.
    spec = BanditSpec(w=[1.0, -0.5])
    ds = make_bandit_dataset(spec, 128, Rng(35))
    policy = behavior_pretrain(ds, SCHED, Rng(36), steps=300)
    cfg = QipoConfig(
        beta=0.5, m_support=2, k_renew=50, k3=4, batch=64, eval_every=2, eval_n=64
    )
    res = qipo_iterate(policy, spec.q_values, ds, SCHED, cfg, Rng(37), spec=spec)
    assert res.support_renewals == 1
    assert [row["epoch"] for row in res.eval_rows] == [2, 4]
    for row in res.eval_rows:
        assert row["cycles"] == res.support_renewals
        np.testing.assert_array_equal(row["analytic_target"], [0.5, -0.25])


def _record_workspaces(monkeypatch, drop: bool):
    """Wrap training.forward_cached, through which every policy fit runs: the
    list it returns collects the workspaces handed to it, and with drop the
    call runs on fresh buffers instead."""
    handed, real = [], training.forward_cached

    def recorded(*args, workspace=None, **kwargs):
        handed.append(workspace)
        return real(*args, **kwargs, workspace=None if drop else workspace)

    monkeypatch.setattr(training, "forward_cached", recorded)
    return handed


@pytest.mark.parametrize("kind", ["score", "velocity"])
def test_behavior_pretrain_workspace_is_bit_identical_to_fresh_buffers(monkeypatch, kind):
    ds = make_bandit_dataset(BanditSpec(w=[1.0, -0.5]), 256, Rng(40))
    run = lambda: behavior_pretrain(ds, SCHED, Rng(41), kind=kind, steps=30, batch=64)  # noqa: E731
    handed = _record_workspaces(monkeypatch, drop=False)
    shipped = run()
    assert len(handed) == 30 and handed[0] is not None
    assert all(ws is handed[0] for ws in handed)
    monkeypatch.undo()
    _record_workspaces(monkeypatch, drop=True)
    assert np.array_equal(shipped.params, run().params)


def test_qipo_fit_workspace_is_bit_identical_and_empty_while_sampling(monkeypatch):
    # k_renew < k3 renews the support twice; eval_every = 2 does not divide
    # k_renew = 3, so evaluations fall both on and between renewal epochs
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 96, Rng(42))
    policy = behavior_pretrain(ds, SCHED, Rng(43), steps=50, batch=64)
    cfg = QipoConfig(
        beta=1.0, m_support=3, k_renew=3, k3=5, batch=32, lr=1e-3, ode_steps=4,
        eval_every=2, eval_n=32,
    )
    handed = _record_workspaces(monkeypatch, drop=False)
    sample = rl.sample_policy_actions
    sampled_with = []

    def sample_checked(*args, **kwargs):
        # every sampler call, for support renewal or evaluation, finds the
        # fit's buffers freed
        sampled_with.append(len(handed[-1]) if handed else 0)
        return sample(*args, **kwargs)

    monkeypatch.setattr(rl, "sample_policy_actions", sample_checked)
    shipped = qipo_iterate(policy.copy(), spec.q_values, ds, SCHED, cfg, Rng(44), spec=spec)
    assert len(handed) == cfg.k3 * 3 and handed[0] is not None
    assert all(ws is handed[0] for ws in handed)
    # two renewals of three batches, evaluations at epochs 2, 4 and 5
    assert len(sampled_with) == 2 * 3 + 3 and set(sampled_with) == {0}
    monkeypatch.undo()
    _record_workspaces(monkeypatch, drop=True)
    fresh = qipo_iterate(policy.copy(), spec.q_values, ds, SCHED, cfg, Rng(44), spec=spec)
    assert np.array_equal(shipped.policy.params, fresh.policy.params)
    assert shipped.support_renewals == fresh.support_renewals == 2
    for a, b in zip(shipped.eval_rows, fresh.eval_rows, strict=True):
        assert a["epoch"] == b["epoch"] and a["sw_distance"] == b["sw_distance"]
        assert np.array_equal(a["policy_mean"], b["policy_mean"])


def _assert_renewal_diverges(monkeypatch):
    monkeypatch.setattr(rl, "DIVERGENCE_FACTOR", 1e-6)
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 512, Rng(32))
    policy = behavior_pretrain(ds, SCHED, Rng(33), steps=500)
    cfg = QipoConfig(beta=1.0, m_support=4, k3=2, batch=64)
    with pytest.raises(RuntimeError, match="diverged"):
        qipo_iterate(policy, spec.q_values, ds, SCHED, cfg, Rng(34), spec=spec)


def test_qipo_divergence_detector(monkeypatch):
    _assert_renewal_diverges(monkeypatch)


def _force_lanes(monkeypatch, lanes):
    monkeypatch.setattr(rl, "_support_lanes", lambda n_batches: min(lanes, n_batches))


def _lane_run(monkeypatch, lanes, kind="score"):
    """A small QIPO run on the given lane count: (result, recorded support
    weights, whether each support draw ran on the calling thread, whether
    each fit's per-row time embedding ran on it)."""
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 256, Rng(45))
    policy = behavior_pretrain(ds, SCHED, Rng(46), kind=kind, steps=100, batch=64)
    cfg = QipoConfig(
        beta=1.0, m_support=4, k_renew=2, k3=4, batch=64, lr=1e-3, ode_steps=5,
        eval_every=2, eval_n=64, policy_kind=kind,
    )
    weights_fn, build, embed = rl.support_weights, rl.build_support_set, nn.time_embedding
    weights, on_caller, fit_on_caller = [], set(), set()

    def recorded(q_values, beta):
        weights.append(weights_fn(q_values, beta))
        return weights[-1]

    def build_recorded(*args, **kwargs):
        on_caller.add(threading.current_thread() is threading.main_thread())
        return build(*args, **kwargs)

    def embed_recorded(t, *args, **kwargs):
        if len(t) > 1:  # the sampler embeds its scalar t once, as one row
            fit_on_caller.add(threading.current_thread() is threading.main_thread())
        return embed(t, *args, **kwargs)

    _force_lanes(monkeypatch, lanes)
    monkeypatch.setattr(rl, "support_weights", recorded)
    monkeypatch.setattr(rl, "build_support_set", build_recorded)
    monkeypatch.setattr(nn, "time_embedding", embed_recorded)
    result = qipo_iterate(policy, spec.q_values, ds, SCHED, cfg, Rng(47), spec=spec)
    monkeypatch.undo()
    return result, weights, on_caller, fit_on_caller


def test_qipo_support_lanes_are_bit_identical(monkeypatch):
    # The forced lane count drives the renewal and the fit: 320 fitted rows
    # per step, cut into 2 or 4 row blocks.
    before = threading.active_count()
    for kind in ("score", "velocity"):
        one, weights_one, on_caller_one, fit_one = _lane_run(monkeypatch, 1, kind)
        runs = [_lane_run(monkeypatch, 2, kind)]
        # four lanes on two cores, switching threads as often as the interpreter allows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs.append(_lane_run(monkeypatch, 4, kind))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert on_caller_one == fit_one == {True}
        for other, weights, on_caller, fit_on_caller in runs:
            assert on_caller == fit_on_caller == {True, False}
            assert np.array_equal(one.policy.params, other.policy.params)
            # two renewals of four batches, each weighed on the calling thread in batch order
            assert len(weights_one) == len(weights) == 8
            assert all(np.array_equal(a, b) for a, b in zip(weights_one, weights))
            for a, b in zip(one.eval_rows, other.eval_rows, strict=True):
                assert a["epoch"] == b["epoch"] and a["cycles"] == b["cycles"]
                assert a["sw_distance"] == b["sw_distance"]
                assert np.array_equal(a["policy_mean"], b["policy_mean"])


def test_qipo_divergence_detector_under_two_lanes(monkeypatch):
    _force_lanes(monkeypatch, 2)
    _assert_renewal_diverges(monkeypatch)


def test_a_worker_lanes_sampler_error_reaches_the_caller(monkeypatch):
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 256, Rng(48))
    policy = behavior_pretrain(ds, SCHED, Rng(49), steps=50, batch=64)
    cfg = QipoConfig(beta=1.0, m_support=2, k3=1, batch=64, ode_steps=3, eval_n=16)
    real = rl.sample_ode

    def poisoned(velocity_fn, *args, **kwargs):
        # only the worker lanes meet an infinite velocity
        if threading.current_thread() is not threading.main_thread():
            velocity_fn = lambda x, t: np.full_like(x, np.inf)  # noqa: E731
        return real(velocity_fn, *args, **kwargs)

    _force_lanes(monkeypatch, 2)
    monkeypatch.setattr(rl, "sample_ode", poisoned)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=r"non-finite state at ODE step 1/3"):
        qipo_iterate(policy, spec.q_values, ds, SCHED, cfg, Rng(50), spec=spec)
    assert threading.active_count() == before


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_fit_lanes_non_finite_output_reaches_the_caller(monkeypatch):
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 256, Rng(48))
    policy = behavior_pretrain(ds, SCHED, Rng(49), steps=50, batch=64)
    cfg = QipoConfig(beta=1.0, m_support=2, k3=1, batch=64, ode_steps=3, eval_n=16)
    real = nn.time_embedding

    def poisoned(t, *args, **kwargs):
        out = real(t, *args, **kwargs)
        # only the fit's worker lanes (per-row t) meet an infinite input
        if len(t) > 1 and threading.current_thread() is not threading.main_thread():
            out[:] = np.inf
        return out

    steps = []
    _force_lanes(monkeypatch, 2)
    monkeypatch.setattr(nn, "time_embedding", poisoned)
    monkeypatch.setattr(rl, "adam_step", lambda *args: steps.append(args))
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="non-finite network output"):
        qipo_iterate(policy, spec.q_values, ds, SCHED, cfg, Rng(50), spec=spec)
    assert threading.active_count() == before
    assert not steps  # the first fit step raised, not a later one on the calling thread


_BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"
)


@pytest.mark.parametrize(
    "cores, env, n_batches, lanes",
    [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 8, 2),
        (2, {"OMP_NUM_THREADS": "1"}, 8, 2),
        (2, {}, 8, 1),  # unset: BLAS already runs on every core
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 1),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 8, 1),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        (8, {"OPENBLAS_NUM_THREADS": "2"}, 8, 4),
        (2, {"GOTO_NUM_THREADS": "1"}, 8, 2),
        (2, {"OPENBLAS_DEFAULT_NUM_THREADS": "1"}, 8, 2),
        (2, {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 8, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OPENBLAS_DEFAULT_NUM_THREADS": "1"}, 8, 1),
    ],
)
def test_support_lane_rule(monkeypatch, cores, env, n_batches, lanes):
    # the environment fallback, read when no OpenBLAS is found
    monkeypatch.setattr(rl, "_openblas_threads", lambda: None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert rl._support_lanes(n_batches) == lanes


@pytest.mark.parametrize(
    "env",
    [
        {"GOTO_NUM_THREADS": "1"},
        {"OPENBLAS_DEFAULT_NUM_THREADS": "1"},
        {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"},
    ],
    ids=["goto", "openblas-default", "goto-over-omp"],
)
def test_lane_rule_takes_the_thread_count_openblas_runs(env):
    # Each of these starts OpenBLAS on one thread, so two cores give two lanes.
    code = (
        "import os; from ewflow import rl; "
        "os.sched_getaffinity = lambda pid: {0, 1}; "
        "print(rl._support_lanes(8))"
    )
    child = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    child["PYTHONPATH"] = str(Path(rl.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**child, **env}, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2"]


def test_qipo_fit_lanes_write_only_the_callers_buffers():
    # The benchmark's fit shape on two lanes, one BLAS thread: 8 batches of 128
    # states x 17 support actions, 2,176 rows per step.  The lanes write only
    # buffers that the calling thread allocated (workspace rows, per-lane
    # scratch).  So the fit steps after the first epoch fault nothing in, and
    # the worker threads' malloc arena does not grow while the fit runs: a
    # lane temporary allocated on a worker (a (1088, 64) product is 557 kB)
    # lands there and stays.  The arena is read from glibc's malloc_stats; the
    # renewal's own draws, which the worker lane returns, come before.
    code = """
import ctypes, os, re, resource
from ewflow import rl, training
from ewflow.paths import PathSchedule
from ewflow.rng import Rng

def worker_arena_bytes():
    stats = getattr(ctypes.CDLL(None), "malloc_stats", None)
    if stats is None:
        return 0
    r, w = os.pipe()
    saved = os.dup(2)
    os.dup2(w, 2)
    stats()
    os.dup2(saved, 2)
    os.close(w)
    os.close(saved)
    text = os.read(r, 1 << 16).decode()
    os.close(r)
    sizes = [int(v) for v in re.findall(r"system bytes\\s*=\\s*(\\d+)", text)]
    return sum(sizes[1:-1])  # every arena but the main one; the last line is the total

sched, spec = PathSchedule.vp(), rl.BanditSpec(w=[1.0])
ds = rl.make_bandit_dataset(spec, 1024, Rng(60))
policy = rl.behavior_pretrain(ds, sched, Rng(61), steps=20, batch=256)
cfg = rl.QipoConfig(m_support=16, k_renew=3, k3=3, batch=128, ode_steps=2, eval_every=3, eval_n=16)
rl._support_lanes = lambda n_batches: 2
faults, arena = [], []
real_step, real_forward = rl.adam_step, training.forward_cached

def forward(*args, **kwargs):
    if not arena:
        arena.append(worker_arena_bytes())
    return real_forward(*args, **kwargs)

def step(*args):
    real_step(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    if len(faults) == cfg.k3 * 8:
        arena.append(worker_arena_bytes())

training.forward_cached, rl.adam_step = forward, step
rl.qipo_iterate(policy, spec.q_values, ds, sched, cfg, Rng(62), spec=spec)
counted = len(faults) - 8 - 1
print((faults[-1] - faults[8]) / (counted * 128 * 17), arena[1] - arena[0])
"""
    env = dict(os.environ, PYTHONPATH=str(Path(rl.__file__).resolve().parents[1]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    faults_per_row, arena_growth = out.stdout.split()
    assert float(faults_per_row) < 0.05
    assert int(arena_growth) < 64 * 1024


def test_policy_draws_use_the_callers_workspace():
    spec = BanditSpec(w=[1.0])
    ds = make_bandit_dataset(spec, 64, Rng(51))
    policy = behavior_pretrain(ds, SCHED, Rng(52), steps=20, batch=64)
    states, m = ds.states[:8], 3
    workspace = forward_workspace(policy, len(states) * m)
    ids = {k: id(v) for k, v in workspace.items()}
    drawn = build_support_set(
        policy, "score", SCHED, states, ds.actions[:8], m, Rng(53), ode_steps=4,
        workspace=workspace,
    )
    assert {k: id(v) for k, v in workspace.items()} == ids
    fresh = build_support_set(policy, "score", SCHED, states, ds.actions[:8], m, Rng(53), ode_steps=4)
    assert np.array_equal(drawn, fresh)


def test_qipo_config_validation():
    for field in ("m_support", "k_renew", "k3", "batch", "eval_every", "eval_n", "ode_steps"):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            QipoConfig(**{field: 0})
    with pytest.raises(ValueError, match="policy kind"):
        QipoConfig(policy_kind="energy")
    with pytest.raises(ValueError, match=r"lambda_soft must lie in \[0, 1\], got 1.5"):
        QipoConfig(lambda_soft=1.5)
