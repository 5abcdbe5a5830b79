"""Q-weighted iterative policy refinement on analytically tractable tasks.

The linear-Gaussian bandit has behavior N(0, I) and Q(x, a) = w . a.  Each
refinement round multiplies the current policy by exp(beta Q) and refits,
compounding the guidance scale, so after r rounds the target policy is
N(r * beta * w, I) in the limit of an infinite support set.  qipo_iterate
tilts a finite support instead (per state, the dataset action plus M policy
draws weighted by softmax(beta Q)), whose target falls short of that limit:
for w = 1, beta = 1 and M = 16 the means after rounds 1, 2 and 3 are 0.874,
1.641 and 2.326; a single round with M = 128 gives 0.980.  The chain MDP
provides a tabular fixed point for the in-support softmax Q-learning backup.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .lanes import Lanes, blocks
from .metrics import sliced_wasserstein
from .nn import (
    AdamState,
    MlpModel,
    Workspace,
    adam_step,
    backward,
    forward,
    forward_cached,
    forward_workspace,
    soft_update,
)
from .paths import T_EPS, PathSchedule, perturb
from .rng import Rng
from .sampling import model_velocity_fn, sample_ode
from .training import WeightedBatch, batch_softmax, build_weighted_batch, loss_ced, loss_cefm

__all__ = [
    "OfflineDataset",
    "BanditSpec",
    "ChainMdpSpec",
    "make_bandit_dataset",
    "make_chain_dataset",
    "soft_value_iteration",
    "behavior_pretrain",
    "sample_policy_actions",
    "build_support_set",
    "support_weights",
    "q_learning_step",
    "train_q",
    "QipoConfig",
    "qipo_iterate",
]


@dataclass
class OfflineDataset:
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray

    def __post_init__(self):
        n = len(self.states)
        for name in ("actions", "rewards", "next_states"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length != number of states")
        if not all(
            np.all(np.isfinite(getattr(self, f)))
            for f in ("states", "actions", "rewards", "next_states")
        ):
            raise ValueError("dataset entries must be finite")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]


@dataclass(frozen=True)
class BanditSpec:
    """One-step task: behavior N(0, I), Q(x, a) = w . a, state is a vacuous scalar."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))

    @property
    def action_dim(self) -> int:
        return len(self.w)

    def q_values(self, states, actions) -> np.ndarray:
        return np.asarray(actions, dtype=float) @ self.w

    def target_mean(self, cycles: int, beta: float) -> np.ndarray:
        """Policy mean after the given number of complete refinement cycles.

        This is the infinite-support limit; with M support draws per state the
        estimator's own target lies below it (M = 16, beta = 1, w = 1: 0.874,
        1.641 and 2.326 after cycles 1, 2 and 3, against 1, 2 and 3).
        """
        return cycles * beta * self.w

    def target_samples(self, cycles: int, beta: float, rng: Rng, n: int) -> np.ndarray:
        return self.target_mean(cycles, beta)[None, :] + rng.normal((n, self.action_dim))


def make_bandit_dataset(spec: BanditSpec, n: int, rng: Rng) -> OfflineDataset:
    actions = rng.normal((n, spec.action_dim))
    states = np.zeros((n, 1))
    rewards = spec.q_values(states, actions)
    return OfflineDataset(states, actions, rewards, states.copy())


@dataclass(frozen=True)
class ChainMdpSpec:
    """Deterministic line of states; action 0 steps left, action 1 steps right.

    Reward 1 for pushing right at the rightmost state, else 0; discounted,
    non-terminating.
    """

    n_states: int = 5
    gamma: float = 0.9

    @property
    def n_actions(self) -> int:
        return 2

    def step(self, s, a) -> tuple[np.ndarray, np.ndarray]:
        """Next states and rewards, elementwise over state and action indices."""
        s, right = np.asarray(s), np.asarray(a) == 1
        s2 = np.clip(np.where(right, s + 1, s - 1), 0, self.n_states - 1)
        return s2, ((s == self.n_states - 1) & right).astype(float)

    def one_hot(self, s) -> np.ndarray:
        return np.eye(self.n_states)[s]

    def action_one_hot(self, a) -> np.ndarray:
        return np.eye(self.n_actions)[a]


def make_chain_dataset(spec: ChainMdpSpec, repeats: int, rng: Rng) -> OfflineDataset:
    """Every (state, action) pair, repeated; uniform behavior coverage."""
    n_pairs = spec.n_states * spec.n_actions
    s, a = divmod(rng.permutation(n_pairs * repeats) % n_pairs, spec.n_actions)
    nxt, rew = spec.step(s, a)
    return OfflineDataset(spec.one_hot(s), spec.action_one_hot(a), rew, spec.one_hot(nxt))


def soft_value_iteration(spec: ChainMdpSpec, beta: float):
    """Fixed point of Q(s,a) = r + gamma * sum_a' softmax(beta Q(s',.)) Q(s',.),
    to a sup-norm step below 1e-12 within 100,000 sweeps."""
    s2, r = spec.step(*np.indices((spec.n_states, spec.n_actions)))
    q = np.zeros((spec.n_states, spec.n_actions))
    for _ in range(100_000):
        w = support_weights(q, beta)
        # A dot product per state; (w * q).sum(axis=1) rounds differently.
        v = (w[:, None, :] @ q[:, :, None])[:, 0, 0]
        q_new = r + spec.gamma * v[s2]
        if np.abs(q_new - q).max() < 1e-12:
            return q_new
        q = q_new
    raise RuntimeError("soft value iteration did not converge")


# ------------------------------------------------------------------ policies


# Conditional matching of a | x by policy kind: the noise target for a score
# policy, the conditional velocity for a velocity policy.
_POLICY_LOSS = {"score": loss_ced, "velocity": loss_cefm}


def behavior_pretrain(
    dataset: OfflineDataset,
    sched: PathSchedule,
    rng: Rng,
    kind: str = "score",
    hidden: tuple[int, ...] = (64, 64),
    embed_dim: int = 32,
    steps: int = 10_000,
    batch: int = 512,
    lr: float = 5e-4,
) -> MlpModel:
    """Unweighted conditional matching of the behavior policy a | x."""
    if kind not in _POLICY_LOSS:
        raise ValueError("policy kind must be 'score' or 'velocity'")
    model = MlpModel.init(
        dataset.action_dim, dataset.action_dim, rng.derive(0),
        hidden=hidden, embed_dim=embed_dim, context_dim=dataset.state_dim,
    )
    adam = AdamState.for_model(model, lr=lr)
    srng = rng.derive(1)
    workspace: dict = {}
    for _ in range(steps):
        b = build_weighted_batch(dataset.actions, None, sched, srng, batch)
        _, grad = _POLICY_LOSS[kind](
            model, b, sched, context=dataset.states[b.idx], workspace=workspace
        )
        adam_step(adam, model, grad)
    return model


def sample_policy_actions(
    model: MlpModel,
    kind: str,
    sched: PathSchedule,
    states: np.ndarray,
    rng: Rng,
    n_per_state: int = 1,
    ode_steps: int = 15,
    workspace: dict | None = None,
) -> np.ndarray:
    """(len(states), n_per_state, action_dim) draws through the flow ODE; the
    solve's network evaluations share the workspace (a new one when None)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    reps = np.repeat(states, n_per_state, axis=0)
    vfn = model_velocity_fn(model, {"model_kind": kind}, sched, context=reps, workspace=workspace)
    out = sample_ode(vfn, sched, len(reps), model.out_dim, rng, steps=ode_steps)
    return out.reshape(len(states), n_per_state, model.out_dim)


def build_support_set(
    model: MlpModel,
    kind: str,
    sched: PathSchedule,
    states: np.ndarray,
    dataset_actions: np.ndarray,
    m: int,
    rng: Rng,
    ode_steps: int = 15,
    workspace: dict | None = None,
) -> np.ndarray:
    """(B, M+1, action_dim): slot 0 is the dataset action, then M policy draws."""
    if m < 1:
        raise ValueError("support size M must be >= 1")
    sampled = sample_policy_actions(model, kind, sched, states, rng, m, ode_steps, workspace)
    return np.concatenate([dataset_actions[:, None, :], sampled], axis=1)


def support_weights(q_values: np.ndarray, beta: float) -> np.ndarray:
    """Per-state softmax of beta * Q over the support axis."""
    return batch_softmax(-np.asarray(q_values, dtype=float), beta)


# ------------------------------------------------------------------ Q-learning


def q_forward(qnet: MlpModel, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    return forward(qnet, np.concatenate([states, actions], axis=1))[:, 0]


def q_learning_step(
    qnet: MlpModel,
    q_target: MlpModel,
    adam: AdamState,
    batch: dict,
    support_next: np.ndarray,
    beta: float,
    gamma: float,
    lam_soft: float,
) -> float:
    """TD regression toward r + gamma * softmax-weighted target-network value.

    support_next holds candidate next-state actions (B, M', da); the target
    network supplies their values and receives a Polyak update afterwards.
    """
    states, actions = batch["states"], batch["actions"]
    rewards, next_states = batch["rewards"], batch["next_states"]
    b, m_sup, da = support_next.shape
    flat_states = np.repeat(next_states, m_sup, axis=0)
    q_next = q_forward(q_target, flat_states, support_next.reshape(-1, da)).reshape(b, m_sup)
    w = support_weights(q_next, beta)
    v_next = (w * q_next).sum(axis=1)
    y = rewards + gamma * v_next

    inputs = np.concatenate([states, actions], axis=1)
    pred, cache = forward_cached(qnet, inputs)
    resid = pred[:, 0] - y
    loss = float((resid**2).mean())
    adam_step(adam, qnet, backward(qnet, cache, (2.0 * resid / b)[:, None]))
    soft_update(q_target, qnet, lam_soft)
    return loss


def train_q(
    dataset: OfflineDataset,
    next_actions: np.ndarray,
    beta: float,
    gamma: float,
    rng: Rng,
    steps: int,
    batch: int,
    lr: float,
    lam_soft: float,
) -> MlpModel:
    """Fit Q(s, a) by q_learning_step on uniform draws of the dataset's
    transitions.  next_actions (M', da) are the candidate next-state actions
    of the softmax backup, the same for every row."""
    qnet = MlpModel.init(
        dataset.state_dim + dataset.action_dim, 1, rng.derive(0), hidden=(64, 64), embed_dim=0
    )
    q_target = qnet.copy()
    adam = AdamState.for_model(qnet, lr=lr)
    srng = rng.derive(1)
    support = np.broadcast_to(next_actions, (batch, *next_actions.shape))
    for _ in range(steps):
        idx = srng.integers(0, len(dataset), batch)
        rows = {
            key: getattr(dataset, key)[idx]
            for key in ("states", "actions", "rewards", "next_states")
        }
        q_learning_step(qnet, q_target, adam, rows, support, beta, gamma, lam_soft)
    return qnet


# ----------------------------------------------------------------------- QIPO

# A renewal whose support actions average more than this many times the
# dataset's mean |a| (at least 1) stops the run as diverged.
DIVERGENCE_FACTOR = 10.0


@dataclass
class QipoConfig:
    beta: float = 1.0
    m_support: int = 16
    k_renew: int = 10
    k3: int = 100
    batch: int = 128
    lr: float = 1e-4
    lambda_soft: float = 0.005
    ode_steps: int = 15
    eval_every: int = 5
    eval_n: int = 4000
    policy_kind: str = "score"

    def __post_init__(self):
        for name in ("m_support", "k_renew", "k3", "batch", "eval_every", "eval_n", "ode_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.lambda_soft <= 1.0:
            raise ValueError(f"lambda_soft must lie in [0, 1], got {self.lambda_soft}")
        if self.policy_kind not in _POLICY_LOSS:
            raise ValueError(f"unknown policy kind {self.policy_kind!r} (score|velocity)")


def _openblas_threads() -> int | None:
    """The thread count that the OpenBLAS numpy loaded reports, or None when
    no such library is found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            threads = getattr(lib, name, None)
            if threads is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                return int(threads())
    return None


def _blas_threads(cores: int) -> int:
    """Threads one BLAS call uses: what the loaded OpenBLAS reports, else its
    environment as OpenBLAS reads it (OPENBLAS_NUM_THREADS, then
    OPENBLAS_DEFAULT_NUM_THREADS, GOTO_NUM_THREADS, OMP_NUM_THREADS; unset
    means every core)."""
    threads = _openblas_threads()
    if threads is None:
        threads = cores
        for var in ("OPENBLAS_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS",
                    "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            value = os.environ.get(var, "").strip()
            if value.isdigit() and int(value) > 0:
                threads = int(value)
                break
    return max(1, min(threads, cores))


def _support_lanes(n_batches: int) -> int:
    """Threads that renew a support and run the fit: one per batch, at most the
    usable cores over the BLAS threads per call (one lane when BLAS already
    spreads over every core, where more lanes gained nothing)."""
    cores = len(os.sched_getaffinity(0))
    return max(1, min(n_batches, cores // _blas_threads(cores)))


def _draw_supports(policy, cfg, sched, dataset, batches, rngs, lanes, epoch, action_scale):
    """Each batch's build_support_set, checked for divergence.

    Lane j draws one contiguous block of batches, each on its own stream
    rngs[bi], through its own forward workspace; lane 0 is the calling
    thread.  The workspaces are allocated here, before any worker starts, so
    their buffers come from the calling thread's heap.  A lane stops at its
    first failed batch, and Lanes.run re-raises the failure of the earliest
    lane, so the first batch to fail raises, as in a serial loop.
    """
    spans = blocks(len(batches), lanes.count)
    rows = len(batches[0]) * cfg.m_support
    workspaces = [forward_workspace(policy, rows) for _ in spans]
    drawn: list = [None] * len(batches)
    limit = DIVERGENCE_FACTOR * max(action_scale, 1.0)

    def lane(j, lo, hi):
        for bi in range(lo, hi):
            idx = batches[bi]
            acts = build_support_set(
                policy, cfg.policy_kind, sched, dataset.states[idx], dataset.actions[idx],
                cfg.m_support, rngs[bi], ode_steps=cfg.ode_steps, workspace=workspaces[j],
            )
            scale = float(np.abs(acts[:, 1:, :]).mean())
            if scale > limit:
                raise RuntimeError(
                    f"support actions diverged at epoch {epoch}: mean |a| = {scale:.3g} "
                    f"exceeds {DIVERGENCE_FACTOR}x the dataset scale {action_scale:.3g}"
                )
            drawn[bi] = acts

    lanes.run([partial(lane, j, lo, hi) for j, (lo, hi) in enumerate(spans)])
    return drawn


@dataclass
class QipoResult:
    policy: MlpModel
    eval_rows: list
    support_renewals: int


def qipo_iterate(
    policy: MlpModel,
    q_fn,
    dataset: OfflineDataset,
    sched: PathSchedule,
    cfg: QipoConfig,
    rng: Rng,
    spec: BanditSpec,
) -> QipoResult:
    """Iterative Q-weighted refinement with periodic support renewal.

    Support actions come from a Polyak-averaged copy of the policy (refreshed
    every cfg.k_renew epochs); times and noise are redrawn every epoch while
    support actions and their guidance weights are reused between renewals.
    q_fn(states, actions) supplies values for the guidance softmax; spec
    gives each evaluation row its analytic target.

    Renewal and fit share one set of lanes (_support_lanes: one per batch, at
    most the usable cores over the BLAS threads per call), run by
    one lanes.Lanes.  A renewal deals its batches out in contiguous blocks,
    each batch on its own stream and checked for divergence in its lane;
    q_fn and the guidance softmax then run on the calling thread in batch
    order.  Each fit step's forward_cached and backward split its rows over
    the lanes through the fit's Workspace, and every gradient sum stays one
    call over all rows.  So the result does not depend on the lane count,
    and every lane has ended when this returns or raises.
    """
    n = len(dataset)
    order = rng.derive(0).permutation(n)
    n_batches = max(n // cfg.batch, 1)
    batches = [order[i * cfg.batch : (i + 1) * cfg.batch] for i in range(n_batches)]
    policy_target = policy.copy()
    adam = AdamState.for_model(policy, lr=cfg.lr)
    action_scale = max(float(np.abs(dataset.actions).mean()), 1e-6)

    support: list[tuple[np.ndarray, np.ndarray]] = []
    eval_rows = []
    renewals = 0
    epoch_rng = rng.derive(1)
    with Lanes(_support_lanes(len(batches))) as lanes:
        # The fit's activation buffers, its rows split over the renewal's
        # lanes; emptied before every sampler call (support renewal and
        # evaluation), so they never coexist with a sampler's own.
        workspace = Workspace(lanes)
        for k in range(1, cfg.k3 + 1):
            if (k - 1) % cfg.k_renew == 0:
                # Renew every batch's support before this epoch's fits, so every
                # batch's support comes from the same averaged policy; each batch
                # draws from its own stream, epoch_rng.derive(k, bi).
                workspace.clear()
                renewals += 1
                drawn = _draw_supports(
                    policy_target, cfg, sched, dataset, batches,
                    [epoch_rng.derive(k, bi) for bi in range(len(batches))], lanes, k, action_scale,
                )
                support = []
                for idx, acts in zip(batches, drawn):
                    qv = q_fn(
                        np.repeat(dataset.states[idx], cfg.m_support + 1, axis=0),
                        acts.reshape(-1, acts.shape[-1]),
                    ).reshape(len(idx), cfg.m_support + 1)
                    support.append((acts, support_weights(qv, cfg.beta)))
            for idx, (acts, g) in zip(batches, support):
                states = dataset.states[idx]
                bsz, m1, da = acts.shape
                flat_a = acts.reshape(-1, da)
                flat_s = np.repeat(states, m1, axis=0)
                t = epoch_rng.uniform(T_EPS, 1.0 - T_EPS, bsz * m1)
                a_t, eps = perturb(sched, flat_a, t, epoch_rng)
                fit_batch = WeightedBatch(flat_a, g.ravel() / bsz, t, eps, a_t)
                _, grad = _POLICY_LOSS[cfg.policy_kind](
                    policy, fit_batch, sched, context=flat_s, workspace=workspace
                )
                adam_step(adam, policy, grad)
                soft_update(policy_target, policy, cfg.lambda_soft)
            if k % cfg.eval_every == 0 or k == cfg.k3:
                workspace.clear()
                eval_rows.append(
                    _eval_row(policy, cfg, sched, dataset, spec, k, renewals, rng.derive(2, k))
                )
    return QipoResult(policy, eval_rows, renewals)


def _eval_row(policy, cfg, sched, dataset, spec, epoch, cycles, rng):
    """Draws of the online policy at one epoch; cycles is the number of support
    renewals so far, i.e. the number of tilts the policy is being fitted to."""
    eval_state = np.zeros((1, dataset.state_dim))
    draws = sample_policy_actions(
        policy, cfg.policy_kind, sched, eval_state, rng, cfg.eval_n, ode_steps=cfg.ode_steps
    )[0]
    ref = spec.target_samples(cycles, cfg.beta, rng.derive(0), cfg.eval_n)
    return {
        "epoch": epoch,
        "policy_mean": draws.mean(axis=0),
        "analytic_target": spec.target_mean(cycles, cfg.beta),
        "sw_distance": sliced_wasserstein(draws, ref, rng=rng.derive(1)),
        "cycles": cycles,
    }
