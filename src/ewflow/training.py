"""Training objectives and the training loop.

Per-sample weights follow the batch-softmax rule: within a batch the weight
of sample i is softmax_i(-beta E(x0_i)), a self-normalized estimate of
exp(-beta E) / E[exp(-beta E)].  It is biased at finite batch size; the
exact-quadrature losses below serve as the unbiased reference.

Conventions: velocity networks emit the velocity directly and their losses
carry time weight 1.  Score networks emit a noise prediction n(x, t) that
defines the score as -n / sigma_t, and score losses carry time weight
sigma_t^2, so the optimized quantity is the plain noise MSE
sum_i g_i ||n(x_t_i) - eps_i||^2; the raw score regression with unit time
weight is numerically intractable near the data end where the target
-eps / sigma blows up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .datasets import make_dataset
from .energies import EnergySpec
from .grids import node_blocks
from .mixtures import gmm_sample
from .nn import AdamState, MlpModel, adam_step, backward, forward_cached
from .oracle import GuidedOracle
from .paths import T_EPS, PathSchedule, cond_velocity, perturb, velocity_from_score
from .rng import Rng
from .sampling import CTX_COND, CTX_NULL

__all__ = [
    "WeightedBatch",
    "LOSS_KINDS",
    "batch_softmax",
    "build_weighted_batch",
    "loss_cfm",
    "loss_cefm",
    "loss_ced",
    "loss_cfg_pair",
    "loss_efm_exact",
    "loss_cefm_exact",
    "loss_ed_exact",
    "loss_ced_exact",
    "make_classifier_labels",
    "TrainConfig",
    "TrainResult",
    "train_density_model",
]

# loss -> what the network emits: a velocity, a noise prediction ("score"), or
# the noise predictions of a null-token and a class-token head ("cfg_pair").
_MODEL_KIND = {
    "cfm": "velocity", "cefm": "velocity", "ced": "score", "cfg": "cfg_pair",
    "ced_beta_input": "score",
}
LOSS_KINDS = tuple(_MODEL_KIND)


def batch_softmax(energies: np.ndarray, beta: float) -> np.ndarray:
    """softmax(-beta * E) over the last axis (the batch); invariant to shifting
    E by a constant."""
    e = np.asarray(energies, dtype=float)
    if not np.all(np.isfinite(e)):
        raise ValueError("energies must be finite")
    logits = -beta * e
    logits = logits - logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=-1, keepdims=True)


@dataclass
class WeightedBatch:
    x0: np.ndarray
    weights: np.ndarray
    times: np.ndarray
    eps: np.ndarray
    x_t: np.ndarray
    idx: np.ndarray | None = None  # the data rows drawn; None for a batch built by hand


def build_weighted_batch(
    data: np.ndarray,
    energy: EnergySpec | None,
    sched: PathSchedule,
    rng: Rng,
    batch_size: int,
    beta: float | None = None,
) -> WeightedBatch:
    """Uniform draw of batch points, softmax guidance weights, perturbed inputs."""
    if batch_size < 2:
        raise ValueError("softmax weighting needs a batch of at least 2")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    idx = rng.integers(0, len(data), batch_size)
    x0 = data[idx]
    if energy is None:
        e = np.zeros(batch_size)
        b = 0.0
    else:
        e = np.asarray(energy(x0), dtype=float)
        b = energy.beta if beta is None else float(beta)
    g = batch_softmax(e, b)
    t = rng.uniform(T_EPS, 1.0 - T_EPS, batch_size)
    x_t, eps = perturb(sched, x0, t, rng)
    return WeightedBatch(x0, g, t, eps, x_t, idx)


def _weighted_field_loss(
    model: MlpModel, inputs, targets, weights, t, context=None, beta_norm=None, workspace=None
):
    """(loss, flat gradient) of sum_i w_i ||net(inputs_i) - target_i||^2.

    A training loop passes its one workspace (see forward_cached); the
    backward pass runs before the call returns, so the next call may reuse it.
    """
    pred, cache = forward_cached(
        model, inputs, t, context=context, beta_norm=beta_norm, workspace=workspace
    )
    resid = pred - targets
    loss = float((weights * (resid**2).sum(axis=1)).sum())
    upstream = 2.0 * weights[:, None] * resid
    return loss, backward(model, cache, upstream)


def loss_cfm(model: MlpModel, batch: WeightedBatch, sched: PathSchedule, workspace=None):
    """Unweighted conditional flow matching (mean over the batch)."""
    target = cond_velocity(sched, batch.x_t, batch.x0, batch.times)
    uniform = np.full(len(batch.x0), 1.0 / len(batch.x0))
    return _weighted_field_loss(
        model, batch.x_t, target, uniform, batch.times, workspace=workspace
    )


def loss_cefm(
    model: MlpModel, batch: WeightedBatch, sched: PathSchedule, context=None, workspace=None
):
    """Energy-weighted conditional flow matching: weights on per-datum velocities."""
    target = cond_velocity(sched, batch.x_t, batch.x0, batch.times)
    return _weighted_field_loss(
        model, batch.x_t, target, batch.weights, batch.times, context, workspace=workspace
    )


def loss_ced(
    model: MlpModel, batch: WeightedBatch, sched: PathSchedule, beta_norm=None, context=None,
    workspace=None,
):
    """Energy-weighted denoising score matching in noise-prediction form.

    Per sample this is sigma_t^2 * g_i * ||s_theta(x_t) + eps/sigma_t||^2 with
    s_theta = -n_theta / sigma_t, i.e. g_i * ||n_theta(x_t) - eps||^2.
    """
    return _weighted_field_loss(
        model, batch.x_t, batch.eps, batch.weights, batch.times, context, beta_norm, workspace
    )


def make_classifier_labels(data: np.ndarray, energy: EnergySpec, rng: Rng) -> np.ndarray:
    """Binary labels with P(c=1 | x) = exp(-E(x)); requires a classifier energy."""
    p = energy.prob_c(data)
    return (rng.uniform(size=len(data)) < p).astype(np.int64)


def loss_cfg_pair(
    model: MlpModel, batch: WeightedBatch, labels: np.ndarray, sched: PathSchedule,
    workspace=None,
):
    """loss_ced for the null-token and class-token passes of one network.

    The unconditional term weights every sample 1/n, whatever batch.weights
    holds; the conditional term weights the label-1 subset uniformly.
    Returns (loss_uncond, loss_cond, flat gradient).
    """
    if model.context_dim != 2:
        raise ValueError("classifier-pair training expects context_dim=2 (null/class tokens)")
    n = len(batch.x0)
    mask = labels.astype(float)
    loss_u, grad_u = loss_ced(
        model, replace(batch, weights=np.full(n, 1.0 / n)), sched, context=CTX_NULL,
        workspace=workspace,
    )
    loss_c, grad_c = loss_ced(
        model, replace(batch, weights=mask / max(mask.sum(), 1.0)), sched, context=CTX_COND,
        workspace=workspace,
    )
    return loss_u, loss_c, grad_u + grad_c


# ---------------------------------------------------------------------------
# Exact (quadrature) losses over the oracle's node set, returning (loss,
# (grads_w, grads_b)).  The marginal form (the guided field from the oracle) and
# the conditional form (the node grid contracted with its own per-axis kernels,
# Ky W Kx^T) differ by a model-independent constant but must have identical
# parameter gradients; sharing nothing beyond the node set, they check each other.
# ---------------------------------------------------------------------------


def _marginal_exact(model: MlpModel, oracle: GuidedOracle, t_nodes, kind: str):
    """Marginal-form loss on the node set; kind "velocity" or "score" picks the target.

    Weights q_t(x_n) dx and the guided score come from one oracle call per
    time node (GuidedOracle.node_logdensity_and_score).  q_t is normalized by
    the node set's own log Z, not the closed form, so the weights match the
    conditional form's Boltzmann node weights.
    """
    nodes = oracle.nodes
    total = 0.0
    acc = np.zeros(model.n_params)
    for t in t_nodes:
        log_q, score = oracle.node_logdensity_and_score(t)
        w = np.exp(log_q) * nodes.cell_area / len(t_nodes)
        if kind == "velocity":
            target = velocity_from_score(oracle.sched, nodes.points, score, t)
        else:
            target = -float(oracle.sched.sigma(t)) * score
        loss, grad = _weighted_field_loss(model, nodes.points, target, w, float(t))
        total += loss
        acc += grad
    return total, model.layer_views(acc)


def loss_efm_exact(model: MlpModel, oracle: GuidedOracle, t_nodes):
    """Marginal-form flow loss: weighted squared error against the guided field."""
    return _marginal_exact(model, oracle, t_nodes, "velocity")


def loss_ed_exact(model: MlpModel, oracle: GuidedOracle, t_nodes):
    """Marginal-form score loss in noise-prediction form.

    The network target is -sigma_t * (guided score), the image of the guided
    score under the package's score parameterization; weights carry the same
    sigma_t^2 time factor as loss_ced.
    """
    return _marginal_exact(model, oracle, t_nodes, "score")


def _kernel_moments(node_set, w: np.ndarray, mu: float, sig2: float):
    """(s0, s1, s2) at each node x: sums over the nodes x0 of
    w(x0) N(x; mu x0, sig2 I) times 1, x0 and |x0|^2.

    Each sum contracts a weight grid (W, W x0_a or W |x0|^2, with W = w on
    the (ny, nx) grid) with one kernel k[i, j] = N(g_i; mu g_j, sig2) per axis:
    Ky W Kx^T in 2D, K w in 1D.  Kernels are direct differences (an expanded
    square loses digits to cancellation) built in row blocks (node_blocks).
    Each block of kernel rows gives the rows of its product with the
    flattened grid, so no entry's sum depends on the split; as the columns
    of the product (grid @ kernel^T) they did.
    """
    out = np.stack([w, *(w * node_set.points.T), w * (node_set.points**2).sum(-1)])
    out = out.reshape(len(out), *[len(g) for g in reversed(node_set.axes)])
    for g in node_set.axes:  # contract the last (fastest) axis into a new first axis
        flat = out.reshape(-1, len(g))
        res = np.empty((len(g), len(flat)))
        for sl in node_blocks(len(g), len(g)):
            kern = np.exp(-0.5 * (g[sl, None] - mu * g) ** 2 / sig2) / np.sqrt(2.0 * np.pi * sig2)
            res[sl] = kern @ flat.T
        out = res.reshape(len(g), *out.shape[:-1])
    out = np.moveaxis(out, -1, 0).reshape(out.shape[-1], -1)
    return out[0], out[1:-1].T, out[-1]


def _conditional_exact(model: MlpModel, oracle: GuidedOracle, t_nodes, kind: str):
    """Double-quadrature conditional loss over (x0 nodes) x (x probes).

    Per-datum targets are affine in x0, so node sums reduce to zeroth, first,
    and second moments under the raw (non-log) Boltzmann-weighted kernel: separable
    contractions over the node grid's axes (_kernel_moments), not oracle calls.
    """
    node_set = oracle.nodes
    nodes, e = node_set.points, node_set.energy
    shifted = np.exp(node_set.log_mass) * np.exp(-oracle.energy.beta * (e - e.min()))
    w = shifted / shifted.sum() * node_set.cell_area  # mass_m exp(-beta E_m) dx / Z
    total = 0.0
    acc = np.zeros(model.n_params)
    for t in t_nodes:
        mu = float(oracle.sched.mu(t))
        sig2 = float(oracle.sched.sigma(t)) ** 2
        a_coef = float(oracle.sched.drift_coef(t))
        c_coef = float(oracle.sched.score_coef(t))
        s0, s1, s2 = _kernel_moments(node_set, w, mu, sig2)
        if kind == "velocity":
            # u(x|x0) = (a - c/sig2) x + (c mu / sig2) x0
            px = (a_coef - c_coef / sig2) * nodes
            k = c_coef * mu / sig2
        else:
            # noise-prediction target: eps(x|x0) = x/sigma - (mu/sigma) x0
            sig = np.sqrt(sig2)
            px = nodes / sig
            k = -mu / sig
        pred, cache = forward_cached(model, nodes, float(t))
        target_sum = px * s0[:, None] + k * s1
        const = (px**2).sum(-1) * s0 + 2.0 * k * (px * s1).sum(-1) + k**2 * s2
        loss = float(
            ((pred**2).sum(-1) * s0 - 2.0 * (pred * target_sum).sum(-1) + const).sum()
        ) / len(t_nodes)
        upstream = 2.0 * (pred * s0[:, None] - target_sum) / len(t_nodes)
        total += loss
        acc += backward(model, cache, upstream)
    return total, model.layer_views(acc)


def loss_cefm_exact(model: MlpModel, oracle: GuidedOracle, t_nodes):
    return _conditional_exact(model, oracle, t_nodes, "velocity")


def loss_ced_exact(model: MlpModel, oracle: GuidedOracle, t_nodes):
    return _conditional_exact(model, oracle, t_nodes, "score")


# --------------------------------------------------------------------- loop


@dataclass
class TrainConfig:
    dataset: str
    loss: str
    sched: PathSchedule
    energy: EnergySpec | None = None
    steps: int = 20_000
    batch: int = 256
    lr: float = 1e-4
    seed: int = 0
    hidden: tuple[int, ...] = (256, 256, 256)
    embed_dim: int = 64
    n_data: int = 100_000
    beta_max: float = 10.0
    log_every: int = 100

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}; expected one of {LOSS_KINDS}")
        if self.loss != "cfm" and self.energy is None:
            raise ValueError(f"loss {self.loss!r} requires an energy specification")
        if self.loss == "cfg" and not self.energy.classifier:
            raise ValueError("classifier-pair training requires a classifier energy")
        # a softmax-weighted batch needs two rows
        for name, low in (("steps", 1), ("log_every", 1), ("batch", 2)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.n_data < 1:
            raise ValueError(f"n_data must be >= 1, got {self.n_data}")
        if self.embed_dim < 0 or self.embed_dim % 2:
            raise ValueError(f"model.embed must be even and >= 0, got {self.embed_dim}")
        if self.loss == "ced_beta_input" and not self.beta_max > 0:
            raise ValueError(f"beta_max must be > 0 for loss ced_beta_input, got {self.beta_max:g}")


@dataclass
class TrainResult:
    model: MlpModel
    log_rows: list
    meta: dict


def train_density_model(cfg: TrainConfig) -> TrainResult:
    """Run the configured objective; deterministic given the seed."""
    rng = Rng(cfg.seed)
    gmm = make_dataset(cfg.dataset)
    dim = gmm.dim
    kind = _MODEL_KIND[cfg.loss]

    model = MlpModel.init(
        dim,
        dim,
        rng.derive(1),
        hidden=cfg.hidden,
        embed_dim=cfg.embed_dim,
        context_dim=2 if kind == "cfg_pair" else 0,
        accepts_beta=cfg.loss == "ced_beta_input",
    )
    adam = AdamState.for_model(model, lr=cfg.lr)

    data = gmm_sample(gmm, rng.derive(0), cfg.n_data)
    labels = make_classifier_labels(data, cfg.energy, rng.derive(3)) if kind == "cfg_pair" else None

    batch_rng = rng.derive(2)
    workspace: dict = {}  # activation buffers, reused by every step's forward_cached
    rows = []
    start = time.perf_counter()
    for step in range(1, cfg.steps + 1):
        # a beta-conditioned model draws its beta before the batch
        beta = float(batch_rng.uniform(0.0, cfg.beta_max)) if model.accepts_beta else None
        energy = None if kind == "cfg_pair" else cfg.energy
        batch = build_weighted_batch(data, energy, cfg.sched, batch_rng, cfg.batch, beta=beta)
        if kind == "cfg_pair":
            lu, lc, grad = loss_cfg_pair(
                model, batch, labels[batch.idx], cfg.sched, workspace=workspace
            )
            loss = lu + lc
        elif cfg.loss == "cfm":
            loss, grad = loss_cfm(model, batch, cfg.sched, workspace=workspace)
        elif kind == "velocity":
            loss, grad = loss_cefm(model, batch, cfg.sched, workspace=workspace)
        else:
            beta_norm = None if beta is None else beta / cfg.beta_max
            loss, grad = loss_ced(
                model, batch, cfg.sched, beta_norm=beta_norm, workspace=workspace
            )
        adam_step(adam, model, grad)
        if step % cfg.log_every == 0 or step == cfg.steps:
            rows.append((step, loss, (time.perf_counter() - start) * 1000.0))

    meta = {
        "model_kind": kind,
        "dataset": cfg.dataset,
        "loss": cfg.loss,
        "seed": cfg.seed,
        "beta": None if cfg.energy is None else cfg.energy.beta,
        "beta_max": cfg.beta_max if cfg.loss == "ced_beta_input" else None,
        "path": cfg.sched.config(),
    }
    return TrainResult(model, rows, meta)
