"""Small fully-connected networks with hand-rolled reverse-mode gradients.

The architectures here are tiny and fixed, so the backward pass is written
layer by layer rather than through a general tape; every gradient is checked
against finite differences in the test suite.  The input is [x, emb(t),
context?, emb(beta)?], each part written into its column block of one input
buffer; the sinusoidal embeddings take sin and cos from one tangent of the
half angle.  One layer loop serves forward and forward_cached.  A
sampler call and a training loop each pass it one workspace, so that their
network evaluations reuse one set of activation buffers instead of faulting
in fresh ones; the output it returns is always fresh.

A workspace is a dict of (rows, width) buffers.  forward_cached keeps one
input buffer and a pre-activation, sigmoid and activation buffer per hidden
layer, since backward reads them all.  forward keeps no cache, so it holds
only the input and one pre-activation/sigmoid pair per distinct hidden
width, and writes each activation over its sigmoid; forward_workspace
allocates that layout up front.  backward builds each SiLU' product in the
activation buffer that the layer's weight gradient has already read.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import zip_longest

import numpy as np

from .rng import Rng

__all__ = [
    "MlpModel",
    "time_embedding",
    "forward",
    "forward_cached",
    "forward_workspace",
    "backward",
    "AdamState",
    "adam_step",
    "soft_update",
    "save_checkpoint",
    "load_checkpoint",
    "file_sha256",
]


def time_embedding(t: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sinusoidal features [sin(a), cos(a)] of per-row t, a = t * freqs, freqs 1..1e4.

    Both come from one tangent of the half angle, u = tan(a/2): sin a =
    2u/(1 + u^2) and cos a = (1 - u^2)/(1 + u^2); numpy's float64 tan is
    vectorized where its sin and cos are not.  tan and the arithmetic run on
    contiguous (rows, dim/2) temporaries; only the two divides write into out,
    an (rows, dim) array or column block, fresh when None.
    """
    if dim % 2 != 0:
        raise ValueError("embedding dimension must be even")
    half = dim // 2
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty((len(t), dim))
    half_freqs = 0.5 * 10.0 ** (4.0 * np.arange(half) / max(half - 1, 1))
    u = np.multiply(t[:, None], half_freqs)
    np.tan(u, out=u)
    sq = np.square(u)
    den = sq + 1.0
    u *= 2.0
    np.divide(u, den, out=out[:, :half])
    np.subtract(1.0, sq, out=sq)
    np.divide(sq, den, out=out[:, half:])
    return out


@dataclass
class MlpModel:
    """MLP over [x, emb(t), context?, emb(beta)?] with SiLU hidden layers.

    All parameters live in one float64 vector, params, laid out w0, b0, w1,
    b1, ... (the checkpoint blob's order); weights and biases are per-layer
    views into it, so writing through a view writes params.
    """

    in_dim: int
    out_dim: int
    hidden: tuple[int, ...] = (256, 256, 256)
    embed_dim: int = 64
    context_dim: int = 0
    accepts_beta: bool = False
    params: np.ndarray | None = None

    def __post_init__(self):
        if self.params is None:
            self.params = np.zeros(self.n_params)
        if self.params.shape != (self.n_params,):
            raise ValueError(f"params shape {self.params.shape} != ({self.n_params},)")
        self.weights, self.biases = self.layer_views(self.params)

    @property
    def input_width(self) -> int:
        return (
            self.in_dim
            + self.embed_dim
            + self.context_dim
            + (self.embed_dim if self.accepts_beta else 0)
        )

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_width, *self.hidden, self.out_dim]

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))

    def layout(self) -> list[dict]:
        """(name, shape, offset) of each weight and bias in the flat vector, in order."""
        entries, offset = [], 0
        sizes = self.layer_sizes
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            for name, shape in ((f"w{i}", [fan_in, fan_out]), (f"b{i}", [fan_out])):
                entries.append({"name": name, "shape": shape, "offset": offset})
                offset += math.prod(shape)
        return entries

    @cached_property
    def _spans(self) -> list[tuple[int, int, tuple]]:
        """(offset, size, shape) of each layout entry, built once per model."""
        return [(e["offset"], math.prod(e["shape"]), tuple(e["shape"])) for e in self.layout()]

    def layer_views(self, flat: np.ndarray) -> tuple[list, list]:
        """Per-layer (weights, biases) views into a parameter-sized flat vector."""
        views = [flat[off : off + size].reshape(shape) for off, size, shape in self._spans]
        return views[0::2], views[1::2]

    @staticmethod
    def init(
        in_dim: int,
        out_dim: int,
        rng: Rng,
        hidden: tuple[int, ...] = (256, 256, 256),
        embed_dim: int = 64,
        context_dim: int = 0,
        accepts_beta: bool = False,
    ) -> "MlpModel":
        model = MlpModel(in_dim, out_dim, tuple(hidden), embed_dim, context_dim, accepts_beta)
        for w in model.weights:
            w[:] = rng.normal(w.shape) / np.sqrt(w.shape[0])
        return model

    def copy(self) -> "MlpModel":
        return replace(self, params=self.params.copy())

    def flat_params(self) -> np.ndarray:
        return self.params.copy()

    def arch(self) -> dict:
        """Every constructor field but params: what a checkpoint header records."""
        return {f.name: list(self.hidden) if f.name == "hidden" else getattr(self, f.name)
                for f in fields(self) if f.name != "params"}


def _buffer(workspace: dict | None, key: str, shape: tuple) -> np.ndarray:
    """The workspace's array for key at this shape, or a fresh one without a workspace."""
    if workspace is None:
        return np.empty(shape)
    buf = workspace.get(key)
    if buf is None or buf.shape != shape:
        buf = workspace[key] = np.empty(shape)
    return buf


def _embed_into(out: np.ndarray, v: np.ndarray) -> None:
    """Embed a scalar once and broadcast it to every row of out, or embed per-row values."""
    if v.ndim == 0:
        out[:] = time_embedding(v.reshape(1), out.shape[1])
    else:
        time_embedding(np.broadcast_to(v, (len(out),)), out.shape[1], out=out)


def _assemble_input(model: MlpModel, x, t, context, beta_norm, workspace) -> np.ndarray:
    """Write [x, emb(t), context?, emb(beta)?] into the input buffer, column block by block."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.in_dim:
        raise ValueError(f"input dim {x.shape[1]} != model in_dim {model.in_dim}")
    n, e = x.shape[0], model.embed_dim
    h = _buffer(workspace, "input", (n, model.input_width))
    h[:, : model.in_dim] = x
    col = model.in_dim
    if e > 0:
        if t is None:
            raise ValueError("model embeds time; t is required")
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("t must be finite")
        _embed_into(h[:, col : col + e], t)
        col += e
    if model.context_dim > 0:
        if context is None:
            raise ValueError("model expects a context vector")
        context = np.asarray(context, dtype=float)
        if context.ndim == 1:  # one context for every row
            context = np.broadcast_to(context, (n, len(context)))
        if context.shape != (n, model.context_dim):
            raise ValueError(f"context shape {context.shape} != {(n, model.context_dim)}")
        h[:, col : col + model.context_dim] = context
        col += model.context_dim
    elif context is not None:
        raise ValueError("model takes no context")
    if model.accepts_beta:
        if beta_norm is None:
            raise ValueError("model conditions on beta; beta_norm is required")
        bn = np.asarray(beta_norm, dtype=float)
        if not np.all((bn >= 0) & (bn <= 1)):  # NaN fails both
            raise ValueError("beta_norm must lie in [0, 1]")
        _embed_into(h[:, col:], bn)
    elif beta_norm is not None:
        raise ValueError("model does not condition on beta")
    return h


def _hidden_keys(model: MlpModel, cached: bool) -> list[tuple]:
    """Workspace keys of each hidden layer: (pre-activation, sigmoid, activation).

    With a cache every layer has its own three; without one, layers of one
    width share a pre-activation/sigmoid pair, and the activation overwrites
    the sigmoid (no key of its own).
    """
    if cached:
        return [(f"pre{i}", f"sigmoid{i}", f"act{i}") for i in range(len(model.hidden))]
    return [(f"pre:{w}", f"sigmoid:{w}", None) for w in model.hidden]


def forward_workspace(model: MlpModel, rows: int) -> dict:
    """A workspace for forward calls on this many rows, its buffers allocated now.

    Allocating them on the thread that keeps the workspace keeps them in that
    thread's heap; forward fills the same layout lazily from an empty dict.
    """
    workspace = {"input": np.empty((rows, model.input_width))}
    for width, (pre, sig, _) in zip(model.hidden, _hidden_keys(model, cached=False)):
        workspace[pre] = np.empty((rows, width))
        workspace[sig] = np.empty((rows, width))
    return workspace


def forward(
    model: MlpModel, x, t=None, context=None, beta_norm=None, workspace=None
) -> np.ndarray:
    """Network output for rows x; see forward_cached for t, beta_norm and workspace.

    Keeps no cache, so a workspace holds only the input and one
    pre-activation/sigmoid pair per distinct hidden width.
    """
    return _layers(model, x, t, context, beta_norm, workspace, cached=False)[0]


def forward_cached(model: MlpModel, x, t=None, context=None, beta_norm=None, workspace=None):
    """Forward pass returning (output, cache) for a subsequent backward call.

    t and beta_norm are scalars, embedded once for all rows, or per-row arrays;
    context is one (d,) vector for all rows, or (n, d).
    The input columns and each hidden layer's pre-activation, sigmoid and
    activation go into buffers of the optional workspace (a dict, reused by
    every call with the same row count), or into fresh arrays without one.
    Sampler calls (one workspace per ODE solve) and training loops (one per
    loop, each forward_cached followed by its backward) pass one.  The cache
    refers to those buffers, so it holds only until the workspace's next
    call.  The output is always a fresh array that no later call touches.
    """
    return _layers(model, x, t, context, beta_norm, workspace, cached=True)


def _layers(model: MlpModel, x, t, context, beta_norm, workspace, cached: bool):
    """The one layer loop: (output, (activations, pre, sigmoids)), the lists
    empty unless cached."""
    h = _assemble_input(model, x, t, context, beta_norm, workspace)
    n = h.shape[0]
    activations, pre, sigmoids = [h], [], []
    layers = zip(model.weights[:-1], model.biases[:-1], _hidden_keys(model, cached))
    for w, b, (pre_key, sig_key, act_key) in layers:
        z = np.matmul(h, w, out=_buffer(workspace, pre_key, (n, w.shape[1])))
        z += b
        s = _buffer(workspace, sig_key, z.shape)
        np.negative(z, out=s)
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        h = np.multiply(z, s, out=_buffer(workspace, act_key, z.shape) if cached else s)
        if cached:
            pre.append(z)
            sigmoids.append(s)
            activations.append(h)
    # Never a workspace buffer: a Heun step still holds k1 while it computes k2.
    h = h @ model.weights[-1]
    h += model.biases[-1]
    if cached:
        pre.append(h)
        activations.append(h)
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("non-finite network output")
    return h, (activations, pre, sigmoids)


def _silu_grad(g: np.ndarray, z: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g * SiLU'(z), with SiLU'(z) = s (1 + z (1 - s)) from the forward pass's
    sigmoid s, built in out, a (rows, width) array the caller no longer needs."""
    np.subtract(1.0, s, out=out)
    out *= z
    out += 1.0
    out *= s
    out *= g
    return out


def backward(model: MlpModel, cache, upstream: np.ndarray) -> np.ndarray:
    """Gradient of sum(output * upstream) w.r.t. params, as one flat vector in its layout.

    Consumes the cache: each hidden layer's SiLU' product is built in that
    layer's activation, which the next layer's weight gradient has already
    read, so a cache serves one backward call.
    """
    activations, pre, sigmoids = cache
    g = np.atleast_2d(np.asarray(upstream, dtype=float))
    grad = np.empty(model.n_params)
    grads_w, grads_b = model.layer_views(grad)
    for i in range(len(model.weights) - 1, -1, -1):
        if i != len(model.weights) - 1:
            g = _silu_grad(g, pre[i], sigmoids[i], out=activations[i + 1])
        np.matmul(activations[i].T, g, out=grads_w[i])
        g.sum(axis=0, out=grads_b[i])
        if i > 0:
            # np.dot: matmul does not hand a one-column g (out_dim 1) to BLAS
            g = np.dot(g, model.weights[i].T)
    return grad


@dataclass
class AdamState:
    """Adam moments m and v in the parameter vector's layout."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    @staticmethod
    def for_model(model: MlpModel, lr: float = 1e-4) -> "AdamState":
        return AdamState(lr=lr, m=np.zeros(model.n_params), v=np.zeros(model.n_params))


def adam_step(state: AdamState, model: MlpModel, grad: np.ndarray) -> None:
    """Bias-corrected Adam update of model.params from a flat gradient, in place."""
    if grad.shape != model.params.shape:
        raise ValueError(f"gradient shape {grad.shape} != {model.params.shape}")
    state.step += 1
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grad**2
    model.params -= state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + state.eps)


def soft_update(target: MlpModel, online: MlpModel, lam: float) -> None:
    """Polyak average: target <- (1 - lam) target + lam online, in place."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    target.params *= 1.0 - lam
    target.params += lam * online.params


def save_checkpoint(model: MlpModel, path, meta: dict | None = None) -> None:
    """JSON header line + little-endian float32 parameter blob.

    The header's "layout" lists (name, shape, offset-in-floats) in blob order.
    """
    header = {
        "format": "ewflow-mlp-v1",
        "arch": model.arch(),
        "dtype": "<f4",
        "n_params": model.n_params,
        "layout": model.layout(),
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(model.params.astype("<f4").tobytes())


def load_checkpoint(path):
    """Returns (model, meta).  The header's layout must be the architecture's own."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = np.frombuffer(fh.read(), dtype="<f4")
    if header.get("format") != "ewflow-mlp-v1":
        raise ValueError(f"unrecognized checkpoint format in {path}")
    arch = header["arch"]
    model = MlpModel(**{**arch, "hidden": tuple(arch["hidden"])})
    if header["n_params"] != model.n_params or len(blob) != model.n_params:
        raise ValueError(
            f"checkpoint parameter count {len(blob)} does not match architecture "
            f"({model.n_params} expected)"
        )
    for i, (want, got) in enumerate(zip_longest(model.layout(), header["layout"])):
        if want != got:
            raise ValueError(
                f"checkpoint layout entry {i} is {got}; the architecture implies {want}"
            )
    model.params[:] = blob
    return model, header.get("meta", {})


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
