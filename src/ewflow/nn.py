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
allocates that layout up front.  backward builds each SiLU' product over
its layer's pre-activation, which nothing reads after.

The layer loop and backward's chain of SiLU' products run on row blocks.  A
Workspace carries running lanes.Lanes, and forward_cached and backward then
give each lane a block of rows; a plain dict, or none, is one block on the
calling thread, the same code.  Every buffer a lane writes is allocated on
the calling thread first: the workspace's rows, and a per-call scratch for
the per-row embedding's temporaries and each layer's upstream product.
Each weight gradient and bias sum is one call over all rows, so the result
is the one-lane result bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from itertools import zip_longest

import numpy as np

from .lanes import Lanes, blocks
from .rng import Rng

__all__ = [
    "MlpModel",
    "Workspace",
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


def time_embedding(
    t: np.ndarray, dim: int, out: np.ndarray | None = None, scratch: tuple | None = None
) -> np.ndarray:
    """Sinusoidal features [sin(a), cos(a)] of per-row t, a = t * freqs, freqs 1..1e4.

    Both come from one tangent of the half angle, u = tan(a/2): sin a =
    2u/(1 + u^2) and cos a = (1 - u^2)/(1 + u^2); numpy's float64 tan is
    vectorized where its sin and cos are not.  tan and the arithmetic run on
    three contiguous (rows, dim/2) temporaries, the scratch tuple (fresh when
    None); only the two divides write into out, an (rows, dim) array or
    column block, fresh when None.
    """
    if dim % 2 != 0:
        raise ValueError("embedding dimension must be even")
    half = dim // 2
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty((len(t), dim))
    u, sq, den = scratch or (np.empty((len(t), half)) for _ in range(3))
    half_freqs = 0.5 * 10.0 ** (4.0 * np.arange(half) / max(half - 1, 1))
    np.multiply(t[:, None], half_freqs, out=u)
    np.tan(u, out=u)
    np.square(u, out=sq)
    np.add(sq, 1.0, out=den)
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


class Workspace(dict):
    """A workspace whose forward_cached and backward calls split their rows
    over running Lanes; a plain dict is a workspace of one lane."""

    def __init__(self, lanes: Lanes):
        super().__init__()
        self.lanes = lanes


# Row lanes cut a call's rows into blocks that start at multiples of
# _LANE_ALIGN and hold at least _LANE_ROWS rows: OpenBLAS gives a block's rows
# of a product the bits of the whole call's only then.  Its gemv (one output
# column) takes rows in groups of 4, and the small-matrix kernel it uses for
# a (rows, 64) @ (64, 64)^T product of up to 18 rows rounds differently.
_LANE_ALIGN = 8
_LANE_ROWS = 64


def _buffer(workspace: dict | None, key: str, shape: tuple) -> np.ndarray:
    """The workspace's array for key at this shape, or a fresh one without a workspace."""
    if workspace is None:
        return np.empty(shape)
    buf = workspace.get(key)
    if buf is None or buf.shape != shape:
        buf = workspace[key] = np.empty(shape)
    return buf


def _scratch_rows(scratch: np.ndarray, lo: int, shape: tuple) -> np.ndarray:
    """The flat scratch of rows of scratch.shape[1] values, from row lo on,
    viewed as one contiguous array of this shape (at most the block's rows
    times that width)."""
    start = lo * scratch.shape[1]
    return scratch.reshape(-1)[start : start + math.prod(shape)].reshape(shape)


def _row_blocks(n: int, lanes: int) -> list[tuple[int, int]]:
    """The (lo, hi) row blocks of a call on this many lanes, as many as the rows allow."""
    return blocks(n, min(lanes, max(1, n // _LANE_ROWS)), _LANE_ALIGN)


def _lanes(workspace) -> Lanes | None:
    """The workspace's running lanes, None for one lane."""
    lanes = getattr(workspace, "lanes", None)
    return lanes if lanes is not None and lanes.count > 1 else None


def _embedded(v: np.ndarray, n: int, dim: int) -> np.ndarray:
    """A scalar's embedding, computed once as one row for every row, or the
    (n,) per-row values, embedded row block by row block."""
    if v.ndim == 0:
        return time_embedding(v.reshape(1), dim)
    return v if v.shape == (n,) else np.broadcast_to(v, (n,))


def _input_parts(model: MlpModel, x, t, context, beta_norm) -> list[tuple[int, np.ndarray]]:
    """Checked inputs as (first column, source) of each column block of the
    input [x, emb(t), context?, emb(beta)?]: an (n, width) source is copied
    row by row, a (1, width) one into every row, and an (n,) one holds
    per-row values to embed."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.in_dim:
        raise ValueError(f"input dim {x.shape[1]} != model in_dim {model.in_dim}")
    n, e = x.shape[0], model.embed_dim
    parts, col = [(0, x)], model.in_dim
    if e > 0:
        if t is None:
            raise ValueError("model embeds time; t is required")
        t = np.asarray(t, dtype=float)
        if not np.isfinite(t).all():
            raise ValueError("t must be finite")
        parts.append((col, _embedded(t, n, e)))
        col += e
    if model.context_dim > 0:
        if context is None:
            raise ValueError("model expects a context vector")
        context = np.asarray(context, dtype=float)
        if context.ndim == 1:  # one context for every row
            context = np.broadcast_to(context, (n, len(context)))
        if context.shape != (n, model.context_dim):
            raise ValueError(f"context shape {context.shape} != {(n, model.context_dim)}")
        parts.append((col, context))
        col += model.context_dim
    elif context is not None:
        raise ValueError("model takes no context")
    if model.accepts_beta:
        if beta_norm is None:
            raise ValueError("model conditions on beta; beta_norm is required")
        bn = np.asarray(beta_norm, dtype=float)
        if not np.all((bn >= 0) & (bn <= 1)):  # NaN fails both
            raise ValueError("beta_norm must lie in [0, 1]")
        parts.append((col, _embedded(bn, n, e)))
    elif beta_norm is not None:
        raise ValueError("model does not condition on beta")
    return parts


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
    loop, each forward_cached followed by its backward) pass one; a
    Workspace with lanes > 1 splits the rows of this call and of its
    backward over that many threads.  The cache refers to those buffers, so
    it holds only until the workspace's next call.  The output is always a
    fresh array that no later call touches.
    """
    return _layers(model, x, t, context, beta_norm, workspace, cached=True)


def _layers(model: MlpModel, x, t, context, beta_norm, workspace, cached: bool):
    """The one layer loop: (output, (activations, pre, sigmoids, workspace)),
    or (output, None) without a cache.

    Every buffer is allocated here, before the row blocks run on their lanes;
    each block writes only its own rows.
    """
    parts = _input_parts(model, x, t, context, beta_norm)
    n, e = len(parts[0][1]), model.embed_dim
    h = _buffer(workspace, "input", (n, model.input_width))
    pre, sigmoids, acts = [], [], []
    for w, (pre_key, sig_key, act_key) in zip(model.weights, _hidden_keys(model, cached)):
        pre.append(_buffer(workspace, pre_key, (n, w.shape[1])))
        sigmoids.append(_buffer(workspace, sig_key, (n, w.shape[1])))
        acts.append(_buffer(workspace, act_key, (n, w.shape[1])) if cached else sigmoids[-1])
    lanes = _lanes(workspace)
    scratch = None
    if lanes is not None and any(src.ndim == 1 for _, src in parts):
        # The lanes' embedding temporaries, allocated here on the calling
        # thread (one lane lets time_embedding allocate its own).  Three
        # arrays, not one block: one block puts u, sq and den a multiple of
        # 4 KiB apart, and the CPU stalls on false store-to-load aliasing.
        scratch = [np.empty((n, e // 2)) for _ in range(3)]
    # Never a workspace buffer: a Heun step still holds k1 while it computes k2.
    out = np.empty((n, model.out_dim))

    def rows(lo, hi):
        for col, src in parts:
            if src.ndim == 1:
                time_embedding(
                    src[lo:hi], e, out=h[lo:hi, col : col + e],
                    scratch=scratch and [a[lo:hi] for a in scratch],
                )
            else:
                h[lo:hi, col : col + src.shape[1]] = src if len(src) == 1 else src[lo:hi]
        a = h[lo:hi]
        for w, b, z, s, act in zip(model.weights, model.biases, pre, sigmoids, acts):
            z = np.matmul(a, w, out=z[lo:hi])
            z += b
            s = s[lo:hi]
            np.negative(z, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            a = np.multiply(z, s, out=act[lo:hi])
        y = np.matmul(a, model.weights[-1], out=out[lo:hi])
        y += model.biases[-1]
        if not np.isfinite(y).all():
            raise FloatingPointError("non-finite network output")

    if lanes is None:
        rows(0, n)
    else:
        lanes.run([partial(rows, lo, hi) for lo, hi in _row_blocks(n, lanes.count)])
    if not cached:
        return out, None
    return out, ([h, *acts, out], [*pre, out], sigmoids, workspace)


def _silu_grad(
    w: np.ndarray, g: np.ndarray, z: np.ndarray, s: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """(g @ w.T) * SiLU'(z), with SiLU'(z) = s (1 + z (1 - s)) from the forward
    pass's sigmoid s, built over z, which nothing reads after.

    d, an array of z's shape, first holds 1 - s while z and s are still to
    be read, then the product g @ w.T.
    """
    np.subtract(1.0, s, out=d)
    z *= d
    z += 1.0
    z *= s
    # np.dot: matmul does not hand a one-column g (out_dim 1) to BLAS
    z *= np.dot(g, w.T, out=d)
    return z


def backward(model: MlpModel, cache, upstream: np.ndarray) -> np.ndarray:
    """Gradient of sum(output * upstream) w.r.t. params, as one flat vector in its layout.

    Consumes the cache: each hidden layer's SiLU' product is built over that
    layer's pre-activation, so a cache serves one backward call.  Each
    weight gradient and bias sum is one call over all rows, so none depends
    on the lane count.  On one lane each follows its layer's output gradient
    while that is still in cache.  On the forward call's lanes, each lane
    first takes its rows down the whole chain of SiLU' products, then the
    lanes share out whole layers' sums.
    """
    activations, pre, sigmoids, workspace = cache
    g = np.atleast_2d(np.asarray(upstream, dtype=float))
    n, top = len(g), len(model.weights) - 1
    grad = np.empty(model.n_params)
    grads_w, grads_b = model.layer_views(grad)
    # each layer's output gradient: the hidden layers' SiLU' products, then the upstream
    layer_grads = pre[:top] + [g]
    # each hidden layer's upstream product, rows of a lane's block viewed at that layer's width
    scratch = np.empty((n, max(model.hidden, default=0)))

    def chain(lo, hi, layers):
        """From each layer i's output gradient, rows lo:hi of layer i - 1's."""
        for i in layers:
            z = pre[i - 1][lo:hi]
            d = _scratch_rows(scratch, lo, z.shape)
            _silu_grad(model.weights[i], layer_grads[i][lo:hi], z, sigmoids[i - 1][lo:hi], d)

    def reduce(layers):
        for i in layers:
            np.matmul(activations[i].T, layer_grads[i], out=grads_w[i])
            layer_grads[i].sum(axis=0, out=grads_b[i])

    lanes = _lanes(workspace)
    if lanes is None:
        for i in range(top, -1, -1):
            reduce([i])
            chain(0, n, [i] if i > 0 else [])
    else:
        spans = _row_blocks(n, lanes.count)
        lanes.run([partial(chain, lo, hi, range(top, 0, -1)) for lo, hi in spans])
        # layer j on lane j mod k: for 64 x 64, layer 1 on one lane, 0 and 2 on the other
        k = min(len(spans), top + 1)
        lanes.run([partial(reduce, range(j, top + 1, k)) for j in range(k)])
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
