import json
from types import SimpleNamespace

import numpy as np
import pytest

from ewflow import nn
from ewflow.nn import (
    AdamState,
    MlpModel,
    adam_step,
    backward,
    file_sha256,
    forward,
    forward_cached,
    forward_workspace,
    load_checkpoint,
    save_checkpoint,
    soft_update,
    time_embedding,
)
from ewflow.paths import T_EPS, PathSchedule
from ewflow.rng import Rng
from ewflow.sampling import SamplerConfig, generate


def test_zero_parameters_give_zero_output():
    model = MlpModel.init(2, 2, Rng(0), hidden=(16, 16), embed_dim=8)
    for w in model.weights:
        w[:] = 0.0
    out = forward(model, Rng(1).normal((5, 2)), np.full(5, 0.3))
    assert np.all(out == 0.0)


def test_parameter_count_formula():
    model = MlpModel.init(2, 2, Rng(0), hidden=(16, 16), embed_dim=8)
    sizes = [2 + 8, 16, 16, 2]
    want = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    assert model.n_params == want == len(model.flat_params())


def test_pure_linear_layer_is_matrix_multiply():
    model = MlpModel.init(3, 2, Rng(0), hidden=(), embed_dim=0)
    x = Rng(1).normal((7, 3))
    want = x @ model.weights[0] + model.biases[0]
    assert np.abs(forward(model, x) - want).max() < 1e-14


def test_output_depends_on_time():
    model = MlpModel.init(2, 2, Rng(2), hidden=(32,), embed_dim=16)
    x = Rng(3).normal((4, 2))
    a = forward(model, x, np.full(4, 0.2))
    b = forward(model, x, np.full(4, 0.8))
    assert np.linalg.norm(a - b) > 0


def test_time_embedding_shape_and_range():
    emb = time_embedding(np.array([0.0, 0.5, 1.0]), 64)
    assert emb.shape == (3, 64)
    assert np.abs(emb).max() <= 1.0
    with pytest.raises(ValueError):
        time_embedding(np.array([0.5]), 7)


def _sin_cos_embedding(t, dim, out=None):
    """np.sin and np.cos of t * freqs: the embedding that checkpoints written
    before the half-angle tangent were trained with."""
    half = dim // 2
    ang = np.asarray(t, dtype=float)[:, None] * 10.0 ** (4.0 * np.arange(half) / max(half - 1, 1))
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    if out is None:
        return emb
    out[:] = emb
    return out


def test_time_embedding_matches_sin_and_cos():
    t = np.concatenate([[0.0, T_EPS, 0.5, 1.0 - T_EPS, 1.0], Rng(50).uniform(0.0, 1.0, 10_000)])
    for dim in range(2, 129, 2):
        emb = time_embedding(t, dim)
        assert np.abs(emb - _sin_cos_embedding(t, dim)).max() <= 4.5e-16, dim
        assert np.abs(emb).max() <= 1.0, dim


def test_time_embedding_writes_into_a_column_block():
    t = Rng(51).uniform(0.0, 1.0, 37)
    wide = np.full((37, 50), 7.0)
    block = wide[:, 5:37]
    assert time_embedding(t, 32, out=block) is block
    assert np.array_equal(block, time_embedding(t, 32))
    assert np.all(wide[:, :5] == 7.0) and np.all(wide[:, 37:] == 7.0)


def test_old_checkpoints_move_by_rounding_only(tmp_path, monkeypatch):
    # A checkpoint trained with the np.sin/np.cos embedding, read back through
    # its float32 blob: forward and a Heun-15 draw under the half-angle
    # tangent stay within 1e-12 of the same under sin and cos (measured:
    # 6.7e-16 on outputs up to 2.3, 1.3e-15 on draws up to 5.7).
    rng = Rng(52)
    model = MlpModel.init(2, 2, rng, hidden=(64, 64), embed_dim=32, accepts_beta=True)
    for b in model.biases:
        b[:] = rng.normal(b.shape)
    save_checkpoint(model, tmp_path / "old.bin", meta={"model_kind": "velocity", "beta_max": 2.0})
    model, meta = load_checkpoint(tmp_path / "old.bin")
    x, t = Rng(53).normal((512, 2)), Rng(54).uniform(T_EPS, 1.0 - T_EPS, 512)
    cfg = SamplerConfig(kind="heun", steps=15, n=4000)

    def outputs():
        return (
            forward(model, x, t, beta_norm=0.5),
            generate(model, meta, PathSchedule.vp(), cfg, Rng(55), guidance_beta=1.0),
        )

    new_out, new_draws = outputs()
    monkeypatch.setattr(nn, "time_embedding", _sin_cos_embedding)
    old_out, old_draws = outputs()
    assert np.abs(new_out - old_out).max() <= 1e-12
    assert np.abs(new_draws - old_draws).max() <= 1e-12


def test_backward_matches_finite_differences():
    rng = Rng(4)
    model = MlpModel.init(2, 2, rng, hidden=(16, 16), embed_dim=8)
    x = rng.normal((6, 2))
    t = rng.uniform(0.1, 0.9, 6)
    up = rng.normal((6, 2))
    _, cache = forward_cached(model, x, t)
    gw, gb = model.layer_views(backward(model, cache, up))
    prng = Rng(5)
    h = 1e-4
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
        assert abs(fd - gw[li][r, c]) / max(abs(fd), 1e-6) < 1e-4
    # bias probe
    fd_b = None
    orig = model.biases[0][0]
    model.biases[0][0] = orig + h
    fp = float((forward(model, x, t) * up).sum())
    model.biases[0][0] = orig - h
    fm = float((forward(model, x, t) * up).sum())
    model.biases[0][0] = orig
    fd_b = (fp - fm) / (2 * h)
    assert abs(fd_b - gb[0][0]) / max(abs(fd_b), 1e-6) < 1e-4


def test_zero_upstream_zero_gradients():
    model = MlpModel.init(2, 2, Rng(6), hidden=(8,), embed_dim=4)
    _, cache = forward_cached(model, Rng(7).normal((3, 2)), np.full(3, 0.5))
    gw, gb = model.layer_views(backward(model, cache, np.zeros((3, 2))))
    assert all(np.all(g == 0) for g in gw) and all(np.all(g == 0) for g in gb)


def test_linear_gradient_is_outer_product():
    model = MlpModel.init(3, 2, Rng(8), hidden=(), embed_dim=0)
    x = Rng(9).normal((5, 3))
    up = Rng(10).normal((5, 2))
    _, cache = forward_cached(model, x)
    gw, gb = model.layer_views(backward(model, cache, up))
    assert np.abs(gw[0] - x.T @ up).max() < 1e-12
    assert np.abs(gb[0] - up.sum(axis=0)).max() < 1e-12


def test_adam_zero_gradient_is_noop():
    model = MlpModel.init(2, 1, Rng(11), hidden=(4,), embed_dim=2)
    before = model.flat_params().copy()
    st = AdamState.for_model(model, lr=1e-3)
    adam_step(st, model, np.zeros(model.n_params))
    assert np.array_equal(model.flat_params(), before)


def test_adam_first_step_magnitude():
    # from zero moments with constant gradient g the bias-corrected step is
    # -lr * g / (|g| + eps), i.e. about -lr * sign(g)
    model = MlpModel.init(1, 1, Rng(12), hidden=(), embed_dim=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.0
    st = AdamState.for_model(model, lr=1e-3)
    grad = np.zeros(model.n_params)
    gw, _ = model.layer_views(grad)
    gw[0][:] = 1.0
    adam_step(st, model, grad)
    assert model.weights[0][0, 0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_constant_gradient_reaches_sign_step():
    model = MlpModel.init(1, 1, Rng(13), hidden=(), embed_dim=0)
    st = AdamState.for_model(model, lr=1e-3)
    g = 0.37
    grad = np.zeros(model.n_params)
    model.layer_views(grad)[0][0][:] = g
    prev = model.weights[0][0, 0]
    for _ in range(500):
        prev = model.weights[0][0, 0]
        adam_step(st, model, grad)
    assert abs((prev - model.weights[0][0, 0]) - 1e-3) < 1e-5


def test_soft_update_examples():
    a = MlpModel.init(2, 2, Rng(14), hidden=(4,), embed_dim=2)
    b = MlpModel.init(2, 2, Rng(15), hidden=(4,), embed_dim=2)
    t = a.copy()
    soft_update(t, b, 1.0)
    assert np.array_equal(t.flat_params(), b.flat_params())
    t = a.copy()
    soft_update(t, b, 0.0)
    assert np.array_equal(t.flat_params(), a.flat_params())
    t = a.copy()
    t.weights[0][:] = 0.0
    online = a.copy()
    online.weights[0][:] = 1.0
    soft_update(t, online, 0.005)
    assert t.weights[0][0, 0] == pytest.approx(0.005)


def test_checkpoint_round_trip(tmp_path):
    model = MlpModel.init(2, 2, Rng(16), hidden=(8, 8), embed_dim=4, context_dim=3, accepts_beta=True)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path, meta={"model_kind": "score", "beta": 2.0})
    back, meta = load_checkpoint(path)
    assert meta["model_kind"] == "score" and meta["beta"] == 2.0
    assert back.arch() == model.arch()
    # parameters survive up to float32 quantization
    assert np.abs(back.flat_params() - model.flat_params()).max() < 1e-6
    x = Rng(17).normal((4, 2))
    ctx = Rng(18).normal((4, 3))
    a = forward(model, x, np.full(4, 0.4), context=ctx, beta_norm=np.full(4, 0.5))
    b = forward(back, x, np.full(4, 0.4), context=ctx, beta_norm=np.full(4, 0.5))
    assert np.abs(a - b).max() < 1e-5


def test_checkpoint_rejects_corrupt_blob(tmp_path):
    model = MlpModel.init(2, 2, Rng(19), hidden=(8,), embed_dim=4)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # truncate parameters
    with pytest.raises(ValueError, match="parameter count"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_layout_other_than_the_architectures(tmp_path):
    model = MlpModel.init(2, 2, Rng(24), hidden=(8, 8), embed_dim=4)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    header_line, blob = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    layout = header["layout"]
    layout[0]["shape"], layout[2]["shape"] = layout[2]["shape"], layout[0]["shape"]
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match=r"layout entry 0 .*'w0'"):
        load_checkpoint(path)


def test_checkpoint_bytes_match_the_recorded_digest(tmp_path):
    # The ewflow-mlp-v1 bytes of this model, recorded from the per-layer
    # writer; a rerun's checkpoint.bin is compared byte for byte, so the
    # format may not drift.
    rng = Rng(40)
    model = MlpModel.init(2, 2, rng, hidden=(8, 8), embed_dim=4, context_dim=3, accepts_beta=True)
    for b in model.biases:
        b[:] = rng.normal(b.shape)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path, meta={"model_kind": "score", "beta": 2.0})
    assert file_sha256(path) == "6f1db73094d10bae2c5a1950a81b5fbd75a58cca9b2b2816bdc649d4aa721f61"


def test_training_determinism_bit_identical():
    def run():
        model = MlpModel.init(2, 2, Rng(20), hidden=(16,), embed_dim=8)
        st = AdamState.for_model(model, lr=1e-3)
        data_rng = Rng(21)
        for _ in range(50):
            x = data_rng.normal((32, 2))
            t = data_rng.uniform(0.1, 0.9, 32)
            target = data_rng.normal((32, 2))
            out, cache = forward_cached(model, x, t)
            adam_step(st, model, backward(model, cache, 2 * (out - target) / 32))
        return model.flat_params()

    assert np.array_equal(run(), run())


def test_input_validation():
    model = MlpModel.init(2, 2, Rng(22), hidden=(8,), embed_dim=4, context_dim=2)
    x = np.zeros((3, 2))
    with pytest.raises(ValueError, match="context"):
        forward(model, x, np.full(3, 0.5))
    with pytest.raises(ValueError, match="beta"):
        forward(model, x, np.full(3, 0.5), context=np.zeros((3, 2)), beta_norm=np.full(3, 0.5))
    no_ctx = MlpModel.init(2, 2, Rng(23), hidden=(8,), embed_dim=4)
    with pytest.raises(ValueError, match="dim"):
        forward(no_ctx, np.zeros((3, 5)), np.full(3, 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_t_is_refused(bad):
    model = MlpModel.init(2, 2, Rng(25), hidden=(8,), embed_dim=4)
    with pytest.raises(ValueError, match="t must be finite"):
        forward(model, np.zeros((3, 2)), bad)
    with pytest.raises(ValueError, match="t must be finite"):
        forward(model, np.zeros((3, 2)), np.array([0.5, bad, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
def test_beta_norm_outside_the_unit_interval_is_refused(bad):
    model = MlpModel.init(2, 2, Rng(26), hidden=(8,), embed_dim=4, accepts_beta=True)
    with pytest.raises(ValueError, match=r"beta_norm must lie in \[0, 1\]"):
        forward(model, np.zeros((3, 2)), 0.5, beta_norm=bad)
    with pytest.raises(ValueError, match=r"beta_norm must lie in \[0, 1\]"):
        forward(model, np.zeros((3, 2)), 0.5, beta_norm=np.array([0.5, bad, 0.5]))


def test_one_context_row_for_many_rows_is_refused():
    # one context for all rows is a (d,) vector; a (1, d) row is not broadcast
    model = MlpModel.init(2, 2, Rng(24), hidden=(8,), embed_dim=4, context_dim=3)
    with pytest.raises(ValueError, match=r"context shape \(1, 3\) != \(5, 3\)"):
        forward(model, np.zeros((5, 2)), 0.5, context=np.zeros((1, 3)))


def _reference_forward_cached(model, x, t, context, beta_norm):
    """Forward pass written out op by op: per-row embeddings, one concatenated
    input, z = h @ w + b and SiLU z * 1/(1 + exp(-z)), with nothing reused."""
    n = len(x)
    parts = [x, time_embedding(np.broadcast_to(t, (n,)), model.embed_dim)]
    if context is not None:
        parts.append(np.broadcast_to(context, (n, model.context_dim)))
    if beta_norm is not None:
        parts.append(time_embedding(np.broadcast_to(beta_norm, (n,)), model.embed_dim))
    h = np.concatenate(parts, axis=1)
    activations, pre = [h], []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        pre.append(z)
        h = z if i == len(model.weights) - 1 else z * (1.0 / (1.0 + np.exp(-z)))
        activations.append(h)
    return h, activations, pre


def _reference_backward(model, activations, pre, upstream):
    """Reverse pass that recomputes each sigmoid from the pre-activation."""
    g = upstream
    grads_w, grads_b = [None] * len(model.weights), [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        if i != len(model.weights) - 1:
            s = 1.0 / (1.0 + np.exp(-pre[i]))
            g = g * (s * (1.0 + pre[i] * (1.0 - s)))
        grads_w[i] = activations[i].T @ g
        grads_b[i] = g.sum(axis=0)
        if i > 0:
            g = g @ model.weights[i].T
    return grads_w, grads_b


def _conditioned_model(embed_dim, context_dim, accepts_beta, seed=30):
    rng = Rng(seed)
    model = MlpModel.init(
        2, 2, rng, hidden=(16, 16), embed_dim=embed_dim,
        context_dim=context_dim, accepts_beta=accepts_beta,
    )
    for b in model.biases:
        b[:] = rng.normal(b.shape)
    return model


@pytest.mark.parametrize("beta_kind", ["none", "scalar", "rows"])
@pytest.mark.parametrize("context_kind", ["none", "shared", "vector", "rows"])
@pytest.mark.parametrize("embed_dim", [8, 32, 64])
def test_workspace_forward_is_bit_identical_to_fresh_path(embed_dim, context_kind, beta_kind):
    n = 9
    model = _conditioned_model(embed_dim, 0 if context_kind == "none" else 3, beta_kind != "none")
    x = Rng(31).normal((n, 2)) * 2.0
    context = {
        "none": None,
        "shared": np.broadcast_to(Rng(32).normal(3), (n, 3)),
        "vector": Rng(32).normal(3),
        "rows": Rng(33).normal((n, 3)),
    }[context_kind]
    beta_norm = {"none": None, "scalar": 0.7, "rows": Rng(34).uniform(0.0, 1.0, n)}[beta_kind]
    workspace = {}
    for t in (1.0 - T_EPS, 0.5, T_EPS, Rng(35).uniform(T_EPS, 1.0 - T_EPS, n)):
        want = _reference_forward_cached(model, x, t, context, beta_norm)[0]
        fresh = forward(model, x, t, context=context, beta_norm=beta_norm)
        reused = forward(model, x, t, context=context, beta_norm=beta_norm, workspace=workspace)
        assert np.array_equal(fresh, want)
        assert np.array_equal(reused, want)


def test_workspace_output_is_not_overwritten_by_the_next_call():
    model = _conditioned_model(8, 0, False)
    workspace = {}
    first = forward(model, Rng(36).normal((5, 2)), 0.9, workspace=workspace)
    kept = first.copy()
    second = forward(model, Rng(37).normal((5, 2)), 0.1, workspace=workspace)
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)
    assert not any(np.shares_memory(first, buf) for buf in workspace.values())


@pytest.mark.parametrize("with_workspace", [False, True])
def test_forward_cached_gradients_match_recomputed_sigmoid(with_workspace):
    model = _conditioned_model(8, 3, True)
    rng = Rng(38)
    x, ctx, up = rng.normal((7, 2)), rng.normal((7, 3)), rng.normal((7, 2))
    for t, bn in ((rng.uniform(0.1, 0.9, 7), rng.uniform(0.0, 1.0, 7)), (0.3, 0.6)):
        out, cache = forward_cached(
            model, x, t, context=ctx, beta_norm=bn, workspace={} if with_workspace else None
        )
        ref_out, activations, pre = _reference_forward_cached(model, x, t, ctx, bn)
        gw, gb = model.layer_views(backward(model, cache, up))
        ref_gw, ref_gb = _reference_backward(model, activations, pre, up)
        assert np.array_equal(out, ref_out)
        assert all(np.array_equal(a, b) for a, b in zip(gw + gb, ref_gw + ref_gb))


def _widths_model(seed=39):
    # hidden widths repeat (16) and change (8), so layers share and do not
    # share the forward buffers of their width
    rng = Rng(seed)
    model = MlpModel.init(2, 2, rng, hidden=(16, 8, 16), embed_dim=8, context_dim=3)
    for b in model.biases:
        b[:] = rng.normal(b.shape)
    return model


def test_forward_workspace_holds_one_pair_per_width_and_is_reused():
    model, n = _widths_model(), 11
    rng = Rng(40)
    x, ctx, t = rng.normal((n, 2)), rng.normal((n, 3)), rng.uniform(T_EPS, 1.0 - T_EPS, n)
    workspace = {}
    out = forward(model, x, t, context=ctx, workspace=workspace)
    shapes = sorted(buf.shape for buf in workspace.values())
    assert len(workspace) == 1 + 2 * len(set(model.hidden))
    assert shapes == sorted([(n, model.input_width)] + [(n, w) for w in (16, 16, 8, 8)])
    preallocated = forward_workspace(model, n)
    assert {k: v.shape for k, v in preallocated.items()} == {k: v.shape for k, v in workspace.items()}
    ids = {k: id(v) for k, v in workspace.items()}
    again = forward(model, x, t, context=ctx, workspace=workspace)
    assert {k: id(v) for k, v in workspace.items()} == ids
    ids = {k: id(v) for k, v in preallocated.items()}
    into_preallocated = forward(model, x, t, context=ctx, workspace=preallocated)
    assert {k: id(v) for k, v in preallocated.items()} == ids
    want = forward_cached(model, x, t, context=ctx)[0]
    assert np.array_equal(want, _reference_forward_cached(model, x, t, ctx, None)[0])
    for got in (out, again, into_preallocated):
        assert np.array_equal(got, want)


def test_backward_after_a_workspace_forward_cached_matches_reference():
    model, n = _widths_model(), 13
    rng = Rng(41)
    workspace = {}
    for _ in range(2):  # the second pass reuses buffers the first backward wrote into
        x, ctx, up = rng.normal((n, 2)), rng.normal((n, 3)), rng.normal((n, 2))
        t = rng.uniform(T_EPS, 1.0 - T_EPS, n)
        out, cache = forward_cached(model, x, t, context=ctx, workspace=workspace)
        ref_out, activations, pre = _reference_forward_cached(model, x, t, ctx, None)
        gw, gb = model.layer_views(backward(model, cache, up))
        ref_gw, ref_gb = _reference_backward(model, activations, pre, up)
        assert np.array_equal(out, ref_out)
        assert all(np.array_equal(a, b) for a, b in zip(gw + gb, ref_gw + ref_gb))


def test_weights_and_biases_are_views_of_params():
    model = _conditioned_model(8, 3, True)
    assert all(np.shares_memory(a, model.params) for a in model.weights + model.biases)
    model.weights[1][0, 0] = 5.0
    assert model.params[model.layout()[2]["offset"]] == 5.0
    twin = model.copy()
    assert np.array_equal(twin.params, model.params)
    assert not np.shares_memory(twin.params, model.params)
    assert all(np.shares_memory(a, twin.params) for a in twin.weights + twin.biases)


@pytest.mark.parametrize(
    "hidden, embed_dim, context_dim, rows, out_dim, workspace",
    [
        ((64, 64), 32, 3, 512, 2, None),
        ((16,), 8, 0, 64, 2, None),
        # backward's last product is then an outer product (np.dot), and the
        # one workspace serves all 20 steps
        ((64, 64), 32, 1, 2176, 1, {}),
    ],
    ids=["64x64-e32-context", "16-e8", "64x64-e32-out1-workspace"],
)
def test_flat_training_loop_matches_per_layer_reference(
    hidden, embed_dim, context_dim, rows, out_dim, workspace
):
    """forward_cached -> backward -> adam_step -> soft_update on the flat vector
    against the same 20 steps over one array per weight and bias."""
    lr, beta1, beta2, eps, lam = 1e-3, 0.9, 0.999, 1e-8, 0.05
    model = MlpModel.init(
        2, out_dim, Rng(42), hidden=hidden, embed_dim=embed_dim, context_dim=context_dim
    )
    target = model.copy()
    adam = AdamState.for_model(model, lr=lr)
    ref = SimpleNamespace(
        weights=[w.copy() for w in model.weights], biases=[b.copy() for b in model.biases],
        embed_dim=embed_dim, context_dim=context_dim,
    )
    ref_params = ref.weights + ref.biases
    ref_target = [a.copy() for a in ref_params]
    m = [np.zeros_like(a) for a in ref_params]
    v = [np.zeros_like(a) for a in ref_params]

    def layout_order(arrays):
        n = len(arrays) // 2
        return np.concatenate([a.ravel() for pair in zip(arrays[:n], arrays[n:]) for a in pair])

    data = Rng(43)
    for step in range(1, 21):
        x, y = data.normal((rows, 2)), data.normal((rows, out_dim))
        t = data.uniform(T_EPS, 1.0 - T_EPS, rows)
        ctx = data.normal((rows, context_dim)) if context_dim else None

        out, cache = forward_cached(model, x, t, context=ctx, workspace=workspace)
        adam_step(adam, model, backward(model, cache, 2.0 * (out - y) / rows))
        soft_update(target, model, lam)

        ref_out, activations, pre = _reference_forward_cached(ref, x, t, ctx, None)
        grads_w, grads_b = _reference_backward(ref, activations, pre, 2.0 * (ref_out - y) / rows)
        c1, c2 = 1.0 - beta1**step, 1.0 - beta2**step
        for p, g, mi, vi in zip(ref_params, grads_w + grads_b, m, v):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * g**2
            p -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
        for tp, p in zip(ref_target, ref_params):
            tp *= 1.0 - lam
            tp += lam * p

        assert np.array_equal(out, ref_out)
        assert np.array_equal(model.params, layout_order(ref_params))
        assert np.array_equal(target.params, layout_order(ref_target))
