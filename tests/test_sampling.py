import math

import numpy as np
import pytest

from ewflow.datasets import make_dataset
from ewflow.energies import EnergySpec, tilt_mixture
from ewflow.metrics import sliced_wasserstein
from ewflow.mixtures import gmm_score, path_marginal
from ewflow.nn import MlpModel, forward
from ewflow.paths import PathSchedule, T_EPS, velocity_from_score
from ewflow.rng import Rng
from ewflow import sampling
from ewflow.sampling import (
    SamplerConfig,
    cfg_compose,
    generate,
    model_score_fn,
    model_velocity_fn,
    read_samples_csv,
    sample_ancestral,
    sample_ode,
    write_samples_csv,
)


def test_zero_velocity_returns_initial_noise():
    sched = PathSchedule.ot()
    seed = 42
    x = sample_ode(lambda x, t: np.zeros_like(x), sched, 100, 2, Rng(seed), steps=7)
    want = Rng(seed).normal((100, 2)) * float(sched.sigma(1 - T_EPS))
    assert np.array_equal(x, want)


@pytest.mark.parametrize("sched", [PathSchedule.ot(), PathSchedule.vp()], ids=["ot", "vp"])
def test_analytic_marginal_field_recovers_unit_variance(sched):
    def vfn(x, t):
        s2 = float(sched.mu(t)) ** 2 + float(sched.sigma(t)) ** 2
        return velocity_from_score(sched, x, -x / s2, t)

    x = sample_ode(vfn, sched, 10_000, 1, Rng(0), steps=15)
    assert abs(x.var() - 1.0) < 0.05
    assert abs(x.mean()) < 0.05


def test_heun_order_of_accuracy():
    # deterministic endpoint error against a fine reference on a nonlinear
    # analytic field; expect slope ~2 on a log-log sweep and ~4x per halving
    sched = PathSchedule.ot()
    gmm = make_dataset("bimodal1d")

    def vfn(x, t):
        marg = path_marginal(gmm, sched, t)
        return velocity_from_score(sched, x, gmm_score(marg, x), t)

    x0 = Rng(1).normal((400, 1)) * float(sched.sigma(1 - T_EPS))

    def integrate(steps):
        ts = np.linspace(1 - T_EPS, T_EPS, steps + 1)
        x = x0.copy()
        for i in range(steps):
            t0, t1 = float(ts[i]), float(ts[i + 1])
            h = t1 - t0
            k1 = vfn(x, t0)
            k2 = vfn(x + h * k1, t1)
            x = x + 0.5 * h * (k1 + k2)
        return x

    ref = integrate(2560)
    errs = [np.abs(integrate(s) - ref).mean() for s in (20, 40, 80)]
    slopes = [math.log(errs[i] / errs[i + 1]) / math.log(2) for i in range(2)]
    assert all(abs(s - 2.0) <= 0.3 for s in slopes)
    assert 4.0 * 2**-0.3 <= errs[0] / errs[1] <= 4.0 * 2**0.3


def test_euler_sampler_runs_and_is_less_accurate_than_heun():
    sched = PathSchedule.ot()

    def vfn(x, t):
        s2 = float(sched.mu(t)) ** 2 + float(sched.sigma(t)) ** 2
        return velocity_from_score(sched, x, -x / s2, t)

    xe = sample_ode(vfn, sched, 5000, 1, Rng(2), steps=15, method="euler")
    assert np.all(np.isfinite(xe))


def test_ancestral_exact_score_standard_normal():
    sched = PathSchedule.vp()

    def sfn(x, t):
        s2 = float(sched.mu(t)) ** 2 + float(sched.sigma(t)) ** 2
        return -x / s2

    x = sample_ancestral(sfn, sched, 10_000, 1, Rng(3), steps=50)
    assert abs(x.mean()) < 0.05
    assert abs(x.var() - 1.0) < 0.05


def test_ancestral_requires_vp():
    with pytest.raises(ValueError, match="variance-preserving"):
        sample_ancestral(lambda x, t: x, PathSchedule.ot(), 10, 1, Rng(4))


class _AllNoisePath:
    """Degenerate schedule: mu constant (kernel ignores time), sigma = 1."""

    kind = "vp"

    def mu(self, t):
        return np.full_like(np.asarray(t, dtype=float), 1e-12)

    def sigma(self, t):
        return np.ones_like(np.asarray(t, dtype=float))


def test_ancestral_zero_score_on_all_noise_path_returns_prior():
    x = sample_ancestral(lambda x, t: np.zeros_like(x), _AllNoisePath(), 20_000, 1, Rng(5), steps=20)
    assert abs(x.mean()) < 0.03
    assert abs(x.var() - 1.0) < 0.05


def test_cfg_compose_examples():
    su = np.array([1.0, 0.0])
    sc = np.array([0.0, 1.0])
    assert np.array_equal(cfg_compose(su, sc, 1.0), sc)
    assert np.array_equal(cfg_compose(su, sc, 0.0), su)
    assert np.array_equal(cfg_compose(su, sc, 2.0), np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        cfg_compose(np.zeros(2), np.zeros(3), 1.0)


def test_ode_and_ancestral_agree_on_guided_gaussian():
    # guided target N(-1, 1) via the analytic guided score; both samplers must
    # produce the same distribution
    sched = PathSchedule.vp()
    gmm = make_dataset("gauss1d")
    tilted, _ = tilt_mixture(gmm, EnergySpec.linear([1.0], 1.0))

    def sfn(x, t):
        return gmm_score(path_marginal(tilted, sched, t), x)

    def vfn(x, t):
        return velocity_from_score(sched, x, sfn(x, t), t)

    a = sample_ode(vfn, sched, 8000, 1, Rng(6), steps=15)
    b = sample_ancestral(sfn, sched, 8000, 1, Rng(7), steps=50)
    assert sliced_wasserstein(a, b, rng=Rng(8)) < 0.1
    assert abs(a.mean() + 1.0) < 0.05 and abs(b.mean() + 1.0) < 0.05


def test_nonfinite_state_reports_step():
    sched = PathSchedule.ot()

    def bad(x, t):
        return np.full_like(x, np.inf)

    with pytest.raises(FloatingPointError, match="step 1/"):
        sample_ode(bad, sched, 5, 1, Rng(9), steps=4)


def test_model_fn_validation():
    sched = PathSchedule.vp()
    vel_model = MlpModel.init(1, 1, Rng(10), hidden=(4,), embed_dim=2)
    with pytest.raises(ValueError, match="no score head"):
        model_score_fn(vel_model, {"model_kind": "velocity"}, sched)
    beta_model = MlpModel.init(1, 1, Rng(11), hidden=(4,), embed_dim=2, accepts_beta=True)
    with pytest.raises(ValueError, match="beta_max"):
        model_score_fn(beta_model, {"model_kind": "score"}, sched, guidance_beta=1.0)
    with pytest.raises(ValueError, match="guidance beta"):
        model_score_fn(beta_model, {"model_kind": "score", "beta_max": 5.0}, sched)
    with pytest.raises(ValueError, match="plain score checkpoint takes no guidance beta"):
        model_score_fn(vel_model, {"model_kind": "score"}, sched, guidance_beta=1.0)
    with pytest.raises(ValueError, match="plain velocity checkpoint takes no guidance beta"):
        model_velocity_fn(vel_model, {"model_kind": "velocity"}, sched, guidance_beta=1.0)
    meta = {"model_kind": "score", "beta_max": 5.0}
    fn = model_score_fn(beta_model, meta, sched, guidance_beta=1.0, context=np.ones(2))
    with pytest.raises(ValueError, match="model takes no context"):
        fn(np.zeros((3, 1)), 0.5)


def test_model_velocity_fn_per_row_and_shared_context():
    sched = PathSchedule.vp()
    model = MlpModel.init(2, 2, Rng(13), hidden=(8,), embed_dim=4, context_dim=3)
    x = Rng(14).normal((6, 2))
    ctx = Rng(15).normal((6, 3))
    v = model_velocity_fn(model, {"model_kind": "velocity"}, sched, context=ctx)(x, 0.4)
    for i in range(len(x)):
        row = forward(model, x[i : i + 1], 0.4, context=ctx[i : i + 1])[0]
        assert np.allclose(v[i], row, rtol=1e-12, atol=1e-14)
    for kind in ("velocity", "score"):
        meta = {"model_kind": kind}
        shared = model_velocity_fn(model, meta, sched, context=ctx[0])(x, 0.4)
        tiled = model_velocity_fn(model, meta, sched, context=np.tile(ctx[0], (6, 1)))(x, 0.4)
        assert np.array_equal(shared, tiled)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(kind="rk45")
    with pytest.raises(ValueError):
        SamplerConfig(steps=0)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        SamplerConfig(n=0)


def test_samples_csv_round_trip(tmp_path):
    pts = Rng(12).normal((50, 2))
    meta = {"sampler": "heun", "steps": 15, "seed": 3}
    path = tmp_path / "samples.csv"
    write_samples_csv(path, pts, meta)
    back, back_meta = read_samples_csv(path)
    assert np.array_equal(back, pts)
    assert back_meta == meta
    # identical writes are byte-identical
    path2 = tmp_path / "samples2.csv"
    write_samples_csv(path2, pts, meta)
    assert path.read_bytes() == path2.read_bytes()


_NULL, _COND = np.array([1.0, 0.0]), np.array([0.0, 1.0])


def _adapter_case(kind):
    """(model, meta, guidance beta, score written without a workspace) for one model kind."""
    rng = Rng(40)
    model = MlpModel.init(
        2, 2, rng, hidden=(16, 16), embed_dim=8,
        context_dim=2 if kind == "cfg_pair" else 0, accepts_beta=kind == "beta",
    )
    for b in model.biases:
        b[:] = rng.normal(b.shape)
    model.weights[-1] *= 0.1  # a small field keeps the chains near the prior
    sched = PathSchedule.vp()
    if kind == "velocity":
        return model, {"model_kind": "velocity"}, None, None
    if kind == "score":
        def score(x, t):
            return -forward(model, x, t) / float(sched.sigma(t))

        return model, {"model_kind": "score"}, None, score
    if kind == "cfg_pair":
        def score(x, t):
            nu = forward(model, x, t, context=np.repeat(_NULL[None], len(x), axis=0))
            nc = forward(model, x, t, context=np.repeat(_COND[None], len(x), axis=0))
            return -cfg_compose(nu, nc, 1.5) / float(sched.sigma(t))

        return model, {"model_kind": "cfg_pair"}, 1.5, score

    def score(x, t):
        return -forward(model, x, t, beta_norm=np.full(len(x), 0.25)) / float(sched.sigma(t))

    return model, {"model_kind": "score", "beta_max": 4.0}, 1.0, score


@pytest.mark.parametrize("kind", ["velocity", "score", "cfg_pair", "beta"])
def test_adapter_samplers_match_workspace_free_forward(kind):
    sched = PathSchedule.vp()
    model, meta, beta, score = _adapter_case(kind)
    if score is None:
        def velocity(x, t):
            return forward(model, x, t)
    else:
        def velocity(x, t):
            return velocity_from_score(sched, x, score(x, t), t)

    got = sample_ode(model_velocity_fn(model, meta, sched, beta), sched, 64, 2, Rng(41), steps=6)
    assert np.array_equal(got, sample_ode(velocity, sched, 64, 2, Rng(41), steps=6))
    if score is not None:
        fn = model_score_fn(model, meta, sched, beta)
        got = sample_ancestral(fn, sched, 64, 2, Rng(42), steps=8)
        assert np.array_equal(got, sample_ancestral(score, sched, 64, 2, Rng(42), steps=8))


@pytest.mark.parametrize("kind", ["velocity", "cfg_pair"])
def test_generate_reruns_are_identical(kind):
    model, meta, beta, _ = _adapter_case(kind)
    cfg = SamplerConfig(kind="heun", steps=5, n=40)
    first = generate(model, meta, PathSchedule.vp(), cfg, Rng(43), guidance_beta=beta)
    again = generate(model, meta, PathSchedule.vp(), cfg, Rng(43), guidance_beta=beta)
    assert np.array_equal(first, again)


def test_samplers_call_forward_through_the_module_global(monkeypatch):
    # The benchmark's per-layer trace wraps sampling.forward by name; every
    # network evaluation of a sampler must go through that global.
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return forward(*args, **kwargs)

    monkeypatch.setattr(sampling, "forward", counting)
    sched = PathSchedule.vp()
    # (model kind, sampler, forward calls per step): a Heun step evaluates the
    # field twice, a classifier pair evaluates both heads per field.
    for kind, sampler, per_step in (
        ("velocity", "heun", 2), ("score", "euler", 1), ("cfg_pair", "ancestral", 2),
        ("beta", "heun", 2),
    ):
        calls[0] = 0
        model, meta, beta, _ = _adapter_case(kind)
        cfg = SamplerConfig(kind=sampler, steps=7, n=20)
        generate(model, meta, sched, cfg, Rng(44), guidance_beta=beta)
        assert calls[0] == per_step * 7, kind
