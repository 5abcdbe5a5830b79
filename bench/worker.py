"""One benchmark worker: set up one workload, run its timed operations, check them.

run.py starts this file in a fresh interpreter for every repeat, so each
repeat pays the full set-up (interpreter, imports, one-time inputs) and starts
from the same allocation history. The last line of standard output is one
JSON object with the worker's measurements.

    python3 bench/worker.py --workload qipo-bandit --seed 1 --rounds 2 \
        --trace 0 --check 1 --launch <time.monotonic() at launch> [--trace-out FILE]

Every worker hashes its outputs; run.py requires the same hash from every
worker of a run (same seed, same outputs in a fresh process). Only workers
started with --check 1 run the correctness checks, which can cost seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from ewflow import mixtures, nn, rl, sampling, training  # noqa: E402
from ewflow import oracle as oracle_mod  # noqa: E402
from ewflow.datasets import make_dataset  # noqa: E402
from ewflow.energies import EnergySpec  # noqa: E402
from ewflow.paths import PathSchedule  # noqa: E402
from ewflow.rng import Rng  # noqa: E402

from tracing import Tracer, layer_metrics, minflt  # noqa: E402


def _logsumexp(a, axis=-1):
    top = a.max(axis=axis, keepdims=True)
    return (top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))).squeeze(axis)


# --------------------------------------------------------------- train-guided


class TrainGuided:
    """Energy-weighted denoising (ced, VP path) of N(0, 1) under E(x) = x at beta 1.

    The recipe of acceptance criteria 01/02/11 (hidden 64x64, embed 32, batch
    512) with 2000 steps per operation. A row is one training example.
    """

    STEPS = 2000
    BATCH = 512
    DRAWS = 10_000
    # Closed-form tilt: N(0, 1) * exp(-beta a x) is N(-beta a, 1).
    WANT_MEAN, WANT_VAR = -1.0, 1.0
    # Seeds 1-10 gave means -1.06..-0.85 and variances 0.90..1.11 after
    # 2000 steps; an unguided model sits at mean 0.
    TOL = 0.3

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.sched = PathSchedule.vp()
        self.cfg = training.TrainConfig(
            dataset="gauss1d", loss="ced", sched=self.sched,
            energy=EnergySpec.linear([1.0], 1.0), steps=self.STEPS, batch=self.BATCH,
            lr=5e-4, seed=seed, hidden=(64, 64), embed_dim=32, n_data=65_536,
        )

    def operations(self, rnd: int):
        return [("train", self.train)]

    def train(self):
        result = training.train_density_model(self.cfg)
        return self.STEPS * self.BATCH, result

    def check(self, outputs) -> list:
        checks = []
        for i, (_, result) in enumerate(outputs):
            x = sampling.generate(
                result.model, result.meta, self.sched,
                sampling.SamplerConfig("ancestral", 50, self.DRAWS), Rng(self.seed).derive(7, i),
            )
            mean, var = float(x.mean()), float(x.var())
            ok = (
                np.all(np.isfinite(x))
                and abs(mean - self.WANT_MEAN) <= self.TOL
                and abs(var - self.WANT_VAR) <= self.TOL
            )
            checks.append((
                f"op{i} tilt N(-1,1)", bool(ok),
                f"mean {mean:+.4f} var {var:.4f} (want -1 and 1, +-{self.TOL})",
            ))
        return checks

    def fingerprint(self, result) -> np.ndarray:
        return result.model.flat_params()

    def facts(self) -> dict:
        return {}


# ---------------------------------------------------------------- qipo-bandit


class QipoBandit:
    """QIPO on the linear-Gaussian bandit with the settings of acceptance 09.

    beta 1, M = 16, batch 128, Heun-15; 1024 dataset rows (8 batches) so one
    renewal cycle takes seconds. One operation is one whole renewal cycle
    (one support renewal plus k_renew fitting epochs) on a fresh copy of the
    pretrained policy. A row is one fitted (state, support action) pair.
    """

    N_DATA = 1024
    PRETRAIN_STEPS = 400
    EVAL_N = 1000

    def __init__(self, seed: int, tracer):
        self.rng = Rng(seed)
        self.spec = rl.BanditSpec(w=[1.0])
        self.sched = PathSchedule.vp()
        self.cfg = rl.QipoConfig(
            beta=1.0, m_support=16, k_renew=10, k3=10, batch=128, lr=1e-4,
            lambda_soft=0.005, ode_steps=15, eval_every=10, eval_n=self.EVAL_N,
        )
        self.dataset = rl.make_bandit_dataset(self.spec, self.N_DATA, self.rng.derive(0))
        self.policy = rl.behavior_pretrain(
            self.dataset, self.sched, self.rng.derive(1), steps=self.PRETRAIN_STEPS, lr=1e-3
        )
        draws = rl.sample_policy_actions(
            self.policy, "score", self.sched, np.zeros((1, 1)), self.rng.derive(3), self.EVAL_N
        )
        self.start_mean = float(draws.mean())
        n_batches = self.N_DATA // self.cfg.batch
        self.rows = n_batches * self.cfg.batch * (self.cfg.m_support + 1) * self.cfg.k3
        self._capture: list | None = None
        # Record the support weights qipo_iterate computes, where it looks
        # the function up, so they can be checked against an independent
        # softmax of beta * w . a.
        weights_fn = rl.support_weights

        def recorded(q_values, beta):
            w = weights_fn(q_values, beta)
            if self._capture is not None:
                self._capture.append(("weights", w.copy()))
            return w

        rl.support_weights = recorded

    def q_fn(self, states, actions):
        self._capture.append(("actions", np.array(actions)))
        return self.spec.q_values(states, actions)

    def operations(self, rnd: int):
        return [("cycle", lambda: self.cycle(rnd))]

    def cycle(self, rnd: int):
        self._capture = []
        result = rl.qipo_iterate(
            self.policy.copy(), self.q_fn, self.dataset, self.sched, self.cfg,
            self.rng.derive(2, rnd), spec=self.spec,
        )
        captured, self._capture = self._capture, None
        return self.rows, (result, captured)

    def check(self, outputs) -> list:
        checks = []
        beta, w = self.cfg.beta, self.spec.w
        target = float(self.spec.target_mean(1, beta)[0])
        for i, (_, (result, captured)) in enumerate(outputs):
            acts = [a for kind, a in captured if kind == "actions"]
            weights = [g for kind, g in captured if kind == "weights"]
            gap = 0.0
            for a, g in zip(acts, weights):
                logits = beta * (a @ w).reshape(g.shape)
                ref = np.exp(logits - logits.max(axis=1, keepdims=True))
                ref /= ref.sum(axis=1, keepdims=True)
                gap = max(gap, float(np.abs(ref - g).max()))
            n_expect = self.N_DATA // self.cfg.batch
            ok_w = len(acts) == len(weights) == n_expect and gap < 1e-12
            checks.append((
                f"op{i} support weights", ok_w,
                f"{len(weights)} batches, max |softmax(beta w.a) - program| {gap:.1e}",
            ))
            row = result.eval_rows[-1]
            mean = float(row["policy_mean"][0])
            finite = (
                all(np.all(np.isfinite(a)) for a in acts)
                and all(np.all(np.isfinite(g)) for g in weights)
                and np.all(np.isfinite(result.policy.flat_params()))
                and np.isfinite(mean) and np.isfinite(row["sw_distance"])
            )
            checks.append((f"op{i} outputs finite", bool(finite), ""))
            moved = abs(mean - target) < abs(self.start_mean - target)
            checks.append((
                f"op{i} mean toward r*beta*w", bool(moved),
                f"{self.start_mean:+.3f} -> {mean:+.3f} (target {target:+.3f}, "
                f"cycle {row['cycles']})",
            ))
        return checks

    def fingerprint(self, out) -> np.ndarray:
        return out[0].policy.flat_params()

    def facts(self) -> dict:
        return {}


# ---------------------------------------------------------------- oracle-quad


class OracleQuad:
    """GuidedOracle quadrature on 8gaussians under the acceptance classifier energy.

    (a) guided velocity, intermediate energy and marginal log-density of a
    4096-point block against 4096 nodes (grid_res 64) at two times, so one
    kernel block is 128 MiB; (b) the marginal- and conditional-form
    exact-loss gradients of acceptance 05 at grid_res 48. A row is one query
    point against the whole node set; in (b) each node at each loss time is a
    query point.
    """

    GRID_RES = 64
    N_QUERY = 4096
    TIMES = (0.35, 0.7)
    FIELDS = ("guided_velocity", "intermediate_energy", "marginal_logdensity")
    # On core points the largest |quad - closed form| is about 1.4e-3
    # (velocity, t = 0.35). It does not shrink on finer grids: it is set by
    # the oracle's default 4-sigma padding of the quadrature box, not by the
    # spacing, so the tolerance keeps a 7x margin over that floor.
    CORE_Z = 2.5
    FIELD_TOL = 1e-2
    LOSS_RES = 48
    LOSS_TIMES = (0.25, 0.5, 0.75)
    GRAD_TOL = 1e-5

    def __init__(self, seed: int, tracer):
        self.gmm = make_dataset("8gaussians")
        self.energy = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[4.0, 0.0], classifier=True)
        self.sched = PathSchedule.ot()
        rng = Rng(seed)
        with tracer.span("oracle.init"):
            self.oracle = oracle_mod.GuidedOracle(
                self.gmm, self.energy, self.sched, grid_res=self.GRID_RES
            )
            self.loss_oracle = oracle_mod.GuidedOracle(
                self.gmm, self.energy, self.sched, grid_res=self.LOSS_RES
            )
            probe = np.zeros((1, 2))
            self.oracle.marginal_logdensity(probe, 0.5, route="quad")
            self.loss_oracle.marginal_logdensity(probe, 0.5, route="quad")
        self.queries = {t: self._core_points(t, rng.derive(1, i)) for i, t in enumerate(self.TIMES)}
        self.model = nn.MlpModel.init(2, 2, rng.derive(2), hidden=(16,), embed_dim=8)
        self.n_nodes = self.GRID_RES**2
        self.n_loss_nodes = self.LOSS_RES**2

    def _core_points(self, t: float, rng: Rng) -> np.ndarray:
        """N_QUERY draws of p_t within CORE_Z standard deviations of a
        component, away from the edge of the quadrature box."""
        marginal = mixtures.path_marginal(self.gmm, self.sched, t)
        x = mixtures.gmm_sample(marginal, rng, 2 * self.N_QUERY)
        z = np.abs((x[:, None, :] - marginal.means[None]) / np.sqrt(marginal.variances[None]))
        core = x[z.max(axis=-1).min(axis=-1) <= self.CORE_Z]
        if len(core) < self.N_QUERY:
            raise RuntimeError(f"only {len(core)} core query points at t={t}")
        return core[: self.N_QUERY]

    def operations(self, rnd: int):
        ops = []
        for t in self.TIMES:
            for field in self.FIELDS:
                ops.append((f"{field}@{t}", lambda f=field, t=t: self.field(f, t)))
        for name in ("loss_efm_exact", "loss_cefm_exact", "loss_ed_exact", "loss_ced_exact"):
            ops.append((name, lambda n=name: self.loss(n)))
        return ops

    def field(self, name: str, t: float):
        out = getattr(self.oracle, name)(self.queries[t], t, route="quad")
        return self.N_QUERY, out

    def loss(self, name: str):
        _, (gw, gb) = getattr(training, name)(self.model, self.loss_oracle, list(self.LOSS_TIMES))
        flat = np.concatenate([g.ravel() for g in gw + gb])
        return self.n_loss_nodes * len(self.LOSS_TIMES), flat

    def check(self, outputs) -> list:
        refs = {
            t: closed_form_fields(self.gmm, self.energy, self.sched, self.queries[t], t)
            for t in self.TIMES
        }
        worst: dict = {}
        grads: dict = {}
        for label, out in outputs:
            if label.startswith("loss_"):
                grads.setdefault(label, []).append(out)
                continue
            field, t = label.split("@")
            err = float(np.abs(out - refs[float(t)][field]).max())
            worst[label] = max(worst.get(label, 0.0), err)
        checks = [
            (f"{label} vs closed form", err < self.FIELD_TOL,
             f"max abs err {err:.2e} (want < {self.FIELD_TOL:g})")
            for label, err in worst.items()
        ]
        pairs = (("loss_efm_exact", "loss_cefm_exact"), ("loss_ed_exact", "loss_ced_exact"))
        for marg, cond in pairs:
            for ga, gb in zip(grads.get(marg, []), grads.get(cond, [])):
                rel = float(np.linalg.norm(ga - gb) / np.linalg.norm(ga))
                checks.append((f"{marg} = {cond} gradient", rel < self.GRAD_TOL,
                               f"relative gap {rel:.1e} (want < {self.GRAD_TOL:g})"))
        return checks

    def fingerprint(self, out) -> np.ndarray:
        return out

    def facts(self) -> dict:
        chunk = getattr(oracle_mod, "_CHUNK", self.N_QUERY)
        block = min(chunk, self.N_QUERY) * self.n_nodes * 8 / 2**20
        return {"oracle.block_mib": block}


def closed_form_fields(gmm, energy, sched, x, t: float) -> dict:
    """Guided fields of a diagonal mixture under a diagonal quadratic energy on
    the OT path, by Gaussian algebra written here apart from the package.

    Each component N(m, v) times exp(-beta/2 d (x - c)^2) is a Gaussian with
    precision 1/v + beta d; the path pushes N(m, v) to N(mu m, mu^2 v + s^2)
    with mu = 1 - t and s = s_min + (1 - s_min) t. Then
    E_t = log p_t - log q_t - log Z, and the guided velocity averages the
    per-component path velocities mu' m + (mu mu' v + s s') / var * (x - mu m)
    under the q_t responsibilities.
    """
    beta, d, c = energy.beta, energy.diag[None], energy.center[None]
    w, m, v = gmm.weights, gmm.means, gmm.variances
    lam = 1.0 / v + beta * d
    v1 = 1.0 / lam
    m1 = (m / v + beta * d * c) * v1
    log_mult = 0.5 * (np.log(v1 / v) - m**2 / v - beta * d * c**2 + m1**2 / v1).sum(-1)
    log_w1 = np.log(w) + log_mult
    log_z = float(_logsumexp(log_w1))
    w1 = np.exp(log_w1 - log_z)

    s_min = sched.sigma_min
    mu, dmu = 1.0 - t, -1.0
    s, ds = s_min + (1.0 - s_min) * t, 1.0 - s_min

    def component_logpdf(weights, means, variances):
        var = mu**2 * variances + s**2
        diff = x[:, None, :] - mu * means[None]
        return (
            np.log(weights)[None]
            - 0.5 * (np.log(2 * np.pi * var)[None] + diff**2 / var[None]).sum(-1)
        ), var, diff

    lp, _, _ = component_logpdf(w, m, v)
    lq, var1, diff1 = component_logpdf(w1, m1, v1)
    log_p, log_q = _logsumexp(lp), _logsumexp(lq)
    resp = np.exp(lq - log_q[:, None])
    comp_vel = dmu * m1[None] + (mu * dmu * v1 + s * ds)[None] / var1[None] * diff1
    return {
        "guided_velocity": (resp[..., None] * comp_vel).sum(1),
        "intermediate_energy": log_p - log_q - log_z,
        "marginal_logdensity": log_p,
    }


WORKLOADS = {"train-guided": TrainGuided, "qipo-bandit": QipoBandit, "oracle-quad": OracleQuad}


def _nodes(orc) -> int:
    return orc.grid_res**2


def install_tracer(tracer: Tracer) -> None:
    """Wrap each traced layer function where its callers look it up."""
    first = lambda a, k: len(a[0])  # noqa: E731
    second = lambda a, k: len(a[1])  # noqa: E731
    tracer.wrap(nn, "time_embedding", "nn.time_embedding", rows=first)
    for mod in (rl, sampling):
        tracer.wrap(mod, "forward", "nn.forward", rows=second)
    for mod in (training, rl):
        tracer.wrap(mod, "forward_cached", "nn.forward_cached", rows=second)
        tracer.wrap(mod, "backward", "nn.backward", rows=lambda a, k: len(a[2]))
        tracer.wrap(mod, "adam_step", "nn.adam_step")
        tracer.wrap(mod, "perturb", "paths.perturb", rows=second)
    tracer.wrap(rl, "soft_update", "nn.soft_update")
    tracer.wrap(training, "build_weighted_batch", "training.build_weighted_batch",
                rows=lambda a, k: a[4])
    for name in ("loss_cfm", "loss_cefm", "loss_ced"):
        tracer.wrap(training, name, "training.loss", rows=lambda a, k: len(a[1].x0))
    for name in ("loss_efm_exact", "loss_cefm_exact", "loss_ed_exact", "loss_ced_exact"):
        tracer.wrap(training, name, "training.loss_exact",
                    rows=lambda a, k: len(a[2]) * _nodes(a[1]),
                    work=lambda a, k: len(a[2]) * _nodes(a[1]) ** 2)
    for mod in (rl, sampling):
        tracer.wrap(mod, "sample_ode", "sampling.sample_ode", rows=lambda a, k: a[2], count_arg=0)
    tracer.wrap(rl, "build_support_set", "rl.build_support_set", rows=lambda a, k: len(a[3]))
    tracer.wrap(rl, "sample_policy_actions", "rl.sample_policy_actions")
    tracer.wrap(rl, "qipo_iterate", "rl.qipo_iterate",
                rows=lambda a, k: (len(a[2]) // a[4].batch) * a[4].batch
                * (a[4].m_support + 1) * a[4].k3)
    tracer.wrap(rl, "behavior_pretrain", "rl.behavior_pretrain")
    for field in OracleQuad.FIELDS:
        tracer.wrap(oracle_mod.GuidedOracle, field, f"oracle.{field}", rows=second,
                    work=lambda a, k: len(a[1]) * _nodes(a[0]))
    for mod in (training, mixtures):
        tracer.wrap(mod, "gmm_sample", "mixtures.gmm_sample", rows=lambda a, k: a[2])


class _NoTrace:
    """Stand-in for Tracer in untraced runs: spans record nothing."""

    active = False

    def span(self, name, rows=0, work=0):
        return contextlib.nullcontext()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    tracer = Tracer() if args.trace else _NoTrace()
    if args.trace:
        install_tracer(tracer)
    with tracer.span("bench.setup"):
        work = WORKLOADS[args.workload](args.seed, tracer)

    outputs = []
    attempted = failed = rows = 0
    wall = cpu = 0.0
    faults = 0
    setup_s = time.monotonic() - args.launch
    for rnd in range(args.rounds):
        for label, op in work.operations(rnd):
            attempted += 1
            f0, c0, w0 = minflt(), time.process_time(), time.perf_counter()
            try:
                with tracer.span("bench.op"):
                    n, out = op()
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                failed += 1
                print(f"operation {label} (round {rnd}) failed: {exc!r}", file=sys.stderr)
                continue
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            faults += minflt() - f0
            rows += n
            outputs.append((label, out))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.active = False
    digest = hashlib.sha256()
    for _, out in outputs:
        digest.update(np.ascontiguousarray(work.fingerprint(out)).tobytes())
    checks = work.check(outputs) if args.check else []

    result = {
        "setup_s": setup_s,
        "timed_s": wall,
        "rows_per_s": rows / wall if wall > 0 else 0.0,
        "peak_rss_mb": peak,
        "cpu_over_wall": cpu / wall if wall > 0 else 0.0,
        "minflt_per_row": faults / rows if rows else 0.0,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "digest": digest.hexdigest(),
        **blas_info(),
    }
    if args.trace:
        facts = dict(work.facts(), peak_rss_mib=peak)
        result["layers"] = layer_metrics(tracer.spans, facts)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


def blas_info() -> dict:
    """Thread count and build string of the OpenBLAS that numpy loaded."""
    info = {"numpy": np.__version__, "blas_threads": -1, "openblas": "unknown"}
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            threads = getattr(lib, f"{prefix}get_num_threads64_", None)
            config = getattr(lib, f"{prefix}get_config64_", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                info["blas_threads"] = int(threads())
                info["openblas"] = config().decode()
                return info
    return info


if __name__ == "__main__":
    sys.exit(main())
