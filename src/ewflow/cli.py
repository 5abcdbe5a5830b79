"""Command-line entry point.

Every command writes its artifacts plus a manifest.json into --out; reruns
with the same configuration and seed reproduce the deterministic outputs byte
for byte.  The wall-clock outputs are excluded from that guarantee: the
wallclock_ms column of the train log, qipo's timing.json, and the manifest
itself.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import json
import os
import sys
import time

import click
import numpy as np

from .config import (
    COMPARE_SCHEMA,
    EVAL_SCHEMA,
    QIPO_SCHEMA,
    TRAIN_SCHEMA,
    ConfigError,
    build_energy,
    build_schedule,
    load_config,
    read_manifest,
    validate_config,
    write_manifest,
)
from .datasets import make_dataset
from .grids import grid_sample, grid_tv_distance
from .metrics import sliced_wasserstein
from .nn import file_sha256, load_checkpoint, save_checkpoint
from .oracle import GuidedOracle
from .rng import Rng
from .sampling import SamplerConfig, generate, read_samples_csv, write_samples_csv
from .training import TrainConfig, train_density_model

_LOG_HEADER = "step,loss,wallclock_ms\n"


def _fail(exc: BaseException) -> "NoReturn":  # noqa: F821
    kind = 2 if isinstance(exc, ConfigError) else 1
    click.echo(f"error: {exc}", err=True)
    sys.exit(kind)


def _write_log(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(_LOG_HEADER)
        for step, loss, ms in rows:
            fh.write(f"{step},{loss!r},{ms:.3f}\n")


@click.group()
def main():
    """Energy-weighted flow matching / diffusion workbench."""


def _train_config_from(cfg: dict) -> TrainConfig:
    return TrainConfig(
        dataset=cfg["dataset"],
        loss=cfg["loss"],
        sched=build_schedule(cfg),
        energy=build_energy(cfg),
        steps=cfg["steps"],
        batch=cfg["batch"],
        lr=cfg["lr"],
        seed=cfg["seed"],
        hidden=tuple(cfg["model.hidden"]),
        embed_dim=cfg["model.embed"],
        n_data=cfg["n_data"],
        beta_max=cfg["beta_max"],
        log_every=cfg["log_every"],
        oracle_res=cfg["oracle.res"],
        exact_t_nodes=cfg["exact.t_nodes"],
    )


def run_train(cfg: dict, out_dir: str) -> dict:
    started = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    try:
        tc = _train_config_from(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    result = train_density_model(tc)
    ckpt = os.path.join(out_dir, "checkpoint.bin")
    log = os.path.join(out_dir, "log.csv")
    save_checkpoint(result.model, ckpt, meta=result.meta)
    _write_log(log, result.log_rows)
    write_manifest(out_dir, "train", cfg, cfg["seed"], ["checkpoint.bin", "log.csv"], started)
    return {"checkpoint": ckpt, "log": log, "final_loss": result.log_rows[-1][1]}


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def train(config_path, out_dir):
    """Train a density model from a flat key=value config file."""
    try:
        values, lines = load_config(config_path)
        cfg = validate_config(values, lines, TRAIN_SCHEMA, source=config_path)
        info = run_train(cfg, out_dir)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(f"checkpoint: {info['checkpoint']} (final loss {info['final_loss']:.6g})")


def run_sample(
    checkpoint: str,
    out_dir: str,
    n: int,
    sampler: str,
    steps: int,
    seed: int,
    guidance_beta: float | None,
) -> dict:
    started = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    model, meta = load_checkpoint(checkpoint)
    sched = build_schedule(meta.get("path", {}))
    kind = {"euler": "euler_ode", "heun": "heun_ode", "ancestral": "ancestral"}.get(sampler)
    if kind is None:
        raise ConfigError(f"unknown sampler {sampler!r} (euler|heun|ancestral)")
    cfg = SamplerConfig(kind=kind, steps=steps, n=n)
    rng = Rng(seed)
    samples = generate(model, meta, sched, cfg, rng, guidance_beta=guidance_beta)
    path = os.path.join(out_dir, "samples.csv")
    sample_meta = {
        "checkpoint_sha256": file_sha256(checkpoint),
        "sampler": sampler,
        "steps": steps,
        "seed": seed,
        "n": n,
        "guidance_beta": guidance_beta,
    }
    write_samples_csv(path, samples, sample_meta)
    config = {"checkpoint": checkpoint, "n": n, "sampler": sampler, "steps": steps,
              "seed": seed, "guidance_beta": guidance_beta}
    write_manifest(out_dir, "sample", config, seed, ["samples.csv"], started)
    return {"samples": path, "mean": samples.mean(axis=0).tolist()}


@main.command()
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("-n", "n", default=2000, show_default=True, help="points to sample")
@click.option("--sampler", default="heun", show_default=True)
@click.option("--steps", default=15, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--guidance-beta", default=None, type=float,
              help="guidance scale for classifier-pair or beta-conditioned checkpoints")
def sample(checkpoint, out_dir, n, sampler, steps, seed, guidance_beta):
    """Generate samples from a checkpoint and write them as CSV."""
    try:
        info = run_sample(checkpoint, out_dir, n, sampler, steps, seed, guidance_beta)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(f"samples: {info['samples']} (mean {np.round(info['mean'], 4)})")


def run_eval(cfg: dict, samples_path: str, out_dir: str) -> dict:
    started = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    samples, _ = read_samples_csv(samples_path)
    gmm = make_dataset(cfg["dataset"])
    energy = build_energy(cfg)
    sched = build_schedule(cfg)
    rng = Rng(cfg["seed"])
    report: dict = {"n_samples": len(samples)}
    if energy is None:
        if gmm.dim == 2:
            from .grids import DensityGrid

            ref_grid = DensityGrid.from_mixture(gmm, cfg["tv_res"])
            tv, clipped = grid_tv_distance(samples, ref_grid, return_clipped=True)
            report.update({"tv": tv, "clipped_fraction": clipped})
        from .mixtures import gmm_sample

        ref = gmm_sample(gmm, rng.derive(0), cfg["n_ref"])
    else:
        oracle = GuidedOracle(gmm, energy, sched)
        if gmm.dim == 2:
            ref_grid = oracle.guided_q0_grid(cfg["tv_res"])
            tv, clipped = grid_tv_distance(samples, ref_grid, return_clipped=True)
            report.update({"tv": tv, "clipped_fraction": clipped})
            ref = grid_sample(oracle.guided_q0_grid(), rng.derive(0), cfg["n_ref"])
        else:
            from .energies import tilt_mixture
            from .mixtures import gmm_sample

            tilted, _ = tilt_mixture(gmm, energy)
            ref = gmm_sample(tilted, rng.derive(0), cfg["n_ref"])
    report["sliced_wasserstein"] = sliced_wasserstein(samples, ref, rng=rng.derive(1))
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    config = dict(cfg)
    config["samples"] = samples_path
    write_manifest(out_dir, "eval", config, cfg["seed"], ["report.json"], started)
    return report


@main.command("eval")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--samples", "samples_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def eval_cmd(config_path, samples_path, out_dir):
    """Score a samples CSV against the configured target (TV + sliced Wasserstein)."""
    try:
        values, lines = load_config(config_path)
        cfg = validate_config(values, lines, EVAL_SCHEMA, source=config_path)
        report = run_eval(cfg, samples_path, out_dir)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(json.dumps(report, indent=2, sort_keys=True))


def run_compare_guidance(cfg: dict, out_dir: str) -> dict:
    from .compare import compare_guidance

    started = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    report, outputs = compare_guidance(cfg, out_dir)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(
        out_dir, "compare-guidance", cfg, cfg["seed"], ["report.json", *outputs], started
    )
    return report


@main.command("compare-guidance")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def compare_guidance_cmd(config_path, out_dir):
    """Train exact-guidance and affine-composition models; tabulate TV/SW per beta."""
    try:
        values, lines = load_config(config_path)
        cfg = validate_config(values, lines, COMPARE_SCHEMA, source=config_path)
        report = run_compare_guidance(cfg, out_dir)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(json.dumps(report["table"], indent=2, sort_keys=True))


def run_qipo(cfg: dict, out_dir: str) -> dict:
    from .rl import (
        BanditSpec,
        QipoConfig,
        behavior_pretrain,
        make_bandit_dataset,
        qipo_iterate,
        train_bandit_q,
    )

    started = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    if cfg["env"] != "bandit":
        raise ConfigError(f"unsupported env {cfg['env']!r} for the qipo command (use 'bandit')")
    rng = Rng(cfg["seed"])
    spec = BanditSpec(w=np.asarray(cfg["env.w"]))
    dataset = make_bandit_dataset(spec, cfg["env.n_data"], rng.derive(0))
    sched = build_schedule(cfg)
    policy = behavior_pretrain(
        dataset,
        sched,
        rng.derive(1),
        kind=cfg["policy.kind"],
        hidden=tuple(cfg["model.hidden"]),
        embed_dim=cfg["model.embed"],
        steps=cfg["pretrain.steps"],
        batch=cfg["pretrain.batch"],
        lr=cfg["pretrain.lr"],
    )
    if cfg["q.mode"] == "oracle":
        q_fn = spec.q_values
    elif cfg["q.mode"] == "learned":
        q_fn = train_bandit_q(
            spec, dataset, rng.derive(3), steps=cfg["q.steps"], lr=cfg["q.lr"]
        )
    else:
        raise ConfigError(f"unknown q.mode {cfg['q.mode']!r} (oracle|learned)")
    qcfg = QipoConfig(
        beta=cfg["beta"],
        m_support=cfg["m_support"],
        k_renew=cfg["k_renew"],
        k3=cfg["k3"],
        batch=cfg["batch"],
        lr=cfg["lr"],
        lambda_soft=cfg["lambda_soft"],
        ode_steps=cfg["sampler.steps"],
        eval_every=cfg["eval.every"],
        eval_n=cfg["eval.n"],
        policy_kind=cfg["policy.kind"],
    )
    result = qipo_iterate(policy, q_fn, dataset, sched, qcfg, rng.derive(2), spec=spec)
    ckpt = os.path.join(out_dir, "checkpoint.bin")
    save_checkpoint(
        result.policy,
        ckpt,
        meta={"model_kind": "score" if cfg["policy.kind"] == "score" else "velocity",
              "path": sched.config(), "qipo": True},
    )
    report_path = os.path.join(out_dir, "report.json")
    final_row = result.eval_rows[-1] if result.eval_rows else None
    with open(report_path, "w") as fh:
        json.dump(
            {
                "final_eval": None if final_row is None else {
                    "epoch": final_row["epoch"],
                    "cycles": final_row["cycles"],
                    "policy_mean": [float(v) for v in final_row["policy_mean"]],
                    "analytic_target": [float(v) for v in final_row["analytic_target"]],
                    "sw_distance": final_row["sw_distance"],
                },
                "support_renewals": result.support_renewals,
            },
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    log = os.path.join(out_dir, "log.csv")
    da = spec.action_dim
    with open(log, "w") as fh:
        mean_cols = ",".join(f"policy_mean{i}" for i in range(da))
        tgt_cols = ",".join(f"analytic_target{i}" for i in range(da))
        fh.write(f"epoch,cycles,{mean_cols},{tgt_cols},sw_distance\n")
        for row in result.eval_rows:
            means = ",".join(repr(float(v)) for v in row["policy_mean"])
            tgts = ",".join(repr(float(v)) for v in row["analytic_target"])
            fh.write(f"{row['epoch']},{row['cycles']},{means},{tgts},{row['sw_distance']!r}\n")
    timing = _time_action_generation(result.policy, cfg, sched, dataset, rng.derive(9))
    with open(os.path.join(out_dir, "timing.json"), "w") as fh:
        json.dump({"sampler_timing_ms_per_action": timing}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs = ["checkpoint.bin", "log.csv", "report.json", "timing.json"]
    write_manifest(out_dir, "qipo", cfg, cfg["seed"], outputs, started)
    rows = result.eval_rows
    return {"checkpoint": ckpt, "log": log, "report": report_path,
            "final": rows[-1] if rows else None}


def _time_action_generation(policy, cfg, sched, dataset, rng, n: int = 512):
    """Per-action wall-clock of this package's own samplers on the final policy."""
    from .rl import sample_policy_actions

    state = np.zeros((1, dataset.state_dim))
    timing = {}
    for steps, label in ((cfg["sampler.steps"], f"ode_heun_{cfg['sampler.steps']}"), (50, "ode_heun_50")):
        start = time.perf_counter()
        sample_policy_actions(policy, cfg["policy.kind"], sched, state, rng, n, ode_steps=steps)
        timing[label] = (time.perf_counter() - start) / n * 1000.0
    return timing


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def qipo(config_path, out_dir):
    """Behavior pretraining + Q-weighted iterative policy refinement on the bandit."""
    try:
        values, lines = load_config(config_path)
        cfg = validate_config(values, lines, QIPO_SCHEMA, source=config_path)
        info = run_qipo(cfg, out_dir)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    final = info["final"]
    click.echo(
        f"final epoch {final['epoch']}: policy mean {np.round(final['policy_mean'], 3)} "
        f"(target {np.round(final['analytic_target'], 3)})"
    )


@main.command()
@click.option("--fast/--full", default=True, show_default=True)
def selftest(fast):
    """Run the built-in invariant suite and print a pass/fail table."""
    from .selftest import run_selftest

    results = run_selftest(fast=fast)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{r.name:<{width}}  {status}  {r.seconds:7.2f}s  {r.detail}")
        ok &= r.passed
    click.echo(f"{'-' * (width + 30)}")
    click.echo(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    sys.exit(0 if ok else 1)


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def rerun(manifest_path, out_dir):
    """Re-execute a command from its manifest into a fresh output directory."""
    try:
        info = replay_manifest(manifest_path, out_dir)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(json.dumps({k: v for k, v in info.items() if isinstance(v, str)}, indent=2))


def replay_manifest(manifest_path: str, out_dir: str) -> dict:
    manifest = read_manifest(manifest_path)
    cfg = manifest.config
    cfg = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()}
    if manifest.command == "train":
        return run_train(cfg, out_dir)
    if manifest.command == "sample":
        return run_sample(
            cfg["checkpoint"], out_dir, cfg["n"], cfg["sampler"], cfg["steps"],
            cfg["seed"], cfg.get("guidance_beta"),
        )
    if manifest.command == "eval":
        return run_eval(cfg, cfg["samples"], out_dir)
    if manifest.command == "compare-guidance":
        return run_compare_guidance(cfg, out_dir)
    if manifest.command == "qipo":
        return run_qipo(cfg, out_dir)
    raise ConfigError(f"manifest command {manifest.command!r} is not replayable")


if __name__ == "__main__":
    main()
