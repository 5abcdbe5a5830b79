"""Command-line entry point.

Every artifact-writing command is one entry of COMMANDS: a config schema (None
for `sample`, whose settings are flags) and a runner
`run(cfg, out_dir) -> (summary, outputs)`.  `execute` times the run, creates
--out, calls the runner and records a manifest.json with the resolved config;
`rerun` looks the manifest's command up in the same table, so every command
replays from its manifest.  Reruns reproduce the deterministic outputs byte for
byte.  The wall-clock outputs are excluded from that guarantee: the
wallclock_ms column of the train log, qipo's timing.json, and the manifest
itself.

Exit codes: 0 success, 1 runtime failure, 2 configuration error, which covers
unknown or malformed keys and out-of-range values; those are caught before any
file is written.
"""

from __future__ import annotations

import json
import os
import sys
import time

import click
import numpy as np

from .compare import compare_guidance
from .config import (
    COMPARE_SCHEMA,
    EVAL_SCHEMA,
    QIPO_SCHEMA,
    TRAIN_SCHEMA,
    ConfigError,
    build_checked,
    build_schedule,
    build_target,
    load_config,
    read_manifest,
    train_config,
    validate_config,
    write_json,
    write_manifest,
)
from .energies import tilt_mixture
from .grids import DensityGrid, grid_sample, grid_tv_distance
from .metrics import sliced_wasserstein
from .mixtures import gmm_sample
from .nn import file_sha256, load_checkpoint, save_checkpoint
from .oracle import GuidedOracle
from .rl import (
    BanditSpec,
    QipoConfig,
    behavior_pretrain,
    make_bandit_dataset,
    q_forward,
    qipo_iterate,
    sample_policy_actions,
    train_q,
)
from .rng import MAX_SEED, Rng
from .sampling import SamplerConfig, generate, read_samples_csv, write_samples_csv
from .training import train_density_model

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


def run_train(cfg: dict, out_dir: str):
    result = train_density_model(train_config(cfg))
    save_checkpoint(result.model, os.path.join(out_dir, "checkpoint.bin"), meta=result.meta)
    _write_log(os.path.join(out_dir, "log.csv"), result.log_rows)
    return {"final_loss": result.log_rows[-1][1]}, ["checkpoint.bin", "log.csv"]


def run_sample(cfg: dict, out_dir: str):
    sampler = build_checked(SamplerConfig, kind=cfg["sampler"], steps=cfg["steps"], n=cfg["n"])
    model, meta = load_checkpoint(cfg["checkpoint"])
    sched = build_schedule(meta.get("path", {}))
    # generate refuses a flag the checkpoint cannot take (ValueError) before it samples
    samples = build_checked(
        generate, model=model, meta=meta, sched=sched, cfg=sampler, rng=Rng(cfg["seed"]),
        guidance_beta=cfg["guidance_beta"],
    )
    sample_meta = {k: cfg[k] for k in ("sampler", "steps", "seed", "n", "guidance_beta")}
    sample_meta["checkpoint_sha256"] = file_sha256(cfg["checkpoint"])
    write_samples_csv(os.path.join(out_dir, "samples.csv"), samples, sample_meta)
    return {"mean": samples.mean(axis=0).tolist()}, ["samples.csv"]


def run_eval(cfg: dict, out_dir: str):
    for key in ("n_ref", "tv_res"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
    samples, _ = read_samples_csv(cfg["samples"])
    gmm, energy = build_target(cfg)
    if samples.shape[1] != gmm.dim:
        raise ConfigError(f"samples are {samples.shape[1]}-D but dataset {cfg['dataset']!r} is {gmm.dim}-D")
    sched = build_schedule(cfg)
    rng = Rng(cfg["seed"])
    report: dict = {"n_samples": len(samples)}
    ref_grid = None
    if energy is None:
        if gmm.dim == 2:
            ref_grid = DensityGrid.from_mixture(gmm, cfg["tv_res"])
        ref = gmm_sample(gmm, rng.derive(0), cfg["n_ref"])
    elif gmm.dim == 2:
        oracle = GuidedOracle(gmm, energy, sched)
        ref_grid = oracle.guided_q0_grid(cfg["tv_res"])
        ref = grid_sample(oracle.guided_q0_grid(), rng.derive(0), cfg["n_ref"])
    else:
        ref = gmm_sample(tilt_mixture(gmm, energy)[0], rng.derive(0), cfg["n_ref"])
    if ref_grid is not None:
        tv, clipped = grid_tv_distance(samples, ref_grid, return_clipped=True)
        report.update({"tv": tv, "clipped_fraction": clipped})
    report["sliced_wasserstein"] = sliced_wasserstein(samples, ref, rng=rng.derive(1))
    write_json(os.path.join(out_dir, "report.json"), report)
    return report, ["report.json"]


def run_qipo(cfg: dict, out_dir: str):
    if cfg["env"] != "bandit":
        raise ConfigError(f"unsupported env {cfg['env']!r} for the qipo command (use 'bandit')")
    if cfg["q.mode"] not in ("oracle", "learned"):
        raise ConfigError(f"unknown q.mode {cfg['q.mode']!r} (oracle|learned)")
    # pretrain.batch is softmax-weighted, so it needs two rows
    for key, low in (("env.n_data", 1), ("pretrain.steps", 1), ("pretrain.batch", 2), ("q.steps", 1)):
        if cfg[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {cfg[key]}")
    if cfg["model.embed"] < 0 or cfg["model.embed"] % 2:
        raise ConfigError(f"model.embed must be even and >= 0, got {cfg['model.embed']}")
    qcfg = build_checked(
        QipoConfig,
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
    else:
        # every bandit transition is terminal: gamma = 0 and one dummy next action
        qnet = train_q(
            dataset, np.zeros((1, spec.action_dim)), 0.0, 0.0, rng.derive(3),
            steps=cfg["q.steps"], batch=256, lr=cfg["q.lr"], lam_soft=0.005,
        )
        q_fn = lambda states, actions: q_forward(qnet, states, actions)  # noqa: E731
    result = qipo_iterate(policy, q_fn, dataset, sched, qcfg, rng.derive(2), spec=spec)
    save_checkpoint(
        result.policy,
        os.path.join(out_dir, "checkpoint.bin"),
        meta={"model_kind": qcfg.policy_kind, "path": sched.config(), "qipo": True},
    )
    final = result.eval_rows[-1]  # k3 >= 1 and the last epoch is always evaluated
    write_json(os.path.join(out_dir, "report.json"), {
        "final_eval": {
            **final,
            "policy_mean": [float(v) for v in final["policy_mean"]],
            "analytic_target": [float(v) for v in final["analytic_target"]],
        },
        "support_renewals": result.support_renewals,
    })
    da = spec.action_dim
    with open(os.path.join(out_dir, "log.csv"), "w") as fh:
        mean_cols = ",".join(f"policy_mean{i}" for i in range(da))
        tgt_cols = ",".join(f"analytic_target{i}" for i in range(da))
        fh.write(f"epoch,cycles,{mean_cols},{tgt_cols},sw_distance\n")
        for row in result.eval_rows:
            means = ",".join(repr(float(v)) for v in row["policy_mean"])
            tgts = ",".join(repr(float(v)) for v in row["analytic_target"])
            fh.write(f"{row['epoch']},{row['cycles']},{means},{tgts},{row['sw_distance']!r}\n")
    timing = _time_action_generation(result.policy, cfg, sched, dataset, rng.derive(9))
    write_json(os.path.join(out_dir, "timing.json"), {"sampler_timing_ms_per_action": timing})
    return final, ["checkpoint.bin", "log.csv", "report.json", "timing.json"]


def _time_action_generation(policy, cfg, sched, dataset, rng):
    """Per-action wall-clock of this package's own samplers on the final
    policy, over 512 actions."""
    n = 512
    state = np.zeros((1, dataset.state_dim))
    timing = {}
    for steps, label in ((cfg["sampler.steps"], f"ode_heun_{cfg['sampler.steps']}"), (50, "ode_heun_50")):
        start = time.perf_counter()
        sample_policy_actions(policy, cfg["policy.kind"], sched, state, rng, n, ode_steps=steps)
        timing[label] = (time.perf_counter() - start) / n * 1000.0
    return timing


# command -> (config-file schema, or None when the settings are flags; runner)
COMMANDS = {
    "train": (TRAIN_SCHEMA, run_train),
    "sample": (None, run_sample),
    "eval": (EVAL_SCHEMA, run_eval),
    "compare-guidance": (COMPARE_SCHEMA, compare_guidance),
    "qipo": (QIPO_SCHEMA, run_qipo),
}


def execute(command: str, cfg: dict, out_dir: str):
    """Run one command into out_dir and record its manifest; returns the
    runner's (summary, output file names)."""
    started = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    summary, outputs = COMMANDS[command][1](cfg, out_dir)
    write_manifest(out_dir, command, cfg, outputs, time.perf_counter() - started)
    return summary, outputs


def replay_manifest(manifest_path: str, out_dir: str):
    manifest = read_manifest(manifest_path)
    if manifest.command not in COMMANDS:
        raise ConfigError(f"manifest command {manifest.command!r} is not replayable")
    cfg, schema = dict(manifest.config), COMMANDS[manifest.command][0]
    if schema is not None:
        # the recorded values go through the schema's parsers as a config file's
        # text does; flags and keys the schema has dropped pass through as recorded
        text = {k: ",".join(map(str, v)) if isinstance(v, list) else str(v)
                for k, v in cfg.items() if k in schema and v is not None}
        cfg.update(validate_config(text, {}, schema, source=manifest_path))
    return execute(manifest.command, cfg, out_dir)


def _from_config(command: str, config_path: str, out_dir: str, **flags):
    values, lines = load_config(config_path)
    cfg = validate_config(values, lines, COMMANDS[command][0], source=config_path)
    return execute(command, {**cfg, **flags}, out_dir)


def _or_fail(fn, *args, **kwargs):
    """fn(*args, **kwargs); any exception exits through _fail."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@click.group()
def main():
    """Energy-weighted flow matching / diffusion workbench."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def train(config_path, out_dir):
    """Train a density model from a flat key=value config file."""
    summary, _ = _or_fail(_from_config, "train", config_path, out_dir)
    ckpt = os.path.join(out_dir, "checkpoint.bin")
    click.echo(f"checkpoint: {ckpt} (final loss {summary['final_loss']:.6g})")


@main.command()
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("-n", "n", default=2000, show_default=True, help="points to sample")
@click.option("--sampler", default="heun", show_default=True)
@click.option("--steps", default=15, show_default=True)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(0, MAX_SEED - 1))
@click.option("--guidance-beta", default=None, type=float,
              help="guidance scale for classifier-pair or beta-conditioned checkpoints")
def sample(checkpoint, out_dir, n, sampler, steps, seed, guidance_beta):
    """Generate samples from a checkpoint and write them as CSV."""
    cfg = {"checkpoint": checkpoint, "n": n, "sampler": sampler, "steps": steps,
           "seed": seed, "guidance_beta": guidance_beta}
    summary, _ = _or_fail(execute, "sample", cfg, out_dir)
    path = os.path.join(out_dir, "samples.csv")
    click.echo(f"samples: {path} (mean {np.round(summary['mean'], 4)})")


@main.command("eval")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--samples", "samples_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def eval_cmd(config_path, samples_path, out_dir):
    """Score a samples CSV against the configured target (TV + sliced Wasserstein)."""
    report, _ = _or_fail(_from_config, "eval", config_path, out_dir, samples=samples_path)
    click.echo(json.dumps(report, indent=2, sort_keys=True))


@main.command("compare-guidance")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def compare_guidance_cmd(config_path, out_dir):
    """Train exact-guidance and affine-composition models; tabulate TV/SW per beta."""
    report, _ = _or_fail(_from_config, "compare-guidance", config_path, out_dir)
    click.echo(json.dumps(report["table"], indent=2, sort_keys=True))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def qipo(config_path, out_dir):
    """Behavior pretraining + Q-weighted iterative policy refinement on the bandit."""
    final, _ = _or_fail(_from_config, "qipo", config_path, out_dir)
    click.echo(
        f"final epoch {final['epoch']}: policy mean {np.round(final['policy_mean'], 3)} "
        f"(target {np.round(final['analytic_target'], 3)})"
    )


@main.command()
def selftest():
    """Run the built-in invariant suite and print a pass/fail table."""
    from .selftest import run_selftest

    results = run_selftest()
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
    _, outputs = _or_fail(replay_manifest, manifest_path, out_dir)
    click.echo("\n".join(os.path.join(out_dir, name) for name in outputs))


if __name__ == "__main__":
    main()
