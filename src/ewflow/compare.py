"""Exact energy guidance versus affine score composition, quantified.

Trains (a) energy-weighted score models targeting q propto p * exp(-beta E)
and (b) one classifier-pair model whose null/class heads are affinely mixed
at sampling time, then scores both against the analytic guided target at each
requested guidance scale.  The two agree at beta = 1 and part ways beyond it.
"""

from __future__ import annotations

import os

from .config import (
    ConfigError,
    build_checked,
    build_schedule,
    build_target,
    train_config,
    write_json,
)
from .grids import grid_sample, grid_tv_distance
from .metrics import sliced_wasserstein
from .nn import save_checkpoint
from .oracle import GuidedOracle
from .rng import Rng
from .sampling import SamplerConfig, generate, write_samples_csv
from .training import train_density_model

__all__ = ["compare_guidance"]


def compare_guidance(cfg: dict, out_dir: str):
    """Writes report.json, the checkpoints and the samples into out_dir;
    returns (report, output file names)."""
    gmm, energy = build_target(cfg)
    if gmm.dim != 2:
        raise ConfigError("guidance comparison needs a 2D dataset (TV grids are 2D)")
    if energy is None or not energy.classifier:
        raise ConfigError("guidance comparison requires a classifier energy (energy.classifier = true)")
    sched = build_schedule(cfg)
    betas = list(cfg["betas"])
    tags = [f"{b:g}" for b in betas]  # a beta's checkpoint and samples files carry its tag
    if min(betas) < 0:
        raise ConfigError(f"betas must be nonnegative, got {', '.join(tags)}")
    if len(set(tags)) < len(tags):
        raise ConfigError(f"betas must differ at 6 significant digits (file tags), got {', '.join(tags)}")
    if cfg["tv_res"] < 1:
        raise ConfigError(f"tv_res must be >= 1, got {cfg['tv_res']}")
    if cfg["ewd_mode"] not in ("per-beta", "beta-input"):
        raise ConfigError(f"unknown ewd_mode {cfg['ewd_mode']!r} (per-beta|beta-input)")
    if cfg["ewd_mode"] == "beta-input" and max(betas) == 0:
        raise ConfigError("ewd_mode beta-input needs beta_max = max(betas) > 0, got 0")
    seed = cfg["seed"]
    n = cfg["n_samples"]
    sampler = build_checked(SamplerConfig, kind="heun", steps=15, n=n)
    outputs = ["report.json"]

    def _train(loss: str, beta: float, tag: str):
        tc = train_config(
            cfg, loss=loss, energy=energy.with_beta(beta),
            beta_max=max(betas) if loss == "ced_beta_input" else 10.0,
        )
        result = train_density_model(tc)
        path = os.path.join(out_dir, f"checkpoint_{tag}.bin")
        save_checkpoint(result.model, path, meta=result.meta)
        outputs.append(os.path.basename(path))
        return result.model, result.meta

    cfg_model, cfg_meta = _train("cfg", 1.0, "cfg_pair")
    beta_input = cfg["ewd_mode"] == "beta-input"
    if beta_input:
        ewd_shared = _train("ced_beta_input", 1.0, "ewd_beta_input")

    table = []
    for bi, beta in enumerate(betas):
        oracle = GuidedOracle(gmm, energy.with_beta(beta), sched)
        ref_grid = oracle.guided_q0_grid(cfg["tv_res"])
        ref_pts = grid_sample(oracle.guided_q0_grid(), Rng(seed).derive(90, bi), n)
        if beta_input:
            ewd_model, ewd_meta = ewd_shared
            guidance = beta
        else:
            ewd_model, ewd_meta = _train("ced", beta, f"ewd_beta{beta:g}")
            guidance = None
        row = {"beta": beta}
        for name, model, meta, g in (
            ("ewd", ewd_model, ewd_meta, guidance),
            ("cfg", cfg_model, cfg_meta, beta),
        ):
            samples = generate(
                model, meta, sched, sampler,
                Rng(seed).derive(91, bi, 0 if name == "ewd" else 1),
                guidance_beta=g,
            )
            csv = os.path.join(out_dir, f"samples_{name}_beta{beta:g}.csv")
            write_samples_csv(csv, samples, {"model": name, "beta": beta, "seed": seed})
            outputs.append(os.path.basename(csv))
            row[f"{name}_tv"] = grid_tv_distance(samples, ref_grid)
            row[f"{name}_sw"] = sliced_wasserstein(
                samples, ref_pts, rng=Rng(seed).derive(92, bi)
            )
        table.append(row)

    report = {
        "dataset": cfg["dataset"],
        "betas": betas,
        "ewd_mode": cfg["ewd_mode"],
        "n_samples": n,
        "tv_res": cfg["tv_res"],
        "table": table,
    }
    write_json(os.path.join(out_dir, "report.json"), report)
    return report, outputs
