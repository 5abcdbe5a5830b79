"""Flat key-value run configuration and reproducibility manifests.

Config files are plain text, one `key = value` per line, with dotted keys,
`#` comments, and no environment overrides.  Every command writes a manifest
recording the resolved configuration; rerunning from the manifest reproduces
the command's deterministic outputs byte for byte.  The wall-clock outputs are
the documented exception: the wallclock_ms column of the train log and qipo's
timing.json.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass

import numpy as np

from .datasets import DATASETS, make_dataset
from .energies import EnergySpec
from .grids import DensityGrid
from .mixtures import GaussianMixture
from .paths import PathSchedule
from .rng import MAX_SEED
from .training import TrainConfig

__all__ = [
    "ConfigError",
    "parse_config_text",
    "load_config",
    "validate_config",
    "build_energy",
    "build_target",
    "build_schedule",
    "build_checked",
    "train_config",
    "write_json",
    "RunManifest",
    "write_manifest",
    "read_manifest",
    "git_describe",
    "TRAIN_SCHEMA",
    "QIPO_SCHEMA",
    "COMPARE_SCHEMA",
    "EVAL_SCHEMA",
]


class ConfigError(ValueError):
    """Configuration problem; maps to exit code 2 at the CLI."""


def parse_config_text(text: str, source: str = "<config>") -> tuple[dict, dict]:
    """Returns (values, line_numbers); raises ConfigError with line numbers."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} (first at line {lines[key]})")
        values[key] = value
        lines[key] = lineno
    return values, lines


def load_config(path) -> tuple[dict, dict]:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s: str):
    return tuple(float(p) for p in s.split(","))


def _parse_ints(s: str):
    return tuple(int(p) for p in s.split(","))


def _parse_dataset(s: str) -> str:
    if s not in DATASETS:
        raise ValueError(f"unknown dataset {s!r}; available: {', '.join(sorted(DATASETS))}")
    return s


def _parse_seed(s: str) -> int:
    seed = int(s)
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"must be in [0, {MAX_SEED - 1}], got {seed}")
    return seed


# schema entry: key -> (parser, default); required keys use default=...  REQUIRED
_REQ = object()

_COMMON_ENERGY = {
    "energy.kind": (str, "none"),
    "energy.beta": (float, 1.0),
    "energy.a": (_parse_floats, None),
    "energy.diag": (_parse_floats, None),
    "energy.center": (_parse_floats, None),
    "energy.table": (str, None),
    "energy.classifier": (_parse_bool, False),
}

_COMMON_PATH = {
    "path.kind": (str, "ot"),
    "path.sigma_min": (float, 0.0054),
    "path.beta_min": (float, 0.1),
    "path.beta_max": (float, 20.0),
}

_COMMON_MODEL = {
    "model.hidden": (_parse_ints, (256, 256, 256)),
    "model.embed": (int, 64),
}

TRAIN_SCHEMA = {
    "dataset": (_parse_dataset, _REQ),
    "loss": (str, _REQ),
    "steps": (int, 20_000),
    "batch": (int, 256),
    "lr": (float, 1e-4),
    "seed": (_parse_seed, 0),
    "n_data": (int, 100_000),
    "log_every": (int, 100),
    "beta_max": (float, 10.0),
    **_COMMON_ENERGY,
    **_COMMON_PATH,
    **_COMMON_MODEL,
}

QIPO_SCHEMA = {
    "env": (str, "bandit"),
    "env.w": (_parse_floats, (1.0,)),
    "env.n_data": (int, 16_384),
    "seed": (_parse_seed, 0),
    "beta": (float, 1.0),
    "m_support": (int, 16),
    "k_renew": (int, 10),
    "k3": (int, 100),
    "batch": (int, 128),
    "lr": (float, 1e-4),
    "lambda_soft": (float, 0.005),
    "policy.kind": (str, "score"),
    "pretrain.steps": (int, 10_000),
    "pretrain.lr": (float, 5e-4),
    "pretrain.batch": (int, 512),
    "q.mode": (str, "oracle"),
    "q.steps": (int, 4_000),
    "q.lr": (float, 1e-3),
    "sampler.steps": (int, 15),
    "eval.every": (int, 5),
    "eval.n": (int, 4_000),
    **_COMMON_PATH,
    "path.kind": (str, "vp"),  # diffusion-style policy by default
    "model.hidden": (_parse_ints, (64, 64)),
    "model.embed": (int, 32),
}

COMPARE_SCHEMA = {
    "dataset": (_parse_dataset, _REQ),
    "betas": (_parse_floats, (1.0, 4.0)),
    "steps": (int, 8_000),
    "batch": (int, 256),
    "lr": (float, 1e-3),
    "seed": (_parse_seed, 0),
    "n_data": (int, 100_000),
    "n_samples": (int, 20_000),
    "tv_res": (int, 64),
    "ewd_mode": (str, "per-beta"),
    **_COMMON_ENERGY,
    **_COMMON_PATH,
    **_COMMON_MODEL,
}

EVAL_SCHEMA = {
    "dataset": (_parse_dataset, _REQ),
    "seed": (_parse_seed, 0),
    "n_ref": (int, 20_000),
    "tv_res": (int, 64),
    **_COMMON_ENERGY,
    **_COMMON_PATH,
}


def validate_config(values: dict, lines: dict, schema: dict, source: str = "<config>") -> dict:
    """Type-check against a schema; unknown keys and missing required keys fail."""
    out = {}
    for key, value in values.items():
        loc = f"{source}:{lines.get(key, '?')}" if lines else source
        if key not in schema:
            raise ConfigError(f"{loc}: unknown key {key!r}")
        parser, _ = schema[key]
        try:
            out[key] = parser(value)
        except Exception as exc:
            raise ConfigError(f"{loc}: invalid value for {key!r}: {exc}") from None
    for key, (_, default) in schema.items():
        if key in out:
            continue
        if default is _REQ:
            raise ConfigError(f"{source}: missing required key {key!r}")
        out[key] = default
    return out


def build_energy(cfg: dict) -> EnergySpec | None:
    """The configured energy; a value EnergySpec rejects is a ConfigError."""
    kind = cfg.get("energy.kind", "none")
    beta = cfg.get("energy.beta", 1.0)
    classifier = cfg.get("energy.classifier", False)
    if kind == "none":
        return None
    if kind == "linear":
        if cfg.get("energy.a") is None:
            raise ConfigError("linear energy requires energy.a")
        return build_checked(EnergySpec.linear, a=cfg["energy.a"], beta=beta)
    if kind == "quadratic":
        if cfg.get("energy.diag") is None:
            raise ConfigError("quadratic energy requires energy.diag")
        return build_checked(
            EnergySpec.quadratic, diag=cfg["energy.diag"], beta=beta,
            center=cfg.get("energy.center"), classifier=classifier,
        )
    if kind == "grid":
        if cfg.get("energy.table") is None:
            raise ConfigError("grid energy requires energy.table (a saved grid file)")
        table = DensityGrid.load(cfg["energy.table"])
        return build_checked(EnergySpec.from_table, table=table, beta=beta, classifier=classifier)
    raise ConfigError(f"unknown energy.kind {kind!r}")


def build_target(cfg: dict) -> tuple[GaussianMixture, EnergySpec | None]:
    """The configured dataset and energy; an energy of another dimension than
    the dataset's is a ConfigError."""
    gmm, energy = make_dataset(cfg["dataset"]), build_energy(cfg)
    if energy is not None and energy.dim != gmm.dim:
        raise ConfigError(
            f"energy.kind {energy.kind} is {energy.dim}-D but dataset {cfg['dataset']!r} is {gmm.dim}-D"
        )
    return gmm, energy


def build_schedule(cfg: dict) -> PathSchedule:
    """The configured path; a value PathSchedule rejects is a ConfigError."""
    kind = cfg.get("path.kind", "ot")
    if kind == "ot":
        return build_checked(PathSchedule.ot, sigma_min=cfg.get("path.sigma_min", 0.0054))
    if kind == "vp":
        return build_checked(
            PathSchedule.vp, beta_min=cfg.get("path.beta_min", 0.1),
            beta_max=cfg.get("path.beta_max", 20.0),
        )
    raise ConfigError(f"unknown path.kind {kind!r}")


def build_checked(cls, **fields):
    """cls(**fields) for a class or a function, with a value it rejects
    (a ValueError) reported as a ConfigError."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# flat train-config key -> TrainConfig field
_TRAIN_FIELDS = {
    "dataset": "dataset",
    "loss": "loss",
    "steps": "steps",
    "batch": "batch",
    "lr": "lr",
    "seed": "seed",
    "n_data": "n_data",
    "beta_max": "beta_max",
    "log_every": "log_every",
    "model.embed": "embed_dim",
}


def train_config(cfg: dict, **overrides) -> TrainConfig:
    """The TrainConfig a flat config describes.  Keyword overrides replace
    fields; a key the config lacks (compare-guidance has no `loss` or
    `log_every`) leaves TrainConfig's default."""
    fields = {field: cfg[key] for key, field in _TRAIN_FIELDS.items() if key in cfg}
    fields.update(
        sched=build_schedule(cfg), energy=build_target(cfg)[1], hidden=tuple(cfg["model.hidden"])
    )
    return build_checked(TrainConfig, **{**fields, **overrides})


def git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    git: str
    outputs: list
    wallclock_s: float


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, tuple):
        return list(v)
    return v


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir, command: str, config: dict, outputs: list, wallclock_s: float) -> None:
    manifest = RunManifest(
        command=command,
        config={k: _jsonable(v) for k, v in config.items()},
        seed=int(config["seed"]),
        git=git_describe(),
        outputs=[str(p) for p in outputs],
        wallclock_s=wallclock_s,
    )
    write_json(f"{out_dir}/manifest.json", manifest.__dict__)


def read_manifest(path) -> RunManifest:
    with open(path) as fh:
        obj = json.load(fh)
    return RunManifest(**obj)
