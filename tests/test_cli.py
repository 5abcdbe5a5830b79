import json

import numpy as np
import pytest
from click.testing import CliRunner

from ewflow.cli import COMMANDS, main, replay_manifest
from ewflow.config import TRAIN_SCHEMA, build_schedule, parse_config_text, validate_config
from ewflow.grids import DensityGrid
from ewflow.nn import load_checkpoint
from ewflow.rng import Rng
from ewflow.sampling import SamplerConfig, generate, read_samples_csv, write_samples_csv

FAST_TRAIN = """
dataset = gauss1d
loss = ced
energy.kind = linear
energy.a = 1.0
energy.beta = 0.0
path.kind = vp
steps = 120
batch = 32
lr = 1e-3
model.hidden = 16
model.embed = 8
n_data = 2048
log_every = 40
seed = 11
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "train.cfg"
    cfg.write_text(FAST_TRAIN)
    out = root / "run1"
    result = CliRunner().invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return root, cfg, out


def test_train_writes_expected_artifacts(trained):
    _, _, out = trained
    assert (out / "checkpoint.bin").exists()
    assert (out / "log.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 11
    assert set(manifest["outputs"]) == {"checkpoint.bin", "log.csv"}
    log_lines = (out / "log.csv").read_text().strip().splitlines()
    assert log_lines[0] == "step,loss,wallclock_ms"
    assert len(log_lines) == 1 + 3  # steps/log_every


def test_unknown_loss_key_exits_2(trained):
    root, _, _ = trained
    bad = root / "bad.cfg"
    bad.write_text(FAST_TRAIN.replace("loss = ced", "loss = nonsense"))
    result = CliRunner().invoke(main, ["train", "--config", str(bad), "--out", str(root / "x")])
    assert result.exit_code == 2
    assert "nonsense" in result.output


def test_unknown_config_key_exits_2(trained):
    root, _, _ = trained
    bad = root / "bad2.cfg"
    bad.write_text(FAST_TRAIN + "bogus.key = 1\n")
    result = CliRunner().invoke(main, ["train", "--config", str(bad), "--out", str(root / "y")])
    assert result.exit_code == 2
    assert "bogus.key" in result.output


def test_sample_default_count_and_determinism(trained):
    root, _, out = trained
    ckpt = str(out / "checkpoint.bin")
    s1 = root / "s1"
    s2 = root / "s2"
    r1 = CliRunner().invoke(main, ["sample", "--checkpoint", ckpt, "--out", str(s1), "--seed", "5"])
    r2 = CliRunner().invoke(main, ["sample", "--checkpoint", ckpt, "--out", str(s2), "--seed", "5"])
    assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
    b1 = (s1 / "samples.csv").read_bytes()
    b2 = (s2 / "samples.csv").read_bytes()
    assert b1 == b2
    pts, meta = read_samples_csv(s1 / "samples.csv")
    assert len(pts) == 2000  # default sample count
    assert meta["steps"] == 15  # default integrator steps
    r3 = CliRunner().invoke(
        main, ["sample", "--checkpoint", ckpt, "--out", str(root / "s3"), "--seed", "6"]
    )
    assert (root / "s3" / "samples.csv").read_bytes() != b1
    assert r3.exit_code == 0


@pytest.mark.parametrize("sampler", ["euler", "heun", "ancestral"])
def test_sample_each_sampler_matches_generate_and_reruns(trained, sampler):
    root, _, out = trained  # a ced checkpoint on the vp path
    ckpt = str(out / "checkpoint.bin")
    dest = root / f"sampler_{sampler}"
    result = CliRunner().invoke(
        main,
        ["sample", "--checkpoint", ckpt, "--sampler", sampler, "--steps", "6", "-n", "50",
         "--seed", "4", "--out", str(dest)],
    )
    assert result.exit_code == 0, result.output
    pts, meta = read_samples_csv(dest / "samples.csv")
    assert meta["sampler"] == sampler
    model, ckpt_meta = load_checkpoint(ckpt)
    sched = build_schedule(ckpt_meta["path"])
    want = generate(model, ckpt_meta, sched, SamplerConfig(sampler, 6, 50), Rng(4))
    assert np.array_equal(pts, want)
    again = root / f"sampler_{sampler}_rerun"
    result = CliRunner().invoke(
        main, ["rerun", "--manifest", str(dest / "manifest.json"), "--out", str(again)]
    )
    assert result.exit_code == 0, result.output
    assert (again / "samples.csv").read_bytes() == (dest / "samples.csv").read_bytes()


def test_unknown_sampler_exits_2_and_writes_nothing(trained):
    root, _, out = trained
    dest = root / "sampler_rk45"
    result = CliRunner().invoke(
        main,
        ["sample", "--checkpoint", str(out / "checkpoint.bin"), "--sampler", "rk45",
         "--out", str(dest)],
    )
    assert result.exit_code == 2, result.output
    assert "unknown sampler 'rk45' (euler|heun|ancestral)" in result.output
    assert not dest.exists() or not any(dest.iterdir())


def test_train_rerun_reproduces_checkpoint_bytes(trained):
    root, cfg, out = trained
    out2 = root / "run2"
    result = CliRunner().invoke(main, ["train", "--config", str(cfg), "--out", str(out2)])
    assert result.exit_code == 0
    assert (out / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()


def test_replay_from_manifest(trained):
    root, _, out = trained
    out3 = root / "run3"
    replay_manifest(str(out / "manifest.json"), str(out3))
    assert (out / "checkpoint.bin").read_bytes() == (out3 / "checkpoint.bin").read_bytes()


def test_eval_command(trained):
    root, _, out = trained
    ckpt = str(out / "checkpoint.bin")
    sdir = root / "se"
    CliRunner().invoke(main, ["sample", "--checkpoint", ckpt, "--out", str(sdir), "--seed", "1"])
    ecfg = root / "eval.cfg"
    ecfg.write_text("dataset = gauss1d\n")
    edir = root / "ev"
    result = CliRunner().invoke(
        main,
        ["eval", "--config", str(ecfg), "--samples", str(sdir / "samples.csv"), "--out", str(edir)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((edir / "report.json").read_text())
    assert np.isfinite(report["sliced_wasserstein"])  # quality is the acceptance suite's job
    assert report["n_samples"] == 2000


def test_missing_checkpoint_is_runtime_error(trained):
    root, _, _ = trained
    result = CliRunner().invoke(
        main, ["sample", "--checkpoint", str(root / "nope.bin"), "--out", str(root / "z")]
    )
    assert result.exit_code == 2  # click's own path validation


TINY_QIPO = """
env.n_data = 256
seed = 3
m_support = 4
k3 = 2
batch = 64
pretrain.steps = 100
pretrain.lr = 1e-2
pretrain.batch = 64
sampler.steps = 5
eval.every = 1
eval.n = 200
model.hidden = 16
model.embed = 8
"""


@pytest.mark.parametrize("q_mode", ["oracle", "learned"])
def test_qipo_rerun_is_byte_identical(tmp_path, q_mode):
    cfg = tmp_path / "qipo.cfg"
    cfg.write_text(TINY_QIPO + f"q.mode = {q_mode}\nq.steps = 50\n")
    out = tmp_path / "q1"
    result = CliRunner().invoke(main, ["qipo", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"checkpoint.bin", "log.csv", "report.json", "timing.json"}
    assert "sampler_timing_ms_per_action" in json.loads((out / "timing.json").read_text())
    out2 = tmp_path / "q2"
    result = CliRunner().invoke(
        main, ["rerun", "--manifest", str(out / "manifest.json"), "--out", str(out2)]
    )
    assert result.exit_code == 0, result.output
    for name in ("report.json", "log.csv", "checkpoint.bin"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, key",
    [
        ("qipo", "k3"), ("qipo", "k_renew"), ("qipo", "pretrain.batch"), ("qipo", "pretrain.steps"),
        ("qipo", "q.steps"), ("qipo", "env.n_data"), ("qipo", "model.embed"), ("train", "steps"),
        ("train", "beta_max"), ("train", "n_data"), ("train", "batch"), ("train", "model.embed"),
        ("sample", "steps"), ("eval", "n_ref"), ("eval", "tv_res"),
    ],
)
def test_out_of_range_value_exits_2_and_writes_nothing(trained, command, key):
    root, _, out = trained
    low = {"pretrain.batch": 2, "batch": 2}.get(key, 1)  # a softmax-weighted batch needs two rows
    bad, message = low - 1, f"{key} must be >= {low}, got {low - 1}"
    if key == "model.embed":  # the sinusoidal embedding pairs sin and cos
        bad, message = 3, "model.embed must be even and >= 0, got 3"
    train = FAST_TRAIN
    if key == "beta_max":  # only the beta-conditioned loss divides by it
        bad, message = 0, "beta_max must be > 0 for loss ced_beta_input, got 0"
        train = FAST_TRAIN.replace("loss = ced\n", "loss = ced_beta_input\n")
    dest = root / f"range_{command}_{key}"
    if command == "sample":
        args = ["--checkpoint", str(out / "checkpoint.bin"), f"--{key}", str(bad)]
    else:
        text = {"qipo": TINY_QIPO, "train": train, "eval": "dataset = gauss1d"}[command]
        kept = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
        cfg = root / f"range_{command}_{key}.cfg"
        cfg.write_text("\n".join(kept + [f"{key} = {bad}"]) + "\n")
        args = ["--config", str(cfg)]
        if command == "eval":
            samples = root / "range_samples.csv"
            write_samples_csv(samples, np.zeros((4, 1)), {})
            args += ["--samples", str(samples)]
    result = CliRunner().invoke(main, [command, *args, "--out", str(dest)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not dest.exists() or not any(dest.iterdir())


def test_guidance_beta_for_plain_checkpoint_exits_2_and_writes_nothing(trained):
    root, _, out = trained  # a plain ced (score) checkpoint
    dest = root / "beta_on_plain"
    result = CliRunner().invoke(
        main,
        ["sample", "--checkpoint", str(out / "checkpoint.bin"), "--guidance-beta", "2.0",
         "--out", str(dest)],
    )
    assert result.exit_code == 2, result.output
    assert "takes no guidance beta" in result.output
    assert not dest.exists() or not any(dest.iterdir())


TINY_COMPARE = """
dataset = bimodal2d
betas = 1.0, 2.0
steps = 150
batch = 64
lr = 1e-3
seed = 9
n_data = 4096
n_samples = 500
tv_res = 32
energy.kind = quadratic
energy.diag = 0.25, 0.25
energy.center = 2.0, 0.0
energy.classifier = true
path.kind = vp
model.hidden = 16
model.embed = 8
"""


def test_compare_guidance_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text(TINY_COMPARE)
    out = tmp_path / "c1"
    result = CliRunner().invoke(main, ["compare-guidance", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs[0] == "report.json"
    assert {n.split("_")[0] for n in outputs[1:]} == {"checkpoint", "samples"}
    out2 = tmp_path / "c2"
    result = CliRunner().invoke(
        main, ["rerun", "--manifest", str(out / "manifest.json"), "--out", str(out2)]
    )
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == [str(out2 / name) for name in outputs]
    for name in outputs:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize(
    "line, message",
    [
        ("betas = 1.0, -2.0", "betas must be nonnegative, got 1, -2"),
        ("ewd_mode = beta-inptu", "unknown ewd_mode 'beta-inptu'"),
        ("betas = 0.0\newd_mode = beta-input", "needs beta_max = max(betas) > 0, got 0"),
        ("tv_res = 0", "tv_res must be >= 1, got 0"),
        ("betas = 1.0, 1.0", "betas must differ at 6 significant digits (file tags), got 1, 1"),
        ("betas = 1, 1.0000001", "betas must differ at 6 significant digits (file tags), got 1, 1"),
    ],
)
def test_compare_guidance_bad_betas_or_mode_exit_2_and_write_nothing(tmp_path, line, message):
    key = line.split(" =")[0]
    kept = [row for row in TINY_COMPARE.splitlines() if not row.startswith(f"{key} =")]
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text("\n".join(kept + [line]) + "\n")
    dest = tmp_path / "out"
    result = CliRunner().invoke(main, ["compare-guidance", "--config", str(cfg), "--out", str(dest)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not dest.exists() or not any(dest.iterdir())


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["train", "qipo", "compare-guidance", "eval", "sample"])
def test_out_of_range_seed_exits_2_and_writes_nothing(trained, command, seed):
    root, _, out = trained
    dest = root / f"seed_{command}_{seed}"
    if command == "sample":
        args = ["--checkpoint", str(out / "checkpoint.bin"), "--seed", str(seed)]
        message = f"{seed} is not in the range 0<=x<={2**64 - 1}"
    else:
        text = {"train": FAST_TRAIN, "qipo": TINY_QIPO, "compare-guidance": TINY_COMPARE,
                "eval": "dataset = gauss1d"}[command]
        kept = [line for line in text.splitlines() if not line.startswith("seed =")]
        cfg = root / f"seed_{command}_{seed}.cfg"
        cfg.write_text("\n".join(kept + [f"seed = {seed}"]) + "\n")
        args = ["--config", str(cfg)]
        message = f"{cfg}:{len(kept) + 1}: invalid value for 'seed': must be in [0, {2**64 - 1}], got {seed}"
        if command == "eval":
            samples = root / "seed_samples.csv"
            write_samples_csv(samples, np.zeros((4, 1)), {})
            args += ["--samples", str(samples)]
    result = CliRunner().invoke(main, [command, *args, "--out", str(dest)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not dest.exists()


def _save_energy_table(path) -> None:
    """A 32 x 32 table of the bowl E(x) = |x - (2, 0)|^2 / 8 over bimodal2d's support."""
    bowl = lambda p: 0.125 * ((p - [2.0, 0.0]) ** 2).sum(-1)  # noqa: E731
    DensityGrid.from_fn(bowl, [(-4.0, 4.0), (-3.0, 3.0)], 32, normalize=False).save(path)


def test_grid_energy_trains_evaluates_and_reruns(tmp_path):
    table = tmp_path / "energy.grid"
    _save_energy_table(table)
    energy = f"energy.kind = grid\nenergy.table = {table}\n"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        FAST_TRAIN.replace("dataset = gauss1d", "dataset = bimodal2d")
        .replace("energy.kind = linear\nenergy.a = 1.0\n", energy)
        .replace("steps = 120", "steps = 40")
    )
    out = tmp_path / "train"
    result = CliRunner().invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    again = tmp_path / "rerun"
    result = CliRunner().invoke(
        main, ["rerun", "--manifest", str(out / "manifest.json"), "--out", str(again)]
    )
    assert result.exit_code == 0, result.output
    assert (again / "checkpoint.bin").read_bytes() == (out / "checkpoint.bin").read_bytes()
    samples = tmp_path / "samples"
    result = CliRunner().invoke(
        main,
        ["sample", "--checkpoint", str(out / "checkpoint.bin"), "-n", "200", "--steps", "5",
         "--out", str(samples)],
    )
    assert result.exit_code == 0, result.output
    ecfg = tmp_path / "eval.cfg"
    ecfg.write_text(f"dataset = bimodal2d\n{energy}n_ref = 500\ntv_res = 16\n")
    result = CliRunner().invoke(
        main,
        ["eval", "--config", str(ecfg), "--samples", str(samples / "samples.csv"),
         "--out", str(tmp_path / "eval")],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert np.isfinite(report["tv"]) and np.isfinite(report["sliced_wasserstein"])


@pytest.mark.parametrize(
    "command, lines, message",
    [
        ("train", ["dataset = nope"], "{loc}: invalid value for 'dataset': unknown dataset 'nope'"),
        ("eval", ["dataset = nope"], "{loc}: invalid value for 'dataset': unknown dataset 'nope'"),
        (
            "train", ["energy.kind = quadratic", "energy.diag = 1.0, 1.0", "energy.center = 0.0, 3.0"],
            "energy.kind quadratic is 2-D but dataset 'gauss1d' is 1-D",
        ),
        (
            "train",
            ["dataset = bimodal2d", "energy.kind = quadratic", "energy.diag = 0.25", "energy.center = 2.0"],
            "energy.kind quadratic is 1-D but dataset 'bimodal2d' is 2-D",
        ),
        (
            "eval",
            ["dataset = bimodal2d", "energy.kind = quadratic", "energy.diag = 0.25", "energy.center = 2.0"],
            "energy.kind quadratic is 1-D but dataset 'bimodal2d' is 2-D",
        ),
        (
            "compare-guidance", ["energy.diag = 0.25", "energy.center = 2.0"],
            "energy.kind quadratic is 1-D but dataset 'bimodal2d' is 2-D",
        ),
        ("train", ["energy.a = 1.0, 0.0"], "energy.kind linear is 2-D but dataset 'gauss1d' is 1-D"),
        (
            "train", ["energy.kind = grid", "energy.table = {table}"],
            "energy.kind grid is 2-D but dataset 'gauss1d' is 1-D",
        ),
    ],
    ids=[
        "train-unknown-dataset", "eval-unknown-dataset", "train-2d-quadratic-on-1d",
        "train-1d-quadratic-on-2d", "eval-1d-quadratic-on-2d", "compare-1d-quadratic-on-2d",
        "train-2d-linear-on-1d", "train-grid-on-1d",
    ],
)
def test_wrong_target_exits_2_and_writes_nothing(tmp_path, command, lines, message):
    table = tmp_path / "energy.grid"
    _save_energy_table(table)
    lines = [line.format(table=table) for line in lines]
    keys = {line.split(" =")[0] for line in lines}
    text = {"train": FAST_TRAIN, "eval": "dataset = gauss1d", "compare-guidance": TINY_COMPARE}[command]
    kept = [row for row in text.splitlines() if row.split(" =")[0] not in keys]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(kept + lines) + "\n")
    args = ["--config", str(cfg)]
    if command == "eval":
        samples = tmp_path / "samples.csv"
        write_samples_csv(samples, np.zeros((4, 1)), {})
        args += ["--samples", str(samples)]
    dest = tmp_path / "out"
    result = CliRunner().invoke(main, [command, *args, "--out", str(dest)])
    assert result.exit_code == 2, result.output
    assert message.format(loc=f"{cfg}:{len(kept) + 1}") in result.output
    assert not dest.exists() or not any(dest.iterdir())


def _old_train_manifest(**changes) -> dict:
    """The manifest of a FAST_TRAIN run as written while the train schema
    still carried the exact-loss trainer's keys oracle.res and exact.t_nodes."""
    config = validate_config(*parse_config_text(FAST_TRAIN), TRAIN_SCHEMA)
    config.update({"oracle.res": 48, "exact.t_nodes": 8}, **changes)
    return {"command": "train", "config": config, "seed": 11, "git": "unknown",
            "outputs": ["checkpoint.bin", "log.csv"], "wallclock_s": 0.0}


def _without_wallclock(log_csv) -> list:
    return [line.rsplit(",", 1)[0] for line in log_csv.read_text().splitlines()]


def test_rerun_of_manifest_with_exact_trainer_keys_reproduces_outputs(trained, tmp_path):
    _, _, out = trained  # the FAST_TRAIN run the old manifest describes
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(_old_train_manifest()))
    dest = tmp_path / "rerun"
    result = CliRunner().invoke(main, ["rerun", "--manifest", str(manifest), "--out", str(dest)])
    assert result.exit_code == 0, result.output
    assert (dest / "checkpoint.bin").read_bytes() == (out / "checkpoint.bin").read_bytes()
    assert _without_wallclock(dest / "log.csv") == _without_wallclock(out / "log.csv")


def test_rerun_of_exact_loss_manifest_exits_2_and_names_the_loss(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(_old_train_manifest(loss="efm_exact")))
    dest = tmp_path / "rerun"
    result = CliRunner().invoke(main, ["rerun", "--manifest", str(manifest), "--out", str(dest)])
    assert result.exit_code == 2, result.output
    assert "unknown loss 'efm_exact'" in result.output
    assert not dest.exists() or not any(dest.iterdir())


def test_rerun_of_unknown_command_exits_2(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "command": "bogus", "config": {"seed": 0}, "seed": 0, "git": "unknown",
        "outputs": [], "wallclock_s": 0.0,
    }))
    result = CliRunner().invoke(
        main, ["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "r")]
    )
    assert result.exit_code == 2
    assert "'bogus' is not replayable" in result.output


@pytest.mark.parametrize("command", ["train", "eval"])
def test_rerun_of_manifest_with_unknown_dataset_exits_2_like_its_config_file(tmp_path, command):
    text = {"train": FAST_TRAIN, "eval": "dataset = gauss1d\n"}[command]
    samples = tmp_path / "samples.csv"
    write_samples_csv(samples, np.zeros((4, 1)), {})
    flags = {"samples": str(samples)} if command == "eval" else {}
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("dataset = gauss1d", "dataset = nope"))
    args = [f"--{k}={v}" for k, v in flags.items()]
    from_file = CliRunner().invoke(main, [command, "--config", str(cfg), *args, "--out", str(tmp_path / "a")])
    values, lines = parse_config_text(text)
    config = {**validate_config(values, lines, COMMANDS[command][0]), **flags, "dataset": "nope"}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": command, "config": config, "seed": config["seed"],
                                    "git": "unknown", "outputs": [], "wallclock_s": 0.0}))
    dest = tmp_path / "rerun"
    from_manifest = CliRunner().invoke(main, ["rerun", "--manifest", str(manifest), "--out", str(dest)])
    assert from_file.exit_code == from_manifest.exit_code == 2, from_manifest.output
    assert "invalid value for 'dataset': unknown dataset 'nope'" in from_manifest.output
    loc = f"{cfg}:{lines['dataset']}"
    assert from_file.output.replace(loc, "LOC") == from_manifest.output.replace(str(manifest), "LOC")
    assert not dest.exists() or not any(dest.iterdir())


def test_eval_rerun_replays_the_samples_flag(trained):
    root, _, out = trained
    sdir = root / "se_rerun"
    CliRunner().invoke(main, ["sample", "--checkpoint", str(out / "checkpoint.bin"), "-n", "300",
                              "--out", str(sdir)])
    ecfg = root / "eval_rerun.cfg"
    ecfg.write_text("dataset = gauss1d\nn_ref = 500\n")
    first, second = root / "ev_first", root / "ev_second"
    result = CliRunner().invoke(
        main, ["eval", "--config", str(ecfg), "--samples", str(sdir / "samples.csv"), "--out", str(first)]
    )
    assert result.exit_code == 0, result.output
    result = CliRunner().invoke(main, ["rerun", "--manifest", str(first / "manifest.json"), "--out", str(second)])
    assert result.exit_code == 0, result.output
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()


@pytest.mark.parametrize("dataset, samples_dim", [("bimodal2d", 1), ("gauss1d", 2)])
def test_eval_of_samples_of_another_dimension_exits_2_and_writes_nothing(tmp_path, dataset, samples_dim):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"dataset = {dataset}\n")
    samples = tmp_path / "samples.csv"
    write_samples_csv(samples, np.zeros((4, samples_dim)), {})
    dest = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["eval", "--config", str(cfg), "--samples", str(samples), "--out", str(dest)]
    )
    assert result.exit_code == 2, result.output
    dim = 3 - samples_dim
    assert f"samples are {samples_dim}-D but dataset {dataset!r} is {dim}-D" in result.output
    assert not dest.exists() or not any(dest.iterdir())


def test_every_artifact_command_is_in_the_table():
    assert set(main.commands) - {"selftest", "rerun"} == set(COMMANDS)
