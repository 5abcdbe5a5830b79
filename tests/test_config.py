import pytest

from ewflow.config import (
    QIPO_SCHEMA,
    TRAIN_SCHEMA,
    ConfigError,
    build_energy,
    build_schedule,
    parse_config_text,
    validate_config,
)


def test_parse_basic():
    values, lines = parse_config_text("a = 1\n# comment\nb.c = two  # inline\n\n")
    assert values == {"a": "1", "b.c": "two"}
    assert lines == {"a": 1, "b.c": 3}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=":2:"):
        parse_config_text("a = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text(" = 3\n")


def test_validate_unknown_key_names_key_and_line():
    values, lines = parse_config_text("dataset = gauss1d\nloss = ced\nwat = 1\n", source="f.cfg")
    with pytest.raises(ConfigError, match=r"f\.cfg:3: unknown key 'wat'"):
        validate_config(values, lines, TRAIN_SCHEMA, source="f.cfg")


def test_validate_missing_required():
    values, lines = parse_config_text("loss = ced\n")
    with pytest.raises(ConfigError, match="missing required key 'dataset'"):
        validate_config(values, lines, TRAIN_SCHEMA)


def test_validate_types_and_defaults():
    values, lines = parse_config_text(
        "dataset = gauss1d\nloss = ced\nsteps = 100\nmodel.hidden = 8,8\nenergy.a = 1.0\n"
    )
    cfg = validate_config(values, lines, TRAIN_SCHEMA)
    assert cfg["steps"] == 100 and isinstance(cfg["steps"], int)
    assert cfg["model.hidden"] == (8, 8)
    assert cfg["energy.a"] == (1.0,)
    assert cfg["batch"] == 256  # default
    with pytest.raises(ConfigError, match="invalid value"):
        validate_config(*parse_config_text("dataset = g\nloss = ced\nsteps = few\n"), TRAIN_SCHEMA)


def test_build_energy_variants():
    assert build_energy({"energy.kind": "none"}) is None
    lin = build_energy({"energy.kind": "linear", "energy.beta": 2.0, "energy.a": (1.0, 0.0)})
    assert lin.kind == "linear" and lin.beta == 2.0
    quad = build_energy(
        {
            "energy.kind": "quadratic",
            "energy.beta": 1.0,
            "energy.diag": (0.25, 0.25),
            "energy.center": (2.0, 0.0),
            "energy.classifier": True,
        }
    )
    assert quad.classifier
    with pytest.raises(ConfigError):
        build_energy({"energy.kind": "linear"})
    with pytest.raises(ConfigError):
        build_energy({"energy.kind": "banana"})
    with pytest.raises(ConfigError, match="beta must be nonnegative"):
        build_energy({"energy.kind": "linear", "energy.beta": -1.0, "energy.a": (1.0,)})


def test_build_schedule_variants():
    ot = build_schedule({"path.kind": "ot", "path.sigma_min": 0.01})
    assert ot.kind == "ot" and ot.sigma_min == 0.01
    vp = build_schedule({"path.kind": "vp"})
    assert vp.kind == "vp"
    with pytest.raises(ConfigError):
        build_schedule({"path.kind": "cosine"})
    with pytest.raises(ConfigError, match="sigma_min must lie in"):
        build_schedule({"path.kind": "ot", "path.sigma_min": 2.0})


def test_qipo_schema_defaults_match_stated_values():
    cfg = validate_config({}, {}, QIPO_SCHEMA)
    assert cfg["m_support"] == 16
    assert cfg["k_renew"] == 10
    assert cfg["k3"] == 100
    assert cfg["lambda_soft"] == 0.005
    assert cfg["sampler.steps"] == 15
    assert cfg["eval.every"] == 5
