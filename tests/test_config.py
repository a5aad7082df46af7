import pytest

from blowuplab.cli import _parse_flags
from blowuplab.config import (
    ConfigError,
    _bool,
    apply_overrides,
    build_controls,
    build_grid,
    build_initial_data,
    build_params,
    config_hash,
    default_config,
    parse_config_text,
)

SAMPLE = """
# one simulation
grid.dim = 1
grid.points = 128
model.p = 2.5        # overridden below
model.p = 3.0
init.kind = bump
init.amplitude = 10.0
time.t_end = 20.0
time.tol = 0
sweep.p = 1.5,2.0,3.0
"""


def test_parse_sample():
    cfg = parse_config_text(SAMPLE)
    assert cfg["grid.points"] == 128
    assert cfg["model.p"] == 3.0  # later entries win
    assert cfg["time.tol"] == 0.0
    assert cfg["sweep.p"] == (1.5, 2.0, 3.0)


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("grid.spacing = 0.1")


def test_malformed_line():
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text("grid.points 128")


def test_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("grid.points = many")


def test_a_value_that_is_not_finite_is_an_error():
    with pytest.raises(ConfigError, match=r"^model.beta must be finite, got 'nan' \(config:1\)$"):
        parse_config_text("model.beta = nan")
    with pytest.raises(ConfigError, match="sweep.p must be finite"):
        parse_config_text("sweep.p = 2,inf")
    assert parse_config_text("grid.half_width = auto")["grid.half_width"] is None


def test_validation_rules():
    with pytest.raises(ConfigError, match="dim"):
        parse_config_text("grid.dim = 7")
    with pytest.raises(ConfigError, match="init.kind"):
        parse_config_text("init.kind = blob")
    with pytest.raises(ConfigError, match="time.dt0 must be at least the step floor"):
        parse_config_text("time.dt0 = 1e-14")
    with pytest.raises(ConfigError, match="init.on must be one of"):
        parse_config_text("init.on = v0")
    with pytest.raises(ConfigError, match="time.tol must be >= 0"):
        parse_config_text("time.tol = -1e-6")


def test_override_tokens():
    flags, pairs = _parse_flags(
        ["--config", "run.cfg", "--model.p", "2.5", "--force", "--time.t_end=3"],
        {"config": (str, None), "force": (_bool, False)},
        overrides=True,
    )
    assert pairs == [("model.p", "2.5"), ("time.t_end", "3")]
    assert flags == {"config": "run.cfg", "force": True}
    cfg = default_config()
    apply_overrides(cfg, pairs)
    assert cfg["model.p"] == 2.5
    assert cfg["time.t_end"] == 3.0


def test_override_unknown_key():
    with pytest.raises(ConfigError):
        apply_overrides(default_config(), [("model.q", "2.0")])


def test_hash_stable_and_sensitive():
    a = parse_config_text("model.p = 2.0")
    b = parse_config_text("model.p = 2.0")
    c = parse_config_text("model.p = 2.5")
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_build_grid_auto_half_width():
    cfg = parse_config_text("time.t_end = 10\ninit.radius = 2.0")
    grid = build_grid(cfg)
    assert grid.half_width == pytest.approx(4.0 * 12.0)
    # the defaults, which a sweep point shares: radius 1 and t_end 50
    assert build_grid(default_config()).half_width == pytest.approx(4.0 * 51.0)
    cfg2 = parse_config_text("grid.half_width = 5.0")
    assert build_grid(cfg2).half_width == 5.0
    cfg3 = parse_config_text("init.kind = constant")
    assert build_grid(cfg3).half_width == 8.0


def test_build_params_and_controls():
    cfg = parse_config_text("model.nonlinear = false\ntime.tol = 0\noutput.every = 5")
    params = build_params(cfg)
    assert not params.nonlinear
    controls = build_controls(cfg)
    assert controls.tol is None  # 0 disables the adaptive control
    assert controls.snapshot_every == 5


def test_build_initial_data_placement():
    cfg = parse_config_text("init.on = u0\ninit.kind = constant\ninit.amplitude = 2.0\ngrid.points = 32")
    grid = build_grid(cfg)
    data = build_initial_data(cfg, grid)
    assert data.u0.values.max() == 2.0
    assert data.u1.values.max() == 0.0
    assert not data.compact_support

    cfg2 = parse_config_text("init.on = both\ngrid.points = 32\ntime.t_end = 1")
    data2 = build_initial_data(cfg2, build_grid(cfg2))
    assert data2.u0.values.max() > 0.0
    assert data2.u1.values.max() > 0.0
    assert data2.compact_support
    # only a positive bump on u1 is data of the paper's hypothesis
    assert not data.theorem_data and not data2.theorem_data
    cfg3 = parse_config_text("grid.points = 32\ntime.t_end = 1")
    assert build_initial_data(cfg3, build_grid(cfg3)).theorem_data
