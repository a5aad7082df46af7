"""Run configuration: a flat dotted-key text format with strict validation.

Grammar, one entry per line:

    section.key = value        # trailing comments allowed

Blank lines and lines starting with '#' are skipped.  Unknown keys are hard
errors; later entries override earlier ones.  Booleans accept true/false,
yes/no, 1/0.  The literal `auto` (or `none`) leaves an optional key unset.
A number that is not finite (nan, inf) is an error, in a list too.
Command-line overrides use the same dotted keys: --model.p 2.0.
"""

from dataclasses import dataclass

import numpy as np

from .grids import Field, Grid
from .model import InitialData, Params, bump_box_half_width, bump_data, constant_data
from .model import make_initial_data, mode_data
from .stepper import DT_MIN, Controls

__all__ = [
    "ConfigError",
    "RunConfig",
    "SCHEMA",
    "default_config",
    "parse_config_text",
    "apply_overrides",
    "build_grid",
    "build_params",
    "build_initial_data",
    "build_controls",
    "config_hash",
]


class ConfigError(Exception):
    pass


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _opt_float(text: str):
    low = text.strip().lower()
    if low in ("auto", "none", ""):
        return None
    return float(text)


def _csv_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _csv_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


# key -> (parser, default)
SCHEMA = {
    "grid.dim": (int, 1),
    "grid.points": (int, 256),
    "grid.half_width": (_opt_float, None),
    "model.p": (float, 2.0),
    "model.beta": (float, 0.0),
    "model.b0": (float, 1.0),
    "model.nonlinear": (_bool, True),
    "init.kind": (str, "bump"),
    "init.amplitude": (float, 1.0),
    "init.radius": (float, 1.0),
    "init.on": (str, "u1"),
    "init.mode": (int, 1),
    "time.t_end": (float, 50.0),
    "time.dt0": (float, 1e-2),
    "time.tol": (float, 1e-6),
    "blowup.u_max": (float, 1e8),
    "output.dir": (str, "out"),
    "output.every": (int, 0),
    "sweep.n": (_csv_ints, (1,)),
    "sweep.p": (_csv_floats, (2.0,)),
    "sweep.beta": (_csv_floats, (0.0,)),
    "sweep.b0": (_csv_floats, (1.0,)),
    "sweep.amplitude": (_csv_floats, (1.0,)),
}

# each swept config key and the run key its values set, in point order
POINT_KEYS = {
    "sweep.n": "grid.dim",
    "sweep.p": "model.p",
    "sweep.beta": "model.beta",
    "sweep.b0": "model.b0",
    "sweep.amplitude": "init.amplitude",
}

_INIT_KINDS = ("bump", "constant", "mode")
_INIT_ON = ("u0", "u1", "both")


@dataclass
class RunConfig:
    entries: dict

    def __getitem__(self, key: str):
        return self.entries[key]

    def validate(self) -> "RunConfig":
        if self["grid.dim"] not in (1, 2, 3):
            raise ConfigError(f"grid.dim must be 1, 2 or 3, got {self['grid.dim']}")
        points = self["grid.points"]
        if points < 2 or points & (points - 1):
            raise ConfigError(f"grid.points must be a power of two >= 2, got {points}")
        half = self["grid.half_width"]
        if half is not None and not half > 0:
            raise ConfigError(f"grid.half_width must be positive or auto, got {half}")
        if self["init.kind"] not in _INIT_KINDS:
            raise ConfigError(f"init.kind must be one of {_INIT_KINDS}")
        if self["init.on"] not in _INIT_ON:
            raise ConfigError(f"init.on must be one of {_INIT_ON}")
        for key in ("model.p",):
            if not self[key] > 1.0:
                raise ConfigError(f"{key} must exceed 1, got {self[key]}")
        for key in ("model.b0", "init.radius", "time.t_end", "blowup.u_max"):
            if not self[key] > 0:
                raise ConfigError(f"{key} must be positive, got {self[key]}")
        if not self["time.dt0"] >= DT_MIN:
            raise ConfigError(
                f"time.dt0 must be at least the step floor DT_MIN = {DT_MIN}, got {self['time.dt0']}"
            )
        if self["time.tol"] < 0:
            raise ConfigError("time.tol must be >= 0 (0 disables the step control)")
        return self


def default_config() -> RunConfig:
    return RunConfig({key: default for key, (_, default) in SCHEMA.items()})


def _apply(schema: dict, entries: dict, key: str, raw: str, where: str) -> None:
    """Store raw in entries, parsed by key's parser in schema (key -> (parser, default))."""
    if key not in schema:
        raise ConfigError(f"unknown config key {key!r} ({where})")
    parser = schema[key][0]
    try:
        value = parser(raw)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({where}: {exc})") from None
    values = value if isinstance(value, tuple) else (value,)
    if not all(np.isfinite(x) for x in values if isinstance(x, float)):
        raise ConfigError(f"{key} must be finite, got {raw!r} ({where})")
    entries[key] = value


def parse_config_text(text: str, where: str = "config") -> RunConfig:
    cfg = default_config()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        _apply(SCHEMA, cfg.entries, key.strip(), raw.strip(), f"{where}:{lineno}")
    return cfg.validate()


def apply_overrides(cfg: RunConfig, pairs) -> RunConfig:
    for key, raw in pairs:
        _apply(SCHEMA, cfg.entries, key, raw, "command line")
    return cfg.validate()


def config_hash(cfg: RunConfig) -> str:
    import hashlib  # here, as only the manifest writers hash, and it costs 5 ms at import

    canon = "\n".join(f"{k}={cfg.entries[k]!r}" for k in sorted(cfg.entries))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_grid(cfg: RunConfig) -> Grid:
    half = cfg["grid.half_width"]
    if half is None:
        if cfg["init.kind"] == "bump":
            half = bump_box_half_width(cfg["init.radius"], cfg["time.t_end"])
        else:
            half = max(8.0, 4.0 * cfg["init.radius"])
    return Grid(cfg["grid.dim"], cfg["grid.points"], half)


def build_params(cfg: RunConfig) -> Params:
    return Params(
        n=cfg["grid.dim"],
        p=cfg["model.p"],
        beta=cfg["model.beta"],
        b0=cfg["model.b0"],
        nonlinear=cfg["model.nonlinear"],
    )


def build_initial_data(cfg: RunConfig, grid: Grid) -> InitialData:
    kind = cfg["init.kind"]
    amp = cfg["init.amplitude"]
    if kind == "bump":
        shape = bump_data(grid, amp, radius=cfg["init.radius"])
    elif kind == "constant":
        shape = constant_data(grid, amp)
    else:
        shape = mode_data(grid, amp, cfg["init.mode"])
    zero = Field(grid, np.zeros(grid.shape))
    on = cfg["init.on"]
    u0 = shape if on in ("u0", "both") else zero
    u1 = shape if on in ("u1", "both") else zero
    # a positive velocity bump is data of the paper's positive-mean hypothesis
    theorem = kind == "bump" and on == "u1" and amp > 0
    return make_initial_data(u0, u1, compact_support=(kind == "bump"), theorem_data=theorem)


def build_controls(cfg: RunConfig) -> Controls:
    return Controls(
        t_end=cfg["time.t_end"],
        dt0=cfg["time.dt0"],
        tol=cfg["time.tol"] or None,
        u_max=cfg["blowup.u_max"],
        snapshot_every=cfg["output.every"] or None,
    )
