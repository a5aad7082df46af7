"""Command-line front end: one executable, one subcommand per capability.

Exit codes: simulate reports its outcome (0 horizon reached, 10 blow-up,
20 step floor, 30 boundary contamination, 40 numerical instability);
configuration problems exit 2; an unknown subcommand prints usage and exits
64.  A configuration problem is a value that does not parse, or that the
objects a command builds from it refuse; an error raised once the command
runs propagates.  `python -m blowuplab.cli` runs the same entry point as
`blwp`.

Each subcommand imports the library modules it runs inside its `cmd_*`
function, so importing this module, and `blwp simulate`, load only config,
grids, model and stepper.
"""

import itertools
import json
import math
import os
import sys
import time
from contextlib import contextmanager

from . import __version__
from .config import (
    POINT_KEYS,
    SCHEMA,
    ConfigError,
    _apply,
    _bool,
    _csv_floats,
    _csv_ints,
    apply_overrides,
    build_controls,
    build_grid,
    build_initial_data,
    build_params,
    config_hash,
    default_config,
    parse_config_text,
)
from .grids import Grid, save_field_binary, to_full_grid
from .model import Params
from .stepper import format_cell, simulate, write_energy_csv

USAGE = """usage: blwp <command> [options]

commands:
  simulate   run one simulation from a config file; exit code encodes outcome
  sweep      run a parameter sweep (--config FILE, --workers N)
  slopes     fit window-term power laws (--p --n --beta --d --Ts 8,16,...)
  scaling    rescaling invariance experiment (--beta --lambda --resolution)
  exponents  print threshold table as CSV (--n 1,2,3 --beta 0,-2)
  weakcheck  manufactured-solution weak-form cross-check
  oracle     blow-up time of the space-free reduction (--u0 --v0 --p)

Flags take a value, as --name value or --name=value; --force (simulate,
sweep) is the only bare flag, and --force=VALUE takes a config boolean.  In simulate and sweep, config keys can be
overridden one to one: --model.p 2.5 --time.t_end 10.  A flag the command
does not read is a config error.
"""

EXIT_USAGE = 64
EXIT_CONFIG = 2


def _parse_flags(tokens, spec, overrides=False):
    """Walk `--name value`, `--name=value` and the bare `--force`.

    spec maps each flag the command reads to (convert, default), a schema
    that each value goes through as a config value does; returns the
    converted flag values and, where `overrides` is set, the dotted config
    overrides as (key, raw) pairs in command-line order.  Any other name is
    a ConfigError.
    """
    flags = {name: default for name, (_, default) in spec.items()}
    pairs = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        name, eq, value = tok[2:].partition("=")
        i += 1
        if not eq:
            if name == "force":
                value = "true"
            elif i < len(tokens):
                value = tokens[i]
                i += 1
            else:
                raise ConfigError(f"flag {tok} needs a value")
        if overrides and "." in name:
            pairs.append((name, value))
        elif name in spec:
            _apply(spec, flags, name, value, f"--{name}")
        else:
            known = ", ".join(f"--{n}" for n in spec)
            dotted = " and --section.key overrides" if overrides else ""
            raise ConfigError(f"unknown flag --{name}; this command reads {known}{dotted}")
    return flags, pairs


@contextmanager
def _building():
    """Reports a ValueError that a command's objects raise while it builds
    them from flag and config values as the ConfigError it is."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_config(argv, spec, unread):
    """Config file (if given) plus dotted-key overrides; returns the config
    and the command's flags, which are --config plus those of spec.  A key
    the command does not read is refused unless it holds its default; unread
    maps each such key to what to use instead."""
    flags, pairs = _parse_flags(argv, {"config": (str, None), **spec}, overrides=True)
    path = flags["config"]
    if path:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        cfg = parse_config_text(text, where=path)
    else:
        cfg = default_config().validate()
    apply_overrides(cfg, pairs)
    for key, instead in unread.items():
        if cfg[key] != SCHEMA[key][1]:
            raise ConfigError(f"this command does not read {key}; use {instead}")
    return cfg, flags


def _prepare_output_dir(path: str, force: bool) -> None:
    manifest = os.path.join(path, "manifest.json")
    if os.path.exists(manifest) and not force:
        raise ConfigError(
            f"output directory {path} already holds a finished run; use --force to overwrite"
        )
    os.makedirs(path, exist_ok=True)


def _write_manifest(path: str, cfg_hash: str, wall: float, extra=None) -> None:
    doc = {
        "config_sha256": cfg_hash,
        "artifact_version": __version__,
        "wall_time_s": wall,
        "created_unix": time.time(),
    }
    if extra:
        doc.update(extra)
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _field_writer():
    """`save_field_binary` for the fields of one run.  A run on an even
    grid keeps its states there, and a file holds the full grid's samples:
    each field is mirrored into one full-grid buffer, made at the first
    write and reused by the later ones, where a fresh array per field
    would take its page faults anew."""
    buffer = None

    def save(f, path) -> None:
        nonlocal buffer
        if f.grid.even:
            f = to_full_grid(f, buffer)
            buffer = f.values
        save_field_binary(f, path)

    return save


def _snapshot_writer(snap_dir: str, save):
    """A `Controls.on_snapshot` hook that writes the i-th snapshot as
    u_<i>.blwp and v_<i>.blwp in snap_dir with `save`, from
    `_field_writer`, while the run goes on."""
    os.makedirs(snap_dir, exist_ok=True)
    count = itertools.count()

    def write(state) -> None:
        i = next(count)
        save(state.u, os.path.join(snap_dir, f"u_{i:06d}.blwp"))
        save(state.v, os.path.join(snap_dir, f"v_{i:06d}.blwp"))

    return write


def cmd_simulate(argv) -> int:
    cfg, flags = _load_config(argv, {"force": (_bool, False)}, POINT_KEYS)

    with _building():
        grid = build_grid(cfg)
        params = build_params(cfg)
        # handed to simulate, not held here, so that the initial samples are
        # freed once the run has kept a step
        init = [build_initial_data(cfg, grid)]
        controls = build_controls(cfg)

    out_dir = cfg["output.dir"]
    _prepare_output_dir(out_dir, flags["force"])
    save = _field_writer()
    if controls.snapshot_every:
        controls.on_snapshot = _snapshot_writer(os.path.join(out_dir, "snapshots"), save)
    t0 = time.monotonic()
    report = simulate(params, init.pop(), controls)
    wall = time.monotonic() - t0

    write_energy_csv(report, os.path.join(out_dir, "energy_trace.csv"))
    if report.final_state is not None:
        save(report.final_state.u, os.path.join(out_dir, "final_u.blwp"))
        save(report.final_state.v, os.path.join(out_dir, "final_v.blwp"))
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(
            {
                "outcome": report.outcome.value,
                "t_stop": report.t_stop,
                "t_star_est": report.estimate.t_star if report.estimate else None,
                "fit_quality": report.estimate.fit_quality if report.estimate else None,
                "samples_used": report.estimate.samples_used if report.estimate else None,
                "accepted": report.accepted,
                "rejected": report.rejected,
                "dt_min": report.dt_min,
                "dt_max": report.dt_max,
                "solver_points": list(report.solver_points),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    _write_manifest(out_dir, config_hash(cfg), wall)
    print(f"{report.outcome.value} t_stop={format_cell(report.t_stop)}")
    return report.exit_code


def cmd_sweep(argv) -> int:
    from .sweep import SweepConfig, run_sweep, sweep_points, write_sweep_csv

    unread = {run: swept for swept, run in POINT_KEYS.items()}
    unread["output.every"] = "blwp simulate, as a sweep keeps no snapshots"
    for key in ("model.nonlinear", "init.kind", "init.on", "init.mode"):
        unread[key] = "blwp simulate, as a sweep runs the theorem's velocity bump"
    cfg, flags = _load_config(argv, {"force": (_bool, False), "workers": (int, 1)}, unread)
    sweep_cfg = SweepConfig.from_config(cfg)
    # each point's grid and data, built as simulate builds them, so that a
    # point they refuse is a config error, named, before any output;
    # validate covers what Params and Controls check
    for point in sweep_points(sweep_cfg):
        run_cfg = sweep_cfg.point_config(point).validate()
        try:
            with _building():
                build_initial_data(run_cfg, build_grid(run_cfg))
        except ConfigError as exc:
            raise ConfigError(f"sweep point (n, p, beta, b0, amplitude) = {point}: {exc}") from None
    out_dir = cfg["output.dir"]
    _prepare_output_dir(out_dir, flags["force"])
    t0 = time.monotonic()
    results = run_sweep(sweep_cfg, workers=flags["workers"])
    wall = time.monotonic() - t0
    write_sweep_csv(results, os.path.join(out_dir, "sweep.csv"))
    for r in (r for r in results if r.error is not None):
        point = (r.n, r.p, r.beta, r.b0, r.amplitude)
        sys.stderr.write(f"sweep point (n, p, beta, b0, amplitude) = {point}: {r.error}\n")
    _write_manifest(out_dir, config_hash(cfg), wall, {"points": len(results)})
    print(f"sweep complete: {len(results)} points -> {out_dir}/sweep.csv")
    return 0


def cmd_slopes(argv) -> int:
    from .weakform import _windows, measure_term_slopes

    flags, _ = _parse_flags(argv, {
        "p": (float, 2.0),
        "n": (int, 1),
        "beta": (float, 0.0),
        "d": (float, 1.0),
        "Ts": (_csv_floats, (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)),
        "ell": (int, None),
        "eta": (int, None),
        "out": (str, None),
    })
    with _building():
        params = Params(n=flags["n"], p=flags["p"], beta=flags["beta"])
        _windows(params, flags["d"], flags["Ts"], flags["ell"], flags["eta"])
    table = measure_term_slopes(
        params, flags["d"], flags["Ts"], ell=flags["ell"], eta=flags["eta"]
    )
    out = flags["out"]
    lines = ["term,T,value,fitted_slope,predicted_exponent,abs_error"]
    for name, row in table.items():
        for T, v in zip(row["horizons"], row["values"]):
            cells = (T, v, row["slope"], row["predicted"], row["abs_error"])
            lines.append(",".join([name, *map(format_cell, cells)]))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "slopes.csv"), "w") as fh:
            fh.write(text)
    return 0


def cmd_scaling(argv) -> int:
    from .scaling import invariance_error

    flags, _ = _parse_flags(argv, {
        "beta": (float, -1.0),
        "lambda": (float, 2.0),
        "resolution": (_csv_ints, (256,)),
    })
    lam = flags["lambda"]
    if not lam >= 1.0:
        raise ConfigError(f"--lambda must be at least 1, got {lam}: lambda < 1 starts before t = 0")
    with _building():
        params = Params(n=1, p=2.0, beta=flags["beta"], b0=1.0, nonlinear=False)
        for res in flags["resolution"]:
            Grid(1, res, 1.0)  # each resolution is the points of a grid
    # every resolution runs before the header, so rejected input prints nothing
    errors = [invariance_error(params, lam=lam, resolution=res) for res in flags["resolution"]]
    print("lambda,resolution,error")
    for res, err in zip(flags["resolution"], errors):
        print(f"{format_cell(lam)},{res},{format_cell(err)}")
    return 0


def cmd_exponents(argv) -> int:
    from .exponents import beta_threshold, kato_threshold, strauss_exponent

    flags, _ = _parse_flags(argv, {
        "n": (_csv_ints, (1, 2, 3, 4, 5, 6)),
        "beta": (_csv_floats, (0.0,)),
    })
    # every row is built before the header, so rejected input prints nothing
    with _building():
        rows = [
            (n, beta, kato_threshold(n), strauss_exponent(n) if n >= 2 else math.nan,
             beta_threshold(n, beta))
            for n in flags["n"]
            for beta in flags["beta"]
        ]
    print("n,beta,kato,strauss,beta_threshold")
    for row in rows:
        print(",".join(map(format_cell, row)))
    return 0


def cmd_weakcheck(argv) -> int:
    from .weakform import CutoffSpec, manufactured_crosscheck

    flags, _ = _parse_flags(argv, {
        "p": (float, 2.0),
        "beta": (float, 0.0),
        "b0": (float, 1.0),
        "T": (float, 4.0),
        "nt": (int, 2000),
        "points": (int, 256),
        "half_width": (float, None),
        "ell": (int, 6),
        "eta": (int, 6),
    })
    T = flags["T"]
    half = 2.0 * T if flags["half_width"] is None else flags["half_width"]
    if flags["nt"] < 1:
        raise ConfigError(f"--nt must be at least 1, got {flags['nt']}")
    with _building():
        params = Params(n=1, p=flags["p"], beta=flags["beta"], b0=flags["b0"])
        spec = CutoffSpec(ell=flags["ell"], eta=flags["eta"], d=1.0, T=T)
        spec.check_exponents(params.p)
        grid = Grid(1, flags["points"], half)
    result = manufactured_crosscheck(grid, params, spec, flags["nt"])
    print("weak_residual,strong_form,rel_diff")
    print(",".join(format_cell(result[key]) for key in ("weak", "strong", "rel_diff")))
    return 0


def cmd_oracle(argv) -> int:
    from .oracles import OdeProblem, ode_blowup_time

    flags, _ = _parse_flags(argv, {"u0": (float, 1.0), "v0": (float, 0.0), "p": (float, 2.0)})
    with _building():
        prob = OdeProblem(flags["u0"], flags["v0"], flags["p"])
    t_star = ode_blowup_time(prob)
    print(f"t_star,{format_cell(t_star)}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "slopes": cmd_slopes,
    "scaling": cmd_scaling,
    "exponents": cmd_exponents,
    "weakcheck": cmd_weakcheck,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        sys.stderr.write(USAGE)
        return 0 if argv and argv[0] in ("-h", "--help", "help") else EXIT_USAGE
    cmd = argv[0]
    handler = _COMMANDS.get(cmd)
    if handler is None:
        sys.stderr.write(f"unknown command: {cmd}\n\n{USAGE}")
        return EXIT_USAGE
    try:
        return handler(argv[1:])
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
