"""Command-line front end: one executable, one subcommand per capability.

Exit codes: simulate reports its outcome (0 horizon reached, 10 blow-up,
20 step floor, 30 boundary contamination, 40 numerical instability);
configuration problems exit 2; an unknown subcommand prints usage and exits
64.  `python -m blowuplab.cli` runs the same entry point as `blwp`.
"""

import json
import math
import os
import sys
import time

from . import __version__
from .config import (
    ConfigError,
    apply_overrides,
    build_controls,
    build_grid,
    build_initial_data,
    build_params,
    config_hash,
    default_config,
    parse_config_text,
    split_override_tokens,
)
from .exponents import beta_threshold, kato_threshold, strauss_exponent
from .grids import save_field_binary
from .model import Params
from .oracles import OdeProblem, ode_blowup_time
from .scaling import invariance_error
from .stepper import ENERGY_CSV_COLUMNS, simulate, write_energy_csv
from .sweep import SweepConfig, format_cell, run_sweep, write_sweep_csv
from .weakform import CutoffSpec, manufactured_crosscheck, measure_term_slopes

USAGE = """usage: blwp <command> [options]

commands:
  simulate   run one simulation from a config file; exit code encodes outcome
  sweep      run a parameter sweep (--config FILE, --workers N)
  slopes     fit window-term power laws (--p --n --beta --d --Ts 8,16,...)
  scaling    rescaling invariance experiment (--beta --lambda --resolution)
  exponents  print threshold table as CSV (--n 1,2,3 --beta 0,-2)
  weakcheck  manufactured-solution weak-form cross-check
  oracle     blow-up time of the space-free reduction (--u0 --v0 --p)

Config keys can be overridden one to one: --model.p 2.5 --time.t_end 10.
"""

EXIT_USAGE = 64
EXIT_CONFIG = 2


class _Flags:
    """Tiny token-pair parser for per-command flags."""

    def __init__(self, tokens):
        self.values = {}
        toks = list(tokens)
        i = 0
        while i < len(toks):
            tok = toks[i]
            if not tok.startswith("--"):
                raise ConfigError(f"unexpected argument {tok!r}")
            name = tok[2:]
            if "=" in name:
                name, raw = name.split("=", 1)
                i += 1
            elif name in ("force", "plots"):
                raw = "true"
                i += 1
            else:
                if i + 1 >= len(toks):
                    raise ConfigError(f"flag {tok} needs a value")
                raw = toks[i + 1]
                i += 2
            self.values[name] = raw

    def get(self, name, default=None, convert=str):
        if name not in self.values:
            return default
        return convert(self.values[name])


def _load_config(argv):
    """Config file (if given) plus dotted-key overrides; returns the config
    and the leftover plain flags."""
    pairs, rest = split_override_tokens(argv)
    flags = _Flags(rest)
    path = flags.get("config")
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


def cmd_simulate(argv) -> int:
    cfg, flags = _load_config(argv)
    force = flags.get("force", False, lambda s: s.lower() != "false")

    grid = build_grid(cfg)
    params = build_params(cfg)
    init = build_initial_data(cfg, grid)
    controls = build_controls(cfg)

    out_dir = cfg["output.dir"]
    _prepare_output_dir(out_dir, force)
    t0 = time.monotonic()
    report = simulate(params, init, controls)
    wall = time.monotonic() - t0

    write_energy_csv(report, os.path.join(out_dir, "energy_trace.csv"))
    if report.final_state is not None:
        save_field_binary(report.final_state.u, os.path.join(out_dir, "final_u.blwp"))
        save_field_binary(report.final_state.v, os.path.join(out_dir, "final_v.blwp"))
    if report.snapshots:
        snap_dir = os.path.join(out_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        for i, s in enumerate(report.snapshots):
            save_field_binary(s.u, os.path.join(snap_dir, f"u_{i:06d}.blwp"))
            save_field_binary(s.v, os.path.join(snap_dir, f"v_{i:06d}.blwp"))
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
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    if cfg["output.plots"]:
        from .plotting import plot_energy_trace

        plot_energy_trace(
            os.path.join(out_dir, "energy_trace.csv"),
            os.path.join(out_dir, "energy_trace.png"),
        )
    _write_manifest(out_dir, config_hash(cfg), wall)
    print(f"{report.outcome.value} t_stop={format_cell(report.t_stop)}")
    return report.exit_code


def cmd_sweep(argv) -> int:
    cfg, flags = _load_config(argv)
    force = flags.get("force", False, lambda s: s.lower() != "false")
    workers = flags.get("workers", 1, int)

    sweep_cfg = SweepConfig(
        n_values=cfg["sweep.n"],
        p_values=cfg["sweep.p"],
        beta_values=cfg["sweep.beta"],
        b0_values=cfg["sweep.b0"],
        amplitudes=cfg["sweep.amplitude"],
        points_per_axis=cfg["grid.points"],
        radius=cfg["init.radius"],
        half_width=cfg["grid.half_width"],
        t_end=cfg["time.t_end"],
        dt0=cfg["time.dt0"],
        dt_min=cfg["time.dt_min"],
        tol=None if cfg["time.tol"] == 0 else cfg["time.tol"],
        u_max=cfg["blowup.u_max"],
        fit_points=cfg["blowup.fit_points"],
    )
    out_dir = cfg["output.dir"]
    _prepare_output_dir(out_dir, force)
    t0 = time.monotonic()
    results = run_sweep(sweep_cfg, workers=workers)
    wall = time.monotonic() - t0
    write_sweep_csv(results, os.path.join(out_dir, "sweep.csv"))
    if cfg["output.plots"]:
        from .plotting import plot_sweep

        plot_sweep(os.path.join(out_dir, "sweep.csv"), os.path.join(out_dir, "sweep.png"))
    _write_manifest(out_dir, config_hash(cfg), wall, {"points": len(results)})
    print(f"sweep complete: {len(results)} points -> {out_dir}/sweep.csv")
    return 0


def cmd_slopes(argv) -> int:
    flags = _Flags(argv)
    p = flags.get("p", 2.0, float)
    n = flags.get("n", 1, int)
    beta = flags.get("beta", 0.0, float)
    d = flags.get("d", 1.0, float)
    horizons = flags.get("Ts", "8,16,32,64,128,256,512", str)
    horizons = [float(x) for x in horizons.split(",") if x.strip()]
    params = Params(n=n, p=p, beta=beta)
    ell = flags.get("ell", None, int)
    eta = flags.get("eta", None, int)
    table = measure_term_slopes(params, d, horizons, ell=ell, eta=eta)
    out = flags.get("out")
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
    flags = _Flags(argv)
    beta = flags.get("beta", -1.0, float)
    lam = flags.get("lambda", 2.0, float)
    resolutions = flags.get("resolution", "256", str)
    resolutions = [int(x) for x in resolutions.split(",") if x.strip()]
    params = Params(n=1, p=2.0, beta=beta, b0=1.0, nonlinear=False)
    print("lambda,resolution,error")
    for res in resolutions:
        err = invariance_error(params, lam=lam, resolution=res)
        print(f"{format_cell(lam)},{res},{format_cell(err)}")
    return 0


def cmd_exponents(argv) -> int:
    flags = _Flags(argv)
    ns = [int(x) for x in flags.get("n", "1,2,3,4,5,6", str).split(",") if x.strip()]
    betas = [float(x) for x in flags.get("beta", "0", str).split(",") if x.strip()]
    print("n,beta,kato,strauss,beta_threshold")
    for n in ns:
        for beta in betas:
            kato = float(kato_threshold(n))
            strauss = strauss_exponent(n) if n >= 2 else math.nan
            thr = float(beta_threshold(n, beta))
            print(",".join(map(format_cell, (n, beta, kato, strauss, thr))))
    return 0


def cmd_weakcheck(argv) -> int:
    from .grids import Grid

    flags = _Flags(argv)
    p = flags.get("p", 2.0, float)
    beta = flags.get("beta", 0.0, float)
    b0 = flags.get("b0", 1.0, float)
    T = flags.get("T", 4.0, float)
    nt = flags.get("nt", 2000, int)
    points = flags.get("points", 256, int)
    half = flags.get("half_width", 2.0 * T, float)
    params = Params(n=1, p=p, beta=beta, b0=b0)
    spec = CutoffSpec(
        ell=flags.get("ell", 6, int), eta=flags.get("eta", 6, int), d=1.0, T=T
    )
    grid = Grid(1, points, half)
    result = manufactured_crosscheck(grid, params, spec, nt)
    print("weak_residual,strong_form,rel_diff")
    print(",".join(format_cell(result[key]) for key in ("weak", "strong", "rel_diff")))
    return 0


def cmd_oracle(argv) -> int:
    flags = _Flags(argv)
    u0 = flags.get("u0", 1.0, float)
    v0 = flags.get("v0", 0.0, float)
    p = flags.get("p", 2.0, float)
    t_star = ode_blowup_time(OdeProblem(u0, v0, p))
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
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
