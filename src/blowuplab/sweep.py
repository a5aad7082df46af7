"""Parameter sweeps over (n, p, beta, b0, amplitude) with reproducible CSV
output.

A sweep point is the `blwp simulate` run config with the run keys of
`POINT_KEYS` set to the point's values, built by the same `config` builders.
`SweepConfig` has no field for the equation or the data, so each point runs
the nonlinear equation from theorem-style data (zero displacement, a
positive velocity bump at the origin) and records the observed outcome next
to the closed-form region verdict, a claim about such data.  A run that reaches the horizon is labeled SurvivedHorizon:
nothing is proven above the threshold, so the label claims only what was
observed.  Points are processed in input order and the report is a
deterministic function of the configuration, whatever the worker count.
"""

import math
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import product

from .config import POINT_KEYS, SCHEMA, RunConfig, default_config
from .config import build_controls, build_grid, build_initial_data, build_params
from .exponents import classify
from .stepper import Outcome, format_cell, simulate

__all__ = [
    "POINT_KEYS",
    "SweepConfig",
    "SweepPoint",
    "sweep_points",
    "run_sweep",
    "write_sweep_csv",
    "SWEEP_CSV_COLUMNS",
]

SWEEP_CSV_COLUMNS = (
    "n",
    "p",
    "beta",
    "b0",
    "amplitude",
    "mean_u1",
    "verdict_theory",
    "outcome",
    "t_stop",
    "t_star_est",
    "fit_quality",
)


def _key(key: str):
    """A field spelled as config key `key`, with the schema's default."""
    return field(default=SCHEMA[key][1], metadata={"key": key})


@dataclass(frozen=True)
class SweepConfig:
    """The sweep's config keys by keyword, with the schema's defaults.

    The five value lists span the points; every other field is a run setting
    that all points share.  tol = None or 0 marches every point with the
    fixed step dt0, as `time.tol = 0` does.
    """

    n_values: tuple = _key("sweep.n")
    p_values: tuple = _key("sweep.p")
    beta_values: tuple = _key("sweep.beta")
    b0_values: tuple = _key("sweep.b0")
    amplitudes: tuple = _key("sweep.amplitude")
    points_per_axis: int = _key("grid.points")
    radius: float = _key("init.radius")
    half_width: float | None = _key("grid.half_width")
    t_end: float = _key("time.t_end")
    dt0: float = _key("time.dt0")
    tol: float | None = _key("time.tol")
    u_max: float = _key("blowup.u_max")

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "SweepConfig":
        return cls(**{f.name: cfg[f.metadata["key"]] for f in fields(cls)})

    def point_config(self, point) -> RunConfig:
        """The run config of one point (n, p, beta, b0, amplitude)."""
        cfg = default_config()
        cfg.entries.update({f.metadata["key"]: getattr(self, f.name) for f in fields(self)})
        cfg.entries.update(zip(POINT_KEYS.values(), point))
        return cfg


@dataclass(frozen=True)
class SweepPoint:
    """One sweep result row; error says why an Error row failed and is not
    a CSV column."""

    n: int
    p: float
    beta: float
    b0: float
    amplitude: float
    mean_u1: float
    verdict_theory: str
    outcome: str
    t_stop: float
    t_star_est: float | None
    fit_quality: float | None
    error: str | None = None


def sweep_points(config: SweepConfig) -> list:
    """Ordered cartesian product of the configured parameter values."""
    return list(
        product(
            config.n_values,
            config.p_values,
            config.beta_values,
            config.b0_values,
            config.amplitudes,
        )
    )


def _run_point(config: SweepConfig, point) -> SweepPoint:
    n, p, beta = point[:3]
    verdict = classify(n, beta, p).value
    try:
        cfg = config.point_config(point)
        init = build_initial_data(cfg, build_grid(cfg))
        report = simulate(build_params(cfg), init, build_controls(cfg))
    except Exception as exc:
        return SweepPoint(
            *point, mean_u1=math.nan, verdict_theory=verdict, outcome="Error",
            t_stop=math.nan, t_star_est=None, fit_quality=None,
            error=f"{type(exc).__name__}: {exc}",
        )
    outcome = report.outcome.value
    if report.outcome is Outcome.COMPLETED_HORIZON:
        outcome = "SurvivedHorizon"
    return SweepPoint(
        *point,
        mean_u1=init.mean_u1,
        verdict_theory=verdict,
        outcome=outcome,
        t_stop=report.t_stop,
        t_star_est=report.estimate.t_star if report.estimate else None,
        fit_quality=report.estimate.fit_quality if report.estimate else None,
    )


def run_sweep(config: SweepConfig, workers: int = 1) -> list:
    """Run every sweep point; per-point failures become Error rows and never
    abort the sweep.  Results come back in input order regardless of the
    worker count.  The pool has min(workers, number of points) processes;
    where that is below 2, the points run in this process."""
    points = sweep_points(config)
    workers = max(1, min(workers, len(points)))
    if workers == 1:
        return [_run_point(config, pt) for pt in points]
    # imported here, as the pool's modules cost 10-15 ms at import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(_run_point, config), points))


def write_sweep_csv(results, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SWEEP_CSV_COLUMNS) + "\n")
        for r in results:
            row = (getattr(r, column) for column in SWEEP_CSV_COLUMNS)
            fh.write(",".join(map(format_cell, row)) + "\n")
