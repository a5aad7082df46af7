"""Parameter sweeps over (n, p, beta, b0, amplitude) with reproducible CSV
output.

Each point runs one simulation from theorem-style data (zero displacement,
positive velocity bump) and records the observed outcome next to the
closed-form region verdict.  A run that reaches the horizon is labeled
SurvivedHorizon: nothing is proven above the threshold, so the label claims
only what was observed.  Points are processed in input order and the report
is a deterministic function of the configuration, whatever the worker count.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .exponents import classify
from .grids import Field, Grid
from .model import Params, bump_data, make_initial_data
from .stepper import Controls, Outcome, simulate

__all__ = [
    "SweepConfig",
    "SweepPoint",
    "sweep_points",
    "run_sweep",
    "write_sweep_csv",
    "format_cell",
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


@dataclass(frozen=True)
class SweepConfig:
    """Grid of sweep points plus the shared run settings.

    The box half-width defaults to 4 * (radius + t_end) so compactly
    supported data stays clear of the periodic wrap for the whole horizon.
    tol = None marches every point with the fixed step dt0, as in Controls.
    """

    n_values: tuple = (1,)
    p_values: tuple = (2.0,)
    beta_values: tuple = (0.0,)
    b0_values: tuple = (1.0,)
    amplitudes: tuple = (1.0,)
    points_per_axis: int = 512
    radius: float = 1.0
    half_width: float | None = None
    t_end: float = 50.0
    dt0: float = 1e-2
    dt_min: float = 1e-12
    tol: float | None = 1e-6
    u_max: float = 1e8
    fit_points: int = 12

    def box_half_width(self) -> float:
        if self.half_width is not None:
            return self.half_width
        return 4.0 * (self.radius + self.t_end)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep result row."""

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
    n, p, beta, b0, amplitude = point
    params = Params(n=n, p=p, beta=beta, b0=b0)
    verdict = classify(n, beta, p).value
    try:
        grid = Grid(n, config.points_per_axis, config.box_half_width())
        init = make_initial_data(
            Field(grid, np.zeros(grid.shape)),
            bump_data(grid, amplitude, radius=config.radius),
            compact_support=True,
            theorem_data=amplitude > 0,
        )
        controls = Controls(
            t_end=config.t_end,
            dt0=config.dt0,
            dt_min=config.dt_min,
            tol=config.tol,
            u_max=config.u_max,
            fit_points=config.fit_points,
        )
        report = simulate(params, init, controls)
    except Exception:
        return SweepPoint(
            n, p, beta, b0, amplitude,
            mean_u1=math.nan,
            verdict_theory=verdict,
            outcome="Error",
            t_stop=math.nan,
            t_star_est=None,
            fit_quality=None,
        )
    outcome = report.outcome.value
    if report.outcome is Outcome.COMPLETED_HORIZON:
        outcome = "SurvivedHorizon"
    return SweepPoint(
        n, p, beta, b0, amplitude,
        mean_u1=init.mean_u1,
        verdict_theory=verdict,
        outcome=outcome,
        t_stop=report.t_stop,
        t_star_est=report.estimate.t_star if report.estimate else None,
        fit_quality=report.estimate.fit_quality if report.estimate else None,
    )


def _worker_cap(workers: int) -> int:
    cap = os.environ.get("BLWP_WORKERS")
    if cap:
        workers = min(workers, max(1, int(cap)))
    return max(1, workers)


def run_sweep(config: SweepConfig, workers: int = 1) -> list:
    """Run every sweep point; per-point failures become Error rows and never
    abort the sweep.  Results come back in input order regardless of the
    worker count."""
    points = sweep_points(config)
    workers = _worker_cap(workers)
    if workers == 1 or len(points) <= 1:
        return [_run_point(config, pt) for pt in points]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(_run_point, config), points))


def format_cell(value) -> str:
    """The one number formatter of CSV cells and CLI output: repr for
    floats (so inf, -inf and nan read back), empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_sweep_csv(results, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SWEEP_CSV_COLUMNS) + "\n")
        for r in results:
            row = (
                r.n, r.p, r.beta, r.b0, r.amplitude, r.mean_u1, r.verdict_theory,
                r.outcome, r.t_stop, r.t_star_est, r.fit_quality,
            )
            fh.write(",".join(map(format_cell, row)) + "\n")
