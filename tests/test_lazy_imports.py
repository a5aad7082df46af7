import importlib
import json
import os
import subprocess
import sys

import blowuplab

LIBRARY = ("exponents", "grids", "model", "oracles", "stepper", "weakform", "scaling", "sweep")
# the modules simulate runs: no weakform, scaling, oracles, sweep or
# exponents, and not the process pool behind sweep
SIMULATE = [
    "blowuplab", "blowuplab.cli", "blowuplab.config", "blowuplab.grids",
    "blowuplab.model", "blowuplab.stepper",
]
# prints, as the last line, the loaded blowuplab modules and the pool's
# concurrent.futures, if loaded
REPORT = (
    "import json, sys; print(json.dumps(sorted(m for m in sys.modules "
    "if m.startswith('blowuplab') or m == 'concurrent.futures')))"
)


def _fresh(code, *argv):
    """The modules a fresh interpreter holds after running code."""
    src = os.path.dirname(os.path.dirname(blowuplab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    assert _fresh("import blowuplab") == ["blowuplab"]


def test_cli_import_loads_only_what_simulate_runs():
    assert _fresh("import blowuplab.cli") == SIMULATE


def test_simulate_loads_only_what_it_runs(tmp_path):
    run = (
        "import sys\nfrom blowuplab.cli import main\n"
        "assert main(sys.argv[1:]) == 0"
    )
    loaded = _fresh(
        run, "simulate", "--grid.points", "16", "--init.kind", "mode",
        "--model.nonlinear", "false", "--time.tol", "0", "--time.dt0", "0.01",
        "--time.t_end", "0.04", "--output.dir", str(tmp_path / "run"),
    )
    assert loaded == SIMULATE


def test_the_first_package_name_loads_the_whole_library():
    # but not the process pool, which a sweep imports when it starts one
    loaded = _fresh("import blowuplab; blowuplab.Grid")
    assert loaded == sorted(["blowuplab", "blowuplab.config", *(f"blowuplab.{m}" for m in LIBRARY)])


def test_a_sweep_on_two_workers_loads_the_pool():
    run = (
        "from blowuplab.sweep import SweepConfig, run_sweep\n"
        "cfg = SweepConfig(amplitudes=(0.0, 0.5), points_per_axis=16, half_width=4.0, t_end=0.05)\n"
        "assert len(run_sweep(cfg, workers=2)) == 2"
    )
    assert "concurrent.futures" in _fresh(run)


def test_star_import_and_dir_cover_every_public_name():
    names = {name for module in LIBRARY
             for name in importlib.import_module(f"blowuplab.{module}").__all__}
    namespace = {}
    exec("from blowuplab import *", namespace)
    assert names <= namespace.keys()
    assert names <= set(dir(blowuplab))
    assert set(blowuplab.__all__) == names


def test_point_keys_are_one_table():
    from blowuplab import config, sweep

    assert sweep.POINT_KEYS is config.POINT_KEYS
    assert blowuplab.POINT_KEYS is config.POINT_KEYS

