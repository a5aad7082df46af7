import importlib

import pytest

import blowuplab

# the names the package re-exported when __init__.py listed them by hand
EXPORTED = {
    "exponents": (
        "RegionVerdict", "conjugate_exponent", "strauss_exponent",
        "kato_threshold", "beta_threshold", "classify", "scaling_d",
    ),
    "grids": (
        "Grid", "Field", "constant_field", "laplacian", "integrate", "grad_sq_integral",
        "l2_norm", "linf_norm", "save_field_binary", "load_field_binary",
    ),
    "model": (
        "Params", "InitialData", "damping_coeff", "bump_data", "constant_data",
        "mode_data", "make_initial_data",
    ),
    "oracles": (
        "OdeProblem", "ode_blowup_time", "ode_trajectory", "linear_mode_trajectory",
        "blowup_time_from_trajectory",
    ),
    "stepper": (
        "State", "EnergyRecord", "BlowupEstimate", "Outcome", "RunReport", "Controls",
        "simulate", "detect_blowup",
    ),
    "weakform": (
        "CutoffSpec", "cutoff", "cutoff_d1", "cutoff_d2",
        "weak_residual", "weak_identity_terms", "term_bundle", "slope_fit",
        "predicted_exponents", "measure_term_slopes", "manufactured_crosscheck",
    ),
    "scaling": (
        "ScaleMap", "Trajectory", "rescale_trajectory", "invariance_error",
    ),
    "sweep": ("SweepConfig", "SweepPoint", "run_sweep", "write_sweep_csv"),
}

REMOVED = (
    "helmholtz_solve", "gradient", "save_field_csv", "load_field_csv", "nonlinearity", "ScaleKind",
    "TermBundle", "Threshold", "SlopeFit", "default_cutoff_spec", "psi_parts",
    "local_existence_bound", "step", "energy",
)


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exported_names_are_the_defining_modules_objects(module):
    mod = importlib.import_module(f"blowuplab.{module}")
    assert getattr(blowuplab, module) is mod
    for name in EXPORTED[module]:
        assert name in mod.__all__
        obj = getattr(blowuplab, name)
        assert obj is getattr(mod, name)
        assert obj.__module__ == mod.__name__


def test_package_exports_every_public_name_and_no_removed_one():
    for module in EXPORTED:
        mod = importlib.import_module(f"blowuplab.{module}")
        for name in mod.__all__:
            assert getattr(blowuplab, name) is getattr(mod, name)
    for name in REMOVED:
        assert not hasattr(blowuplab, name)
