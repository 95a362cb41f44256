"""Model-agnostic risk monotonization.

Zero-step (bagged subsample) and one-step (split + ridgeless residual
adjustment) cross-validation procedures, the deterministic asymptotic risk
profiles they attain, and a Monte-Carlo sweep harness for verifying empirical
risk curves against those profiles.

The root exports what the CLI, the scripts and the benchmark use; everything
else is imported from its submodule (`riskmono.core`, `riskmono.cv_select`,
`riskmono.risk_estimation`, ...).
"""

from .core import Dataset
from .datagen import DataModel, generate
from .monotonize import MonotonizeConfig, one_step, zero_step
from .predictors import BaseProcedure, fit_lasso, fit_mn1ls
from .profiles import (
    Mn1lsPrior,
    ModelEnergy,
    mn1ls_profile,
    mn2ls_profile,
    monotonize_curve,
    monotonize_profile,
    optimize_onestep_iso,
    solve_v,
)
from .sweep import SweepConfig, run_sweep
