"""Model-agnostic risk monotonization.

Zero-step (bagged subsample) and one-step (split + ridgeless residual
adjustment) cross-validation procedures, the deterministic asymptotic risk
profiles they attain, and a Monte-Carlo sweep harness for verifying empirical
risk curves against those profiles.
"""

from .core import (
    Dataset,
    InvalidSplitError,
    InvalidSubsampleError,
    LinearPredictor,
    LossKind,
    SolverError,
    SplitPlan,
    child_seed,
    draw_disjoint_pair,
    draw_subsample,
    evaluate_loss,
    split_train_test,
)
from .cv_select import CandidateFamily, RiskTable, cross_validate, default_test_size
from .datagen import ConditionalSampler, DataModel, generate
from .monotonize import (
    ConfigError,
    MonotonizeConfig,
    bagged_ingredient,
    one_step,
    one_step_grid,
    onestep_ingredient,
    zero_step,
    zero_step_grid,
)
from .predictors import (
    BaseProcedure,
    ConvergenceWarning,
    fit_lasso,
    fit_mn1ls,
    fit_mn2ls,
    fit_null,
    fit_ridge,
)
from .profiles import (
    FixedPointState,
    Mn1lsPrior,
    ModelEnergy,
    OneStepOptimum,
    SpectralInputs,
    mn1ls_profile,
    mn2ls_profile,
    mn2ls_profile_isotropic,
    monotonize_curve,
    monotonize_profile,
    onestep_profile,
    onestep_profile_iterated,
    optimize_onestep_iso,
    snr_star,
    solve_v,
)
from .risk_estimation import (
    AVG,
    Avg,
    InfeasibleEtaError,
    Mom,
    RiskEstimate,
    closed_form_risk,
    delta_diagnostics,
    estimate_risk_avg,
    estimate_risk_mom,
    mc_true_risk,
    median_of_means,
    mom_batch_count,
    oracle_inequalities_hold,
)
from .sweep import CurveTable, SweepConfig, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
