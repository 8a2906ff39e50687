"""Numerical laboratory for fractional mean-field reaction-diffusion dynamics.

Subpackages are organised bottom-up: periodic spectral grids and
fractional operators (``grid``), empirical measures and transport
metrics (``measure``), the structured coefficient family and its
condition audit (``coefficients``), tamed semi-implicit time stepping
for the frozen / deterministic / controlled equations (``dynamics``),
the measure-freezing fixed-point solver (``mckean_vlasov``), action
minimisation over controls (``rate_function``), configuration
(``config``), the verification suites (``verify``), and the command
line front end (``cli``).
"""

from .coefficients import (
    CoefficientSet,
    ConditionReport,
    DriftF,
    DriftG,
    NoiseSigma,
    PsiField,
    TimeProfile,
    verify_conditions,
)
from .dynamics import (
    Control,
    NoisePath,
    TimeGrid,
    Trajectory,
    energy_residual,
    solve_controlled,
    solve_deterministic,
    solve_frozen,
)
from .errors import (
    BlowUpError,
    FixedPointDivergenceError,
    FracmvError,
    GridMismatchError,
    InvalidFieldError,
    ValidationError,
)
from .grid import (
    GridFunction,
    SpatialGrid,
    apply_fractional_laplacian,
    apply_semigroup_resolvent,
    l2_inner,
    l2_norm,
    sq_seminorms,
    sq_v_norms,
    tail_masses,
)
from .measure import (
    EmpiricalMeasure,
    MeasureFlow,
    flow_distance,
    wasserstein2,
    wasserstein2_to_dirac0,
)
from .mckean_vlasov import (
    MeanFieldProblem,
    PicardConfig,
    PicardReport,
    PicardResult,
    apply_phi,
    auto_lambda,
    picard_solve,
    small_noise_sweep,
)
from .config import RunConfig, canonical_dict, load_config
from .rate_function import (
    RateEstimate,
    RateProblem,
    control_cost,
    estimate_rate,
    level_set_probe,
    weak_convergence_experiment,
)
from .verify import SUITES, CheckResult, run_suites

__version__ = "0.1.0"
