"""treeldp: large-deviation pressure, rate functions, optimal paths, and
exact leaf/cherry/bud statistics for random tree growth chains."""

from .chain import (
    DEFAULT_SEED,
    AffineSlope,
    LinearSlope,
    ModelSpec,
    PlaneOrientedSlope,
    PrefAttachSlope,
    RandomizedPASlope,
    Trajectory,
    UniformRecursiveSlope,
    YuleSlope,
    interpolate,
    make_generator,
    model_from_name,
    simulate,
    simulate_endpoints,
)
from .dist import (
    ExactPoly,
    Pmf,
    certify_real_rooted,
    exact_poly,
    log_mgf,
    pmf,
    pmf_advance,
    pmf_snapshots,
    pmf_start,
    tail_log_prob,
)
from .pressure import (
    PressureEval,
    RatePoint,
    mean_slope,
    ode_residual,
    pressure,
    pressure_derivatives,
    rate,
    sigma_sq,
)
from .path import (
    EulerSolution,
    PathFunction,
    euler_solve,
    local_cost,
    path_rate,
)
from .trees import (
    GrowthResult,
    StatReport,
    batch_pa_buds,
    batch_pa_leaves,
    batch_recursive_leaves,
    batch_stirling_plateaux,
    batch_yule_cherries,
    bud_lln_endpoints,
    grow_pa_graph,
    grow_recursive,
    grow_stirling,
    grow_yule,
    tv_against_chain,
    verify_clt,
)

__version__ = "0.1.0"
