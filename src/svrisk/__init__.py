"""Set-valued portfolio risk via selection strategies and dual bounds.

The public surface mirrors the pipeline: univariate risk functionals
(`riskstats`), planar cones and risk regions (`geom2d`), market and
portfolio models (`markets`), selection strategies (`selections`),
scenario generation (`scenarios`) and the bundle assembly (`bounds`).
"""

from .bounds import (
    RiskBundle,
    compute_bundle,
    cone_risk_bounds,
    cone_risk_bounds_lognormal,
    inner_region,
    marginal_region,
    outer_region,
    risk_point,
    sandwich_violation,
    scalarize_bundle,
)
from .errors import ValidationError, WholePlaneError
from .geom2d import (
    ConvexCone2D,
    HalfSpaceSet,
    RiskRegion2D,
    canonical_json,
    hausdorff_on_window,
    region_from_halfspaces,
    region_from_points_plus_cone,
)
from .markets import (
    ExchangeCone2D,
    ScenarioEnsemble,
    SetPortfolio,
    dual_cone,
    solvency_cone,
)
from .riskstats import (
    ES,
    NEG_ESSINF,
    NEG_EXPECTATION,
    VAR,
    RiskSpec,
    WeightedSample,
    es_empirical,
    es_normal,
    es_var_lognormal_mean_one,
    neg_essinf,
    neg_expectation,
    risk_eval,
    var_empirical,
)
from .scenarios import GenSpec, generate, read_csv, write_csv
from .selections import (
    SelectionMatrix,
    audit_selection,
    axis_transfer_selections,
    boost_worst_coordinate,
    build_family,
    comonotone_corner_points,
    comonotone_corner_selections,
    default_strategy_configs,
    frictionless_direction,
    frictionless_projection,
    liquidity_capped_projection,
    liquidity_corners,
    quantile_shift_projection,
)

__version__ = "0.1.0"
