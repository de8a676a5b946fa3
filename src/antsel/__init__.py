"""Link-level simulator and analytic verifier for transmit antenna
selection in spatially multiplexed MIMO links."""

__version__ = "0.1.0"

from .channel import (
    ProjectionReport,
    SingularMatrixError,
    gram_inverse_diag,
    projection_height_sq,
    sample_channel,
    stream_generator,
)
from .selection import (
    RULES,
    AntennaSubset,
    SelectionOutcome,
    SubsetMetrics,
    enumerate_subsets,
    select,
    subset_metrics,
)
from .receivers import (
    FEEDBACK_MODES,
    ORDERING_MODES,
    RECEIVERS,
    LinkBudget,
    SymbolFrame,
    detect_df,
    stream_snrs,
    vblast_order,
)
from .analytic import (
    AnalyticSpec,
    ExpansionCoefficients,
    QuadratureError,
    binomial_identity_check,
    chi2n_cdf,
    dmt_curve,
    exp_integral,
    outage_coefficient,
    pr_outage_quadrature,
    series_partial,
    theta0_cdf,
    theta0_pdf,
    theta_pdf,
)
from .montecarlo import (
    EmpiricalCurve,
    ExperimentConfig,
    FitError,
    SlopeFit,
    estimate_ber,
    estimate_outage,
    fit_slope,
    independence_suite,
    lemma_harness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
