"""Hausdorff averaging operators on Fock and mixed-norm Fock spaces."""

from .entire import (
    CoeffFunction,
    TruncationError,
    dilate,
    gaussian_peak,
    kernel,
    monomial,
    rademacher_randomize,
)
from .focknorm import (
    INF,
    FockParams,
    coeff_weighted_lp,
    fock_norm,
    kernel_norm_closed,
    mixed_norm,
    monomial_norm_closed,
)
from .hausdorff import (
    DilationBounds,
    HausdorffOperator,
    IllDefined,
    apply_quadrature,
    apply_spectral,
    dilation_opnorm_bounds,
    dilation_opnorm_estimate,
)
from .measure import (
    BetaTailDensity,
    DecayBound,
    Density,
    DivergentMoment,
    DomainError,
    MeasureSpec,
    MellinConvolution,
    MomentSequence,
    PointMasses,
    PowerTailDensity,
    Scaled,
    SupportReport,
    ZeroMeasure,
    dirac,
    geometric_atoms,
    hardy_measure,
    moments,
    named_measure,
    normalize,
    support_report,
)
from .classify import (
    ClassReport,
    CriterionInapplicable,
    HypothesisNotDeclared,
    RadialWeight,
    SeriesVerdict,
    Verdict,
    classify_bounded,
    classify_compact,
    classify_entire,
    classify_weighted,
    gauss_weight,
    series_verdict,
    smoothing_criteria,
    summing_criteria,
    sup_verdict,
)

__version__ = "0.1.0"
