"""volcalc: causal (Volterra) parabolic symbol calculus on the flat torus.

Graded parabolic symbols with exact trig-polynomial coefficients, the
# composition, recursive heat parametrices, closed-form causal kernels,
short-time diagonal heat coefficients, an independent contour-integral
semigroup oracle, and the parabolic rescaling family.
"""

from .deform import (
    ScaledFamily,
    homogeneity_defect,
    measure_scaling_check,
    rescale_symbol,
)
from .heatexp import HeatCoefficient, HeatExpansion, heat_coefficients
from .moments import central_moment, gaussian_moment
from .report import ReportRow, ReportTable
from .semigroup import (
    ContourQuadrature,
    DiscretizedOperator,
    FitResult,
    default_quadrature,
    discretize,
    dunford_heat,
    fit_diagonal_expansion,
    heat_diagonal,
    hille_yosida,
    hy_heat,
    log_coefficient_estimate,
    matrix_heat_reference,
    resolution_cutoff,
    resolvent_bound_check,
)
from .specfile import SpecFileError, corpus_dir, load_corpus, load_operator_spec
from .symcore import (
    CoefficientField,
    DomainError,
    FormMismatchError,
    NotPositiveDefiniteError,
    ParabolicSymbol,
    QuadraticForm,
    SingularityError,
    lambda_power,
)
from .validate import run_acceptance
from .volterra import (
    CausalKernel,
    CausalityGrid,
    NonIntegrableError,
    OperatorSpec,
    ParametrixResult,
    ParametrixShapeError,
    anticausal_control,
    causality_check,
    min_extension_index,
    operator_symbol,
    parametrix,
    sharp_exact,
    sharp_product,
)

__version__ = "0.1.0"
