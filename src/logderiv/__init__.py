"""Lower bounds, level sets, and certificates for log-derivatives of
polynomials with all zeros on the unit circle, plus the Chebyshev-norm
corollaries for zeros in the closed disk."""

from .bounds import (
    AREA_LOWER_BOUND,
    endpoint_window_width,
    level_measure_constant,
    matched_delta,
    mean_lower_constant,
)
from .certify import (
    ENDPOINT,
    SIDE_MINUS,
    SIDE_PLUS,
    Certificate,
    KernelParams,
    PolePartition,
    VerificationReport,
    build_certificate,
    classify_poles,
    common_segment,
    guarantee_segment,
    kernel_lower_holds,
    kernel_small_windows,
    poisson_threshold,
    verify_certificate,
)
from .errors import (
    BudgetExhausted,
    DomainError,
    PoleHit,
    PreconditionViolation,
    RootIsolationFailure,
    ToleranceNotMet,
    ZeroAtEndpoint,
)
from .explorer import (
    AREA,
    MEAN,
    WEIGHTED_MEAN,
    Objective,
    StudyRecord,
    angles_sidecar,
    canonical_angles,
    equally_spaced,
    optimize,
    sharpness_table,
    study_csv,
)
from .extremal import (
    eval_sharp,
    sharp_level,
    sharp_level_constant,
    sharp_level_cutoff,
    sharp_level_set,
    sharp_lp_mean,
    sharp_mean_constant,
    sharp_poles,
)
from .intervals import IntervalUnion, from_pairs, intersect
from .levelset import (
    LevelQuery,
    endpoint_window,
    level_set,
    level_set_for,
    window_concentration,
)
from .poles import (
    PoleSet,
    eval_level_array,
    eval_logderiv,
    poisson_kernel,
)
from .polynorm import (
    DiskPolynomial,
    ZeroCounts,
    cheb_norm,
    check_norm_bounds,
    check_two_sided_positivity,
    endpoint_ratio,
    random_disk_polynomial,
    zero_counts,
)
from .quadrature import (
    MeanBoundReport,
    MeanSpec,
    QuadratureResult,
    area_integral,
    check_lp_lower_bound,
    lp_mean,
)

__version__ = "0.1.0"
