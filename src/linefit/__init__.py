"""Least-squares line fitting by vertical, horizontal or perpendicular offsets.

The three fits share one pipeline: summarize the paired sample, then apply a
closed form in the summary statistics.  The perpendicular fit is the only one
that is invariant under rotations of the data and the only one that never
fails on degenerate input; when the statistics are isotropic it reports the
whole family of lines through the centroid instead of picking one.
"""

from .diagnostics import ComparisonReport, compare
from .errors import (
    CsvParseError,
    GenerationError,
    HorizontalDataError,
    InsufficientDataError,
    InvalidLineError,
    InvalidSampleError,
    LineFitError,
    NotRepresentableError,
    SampleMismatchError,
    VerticalDataError,
)
from .fitters import (
    AllLinesThroughCentroid,
    FitReport,
    OrthogonalCase,
    UniqueLine,
    fit_d,
    fit_d_report,
    fit_x,
    fit_y,
    iso_tolerance,
    objective_d,
    objective_x,
    objective_y,
    resolve_case,
)
from .generators import (
    CircleSpec,
    NoisyLineSpec,
    SlantedLadder,
    VerticalLadder,
    gen_circle,
    gen_noisy_line,
    gen_parallel,
)
from .geometry import (
    InverseSlopeLine,
    NormalLine,
    Point,
    SlopeInterceptLine,
    inverse_slope_to_normal,
    normal_to_inverse_slope,
    normal_to_slope,
    slope_to_normal,
)
from .stats import PairedSample, Sample, SummaryStats, covariance, mean, summarize, variance
from .transforms import (
    InvarianceReport,
    RigidMotion,
    Rotation,
    Translation,
    apply_motion_points,
    invariance_report,
    line_discrepancy,
    transform_line,
)

__version__ = "0.1.0"
